//===- jeddsrc_test.cpp - The shipped .jedd analysis modules compile ------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles the five analysis modules written in the Jedd language
/// (jeddsrc/) — individually and combined, as Table 1 does — and runs
/// the points-to module end to end through the interpreter against the
/// C++ relational implementation.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyses.h"
#include "io/Io.h"
#include "jedd/CppEmit.h"
#include "jedd/Driver.h"
#include "jedd/Interp.h"
#include "soot/Generator.h"
#include "util/File.h"
#include "util/StringUtils.h"

#include <cstdlib>
#include <numeric>

#include <gtest/gtest.h>

using namespace jedd;
using namespace jedd::lang;

#ifndef JEDDPP_JEDDSRC_DIR
#error "JEDDPP_JEDDSRC_DIR must point at the jeddsrc/ directory"
#endif

namespace {

std::string readModule(const std::string &Name) {
  std::string Text;
  bool Ok =
      readFileToString(std::string(JEDDPP_JEDDSRC_DIR) + "/" + Name, Text);
  EXPECT_TRUE(Ok) << "cannot read " << Name;
  return Text;
}

const std::vector<std::string> &moduleNames() {
  static const std::vector<std::string> Names = {
      "hierarchy.jedd", "vcr.jedd", "pointsto.jedd", "callgraph.jedd",
      "sideeffect.jedd"};
  return Names;
}

class JeddModuleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(JeddModuleTest, CompilesStandalone) {
  std::string Source = readModule("prelude.jedd") + readModule(GetParam());
  DiagnosticEngine Diags(GetParam());
  auto Compiled = compileJedd(Source, Diags);
  ASSERT_TRUE(Compiled != nullptr) << Diags.renderAll();
  const AssignStats &S = Compiled->assignStats();
  EXPECT_TRUE(S.Satisfiable);
  EXPECT_GT(S.NumRelationalExprs, 0u);
  EXPECT_GT(S.SatClauses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modules, JeddModuleTest,
    ::testing::Values("hierarchy.jedd", "vcr.jedd", "pointsto.jedd",
                      "callgraph.jedd", "sideeffect.jedd"));

TEST(JeddModules, AllFiveCombinedCompile) {
  std::string Source = readModule("prelude.jedd");
  for (const std::string &Name : moduleNames())
    Source += readModule(Name);
  DiagnosticEngine Diags("combined.jedd");
  auto Compiled = compileJedd(Source, Diags);
  ASSERT_TRUE(Compiled != nullptr) << Diags.renderAll();
  EXPECT_TRUE(Compiled->assignStats().Satisfiable);
  // The combined problem dominates each individual one (Table 1 shape).
  size_t CombinedExprs = Compiled->assignStats().NumRelationalExprs;
  for (const std::string &Name : moduleNames()) {
    DiagnosticEngine D2(Name);
    auto Single = compileJedd(readModule("prelude.jedd") + readModule(Name),
                              D2);
    ASSERT_TRUE(Single != nullptr);
    EXPECT_LT(Single->assignStats().NumRelationalExprs, CombinedExprs);
  }
}

TEST(JeddModules, EmittedCppIsPinned) {
  // FNV-1a hashes of the C++ emitted for the combined program and for
  // each module: any change to the lowering, the solved bindings or the
  // surviving replaces shows here.
  auto EmittedHash = [](const std::string &Source, const std::string &Name) {
    DiagnosticEngine Diags(Name);
    auto Compiled = compileJedd(Source, Diags);
    EXPECT_TRUE(Compiled != nullptr) << Diags.renderAll();
    return Compiled ? io::hashBytes(emitCpp(*Compiled, "all_analyses")) : 0;
  };
  std::string Combined = readModule("prelude.jedd");
  for (const std::string &Name : moduleNames())
    Combined += readModule(Name);
  EXPECT_EQ(EmittedHash(Combined, "combined.jedd"), 0xaf5de93356ab68a8ULL);

  const std::pair<const char *, uint64_t> Modules[] = {
      {"hierarchy.jedd", 0xba0285b710bb049bULL},
      {"vcr.jedd", 0x1843b653a943acc9ULL},
      {"pointsto.jedd", 0x397c866c49de29c5ULL},
      {"callgraph.jedd", 0xa8b7ee0073caab4fULL},
      {"sideeffect.jedd", 0xe7f4ff7179191878ULL}};
  for (auto &[Name, Hash] : Modules)
    EXPECT_EQ(EmittedHash(readModule("prelude.jedd") + readModule(Name), Name),
              Hash)
        << Name;
}

TEST(JeddModules, InterpretedPointsToMatchesNativeImplementation) {
  // Generate a small program, run the .jedd points-to through the
  // interpreter, and compare with the C++ relational analysis.
  soot::GeneratorParams Params;
  Params.NumClasses = 10;
  Params.NumSignatures = 6;
  Params.Seed = 33;
  soot::Program P = soot::generateProgram(Params);
  std::vector<soot::Id> All(P.Methods.size());
  std::iota(All.begin(), All.end(), 0);
  soot::MethodFacts Facts = P.factsOf(All);
  auto Extra = analysis::chaAssignEdges(P);
  for (auto &[Src, Dst] : Extra)
    Facts.Assign.insert(Facts.Assign.end(), {Src, Dst});

  // Interpreter side.
  std::string Source = readModule("prelude.jedd") + readModule("pointsto.jedd");
  DiagnosticEngine Diags("pointsto.jedd");
  auto Compiled = compileJedd(Source, Diags);
  ASSERT_TRUE(Compiled != nullptr) << Diags.renderAll();
  rel::Universe U;
  Compiled->buildUniverse(U);
  Interpreter Interp(*Compiled, U);

  auto Insert = [&](const char *Global, const std::vector<uint64_t> &Tuples) {
    rel::Relation Value = Interp.emptyOfVar(Global);
    Value.insertAll(Tuples);
    Interp.setGlobal(Global, Value);
  };
  Insert("alloc", Facts.Alloc);
  Insert("assign", Facts.Assign);
  Insert("load", Facts.Load);
  Insert("store", Facts.Store);

  Interp.call("solvePointsTo", {});
  rel::Relation Pt = Interp.getGlobal("pt");

  // Native side (all methods + CHA edges, matching the facts above).
  analysis::AnalysisUniverse AU(P);
  analysis::PointsToAnalysis PTA(AU);
  PTA.addMethodFacts(All);
  PTA.addAssignEdges(Extra);
  PTA.solve();

  EXPECT_DOUBLE_EQ(Pt.size(), PTA.Pt.size());
  EXPECT_EQ(Pt.tuples(), PTA.Pt.tuples());
}

TEST(JeddModules, EmittedCppCompiles) {
  // The analogue of the paper's "standard Java files which can be
  // incorporated into any Java project": the combined five-module
  // program is emitted as C++ and must pass a real compiler's syntax
  // and type checking against the runtime headers.
  if (std::system("command -v c++ > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "no host C++ compiler available";

  std::string Source = readModule("prelude.jedd");
  for (const std::string &Name : moduleNames())
    Source += readModule(Name);
  DiagnosticEngine Diags("combined.jedd");
  auto Compiled = compileJedd(Source, Diags);
  ASSERT_TRUE(Compiled != nullptr) << Diags.renderAll();

  std::string Cpp = emitCpp(*Compiled, "all_analyses");
  std::string Path = ::testing::TempDir() + "/jeddpp_emitted.cpp";
  ASSERT_TRUE(writeStringToFile(Path, Cpp));
  std::string Command =
      strFormat("c++ -std=c++20 -fsyntax-only -I %s/src %s 2> %s.log",
                JEDDPP_SOURCE_DIR, Path.c_str(), Path.c_str());
  int Status = std::system(Command.c_str());
  if (Status != 0) {
    std::string Log;
    readFileToString(Path + ".log", Log);
    FAIL() << "emitted C++ failed to compile:\n" << Log;
  }
  std::remove(Path.c_str());
  std::remove((Path + ".log").c_str());
}

} // namespace
