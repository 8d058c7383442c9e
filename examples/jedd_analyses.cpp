//===- jedd_analyses.cpp - The five .jedd modules, interpreted -------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The complete Jedd system of Figure 1 running the complete application
/// of Figure 2: the five whole-program analyses *written in the Jedd
/// language* (jeddsrc/) are compiled — type checking, SAT-based physical
/// domain assignment — and executed by the interpreter over a generated
/// benchmark. The host program plays the role the paper's surrounding
/// Java plays: loading facts into the global relations, alternating the
/// points-to / call-graph modules to the on-the-fly fixpoint, and
/// extracting results. Finally points-to, the call graph, reachability
/// and the transitive side effects are checked tuple for tuple against
/// the independent set-based reference implementation; any difference
/// names the first differing tuple and exits 1.
///
/// Usage: jedd_analyses [benchmark]   (default: javac_s)
///
/// Exit codes: 0 when every result matches the reference; 1 on a
/// mismatch, a compile failure, or a misuse of the relational runtime
/// (e.g. a fact beyond the prelude's fixed domain sizes, as on jedit_x4).
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyses.h"
#include "jedd/Driver.h"
#include "jedd/Interp.h"
#include "soot/Generator.h"
#include "util/Error.h"
#include "util/File.h"

#include <algorithm>
#include <cstdio>
#include <set>

using namespace jedd;
using namespace jedd::lang;
using soot::Id;
using soot::NoId;

namespace {

using TupleList = std::vector<std::vector<uint64_t>>;

/// True if \p Got (the Jedd version's \p Name tuples) equals the
/// reference's \p Want. Otherwise names the first tuple that is in one
/// but not the other.
bool sameTuples(const char *Name, TupleList Got, TupleList Want) {
  std::sort(Got.begin(), Got.end());
  std::sort(Want.begin(), Want.end());
  auto [G, W] =
      std::mismatch(Got.begin(), Got.end(), Want.begin(), Want.end());
  if (G == Got.end() && W == Want.end())
    return true;
  bool Extra = W == Want.end() || (G != Got.end() && *G < *W);
  std::string Tuple;
  for (uint64_t Value : Extra ? *G : *W)
    Tuple += (Tuple.empty() ? "" : ", ") + std::to_string(Value);
  std::fprintf(stderr, "error: %s: the Jedd version %s (%s), which the "
               "reference %s\n",
               Name, Extra ? "has" : "misses", Tuple.c_str(),
               Extra ? "lacks" : "has");
  return false;
}

std::string readModule(const std::string &Name) {
  std::string Text;
  if (!readFileToString(std::string(JEDDPP_JEDDSRC_DIR) + "/" + Name,
                        Text)) {
    std::fprintf(stderr, "error: cannot read jeddsrc/%s\n", Name.c_str());
    std::exit(1);
  }
  return Text;
}

} // namespace

static int analysesMain(int argc, char **argv) {
  std::string Benchmark = argc > 1 ? argv[1] : "javac_s";
  soot::Program P =
      soot::generateProgram(soot::benchmarkPreset(Benchmark));
  std::printf("benchmark %s: %zu classes, %zu methods, %zu call sites\n\n",
              Benchmark.c_str(), P.Klasses.size(), P.Methods.size(),
              P.Calls.size());

  // 1. jeddc: compile the five modules together (the Figure 1 pipeline).
  std::string Source = readModule("prelude.jedd");
  for (const char *Name : {"hierarchy.jedd", "vcr.jedd", "pointsto.jedd",
                           "callgraph.jedd", "sideeffect.jedd"})
    Source += readModule(Name);
  DiagnosticEngine Diags("combined.jedd");
  auto Compiled = compileJedd(Source, Diags);
  if (!Compiled) {
    std::fputs(Diags.renderAll().c_str(), stderr);
    return 1;
  }
  const AssignStats &S = Compiled->assignStats();
  std::printf("jeddc: %zu relational expressions, SAT problem %zu vars / "
              "%zu clauses, solved in %.3f s, %zu replaces survive\n\n",
              S.NumRelationalExprs, S.SatVariables, S.SatClauses,
              S.SolveSeconds, S.ReplacesNeeded);

  // 2. Load the program facts into the global relations, one insertAll
  // per global and batch.
  rel::Universe U;
  Compiled->buildUniverse(U);
  Interpreter Interp(*Compiled, U);
  auto Insert = [&](const char *Global, const std::vector<uint64_t> &Tuples) {
    rel::Relation Value = Interp.getGlobal(Global);
    Value.insertAll(Tuples);
    Interp.setGlobal(Global, Value);
  };

  std::vector<uint64_t> Extend, IdentityT, Declares, IdentityM, SiteType,
      VarMethod;
  for (size_t K = 0; K != P.Klasses.size(); ++K) {
    if (P.Klasses[K].Super != NoId)
      Extend.insert(Extend.end(), {K, P.Klasses[K].Super});
    IdentityT.insert(IdentityT.end(), {K, K});
  }
  for (size_t M = 0; M != P.Methods.size(); ++M) {
    Declares.insert(Declares.end(), {P.Methods[M].Klass, P.Methods[M].Sig, M});
    IdentityM.insert(IdentityM.end(), {M, M});
  }
  for (size_t Site = 0; Site != P.NumSites; ++Site)
    SiteType.insert(SiteType.end(), {Site, P.SiteType[Site]});
  for (size_t V = 0; V != P.NumVars; ++V)
    VarMethod.insert(VarMethod.end(), {V, P.VarMethod[V]});
  Insert("extend", Extend);
  Insert("identityT", IdentityT);
  Insert("declaresMethod", Declares);
  Insert("identityM", IdentityM);
  Insert("siteType", SiteType);
  Insert("varMethod", VarMethod);

  // Statement facts enter on the fly: each batch holds the statements of
  // the methods that became reachable and the copies of new call edges.
  std::set<Id> Reachable;
  auto AddFacts = [&](const std::vector<Id> &Methods,
                      const std::vector<uint64_t> &Copies) {
    std::vector<Id> New;
    for (Id Method : Methods)
      if (Reachable.insert(Method).second)
        New.push_back(Method);
    soot::MethodFacts Facts = P.factsOf(New);
    Facts.Assign.insert(Facts.Assign.end(), Copies.begin(), Copies.end());
    Insert("alloc", Facts.Alloc);
    Insert("assign", Facts.Assign);
    Insert("load", Facts.Load);
    Insert("store", Facts.Store);
    Insert("callRecvSig", Facts.CallRecvSig);
    Insert("callerOf", Facts.CallerOf);
  };
  AddFacts({P.EntryMethod}, {});

  // 3. Hierarchy module.
  Interp.call("buildHierarchy", {});
  std::printf("buildHierarchy:    %.0f subtype pairs\n",
              Interp.getGlobal("subtypeOf").size());

  // 4. Points-to + call graph, alternated to the on-the-fly fixpoint.
  std::set<std::pair<Id, Id>> SeenEdges;
  unsigned Rounds = 0;
  while (true) {
    ++Rounds;
    Interp.call("solvePointsTo", {});
    Interp.call("buildReceiverTypes", {});
    Interp.call("resolveCalls", {});

    // Extraction (Section 2.3): walk the new call edges in the host.
    std::vector<Id> Callees;
    std::vector<uint64_t> Copies;
    Interp.getGlobal("cg").iterate([&](const std::vector<uint64_t> &T) {
      Id CallId = static_cast<Id>(T[0]), Callee = static_cast<Id>(T[1]);
      if (SeenEdges.insert({CallId, Callee}).second) {
        Callees.push_back(Callee);
        P.callCopies(CallId, Callee, Copies);
      }
      return true;
    });
    if (Callees.empty())
      break;
    AddFacts(Callees, Copies);
  }
  std::printf("points-to:         %.0f pairs after %u rounds\n",
              Interp.getGlobal("pt").size(), Rounds);
  std::printf("call graph:        %zu edges, %zu reachable methods\n",
              SeenEdges.size(), Reachable.size());

  // 5. Side effects.
  Interp.call("computeSideEffects", {});
  std::printf("side effects:      %.0f transitive writes, %.0f reads\n\n",
              Interp.getGlobal("totalWrite").size(),
              Interp.getGlobal("totalRead").size());

  // 6. Check against the independent reference implementation.
  analysis::ReferenceResults Ref = analysis::computeReference(P);
  TupleList RefPt, RefCg, RefWrite, RefRead;
  for (size_t Var = 0; Var != Ref.PointsTo.size(); ++Var)
    for (Id Site : Ref.PointsTo[Var])
      RefPt.push_back({Var, Site});
  for (size_t Call = 0; Call != Ref.CallGraph.size(); ++Call)
    for (Id Callee : Ref.CallGraph[Call])
      RefCg.push_back({Call, Callee});
  for (auto [Method, Site, Field] : Ref.TotalWrite)
    RefWrite.push_back({Method, Site, Field});
  for (auto [Method, Site, Field] : Ref.TotalRead)
    RefRead.push_back({Method, Site, Field});
  // Every check runs, so each difference is reported.
  bool Match = sameTuples("pt", Interp.getGlobal("pt").tuples(), RefPt);
  Match &= sameTuples("cg", Interp.getGlobal("cg").tuples(), RefCg);
  Match &= sameTuples("totalWrite", Interp.getGlobal("totalWrite").tuples(),
                      RefWrite);
  Match &= sameTuples("totalRead", Interp.getGlobal("totalRead").tuples(),
                      RefRead);
  if (Reachable != Ref.ReachableMethods) {
    std::fprintf(stderr, "error: the reachable methods differ from the "
                         "reference's\n");
    Match = false;
  }
  std::printf("reference check:   pt=%zu cg=%zu writes=%zu reads=%zu "
              "-> %s\n",
              RefPt.size(), RefCg.size(), RefWrite.size(), RefRead.size(),
              Match ? "MATCH" : "MISMATCH");
  return Match ? 0 : 1;
}

int main(int argc, char **argv) {
  try {
    return analysesMain(argc, argv);
  } catch (const UsageError &E) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
}
