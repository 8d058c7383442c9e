//===- robustness_test.cpp - Dynamic checks and edge cases -----------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "Properties that cannot be checked statically are enforced by runtime
/// checks" (Section 1). These tests pin down the runtime checks of the
/// relational layer — a failed check throws jedd::UsageError so
/// embedders can catch and continue, with JEDDPP_CHECKS=fatal restoring
/// report-and-abort (docs/robustness.md) — plus a collection of boundary
/// behaviours across modules.
///
//===----------------------------------------------------------------------===//

#include "jedd/Driver.h"
#include "rel/Relation.h"
#include "sat/Solver.h"
#include "util/Error.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace jedd;
using namespace jedd::rel;

namespace {

/// Runs \p Body expecting a jedd::UsageError whose message contains
/// \p Sub.
template <typename Fn>
void expectUsageError(Fn &&Body, const std::string &Sub) {
  try {
    Body();
    FAIL() << "expected jedd::UsageError containing '" << Sub << "'";
  } catch (const UsageError &E) {
    EXPECT_NE(std::string(E.what()).find(Sub), std::string::npos)
        << "actual message: " << E.what();
  }
}

/// Fixture with a small universe for the death tests.
class RuntimeChecksTest : public ::testing::Test {
protected:
  void SetUp() override {
    D = U.addDomain("D", 8);
    E = U.addDomain("E", 4);
    A = U.addAttribute("a", D);
    B = U.addAttribute("b", D);
    C = U.addAttribute("c", E);
    P0 = U.addPhysicalDomain("P0");
    P1 = U.addPhysicalDomain("P1");
    U.finalize();
  }

  Universe U;
  DomainId D, E;
  AttributeId A, B, C;
  PhysDomId P0, P1;
};

TEST_F(RuntimeChecksTest, DuplicateAttributeInSchema) {
  expectUsageError([&] { U.empty({{A, P0}, {A, P1}}); },
                   "duplicate attribute");
}

TEST_F(RuntimeChecksTest, SharedPhysicalDomainInSchema) {
  expectUsageError([&] { U.empty({{A, P0}, {B, P0}}); },
                   "share physical domain");
}

TEST_F(RuntimeChecksTest, SetOpOnDifferentSchemas) {
  Relation RA = U.empty({{A, P0}});
  Relation RB = U.empty({{B, P0}});
  expectUsageError([&] { (void)(RA | RB); }, "different schemas");
}

TEST_F(RuntimeChecksTest, ValueOutOfDomainRange) {
  Relation RA = U.empty({{C, P0}}); // Domain E holds 4 objects.
  expectUsageError([&] { RA.insert({7}); }, "out of domain range");
}

TEST_F(RuntimeChecksTest, ArityMismatch) {
  Relation RA = U.empty({{A, P0}, {B, P1}});
  expectUsageError([&] { RA.insert({1}); }, "arity");
}

TEST_F(RuntimeChecksTest, RenameAcrossDomains) {
  Relation RA = U.empty({{A, P0}});
  expectUsageError([&] { (void)RA.rename(A, C); }, "different domains");
}

TEST_F(RuntimeChecksTest, ProjectAbsentAttribute) {
  Relation RA = U.empty({{A, P0}});
  expectUsageError([&] { (void)RA.project({B}); }, "does not have");
}

TEST_F(RuntimeChecksTest, JoinOnAttributeOutsideOperand) {
  Relation RA = U.empty({{A, P0}});
  Relation RB = U.empty({{B, P1}});
  expectUsageError([&] { (void)RA.join(RB, {B}, {B}); },
                   "lacks compared attribute");
}

TEST_F(RuntimeChecksTest, DeclarationAfterFinalize) {
  expectUsageError([&] { U.addDomain("late", 4); }, "after finalize");
}

TEST_F(RuntimeChecksTest, FailedCheckLeavesRelationsUsable) {
  // A caught UsageError is recoverable: the operands are untouched and
  // further operations work.
  Relation RA = U.full({{A, P0}});
  Relation RB = U.empty({{B, P0}});
  EXPECT_THROW((void)(RA | RB), UsageError);
  EXPECT_DOUBLE_EQ(RA.size(), 8.0);
  EXPECT_TRUE((RA & RA) == RA);
}

TEST_F(RuntimeChecksTest, UsageErrorCarriesCallSite) {
  Relation RA = U.empty({{A, P0}});
  Relation RB = U.empty({{B, P1}});
  try {
    (void)RA.join(RB, {B}, {B}, JEDD_SITE("flow-step"));
    FAIL() << "expected jedd::UsageError";
  } catch (const UsageError &E) {
    EXPECT_EQ(E.SiteLabel, "flow-step");
    EXPECT_NE(std::string(E.what()).find("flow-step"), std::string::npos);
  }
}

using RuntimeChecksDeathTest = RuntimeChecksTest;

TEST_F(RuntimeChecksDeathTest, ChecksFatalEnvRestoresAbort) {
  // The JEDDPP_CHECKS=fatal escape hatch restores the historical
  // report-and-abort behaviour (useful under debuggers).
  ::setenv("JEDDPP_CHECKS", "fatal", 1);
  EXPECT_DEATH(U.empty({{A, P0}, {A, P1}}), "duplicate attribute");
  ::unsetenv("JEDDPP_CHECKS");
}

//===----------------------------------------------------------------------===//
// Relational edge cases
//===----------------------------------------------------------------------===//

TEST_F(RuntimeChecksTest, NullaryRelationsActAsBooleans) {
  // A relation with no attributes is either {()} (true) or {} (false).
  Relation Empty = U.empty({});
  Relation Full = U.full({});
  EXPECT_DOUBLE_EQ(Empty.size(), 0.0);
  EXPECT_DOUBLE_EQ(Full.size(), 1.0);
  EXPECT_TRUE((Empty | Full) == Full);
  EXPECT_TRUE((Empty & Full) == Empty);
  EXPECT_TRUE(Full.contains({}));
}

TEST_F(RuntimeChecksTest, SingletonDomain) {
  DomainId One = 0; // Reuse D but only insert value 0.
  (void)One;
  Universe U2;
  DomainId S = U2.addDomain("S", 1);
  AttributeId X = U2.addAttribute("x", S);
  PhysDomId Q = U2.addPhysicalDomain("Q");
  U2.finalize();
  Relation R = U2.full({{X, Q}});
  EXPECT_DOUBLE_EQ(R.size(), 1.0);
  EXPECT_TRUE(R.contains({0}));
}

TEST_F(RuntimeChecksTest, FullMinusFullIsEmpty) {
  Relation F = U.full({{A, P0}, {B, P1}});
  EXPECT_TRUE((F - F).isEmpty());
  EXPECT_DOUBLE_EQ((F & F).size(), 64.0);
}

TEST_F(RuntimeChecksTest, ToStringOfEmptyRelation) {
  Relation R = U.empty({{A, P0}});
  EXPECT_NE(R.toString().find("(empty)"), std::string::npos);
}

TEST_F(RuntimeChecksTest, IterateRespectsEarlyStop) {
  Relation R = U.full({{A, P0}});
  int Count = 0;
  R.iterate([&](const std::vector<uint64_t> &) { return ++Count < 3; });
  EXPECT_EQ(Count, 3);
}

//===----------------------------------------------------------------------===//
// Compiler robustness: fuzz the parser/checker with mutated sources
//===----------------------------------------------------------------------===//

class CompilerFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompilerFuzzTest, TruncatedAndMutatedSourcesNeverCrash) {
  const std::string Source = R"(domain D 8;
attribute a : D; attribute b : D; attribute c : D;
physdom P1, P2, P3;
relation <a:P1, b:P2> g;
function f(<b:P1, c:P2> x) {
  <a, b, c> y = g{b} >< x{b};
  <a> z = (b=>, c=>) y;
  z |= new {3=>a};
  do { z = z | z; } while (z != 0B);
  if (z == 0B) { z = 1B; } else { z -= z; }
}
)";
  SplitMix64 Rng(GetParam());

  // Truncations at random points.
  for (int I = 0; I != 40; ++I) {
    size_t Cut = Rng.nextBelow(Source.size());
    DiagnosticEngine Diags;
    auto Compiled = lang::compileJedd(Source.substr(0, Cut), Diags);
    // Either it compiles (a prefix can be a complete program) or it
    // reports errors; it must never crash or hang.
    if (!Compiled) {
      EXPECT_TRUE(Diags.hasErrors() || Cut == 0);
    }
  }

  // Single-character mutations.
  const char Alphabet[] = "<>(){};,|&-=abz019 ";
  for (int I = 0; I != 40; ++I) {
    std::string Mutated = Source;
    Mutated[Rng.nextBelow(Mutated.size())] =
        Alphabet[Rng.nextBelow(sizeof(Alphabet) - 1)];
    DiagnosticEngine Diags;
    auto Compiled = lang::compileJedd(Mutated, Diags);
    (void)Compiled; // Accept either outcome; just don't crash.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompilerFuzzTest,
                         ::testing::Values(41, 42, 43, 44));

//===----------------------------------------------------------------------===//
// SAT robustness: units, assumptions-free corner inputs
//===----------------------------------------------------------------------===//

TEST(SatRobustness, ManyUnitsAndImmediateConflicts) {
  // 200 unit clauses pinning alternate polarities, consistent.
  sat::Solver S;
  for (unsigned V = 0; V != 200; ++V) {
    S.newVar();
    S.addClause({sat::mkLit(V, V % 2 == 0)});
  }
  ASSERT_EQ(S.solve(), sat::Result::Sat);
  for (unsigned V = 0; V != 200; ++V)
    EXPECT_EQ(S.modelValue(V), V % 2 != 0);
}

TEST(SatRobustness, LongImplicationChainsUnderRestarts) {
  // A chain long enough to cross several restart intervals.
  sat::Solver S;
  constexpr unsigned N = 2000;
  for (unsigned V = 0; V != N; ++V)
    S.newVar();
  S.addClause({sat::mkLit(0)});
  for (unsigned V = 0; V + 1 != N; ++V)
    S.addClause({sat::mkLit(V, true), sat::mkLit(V + 1)});
  ASSERT_EQ(S.solve(), sat::Result::Sat);
  EXPECT_TRUE(S.modelValue(N - 1));
}

TEST(SatRobustness, UndeclaredVariableIsAUsageError) {
  // Checked in every build: the literal would index the assignment and
  // the watch lists past their end.
  sat::Solver S;
  S.newVar();
  expectUsageError([&] { S.addClause({sat::mkLit(0), sat::mkLit(1)}); },
                   "literal 2 over an undeclared variable");
  expectUsageError([&] { S.addClause({sat::mkLit(7, true)}); },
                   "literal -8 over an undeclared variable");
  // A rejected clause leaves nothing behind.
  S.addClause({sat::mkLit(0, true)});
  ASSERT_EQ(S.solve(), sat::Result::Sat);
  EXPECT_FALSE(S.modelValue(0));
}

} // namespace
