//===- sat_test.cpp - Unit and property tests for the SAT solver ----------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "jedd/Driver.h"
#include "obs/Obs.h"
#include "sat/CoreTools.h"
#include "sat/Solver.h"
#include "util/File.h"
#include "util/Random.h"

#include <gtest/gtest.h>

using namespace jedd;
using namespace jedd::sat;

#ifndef JEDDPP_JEDDSRC_DIR
#error "JEDDPP_JEDDSRC_DIR must point at the jeddsrc/ directory"
#endif

namespace {

CnfFormula makeFormula(unsigned NumVars,
                       std::vector<std::vector<int>> Clauses) {
  // Convenience: signed DIMACS-style literals (1-based, negative = neg).
  CnfFormula F;
  F.NumVars = NumVars;
  for (auto &C : Clauses) {
    std::vector<Lit> Lits;
    for (int L : C) {
      assert(L != 0);
      Lits.push_back(mkLit(static_cast<Var>(std::abs(L) - 1), L < 0));
    }
    F.addClause(std::move(Lits));
  }
  return F;
}

Result solveFormula(const CnfFormula &F, std::vector<bool> *Model = nullptr,
                    std::vector<uint32_t> *Core = nullptr) {
  Solver S;
  S.addFormula(F);
  Result R = S.solve();
  if (R == Result::Sat && Model)
    *Model = S.model();
  if (R == Result::Unsat && Core)
    *Core = S.unsatCore();
  return R;
}

//===----------------------------------------------------------------------===//
// Basic satisfiable / unsatisfiable instances
//===----------------------------------------------------------------------===//

TEST(SatBasics, EmptyFormulaIsSat) {
  CnfFormula F = makeFormula(3, {});
  EXPECT_EQ(solveFormula(F), Result::Sat);
}

TEST(SatBasics, SingleUnit) {
  CnfFormula F = makeFormula(1, {{1}});
  std::vector<bool> Model;
  ASSERT_EQ(solveFormula(F, &Model), Result::Sat);
  EXPECT_TRUE(Model[0]);
}

TEST(SatBasics, ContradictoryUnits) {
  CnfFormula F = makeFormula(1, {{1}, {-1}});
  std::vector<uint32_t> Core;
  ASSERT_EQ(solveFormula(F, nullptr, &Core), Result::Unsat);
  EXPECT_EQ(Core, (std::vector<uint32_t>{0, 1}));
  EXPECT_TRUE(verifyCore(F, Core));
}

TEST(SatBasics, EmptyClauseIsUnsat) {
  CnfFormula F = makeFormula(2, {{1, 2}});
  F.addClause({});
  std::vector<uint32_t> Core;
  ASSERT_EQ(solveFormula(F, nullptr, &Core), Result::Unsat);
  EXPECT_EQ(Core, (std::vector<uint32_t>{1}));
}

TEST(SatBasics, ImplicationChain) {
  // x1 and x1->x2->...->x5, plus a final clause requiring x5.
  CnfFormula F = makeFormula(
      5, {{1}, {-1, 2}, {-2, 3}, {-3, 4}, {-4, 5}, {5}});
  std::vector<bool> Model;
  ASSERT_EQ(solveFormula(F, &Model), Result::Sat);
  for (int V = 0; V != 5; ++V)
    EXPECT_TRUE(Model[V]);
}

TEST(SatBasics, ChainWithContradictionIsUnsat) {
  CnfFormula F =
      makeFormula(4, {{1}, {-1, 2}, {-2, 3}, {-3, 4}, {-4, -1}});
  std::vector<uint32_t> Core;
  ASSERT_EQ(solveFormula(F, nullptr, &Core), Result::Unsat);
  EXPECT_TRUE(verifyCore(F, Core));
  // The whole chain is needed.
  EXPECT_EQ(minimizeCore(F, Core).size(), 5u);
}

TEST(SatBasics, TautologyClausesAreHarmless) {
  CnfFormula F = makeFormula(2, {{1, -1}, {2}, {1, 2, -1}});
  std::vector<bool> Model;
  ASSERT_EQ(solveFormula(F, &Model), Result::Sat);
  EXPECT_TRUE(Model[1]);
}

TEST(SatBasics, DuplicateLiteralsAreDeduplicated) {
  CnfFormula F = makeFormula(2, {{1, 1, 1}, {-1, 2, 2}});
  std::vector<bool> Model;
  ASSERT_EQ(solveFormula(F, &Model), Result::Sat);
  EXPECT_TRUE(Model[0]);
  EXPECT_TRUE(Model[1]);
}

TEST(SatBasics, ModelSatisfiesFormula) {
  CnfFormula F = makeFormula(6, {{1, 2, 3},
                                 {-1, -2},
                                 {-2, -3},
                                 {-1, -3},
                                 {4, 5},
                                 {-4, 6},
                                 {-5, 6},
                                 {-6, 1, 2}});
  std::vector<bool> Model;
  ASSERT_EQ(solveFormula(F, &Model), Result::Sat);
  EXPECT_TRUE(checkModel(F, Model));
}

//===----------------------------------------------------------------------===//
// Pigeonhole: classic small unsat family with nontrivial cores
//===----------------------------------------------------------------------===//

/// PHP(N): N+1 pigeons into N holes. Variable p*N + h means pigeon p sits
/// in hole h.
CnfFormula pigeonhole(unsigned N) {
  CnfFormula F;
  F.NumVars = (N + 1) * N;
  for (unsigned P = 0; P != N + 1; ++P) {
    std::vector<Lit> AtLeastOne;
    for (unsigned H = 0; H != N; ++H)
      AtLeastOne.push_back(mkLit(P * N + H));
    F.addClause(AtLeastOne);
  }
  for (unsigned H = 0; H != N; ++H)
    for (unsigned P1 = 0; P1 != N + 1; ++P1)
      for (unsigned P2 = P1 + 1; P2 != N + 1; ++P2)
        F.addClause({mkLit(P1 * N + H, true), mkLit(P2 * N + H, true)});
  return F;
}

class PigeonholeTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PigeonholeTest, IsUnsatWithVerifiableCore) {
  CnfFormula F = pigeonhole(GetParam());
  std::vector<uint32_t> Core;
  ASSERT_EQ(solveFormula(F, nullptr, &Core), Result::Unsat);
  EXPECT_FALSE(Core.empty());
  EXPECT_TRUE(verifyCore(F, Core));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PigeonholeTest, ::testing::Values(2, 3, 4, 5));

TEST(SatCore, MinimizedCoreIsMinimal) {
  CnfFormula F = pigeonhole(3);
  // Add satisfiable padding clauses that must not appear in the core.
  unsigned Pad = F.NumVars;
  F.NumVars += 2;
  F.addClause({mkLit(Pad), mkLit(Pad + 1)});
  F.addClause({mkLit(Pad, true), mkLit(Pad + 1)});

  std::vector<uint32_t> Core;
  ASSERT_EQ(solveFormula(F, nullptr, &Core), Result::Unsat);
  std::vector<uint32_t> Minimal = minimizeCore(F, Core);
  EXPECT_TRUE(verifyCore(F, Minimal));
  EXPECT_LE(Minimal.size(), Core.size());
  // Dropping any single clause of a minimal core makes it satisfiable.
  for (size_t I = 0; I != Minimal.size(); ++I) {
    std::vector<uint32_t> Sub;
    for (size_t K = 0; K != Minimal.size(); ++K)
      if (K != I)
        Sub.push_back(Minimal[K]);
    EXPECT_FALSE(verifyCore(F, Sub));
  }
  // Padding never shows up.
  for (uint32_t Id : Minimal)
    EXPECT_LT(Id, F.numClauses() - 2);
}

//===----------------------------------------------------------------------===//
// Differential testing against the DPLL oracle
//===----------------------------------------------------------------------===//

CnfFormula randomThreeSat(SplitMix64 &Rng, unsigned NumVars,
                          unsigned NumClauses) {
  CnfFormula F;
  F.NumVars = NumVars;
  for (unsigned I = 0; I != NumClauses; ++I) {
    std::vector<Lit> C;
    for (int K = 0; K != 3; ++K)
      C.push_back(mkLit(static_cast<Var>(Rng.nextBelow(NumVars)),
                        Rng.nextChance(1, 2)));
    F.addClause(std::move(C));
  }
  return F;
}

class RandomSatTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomSatTest, CdclAgreesWithDpll) {
  SplitMix64 Rng(GetParam());
  for (int Trial = 0; Trial != 20; ++Trial) {
    // Around the phase transition ratio 4.3 so both outcomes occur.
    unsigned NumVars = 12 + Rng.nextBelow(8);
    unsigned NumClauses = static_cast<unsigned>(NumVars * 4.3);
    CnfFormula F = randomThreeSat(Rng, NumVars, NumClauses);

    DpllSolver Oracle(F);
    Result Expected = Oracle.solve();

    Solver S;
    S.addFormula(F);
    Result Actual = S.solve();
    ASSERT_EQ(Actual, Expected);
    if (Actual == Result::Sat) {
      EXPECT_TRUE(checkModel(F, S.model()));
    } else {
      EXPECT_TRUE(verifyCore(F, S.unsatCore()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSatTest,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107,
                                           108, 109, 110));

//===----------------------------------------------------------------------===//
// Pinned searches
//===----------------------------------------------------------------------===//

// Branching, learning and restarts together decide every number below.
// They were recorded when the solver still found its branching variable by
// scanning all variables; the order heap must reproduce that search
// exactly, and any later change to the search shows here.

/// FNV-1a over the model's bits after Sat, over the core's clause ids
/// after Unsat.
uint64_t outcomeDigest(const Solver &S, Result R) {
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](uint64_t X) {
    H ^= X;
    H *= 0x100000001b3ULL;
  };
  if (R == Result::Sat)
    for (bool B : S.model())
      Mix(B);
  else
    for (uint32_t Id : S.unsatCore())
      Mix(Id);
  return H;
}

struct PinnedSearch {
  Result Want;
  uint64_t Decisions, Conflicts, Propagations, Restarts, Digest;
};

/// Solves \p F and checks its verdict, model or core, stats and digest.
void expectPinnedSearch(const CnfFormula &F, const PinnedSearch &P) {
  Solver S;
  S.addFormula(F);
  Result R = S.solve();
  ASSERT_EQ(R, P.Want);
  if (R == Result::Sat)
    EXPECT_TRUE(checkModel(F, S.model()));
  else
    EXPECT_TRUE(verifyCore(F, S.unsatCore()));
  EXPECT_EQ(S.stats().Decisions, P.Decisions);
  EXPECT_EQ(S.stats().Conflicts, P.Conflicts);
  EXPECT_EQ(S.stats().Propagations, P.Propagations);
  EXPECT_EQ(S.stats().Restarts, P.Restarts);
  EXPECT_EQ(outcomeDigest(S, R), P.Digest);
}

/// Table 1's "All 5 combined" source: the six jeddsrc modules in one.
std::string tableOneSource() {
  std::string Source;
  for (const char *Name :
       {"prelude.jedd", "hierarchy.jedd", "vcr.jedd", "pointsto.jedd",
        "callgraph.jedd", "sideeffect.jedd"}) {
    std::string Text;
    EXPECT_TRUE(readFileToString(
        std::string(JEDDPP_JEDDSRC_DIR) + "/" + Name, Text))
        << "cannot read " << Name;
    Source += Text;
  }
  return Source;
}

TEST(SatPinned, TableOneCombinedFormula) {
  // Table 1's "All 5 combined" physical-domain assignment problem.
  DiagnosticEngine Diags("combined.jedd");
  auto Compiled = lang::compileJedd(tableOneSource(), Diags);
  ASSERT_TRUE(Compiled != nullptr) << Diags.renderAll();
  const CnfFormula &F = Compiled->assigner().formula();
  EXPECT_EQ(F.NumVars, 7561u);
  EXPECT_EQ(F.numClauses(), 58984u);
  expectPinnedSearch(F,
                     {Result::Sat, 11805, 61, 129442, 0, 0xafd1cfedd72bd404ULL});
}

TEST(SatPinned, Pigeonhole) {
  expectPinnedSearch(pigeonhole(4),
                     {Result::Unsat, 38, 28, 337, 0, 0x983877ea990a008fULL});
  expectPinnedSearch(pigeonhole(5),
                     {Result::Unsat, 220, 166, 2358, 2, 0x48e67fe6d82dd51fULL});
  expectPinnedSearch(pigeonhole(6), {Result::Unsat, 1050, 817, 13514, 7,
                                      0x3ecac2415b9f2fafULL});
}

TEST(SatPinned, RandomThreeSat) {
  // 150 variables at clause/variable ratio 4.26, both verdicts.
  const std::pair<uint64_t, PinnedSearch> Cases[] = {
      {1, {Result::Sat, 943, 775, 31594, 7, 0xe36a0604f31e9942ULL}},
      {2, {Result::Unsat, 909, 750, 29672, 6, 0xbffbd3e3ae8d9c7aULL}},
      {3, {Result::Sat, 2718, 2168, 92274, 16, 0x44c1d9a24385feacULL}},
      {5, {Result::Unsat, 1326, 1086, 43965, 10, 0xddefa005e7a7c46bULL}},
  };
  for (const auto &[Seed, P] : Cases) {
    SCOPED_TRACE(Seed);
    SplitMix64 Rng(Seed);
    expectPinnedSearch(randomThreeSat(Rng, 150, 639), P);
  }
}

TEST(SatPinned, ActivityRescale) {
  // VSIDS rescales every activity by 1e-100 once the bump increment,
  // which grows by 1/0.95 per conflict, passes 1e100: after about 4,490
  // conflicts. This instance runs past that point.
  SplitMix64 Rng(24);
  CnfFormula F = randomThreeSat(Rng, 200, 852);
  expectPinnedSearch(F, {Result::Sat, 6697, 5366, 270530, 33,
                         0x3db71606fe5fc726ULL});
}

TEST(SatPinned, ActivityUnderflow) {
  // Ten variables no clause mentions, an easy 40-variable part, and a
  // hard 230-variable one. The easy part's variables are bumped early and
  // then no more, so over the search's five rescales by 1e-100, 28 of
  // them leave the order heap with an activity that underflowed to 0.
  SplitMix64 Rng(23);
  CnfFormula F;
  F.NumVars = 10 + 40 + 230;
  Var Offset = 10;
  for (const CnfFormula &Part :
       {randomThreeSat(Rng, 40, 160), randomThreeSat(Rng, 230, 980)}) {
    for (size_t I = 0; I != Part.numClauses(); ++I) {
      std::vector<Lit> C;
      for (Lit L : Part.clause(I))
        C.push_back(mkLit(Offset + varOf(L), isNegated(L)));
      F.addClause(C);
    }
    Offset += Part.NumVars;
  }
  expectPinnedSearch(F, {Result::Sat, 33184, 26542, 1443347, 126,
                         0xf91a76e2019549ddULL});
}

/// Random 3-SAT in which about one clause in six repeats a literal, one
/// in eight also holds the negation of one of its literals, and one in a
/// hundred is a unit instead.
CnfFormula randomUntidyCnf(SplitMix64 &Rng, unsigned NumVars,
                           unsigned NumClauses) {
  CnfFormula F;
  F.NumVars = NumVars;
  for (unsigned I = 0; I != NumClauses; ++I) {
    unsigned Len = Rng.nextChance(1, 100) ? 1 : 3;
    std::vector<Lit> C;
    for (unsigned K = 0; K != Len; ++K)
      C.push_back(mkLit(static_cast<Var>(Rng.nextBelow(NumVars)),
                        Rng.nextChance(1, 2)));
    if (Len == 3 && Rng.nextChance(1, 6))
      C.push_back(C[0]);
    if (Len == 3 && Rng.nextChance(1, 8))
      C.push_back(negate(C[1]));
    F.addClause(std::move(C));
  }
  return F;
}

TEST(SatPinned, UntidyClauses) {
  // addClause sorts each original clause, drops repeated literals and
  // never watches a tautology; the search then learns binary clauses too.
  const std::pair<uint64_t, PinnedSearch> Cases[] = {
      {7, {Result::Sat, 303, 200, 8551, 2, 0xc4ebd2dc2b291e12ULL}},
      {11, {Result::Unsat, 116, 84, 3210, 1, 0xf9decb6d735b37f7ULL}},
  };
  for (const auto &[Seed, P] : Cases) {
    SCOPED_TRACE(Seed);
    SplitMix64 Rng(Seed);
    CnfFormula F = randomUntidyCnf(Rng, 150, 660);
    unsigned Units = 0, Repeats = 0, Tautologies = 0;
    for (size_t I = 0; I != F.numClauses(); ++I) {
      std::vector<Lit> C(F.clause(I).begin(), F.clause(I).end());
      Units += C.size() == 1;
      std::sort(C.begin(), C.end());
      Repeats += std::adjacent_find(C.begin(), C.end()) != C.end();
      for (size_t K = 0; K + 1 < C.size(); ++K)
        if (C[K + 1] == negate(C[K])) {
          ++Tautologies;
          break;
        }
    }
    EXPECT_GT(Units, 0u);
    EXPECT_GT(Repeats, 0u);
    EXPECT_GT(Tautologies, 0u);
    expectPinnedSearch(F, P);
  }
}

TEST(SatPinned, MinimizedPigeonholeCore) {
  // minimizeCore re-solves subsets of the formula, one clause at a time
  // through addClause.
  CnfFormula F = pigeonhole(4);
  Solver S;
  S.addFormula(F);
  ASSERT_EQ(S.solve(), Result::Unsat);
  std::vector<uint32_t> Minimal = minimizeCore(F, S.unsatCore());
  uint64_t H = 0xcbf29ce484222325ULL;
  for (uint32_t Id : Minimal) {
    H ^= Id;
    H *= 0x100000001b3ULL;
  }
  EXPECT_EQ(Minimal.size(), 45u);
  EXPECT_EQ(H, 0x983877ea990a008fULL);
}

//===----------------------------------------------------------------------===//
// DIMACS writer
//===----------------------------------------------------------------------===//

TEST(Dimacs, RoundTrip) {
  // The text jeddc --dimacs writes for zchaff: the problem line, then one
  // zero-terminated line per clause, 1-based variables, '-' for negation.
  CnfFormula F = makeFormula(3, {{1, -2}, {3}});
  F.addClause(std::span<const Lit>());
  EXPECT_EQ(toDimacs(F), "p cnf 3 3\n1 -2 0\n3 0\n0\n");
}

//===----------------------------------------------------------------------===//
// Solver statistics sanity
//===----------------------------------------------------------------------===//

TEST(SatStats, SolveSpanCarriesEveryStatistic) {
  // The sat.solve span's arguments fill SpanEvent::MaxArgs exactly; one
  // more would be dropped.
  obs::Tracer &T = obs::Tracer::instance();
  T.clear();
  T.setLevel(obs::Level::Metrics);
  DiagnosticEngine Diags("combined.jedd");
  auto Compiled = lang::compileJedd(tableOneSource(), Diags);
  T.setLevel(obs::Level::Off);
  ASSERT_TRUE(Compiled != nullptr) << Diags.renderAll();
  obs::TotalsMap Totals = T.totals();
  T.clear();
  std::vector<std::string> Keys;
  for (const auto &[Key, Row] : Totals)
    if (Key.Category == obs::Cat::Sat && std::string_view(Key.Name) == "solve")
      for (uint8_t A = 0; A != Row.NumArgs; ++A)
        Keys.push_back(Row.Args[A].Key);
  EXPECT_EQ(Keys, (std::vector<std::string>{
                      "vars", "clauses", "decisions", "propagations",
                      "conflicts", "learned_clauses", "restarts", "sat"}));
}

TEST(SatStats, CountsActivity) {
  SplitMix64 Rng(77);
  CnfFormula F = randomThreeSat(Rng, 30, 120);
  Solver S;
  S.addFormula(F);
  S.solve();
  EXPECT_GT(S.stats().Propagations, 0u);
  EXPECT_GT(S.stats().Decisions, 0u);
}

//===----------------------------------------------------------------------===//
// CDCL vs reference DPLL differential fuzz
//===----------------------------------------------------------------------===//

/// Random CNF with mixed clause lengths (1-4 literals), the shapes that
/// shake out unit-propagation and conflict-analysis corner cases which
/// uniform 3-SAT never produces.
CnfFormula randomMixedCnf(SplitMix64 &Rng, unsigned NumVars,
                          unsigned NumClauses) {
  CnfFormula F;
  F.NumVars = NumVars;
  for (unsigned I = 0; I != NumClauses; ++I) {
    unsigned Len = 1 + static_cast<unsigned>(Rng.nextBelow(4));
    std::vector<Lit> C;
    for (unsigned K = 0; K != Len; ++K)
      C.push_back(mkLit(static_cast<Var>(Rng.nextBelow(NumVars)),
                        Rng.nextChance(1, 2)));
    F.addClause(std::move(C));
  }
  return F;
}

TEST(SatDifferential, CdclMatchesDpllOnRandomCnfs) {
  // 500 seeded formulas spanning 4-10 variables and clause/variable
  // ratios from trivially-sat to deeply-unsat. Verdicts must agree with
  // the reference DPLL solver; on sat, both models must actually satisfy
  // the formula.
  unsigned Cases = 0, SatCount = 0, UnsatCount = 0;
  SplitMix64 Rng(0xD1FF5A7);
  for (unsigned I = 0; I != 500; ++I) {
    unsigned NumVars = 4 + static_cast<unsigned>(Rng.nextBelow(7));
    // Ratio 1x..6x variables, covering both phases of the sat threshold.
    unsigned NumClauses = NumVars * (1 + static_cast<unsigned>(Rng.nextBelow(6)));
    CnfFormula F = Rng.nextChance(1, 3)
                       ? randomThreeSat(Rng, NumVars, NumClauses)
                       : randomMixedCnf(Rng, NumVars, NumClauses);

    Solver Cdcl;
    Cdcl.addFormula(F);
    Result Got = Cdcl.solve();

    DpllSolver Dpll(F);
    Result Want = Dpll.solve();

    ASSERT_EQ(Got == Result::Sat, Want == Result::Sat)
        << "verdict mismatch on case " << I << " (vars=" << NumVars
        << ", clauses=" << NumClauses << ")";
    if (Got == Result::Sat) {
      EXPECT_TRUE(checkModel(F, Cdcl.model())) << "CDCL model invalid, case "
                                               << I;
      EXPECT_TRUE(checkModel(F, Dpll.model())) << "DPLL model invalid, case "
                                               << I;
      ++SatCount;
    } else {
      EXPECT_TRUE(verifyCore(F, Cdcl.unsatCore())) << "bad core, case " << I;
      ++UnsatCount;
    }
    ++Cases;
  }
  EXPECT_EQ(Cases, 500u);
  // The ratio sweep must actually produce both outcomes in bulk.
  EXPECT_GT(SatCount, 50u);
  EXPECT_GT(UnsatCount, 50u);
}

} // namespace
