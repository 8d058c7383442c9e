//===- bdd_test.cpp - Unit and property tests for the BDD package ---------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

using namespace jedd;
using namespace jedd::bdd;

namespace {

//===----------------------------------------------------------------------===//
// Basic construction and terminal identities
//===----------------------------------------------------------------------===//

TEST(BddBasics, TerminalsAreDistinctAndIdempotent) {
  Manager Mgr(4);
  EXPECT_TRUE(Mgr.falseBdd().isFalse());
  EXPECT_TRUE(Mgr.trueBdd().isTrue());
  EXPECT_NE(Mgr.falseBdd(), Mgr.trueBdd());
  EXPECT_EQ(Mgr.falseBdd(), Mgr.falseBdd());
}

TEST(BddBasics, VariablesAreCanonical) {
  Manager Mgr(4);
  Bdd X0 = Mgr.var(0);
  Bdd X0Again = Mgr.var(0);
  EXPECT_EQ(X0, X0Again);
  EXPECT_NE(Mgr.var(0), Mgr.var(1));
  EXPECT_EQ(Mgr.bddNot(Mgr.var(2)), Mgr.nvar(2));
}

TEST(BddBasics, NegationIsInvolution) {
  Manager Mgr(4);
  Bdd F = (Mgr.var(0) & Mgr.var(1)) | Mgr.nvar(2);
  EXPECT_EQ(Mgr.bddNot(Mgr.bddNot(F)), F);
}

TEST(BddBasics, ApplyTerminalRules) {
  Manager Mgr(4);
  Bdd X = Mgr.var(0);
  Bdd T = Mgr.trueBdd(), F = Mgr.falseBdd();
  EXPECT_EQ(X & T, X);
  EXPECT_EQ(X & F, F);
  EXPECT_EQ(X | T, T);
  EXPECT_EQ(X | F, X);
  EXPECT_EQ(X - F, X);
  EXPECT_EQ(X - T, F);
  EXPECT_EQ(X - X, F);
  EXPECT_EQ(X ^ X, F);
  EXPECT_EQ((X ^ T), !X);
}

TEST(BddBasics, BooleanAlgebraLaws) {
  Manager Mgr(6);
  Bdd A = Mgr.var(0) & Mgr.var(3);
  Bdd B = Mgr.var(1) | Mgr.nvar(4);
  Bdd C = Mgr.var(2) ^ Mgr.var(5);
  // De Morgan.
  EXPECT_EQ(!(A & B), (!A) | (!B));
  EXPECT_EQ(!(A | B), (!A) & (!B));
  // Distribution.
  EXPECT_EQ(A & (B | C), (A & B) | (A & C));
  // Difference definition.
  EXPECT_EQ(A - B, A & !B);
  // Absorption.
  EXPECT_EQ(A & (A | B), A);
  EXPECT_EQ(A | (A & B), A);
}

TEST(BddBasics, IteEquivalences) {
  Manager Mgr(4);
  Bdd F = Mgr.var(0), G = Mgr.var(1), H = Mgr.var(2);
  EXPECT_EQ(Mgr.ite(F, G, H), (F & G) | ((!F) & H));
  EXPECT_EQ(Mgr.ite(F, Mgr.trueBdd(), Mgr.falseBdd()), F);
  EXPECT_EQ(Mgr.ite(F, Mgr.falseBdd(), Mgr.trueBdd()), !F);
  EXPECT_EQ(Mgr.ite(Mgr.trueBdd(), G, H), G);
  EXPECT_EQ(Mgr.ite(Mgr.falseBdd(), G, H), H);
}

TEST(BddBasics, ImpAndBiimp) {
  Manager Mgr(3);
  Bdd A = Mgr.var(0), B = Mgr.var(1);
  EXPECT_EQ(Mgr.apply(Op::Imp, A, B), (!A) | B);
  EXPECT_EQ(Mgr.apply(Op::Biimp, A, B), !(A ^ B));
}

//===----------------------------------------------------------------------===//
// Quantification and relational product
//===----------------------------------------------------------------------===//

TEST(BddQuantify, ExistsRemovesVariables) {
  Manager Mgr(4);
  Bdd F = Mgr.var(0) & Mgr.var(1);
  Bdd C = Mgr.cube({1});
  // exists x1. x0 & x1 == x0.
  EXPECT_EQ(Mgr.exists(F, C), Mgr.var(0));
  // exists x0,x1. x0 & x1 == true.
  EXPECT_EQ(Mgr.exists(F, Mgr.cube({0, 1})), Mgr.trueBdd());
  // Quantifying an absent variable is the identity.
  EXPECT_EQ(Mgr.exists(F, Mgr.cube({3})), F);
}

TEST(BddQuantify, ExistsOrDistribution) {
  Manager Mgr(5);
  Bdd F = (Mgr.var(0) & Mgr.var(2)) | (Mgr.var(1) & Mgr.nvar(2));
  Bdd C = Mgr.cube({2});
  Bdd ManualOr =
      Mgr.bddOr(Mgr.restrict(F, 2, false), Mgr.restrict(F, 2, true));
  EXPECT_EQ(Mgr.exists(F, C), ManualOr);
}

TEST(BddQuantify, RelProdEqualsAndThenExists) {
  Manager Mgr(6);
  SplitMix64 Rng(42);
  for (int Trial = 0; Trial != 20; ++Trial) {
    // Random small functions.
    Bdd F = Mgr.falseBdd(), G = Mgr.falseBdd();
    for (int I = 0; I != 4; ++I) {
      Bdd TermF = Mgr.trueBdd(), TermG = Mgr.trueBdd();
      for (unsigned V = 0; V != 6; ++V) {
        if (Rng.nextChance(1, 2))
          TermF = TermF & (Rng.nextChance(1, 2) ? Mgr.var(V) : Mgr.nvar(V));
        if (Rng.nextChance(1, 2))
          TermG = TermG & (Rng.nextChance(1, 2) ? Mgr.var(V) : Mgr.nvar(V));
      }
      F = F | TermF;
      G = G | TermG;
    }
    Bdd C = Mgr.cube({1, 3, 5});
    EXPECT_EQ(Mgr.relProd(F, G, C), Mgr.exists(F & G, C));
  }
}

//===----------------------------------------------------------------------===//
// Replace
//===----------------------------------------------------------------------===//

TEST(BddReplace, OrderPreservingRename) {
  Manager Mgr(6);
  Bdd F = Mgr.var(0) & Mgr.nvar(2);
  std::vector<int> Map(6, -1);
  Map[0] = 1;
  Map[2] = 4;
  EXPECT_EQ(Mgr.replace(F, Map), Mgr.var(1) & Mgr.nvar(4));
}

TEST(BddReplace, IdentityMapIsNoop) {
  Manager Mgr(4);
  Bdd F = Mgr.var(0) ^ Mgr.var(3);
  std::vector<int> Map(4, -1);
  EXPECT_EQ(Mgr.replace(F, Map), F);
  Map[1] = 1;
  EXPECT_EQ(Mgr.replace(F, Map), F);
}

TEST(BddReplace, SwapTwoVariables) {
  Manager Mgr(4);
  // F = x0 & !x1: after swapping 0 and 1 it must be x1 & !x0.
  Bdd F = Mgr.var(0) & Mgr.nvar(1);
  std::vector<int> Map(4, -1);
  Map[0] = 1;
  Map[1] = 0;
  EXPECT_EQ(Mgr.replace(F, Map), Mgr.var(1) & Mgr.nvar(0));
}

TEST(BddReplace, OrderInvertingRename) {
  Manager Mgr(6);
  // Move x0 -> x5 and x4 -> x1 (inverts relative order).
  Bdd F = Mgr.var(0) & Mgr.var(4);
  std::vector<int> Map(6, -1);
  Map[0] = 5;
  Map[4] = 1;
  EXPECT_EQ(Mgr.replace(F, Map), Mgr.var(5) & Mgr.var(1));
}

TEST(BddReplace, RandomPermutationsMatchTruthTable) {
  constexpr unsigned NumVars = 8;
  Manager Mgr(NumVars);
  SplitMix64 Rng(7);
  for (int Trial = 0; Trial != 30; ++Trial) {
    // Random function over vars 0..3, random injective map into 0..7.
    Bdd F = Mgr.falseBdd();
    for (int I = 0; I != 3; ++I) {
      Bdd Term = Mgr.trueBdd();
      for (unsigned V = 0; V != 4; ++V)
        if (Rng.nextChance(2, 3))
          Term = Term & (Rng.nextChance(1, 2) ? Mgr.var(V) : Mgr.nvar(V));
      F = F | Term;
    }
    // Random permutation of all eight variables; restrict to sources 0..3.
    std::vector<int> Perm(NumVars);
    for (unsigned V = 0; V != NumVars; ++V)
      Perm[V] = static_cast<int>(V);
    for (unsigned V = NumVars; V-- > 1;)
      std::swap(Perm[V], Perm[Rng.nextBelow(V + 1)]);
    std::vector<int> Map(NumVars, -1);
    for (unsigned V = 0; V != 4; ++V)
      Map[V] = Perm[V];

    Bdd R = Mgr.replace(F, Map);

    // Truth-table check: R(y) == F(x) with y[Map[v]] = x[v].
    for (unsigned Bits = 0; Bits != (1u << 4); ++Bits) {
      std::vector<bool> X(2 * NumVars, false), Y(2 * NumVars, false);
      for (unsigned V = 0; V != 4; ++V) {
        bool Val = (Bits >> V) & 1;
        X[V] = Val;
        Y[static_cast<unsigned>(Map[V])] = Val;
      }
      EXPECT_EQ(Mgr.evalAssignment(F, X), Mgr.evalAssignment(R, Y));
    }
  }
}

//===----------------------------------------------------------------------===//
// Counting, support, enumeration
//===----------------------------------------------------------------------===//

TEST(BddCount, SatCountBasics) {
  Manager Mgr(4);
  EXPECT_DOUBLE_EQ(Mgr.satCount(Mgr.falseBdd()), 0.0);
  EXPECT_DOUBLE_EQ(Mgr.satCount(Mgr.trueBdd()), 16.0);
  EXPECT_DOUBLE_EQ(Mgr.satCount(Mgr.var(0)), 8.0);
  EXPECT_DOUBLE_EQ(Mgr.satCount(Mgr.var(0) & Mgr.var(3)), 4.0);
  EXPECT_DOUBLE_EQ(Mgr.satCount(Mgr.var(0) | Mgr.var(1)), 12.0);
  EXPECT_DOUBLE_EQ(Mgr.satCount(Mgr.var(1) ^ Mgr.var(2)), 8.0);
}

TEST(BddCount, SatCountMatchesExhaustiveEvaluation) {
  constexpr unsigned NumVars = 10;
  Manager Mgr(NumVars);
  SplitMix64 Rng(99);
  for (int Trial = 0; Trial != 10; ++Trial) {
    Bdd F = Mgr.falseBdd();
    for (int I = 0; I != 5; ++I) {
      Bdd Term = Mgr.trueBdd();
      for (unsigned V = 0; V != NumVars; ++V)
        if (Rng.nextChance(1, 3))
          Term = Term & (Rng.nextChance(1, 2) ? Mgr.var(V) : Mgr.nvar(V));
      F = F | Term;
    }
    size_t Expected = 0;
    for (unsigned Bits = 0; Bits != (1u << NumVars); ++Bits) {
      std::vector<bool> X(2 * NumVars, false);
      for (unsigned V = 0; V != NumVars; ++V)
        X[V] = (Bits >> V) & 1;
      Expected += Mgr.evalAssignment(F, X);
    }
    EXPECT_DOUBLE_EQ(Mgr.satCount(F), static_cast<double>(Expected));
  }
}

TEST(BddCount, NodeCountAndShape) {
  Manager Mgr(4);
  Bdd F = Mgr.var(0) & Mgr.var(1) & Mgr.var(2);
  EXPECT_EQ(Mgr.nodeCount(F), 3u);
  std::vector<size_t> Shape = Mgr.levelShape(F);
  ASSERT_EQ(Shape.size(), 4u);
  EXPECT_EQ(Shape[0], 1u);
  EXPECT_EQ(Shape[1], 1u);
  EXPECT_EQ(Shape[2], 1u);
  EXPECT_EQ(Shape[3], 0u);
  EXPECT_EQ(Mgr.nodeCount(Mgr.trueBdd()), 0u);
}

TEST(BddCount, Support) {
  Manager Mgr(6);
  Bdd F = (Mgr.var(1) & Mgr.var(4)) | Mgr.var(5);
  EXPECT_EQ(Mgr.support(F), (std::vector<unsigned>{1, 4, 5}));
  EXPECT_TRUE(Mgr.support(Mgr.trueBdd()).empty());
}

TEST(BddCount, EnumerateListsAllMinterms) {
  Manager Mgr(3);
  Bdd F = Mgr.var(0) ^ Mgr.var(2); // Over vars {0,2}; var 1 don't care.
  std::vector<std::vector<bool>> Rows;
  Mgr.enumerate(F, {0, 1, 2}, [&](const std::vector<bool> &Bits) {
    Rows.push_back(Bits);
    return true;
  });
  EXPECT_EQ(Rows.size(), 4u); // 2 xor minterms * 2 for the don't care.
  for (const auto &Row : Rows)
    EXPECT_NE(Row[0], Row[2]);
}

TEST(BddCount, EnumerateEarlyStop) {
  Manager Mgr(3);
  Bdd F = Mgr.trueBdd();
  int Count = 0;
  Mgr.enumerate(F, {0, 1, 2}, [&](const std::vector<bool> &) {
    return ++Count < 3;
  });
  EXPECT_EQ(Count, 3);
}

//===----------------------------------------------------------------------===//
// Memory management: reference counts and garbage collection
//===----------------------------------------------------------------------===//

TEST(BddMemory, HandleCopiesShareRefCounts) {
  Manager Mgr(4);
  Bdd F = Mgr.var(0) & Mgr.var(1);
  NodeRef Root = F.ref();
  uint32_t Base = Mgr.refCount(Root);
  {
    Bdd Copy = F;
    EXPECT_EQ(Mgr.refCount(Root), Base + 1);
    Bdd Moved = std::move(Copy);
    EXPECT_EQ(Mgr.refCount(Root), Base + 1);
  }
  EXPECT_EQ(Mgr.refCount(Root), Base);
}

TEST(BddMemory, DeadIntermediatesAreCollected) {
  Manager Mgr(16, 1024);
  // Build and drop many distinct functions; after a collection the live
  // node count must reflect only what the surviving handle reaches.
  Bdd Keep = Mgr.var(0) & Mgr.var(1);
  for (unsigned I = 0; I != 200; ++I) {
    Bdd Junk = Mgr.trueBdd();
    for (unsigned V = 0; V != 12; ++V)
      Junk = Junk & ((I >> (V % 5)) & 1 ? Mgr.var(V) : Mgr.nvar(V));
    // Junk dies here.
  }
  Mgr.gc();
  // Only Keep's two nodes survive the collection.
  EXPECT_EQ(Mgr.liveNodeCount(), Mgr.nodeCount(Keep));
  EXPECT_EQ(Keep, Mgr.var(0) & Mgr.var(1));
}

TEST(BddMemory, GcPreservesSemantics) {
  Manager Mgr(8, 1024);
  Bdd F = (Mgr.var(0) & Mgr.var(3)) | (Mgr.var(5) ^ Mgr.var(7));
  double CountBefore = Mgr.satCount(F);
  size_t NodesBefore = Mgr.nodeCount(F);
  for (int I = 0; I != 5; ++I)
    Mgr.gc();
  EXPECT_DOUBLE_EQ(Mgr.satCount(F), CountBefore);
  EXPECT_EQ(Mgr.nodeCount(F), NodesBefore);
  EXPECT_EQ(F, (Mgr.var(0) & Mgr.var(3)) | (Mgr.var(5) ^ Mgr.var(7)));
}

TEST(BddMemory, PoolGrowsUnderLoad) {
  Manager Mgr(20, 1024);
  // A function with many nodes forces pool growth mid-operation.
  Bdd F = Mgr.falseBdd();
  SplitMix64 Rng(5);
  for (int I = 0; I != 40; ++I) {
    Bdd Term = Mgr.trueBdd();
    for (unsigned V = 0; V != 20; ++V)
      if (Rng.nextChance(1, 2))
        Term = Term & (Rng.nextChance(1, 2) ? Mgr.var(V) : Mgr.nvar(V));
    F = F | Term;
  }
  EXPECT_GT(Mgr.stats().NodesCreated, 0u);
  EXPECT_FALSE(F.isFalse());
}

//===----------------------------------------------------------------------===//
// Random differential property test: BDD ops vs truth tables
//===----------------------------------------------------------------------===//

/// A random expression evaluated both as a BDD and as a truth table.
class BddDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BddDifferentialTest, RandomExpressionMatchesTruthTable) {
  constexpr unsigned NumVars = 6;
  Manager Mgr(NumVars);
  SplitMix64 Rng(GetParam());

  using Table = std::vector<bool>; // Indexed by assignment bits.
  constexpr unsigned TableSize = 1u << NumVars;

  // Generate a random expression bottom-up over a work stack.
  std::vector<std::pair<Bdd, Table>> Stack;
  auto PushVar = [&]() {
    unsigned V = Rng.nextBelow(NumVars);
    Table T(TableSize);
    for (unsigned A = 0; A != TableSize; ++A)
      T[A] = (A >> V) & 1;
    Stack.push_back({Mgr.var(V), std::move(T)});
  };
  PushVar();
  PushVar();
  for (int Step = 0; Step != 40; ++Step) {
    unsigned Choice = Rng.nextBelow(8);
    if (Choice == 0 || Stack.size() < 2) {
      PushVar();
      continue;
    }
    if (Choice == 1) {
      auto [B, T] = Stack.back();
      Stack.pop_back();
      for (unsigned A = 0; A != TableSize; ++A)
        T[A] = !T[A];
      Stack.push_back({Mgr.bddNot(B), std::move(T)});
      continue;
    }
    auto [B2, T2] = Stack.back();
    Stack.pop_back();
    auto [B1, T1] = Stack.back();
    Stack.pop_back();
    Op Operator = static_cast<Op>(Rng.nextBelow(6));
    Table T(TableSize);
    for (unsigned A = 0; A != TableSize; ++A) {
      bool X = T1[A], Y = T2[A];
      switch (Operator) {
      case Op::And:
        T[A] = X && Y;
        break;
      case Op::Or:
        T[A] = X || Y;
        break;
      case Op::Xor:
        T[A] = X != Y;
        break;
      case Op::Diff:
        T[A] = X && !Y;
        break;
      case Op::Imp:
        T[A] = !X || Y;
        break;
      case Op::Biimp:
        T[A] = X == Y;
        break;
      }
    }
    Stack.push_back({Mgr.apply(Operator, B1, B2), std::move(T)});
  }

  for (auto &[B, T] : Stack) {
    size_t OnSet = 0;
    for (unsigned A = 0; A != TableSize; ++A) {
      std::vector<bool> X(2 * NumVars, false);
      for (unsigned V = 0; V != NumVars; ++V)
        X[V] = (A >> V) & 1;
      EXPECT_EQ(Mgr.evalAssignment(B, X), static_cast<bool>(T[A]));
      OnSet += T[A];
    }
    EXPECT_DOUBLE_EQ(Mgr.satCount(B), static_cast<double>(OnSet));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

//===----------------------------------------------------------------------===//
// Replace-map registry (regression)
//===----------------------------------------------------------------------===//

// The replace() computed cache keys entries by a tag derived from the
// variable map. The registry assigning tags used to be thread-local and
// process-global: a second thread started counting tags at zero, so its
// first (different) map aliased the first thread's cache entries and
// replace() returned results for the wrong map. The registry now lives in
// the manager.
TEST(BddReplaceRegistry, DistinctMapsFromTwoThreads) {
  const unsigned V = 4;
  Manager M(V, 1 << 10, 1 << 12);
  Bdd F = M.bddAnd(M.var(0), M.var(1));

  std::vector<int> Map1(V, -1), Map2(V, -1);
  Map1[0] = 2; // v0 -> v2
  Map2[0] = 3; // v0 -> v3

  Bdd R1, R2;
  // Sequential threads: the old bug needed no race, only two threads
  // with fresh thread-local registries hitting the same shared cache.
  std::thread T1([&] { R1 = M.replace(F, Map1); });
  T1.join();
  std::thread T2([&] { R2 = M.replace(F, Map2); });
  T2.join();

  EXPECT_EQ(R1, M.bddAnd(M.var(2), M.var(1)));
  EXPECT_EQ(R2, M.bddAnd(M.var(3), M.var(1)))
      << "second thread's map aliased the first thread's cache tag";
  EXPECT_NE(R1, R2);
}

TEST(BddReplaceRegistry, SameMapTwoManagers) {
  const unsigned V = 4;
  Manager M1(V, 1 << 10, 1 << 12);
  Manager M2(V, 1 << 10, 1 << 12);
  std::vector<int> Map(V, -1);
  Map[0] = 2;
  Map[2] = 0;

  Bdd F1 = M1.bddOr(M1.var(0), M1.bddAnd(M1.var(2), M1.var(3)));
  Bdd F2 = M2.bddOr(M2.var(0), M2.bddAnd(M2.var(2), M2.var(3)));
  Bdd R1 = M1.replace(F1, Map);
  Bdd R2 = M2.replace(F2, Map);
  EXPECT_EQ(R1, M1.bddOr(M1.var(2), M1.bddAnd(M1.var(0), M1.var(3))));
  EXPECT_EQ(R2, M2.bddOr(M2.var(2), M2.bddAnd(M2.var(0), M2.var(3))));
}

TEST(BddReplaceRegistry, DistinctMapsSameThread) {
  const unsigned V = 6;
  Manager M(V, 1 << 10, 1 << 12);
  Bdd F = M.bddAnd(M.var(0), M.bddOr(M.var(1), M.var(2)));

  // Many distinct maps in a row must all get distinct tags.
  for (unsigned To = 3; To != 6; ++To) {
    std::vector<int> Map(V, -1);
    Map[0] = static_cast<int>(To);
    Bdd R = M.replace(F, Map);
    EXPECT_EQ(R, M.bddAnd(M.var(To), M.bddOr(M.var(1), M.var(2))))
        << "map v0->v" << To;
  }
}

//===----------------------------------------------------------------------===//
// Exact satCount
//===----------------------------------------------------------------------===//

TEST(BddSatCountExact, CountBeyondDoublePrecision) {
  // 2^55 + 1 over 56 variables: a double rounds this to 2^55.
  const unsigned V = 56;
  Manager M(V, 1 << 10, 1 << 12);
  Bdd AllOnes = M.trueBdd();
  for (unsigned Var = 0; Var != V; ++Var)
    AllOnes = M.bddAnd(AllOnes, M.var(Var));
  Bdd F = M.bddOr(M.nvar(0), AllOnes);

  SatCount C = M.satCountExact(F);
  EXPECT_TRUE(C.isExact());
  EXPECT_EQ(C.Hi, 0u);
  EXPECT_EQ(C.Lo, (uint64_t(1) << 55) + 1);
  EXPECT_EQ(C.toString(), "36028797018963969");
  // The double wrapper rounds to the nearest representable value.
  EXPECT_EQ(M.satCount(F), std::ldexp(1.0, 55));
}

TEST(BddSatCountExact, WideUniverse) {
  // 2^70 assignments: overflows uint64_t, exercises the Hi word.
  const unsigned V = 70;
  Manager M(V, 1 << 10, 1 << 12);
  SatCount C = M.satCountExact(M.trueBdd());
  EXPECT_TRUE(C.isExact());
  EXPECT_EQ(C.Hi, uint64_t(1) << 6);
  EXPECT_EQ(C.Lo, 0u);
  EXPECT_EQ(C.toString(), "1180591620717411303424");
  EXPECT_EQ(C.toDouble(), std::ldexp(1.0, 70));

  EXPECT_EQ(M.satCountExact(M.falseBdd()).toString(), "0");
  SatCount One = M.satCountExact(M.falseBdd());
  EXPECT_EQ(One, (SatCount{0, 0, false}));
}

TEST(BddSatCountExact, SaturatesBeyond128Bits) {
  const unsigned V = 130;
  Manager M(V, 1 << 10, 1 << 12);
  SatCount C = M.satCountExact(M.trueBdd());
  EXPECT_TRUE(C.Saturated);
  EXPECT_EQ(C.toString(), ">=2^128");
  // The double wrapper falls back to the floating recursion.
  EXPECT_EQ(M.satCount(M.trueBdd()), std::ldexp(1.0, 130));
  // A function below the saturation line in the same manager is exact.
  Bdd Narrow = M.trueBdd();
  for (unsigned Var = 0; Var != 10; ++Var)
    Narrow = M.bddAnd(Narrow, M.var(Var));
  SatCount N = M.satCountExact(Narrow);
  EXPECT_TRUE(N.isExact());
  EXPECT_EQ(N.Hi, uint64_t(1) << (130 - 10 - 64));
  EXPECT_EQ(N.Lo, 0u);
}

} // namespace
