//===- bdd_test.cpp - Unit and property tests for the BDD package ---------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
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

TEST(BddReplace, OrderPreservedOnTheSupportTakesTheFastPath) {
  Manager Mgr(6);
  // x0 -> x3 and x4 -> x1: the whole map inverts order (x0 and x4 swap
  // sides), so an operand over both needs the ITE rebuild.
  std::vector<int> Map(6, -1);
  Map[0] = 3;
  Map[4] = 1;
  Bdd G = Mgr.var(0) & Mgr.nvar(4);
  size_t Before = Mgr.stats().ReorderingReplaces;
  EXPECT_EQ(Mgr.replace(G, Map), Mgr.var(3) & Mgr.nvar(1));
  EXPECT_EQ(Mgr.stats().ReorderingReplaces, Before + 1);

  // Over {x0, x5} the images 3 < 5 keep their order: relabelled in one
  // recursion, and equal to the equality-encoded rename
  // exists x0. F & (x0 <-> x3).
  Bdd F = Mgr.var(0) ^ Mgr.var(5);
  Bdd Renamed = Mgr.replace(F, Map);
  EXPECT_EQ(Mgr.stats().ReorderingReplaces, Before + 1);
  EXPECT_EQ(Renamed, Mgr.var(3) ^ Mgr.var(5));
  Bdd Equal = Mgr.apply(Op::Biimp, Mgr.var(0), Mgr.var(3));
  EXPECT_EQ(Renamed, Mgr.relProd(F, Equal, Mgr.cube({0})));
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

TEST(BddMemory, CacheEntriesFollowThePool) {
  EXPECT_EQ(Manager::cacheEntriesFor(4096), 4096 / Manager::CacheRatio);
  EXPECT_EQ(Manager::cacheEntriesFor(1024), Manager::MinCacheEntries);
  EXPECT_EQ(Manager::cacheEntriesFor(size_t(1) << 30),
            Manager::MaxCacheEntries);

  // Small enough to grow inside the XORs below, each one operation.
  constexpr unsigned V = 16;
  Manager M(V, 1 << 10);
  auto Expected = [](size_t Capacity) {
    return std::clamp<size_t>(Capacity / Manager::CacheRatio, 1024, 1 << 18);
  };
  EXPECT_EQ(M.stats().CacheEntries, Expected(M.stats().Capacity));

  std::vector<unsigned> Vars(V);
  for (unsigned I = 0; I != V; ++I)
    Vars[I] = I;
  SplitMix64 Rng(11);
  Bdd Acc = M.falseBdd();
  std::vector<bool> Table(size_t(1) << V, false);
  unsigned Growths = 0;
  for (int Round = 0; Round != 8; ++Round) {
    std::set<uint64_t> Rows;
    while (Rows.size() != 3000)
      Rows.insert(Rng.nextBelow(uint64_t(1) << V));
    Bdd Part = M.minterms(Vars, Rows.size(), {Rows.begin(), Rows.end()});
    for (uint64_t Row : Rows)
      Table[Row] = !Table[Row];
    size_t Capacity = M.stats().Capacity;
    Acc = Acc ^ Part;
    ManagerStats S = M.stats();
    Growths += S.Capacity > Capacity;
    ASSERT_EQ(S.CacheEntries, Expected(S.Capacity)) << "round " << Round;
    ASSERT_EQ(M.checkInvariants(), "") << "round " << Round;
    std::vector<bool> Assignment(V);
    for (size_t I = 0; I != Table.size(); ++I) {
      for (unsigned Var = 0; Var != V; ++Var)
        Assignment[Var] = (I >> Var) & 1;
      ASSERT_EQ(M.evalAssignment(Acc, Assignment), Table[I])
          << "round " << Round << ", assignment " << I;
    }
  }
  EXPECT_GE(Growths, 2u);
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

// The replace() computed cache keys entries by an id derived from the
// variable map. The registry assigning ids used to be thread-local and
// process-global: a second thread started counting ids at zero, so its
// first (different) map aliased the first thread's cache entries and
// replace() returned results for the wrong map. The registry now lives in
// the manager.
TEST(BddReplaceRegistry, DistinctMapsFromTwoThreads) {
  const unsigned V = 4;
  Manager M(V, 1 << 10);
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
  Manager M1(V, 1 << 10);
  Manager M2(V, 1 << 10);
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
  Manager M(V, 1 << 10);
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
// Computed-cache keys
//===----------------------------------------------------------------------===//

/// The truth table of \p F over all assignments to \p M's variables.
std::vector<bool> truthTable(Manager &M, const Bdd &F) {
  std::vector<bool> Table(size_t(1) << M.numVars());
  std::vector<bool> X(M.numVars());
  for (size_t A = 0; A != Table.size(); ++A) {
    for (unsigned V = 0; V != M.numVars(); ++V)
      X[V] = (A >> V) & 1;
    Table[A] = M.evalAssignment(F, X);
  }
  return Table;
}

// Every cached operation on the same operands, so that keys are equal
// but for the tag or the replace map's id: the binary operators all key
// on (F, G, 0) and on the same cofactor pairs below; not on (F, 0, 0),
// restrict to x1 on (F, 1, 0), and the three replaces of F on (F, id, 0)
// with ids 0, 1 and 2. Interleaved in a shuffled order on one manager,
// so later rounds probe entries the other operations stored, each result
// must equal the same operation's on a fresh manager: a key encoding
// that lets two of these keys coincide hands one operation another's
// result.
TEST(BddTest, CacheKeepsOpsAndReplaceMapsApart) {
  constexpr unsigned NumVars = 14, Support = 10;
  // Two order-preserving maps and one that inverts x0 and x9, all onto
  // targets outside the operands' support x0..x9.
  std::vector<int> Shift(NumVars, -1), Spread(NumVars, -1),
      Invert(NumVars, -1);
  for (unsigned V = 6; V != Support; ++V)
    Shift[V] = static_cast<int>(V + 4);
  Spread[8] = 11;
  Spread[9] = 13;
  Invert[0] = 13;
  Invert[9] = 10;
  const std::vector<int> *Maps[] = {&Shift, &Spread, &Invert};

  // A random disjunction of cubes over the support, the same in every
  // manager for the same seed.
  auto Random = [&](Manager &M, uint64_t Seed) {
    SplitMix64 Rng(Seed);
    Bdd F = M.falseBdd();
    for (int Term = 0; Term != 24; ++Term) {
      Bdd Cube = M.trueBdd();
      for (unsigned V = 0; V != Support; ++V)
        if (Rng.nextChance(1, 2))
          Cube = Cube & (Rng.nextChance(1, 2) ? M.var(V) : M.nvar(V));
      F = F | Cube;
    }
    return F;
  };
  constexpr unsigned NumSteps = 15;
  auto Run = [&](Manager &M, unsigned Step) {
    Bdd F = Random(M, 1), G = Random(M, 2), H = Random(M, 3);
    if (Step < 6)
      return M.apply(static_cast<Op>(Step), F, G);
    switch (Step) {
    case 6:
      return M.bddNot(F);
    case 7:
      return M.ite(F, G, H);
    case 8:
      return M.relProd(F, G, M.cube({0, 2, 5}));
    case 9:
      return M.exists(F, M.cube({0, 2, 5}));
    case 10:
    case 11:
      return M.restrict(F, 1, Step == 11);
    default:
      return M.replace(F, *Maps[Step - 12]);
    }
  };

  std::vector<std::vector<bool>> Expected;
  for (unsigned Step = 0; Step != NumSteps; ++Step) {
    Manager Fresh(NumVars);
    Expected.push_back(truthTable(Fresh, Run(Fresh, Step)));
  }

  Manager M(NumVars);
  SplitMix64 Rng(26);
  std::vector<unsigned> Order(NumSteps);
  for (unsigned Step = 0; Step != NumSteps; ++Step)
    Order[Step] = Step;
  constexpr int Rounds = 4;
  for (int Round = 0; Round != Rounds; ++Round) {
    for (unsigned I = NumSteps; I-- > 1;)
      std::swap(Order[I], Order[Rng.nextBelow(I + 1)]);
    for (unsigned Step : Order)
      ASSERT_EQ(truthTable(M, Run(M, Step)), Expected[Step])
          << "round " << Round << ", step " << Step;
  }
  // Only the inverting map took the ITE rebuild, once a round.
  EXPECT_EQ(M.stats().ReorderingReplaces, size_t(Rounds));
  EXPECT_EQ(M.checkInvariants(), "");
}

//===----------------------------------------------------------------------===//
// Exact satCount
//===----------------------------------------------------------------------===//

TEST(BddSatCountExact, CountBeyondDoublePrecision) {
  // 2^55 + 1 over 56 variables: a double rounds this to 2^55.
  const unsigned V = 56;
  Manager M(V, 1 << 10);
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
  Manager M(V, 1 << 10);
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
  Manager M(V, 1 << 10);
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

// The count's memo is indexed through the walk's stamps: growing the
// pool and recycling slots between two counts of one BDD must not let a
// stale stamp or memo entry leak into the second count.
TEST(BddSatCountExact, CountsStayExactAcrossPoolGrowthAndGc) {
  const unsigned V = 24;
  Manager M(V, 1 << 10);
  std::vector<unsigned> Vars(V);
  for (unsigned I = 0; I != V; ++I)
    Vars[I] = I;
  SplitMix64 Rng(7);
  // Rows of one word: bit I is the value of variable I.
  auto Build = [&](size_t NumRows) {
    std::set<uint64_t> Rows;
    while (Rows.size() != NumRows)
      Rows.insert(Rng.nextBelow(uint64_t(1) << V));
    return M.minterms(Vars, NumRows, {Rows.begin(), Rows.end()});
  };
  const std::vector<unsigned> Low12(Vars.begin(), Vars.begin() + 12);

  Bdd F = Build(40);
  ASSERT_EQ(M.satCountExact(F).toString(), "40");
  const size_t Capacity = M.stats().Capacity;
  {
    Bdd Big = Build(2000);
    ASSERT_GT(M.stats().Capacity, Capacity);
    EXPECT_EQ(M.satCountExact(Big).toString(), "2000");
    EXPECT_EQ(M.satCountExact(F).toString(), "40");
  }
  M.gc();
  Bdd G = Build(700); // Lands in the slots the collection freed.
  EXPECT_EQ(M.satCountExact(F).toString(), "40");
  EXPECT_EQ(M.satCountExact(G).toString(), "700");
  EXPECT_EQ(M.satCount(F, Vars), 40.0);
  // Over the low 12 variables, the top 12 are quantified away.
  Bdd Top12 = M.cube({Vars.begin() + 12, Vars.end()});
  Bdd LowG = M.exists(G, Top12);
  EXPECT_EQ(M.satCountExact(LowG, Low12).toDouble() * 4096,
            M.satCount(LowG));
  EXPECT_EQ(M.checkInvariants(), "");
}

//===----------------------------------------------------------------------===//
// Minterm sets built bottom-up
//===----------------------------------------------------------------------===//

/// The OR of one AND-of-literals cube per row, the per-tuple encoding
/// minterms() replaces.
Bdd mintermsByCubes(Manager &M, const std::vector<unsigned> &Vars,
                    const std::vector<std::vector<bool>> &Rows) {
  Bdd Result = M.falseBdd();
  for (const std::vector<bool> &Row : Rows) {
    Bdd Cube = M.trueBdd();
    for (size_t I = 0; I != Vars.size(); ++I)
      Cube = Cube & (Row[I] ? M.var(Vars[I]) : M.nvar(Vars[I]));
    Result = Result | Cube;
  }
  return Result;
}

std::vector<uint64_t> packRows(const std::vector<std::vector<bool>> &Rows,
                               size_t NumVars) {
  const size_t Words = (NumVars + 63) / 64;
  std::vector<uint64_t> Packed(Rows.size() * Words, 0);
  for (size_t R = 0; R != Rows.size(); ++R)
    for (size_t I = 0; I != NumVars; ++I)
      if (Rows[R][I])
        Packed[R * Words + I / 64] |= uint64_t(1) << (I % 64);
  return Packed;
}

TEST(BddMinterms, MatchesOrOfCubesAcrossWordBoundaries) {
  // 180 manager variables; the minterm variables are a random ascending
  // subset wider than two words, so rows span three.
  const unsigned V = 180;
  Manager M(V, 1 << 10);
  SplitMix64 Rng(11);
  for (int Trial = 0; Trial != 6; ++Trial) {
    std::vector<unsigned> Vars;
    for (unsigned Var = 0; Var != V; ++Var)
      if (Rng.nextBelow(6) != 0)
        Vars.push_back(Var);
    ASSERT_GT(Vars.size(), 128u);
    std::vector<std::vector<bool>> Rows;
    size_t NumRows = Rng.nextBelow(40);
    for (size_t R = 0; R != NumRows; ++R) {
      // Few distinct values per bit, so rows share prefixes and repeat.
      std::vector<bool> Row(Vars.size());
      for (size_t I = 0; I != Vars.size(); ++I)
        Row[I] = I % 17 == 0 ? Rng.nextBelow(2) : (I % 3 == 0);
      Rows.push_back(Row);
      if (Rng.nextBelow(4) == 0)
        Rows.push_back(Row); // A duplicate.
    }
    Bdd Built = M.minterms(Vars, Rows.size(), packRows(Rows, Vars.size()));
    EXPECT_EQ(Built, mintermsByCubes(M, Vars, Rows)) << "trial " << Trial;
    ASSERT_EQ(M.checkInvariants(), "");
  }
}

TEST(BddMinterms, EdgeCases) {
  Manager M(8);
  // No rows: the empty set, even over variables.
  EXPECT_TRUE(M.minterms({1, 4}, 0, {}).isFalse());
  // Rows over no variables: the one empty assignment, i.e. true.
  EXPECT_TRUE(M.minterms({}, 3, {}).isTrue());
  // One row: the cube of its literals.
  Bdd One = M.minterms({0, 3, 7}, 1, {0b101});
  EXPECT_EQ(One, M.var(0) & M.nvar(3) & M.var(7));
  // All 2^k rows over k variables: true again.
  EXPECT_TRUE(M.minterms({2, 5}, 4, {0, 1, 2, 3}).isTrue());
}

TEST(BddMinterms, CreatesOnlyTheResultsNodes) {
  const unsigned V = 24;
  Manager M(V, 1 << 12);
  SplitMix64 Rng(5);
  std::vector<unsigned> Vars;
  for (unsigned Var = 0; Var != V; ++Var)
    Vars.push_back(Var);
  std::vector<uint64_t> Rows;
  for (int R = 0; R != 300; ++R)
    Rows.push_back(Rng.nextBelow(uint64_t(1) << V));
  size_t Before = M.stats().NodesCreated;
  Bdd Built = M.minterms(Vars, Rows.size(), Rows);
  // A fresh manager shares nothing with the result, so every node made
  // is one of its nodes: no path copies are left behind as garbage.
  EXPECT_EQ(M.stats().NodesCreated - Before, M.nodeCount(Built));
  EXPECT_EQ(M.satCount(Built), double(std::set<uint64_t>(Rows.begin(),
                                                         Rows.end())
                                          .size()));
}

} // namespace
