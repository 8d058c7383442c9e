//===- bdd_reorder_test.cpp - Dynamic variable reordering tests -----------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
//
// Tests for dynamic variable reordering (docs/reordering.md): semantic
// preservation under sifting, size reduction on a known bad order, the
// automatic growth trigger, block contiguity, the per-manager replace-map
// registry (a regression test for a cross-thread cache-tag aliasing bug),
// and the exact 128-bit satCount path.
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"
#include "bdd/DomainPack.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

using namespace jedd;
using namespace jedd::bdd;

namespace {

/// Evaluates \p F on every assignment of \p V variables and returns the
/// truth table (bit v of the index is the value of variable v).
std::vector<bool> tableOf(Manager &M, const Bdd &F, unsigned V) {
  std::vector<bool> Table(size_t(1) << V);
  std::vector<bool> Assignment(V);
  for (size_t I = 0; I != Table.size(); ++I) {
    for (unsigned Var = 0; Var != V; ++Var)
      Assignment[Var] = (I >> Var) & 1;
    Table[I] = M.evalAssignment(F, Assignment);
  }
  return Table;
}

/// The classic sifting demo function: pairs (i, i+Pairs) conjoined and
/// disjoined. Exponential under the identity order, linear when the
/// paired variables are adjacent.
Bdd pairFunction(Manager &M, unsigned Pairs) {
  Bdd F = M.falseBdd();
  for (unsigned I = 0; I != Pairs; ++I)
    F = M.bddOr(F, M.bddAnd(M.var(I), M.var(I + Pairs)));
  return F;
}

TEST(BddReorder, ReorderPreservesSemantics) {
  const unsigned V = 10;
  Manager M(V, 1 << 10, 1 << 12);
  SplitMix64 Rng(0x5EED);

  // A pool of random functions, all kept live through the reorder.
  std::vector<Bdd> Funs;
  std::vector<std::vector<bool>> Tables;
  std::vector<Bdd> Pool;
  for (unsigned Var = 0; Var != V; ++Var) {
    Pool.push_back(M.var(Var));
    Pool.push_back(M.nvar(Var));
  }
  for (int I = 0; I != 40; ++I) {
    Op Operator = static_cast<Op>(Rng.nextBelow(6));
    const Bdd &A = Pool[Rng.nextBelow(Pool.size())];
    const Bdd &B = Pool[Rng.nextBelow(Pool.size())];
    Bdd R = M.apply(Operator, A, B);
    Pool.push_back(R);
    Funs.push_back(R);
    Tables.push_back(tableOf(M, R, V));
  }

  std::vector<double> Counts;
  for (const Bdd &F : Funs)
    Counts.push_back(M.satCount(F));

  M.reorder();
  EXPECT_EQ(M.reorderStats().Runs, 1u);

  // The var<->level maps must stay inverse bijections.
  for (unsigned Var = 0; Var != V; ++Var)
    EXPECT_EQ(M.varAtLevel(M.levelOfVar(Var)), Var);

  std::vector<bool> Assignment(V);
  for (size_t F = 0; F != Funs.size(); ++F) {
    EXPECT_EQ(M.satCount(Funs[F]), Counts[F]) << "function " << F;
    std::vector<bool> After = tableOf(M, Funs[F], V);
    EXPECT_EQ(After, Tables[F]) << "function " << F;
  }
}

TEST(BddReorder, SiftingShrinksBadOrder) {
  const unsigned Pairs = 6;
  const unsigned V = 2 * Pairs;
  Manager M(V, 1 << 12, 1 << 12);
  Bdd F = pairFunction(M, Pairs);
  std::vector<bool> Before = tableOf(M, F, V);
  size_t NodesBefore = M.nodeCount(F);

  M.reorder();

  size_t NodesAfter = M.nodeCount(F);
  // Identity order needs ~2^(Pairs+1) nodes, an interleaved order 3 per
  // pair; sifting must find a drastically smaller order.
  EXPECT_LT(NodesAfter, NodesBefore / 2)
      << "sifting failed to shrink the pair function";
  EXPECT_LE(NodesAfter, 4 * Pairs + 2);
  EXPECT_EQ(tableOf(M, F, V), Before);

  ReorderStats RS = M.reorderStats();
  EXPECT_EQ(RS.Runs, 1u);
  EXPECT_GT(RS.Swaps, 0u);
  EXPECT_GT(RS.BlockMoves, 0u);
  EXPECT_GT(RS.NodesBefore, RS.NodesAfter);
}

TEST(BddReorder, AutoTriggerFires) {
  const unsigned V = 14;
  Manager M(V, 1 << 9, 1 << 10);
  ReorderConfig RC;
  RC.Auto = true;
  RC.MinNodes = 1 << 8;
  M.setReorderConfig(RC);

  // Grow a live pair function plus random ballast until the growth
  // heuristic (live nodes doubled since the baseline) fires at a GC.
  std::vector<Bdd> Live;
  Live.push_back(pairFunction(M, V / 2));
  SplitMix64 Rng(0xAB17E);
  for (int I = 0; I != 200 && M.reorderStats().Runs == 0; ++I) {
    Bdd A = M.var(static_cast<unsigned>(Rng.nextBelow(V)));
    Bdd B = M.var(static_cast<unsigned>(Rng.nextBelow(V)));
    Bdd C = M.var(static_cast<unsigned>(Rng.nextBelow(V)));
    Live.push_back(M.ite(A, M.bddAnd(B, C), M.bddXor(B, C)));
    Live.push_back(M.bddOr(Live[Rng.nextBelow(Live.size())],
                           Live[Rng.nextBelow(Live.size())]));
  }
  EXPECT_GT(M.reorderStats().Runs, 0u)
      << "auto trigger never fired despite sustained growth";
}

TEST(BddReorder, BlocksMoveAsUnits) {
  const unsigned V = 8;
  Manager M(V, 1 << 10, 1 << 10);
  M.setBlocks({{0, 1}, {2, 3}, {4, 5}, {6, 7}});

  // Couple the blocks so sifting has something to move.
  Bdd F = M.bddOr(M.bddAnd(M.var(0), M.var(6)),
                  M.bddOr(M.bddAnd(M.var(1), M.var(7)),
                          M.bddAnd(M.var(2), M.var(5))));
  std::vector<bool> Before = tableOf(M, F, V);
  M.reorder();
  EXPECT_EQ(tableOf(M, F, V), Before);

  // Every declared block must still occupy contiguous levels, in the
  // declared internal order — the invariant that keeps DomainPack
  // encodings valid across reorders.
  for (unsigned Block = 0; Block != 4; ++Block) {
    unsigned First = M.levelOfVar(2 * Block);
    EXPECT_EQ(M.levelOfVar(2 * Block + 1), First + 1)
        << "block " << Block << " was split or flipped";
  }
}

//===----------------------------------------------------------------------===//
// Replace-map registry (regression)
//===----------------------------------------------------------------------===//

// The replace() computed cache keys entries by a tag derived from the
// variable map. The registry assigning tags used to be thread-local and
// process-global: a second thread started counting tags at zero, so its
// first (different) map aliased the first thread's cache entries and
// replace() returned results for the wrong map. The registry now lives in
// the manager, under a mutex.
TEST(BddReorderRegistry, DistinctMapsFromTwoThreads) {
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

TEST(BddReorderRegistry, SameMapTwoManagers) {
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

TEST(BddReorderRegistry, DistinctMapsSameThread) {
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

TEST(BddSatCountExact, StableAcrossReorder) {
  const unsigned Pairs = 5;
  Manager M(2 * Pairs, 1 << 10, 1 << 12);
  Bdd F = pairFunction(M, Pairs);
  SatCount Before = M.satCountExact(F);
  M.reorder();
  EXPECT_EQ(M.satCountExact(F), Before);
}

//===----------------------------------------------------------------------===//
// Reordering through the DomainPack
//===----------------------------------------------------------------------===//

TEST(BddReorderDomainPack, EncodingsSurviveReorder) {
  for (const char *Order : {"A_B_C", "AxBxC", "B_AxC"}) {
    DomainPack Pack(Order);
    PhysDomId A = Pack.addDomain("A", 4);
    PhysDomId B = Pack.addDomain("B", 6);
    PhysDomId C = Pack.addDomain("C", 4);
    Pack.finalize(1 << 10, 1 << 12);
    Manager &M = Pack.manager();

    // A sparse relation over (A, B) plus a diagonal over (A, C).
    Bdd R = M.falseBdd();
    for (uint64_t I = 0; I != 12; ++I)
      R = M.bddOr(R, M.bddAnd(Pack.encode(A, (I * 5) % 16),
                              Pack.encode(B, (I * 11) % 64)));
    Bdd Diag = M.bddAnd(Pack.equal(A, C), R);
    double RCount = M.satCount(R);
    double DCount = M.satCount(Diag);

    M.reorder();

    EXPECT_EQ(M.satCount(R), RCount);
    EXPECT_EQ(M.satCount(Diag), DCount);
    // Encodings built after the reorder must still hit the same tuples.
    for (uint64_t I = 0; I != 12; ++I) {
      Bdd Tuple = M.bddAnd(Pack.encode(A, (I * 5) % 16),
                           Pack.encode(B, (I * 11) % 64));
      EXPECT_FALSE(M.bddAnd(Tuple, R).isFalse()) << "tuple " << I;
    }
    EXPECT_FALSE(M.bddAnd(Pack.encode(A, 1), Pack.encode(B, 0)).isFalse());
  }
}

} // namespace
