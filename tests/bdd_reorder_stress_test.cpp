//===- bdd_reorder_stress_test.cpp - Reordering under load ----------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
//
// Stress test (ctest label: stress) for dynamic variable reordering under
// a long, GC-heavy op stream. Automatic sifting passes fire between the
// client's operations while four op streams keep their pools live; every
// stream tracks truth tables for its functions and verifies them at the
// end, so any node corrupted by a swap, a stale computed-cache entry
// surviving a reorder flush, or a lost unique-table chain segment shows
// up as a wrong assignment.
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <vector>

using namespace jedd;
using namespace jedd::bdd;

namespace {

struct LocalFun {
  Bdd F;
  std::vector<bool> Table;
};

/// One op stream: random apply/ite/exists/replace over a private pool,
/// with truth tables maintained alongside.
void clientStream(Manager &M, unsigned V, uint64_t Seed, unsigned Ops,
                  std::vector<LocalFun> &Out) {
  const size_t N = size_t(1) << V;
  SplitMix64 Rng(Seed);
  std::vector<LocalFun> Pool;
  for (unsigned Var = 0; Var != V; ++Var) {
    std::vector<bool> T(N);
    for (size_t I = 0; I != N; ++I)
      T[I] = (I >> Var) & 1;
    Pool.push_back({M.var(Var), std::move(T)});
  }
  for (unsigned I = 0; I != Ops; ++I) {
    const LocalFun &A = Pool[Rng.nextBelow(Pool.size())];
    const LocalFun &B = Pool[Rng.nextBelow(Pool.size())];
    LocalFun R;
    switch (Rng.nextBelow(4)) {
    case 0: {
      Op Operator = static_cast<Op>(Rng.nextBelow(6));
      R.F = M.apply(Operator, A.F, B.F);
      R.Table.resize(N);
      for (size_t K = 0; K != N; ++K) {
        bool X = A.Table[K], Y = B.Table[K];
        switch (Operator) {
        case Op::And: R.Table[K] = X && Y; break;
        case Op::Or: R.Table[K] = X || Y; break;
        case Op::Xor: R.Table[K] = X != Y; break;
        case Op::Diff: R.Table[K] = X && !Y; break;
        case Op::Imp: R.Table[K] = !X || Y; break;
        case Op::Biimp: R.Table[K] = X == Y; break;
        }
      }
      break;
    }
    case 1: {
      const LocalFun &C = Pool[Rng.nextBelow(Pool.size())];
      R.F = M.ite(A.F, B.F, C.F);
      R.Table.resize(N);
      for (size_t K = 0; K != N; ++K)
        R.Table[K] = A.Table[K] ? B.Table[K] : C.Table[K];
      break;
    }
    case 2: {
      unsigned Var = static_cast<unsigned>(Rng.nextBelow(V));
      R.F = M.exists(A.F, M.cube({Var}));
      R.Table.resize(N);
      for (size_t K = 0; K != N; ++K)
        R.Table[K] = A.Table[K | (size_t(1) << Var)] ||
                     A.Table[K & ~(size_t(1) << Var)];
      break;
    }
    default: {
      // Swap two variables, interleaving replace's collection checks with
      // the reorders.
      unsigned X = static_cast<unsigned>(Rng.nextBelow(V));
      unsigned Y = static_cast<unsigned>(Rng.nextBelow(V));
      std::vector<int> Map(V, -1);
      if (X != Y) {
        Map[X] = static_cast<int>(Y);
        Map[Y] = static_cast<int>(X);
      }
      R.F = M.replace(A.F, Map);
      R.Table.resize(N);
      for (size_t K = 0; K != N; ++K) {
        size_t Src = K & ~((size_t(1) << X) | (size_t(1) << Y));
        if ((K >> Y) & 1)
          Src |= size_t(1) << X;
        if ((K >> X) & 1)
          Src |= size_t(1) << Y;
        R.Table[K] = A.Table[Src];
      }
      break;
    }
    }
    // The store's structure must hold between any two operations, however
    // the reorders interleave with them.
    EXPECT_EQ(M.checkInvariants(), "") << "client op " << I;
    // Keep a rolling window live so GC has garbage and reorders have a
    // substantial live set.
    if (Pool.size() < size_t(V) + 24)
      Pool.push_back(std::move(R));
    else
      Pool[V + Rng.nextBelow(24)] = std::move(R);
  }
  Out = std::move(Pool);
}

void verifyAll(Manager &M, unsigned V, const std::vector<LocalFun> &Funs) {
  ASSERT_EQ(M.checkInvariants(), "");
  const size_t N = size_t(1) << V;
  std::vector<bool> Assignment(V);
  for (size_t F = 0; F != Funs.size(); ++F) {
    for (size_t I = 0; I != N; ++I) {
      for (unsigned Var = 0; Var != V; ++Var)
        Assignment[Var] = (I >> Var) & 1;
      ASSERT_EQ(M.evalAssignment(Funs[F].F, Assignment), Funs[F].Table[I])
          << "function " << F << " assignment " << I;
    }
  }
}

TEST(BddReorderStress, AutoSiftingUnderParallelLoad) {
  const unsigned V = 10;
  Manager M(V, 1 << 10, 1 << 12);
  ReorderConfig RC;
  RC.Auto = true;
  RC.MinNodes = 1 << 8;
  M.setReorderConfig(RC);

  // One client runs the four streams back to back; each stream's pool
  // stays live, so later streams sift a growing live set.
  const unsigned Streams = 4;
  std::vector<std::vector<LocalFun>> Results(Streams);
  for (unsigned T = 0; T != Streams; ++T)
    clientStream(M, V, 0xF00D + T, 300, Results[T]);

  for (unsigned T = 0; T != Streams; ++T)
    verifyAll(M, V, Results[T]);
  // One more forced pass, then re-verify.
  M.reorder();
  EXPECT_GT(M.reorderStats().Runs, 0u);
  for (unsigned T = 0; T != Streams; ++T)
    verifyAll(M, V, Results[T]);
}

} // namespace
