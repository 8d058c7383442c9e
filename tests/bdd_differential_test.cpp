//===- bdd_differential_test.cpp - BDD vs truth-table differential --------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
//
// Differential harness for the BDD package: every random formula is built
// twice — in a manager and as an explicit truth table — and the two must
// agree on every assignment and on the number of satisfying assignments.
// The manager's pools are small, so growth and collection run mid-stream.
//
// The generator is seeded (SplitMix64), so failures reproduce exactly.
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace jedd;
using namespace jedd::bdd;

namespace {

/// One function tracked in both representations. The truth table is
/// indexed by assignment: bit v of the index is the value of variable v.
struct TrackedFun {
  Bdd Fn;
  std::vector<bool> Table;
};

class DifferentialHarness {
public:
  DifferentialHarness(unsigned NumVars, uint64_t Seed)
      : V(NumVars), N(size_t(1) << NumVars), Rng(Seed),
        // Small pools so growth and GC trigger mid-run.
        Mgr(NumVars, 1 << 10, 1 << 12) {
    // Seed the pool with all literals and the constants.
    for (unsigned Var = 0; Var != V; ++Var) {
      std::vector<bool> T(N), NT(N);
      for (size_t I = 0; I != N; ++I) {
        T[I] = (I >> Var) & 1;
        NT[I] = !T[I];
      }
      Pool.push_back({Mgr.var(Var), std::move(T)});
      Pool.push_back({Mgr.nvar(Var), std::move(NT)});
    }
    Pool.push_back({Mgr.falseBdd(), std::vector<bool>(N)});
    Pool.push_back({Mgr.trueBdd(), std::vector<bool>(N, true)});
  }

  /// Performs one random operation, checks the two representations
  /// against each other, and stores the result in the pool.
  void step() {
    TrackedFun R;
    switch (Rng.nextBelow(10)) {
    default:
    case 0:
    case 1:
    case 2: { // Binary apply with a random operator.
      Op Operator = static_cast<Op>(Rng.nextBelow(6));
      const TrackedFun &F = pick(), &G = pick();
      R.Fn = Mgr.apply(Operator, F.Fn, G.Fn);
      R.Table = applyTable(Operator, F.Table, G.Table);
      break;
    }
    case 3: { // Negation.
      const TrackedFun &F = pick();
      R.Fn = Mgr.bddNot(F.Fn);
      R.Table = F.Table;
      R.Table.flip();
      break;
    }
    case 4: { // If-then-else.
      const TrackedFun &F = pick(), &G = pick(), &H = pick();
      R.Fn = Mgr.ite(F.Fn, G.Fn, H.Fn);
      R.Table.resize(N);
      for (size_t I = 0; I != N; ++I)
        R.Table[I] = F.Table[I] ? G.Table[I] : H.Table[I];
      break;
    }
    case 5: { // Existential quantification over a random small cube.
      const TrackedFun &F = pick();
      std::vector<unsigned> Vars = randomVarSet(3);
      R.Fn = Mgr.exists(F.Fn, Mgr.cube(Vars));
      R.Table = existsTable(F.Table, Vars);
      break;
    }
    case 6: { // Relational product: exists Vars. F AND G.
      const TrackedFun &F = pick(), &G = pick();
      std::vector<unsigned> Vars = randomVarSet(3);
      R.Fn = Mgr.relProd(F.Fn, G.Fn, Mgr.cube(Vars));
      std::vector<bool> AndT(N);
      for (size_t I = 0; I != N; ++I)
        AndT[I] = F.Table[I] && G.Table[I];
      R.Table = existsTable(AndT, Vars);
      break;
    }
    case 7: { // Replacement along a random permutation of all variables.
      const TrackedFun &F = pick();
      std::vector<int> Map = randomPermutationMap();
      R.Fn = Mgr.replace(F.Fn, Map);
      // Renaming v -> Map[v] means the new function reads the value of
      // variable Map[v] wherever the old one read v.
      R.Table.resize(N);
      for (size_t I = 0; I != N; ++I) {
        size_t Src = 0;
        for (unsigned Var = 0; Var != V; ++Var) {
          unsigned To = Map[Var] < 0 ? Var : static_cast<unsigned>(Map[Var]);
          if ((I >> To) & 1)
            Src |= size_t(1) << Var;
        }
        R.Table[I] = F.Table[Src];
      }
      break;
    }
    case 8:
    case 9: { // Restriction of one variable to a constant.
      const TrackedFun &F = pick();
      unsigned Var = static_cast<unsigned>(Rng.nextBelow(V));
      bool Value = Rng.nextChance(1, 2);
      R.Fn = Mgr.restrict(F.Fn, Var, Value);
      R.Table.resize(N);
      for (size_t I = 0; I != N; ++I) {
        size_t Src = Value ? (I | (size_t(1) << Var))
                           : (I & ~(size_t(1) << Var));
        R.Table[I] = F.Table[Src];
      }
      break;
    }
    }

    check(R);
    checkStores();

    // Replace a random pool slot (beyond the seeded literals) so dropped
    // handles become garbage and exercise GC.
    size_t Seeded = 2 * size_t(V) + 2;
    if (Pool.size() < Seeded + 16)
      Pool.push_back(std::move(R));
    else
      Pool[Seeded + Rng.nextBelow(16)] = std::move(R);
    ++Cases;
    checkStores();
  }

  size_t casesRun() const { return Cases; }

private:
  unsigned V;
  size_t N;
  SplitMix64 Rng;
  Manager Mgr;
  std::vector<TrackedFun> Pool;
  size_t Cases = 0;

  const TrackedFun &pick() { return Pool[Rng.nextBelow(Pool.size())]; }

  std::vector<unsigned> randomVarSet(unsigned MaxSize) {
    unsigned Size = 1 + static_cast<unsigned>(Rng.nextBelow(MaxSize));
    std::vector<unsigned> Vars;
    for (unsigned I = 0; I != Size; ++I) {
      unsigned Var = static_cast<unsigned>(Rng.nextBelow(V));
      if (std::find(Vars.begin(), Vars.end(), Var) == Vars.end())
        Vars.push_back(Var);
    }
    std::sort(Vars.begin(), Vars.end());
    return Vars;
  }

  std::vector<int> randomPermutationMap() {
    std::vector<int> Perm(V);
    for (unsigned I = 0; I != V; ++I)
      Perm[I] = static_cast<int>(I);
    for (unsigned I = V; I > 1; --I)
      std::swap(Perm[I - 1], Perm[Rng.nextBelow(I)]);
    std::vector<int> Map(V);
    for (unsigned I = 0; I != V; ++I)
      Map[I] = Perm[I] == static_cast<int>(I) ? -1 : Perm[I];
    return Map;
  }

  std::vector<bool> applyTable(Op Operator, const std::vector<bool> &F,
                               const std::vector<bool> &G) {
    std::vector<bool> R(N);
    for (size_t I = 0; I != N; ++I) {
      bool A = F[I], B = G[I];
      switch (Operator) {
      case Op::And:
        R[I] = A && B;
        break;
      case Op::Or:
        R[I] = A || B;
        break;
      case Op::Xor:
        R[I] = A != B;
        break;
      case Op::Diff:
        R[I] = A && !B;
        break;
      case Op::Imp:
        R[I] = !A || B;
        break;
      case Op::Biimp:
        R[I] = A == B;
        break;
      }
    }
    return R;
  }

  std::vector<bool> existsTable(const std::vector<bool> &F,
                                const std::vector<unsigned> &Vars) {
    std::vector<bool> R(N);
    for (size_t I = 0; I != N; ++I) {
      bool Any = false;
      // Enumerate all settings of the quantified variables.
      for (size_t Sub = 0, E = size_t(1) << Vars.size(); Sub != E && !Any;
           ++Sub) {
        size_t Idx = I;
        for (size_t K = 0; K != Vars.size(); ++K) {
          if ((Sub >> K) & 1)
            Idx |= size_t(1) << Vars[K];
          else
            Idx &= ~(size_t(1) << Vars[K]);
        }
        Any = F[Idx];
      }
      R[I] = Any;
    }
    return R;
  }

  /// Structural invariants of the node store.
  void checkStores() {
    ASSERT_EQ(Mgr.checkInvariants(), "") << "case " << Cases;
  }

  void check(const TrackedFun &R) {
    std::vector<bool> Assignment(V);
    for (size_t I = 0; I != N; ++I) {
      for (unsigned Var = 0; Var != V; ++Var)
        Assignment[Var] = (I >> Var) & 1;
      bool Expected = R.Table[I];
      ASSERT_EQ(Mgr.evalAssignment(R.Fn, Assignment), Expected)
          << "disagrees with truth table, case " << Cases << " assignment "
          << I;
    }
    ASSERT_EQ(Mgr.satCount(R.Fn),
              static_cast<double>(
                  std::count(R.Table.begin(), R.Table.end(), true)))
        << "satCount mismatch, case " << Cases;
  }
};

struct RoundSpec {
  unsigned NumVars;
  uint64_t Seed;
  unsigned Ops;
};

// 6 rounds x 180 ops = 1080 differential cases (>= the 1000 the harness
// promises), spanning narrow and full-width variable counts.
const RoundSpec Rounds[] = {
    {4, 0xA001, 180}, {6, 0xA002, 180},  {8, 0xA003, 180},
    {10, 0xA004, 180}, {12, 0xA005, 180}, {12, 0xA006, 180},
};

class BddDifferential : public ::testing::TestWithParam<RoundSpec> {};

TEST_P(BddDifferential, KernelAndTruthTableAgree) {
  const RoundSpec &Spec = GetParam();
  DifferentialHarness H(Spec.NumVars, Spec.Seed);
  for (unsigned I = 0; I != Spec.Ops; ++I)
    H.step();
  EXPECT_EQ(H.casesRun(), Spec.Ops);
}

INSTANTIATE_TEST_SUITE_P(Rounds, BddDifferential, ::testing::ValuesIn(Rounds),
                         [](const ::testing::TestParamInfo<RoundSpec> &Info) {
                           return "Vars" +
                                  std::to_string(Info.param.NumVars) +
                                  "Seed" + std::to_string(Info.param.Seed);
                         });

} // namespace
