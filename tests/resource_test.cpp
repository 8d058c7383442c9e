//===- resource_test.cpp - Resource governor and budget tests -------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resource-governance contract of docs/robustness.md: a tripped
/// ceiling (nodes, bytes, deadline, cancellation, injected fault)
/// unwinds the operation via jedd::ResourceExhausted, the manager runs
/// its GC + cache-flush recovery, and afterwards it is *observably in
/// its pre-operation state* — every pre-existing handle evaluates
/// exactly as before and the same operation succeeds once the budget is
/// lifted.
///
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"
#include "obs/Obs.h"
#include "util/Error.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

using namespace jedd;
using namespace jedd::bdd;

namespace {

//===--------------------------------------------------------------------===//
// BDD governor
//===--------------------------------------------------------------------===//

/// OR of \p K random minterms over all \p NumVars variables — a workload
/// whose construction and combination allocate plenty of fresh nodes, so
/// per-allocation governor checks (and the 1-in-1024 slow polls for
/// deadline/cancellation) are guaranteed to run.
Bdd randomDense(Manager &M, SplitMix64 &Rng, unsigned NumVars, unsigned K) {
  Bdd R = M.falseBdd();
  for (unsigned I = 0; I != K; ++I) {
    Bdd Term = M.trueBdd();
    uint64_t Bits = Rng.next();
    for (unsigned V = 0; V != NumVars; ++V)
      Term = Term & (((Bits >> V) & 1) ? M.var(V) : M.nvar(V));
    R = R | Term;
  }
  return R;
}

/// Full truth table of F, indexed by assignment (bit v = variable v).
std::vector<bool> tableOf(Manager &M, const Bdd &F, unsigned NumVars) {
  size_t N = size_t(1) << NumVars;
  std::vector<bool> Table(N), Assignment(NumVars);
  for (size_t I = 0; I != N; ++I) {
    for (unsigned V = 0; V != NumVars; ++V)
      Assignment[V] = (I >> V) & 1;
    Table[I] = M.evalAssignment(F, Assignment);
  }
  return Table;
}

TEST(ResourceGovernor, NodeCeilingAbortsAndRecovers) {
  constexpr unsigned V = 14;
  Manager M(V, 1 << 10);
  SplitMix64 Rng(1);
  Bdd F = randomDense(M, Rng, V, 40);
  Bdd G = randomDense(M, Rng, V, 40);

  // A ceiling far below the operands' own size: the escalation ladder
  // (cache flush and gc) cannot free enough, so the op must abort.
  ResourceLimits L;
  L.MaxNodes = 128;
  M.setResourceLimits(L);
  obs::Tracer &T = obs::Tracer::instance();
  T.clear();
  T.setLevel(obs::Level::Metrics);
  try {
    Bdd R = F ^ G;
    FAIL() << "expected ResourceExhausted, got a " << M.nodeCount(R)
           << "-node result";
  } catch (const ResourceExhausted &E) {
    EXPECT_EQ(E.What, ResourceExhausted::Kind::Nodes);
    EXPECT_GE(E.NodesPeak, L.MaxNodes);
  }
  EXPECT_EQ(M.checkInvariants(), "");

  // The governor's state is surfaced through ManagerStats.
  ManagerStats S = M.stats();
  EXPECT_EQ(S.LimitMaxNodes, size_t(128));
  EXPECT_GE(S.ResourceAborts, size_t(1));
  EXPECT_GE(S.ResourceRecoveries, size_t(1));
  EXPECT_GE(S.NodesPeak, S.LimitMaxNodes);
  EXPECT_GT(S.BytesPeak, size_t(0));

  // So is the tracer's: one resource.abort span per abort, whose
  // arguments peak where the manager's peaks do.
  T.setLevel(obs::Level::Off);
  obs::TotalsMap Totals = T.totals();
  T.clear();
  auto Abort =
      Totals.find(obs::SpanKey{obs::Cat::Resource, "abort", "", "", 0});
  ASSERT_NE(Abort, Totals.end());
  EXPECT_EQ(Abort->second.Count, S.ResourceAborts);
  EXPECT_EQ(Abort->second.arg("nodes_peak").Max, S.NodesPeak);
  EXPECT_EQ(Abort->second.arg("bytes_peak").Max, S.BytesPeak);

  // Recovery contract: with the ceiling lifted the same manager
  // completes the same operation, and the result matches a manager that
  // never aborted.
  M.setResourceLimits({});
  Bdd R = F ^ G;

  Manager Fresh(V, 1 << 10);
  SplitMix64 Rng2(1);
  Bdd F2 = randomDense(Fresh, Rng2, V, 40);
  Bdd G2 = randomDense(Fresh, Rng2, V, 40);
  Bdd R2 = F2 ^ G2;
  EXPECT_EQ(tableOf(M, R, V), tableOf(Fresh, R2, V));
  EXPECT_DOUBLE_EQ(M.satCount(R), Fresh.satCount(R2));
}

TEST(ResourceGovernor, AbortLeavesPreOpStateIntact) {
  constexpr unsigned V = 12;
  Manager M(V, 1 << 10);
  SplitMix64 Rng(2);
  Bdd F = randomDense(M, Rng, V, 50);
  Bdd G = randomDense(M, Rng, V, 50);

  std::vector<bool> TF = tableOf(M, F, V), TG = tableOf(M, G, V);
  double CF = M.satCount(F), CG = M.satCount(G);

  ResourceLimits L;
  L.MaxNodes = 96;
  M.setResourceLimits(L);
  EXPECT_THROW((void)(F ^ G), ResourceExhausted);
  EXPECT_EQ(M.checkInvariants(), "");

  // Pre-existing handles are untouched by the abort + recovery GC: same
  // semantics, same counts.
  EXPECT_EQ(tableOf(M, F, V), TF);
  EXPECT_EQ(tableOf(M, G, V), TG);
  EXPECT_DOUBLE_EQ(M.satCount(F), CF);
  EXPECT_DOUBLE_EQ(M.satCount(G), CG);
}

TEST(ResourceGovernor, ByteCeilingTrips) {
  constexpr unsigned V = 14;
  Manager M(V, 1 << 10);
  SplitMix64 Rng(3);

  // The byte figure is polled every GovTickMask+1 fresh allocations, so
  // the workload must keep creating genuinely new nodes; building a
  // large function from scratch under the ceiling guarantees that.
  ResourceLimits L;
  L.MaxBytes = 4096; // Far below the pool + cache footprint.
  M.setResourceLimits(L);
  try {
    (void)randomDense(M, Rng, V, 400);
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted &E) {
    EXPECT_EQ(E.What, ResourceExhausted::Kind::Bytes);
    EXPECT_GE(E.BytesPeak, L.MaxBytes);
  }
  EXPECT_EQ(M.checkInvariants(), "");

  M.setResourceLimits({});
  Bdd R = randomDense(M, Rng, V, 40);
  EXPECT_FALSE(R.isFalse());
}

TEST(ResourceGovernor, DeadlineAbortsAcrossOperations) {
  constexpr unsigned V = 16;
  Manager M(V, 1 << 12);
  SplitMix64 Rng(4);
  Bdd F = randomDense(M, Rng, V, 200);
  Bdd G = randomDense(M, Rng, V, 200);

  // The budget starts counting at setResourceLimits(). The very first
  // operation may legitimately begin (and even finish) inside the
  // microsecond, but every operation boundary after that must observe
  // the expired deadline and refuse to start.
  ResourceLimits L;
  L.TimeLimitMicros = 1;
  M.setResourceLimits(L);
  try {
    Bdd Acc = F;
    for (int I = 0; I != 100; ++I)
      Acc = (Acc ^ G) | F;
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted &E) {
    EXPECT_EQ(E.What, ResourceExhausted::Kind::Deadline);
  }
  EXPECT_EQ(M.checkInvariants(), "");

  M.setResourceLimits({});
  Bdd R = F ^ G;
  EXPECT_FALSE(R.isFalse());
}

TEST(ResourceGovernor, CancellationTokenAborts) {
  constexpr unsigned V = 16;
  Manager M(V, 1 << 12);
  SplitMix64 Rng(5);
  Bdd F = randomDense(M, Rng, V, 200);
  Bdd G = randomDense(M, Rng, V, 200);

  std::atomic<bool> Cancel{false};
  ResourceLimits L;
  L.Cancel = &Cancel;
  M.setResourceLimits(L);

  // Unset token: operations run normally under the governor.
  Bdd Probe = F & G;
  (void)Probe;

  Cancel.store(true);
  try {
    (void)(F ^ G);
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted &E) {
    EXPECT_EQ(E.What, ResourceExhausted::Kind::Cancelled);
  }
  EXPECT_EQ(M.checkInvariants(), "");

  // Clearing the token is enough — the recovery already reset the
  // governor, no setResourceLimits() round-trip required.
  Cancel.store(false);
  Bdd R = F ^ G;
  EXPECT_FALSE(R.isFalse());
}

// The fault-injection differential of docs/robustness.md: a governed
// manager with deterministic fault injection must, after every injected
// abort, be equivalent to a manager that never faulted. Each aborted
// operation is retried with injection switched off and the result
// compared — over the whole run — against an injection-free twin and
// the ground-truth tables. run_sanitized_tests.sh loops this test under
// ASan and TSan via --gtest_repeat with JEDDPP_FAULT_INJECT set.
TEST(ResourceGovernor, FaultInjectionDifferential) {
  constexpr unsigned V = 10;
  const size_t N = size_t(1) << V;
  Manager Gov(V, 1 << 10);
  Manager Clean(V, 1 << 10);
  SplitMix64 Rng(7);

  struct Fun {
    Bdd G, C;
    std::vector<bool> T;
  };
  std::vector<Fun> Pool;
  for (unsigned Var = 0; Var != V; ++Var) {
    std::vector<bool> T(N);
    for (size_t I = 0; I != N; ++I)
      T[I] = (I >> Var) & 1;
    Pool.push_back({Gov.var(Var), Clean.var(Var), std::move(T)});
  }

  // Rolls happen per fresh allocation and per operation boundary, so a
  // 1-in-50 rate yields a healthy handful of injected aborts over the
  // run's few thousand allocations.
  Gov.setFaultInjection(/*Seed=*/1234, /*Rate=*/50);
  size_t Injected = 0;
  std::vector<bool> Assignment(V);
  for (int Step = 0; Step != 80; ++Step) {
    size_t AI = Rng.nextBelow(Pool.size());
    size_t BI = Rng.nextBelow(Pool.size());
    unsigned OpSel = static_cast<unsigned>(Rng.nextBelow(4));
    auto RunOp = [OpSel](const Bdd &X, const Bdd &Y) {
      switch (OpSel) {
      case 0:
        return X & Y;
      case 1:
        return X | Y;
      case 2:
        return X ^ Y;
      default:
        return X - Y;
      }
    };
    auto OpTable = [OpSel](bool X, bool Y) {
      switch (OpSel) {
      case 0:
        return X && Y;
      case 1:
        return X || Y;
      case 2:
        return X != Y;
      default:
        return X && !Y;
      }
    };

    Fun R;
    R.C = RunOp(Pool[AI].C, Pool[BI].C);
    R.T.resize(N);
    for (size_t I = 0; I != N; ++I)
      R.T[I] = OpTable(Pool[AI].T[I], Pool[BI].T[I]);

    try {
      R.G = RunOp(Pool[AI].G, Pool[BI].G);
    } catch (const ResourceExhausted &E) {
      ++Injected;
      EXPECT_TRUE(E.What == ResourceExhausted::Kind::FaultInjected ||
                  E.What == ResourceExhausted::Kind::AllocFailed)
          << resourceKindName(E.What);
      // The store and the operands must have survived the abort intact.
      ASSERT_EQ(Gov.checkInvariants(), "") << "step " << Step;
      ASSERT_EQ(tableOf(Gov, Pool[AI].G, V), Pool[AI].T) << "step " << Step;
      ASSERT_EQ(tableOf(Gov, Pool[BI].G, V), Pool[BI].T) << "step " << Step;
      // Retry with injection off: must succeed on the same manager.
      Gov.setFaultInjection(0, 0);
      R.G = RunOp(Pool[AI].G, Pool[BI].G);
      Gov.setFaultInjection(1234 + uint64_t(Step), 50);
    }

    // Differential check: governed == clean == ground truth everywhere.
    for (size_t I = 0; I != N; ++I) {
      for (unsigned Var = 0; Var != V; ++Var)
        Assignment[Var] = (I >> Var) & 1;
      ASSERT_EQ(Gov.evalAssignment(R.G, Assignment), R.T[I])
          << "step " << Step << " assignment " << I;
      ASSERT_EQ(Clean.evalAssignment(R.C, Assignment), R.T[I])
          << "step " << Step << " assignment " << I;
    }
    ASSERT_EQ(Gov.checkInvariants(), "") << "step " << Step;
    ASSERT_EQ(Clean.checkInvariants(), "") << "step " << Step;
    Pool.push_back(std::move(R));
  }

  // The seeds above are fixed, so this is deterministic: the run must
  // actually have exercised the abort/retry path.
  EXPECT_GT(Injected, size_t(0));
  EXPECT_GE(Gov.stats().ResourceAborts, Injected);
  EXPECT_GE(Gov.stats().ResourceRecoveries, Injected);
}

} // namespace
