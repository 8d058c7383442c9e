//===- obs_stress_test.cpp - Tracing under concurrency --------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
//
// Stress test (ctest label: stress) for the process-wide tracer under
// concurrent emitters: client threads, each owning its own manager, run
// apply/ite/exists streams while tracing buffers spans, a subscriber
// consumes every event synchronously, and one more thread toggles
// tracing on and off and reads the metrics snapshot. Each client tracks
// truth tables and verifies them afterwards, so instrumentation that
// perturbs an operation shows up as a wrong assignment, and a race on
// the tracer's shared totals, trace buffer or subscriber list as a TSan
// report via tools/run_sanitized_tests.sh.
//
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"

#include "bdd/Bdd.h"
#include "util/Json.h"
#include "util/Random.h"

#include <atomic>
#include <gtest/gtest.h>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

using namespace jedd;
using namespace jedd::bdd;

namespace {

struct LocalFun {
  Bdd F;
  std::vector<bool> Table;
};

/// One client thread's op stream with truth tables kept alongside (the
/// same oracle as bdd_differential_test).
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
    switch (Rng.nextBelow(3)) {
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
    default: {
      unsigned Var = static_cast<unsigned>(Rng.nextBelow(V));
      R.F = M.exists(A.F, M.cube({Var}));
      R.Table.resize(N);
      for (size_t K = 0; K != N; ++K)
        R.Table[K] = A.Table[K | (size_t(1) << Var)] ||
                     A.Table[K & ~(size_t(1) << Var)];
      break;
    }
    }
    if (Pool.size() < size_t(V) + 24)
      Pool.push_back(std::move(R));
    else
      Pool[V + Rng.nextBelow(24)] = std::move(R);
  }
  Out = std::move(Pool);
}

void verifyAll(Manager &M, unsigned V, const std::vector<LocalFun> &Funs) {
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

/// The tid of the spans this thread emitted (-1 before its first).
thread_local int64_t SeenTid = -1;

/// Counts every event synchronously on its emitting thread, and checks
/// that all of a thread's spans carry one tid.
struct CountingSubscriber : obs::SpanSubscriber {
  std::atomic<uint64_t> Spans{0};
  void onSpan(const obs::SpanEvent &Event) override {
    Spans.fetch_add(1, std::memory_order_relaxed);
    ASSERT_NE(Event.Name, nullptr);
    if (SeenTid < 0)
      SeenTid = Event.ThreadId;
    EXPECT_EQ(Event.ThreadId, SeenTid);
  }
};

TEST(ObsStress, TracingTogglesUnderConcurrentManagers) {
  obs::Tracer &T = obs::Tracer::instance();
  T.setTracing(false);
  T.clear();

  const unsigned V = 9;
  const unsigned Clients = 3;
  // Enough ops that the toggler races span emission for about a second
  // under ThreadSanitizer (about 0.1 s in the plain build).
  const unsigned OpsPerClient = 2500;
  std::vector<std::unique_ptr<Manager>> Managers;
  for (unsigned C = 0; C != Clients; ++C)
    Managers.push_back(std::make_unique<Manager>(V, 1 << 10));

  CountingSubscriber Sub;
  T.subscribe(&Sub);
  T.setTracing(true);

  std::vector<std::vector<LocalFun>> Results(Clients);
  std::vector<int64_t> ClientTids(Clients, -1);
  std::atomic<unsigned> Running{Clients};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back([&Managers, C, &Results, &ClientTids, &Running] {
      clientStream(*Managers[C], V, 0xD00D + C, OpsPerClient, Results[C]);
      ClientTids[C] = SeenTid;
      Running.fetch_sub(1);
    });
  // Tracing toggles while everyone emits, so the fast path flips between
  // the buffering, subscriber-only, and begin/finish states; snapshots of
  // the totals race the emitters too.
  std::atomic<unsigned> Snapshots{0};
  std::thread Toggler([&T, &Running, &Snapshots] {
    bool On = false;
    do {
      T.setTracing(On = !On);
      JsonValue Doc;
      std::string Error;
      EXPECT_TRUE(parseJson(T.metricsJson(), Doc, Error)) << Error;
      Snapshots.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    } while (Running.load() != 0);
    T.setTracing(true);
  });
  for (std::thread &Client : Threads)
    Client.join();
  Toggler.join();
  T.setTracing(false);
  T.unsubscribe(&Sub);

  // The computation survived being observed.
  for (unsigned C = 0; C != Clients; ++C)
    verifyAll(*Managers[C], V, Results[C]);

  // The subscriber saw every span, and the totals counted each of them
  // once, whatever the toggles and snapshots did.
  EXPECT_GT(Sub.Spans.load(), 0u);
  EXPECT_GT(Snapshots.load(), 0u);
  uint64_t Counted = 0;
  for (const auto &[Key, Totals] : T.totals())
    Counted += Totals.Count;
  EXPECT_EQ(Counted, Sub.Spans.load());

  // The clients share one buffer, yet each client's buffered spans carry
  // its own tid and come in its end order, however they interleave.
  std::set<int64_t> Tids(ClientTids.begin(), ClientTids.end());
  EXPECT_EQ(Tids.size(), Clients);
  EXPECT_EQ(Tids.count(-1), 0u);
  std::map<uint32_t, uint64_t> LastEnd;
  for (const obs::SpanEvent *E : T.spans()) {
    ASSERT_EQ(Tids.count(E->ThreadId), 1u) << "tid " << E->ThreadId;
    uint64_t End = E->StartMicros + E->DurMicros;
    uint64_t &Last = LastEnd[E->ThreadId];
    EXPECT_GE(End, Last) << "tid " << E->ThreadId;
    Last = End;
  }
  EXPECT_FALSE(LastEnd.empty());

  // Whatever subset got buffered forms a parseable Chrome trace.
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(T.chromeTraceJson(), Doc, Error)) << Error;
  const JsonValue *Events = Doc.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  EXPECT_EQ(Events->Arr.size(), T.spanCount());
  T.clear();
}

} // namespace
