//===- obs_test.cpp - Tests for the observability layer -------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Round-trip tests for both observability sinks (docs/observability.md):
/// a real relational workload runs with tracing on, the Chrome-trace and
/// metrics JSON documents are parsed back with util/Json, and their
/// structure (span nesting, counter values, aggregate invariants) is
/// asserted. Also checks that tracing changes no analysis result, and
/// that the metrics stay exact past the trace buffers' capacity.
///
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"

#include "rel/Relation.h"
#include "util/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

using namespace jedd;
using namespace jedd::rel;

namespace {

/// Every test runs against the process-wide tracer; start from a clean
/// slate and always leave tracing off for the other suites.
class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::Tracer::instance().setTracing(false);
    obs::Tracer::instance().clear();
  }
  void TearDown() override {
    obs::Tracer::instance().setTracing(false);
    obs::Tracer::instance().clear();
  }
};

/// A small transitive-closure workload over a fresh universe; returns
/// the final relation's printable contents so runs can be compared.
std::string runWorkload() {
  Universe U;
  DomainId Node = U.addDomain("Node", 32);
  AttributeId Src = U.addAttribute("src", Node);
  AttributeId Dst = U.addAttribute("dst", Node);
  AttributeId Mid = U.addAttribute("mid", Node);
  PhysDomId P0 = U.addPhysicalDomain("P0");
  PhysDomId P1 = U.addPhysicalDomain("P1");
  U.addPhysicalDomain("P2"); // Scratch for alignment replaces.
  U.finalize();

  Relation Edges = U.empty({{Src, P0}, {Dst, P1}});
  for (uint64_t I = 0; I != 30; ++I)
    Edges.insert({I, (I * 7 + 3) % 32});
  Relation Closure = Edges;
  while (true) {
    Relation Step =
        Closure.compose(Edges.rename(Src, Mid), {Dst}, {Mid},
                        JEDD_SITE("obs-test:step"));
    Relation Next = Closure | Step;
    if (Next == Closure)
      break;
    Closure = Next;
  }
  Relation Projected = Closure.project({Dst}, JEDD_SITE("obs-test:proj"));
  return Closure.toString() + Projected.toString();
}

JsonValue parseOrDie(const std::string &Text) {
  JsonValue Doc;
  std::string Error;
  EXPECT_TRUE(parseJson(Text, Doc, Error)) << Error;
  return Doc;
}

TEST_F(ObsTest, DisabledTracingIsInvisibleAndByteIdentical) {
  std::string Plain = runWorkload();
  EXPECT_EQ(obs::Tracer::instance().spanCount(), 0u);

  obs::Tracer::instance().setTracing(true);
  std::string Traced = runWorkload();
  obs::Tracer::instance().setTracing(false);

  // Observation must not perturb the computation.
  EXPECT_EQ(Plain, Traced);
  EXPECT_GT(obs::Tracer::instance().spanCount(), 0u);
}

TEST_F(ObsTest, ChromeTraceRoundTripsWithMonotonicNesting) {
  obs::Tracer &T = obs::Tracer::instance();
  T.setTracing(true);
  runWorkload();
  T.setTracing(false);

  JsonValue Doc = parseOrDie(T.chromeTraceJson());
  ASSERT_TRUE(Doc.isObject());
  const JsonValue *Events = Doc.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  ASSERT_EQ(Events->Arr.size(), T.spanCount());

  // Spans on one thread must nest: sorted by start (ties broken longest
  // first), each span either contains or is disjoint from the next.
  std::map<double, std::vector<std::pair<double, double>>> ByTid;
  bool SawSite = false, SawComposeKind = false;
  for (const JsonValue &E : Events->Arr) {
    ASSERT_TRUE(E.isObject());
    ASSERT_NE(E.get("name"), nullptr);
    ASSERT_NE(E.get("cat"), nullptr);
    ASSERT_TRUE(E.get("ph")->isString());
    EXPECT_EQ(E.get("ph")->Str, "X");
    ASSERT_TRUE(E.get("ts")->isNumber());
    ASSERT_TRUE(E.get("dur")->isNumber());
    ASSERT_TRUE(E.get("tid")->isNumber());
    ByTid[E.get("tid")->Num].push_back(
        {E.get("ts")->Num, E.get("ts")->Num + E.get("dur")->Num});
    const JsonValue *Args = E.get("args");
    if (E.get("cat")->Str == "rel") {
      ASSERT_NE(Args, nullptr);
      const JsonValue *Site = Args->get("site");
      if (Site && Site->Str == "obs-test:step") {
        SawSite = true;
        // The site tags the compose plus the alignment replaces it
        // implies — the attribution the paper's profiler wants.
        EXPECT_TRUE(E.get("name")->Str == "compose" ||
                    E.get("name")->Str == "replace")
            << E.get("name")->Str;
        SawComposeKind |= E.get("name")->Str == "compose";
        const JsonValue *Loc = Args->get("site_loc");
        ASSERT_NE(Loc, nullptr);
        EXPECT_NE(Loc->Str.find("obs_test.cpp:"), std::string::npos);
        EXPECT_NE(Args->get("result_nodes"), nullptr);
      }
    }
  }
  EXPECT_TRUE(SawSite);
  EXPECT_TRUE(SawComposeKind);
  for (auto &[Tid, Spans] : ByTid) {
    std::sort(Spans.begin(), Spans.end(),
              [](const auto &A, const auto &B) {
                return A.first != B.first ? A.first < B.first
                                          : A.second > B.second;
              });
    std::vector<double> Stack;
    for (const auto &[Start, End] : Spans) {
      while (!Stack.empty() && Start >= Stack.back())
        Stack.pop_back();
      if (!Stack.empty()) {
        EXPECT_LE(End, Stack.back())
            << "span on tid " << Tid << " escapes its enclosing span";
      }
      Stack.push_back(End);
    }
  }
}

TEST_F(ObsTest, MetricsRoundTripWithExactCounterValues) {
  obs::Tracer &T = obs::Tracer::instance();
  T.setTracing(true);
  T.counterAdd("obs_test.marker", 3);
  T.counterAdd("obs_test.marker", 4);
  T.histRecord("obs_test.sizes", 0);
  T.histRecord("obs_test.sizes", 1);
  T.histRecord("obs_test.sizes", 900);
  runWorkload();
  T.setTracing(false);

  JsonValue Doc = parseOrDie(T.metricsJson("obs_test"));
  ASSERT_TRUE(Doc.isObject());
  EXPECT_EQ(Doc.get("version")->Num, 1.0);
  EXPECT_EQ(Doc.get("name")->Str, "obs_test");

  const JsonValue *Counter = Doc.get("counters")->get("obs_test.marker");
  ASSERT_NE(Counter, nullptr);
  EXPECT_EQ(Counter->Num, 7.0);

  const JsonValue *Hist = Doc.get("histograms")->get("obs_test.sizes");
  ASSERT_NE(Hist, nullptr);
  EXPECT_EQ(Hist->get("count")->Num, 3.0);
  EXPECT_EQ(Hist->get("sum")->Num, 901.0);
  EXPECT_EQ(Hist->get("min")->Num, 0.0);
  EXPECT_EQ(Hist->get("max")->Num, 900.0);
  // Log2 buckets: 0 -> bucket 0, 1 -> bucket 1, 900 -> bucket 10.
  EXPECT_EQ(Hist->get("buckets")->get("0")->Num, 1.0);
  EXPECT_EQ(Hist->get("buckets")->get("1")->Num, 1.0);
  EXPECT_EQ(Hist->get("buckets")->get("10")->Num, 1.0);

  // The workload's relational ops aggregate under rel.<kind>, and the
  // span count matches the buffered spans of that kind exactly.
  const JsonValue *Spans = Doc.get("spans");
  ASSERT_NE(Spans, nullptr);
  const JsonValue *Compose = Spans->get("rel.compose");
  ASSERT_NE(Compose, nullptr);
  EXPECT_GE(Compose->get("count")->Num, 1.0);
  EXPECT_GE(Compose->get("total_micros")->Num,
            Compose->get("max_micros")->Num);
}

TEST_F(ObsTest, MetricsStayExactPastTheTraceBufferCap) {
  // One span more than a thread's trace buffer holds (4096 chunks of 256
  // spans), all recorded on this thread.
  const uint64_t Cap = uint64_t(1) << 20, Spans = Cap + 1;
  obs::Tracer &T = obs::Tracer::instance();
  uint64_t Micros = 0;
  auto RecordAll = [&] {
    Micros = 0;
    for (uint64_t I = 0; I != Spans; ++I) {
      obs::SpanEvent E;
      E.Name = "tick";
      E.Category = obs::Cat::Io;
      E.DurMicros = I % 3;
      Micros += E.DurMicros;
      T.record(std::move(E));
    }
  };
  auto ExpectExactTotals = [&](const JsonValue &Doc) {
    const JsonValue *Tick = Doc.get("spans")->get("io.tick");
    ASSERT_NE(Tick, nullptr);
    EXPECT_EQ(Tick->get("count")->Num, static_cast<double>(Spans));
    EXPECT_EQ(Tick->get("total_micros")->Num, static_cast<double>(Micros));
    EXPECT_EQ(Tick->get("max_micros")->Num, 2.0);
  };

  // Totals only: nothing is buffered, so nothing is dropped.
  T.setLevel(obs::Level::Metrics);
  RecordAll();
  JsonValue Doc = parseOrDie(T.metricsJson());
  ExpectExactTotals(Doc);
  EXPECT_EQ(Doc.get("counters")->get("obs.spans_dropped"), nullptr);
  EXPECT_EQ(T.spanCount(), 0u);

  // Buffering: the buffer keeps the first Cap spans and counts the rest
  // as dropped, and the totals still count every span.
  T.clear();
  T.setTracing(true);
  RecordAll();
  Doc = parseOrDie(T.metricsJson());
  ExpectExactTotals(Doc);
  EXPECT_EQ(T.spanCount(), Cap);
  const JsonValue *Dropped = Doc.get("counters")->get("obs.spans_dropped");
  ASSERT_NE(Dropped, nullptr);
  EXPECT_EQ(Dropped->Num, static_cast<double>(Spans - Cap));
}

TEST_F(ObsTest, SubscriberSeesSpansWithoutTracing) {
  struct Counting : obs::SpanSubscriber {
    std::map<std::string, unsigned> Kinds;
    void onSpan(const obs::SpanEvent &E) override {
      if (E.Category == obs::Cat::Rel)
        ++Kinds[E.Name];
    }
  } Sub;

  obs::Tracer &T = obs::Tracer::instance();
  T.subscribe(&Sub);
  runWorkload();
  T.unsubscribe(&Sub);

  // Spans fanned out to the subscriber but nothing was buffered.
  EXPECT_GE(Sub.Kinds["compose"], 1u);
  EXPECT_GE(Sub.Kinds["union"], 1u);
  EXPECT_GE(Sub.Kinds["project"], 1u);
  EXPECT_EQ(T.spanCount(), 0u);

  // And after unsubscribe the fast path is fully off again.
  runWorkload();
  EXPECT_GE(Sub.Kinds["compose"], 1u);
  EXPECT_EQ(T.spanCount(), 0u);
}

TEST_F(ObsTest, ClearDropsSpansAndAggregates) {
  obs::Tracer &T = obs::Tracer::instance();
  T.setTracing(true);
  T.counterAdd("obs_test.marker");
  runWorkload();
  T.setTracing(false);
  EXPECT_GT(T.spanCount(), 0u);
  T.clear();
  EXPECT_EQ(T.spanCount(), 0u);
  JsonValue Doc = parseOrDie(T.metricsJson());
  EXPECT_EQ(Doc.get("counters")->get("obs_test.marker"), nullptr);
  EXPECT_TRUE(Doc.get("spans")->Obj.empty());
}

TEST_F(ObsTest, ClearFreesTheTraceBuffer) {
  obs::Tracer &T = obs::Tracer::instance();
  T.setLevel(obs::Level::Trace);
  auto Record = [&](const char *Name) {
    obs::SpanEvent E;
    E.Name = Name;
    E.Category = obs::Cat::Io;
    T.record(std::move(E));
  };
  // More than one 256-span chunk, then a clear that frees them all: the
  // next spans must land in freshly allocated chunks, and spans() must
  // return exactly them.
  for (int I = 0; I != 600; ++I)
    Record("old");
  ASSERT_EQ(T.spanCount(), 600u);
  T.clear();
  for (const char *Name : {"first", "second", "third"})
    Record(Name);
  std::vector<std::string> Names;
  for (const obs::SpanEvent *E : T.spans())
    Names.push_back(E->Name);
  EXPECT_EQ(Names, (std::vector<std::string>{"first", "second", "third"}));
}

} // namespace
