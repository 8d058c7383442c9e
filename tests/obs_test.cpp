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
/// structure (span nesting, per-site totals, aggregate invariants) is
/// asserted. Also checks that tracing changes no analysis result, and
/// that the metrics stay exact past the trace buffer's capacity.
///
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"

#include "rel/Relation.h"
#include "util/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
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

/// The metrics row of (\p Cat, \p Op, \p Site), or nullptr.
const JsonValue *findRow(const JsonValue &Doc, const std::string &Cat,
                         const std::string &Op, const std::string &Site) {
  for (const JsonValue &Row : Doc.get("spans")->Arr)
    if (Row.get("cat")->Str == Cat && Row.get("op")->Str == Op &&
        Row.get("site")->Str == Site)
      return &Row;
  return nullptr;
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
  runWorkload();
  T.setTracing(false);

  JsonValue Doc = parseOrDie(T.metricsJson("obs_test"));
  ASSERT_TRUE(Doc.isObject());
  EXPECT_EQ(Doc.get("version")->Num, 2.0);
  EXPECT_EQ(Doc.get("name")->Str, "obs_test");
  EXPECT_EQ(Doc.get("spans_dropped")->Num, 0.0);

  // Each row is one (cat, op, site), and its count and argument totals
  // match the buffered spans of that key exactly.
  struct Expected {
    double Count = 0;
    std::map<std::string, std::pair<double, double>> Args; // Sum, max.
  };
  std::map<std::string, Expected> Buffered;
  for (const obs::SpanEvent *E : T.spans()) {
    Expected &X = Buffered[std::string(obs::catName(E->Category)) + "." +
                           E->Name + "@" + E->SiteLabel];
    ++X.Count;
    for (uint8_t A = 0; A != E->NumArgs; ++A) {
      auto &[Sum, Max] = X.Args[E->Args[A].Key];
      Sum += static_cast<double>(E->Args[A].Value);
      Max = std::max(Max, static_cast<double>(E->Args[A].Value));
    }
  }
  const JsonValue *Rows = Doc.get("spans");
  ASSERT_TRUE(Rows && Rows->isArray());
  ASSERT_EQ(Rows->Arr.size(), Buffered.size());
  for (const JsonValue &Row : Rows->Arr) {
    std::string Key = Row.get("cat")->Str + "." + Row.get("op")->Str + "@" +
                      Row.get("site")->Str;
    ASSERT_EQ(Buffered.count(Key), 1u) << Key;
    const Expected &X = Buffered[Key];
    EXPECT_EQ(Row.get("count")->Num, X.Count) << Key;
    EXPECT_GE(Row.get("total_micros")->Num, Row.get("max_micros")->Num);
    const JsonValue *Args = Row.get("args");
    ASSERT_EQ(Args->Obj.size(), X.Args.size()) << Key;
    for (const auto &[Arg, Totals] : Args->Obj) {
      ASSERT_EQ(X.Args.count(Arg), 1u) << Key << " " << Arg;
      EXPECT_EQ(Totals.get("sum")->Num, X.Args.at(Arg).first) << Arg;
      EXPECT_EQ(Totals.get("max")->Num, X.Args.at(Arg).second) << Arg;
    }
  }

  // The compose at the workload's site has a row of its own, tied to
  // its source line, with the nodes its executions created.
  const JsonValue *Compose = findRow(Doc, "rel", "compose", "obs-test:step");
  ASSERT_NE(Compose, nullptr);
  EXPECT_GE(Compose->get("count")->Num, 1.0);
  EXPECT_NE(Compose->get("site_loc")->Str.find("obs_test.cpp:"),
            std::string::npos);
  EXPECT_NE(Compose->get("args")->get("nodes_created"), nullptr);
}

TEST_F(ObsTest, MetricsStayExactPastTheTraceBufferCap) {
  // One span more than the trace buffer holds.
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
    const JsonValue *Tick = findRow(Doc, "io", "tick", "");
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
  EXPECT_EQ(Doc.get("spans_dropped")->Num, 0.0);
  EXPECT_EQ(T.spanCount(), 0u);

  // Buffering: the buffer keeps the first Cap spans and counts the rest
  // as dropped, and the totals still count every span.
  T.clear();
  T.setTracing(true);
  RecordAll();
  Doc = parseOrDie(T.metricsJson());
  ExpectExactTotals(Doc);
  EXPECT_EQ(T.spanCount(), Cap);
  EXPECT_EQ(Doc.get("spans_dropped")->Num,
            static_cast<double>(Spans - Cap));

  // clear() resets the dropped count with the buffer.
  T.clear();
  EXPECT_EQ(parseOrDie(T.metricsJson()).get("spans_dropped")->Num, 0.0);
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
  runWorkload();
  T.setTracing(false);
  EXPECT_GT(T.spanCount(), 0u);
  EXPECT_FALSE(T.totals().empty());
  T.clear();
  EXPECT_EQ(T.spanCount(), 0u);
  EXPECT_TRUE(T.totals().empty());
  JsonValue Doc = parseOrDie(T.metricsJson());
  EXPECT_TRUE(Doc.get("spans")->Arr.empty());
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
  // Several hundred spans, then a clear that frees the buffer: spans()
  // must return exactly the spans recorded after it.
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

TEST_F(ObsTest, SpanPointersSurviveLaterRecords) {
  obs::Tracer &T = obs::Tracer::instance();
  T.setLevel(obs::Level::Trace);
  auto Record = [&](uint64_t I) {
    obs::SpanEvent E;
    E.Name = "tick";
    E.Category = obs::Cat::Io;
    E.StartMicros = I;
    E.SiteLabel = "a label too long for the small-string buffer #" +
                  std::to_string(I);
    T.record(std::move(E));
  };
  for (uint64_t I = 0; I != 100; ++I)
    Record(I);
  std::vector<const obs::SpanEvent *> Early = T.spans();
  ASSERT_EQ(Early.size(), 100u);

  // The buffer grows under the pointers already handed out; they must
  // still read the same events, in place.
  for (uint64_t I = 100; I != 10100; ++I)
    Record(I);
  std::vector<const obs::SpanEvent *> All = T.spans();
  ASSERT_EQ(All.size(), 10100u);
  for (uint64_t I = 0; I != Early.size(); ++I) {
    EXPECT_EQ(Early[I], All[I]);
    EXPECT_EQ(Early[I]->StartMicros, I);
    EXPECT_EQ(Early[I]->SiteLabel,
              "a label too long for the small-string buffer #" +
                  std::to_string(I));
  }
}

} // namespace
