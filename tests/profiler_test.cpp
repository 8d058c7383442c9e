//===- profiler_test.cpp - Tests for the operation profiler ---------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
//
// The profiler is a view over the observability layer, so these tests
// feed synthetic relational spans into the process-wide obs::Tracer and
// render what it holds.
//
//===----------------------------------------------------------------------===//

#include "profiler/Profiler.h"

#include "bdd/Bdd.h"
#include "util/File.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace jedd;

namespace {

/// Every test starts from an empty tracer that buffers spans, as
/// `jeddanalyze --profile` runs, and leaves it off for the other suites.
class Profiler : public ::testing::Test {
protected:
  void SetUp() override {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().setTracing(true);
  }
  void TearDown() override {
    obs::Tracer::instance().setTracing(false);
    obs::Tracer::instance().clear();
  }
};

/// Emits one finished relational span into the tracer, as the relational
/// layer would after an operation at the given site.
void emitSpan(const char *Kind, const char *Site, uint64_t Micros,
              size_t ResultNodes) {
  obs::SpanEvent E;
  E.Name = Kind;
  E.Category = obs::Cat::Rel;
  E.SiteLabel = Site;
  E.SiteFile = "demo.jedd";
  E.SiteLine = 42;
  E.StartMicros = 0;
  E.DurMicros = Micros;
  E.Args[0] = {"left_nodes", 4};
  E.Args[1] = {"result_nodes", ResultNodes};
  E.NumArgs = 2;
  E.ResultTuples = static_cast<double>(ResultNodes) * 2;
  E.ResultShape = {1, 2, ResultNodes > 3 ? ResultNodes - 3 : 0};
  obs::Tracer::instance().record(std::move(E));
}

TEST_F(Profiler, SummarizesByKindAndSite) {
  emitSpan("join", "a", 10, 5);
  emitSpan("join", "a", 30, 9);
  emitSpan("join", "b", 5, 2);
  emitSpan("replace", "a", 100, 1);

  auto Summary = prof::Profiler().summarize();
  ASSERT_EQ(Summary.size(), 3u);
  // Sorted by total time descending: replace@a (100), join@a (40),
  // join@b (5).
  EXPECT_STREQ(Summary[0].Op.Name, "replace");
  EXPECT_EQ(Summary[0].Totals.TotalMicros, 100u);
  EXPECT_STREQ(Summary[1].Op.Name, "join");
  EXPECT_EQ(Summary[1].Op.SiteLabel, "a");
  EXPECT_EQ(Summary[1].Totals.Count, 2u);
  EXPECT_EQ(Summary[1].Totals.TotalMicros, 40u);
  EXPECT_EQ(Summary[1].Totals.arg("result_nodes").Max, 9u);
  EXPECT_EQ(Summary[2].Op.SiteLabel, "b");
}

TEST_F(Profiler, DeterministicTieBreak) {
  emitSpan("b-op", "y", 10, 1);
  emitSpan("a-op", "z", 10, 1);
  auto Summary = prof::Profiler().summarize();
  ASSERT_EQ(Summary.size(), 2u);
  EXPECT_STREQ(Summary[0].Op.Name, "a-op"); // Lexicographic on ties.
}

TEST_F(Profiler, IgnoresNonRelationalSpans) {
  obs::SpanEvent E;
  E.Name = "collect";
  E.Category = obs::Cat::Gc;
  E.DurMicros = 10;
  obs::Tracer::instance().record(std::move(E));
  prof::Profiler P;
  EXPECT_TRUE(P.summarize().empty());
  EXPECT_EQ(P.renderHtml().find("collect"), std::string::npos);
}

TEST_F(Profiler, RecordCarriesOperandAndSiteDetail) {
  emitSpan("compose", "pt:copy", 42, 17);
  prof::Profiler P;
  auto Summary = P.summarize();
  ASSERT_EQ(Summary.size(), 1u);
  EXPECT_STREQ(Summary[0].Op.Name, "compose");
  EXPECT_EQ(Summary[0].Op.SiteLabel, "pt:copy");
  EXPECT_EQ(Summary[0].Op.SiteFile, "demo.jedd");
  EXPECT_EQ(Summary[0].Op.SiteLine, 42u);
  EXPECT_EQ(Summary[0].Totals.MaxMicros, 42u);
  // The execution row: time, left / right operand nodes, result nodes
  // and result tuples of the buffered span.
  EXPECT_NE(P.renderHtml().find("<td>42</td><td>4 / 0</td><td>17</td>"
                                "<td>34</td>"),
            std::string::npos);
}

TEST_F(Profiler, SummaryNeedsNoBuffering) {
  obs::Tracer::instance().setLevel(obs::Level::Metrics);
  emitSpan("join", "a", 10, 5);
  emitSpan("join", "a", 30, 9);
  prof::Profiler P;
  auto Summary = P.summarize();
  ASSERT_EQ(Summary.size(), 1u);
  EXPECT_EQ(Summary[0].Totals.Count, 2u);
  // Without buffered spans the report has no execution rows.
  EXPECT_EQ(P.renderHtml().find("<td>0</td><td class=\"l\">join"),
            std::string::npos);
}

TEST_F(Profiler, RendersResourceSection) {
  bdd::ManagerStats S;
  S.LimitMaxNodes = 5000;
  S.NodesPeak = 4800;
  S.BytesPeak = 123456;
  S.ResourceAborts = 1;
  S.ResourceRecoveries = 1;
  S.ResourceEscalations = 2;
  prof::Profiler P;
  P.observe(S);
  std::string Html = P.renderHtml();
  EXPECT_NE(Html.find("<h2>Resource governance</h2><p>ceilings: max-nodes "
                      "5000 &middot; peak 4800 nodes / 123456 bytes "
                      "&middot; 1 aborted operations, 1 recoveries, 2 "
                      "pressure escalations</p>"),
            std::string::npos);
}

TEST_F(Profiler, HtmlContainsAllThreeViews) {
  emitSpan("compose", "pt:copy", 42, 17);
  std::string Html = prof::Profiler().renderHtml();
  // Overall view, detail view, shape charts (Section 4.3).
  EXPECT_NE(Html.find("Summary by operation"), std::string::npos);
  EXPECT_NE(Html.find("Individual executions"), std::string::npos);
  EXPECT_NE(Html.find("Shapes of the largest results"), std::string::npos);
  EXPECT_NE(Html.find("compose"), std::string::npos);
  EXPECT_NE(Html.find("pt:copy"), std::string::npos);
  // Sites link back to file:line.
  EXPECT_NE(Html.find("demo.jedd:42"), std::string::npos);
  EXPECT_NE(Html.find("<svg"), std::string::npos);
}

TEST_F(Profiler, HtmlEscapesSiteLabels) {
  emitSpan("join", "<script>alert(1)</script>", 1, 1);
  std::string Html = prof::Profiler().renderHtml();
  EXPECT_EQ(Html.find("<script>alert"), std::string::npos);
  EXPECT_NE(Html.find("&lt;script&gt;"), std::string::npos);
}

TEST_F(Profiler, WritesReportToDisk) {
  emitSpan("union", "x", 7, 3);
  prof::Profiler P;
  std::string Path = ::testing::TempDir() + "/jeddpp_profile_test.html";
  ASSERT_TRUE(P.writeHtml(Path));
  std::string Text;
  ASSERT_TRUE(readFileToString(Path, Text));
  EXPECT_EQ(Text, P.renderHtml());
  std::remove(Path.c_str());
}

TEST_F(Profiler, ClearResets) {
  emitSpan("join", "a", 1, 1);
  prof::Profiler P;
  EXPECT_EQ(P.summarize().size(), 1u);
  obs::Tracer::instance().clear();
  EXPECT_TRUE(P.summarize().empty());
  EXPECT_EQ(P.renderHtml().find("join"), std::string::npos);
  // The profile shows exactly the spans recorded since the last clear.
  emitSpan("join", "b", 1, 1);
  auto Summary = P.summarize();
  ASSERT_EQ(Summary.size(), 1u);
  EXPECT_EQ(Summary[0].Op.SiteLabel, "b");
}

TEST_F(Profiler, EmptyProfileRendersCleanly) {
  std::string Html = prof::Profiler().renderHtml();
  EXPECT_NE(Html.find("Jedd operation profile"), std::string::npos);
}

} // namespace
