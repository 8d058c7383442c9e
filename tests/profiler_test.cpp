//===- profiler_test.cpp - Tests for the operation profiler ---------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
//
// The profiler is a consumer of the observability event stream, so these
// tests feed it synthetic relational spans through the process-wide
// obs::Tracer rather than calling a recording API directly.
//
//===----------------------------------------------------------------------===//

#include "profiler/Profiler.h"

#include "bdd/Bdd.h"
#include "util/File.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace jedd;
using namespace jedd::prof;

namespace {

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

TEST(Profiler, SummarizesByKindAndSite) {
  Profiler P;
  P.attach();
  emitSpan("join", "a", 10, 5);
  emitSpan("join", "a", 30, 9);
  emitSpan("join", "b", 5, 2);
  emitSpan("replace", "a", 100, 1);
  P.detach();

  auto Summary = P.summarize();
  ASSERT_EQ(Summary.size(), 3u);
  // Sorted by total time descending: replace@a (100), join@a (40),
  // join@b (5).
  EXPECT_EQ(Summary[0].OpKind, "replace");
  EXPECT_EQ(Summary[0].TotalMicros, 100u);
  EXPECT_EQ(Summary[1].OpKind, "join");
  EXPECT_EQ(Summary[1].Site.Label, "a");
  EXPECT_EQ(Summary[1].Count, 2u);
  EXPECT_EQ(Summary[1].TotalMicros, 40u);
  EXPECT_EQ(Summary[1].MaxResultNodes, 9u);
  EXPECT_EQ(Summary[2].Site.Label, "b");
}

TEST(Profiler, DeterministicTieBreak) {
  Profiler P;
  P.attach();
  emitSpan("a-op", "z", 10, 1);
  emitSpan("b-op", "y", 10, 1);
  P.detach();
  auto Summary = P.summarize();
  ASSERT_EQ(Summary.size(), 2u);
  EXPECT_EQ(Summary[0].OpKind, "a-op"); // Lexicographic on ties.
}

TEST(Profiler, IgnoresNonRelationalSpans) {
  Profiler P;
  P.attach();
  obs::SpanEvent E;
  E.Name = "collect";
  E.Category = obs::Cat::Gc;
  E.DurMicros = 10;
  obs::Tracer::instance().record(std::move(E));
  P.detach();
  EXPECT_TRUE(P.records().empty());
}

TEST(Profiler, DetachStopsRecording) {
  Profiler P;
  P.attach();
  emitSpan("join", "a", 1, 1);
  P.detach();
  emitSpan("join", "b", 1, 1);
  ASSERT_EQ(P.records().size(), 1u);
  EXPECT_EQ(P.records()[0].Site.Label, "a");
}

TEST(Profiler, RecordCarriesOperandAndSiteDetail) {
  Profiler P;
  P.attach();
  emitSpan("compose", "pt:copy", 42, 17);
  P.detach();
  ASSERT_EQ(P.records().size(), 1u);
  const OpRecord &R = P.records()[0];
  EXPECT_EQ(R.OpKind, "compose");
  EXPECT_EQ(R.Site.Label, "pt:copy");
  EXPECT_EQ(R.Site.File, "demo.jedd");
  EXPECT_EQ(R.Site.Line, 42u);
  EXPECT_EQ(R.Micros, 42u);
  EXPECT_EQ(R.LeftNodes, 4u);
  EXPECT_EQ(R.RightNodes, 0u);
  EXPECT_EQ(R.ResultNodes, 17u);
  EXPECT_EQ(R.ResultTuples, 34.0);
}

TEST(Profiler, RendersResourceSection) {
  bdd::ManagerStats S;
  S.LimitMaxNodes = 5000;
  S.NodesPeak = 4800;
  S.BytesPeak = 123456;
  S.ResourceAborts = 1;
  S.ResourceRecoveries = 1;
  S.ResourceEscalations = 2;
  Profiler P;
  P.observe(S);
  std::string Html = P.renderHtml();
  EXPECT_NE(Html.find("<h2>Resource governance</h2><p>ceilings: max-nodes "
                      "5000 &middot; peak 4800 nodes / 123456 bytes "
                      "&middot; 1 aborted operations, 1 recoveries, 2 "
                      "pressure escalations</p>"),
            std::string::npos);
}

TEST(Profiler, HtmlContainsAllThreeViews) {
  Profiler P;
  P.attach();
  emitSpan("compose", "pt:copy", 42, 17);
  P.detach();
  std::string Html = P.renderHtml();
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

TEST(Profiler, HtmlEscapesSiteLabels) {
  Profiler P;
  P.attach();
  emitSpan("join", "<script>alert(1)</script>", 1, 1);
  P.detach();
  std::string Html = P.renderHtml();
  EXPECT_EQ(Html.find("<script>alert"), std::string::npos);
  EXPECT_NE(Html.find("&lt;script&gt;"), std::string::npos);
}

TEST(Profiler, WritesReportToDisk) {
  Profiler P;
  P.attach();
  emitSpan("union", "x", 7, 3);
  P.detach();
  std::string Path = ::testing::TempDir() + "/jeddpp_profile_test.html";
  ASSERT_TRUE(P.writeHtml(Path));
  std::string Text;
  ASSERT_TRUE(readFileToString(Path, Text));
  EXPECT_EQ(Text, P.renderHtml());
  std::remove(Path.c_str());
}

TEST(Profiler, ClearResets) {
  Profiler P;
  P.attach();
  emitSpan("join", "a", 1, 1);
  P.detach();
  EXPECT_EQ(P.records().size(), 1u);
  P.clear();
  EXPECT_TRUE(P.records().empty());
  EXPECT_TRUE(P.summarize().empty());
}

TEST(Profiler, EmptyProfileRendersCleanly) {
  Profiler P;
  std::string Html = P.renderHtml();
  EXPECT_NE(Html.find("Jedd operation profile"), std::string::npos);
}

} // namespace
