//===- Profiler.cpp - BDD operation profiler ------------------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "profiler/Profiler.h"
#include "bdd/Bdd.h"
#include "util/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace jedd;
using namespace jedd::prof;

void Profiler::onSpan(const obs::SpanEvent &Event) {
  // The profiler models the relational layer (Section 4.3); kernel, GC,
  // reorder and SAT spans belong to the trace/metrics sinks.
  if (Event.Category != obs::Cat::Rel)
    return;
  OpRecord R;
  R.OpKind = Event.Name;
  R.Site = {Event.SiteLabel, Event.SiteFile, Event.SiteLine};
  R.Micros = Event.DurMicros;
  R.LeftNodes = static_cast<size_t>(Event.argOr("left_nodes"));
  R.RightNodes = static_cast<size_t>(Event.argOr("right_nodes"));
  R.ResultNodes = static_cast<size_t>(Event.argOr("result_nodes"));
  R.ResultTuples = Event.ResultTuples < 0 ? 0.0 : Event.ResultTuples;
  R.ResultShape = Event.ResultShape;
  std::lock_guard<std::mutex> G(Lock);
  Records.push_back(std::move(R));
}

void Profiler::observe(const bdd::ManagerStats &S) {
  std::lock_guard<std::mutex> G(Lock);
  Stats = S;
}

void Profiler::clear() {
  std::lock_guard<std::mutex> G(Lock);
  Records.clear();
  Stats = bdd::ManagerStats();
}

std::vector<OpSummary> Profiler::summarize() const {
  std::lock_guard<std::mutex> G(Lock);
  std::map<std::pair<std::string, OpSite>, OpSummary> ByKey;
  for (const OpRecord &R : Records) {
    OpSummary &S = ByKey[{R.OpKind, R.Site}];
    S.OpKind = R.OpKind;
    S.Site = R.Site;
    ++S.Count;
    S.TotalMicros += R.Micros;
    S.MaxResultNodes = std::max(S.MaxResultNodes, R.ResultNodes);
  }
  std::vector<OpSummary> Result;
  Result.reserve(ByKey.size());
  for (auto &[Key, S] : ByKey)
    Result.push_back(std::move(S));
  std::sort(Result.begin(), Result.end(),
            [](const OpSummary &A, const OpSummary &B) {
              if (A.TotalMicros != B.TotalMicros)
                return A.TotalMicros > B.TotalMicros;
              return std::tie(A.OpKind, A.Site) < std::tie(B.OpKind, B.Site);
            });
  return Result;
}

/// Renders a site cell: the label, plus a file:line link when the site
/// carries a source location (the paper's profiler links every summary
/// row back to the Jedd source line).
static std::string renderSiteCell(const OpSite &Site) {
  std::string Cell = escapeHtml(Site.Label);
  if (!Site.File.empty()) {
    std::string Loc = strFormat("%s:%u", Site.File.c_str(), Site.Line);
    if (!Cell.empty())
      Cell += " ";
    Cell += strFormat("<small><a href=\"%s\">%s</a></small>",
                      escapeHtml(Site.File).c_str(),
                      escapeHtml(Loc).c_str());
  }
  return Cell;
}

/// Renders one BDD shape (nodes per level) as a small inline SVG bar
/// chart, mirroring the graphical views of Section 4.3.
static std::string renderShapeSvg(const std::vector<size_t> &Shape) {
  if (Shape.empty())
    return "<i>empty</i>";
  size_t MaxCount = 1;
  for (size_t C : Shape)
    MaxCount = std::max(MaxCount, C);
  const int BarHeight = 4, Width = 260;
  int Height = static_cast<int>(Shape.size()) * BarHeight;
  std::string Svg = strFormat(
      "<svg width=\"%d\" height=\"%d\" xmlns=\"http://www.w3.org/2000/svg\">",
      Width, Height);
  for (size_t Level = 0; Level != Shape.size(); ++Level) {
    int BarWidth =
        static_cast<int>(static_cast<double>(Shape[Level]) / MaxCount *
                         (Width - 40));
    Svg += strFormat("<rect x=\"0\" y=\"%zu\" width=\"%d\" height=\"%d\" "
                     "fill=\"#4a78b0\"><title>level %zu: %zu nodes"
                     "</title></rect>",
                     Level * BarHeight, std::max(BarWidth, 1), BarHeight - 1,
                     Level, Shape[Level]);
  }
  Svg += "</svg>";
  return Svg;
}

std::string Profiler::renderHtml() const {
  std::string Html =
      "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
      "<title>Jedd profile</title><style>"
      "body{font-family:sans-serif;margin:2em}"
      "table{border-collapse:collapse}"
      "td,th{border:1px solid #999;padding:4px 8px;text-align:right}"
      "th{background:#eee}td.l,th.l{text-align:left}"
      "</style></head><body><h1>Jedd operation profile</h1>";

  std::vector<OpSummary> Summaries = summarize();
  std::vector<OpRecord> RecordsCopy;
  bdd::ManagerStats Counters;
  {
    std::lock_guard<std::mutex> G(Lock);
    RecordsCopy = Records;
    Counters = Stats;
  }

  // Overall view.
  Html += "<h2>Summary by operation</h2><table><tr>"
          "<th class=\"l\">operation</th><th class=\"l\">site</th>"
          "<th>executions</th><th>total time (&micro;s)</th>"
          "<th>max result nodes</th></tr>";
  for (const OpSummary &S : Summaries)
    Html += strFormat("<tr><td class=\"l\">%s</td><td class=\"l\">%s</td>"
                      "<td>%llu</td><td>%llu</td><td>%zu</td></tr>",
                      escapeHtml(S.OpKind).c_str(),
                      renderSiteCell(S.Site).c_str(),
                      static_cast<unsigned long long>(S.Count),
                      static_cast<unsigned long long>(S.TotalMicros),
                      S.MaxResultNodes);
  Html += "</table>";

  // Parallel-engine efficiency, when the manager ran multi-core
  // (docs/parallelism.md explains how to read these counters).
  if (Counters.NumThreads > 1) {
    size_t TotalHits = 0, TotalLookups = 0;
    for (const bdd::WorkerStats &W : Counters.Workers) {
      TotalHits += W.CacheHits;
      TotalLookups += W.CacheLookups;
    }
    double StealRatio =
        Counters.TasksForked
            ? 100.0 * static_cast<double>(Counters.TasksStolen) /
                  static_cast<double>(Counters.TasksForked)
            : 0.0;
    double HitRate =
        TotalLookups ? 100.0 * static_cast<double>(TotalHits) /
                           static_cast<double>(TotalLookups)
                     : 0.0;
    Html += strFormat(
        "<h2>Parallel execution</h2>"
        "<p>%u threads &middot; %zu parallel operations &middot; "
        "%zu tasks forked, %zu stolen (%.1f%%) &middot; "
        "per-thread cache hit rate %.1f%%</p>",
        Counters.NumThreads, Counters.ParallelOps, Counters.TasksForked,
        Counters.TasksStolen, StealRatio, HitRate);
    Html += "<table><tr><th>thread</th><th>cache hits</th>"
            "<th>cache lookups</th><th>forked</th><th>executed</th>"
            "<th>stolen</th></tr>";
    for (size_t I = 0; I != Counters.Workers.size(); ++I) {
      const bdd::WorkerStats &W = Counters.Workers[I];
      Html += strFormat("<tr><td>%zu</td><td>%zu</td><td>%zu</td>"
                        "<td>%zu</td><td>%zu</td><td>%zu</td></tr>",
                        I, W.CacheHits, W.CacheLookups, W.TasksForked,
                        W.TasksExecuted, W.TasksStolen);
    }
    Html += "</table>";
  }

  // Dynamic variable reordering, when sifting ever ran
  // (docs/reordering.md explains the algorithm and these counters).
  if (Counters.ReorderRuns > 0) {
    double Shrink =
        Counters.ReorderNodesBefore
            ? 100.0 *
                  (1.0 - static_cast<double>(Counters.ReorderNodesAfter) /
                             static_cast<double>(Counters.ReorderNodesBefore))
            : 0.0;
    Html += strFormat(
        "<h2>Dynamic variable reordering</h2>"
        "<p>%zu sifting passes &middot; %zu block moves, %zu level swaps "
        "&middot; latest pass: %zu &rarr; %zu live nodes (%.1f%% smaller) "
        "&middot; %llu &micro;s total</p>",
        Counters.ReorderRuns, Counters.ReorderBlockMoves,
        Counters.ReorderSwaps, Counters.ReorderNodesBefore,
        Counters.ReorderNodesAfter, Shrink,
        static_cast<unsigned long long>(Counters.ReorderMicros));
  }

  // Resource governance, when ceilings were configured or tripped
  // (docs/robustness.md explains the governor and these counters).
  if (Counters.LimitMaxNodes || Counters.LimitMaxBytes ||
      Counters.ResourceAborts || Counters.ResourceEscalations) {
    std::string Limits;
    if (Counters.LimitMaxNodes)
      Limits += strFormat("max-nodes %zu", Counters.LimitMaxNodes);
    if (Counters.LimitMaxBytes) {
      if (!Limits.empty())
        Limits += ", ";
      Limits += strFormat("max-bytes %zu", Counters.LimitMaxBytes);
    }
    if (Limits.empty())
      Limits = "none";
    Html += strFormat(
        "<h2>Resource governance</h2>"
        "<p>ceilings: %s &middot; peak %zu nodes / %zu bytes &middot; "
        "%zu aborted operations, %zu recoveries, %zu pressure "
        "escalations</p>",
        Limits.c_str(), Counters.NodesPeak, Counters.BytesPeak,
        Counters.ResourceAborts, Counters.ResourceRecoveries,
        Counters.ResourceEscalations);
  }

  // Detailed view.
  Html += "<h2>Individual executions</h2><table><tr><th>#</th>"
          "<th class=\"l\">operation</th><th class=\"l\">site</th>"
          "<th>time (&micro;s)</th><th>operand nodes</th>"
          "<th>result nodes</th><th>result tuples</th></tr>";
  for (size_t I = 0; I != RecordsCopy.size(); ++I) {
    const OpRecord &R = RecordsCopy[I];
    Html += strFormat(
        "<tr><td>%zu</td><td class=\"l\">%s</td><td class=\"l\">%s</td>"
        "<td>%llu</td><td>%zu / %zu</td><td>%zu</td><td>%.0f</td></tr>",
        I, escapeHtml(R.OpKind).c_str(), renderSiteCell(R.Site).c_str(),
        static_cast<unsigned long long>(R.Micros), R.LeftNodes, R.RightNodes,
        R.ResultNodes, R.ResultTuples);
  }
  Html += "</table>";

  // Shape charts for the largest executions.
  std::vector<size_t> Order(RecordsCopy.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return RecordsCopy[A].ResultNodes > RecordsCopy[B].ResultNodes;
  });
  Html += "<h2>Shapes of the largest results</h2>";
  for (size_t K = 0; K != std::min<size_t>(Order.size(), 12); ++K) {
    const OpRecord &R = RecordsCopy[Order[K]];
    if (R.ResultNodes == 0)
      break;
    Html += strFormat("<h3>#%zu %s at %s — %zu nodes</h3>", Order[K],
                      escapeHtml(R.OpKind).c_str(),
                      renderSiteCell(R.Site).c_str(), R.ResultNodes);
    Html += renderShapeSvg(R.ResultShape);
  }
  Html += "</body></html>\n";
  return Html;
}

bool Profiler::writeHtml(const std::string &Path) const {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  std::string Html = renderHtml();
  size_t Written = std::fwrite(Html.data(), 1, Html.size(), File);
  std::fclose(File);
  return Written == Html.size();
}
