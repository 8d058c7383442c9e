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

using namespace jedd;
using namespace jedd::prof;

std::vector<OpSummary> Profiler::summarize() const {
  std::vector<OpSummary> Result;
  for (auto &[Key, Totals] : obs::Tracer::instance().totals())
    if (Key.Category == obs::Cat::Rel)
      Result.push_back({Key, Totals});
  // The totals come sorted by key, so a stable sort breaks ties by kind,
  // then site.
  std::stable_sort(Result.begin(), Result.end(),
                   [](const OpSummary &A, const OpSummary &B) {
                     return A.Totals.TotalMicros > B.Totals.TotalMicros;
                   });
  return Result;
}

/// Renders the site cell of a span or a summary key: the label, plus a
/// file:line link when the site carries a source location (the paper's
/// profiler links every summary row back to the Jedd source line).
template <typename SiteT> static std::string renderSiteCell(const SiteT &S) {
  std::string Cell = escapeHtml(S.SiteLabel);
  if (!S.SiteFile.empty()) {
    std::string Loc = strFormat("%s:%u", S.SiteFile.c_str(), S.SiteLine);
    if (!Cell.empty())
      Cell += " ";
    Cell += strFormat("<small><a href=\"%s\">%s</a></small>",
                      escapeHtml(S.SiteFile).c_str(),
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

  std::vector<const obs::SpanEvent *> Execs;
  for (const obs::SpanEvent *E : obs::Tracer::instance().spans())
    if (E->Category == obs::Cat::Rel)
      Execs.push_back(E);
  auto ResultNodes = [](const obs::SpanEvent *E) {
    return static_cast<unsigned long long>(E->argOr("result_nodes"));
  };

  // Overall view.
  Html += "<h2>Summary by operation</h2><table><tr>"
          "<th class=\"l\">operation</th><th class=\"l\">site</th>"
          "<th>executions</th><th>total time (&micro;s)</th>"
          "<th>max result nodes</th></tr>";
  for (const OpSummary &S : summarize())
    Html += strFormat("<tr><td class=\"l\">%s</td><td class=\"l\">%s</td>"
                      "<td>%llu</td><td>%llu</td><td>%llu</td></tr>",
                      escapeHtml(S.Op.Name).c_str(),
                      renderSiteCell(S.Op).c_str(),
                      static_cast<unsigned long long>(S.Totals.Count),
                      static_cast<unsigned long long>(S.Totals.TotalMicros),
                      static_cast<unsigned long long>(
                          S.Totals.arg("result_nodes").Max));
  Html += "</table>";

  // Resource governance, when ceilings were configured or tripped
  // (docs/robustness.md explains the governor and these counters).
  if (Stats.LimitMaxNodes || Stats.LimitMaxBytes ||
      Stats.ResourceAborts || Stats.ResourceEscalations) {
    std::string Limits;
    if (Stats.LimitMaxNodes)
      Limits += strFormat("max-nodes %zu", Stats.LimitMaxNodes);
    if (Stats.LimitMaxBytes) {
      if (!Limits.empty())
        Limits += ", ";
      Limits += strFormat("max-bytes %zu", Stats.LimitMaxBytes);
    }
    if (Limits.empty())
      Limits = "none";
    Html += strFormat(
        "<h2>Resource governance</h2>"
        "<p>ceilings: %s &middot; peak %zu nodes / %zu bytes &middot; "
        "%zu aborted operations, %zu recoveries, %zu pressure "
        "escalations</p>",
        Limits.c_str(), Stats.NodesPeak, Stats.BytesPeak,
        Stats.ResourceAborts, Stats.ResourceRecoveries,
        Stats.ResourceEscalations);
  }

  // Detailed view.
  Html += "<h2>Individual executions</h2><table><tr><th>#</th>"
          "<th class=\"l\">operation</th><th class=\"l\">site</th>"
          "<th>time (&micro;s)</th><th>operand nodes</th>"
          "<th>result nodes</th><th>result tuples</th></tr>";
  for (size_t I = 0; I != Execs.size(); ++I) {
    const obs::SpanEvent &E = *Execs[I];
    Html += strFormat(
        "<tr><td>%zu</td><td class=\"l\">%s</td><td class=\"l\">%s</td>"
        "<td>%llu</td><td>%llu / %llu</td><td>%llu</td><td>%.0f</td></tr>",
        I, escapeHtml(E.Name).c_str(), renderSiteCell(E).c_str(),
        static_cast<unsigned long long>(E.DurMicros),
        static_cast<unsigned long long>(E.argOr("left_nodes")),
        static_cast<unsigned long long>(E.argOr("right_nodes")),
        ResultNodes(&E), std::max(E.ResultTuples, 0.0));
  }
  Html += "</table>";

  // Shape charts for the largest executions.
  std::vector<size_t> Order(Execs.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return ResultNodes(Execs[A]) > ResultNodes(Execs[B]);
  });
  Html += "<h2>Shapes of the largest results</h2>";
  for (size_t K = 0; K != std::min<size_t>(Order.size(), 12); ++K) {
    const obs::SpanEvent &E = *Execs[Order[K]];
    if (ResultNodes(&E) == 0)
      break;
    Html += strFormat("<h3>#%zu %s at %s — %llu nodes</h3>", Order[K],
                      escapeHtml(E.Name).c_str(), renderSiteCell(E).c_str(),
                      ResultNodes(&E));
    Html += renderShapeSvg(E.ResultShape);
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
