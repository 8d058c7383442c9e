//===- Profiler.h - BDD operation profiler ----------------------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiler of Section 4.3. The paper's runtime records, for each
/// relational operation, the time taken and the number of nodes and shape
/// of the operand and result BDDs, stores them in a SQL database and
/// serves browsable views over CGI. We substitute a self-contained static
/// HTML report (with inline SVG shape charts), which preserves the three
/// things the paper uses the profiler for: finding expensive operations,
/// finding oversized BDDs, and inspecting their shapes to tune variable
/// orderings and physical domain assignments.
///
/// The profiler is a *view* over the observability layer (src/obs,
/// docs/observability.md), not a recording path of its own. Its summary
/// table reads the tracer's exact online totals of relational spans; its
/// per-execution table and shape charts read the buffered relational
/// spans, which exist only at obs::Level::Trace (where emitters also
/// compute node counts, shapes and tuple counts). One observe() call
/// with the manager's cumulative counters fills the resource-governance
/// section. Operations are attributed to rel::Site program points
/// (label + file:line), matching how the paper's profiler links cost
/// back to Jedd source lines.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_PROFILER_PROFILER_H
#define JEDDPP_PROFILER_PROFILER_H

#include "bdd/Bdd.h"
#include "obs/Obs.h"

#include <string>
#include <vector>

namespace jedd {

namespace prof {

/// All executions of one (kind, site) relational operation — a row of
/// the "overall profile view" of Section 4.3.
struct OpSummary {
  obs::SpanKey Op; ///< Op.Name is the kind ("join", "compose", ...).
  obs::SpanTotals Totals;
};

/// Renders the browsable report from the tracer's relational spans.
class Profiler {
public:
  /// Installs the manager's cumulative counters, from which the report
  /// renders its resource-governance section (call once, after the run;
  /// the newest call supersedes).
  void observe(const bdd::ManagerStats &Stats) { this->Stats = Stats; }

  /// The counters installed by the latest observe().
  const bdd::ManagerStats &stats() const { return Stats; }

  /// The tracer's relational totals per (kind, site), sorted by total
  /// time descending.
  std::vector<OpSummary> summarize() const;

  /// Renders the full report as one self-contained HTML page: the
  /// summary table (sites linked to file:line), a detail row per
  /// buffered execution, and an SVG shape chart for the largest ones.
  std::string renderHtml() const;

  /// Writes renderHtml() to \p Path. Returns false on I/O failure.
  bool writeHtml(const std::string &Path) const;

private:
  bdd::ManagerStats Stats;
};

} // namespace prof
} // namespace jedd

#endif // JEDDPP_PROFILER_PROFILER_H
