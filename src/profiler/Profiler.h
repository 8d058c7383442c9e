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
/// The profiler is a *consumer* of the observability event stream
/// (src/obs, docs/observability.md), not a recording path of its own:
/// attach() subscribes it to the process-wide obs::Tracer, every finished
/// relational span becomes one OpRecord, and one observe() call with the
/// manager's cumulative counters fills the resource-governance section. Operations are
/// attributed to rel::Site program points (label + file:line), matching
/// how the paper's profiler links cost back to Jedd source lines.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_PROFILER_PROFILER_H
#define JEDDPP_PROFILER_PROFILER_H

#include "bdd/Bdd.h"
#include "obs/Obs.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

namespace jedd {

namespace prof {

/// Owned copy of a rel::Site — the key operations are attributed to.
struct OpSite {
  std::string Label; ///< Program-point label ("" = unattributed).
  std::string File;  ///< Source file of the call site ("" = unknown).
  uint32_t Line = 0;

  friend bool operator==(const OpSite &A, const OpSite &B) {
    return A.Label == B.Label && A.File == B.File && A.Line == B.Line;
  }
  friend bool operator<(const OpSite &A, const OpSite &B) {
    return std::tie(A.Label, A.File, A.Line) <
           std::tie(B.Label, B.File, B.Line);
  }
};

/// One executed relational operation.
struct OpRecord {
  std::string OpKind; ///< "join", "compose", "union", "replace", ...
  OpSite Site;        ///< Program point that executed it.
  uint64_t Micros = 0;
  size_t LeftNodes = 0;
  size_t RightNodes = 0; ///< Zero for unary operations.
  size_t ResultNodes = 0;
  double ResultTuples = 0.0;
  std::vector<size_t> ResultShape; ///< Nodes per BDD level.
};

/// Aggregated view of all executions of one (kind, site) operation —
/// the "overall profile view" of Section 4.3.
struct OpSummary {
  std::string OpKind;
  OpSite Site;
  uint64_t Count = 0;
  uint64_t TotalMicros = 0;
  size_t MaxResultNodes = 0;
};

/// Consumes relational spans from the observability stream and renders
/// the browsable report.
class Profiler : public obs::SpanSubscriber {
public:
  Profiler() = default;
  ~Profiler() override { detach(); }

  /// Subscribes to the process-wide tracer: every relational span
  /// finishing anywhere in the process becomes one OpRecord.
  void attach() {
    obs::Tracer::instance().subscribe(this);
    Attached = true;
  }
  void detach() {
    if (Attached)
      obs::Tracer::instance().unsubscribe(this);
    Attached = false;
  }

  /// SpanSubscriber: keeps relational spans, ignores the rest.
  /// Thread-safe (spans arrive on their emitting threads).
  void onSpan(const obs::SpanEvent &Event) override;
  /// Asks emitters for result shapes and tuple counts, which the HTML
  /// report renders.
  bool wantsDetail() const override { return true; }

  /// Installs the manager's cumulative counters, from which the report
  /// renders its resource-governance section (call once, after the run;
  /// the newest call supersedes).
  void observe(const bdd::ManagerStats &Stats);

  void clear();

  /// The collected records. Callers must not race attached emitters.
  const std::vector<OpRecord> &records() const { return Records; }

  /// The counters installed by the latest observe().
  const bdd::ManagerStats &stats() const { return Stats; }

  /// Per-(kind, site) aggregation, sorted by total time descending.
  std::vector<OpSummary> summarize() const;

  /// Renders the full report as one self-contained HTML page: the
  /// summary table (sites linked to file:line), a detail row per
  /// execution, and an SVG shape chart for the largest executions.
  std::string renderHtml() const;

  /// Writes renderHtml() to \p Path. Returns false on I/O failure.
  bool writeHtml(const std::string &Path) const;

private:
  bool Attached = false;
  mutable std::mutex Lock;
  std::vector<OpRecord> Records;
  bdd::ManagerStats Stats;
};

} // namespace prof
} // namespace jedd

#endif // JEDDPP_PROFILER_PROFILER_H
