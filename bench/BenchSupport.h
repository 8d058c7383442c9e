//===- BenchSupport.h - Shared observability plumbing for benches -*- C++ -*-=//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every benchmark harness in bench/ accepts the same observability
/// flags (docs/observability.md):
///
///   --obs-metrics FILE   write an aggregated metrics snapshot (the
///                        BENCH_<name>.json artifact; schema in
///                        tools/bench_schema.json)
///   --obs-trace FILE     write a Chrome trace of the run
///   --smoke              shrink the workload to a seconds-scale smoke
///                        configuration (the bench-smoke ctest target)
///
/// ObsSession strips these from argv before the harness (or
/// google-benchmark) sees the remaining flags, enables tracing when an
/// output was requested, and writes the artifacts on destruction.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_BENCH_BENCHSUPPORT_H
#define JEDDPP_BENCH_BENCHSUPPORT_H

#include "obs/Obs.h"

#include <cstdio>
#include <cstring>
#include <string>

namespace jedd {
namespace benchsupport {

class ObsSession {
public:
  /// Consumes the observability flags from \p argc / \p argv. \p Name
  /// is the artifact name embedded in the metrics snapshot.
  ObsSession(int &argc, char **argv, const char *Name) : Name(Name) {
    int Out = 1;
    for (int I = 1; I < argc; ++I) {
      if (std::strcmp(argv[I], "--obs-metrics") == 0 && I + 1 < argc)
        MetricsPath = argv[++I];
      else if (std::strcmp(argv[I], "--obs-trace") == 0 && I + 1 < argc)
        TracePath = argv[++I];
      else if (std::strcmp(argv[I], "--smoke") == 0)
        Smoke = true;
      else
        argv[Out++] = argv[I];
    }
    argc = Out;
    if (!TracePath.empty())
      obs::Tracer::instance().setLevel(obs::Level::Trace);
    else if (!MetricsPath.empty())
      obs::Tracer::instance().setLevel(obs::Level::Metrics);
  }

  ~ObsSession() {
    obs::Tracer &T = obs::Tracer::instance();
    if (!MetricsPath.empty() && !T.writeMetrics(MetricsPath, Name))
      std::fprintf(stderr, "error: cannot write %s\n", MetricsPath.c_str());
    if (!TracePath.empty() && !T.writeChromeTrace(TracePath))
      std::fprintf(stderr, "error: cannot write %s\n", TracePath.c_str());
  }

  ObsSession(const ObsSession &) = delete;
  ObsSession &operator=(const ObsSession &) = delete;

  /// True when --smoke asked for the tiny validation workload.
  bool smoke() const { return Smoke; }

private:
  std::string Name;
  std::string MetricsPath, TracePath;
  bool Smoke = false;
};

} // namespace benchsupport
} // namespace jedd

#endif // JEDDPP_BENCH_BENCHSUPPORT_H
