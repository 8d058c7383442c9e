//===- jeddanalyze.cpp - Whole-program analysis driver ---------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the five whole-program analyses over a facts file (see
/// soot/FactsIO.h) or a generated benchmark, printing result sizes and
/// optionally the browsable profile and observability artifacts.
///
///   jeddanalyze --facts FILE        analyze a facts file
///   jeddanalyze --benchmark NAME    analyze a generated benchmark
///   jeddanalyze --generate NAME -o FILE   write a benchmark's facts
///   ... [--profile FILE.html] [--trace FILE.json] [--metrics FILE.json]
///   ... [--order SPEC] [--checkpoint-dir DIR]
///   ... [--max-nodes N] [--max-mem BYTES] [--time-limit SECONDS]
///
/// --order lays out the physical domains V1 V2 V3 O1 O2 T1 T2 T3 SG1 M1
/// M2 F1 C1 with an order spec in bddbddb syntax (bdd/DomainPack.h): `_`
/// separates groups laid out one after another, `x` interleaves the
/// domains of a group, and "" is declaration order. The default is
/// AnalysisUniverse::DefaultOrder. --sequential is an alias for
/// --order "".
///
/// With --checkpoint-dir, each analysis stage's relations are saved to
/// DIR as JDD1 checkpoints; a rerun over the same facts warm-starts from
/// them instead of recomputing (docs/persistence.md).
///
/// --max-nodes/--max-mem/--time-limit install resource ceilings on the
/// BDD manager (docs/robustness.md), and Ctrl-C requests cooperative
/// cancellation. A run stopped by any of these exits with code 4 after
/// printing the governor's peak usage; with --checkpoint-dir it is
/// *resumable* — every completed stage is already checkpointed, so a
/// rerun with a larger budget continues where this one stopped.
///
/// Exit codes: 0 success, 1 I/O failure, 2 usage, 3 malformed input or
/// misuse, 4 resource limit or cancellation.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyses.h"
#include "analysis/Checkpoint.h"
#include "obs/Obs.h"
#include "profiler/Profiler.h"
#include "soot/FactsIO.h"
#include "soot/Generator.h"
#include "util/Error.h"
#include "util/File.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

using namespace jedd;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s (--facts FILE | --benchmark NAME | "
               "--generate NAME -o FILE)\n"
               "          [--profile FILE.html] [--trace FILE.json]\n"
               "          [--metrics FILE.json] [--order SPEC]\n"
               "          [--checkpoint-dir DIR]\n"
               "          [--max-nodes N] [--max-mem BYTES]\n"
               "          [--time-limit SECONDS]\n"
               "  --order SPEC  physical-domain order, default\n"
               "                %s\n"
               "                (`_` = next group, `x` = interleave, \"\" =\n"
               "                declaration order; --sequential = --order \"\")\n",
               Argv0, analysis::AnalysisUniverse::DefaultOrder);
  return 2;
}

/// Set by the SIGINT handler; the BDD manager's governor polls it and
/// aborts the operation in flight (docs/robustness.md).
std::atomic<bool> CancelRequested{false};

void onSigInt(int) { CancelRequested.store(true); }

} // namespace

int main(int argc, char **argv) {
  std::string FactsPath, Benchmark, GenerateName, OutputPath, ProfilePath;
  std::string TracePath, MetricsPath, CheckpointDir;
  std::string Order = analysis::AnalysisUniverse::DefaultOrder;
  uint64_t MaxNodes = 0, MaxBytes = 0;
  double TimeLimitSec = 0.0;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--facts" && I + 1 < argc)
      FactsPath = argv[++I];
    else if (Arg == "--benchmark" && I + 1 < argc)
      Benchmark = argv[++I];
    else if (Arg == "--generate" && I + 1 < argc)
      GenerateName = argv[++I];
    else if (Arg == "-o" && I + 1 < argc)
      OutputPath = argv[++I];
    else if (Arg == "--profile" && I + 1 < argc)
      ProfilePath = argv[++I];
    else if (Arg == "--trace" && I + 1 < argc)
      TracePath = argv[++I];
    else if (Arg == "--metrics" && I + 1 < argc)
      MetricsPath = argv[++I];
    else if (Arg == "--checkpoint-dir" && I + 1 < argc)
      CheckpointDir = argv[++I];
    else if (Arg == "--max-nodes" && I + 1 < argc)
      MaxNodes = std::strtoull(argv[++I], nullptr, 10);
    else if (Arg == "--max-mem" && I + 1 < argc)
      MaxBytes = std::strtoull(argv[++I], nullptr, 10);
    else if (Arg == "--time-limit" && I + 1 < argc)
      TimeLimitSec = std::strtod(argv[++I], nullptr);
    else if (Arg == "--order" && I + 1 < argc)
      Order = argv[++I];
    else if (Arg == "--sequential")
      Order.clear();
    else
      return usage(argv[0]);
  }

  if (!GenerateName.empty()) {
    if (OutputPath.empty())
      return usage(argv[0]);
    soot::Program Prog;
    try {
      Prog = soot::generateProgram(soot::benchmarkPreset(GenerateName));
    } catch (const UsageError &E) {
      std::fprintf(stderr, "error: %s\n", E.what());
      return 2;
    }
    if (!writeStringToFile(OutputPath, soot::writeFacts(Prog))) {
      std::fprintf(stderr, "error: cannot write %s\n", OutputPath.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu methods, %zu statements)\n",
                OutputPath.c_str(), Prog.Methods.size(),
                Prog.Allocs.size() + Prog.Assigns.size() +
                    Prog.Loads.size() + Prog.Stores.size());
    return 0;
  }

  soot::Program Prog;
  if (!FactsPath.empty()) {
    std::string Text, Error;
    if (!readFileToString(FactsPath, Text)) {
      std::fprintf(stderr, "error: cannot read %s\n", FactsPath.c_str());
      return 1;
    }
    if (!soot::parseFacts(Text, Prog, Error)) {
      std::fprintf(stderr, "%s: error: %s\n", FactsPath.c_str(),
                   Error.c_str());
      return 3;
    }
  } else if (!Benchmark.empty()) {
    try {
      Prog = soot::generateProgram(soot::benchmarkPreset(Benchmark));
    } catch (const UsageError &E) {
      std::fprintf(stderr, "error: %s\n", E.what());
      return 2;
    }
  } else {
    return usage(argv[0]);
  }

  // The profiler's per-execution rows need the buffered spans.
  obs::Tracer &Tracer = obs::Tracer::instance();
  if (!TracePath.empty() || !ProfilePath.empty())
    Tracer.setLevel(obs::Level::Trace);
  else if (!MetricsPath.empty())
    Tracer.setLevel(obs::Level::Metrics);

  bdd::ResourceLimits Limits;
  Limits.MaxNodes = MaxNodes;
  Limits.MaxBytes = MaxBytes;
  Limits.TimeLimitMicros = static_cast<uint64_t>(TimeLimitSec * 1e6);
  Limits.Cancel = &CancelRequested;
  std::signal(SIGINT, onSigInt);

  std::unique_ptr<analysis::AnalysisUniverse> AUPtr;
  try {
    AUPtr = std::make_unique<analysis::AnalysisUniverse>(Prog, Order, Limits);
  } catch (const UsageError &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 2;
  }
  analysis::AnalysisUniverse &AU = *AUPtr;
  analysis::CheckpointedAnalysis WPA(AU, CheckpointDir);

  auto PrintStages = [&](std::FILE *Out) {
    if (CheckpointDir.empty())
      return;
    for (const analysis::CheckpointedAnalysis::StageStatus &St :
         WPA.stages())
      std::fprintf(Out, "stage %-12s %s%s%s\n", St.Name.c_str(),
                   St.Aborted       ? "interrupted"
                   : St.WarmStarted ? "warm-started"
                   : St.Saved       ? "computed, checkpointed"
                                    : "computed",
                   St.Note.empty() ? "" : " — ",
                   St.Note.c_str());
  };

  try {
    WPA.run();
  } catch (const ResourceExhausted &E) {
    const bdd::ManagerStats S = AU.U.manager().stats();
    std::fprintf(stderr, "error: %s\n", E.what());
    std::fprintf(stderr,
                 "governor peaks: %zu nodes, %zu bytes "
                 "(%zu aborts, %zu recoveries, %zu escalations)\n",
                 S.NodesPeak, S.BytesPeak, S.ResourceAborts,
                 S.ResourceRecoveries, S.ResourceEscalations);
    PrintStages(stderr);
    if (!CheckpointDir.empty())
      std::fprintf(stderr,
                   "run is resumable: completed stages are checkpointed "
                   "in %s; rerun with a larger budget to continue\n",
                   CheckpointDir.c_str());
    return 4;
  } catch (const UsageError &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 3;
  }

  PrintStages(stdout);

  std::printf("program:            %zu classes, %zu methods, %zu calls\n",
              Prog.Klasses.size(), Prog.Methods.size(), Prog.Calls.size());
  std::printf("subtype pairs:      %.0f\n", WPA.H->Subtype.size());
  std::printf("points-to pairs:    %.0f (%zu nodes)\n", WPA.PTA->Pt.size(),
              WPA.PTA->Pt.nodeCount());
  std::printf("heap triples:       %.0f (%zu nodes)\n",
              WPA.PTA->FieldPt.size(), WPA.PTA->FieldPt.nodeCount());
  std::printf("call edges:         %.0f\n", WPA.CGB->Cg.size());
  std::printf("reachable methods:  %zu\n", WPA.CGB->reachableMethods().size());
  std::printf("transitive writes:  %.0f\n", WPA.SEA->TotalWrite.size());
  std::printf("transitive reads:   %.0f\n", WPA.SEA->TotalRead.size());

  if (!ProfilePath.empty()) {
    prof::Profiler Profiler;
    Profiler.observe(AU.U.manager().stats());
    if (!Profiler.writeHtml(ProfilePath)) {
      std::fprintf(stderr, "error: cannot write %s\n", ProfilePath.c_str());
      return 1;
    }
    std::printf("profile:            %s (%zu operation sites)\n",
                ProfilePath.c_str(), Profiler.summarize().size());
  }
  if (!TracePath.empty()) {
    if (!Tracer.writeChromeTrace(TracePath)) {
      std::fprintf(stderr, "error: cannot write %s\n", TracePath.c_str());
      return 1;
    }
    std::printf("trace:              %s (%zu spans)\n", TracePath.c_str(),
                Tracer.spanCount());
  }
  if (!MetricsPath.empty()) {
    std::string Name = !Benchmark.empty() ? Benchmark : FactsPath;
    if (!Tracer.writeMetrics(MetricsPath, Name)) {
      std::fprintf(stderr, "error: cannot write %s\n", MetricsPath.c_str());
      return 1;
    }
    std::printf("metrics:            %s\n", MetricsPath.c_str());
  }
  return 0;
}
