//===- whole_program_analysis.cpp - The five analyses, end to end ---------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the five interrelated analyses of Figure 2 over a generated
/// whole program, reports their sizes, and writes the browsable
/// profiler report of Section 4.3 to jedd-profile.html.
///
/// Usage: whole_program_analysis [benchmark]   (default: javac_s)
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyses.h"
#include "profiler/Profiler.h"
#include "soot/Generator.h"

#include <cstdio>

using namespace jedd;

int main(int argc, char **argv) {
  std::string Benchmark = argc > 1 ? argv[1] : "javac_s";
  soot::Program Prog =
      soot::generateProgram(soot::benchmarkPreset(Benchmark));
  std::printf("benchmark %s: %zu classes, %zu methods, %zu call sites, "
              "%zu variables, %zu allocation sites\n",
              Benchmark.c_str(), Prog.Klasses.size(), Prog.Methods.size(),
              Prog.Calls.size(), Prog.NumVars, Prog.NumSites);

  analysis::AnalysisUniverse AU(Prog);
  // Buffer every span so the report can show each execution.
  obs::Tracer::instance().setTracing(true);

  analysis::WholeProgramAnalysis WPA(AU);
  WPA.run();

  std::printf("\n-- Hierarchy --\n");
  std::printf("subtype pairs:          %.0f\n", WPA.H.Subtype.size());

  std::printf("\n-- Points-to --\n");
  std::printf("points-to pairs:        %.0f (%zu BDD nodes)\n",
              WPA.PTA.Pt.size(), WPA.PTA.Pt.nodeCount());
  std::printf("heap points-to triples: %.0f (%zu BDD nodes)\n",
              WPA.PTA.FieldPt.size(), WPA.PTA.FieldPt.nodeCount());

  std::printf("\n-- Call graph (on the fly with points-to) --\n");
  std::printf("call edges:             %.0f\n", WPA.CGB.Cg.size());
  std::printf("reachable methods:      %zu of %zu\n",
              WPA.CGB.reachableMethods().size(), Prog.Methods.size());
  std::printf("pt/cg rounds:           %u\n", WPA.CGB.rounds());

  std::printf("\n-- Side effects --\n");
  std::printf("direct writes:          %.0f\n", WPA.SEA->DirectWrite.size());
  std::printf("direct reads:           %.0f\n", WPA.SEA->DirectRead.size());
  std::printf("transitive writes:      %.0f\n", WPA.SEA->TotalWrite.size());
  std::printf("transitive reads:       %.0f\n", WPA.SEA->TotalRead.size());

  bdd::ManagerStats Stats = AU.U.manager().stats();
  std::printf("\n-- BDD manager --\n");
  std::printf("nodes created:          %zu\n", Stats.NodesCreated);
  std::printf("collections:            %zu\n", Stats.GcRuns);
  std::printf("cache hit rate:         %.1f%%\n",
              Stats.CacheLookups
                  ? 100.0 * Stats.CacheHits / Stats.CacheLookups
                  : 0.0);

  prof::Profiler Profiler;
  Profiler.observe(Stats);
  const char *ReportPath = "jedd-profile.html";
  if (Profiler.writeHtml(ReportPath))
    std::printf("\nprofiler report (%zu operation sites): %s\n",
                Profiler.summarize().size(), ReportPath);
  return 0;
}
