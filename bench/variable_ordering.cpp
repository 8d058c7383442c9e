//===- variable_ordering.cpp - Bit-order ablation ---------------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "It has been widely noted that the ordering of bits in a BDD
/// determines its size, and therefore the speed of operations performed
/// on it" (Section 3.3.1) — the reason Jedd ships a profiler and lets
/// the user pick orderings. This ablation runs the points-to analysis
/// under three static order specs (bdd/DomainPack.h):
///
///   interleaved — bit k of every physical domain adjacent (the layout
///                 Berndl et al. [5] found essential);
///   sequential  — each physical domain's bits contiguous, in
///                 declaration order (the empty spec);
///   default     — AnalysisUniverse::DefaultOrder, the sequential order
///                 permuted.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "analysis/Analyses.h"
#include "soot/Generator.h"

#include <chrono>
#include <cstdio>

using namespace jedd;
using namespace jedd::analysis;

namespace {

struct Config {
  const char *Name;
  const char *Order;
};

} // namespace

int main(int argc, char **argv) {
  benchsupport::ObsSession Obs(argc, argv, "variable_ordering");
  const char *Preset = Obs.smoke() ? "javac_s" : "compress";
  soot::Program P = soot::generateProgram(soot::benchmarkPreset(Preset));
  std::vector<std::pair<soot::Id, soot::Id>> Extra = onTheFlyAssignEdges(P);

  std::printf("Ablation: physical-domain bit ordering on points-to "
              "(benchmark '%s')\n\n",
              Preset);
  std::printf("%-12s | %10s | %12s | %14s | %14s\n", "ordering",
              "time (s)", "pt (pairs)", "pt (BDD nodes)", "nodes created");
  std::printf("%s\n", std::string(74, '-').c_str());

  const Config Configs[] = {
      {"interleaved", "V1xV2xV3xO1xO2xT1xT2xT3xSG1xM1xM2xF1xC1"},
      {"sequential", ""},
      {"default", AnalysisUniverse::DefaultOrder},
  };
  constexpr int NumConfigs = 3;
  double Sizes[NumConfigs] = {};
  for (int Index = 0; Index != NumConfigs; ++Index) {
    const Config &C = Configs[Index];
    auto T0 = std::chrono::steady_clock::now();
    AnalysisUniverse AU(P, C.Order);
    PointsToAnalysis PTA(AU);
    for (size_t M = 0; M != P.Methods.size(); ++M)
      PTA.addMethodFacts(static_cast<soot::Id>(M));
    for (auto &[Src, Dst] : Extra)
      PTA.addAssignEdge(Src, Dst);
    PTA.solve();
    auto T1 = std::chrono::steady_clock::now();
    Sizes[Index] = PTA.Pt.size();
    std::printf("%-12s | %10.3f | %12.0f | %14zu | %14zu\n", C.Name,
                std::chrono::duration<double>(T1 - T0).count(),
                Sizes[Index], PTA.Pt.nodeCount(),
                AU.U.manager().stats().NodesCreated);
  }
  for (int Index = 1; Index != NumConfigs; ++Index)
    if (Sizes[Index] != Sizes[0]) {
      std::fprintf(stderr, "error: orderings computed different results\n");
      return 1;
    }
  std::printf("\nAll orderings compute identical relations; the BDD "
              "sizes and times differ, which is exactly why the\n"
              "paper separates logical attributes from physical domains "
              "and ships a profiler for tuning (Section 4.3).\n");
  return 0;
}
