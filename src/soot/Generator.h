//===- Generator.h - Synthetic whole-program generator ----------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic generator of whole programs at the scale of the paper's
/// Java benchmarks. The paper times points-to analysis on javac (SPEC
/// _s and full), compress, sablecc and jedit; we cannot run Java
/// bytecode, so presets approximate each benchmark's class/method/
/// statement counts. Table 2's claim — the relational layer adds only a
/// small constant overhead over hand-coded BDD code — is about *relative*
/// cost on identical inputs, which these synthetic programs preserve:
/// both implementations consume the same generated facts and the same
/// BDD backend.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_SOOT_GENERATOR_H
#define JEDDPP_SOOT_GENERATOR_H

#include "soot/ProgramModel.h"

#include <cstdint>
#include <string>

namespace jedd {
namespace soot {

/// Knobs for the generator. Counts are approximate targets.
struct GeneratorParams {
  unsigned NumClasses = 50;
  unsigned NumSignatures = 30;
  unsigned MethodsPerClass = 4;  ///< Average; root declares every sig.
  unsigned NumFields = 12;
  unsigned VarsPerMethod = 8;
  unsigned AllocsPerMethod = 2;
  unsigned AssignsPerMethod = 6;
  unsigned LoadsPerMethod = 2;
  unsigned StoresPerMethod = 2;
  unsigned CallsPerMethod = 3;
  uint64_t Seed = 1;
};

/// Produces a deterministic well-formed program.
Program generateProgram(const GeneratorParams &Params);

/// Preset approximating one of the paper's Table 2 benchmarks:
/// "javac_s", "compress", "javac", "sablecc", "jedit"; or a scale
/// preset, "jedit_x4" or "jedit_x8" (four and eight times jedit's
/// classes and signatures). Fatal error on an unknown name.
GeneratorParams benchmarkPreset(const std::string &Name);

/// Names of the Table 2 benchmarks, in the paper's row order.
const std::vector<std::string> &table2Benchmarks();

} // namespace soot
} // namespace jedd

#endif // JEDDPP_SOOT_GENERATOR_H
