//===- jeddc.cpp - The Jedd compiler driver binary -------------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line jeddc of Figure 1: reads .jedd sources, runs the
/// parser, semantic analysis and SAT-based physical domain assignment,
/// and emits C++ targeting the relational runtime (where the paper emits
/// Java targeting its JNI runtime).
///
///   jeddc [options] input.jedd [more.jedd ...]
///     -o FILE        write the generated C++ to FILE (default: stdout
///                    only with --emit)
///     --emit         print the generated C++ to stdout
///     --stats        print the Table 1 statistics of the assignment
///     --dimacs FILE  dump the SAT encoding in DIMACS cnf format
///     --namespace N  namespace for the generated code
///     --trace FILE   write a Chrome trace of the compile (SAT spans)
///     --metrics FILE write an aggregated metrics snapshot
///     --emit-relations FILE
///                    run the program (main(), if present) and save its
///                    global relations as a JDD1 checkpoint image
///
/// Multiple inputs are concatenated (shared declarations first), the way
/// the Table 1 "All 5 combined" row is built.
///
//===----------------------------------------------------------------------===//

#include "io/Io.h"
#include "jedd/CppEmit.h"
#include "jedd/Driver.h"
#include "jedd/Interp.h"
#include "obs/Obs.h"
#include "sat/Cnf.h"
#include "util/Error.h"
#include "util/File.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace jedd;
using namespace jedd::lang;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [options] input.jedd [more.jedd ...]\n"
               "  -o FILE        write generated C++ to FILE\n"
               "  --emit         print generated C++ to stdout\n"
               "  --stats        print assignment problem statistics\n"
               "  --dimacs FILE  dump the SAT encoding as DIMACS cnf\n"
               "  --namespace N  namespace for generated code\n"
               "  --trace FILE   write a Chrome trace of the compile\n"
               "  --metrics FILE write an aggregated metrics snapshot\n"
               "  --emit-relations FILE\n"
               "                 run main() and save the global relations\n"
               "                 as a JDD1 checkpoint image\n",
               Argv0);
  return 2;
}

int jeddcMain(int argc, char **argv) {
  std::vector<std::string> Inputs;
  std::string OutputPath, DimacsPath, Namespace = "jedd_generated";
  std::string TracePath, MetricsPath, EmitRelationsPath;
  bool Emit = false, Stats = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "-o" && I + 1 < argc) {
      OutputPath = argv[++I];
    } else if (Arg == "--emit") {
      Emit = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--dimacs" && I + 1 < argc) {
      DimacsPath = argv[++I];
    } else if (Arg == "--namespace" && I + 1 < argc) {
      Namespace = argv[++I];
    } else if (Arg == "--trace" && I + 1 < argc) {
      TracePath = argv[++I];
    } else if (Arg == "--metrics" && I + 1 < argc) {
      MetricsPath = argv[++I];
    } else if (Arg == "--emit-relations" && I + 1 < argc) {
      EmitRelationsPath = argv[++I];
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                   Arg.c_str());
      return usage(argv[0]);
    } else {
      Inputs.push_back(Arg);
    }
  }
  if (Inputs.empty())
    return usage(argv[0]);

  std::string Source;
  for (const std::string &Path : Inputs) {
    std::string Text;
    if (!readFileToString(Path, Text)) {
      std::fprintf(stderr, "%s: error: cannot read %s\n", argv[0],
                   Path.c_str());
      return 1;
    }
    Source += Text;
    Source += '\n';
  }

  obs::Tracer &Tracer = obs::Tracer::instance();
  if (!TracePath.empty())
    Tracer.setLevel(obs::Level::Trace);
  else if (!MetricsPath.empty())
    Tracer.setLevel(obs::Level::Metrics);

  DiagnosticEngine Diags(Inputs.size() == 1 ? Inputs[0] : "<combined>");
  auto Compiled = compileJedd(Source, Diags);
  std::fputs(Diags.renderAll().c_str(), stderr);
  if (!Compiled)
    return 1;

  if (Stats) {
    const AssignStats &S = Compiled->assignStats();
    std::printf("relational expressions: %zu\n", S.NumRelationalExprs);
    std::printf("expression attributes:  %zu\n", S.NumExprAttributes);
    std::printf("physical domains:       %zu\n", S.NumPhysDoms);
    std::printf("conflict constraints:   %zu\n", S.NumConflictEdges);
    std::printf("equality constraints:   %zu\n", S.NumEqualityEdges);
    std::printf("assignment constraints: %zu\n", S.NumAssignmentEdges);
    std::printf("flow paths:             %zu\n", S.FlowPaths);
    std::printf("SAT variables:          %zu\n", S.SatVariables);
    std::printf("SAT clauses:            %zu\n", S.SatClauses);
    std::printf("SAT literals:           %zu\n", S.SatLiterals);
    std::printf("solve time:             %.4f s\n", S.SolveSeconds);
    std::printf("replaces needed:        %zu\n", S.ReplacesNeeded);
  }

  if (!DimacsPath.empty()) {
    if (!writeStringToFile(DimacsPath,
                           sat::toDimacs(Compiled->assigner().formula()))) {
      std::fprintf(stderr, "%s: error: cannot write %s\n", argv[0],
                   DimacsPath.c_str());
      return 1;
    }
    std::printf("wrote %s\n", DimacsPath.c_str());
  }

  if (Emit || !OutputPath.empty()) {
    std::string Cpp = emitCpp(*Compiled, Namespace);
    if (!OutputPath.empty()) {
      if (!writeStringToFile(OutputPath, Cpp)) {
        std::fprintf(stderr, "%s: error: cannot write %s\n", argv[0],
                     OutputPath.c_str());
        return 1;
      }
      std::printf("wrote %s\n", OutputPath.c_str());
    }
    if (Emit)
      std::fputs(Cpp.c_str(), stdout);
  }

  if (!EmitRelationsPath.empty()) {
    rel::Universe U;
    Compiled->buildUniverse(U);
    Interpreter Interp(*Compiled, U);
    if (Compiled->findFunction("main") >= 0)
      Interp.call("main", {});
    std::vector<jedd::io::NamedRelation> Globals;
    for (const CheckedVar &Var : Compiled->program().Vars)
      if (Var.Function == -1)
        Globals.push_back({Var.Name, Interp.getGlobal(Var.Name)});
    jedd::io::Error E = jedd::io::saveCheckpointFile(
        U, Globals, EmitRelationsPath, jedd::io::hashBytes(Source));
    if (!E.ok()) {
      std::fprintf(stderr, "%s: error: cannot write %s: %s\n", argv[0],
                   EmitRelationsPath.c_str(), E.toString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu relations)\n", EmitRelationsPath.c_str(),
                Globals.size());
  }

  if (!TracePath.empty() && !Tracer.writeChromeTrace(TracePath)) {
    std::fprintf(stderr, "%s: error: cannot write %s\n", argv[0],
                 TracePath.c_str());
    return 1;
  }
  if (!MetricsPath.empty() &&
      !Tracer.writeMetrics(MetricsPath, "jeddc")) {
    std::fprintf(stderr, "%s: error: cannot write %s\n", argv[0],
                 MetricsPath.c_str());
    return 1;
  }
  return 0;
}

} // namespace

// Exit codes: 0 success, 1 I/O or compile failure, 2 usage, 3 misuse of
// the relational runtime by the interpreted program, 4 resource limits.
int main(int argc, char **argv) {
  try {
    return jeddcMain(argc, argv);
  } catch (const ResourceExhausted &E) {
    std::fprintf(stderr, "%s: error: %s\n", argv[0], E.what());
    return 4;
  } catch (const UsageError &E) {
    std::fprintf(stderr, "%s: error: %s\n", argv[0], E.what());
    return 3;
  }
}
