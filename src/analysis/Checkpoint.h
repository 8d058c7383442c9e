//===- Checkpoint.h - Warm-startable analysis pipeline ----------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checkpoint/warm-start pipeline over the five analyses of
/// Analyses.h (docs/persistence.md). With a checkpoint directory set,
/// each stage's result relations are saved as one JDD1 checkpoint image
/// after being computed, tagged with a hash of the program facts; a rerun
/// over the same facts loads the saved relations instead of recomputing —
/// stage by stage, warm-starting the longest prefix whose checkpoints are
/// present, well-formed, and fact-hash current. A stale or missing stage
/// (and everything after it, since stages feed forward) is recomputed and
/// its checkpoint rewritten.
///
/// With an empty directory the pipeline just runs the five analyses in
/// order: no files touched, no io spans emitted. It is the library's one
/// orchestrator of the analyses.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_ANALYSIS_CHECKPOINT_H
#define JEDDPP_ANALYSIS_CHECKPOINT_H

#include "analysis/Analyses.h"
#include "io/Io.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace jedd {
namespace analysis {

/// The four checkpointable stages, in dependency order. Points-to and
/// call graph form one joint fixpoint (they alternate until both
/// stabilize) and therefore checkpoint as one stage.
///
///   hierarchy -> vcr -> callgraph (incl. points-to) -> sideeffects
class CheckpointedAnalysis {
public:
  /// \p Dir is the checkpoint directory ("" disables persistence; it is
  /// created if missing).
  CheckpointedAnalysis(AnalysisUniverse &AU, std::string Dir);

  /// Runs all stages, loading each from its checkpoint when current and
  /// computing + saving it otherwise.
  ///
  /// When a stage trips a resource ceiling (docs/robustness.md) the
  /// jedd::ResourceExhausted propagates out of run() — but every stage
  /// completed before it already wrote its checkpoint, and the
  /// interrupted stage is recorded in stages() with Aborted set. The
  /// pipeline is *resumable*: rerunning (with a bigger budget) over the
  /// same facts warm-starts past all completed stages.
  void run();

  /// What happened to one stage during run().
  struct StageStatus {
    std::string Name;
    bool WarmStarted = false; ///< Loaded from its checkpoint.
    bool Saved = false;       ///< Computed and written this run.
    bool Aborted = false;     ///< Interrupted by resource exhaustion.
    std::string Note;         ///< Why a load was not used ("" when warm).
  };
  const std::vector<StageStatus> &stages() const { return Stages; }

  /// FNV-1a hash of the program facts — the context hash every stage
  /// checkpoint is tagged with.
  uint64_t factsHash() const;

  AnalysisUniverse &AU;
  std::unique_ptr<Hierarchy> H;
  std::unique_ptr<VirtualCallResolver> VCR;
  std::unique_ptr<PointsToAnalysis> PTA;
  std::unique_ptr<CallGraphBuilder> CGB;
  std::unique_ptr<SideEffectAnalysis> SEA;

private:
  std::string Dir;
  std::vector<StageStatus> Stages;
  uint64_t Hash = 0;      ///< factsHash() when persisting, else 0.
  bool PrefixWarm = true; ///< Every stage so far warm-started.

  /// Runs one stage and records its StageStatus. When every earlier
  /// stage warm-started and DIR/\p Name.jdd is current and holds exactly
  /// \p Names in order, \p Warm rebuilds the stage from the loaded
  /// relations; otherwise \p Compute runs and, when persisting, the
  /// relations \p Save returns (in the order of \p Names) are written
  /// back. A ResourceExhausted is recorded as this stage's abort and
  /// rethrown.
  void runStage(const char *Name, const std::vector<std::string> &Names,
                const std::function<void(std::vector<io::NamedRelation> &)>
                    &Warm,
                const std::function<void()> &Compute,
                const std::function<std::vector<rel::Relation>()> &Save);

  std::string stagePath(const std::string &Stage) const;
  /// Loads one stage's checkpoint, checking the context hash and that
  /// the image carries exactly the expected relation names in order.
  /// Returns false (with the reason in \p Note) when the stage must be
  /// computed instead.
  bool tryLoad(const std::string &Stage,
               const std::vector<std::string> &Expected,
               std::vector<io::NamedRelation> &Out, std::string &Note);
};

} // namespace analysis
} // namespace jedd

#endif // JEDDPP_ANALYSIS_CHECKPOINT_H
