//===- Checkpoint.cpp - Warm-startable analysis pipeline -------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "analysis/Checkpoint.h"

#include "soot/FactsIO.h"
#include "util/Error.h"
#include "util/File.h"

using namespace jedd;
using namespace jedd::analysis;
using io::NamedRelation;
using rel::Relation;

namespace {

// Stage names double as checkpoint file basenames.
const char *StageHierarchy = "hierarchy";
const char *StageVcr = "vcr";
const char *StageCallGraph = "callgraph";
const char *StageSideEffects = "sideeffects";

} // namespace

CheckpointedAnalysis::CheckpointedAnalysis(AnalysisUniverse &AU,
                                           std::string Dir)
    : AU(AU), Dir(std::move(Dir)) {}

uint64_t CheckpointedAnalysis::factsHash() const {
  return io::hashBytes(soot::writeFacts(AU.Prog));
}

std::string CheckpointedAnalysis::stagePath(const std::string &Stage) const {
  return Dir + "/" + Stage + ".jdd";
}

bool CheckpointedAnalysis::tryLoad(const std::string &Stage, uint64_t Hash,
                                   const std::vector<std::string> &Expected,
                                   std::vector<NamedRelation> &Out,
                                   std::string &Note) {
  std::string Bytes;
  if (!readFileToString(stagePath(Stage), Bytes)) {
    Note = "no checkpoint";
    return false;
  }
  uint64_t StoredHash = 0;
  io::Error E = io::loadCheckpoint(AU.U, Bytes, Out, &StoredHash);
  if (!E.ok()) {
    Note = E.toString();
    return false;
  }
  if (StoredHash != Hash) {
    Note = "facts changed since the checkpoint was written";
    return false;
  }
  if (Out.size() != Expected.size()) {
    Note = "checkpoint holds a different relation set";
    return false;
  }
  for (size_t I = 0; I != Expected.size(); ++I)
    if (Out[I].Name != Expected[I]) {
      Note = "checkpoint holds a different relation set";
      return false;
    }
  return true;
}

bool CheckpointedAnalysis::saveStage(const std::string &Stage, uint64_t Hash,
                                     const std::vector<NamedRelation> &Rels,
                                     std::string &Note) {
  io::Error E = io::saveCheckpointFile(AU.U, Rels, stagePath(Stage), Hash);
  if (!E.ok()) {
    Note = "checkpoint not written: " + E.toString();
    return false;
  }
  return true;
}

void CheckpointedAnalysis::run() {
  Stages.clear();
  const bool Persist = !Dir.empty();
  const uint64_t Hash = Persist ? factsHash() : 0;
  if (Persist)
    ensureDirectory(Dir);

  // Once one stage misses its checkpoint, every later stage must be
  // recomputed too: stage results feed forward, and a later checkpoint
  // may describe inputs that no longer match what was just recomputed.
  // (The facts hash alone cannot see this within one run, since a
  // recompute over unchanged facts is only reached when the earlier
  // checkpoint was missing or unreadable.)
  bool PrefixWarm = true;

  // Each completed stage checkpoints immediately, so when a later stage
  // trips a resource ceiling the run is resumable: record which stage
  // was interrupted, let the exception out, and a rerun warm-starts past
  // everything that finished.
  const char *Current = StageHierarchy;
  try {
    runStages(Persist, Hash, PrefixWarm, Current);
  } catch (const ResourceExhausted &E) {
    StageStatus St{Current, false, false, /*Aborted=*/true,
                   std::string("aborted: ") + E.what()};
    Stages.push_back(std::move(St));
    throw;
  }
}

void CheckpointedAnalysis::runStages(bool Persist, uint64_t Hash,
                                     bool PrefixWarm, const char *&Current) {
  // --- hierarchy -------------------------------------------------------
  {
    StageStatus St{StageHierarchy, false, false, false, ""};
    std::vector<NamedRelation> Loaded;
    if (Persist && PrefixWarm &&
        tryLoad(StageHierarchy, Hash, {"extend", "subtype"}, Loaded,
                St.Note)) {
      H = std::make_unique<Hierarchy>(std::move(Loaded[0].Rel),
                                      std::move(Loaded[1].Rel));
      St.WarmStarted = true;
    } else {
      PrefixWarm = false;
      H = std::make_unique<Hierarchy>(AU);
      if (Persist)
        St.Saved = saveStage(StageHierarchy, Hash,
                             {{"extend", H->Extend}, {"subtype", H->Subtype}},
                             St.Note);
    }
    Stages.push_back(std::move(St));
  }

  // --- virtual call resolution ----------------------------------------
  {
    Current = StageVcr;
    StageStatus St{StageVcr, false, false, false, ""};
    std::vector<NamedRelation> Loaded;
    if (Persist && PrefixWarm &&
        tryLoad(StageVcr, Hash, {"declares_method"}, Loaded, St.Note)) {
      VCR = std::make_unique<VirtualCallResolver>(AU, *H,
                                                  std::move(Loaded[0].Rel));
      St.WarmStarted = true;
    } else {
      PrefixWarm = false;
      VCR = std::make_unique<VirtualCallResolver>(AU, *H);
      if (Persist)
        St.Saved = saveStage(StageVcr, Hash,
                             {{"declares_method", VCR->DeclaresMethod}},
                             St.Note);
    }
    Stages.push_back(std::move(St));
  }

  // --- points-to + call graph (joint fixpoint) ------------------------
  {
    Current = StageCallGraph;
    StageStatus St{StageCallGraph, false, false, false, ""};
    const std::vector<std::string> Names = {
        "pt",        "field_pt",      "alloc",     "assign",
        "load",      "store",         "site_type", "call_recv_sig",
        "caller_of", "cg",            "reachable"};
    std::vector<NamedRelation> Loaded;
    if (Persist && PrefixWarm &&
        tryLoad(StageCallGraph, Hash, Names, Loaded, St.Note)) {
      PTA = std::make_unique<PointsToAnalysis>(
          AU, std::move(Loaded[0].Rel), std::move(Loaded[1].Rel),
          std::move(Loaded[2].Rel), std::move(Loaded[3].Rel),
          std::move(Loaded[4].Rel), std::move(Loaded[5].Rel));
      std::set<soot::Id> Reachable;
      for (uint64_t Method : Loaded[10].Rel.values())
        Reachable.insert(static_cast<soot::Id>(Method));
      CGB = std::make_unique<CallGraphBuilder>(
          AU, *H, *VCR, *PTA, std::move(Loaded[6].Rel),
          std::move(Loaded[7].Rel), std::move(Loaded[8].Rel),
          std::move(Loaded[9].Rel), std::move(Reachable));
      St.WarmStarted = true;
    } else {
      PrefixWarm = false;
      PTA = std::make_unique<PointsToAnalysis>(AU);
      CGB = std::make_unique<CallGraphBuilder>(AU, *H, *VCR, *PTA);
      CGB->run();
      if (Persist) {
        Relation ReachableRel = AU.U.empty({{AU.Mth, AU.M1}});
        const std::set<soot::Id> &Methods = CGB->reachableMethods();
        ReachableRel.insertAll(
            std::vector<uint64_t>(Methods.begin(), Methods.end()));
        St.Saved = saveStage(
            StageCallGraph, Hash,
            {{"pt", PTA->Pt},
             {"field_pt", PTA->FieldPt},
             {"alloc", PTA->AllocR},
             {"assign", PTA->AssignR},
             {"load", PTA->LoadR},
             {"store", PTA->StoreR},
             {"site_type", CGB->SiteType},
             {"call_recv_sig", CGB->CallRecvSig},
             {"caller_of", CGB->CallerOf},
             {"cg", CGB->Cg},
             {"reachable", ReachableRel}},
            St.Note);
      }
    }
    Stages.push_back(std::move(St));
  }

  // --- side effects ----------------------------------------------------
  {
    Current = StageSideEffects;
    StageStatus St{StageSideEffects, false, false, false, ""};
    const std::vector<std::string> Names = {
        "var_method", "direct_read", "direct_write", "total_read",
        "total_write"};
    std::vector<NamedRelation> Loaded;
    if (Persist && PrefixWarm &&
        tryLoad(StageSideEffects, Hash, Names, Loaded, St.Note)) {
      SEA = std::make_unique<SideEffectAnalysis>(
          std::move(Loaded[0].Rel), std::move(Loaded[1].Rel),
          std::move(Loaded[2].Rel), std::move(Loaded[3].Rel),
          std::move(Loaded[4].Rel));
      St.WarmStarted = true;
    } else {
      PrefixWarm = false;
      SEA = std::make_unique<SideEffectAnalysis>(AU, *PTA, *CGB);
      if (Persist)
        St.Saved = saveStage(StageSideEffects, Hash,
                             {{"var_method", SEA->VarMethod},
                              {"direct_read", SEA->DirectRead},
                              {"direct_write", SEA->DirectWrite},
                              {"total_read", SEA->TotalRead},
                              {"total_write", SEA->TotalWrite}},
                             St.Note);
    }
    Stages.push_back(std::move(St));
  }
}
