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

CheckpointedAnalysis::CheckpointedAnalysis(AnalysisUniverse &AU,
                                           std::string Dir)
    : AU(AU), Dir(std::move(Dir)) {}

uint64_t CheckpointedAnalysis::factsHash() const {
  return io::hashBytes(soot::writeFacts(AU.Prog));
}

std::string CheckpointedAnalysis::stagePath(const std::string &Stage) const {
  return Dir + "/" + Stage + ".jdd";
}

bool CheckpointedAnalysis::tryLoad(const std::string &Stage,
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
  bool SameNames = Out.size() == Expected.size();
  for (size_t I = 0; SameNames && I != Expected.size(); ++I)
    SameNames = Out[I].Name == Expected[I];
  if (!SameNames)
    Note = "checkpoint holds a different relation set";
  return SameNames;
}

void CheckpointedAnalysis::runStage(
    const char *Name, const std::vector<std::string> &Names,
    const std::function<void(std::vector<NamedRelation> &)> &Warm,
    const std::function<void()> &Compute,
    const std::function<std::vector<Relation>()> &Save) {
  const bool Persist = !Dir.empty();
  StageStatus St{Name, false, false, false, ""};
  // Each completed stage checkpoints immediately, so when a later stage
  // trips a resource ceiling the run is resumable: record which stage
  // was interrupted, let the exception out, and a rerun warm-starts past
  // everything that finished.
  try {
    std::vector<NamedRelation> Loaded;
    if (Persist && PrefixWarm && tryLoad(Name, Names, Loaded, St.Note)) {
      Warm(Loaded);
      St.WarmStarted = true;
    } else {
      PrefixWarm = false;
      Compute();
      if (Persist) {
        std::vector<Relation> Rels = Save();
        std::vector<NamedRelation> Named;
        for (size_t I = 0; I != Names.size(); ++I)
          Named.push_back({Names[I], std::move(Rels[I])});
        io::Error E =
            io::saveCheckpointFile(AU.U, Named, stagePath(Name), Hash);
        // A run never fails because a checkpoint cannot be written.
        St.Saved = E.ok();
        if (!E.ok())
          St.Note = "checkpoint not written: " + E.toString();
      }
    }
  } catch (const ResourceExhausted &E) {
    Stages.push_back({Name, false, false, /*Aborted=*/true,
                      std::string("aborted: ") + E.what()});
    throw;
  }
  Stages.push_back(std::move(St));
}

void CheckpointedAnalysis::run() {
  Stages.clear();
  Hash = Dir.empty() ? 0 : factsHash();
  if (!Dir.empty())
    ensureDirectory(Dir);
  // Once one stage misses its checkpoint, every later stage must be
  // recomputed too: stage results feed forward, and a later checkpoint
  // may describe inputs that no longer match what was just recomputed.
  // (The facts hash alone cannot see this within one run, since a
  // recompute over unchanged facts is only reached when the earlier
  // checkpoint was missing or unreadable.)
  PrefixWarm = true;

  // Stage names double as checkpoint file basenames.
  runStage(
      "hierarchy", {"extend", "subtype"},
      [&](std::vector<NamedRelation> &L) {
        H = std::make_unique<Hierarchy>(std::move(L[0].Rel),
                                        std::move(L[1].Rel));
      },
      [&] { H = std::make_unique<Hierarchy>(AU); },
      [&] { return std::vector<Relation>{H->Extend, H->Subtype}; });

  runStage(
      "vcr", {"declares_method"},
      [&](std::vector<NamedRelation> &L) {
        VCR = std::make_unique<VirtualCallResolver>(AU, *H,
                                                    std::move(L[0].Rel));
      },
      [&] { VCR = std::make_unique<VirtualCallResolver>(AU, *H); },
      [&] { return std::vector<Relation>{VCR->DeclaresMethod}; });

  // Points-to and call graph: one joint fixpoint, one stage.
  runStage(
      "callgraph",
      {"pt", "field_pt", "alloc", "assign", "load", "store", "site_type",
       "call_recv_sig", "caller_of", "cg", "reachable"},
      [&](std::vector<NamedRelation> &L) {
        PTA = std::make_unique<PointsToAnalysis>(
            AU, std::move(L[0].Rel), std::move(L[1].Rel), std::move(L[2].Rel),
            std::move(L[3].Rel), std::move(L[4].Rel), std::move(L[5].Rel));
        std::set<soot::Id> Reachable;
        for (uint64_t Method : L[10].Rel.values())
          Reachable.insert(static_cast<soot::Id>(Method));
        CGB = std::make_unique<CallGraphBuilder>(
            AU, *H, *VCR, *PTA, std::move(L[6].Rel), std::move(L[7].Rel),
            std::move(L[8].Rel), std::move(L[9].Rel), std::move(Reachable));
      },
      [&] {
        PTA = std::make_unique<PointsToAnalysis>(AU);
        CGB = std::make_unique<CallGraphBuilder>(AU, *H, *VCR, *PTA);
        CGB->run();
      },
      [&] {
        Relation Reachable = AU.U.empty({{AU.Mth, AU.M1}});
        const std::set<soot::Id> &Methods = CGB->reachableMethods();
        Reachable.insertAll(
            std::vector<uint64_t>(Methods.begin(), Methods.end()));
        return std::vector<Relation>{PTA->Pt,          PTA->FieldPt,
                                     PTA->AllocR,      PTA->AssignR,
                                     PTA->LoadR,       PTA->StoreR,
                                     CGB->SiteType,    CGB->CallRecvSig,
                                     CGB->CallerOf,    CGB->Cg,
                                     Reachable};
      });

  runStage(
      "sideeffects",
      {"var_method", "direct_read", "direct_write", "total_read",
       "total_write"},
      [&](std::vector<NamedRelation> &L) {
        SEA = std::make_unique<SideEffectAnalysis>(
            std::move(L[0].Rel), std::move(L[1].Rel), std::move(L[2].Rel),
            std::move(L[3].Rel), std::move(L[4].Rel));
      },
      [&] { SEA = std::make_unique<SideEffectAnalysis>(AU, *PTA, *CGB); },
      [&] {
        return std::vector<Relation>{SEA->VarMethod, SEA->DirectRead,
                                     SEA->DirectWrite, SEA->TotalRead,
                                     SEA->TotalWrite};
      });
}
