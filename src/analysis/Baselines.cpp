//===- Baselines.cpp - Hand-coded and reference baselines ------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two baselines for the relational analyses:
///
///  * HandCodedPointsTo — the same subset-based points-to algorithm
///    written directly against the BDD package with hand-managed
///    physical domains and explicit replace operations. This is the
///    "hand-coded C++ [5]" side of the paper's Table 2 comparison; the
///    contrast with PointsToAnalysis (12 relational operations) also
///    illustrates the paper's point about the error-proneness of manual
///    physical domain bookkeeping.
///
///  * computeReference — naive sets-and-worklists implementations of
///    points-to, call graph and side effects, used as the oracle in the
///    analysis tests.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyses.h"
#include "util/BitSet.h"

#include <algorithm>
#include <numeric>

using namespace jedd;
using namespace jedd::analysis;
using soot::Id;
using soot::NoId;
using soot::Program;

//===----------------------------------------------------------------------===//
// HandCodedPointsTo
//===----------------------------------------------------------------------===//

HandCodedPointsTo::HandCodedPointsTo(const Program &Prog,
                                     const std::string &OrderSpec)
    : Prog(Prog), Pack(OrderSpec) {
  unsigned BV = bitsForSize(std::max<uint64_t>(Prog.NumVars, 1));
  unsigned BO = bitsForSize(std::max<uint64_t>(Prog.NumSites, 1));
  unsigned BF = bitsForSize(std::max<uint64_t>(Prog.Fields.size(), 1));
  V1 = Pack.addDomain("V1", BV);
  V2 = Pack.addDomain("V2", BV);
  O1 = Pack.addDomain("O1", BO);
  O2 = Pack.addDomain("O2", BO);
  F1 = Pack.addDomain("F1", BF);
  Pack.finalize(1 << 16);
  bdd::Manager &Mgr = Pack.manager();
  Pt = Mgr.falseBdd();
  FieldPt = Mgr.falseBdd();
  Alloc = Mgr.falseBdd();
  Assign = Mgr.falseBdd();
  Load = Mgr.falseBdd();
  Store = Mgr.falseBdd();
}

void HandCodedPointsTo::loadFacts(
    const std::vector<std::pair<Id, Id>> &ExtraAssigns) {
  // Physical domain conventions, maintained by hand. The rule: solve()'s
  // relProds quantify V2 (except the store's first, on V1, and the load's
  // second, on O2 and F1), and their results land in Pt's or FieldPt's
  // layout, so the only replaces are of Pt: one per copy step and one
  // base view per iteration.
  //   Alloc, Pt:  (V1 var, O1 obj)
  //   Assign:     (V2 src, V1 dst)
  //   Load:       (V2 base, F1 fld, V1 dst)
  //   Store:      (V1 src, V2 base, F1 fld)
  //   FieldPt:    (O2 baseobj, F1 fld, O1 obj)
  // Each relation's facts are encoded as one batch and united once, as
  // Relation::insertAll does.
  std::vector<Id> All(Prog.Methods.size());
  std::iota(All.begin(), All.end(), 0);
  soot::MethodFacts Facts = Prog.factsOf(All);
  for (auto &[Src, Dst] : ExtraAssigns)
    Facts.Assign.insert(Facts.Assign.end(), {Src, Dst});
  auto Add = [&](bdd::Bdd &Rel, const std::vector<uint64_t> &Tuples,
                 const std::vector<bdd::PhysDomId> &Doms) {
    Rel = Rel | Pack.encodeTuples(Doms, Tuples.data(),
                                  Tuples.size() / Doms.size());
  };
  Add(Alloc, Facts.Alloc, {V1, O1});
  Add(Assign, Facts.Assign, {V2, V1});
  Add(Load, Facts.Load, {V2, F1, V1});
  Add(Store, Facts.Store, {V1, V2, F1});
}

void HandCodedPointsTo::solve() {
  bdd::Manager &Mgr = Pack.manager();
  bdd::Bdd CubeV1 = Mgr.cube(Pack.vars(V1));
  bdd::Bdd CubeV2 = Mgr.cube(Pack.vars(V2));
  std::vector<unsigned> O2F1Vars = Pack.vars(O2);
  O2F1Vars.insert(O2F1Vars.end(), Pack.vars(F1).begin(),
                  Pack.vars(F1).end());
  bdd::Bdd CubeO2F1 = Mgr.cube(O2F1Vars);

  Pt = Pt | Alloc;
  while (true) {
    bdd::Bdd OldPt = Pt;
    bdd::Bdd OldFieldPt = FieldPt;

    // Copy edges, to a fixpoint before the field rules: exists V2.
    // Assign(V2,V1) & Pt moved to (V2,O1) -> (V1,O1), Pt's layout.
    while (true) {
      bdd::Bdd Before = Pt;
      Pt = Pt | Mgr.relProd(Assign, Pack.replaceDomains(Pt, {{V1, V2}}),
                            CubeV2);
      if (Pt == Before)
        break;
    }

    // Points-to of base variables, moved into (V2 base, O2 baseobj).
    bdd::Bdd PtBase = Pack.replaceDomains(Pt, {{V1, V2}, {O1, O2}});

    // Stores: exists V1. Store(V1,V2,F1) & Pt(V1,O1) -> (V2,F1,O1);
    // then exists V2 with PtBase -> (F1,O1,O2) == FieldPt layout.
    bdd::Bdd StoreObjs = Mgr.relProd(Store, Pt, CubeV1);
    FieldPt = FieldPt | Mgr.relProd(StoreObjs, PtBase, CubeV2);

    // Loads: exists V2. Load(V2,F1,V1) & PtBase(V2,O2) -> (F1, V1 dst,
    // O2 baseobj); then & FieldPt(O2,F1,O1) exists O2,F1 -> (V1,O1), Pt's
    // layout.
    bdd::Bdd LoadBases = Mgr.relProd(Load, PtBase, CubeV2);
    Pt = Pt | Mgr.relProd(LoadBases, FieldPt, CubeO2F1);

    if (Pt == OldPt && FieldPt == OldFieldPt)
      break;
  }
}

std::vector<std::pair<uint64_t, uint64_t>>
HandCodedPointsTo::pointsToPairs() {
  std::vector<std::pair<uint64_t, uint64_t>> Result;
  std::vector<unsigned> Vars = Pack.sortedVars({V1, O1});
  std::vector<size_t> VarBits = Pack.bitIndex(V1, Vars);
  std::vector<size_t> ObjBits = Pack.bitIndex(O1, Vars);
  Pack.manager().enumerate(Pt, Vars, [&](const std::vector<bool> &Bits) {
    Result.push_back({bdd::DomainPack::decodeBits(VarBits, Bits),
                      bdd::DomainPack::decodeBits(ObjBits, Bits)});
    return true;
  });
  std::sort(Result.begin(), Result.end());
  return Result;
}

double HandCodedPointsTo::pointsToSize() {
  return Pack.manager().satCount(Pt, Pack.sortedVars({V1, O1}));
}

//===----------------------------------------------------------------------===//
// CHA interprocedural edges (for the points-to-only Table 2 runs)
//===----------------------------------------------------------------------===//

std::vector<std::pair<Id, Id>>
jedd::analysis::chaAssignEdges(const Program &Prog) {
  // Class hierarchy analysis: any class could flow into the receiver;
  // every resolution target is a possible callee.
  std::vector<uint64_t> Copies;
  for (size_t C = 0; C != Prog.Calls.size(); ++C)
    for (size_t K = 0; K != Prog.Klasses.size(); ++K) {
      Id Target =
          Prog.resolveVirtual(static_cast<Id>(K), Prog.Calls[C].Sig);
      if (Target != NoId)
        Prog.callCopies(static_cast<Id>(C), Target, Copies);
    }
  std::vector<std::pair<Id, Id>> Edges;
  for (size_t I = 0; I != Copies.size(); I += 2)
    Edges.push_back(
        {static_cast<Id>(Copies[I]), static_cast<Id>(Copies[I + 1])});
  std::sort(Edges.begin(), Edges.end());
  Edges.erase(std::unique(Edges.begin(), Edges.end()), Edges.end());
  return Edges;
}

namespace {

/// Bitset-based worklist core shared by computeReference and
/// onTheFlyAssignEdges: points-to + on-the-fly call graph.
struct ReferenceCore {
  std::vector<BitSet> Pt;                    ///< Var -> sites.
  std::map<std::pair<Id, Id>, BitSet> FieldPt; ///< (site, field) -> sites.
  std::vector<std::set<Id>> CallGraph;       ///< Call -> targets.
  std::set<Id> Reachable;
  std::vector<std::pair<Id, Id>> ExtraAssigns; ///< (src, dst).
};

ReferenceCore solveReferenceCore(const Program &Prog) {
  ReferenceCore R;
  R.Pt.assign(Prog.NumVars, BitSet(Prog.NumSites));
  R.CallGraph.assign(Prog.Calls.size(), {});
  R.Reachable.insert(Prog.EntryMethod);
  std::set<std::pair<Id, Id>> AssignSet;

  auto MethodReachable = [&](Id M) { return R.Reachable.count(M) != 0; };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const soot::AllocStmt &S : Prog.Allocs)
      if (MethodReachable(Prog.VarMethod[S.Var]))
        Changed |= R.Pt[S.Var].set(S.Site);
    for (const soot::AssignStmt &S : Prog.Assigns)
      if (MethodReachable(Prog.VarMethod[S.Dst]))
        Changed |= R.Pt[S.Dst].unionWith(R.Pt[S.Src]);
    for (auto &[Src, Dst] : AssignSet)
      Changed |= R.Pt[Dst].unionWith(R.Pt[Src]);
    for (const soot::StoreStmt &S : Prog.Stores) {
      if (!MethodReachable(Prog.VarMethod[S.Base]))
        continue;
      bool *ChangedPtr = &Changed;
      R.Pt[S.Base].forEach([&](size_t BaseSite) {
        auto [It, Inserted] = R.FieldPt.try_emplace(
            {static_cast<Id>(BaseSite), S.Field}, BitSet(Prog.NumSites));
        (void)Inserted;
        *ChangedPtr |= It->second.unionWith(R.Pt[S.Src]);
      });
    }
    for (const soot::LoadStmt &S : Prog.Loads) {
      if (!MethodReachable(Prog.VarMethod[S.Dst]))
        continue;
      bool *ChangedPtr = &Changed;
      R.Pt[S.Base].forEach([&](size_t BaseSite) {
        auto It = R.FieldPt.find({static_cast<Id>(BaseSite), S.Field});
        if (It != R.FieldPt.end())
          *ChangedPtr |= R.Pt[S.Dst].unionWith(It->second);
      });
    }

    // Calls: resolve through the points-to sets, on the fly.
    for (size_t C = 0; C != Prog.Calls.size(); ++C) {
      const soot::CallSite &Site = Prog.Calls[C];
      if (!MethodReachable(Site.Caller))
        continue;
      bool *ChangedPtr = &Changed;
      R.Pt[Site.RecvVar].forEach([&](size_t RecvSite) {
        Id Target =
            Prog.resolveVirtual(Prog.SiteType[RecvSite], Site.Sig);
        if (Target == NoId)
          return;
        if (!R.CallGraph[C].insert(Target).second)
          return;
        *ChangedPtr = true;
        R.Reachable.insert(Target);
        const soot::Method &Callee = Prog.Methods[Target];
        AssignSet.insert({Site.RecvVar, Callee.ThisVar});
        for (size_t A = 0;
             A != std::min(Site.ArgVars.size(), Callee.ParamVars.size());
             ++A)
          AssignSet.insert({Site.ArgVars[A], Callee.ParamVars[A]});
        if (Site.RetDstVar != NoId && Callee.RetVar != NoId)
          AssignSet.insert({Callee.RetVar, Site.RetDstVar});
      });
    }
  }
  R.ExtraAssigns.assign(AssignSet.begin(), AssignSet.end());
  return R;
}

} // namespace

std::vector<std::pair<Id, Id>>
jedd::analysis::onTheFlyAssignEdges(const Program &Prog) {
  return solveReferenceCore(Prog).ExtraAssigns;
}

ReferenceResults jedd::analysis::computeReference(const Program &Prog) {
  ReferenceCore Core = solveReferenceCore(Prog);
  ReferenceResults R;
  R.PointsTo.assign(Prog.NumVars, {});
  for (size_t V = 0; V != Prog.NumVars; ++V)
    Core.Pt[V].forEach(
        [&](size_t Site) { R.PointsTo[V].insert(static_cast<Id>(Site)); });
  R.CallGraph = Core.CallGraph;
  R.ReachableMethods = Core.Reachable;
  R.FieldPt = std::move(Core.FieldPt);

  auto MethodReachable = [&](Id M) {
    return R.ReachableMethods.count(M) != 0;
  };

  // Side effects, on bitsets over the (site, field) pair space.
  size_t PairSpace = std::max<size_t>(Prog.NumSites, 1) *
                     std::max<size_t>(Prog.Fields.size(), 1);
  size_t NumFields = std::max<size_t>(Prog.Fields.size(), 1);
  std::vector<BitSet> DirectWrite(Prog.Methods.size(), BitSet(PairSpace));
  std::vector<BitSet> DirectRead(Prog.Methods.size(), BitSet(PairSpace));
  for (const soot::StoreStmt &S : Prog.Stores) {
    Id M = Prog.VarMethod[S.Base];
    if (!MethodReachable(M))
      continue;
    Core.Pt[S.Base].forEach([&](size_t BaseSite) {
      DirectWrite[M].set(BaseSite * NumFields + S.Field);
    });
  }
  for (const soot::LoadStmt &S : Prog.Loads) {
    Id M = Prog.VarMethod[S.Dst];
    if (!MethodReachable(M))
      continue;
    Core.Pt[S.Base].forEach([&](size_t BaseSite) {
      DirectRead[M].set(BaseSite * NumFields + S.Field);
    });
  }

  // Reflexive-transitive method-call closure.
  std::vector<BitSet> Callees(Prog.Methods.size(),
                              BitSet(Prog.Methods.size()));
  for (size_t C = 0; C != Prog.Calls.size(); ++C)
    for (Id Target : R.CallGraph[C])
      Callees[Prog.Calls[C].Caller].set(Target);
  std::vector<BitSet> Closure(Prog.Methods.size(),
                              BitSet(Prog.Methods.size()));
  for (size_t M = 0; M != Prog.Methods.size(); ++M)
    Closure[M].set(M);
  bool ClosureChanged = true;
  while (ClosureChanged) {
    ClosureChanged = false;
    for (size_t M = 0; M != Prog.Methods.size(); ++M) {
      bool *ChangedPtr = &ClosureChanged;
      Closure[M].forEach([&](size_t Mid) {
        *ChangedPtr |= Closure[M].unionWith(Callees[Mid]);
      });
    }
  }

  for (size_t M = 0; M != Prog.Methods.size(); ++M) {
    BitSet TotalW(PairSpace), TotalR(PairSpace);
    Closure[M].forEach([&](size_t Callee) {
      TotalW.unionWith(DirectWrite[Callee]);
      TotalR.unionWith(DirectRead[Callee]);
    });
    TotalW.forEach([&](size_t Pair) {
      R.TotalWrite.insert({static_cast<Id>(M),
                           static_cast<Id>(Pair / NumFields),
                           static_cast<Id>(Pair % NumFields)});
    });
    TotalR.forEach([&](size_t Pair) {
      R.TotalRead.insert({static_cast<Id>(M),
                          static_cast<Id>(Pair / NumFields),
                          static_cast<Id>(Pair % NumFields)});
    });
  }
  return R;
}
