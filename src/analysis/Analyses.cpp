//===- Analyses.cpp - The five whole-program analyses ----------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyses.h"
#include "util/BitSet.h"
#include "util/Fatal.h"

#include <algorithm>

using namespace jedd;
using namespace jedd::analysis;
using rel::Relation;
using soot::Id;
using soot::Program;

//===----------------------------------------------------------------------===//
// AnalysisUniverse
//===----------------------------------------------------------------------===//

AnalysisUniverse::AnalysisUniverse(const Program &Prog,
                                   const std::string &OrderSpec,
                                   bdd::ResourceLimits Limits)
    : Prog(Prog) {
  auto Sz = [](size_t N) { return std::max<uint64_t>(N, 1); };
  DVar = U.addDomain("Var", Sz(Prog.NumVars));
  DObj = U.addDomain("Obj", Sz(Prog.NumSites));
  DType = U.addDomain("Type", Sz(Prog.Klasses.size()));
  DSig = U.addDomain("Sig", Sz(Prog.Sigs.size()));
  DMeth = U.addDomain("Method", Sz(Prog.Methods.size()));
  DField = U.addDomain("Field", Sz(Prog.Fields.size()));
  DCall = U.addDomain("Call", Sz(Prog.Calls.size()));

  Src = U.addAttribute("src", DVar);
  Dst = U.addAttribute("dst", DVar);
  Base = U.addAttribute("base", DVar);
  Obj = U.addAttribute("obj", DObj);
  BaseObj = U.addAttribute("baseobj", DObj);
  Sub = U.addAttribute("subtype", DType);
  Sup = U.addAttribute("supertype", DType);
  RecT = U.addAttribute("rectype", DType);
  TgtT = U.addAttribute("tgttype", DType);
  Typ = U.addAttribute("type", DType);
  Sig = U.addAttribute("signature", DSig);
  Mth = U.addAttribute("method", DMeth);
  Callee = U.addAttribute("callee", DMeth);
  Fld = U.addAttribute("field", DField);
  Call = U.addAttribute("call", DCall);

  unsigned BV = bitsForSize(Sz(Prog.NumVars));
  unsigned BO = bitsForSize(Sz(Prog.NumSites));
  unsigned BT = bitsForSize(Sz(Prog.Klasses.size()));
  unsigned BS = bitsForSize(Sz(Prog.Sigs.size()));
  unsigned BM = bitsForSize(Sz(Prog.Methods.size()));
  unsigned BF = bitsForSize(Sz(Prog.Fields.size()));
  unsigned BC = bitsForSize(Sz(Prog.Calls.size()));

  V1 = U.addPhysicalDomain("V1", BV);
  V2 = U.addPhysicalDomain("V2", BV);
  V3 = U.addPhysicalDomain("V3", BV);
  O1 = U.addPhysicalDomain("O1", BO);
  O2 = U.addPhysicalDomain("O2", BO);
  T1 = U.addPhysicalDomain("T1", BT);
  T2 = U.addPhysicalDomain("T2", BT);
  T3 = U.addPhysicalDomain("T3", BT);
  SG1 = U.addPhysicalDomain("SG1", BS);
  M1 = U.addPhysicalDomain("M1", BM);
  M2 = U.addPhysicalDomain("M2", BM);
  F1 = U.addPhysicalDomain("F1", BF);
  C1 = U.addPhysicalDomain("C1", BC);

  U.finalize(OrderSpec, 1 << 16);
  if (Limits.any())
    U.setResourceLimits(Limits);
}

//===----------------------------------------------------------------------===//
// Hierarchy
//===----------------------------------------------------------------------===//

Hierarchy::Hierarchy(AnalysisUniverse &AU) {
  Extend = AU.U.empty({{AU.Sub, AU.T1}, {AU.Sup, AU.T2}});
  std::vector<uint64_t> Tuples;
  for (size_t K = 1; K != AU.Prog.Klasses.size(); ++K)
    Tuples.insert(Tuples.end(), {K, AU.Prog.Klasses[K].Super});
  Extend.insertAll(Tuples);

  // Reflexive-transitive closure by least fixpoint.
  Subtype = AU.U.empty({{AU.Sub, AU.T1}, {AU.Sup, AU.T2}});
  Tuples.clear();
  for (size_t K = 0; K != AU.Prog.Klasses.size(); ++K)
    Tuples.insert(Tuples.end(), {K, K});
  Subtype.insertAll(Tuples);
  Subtype |= Extend;
  while (true) {
    // subtype(sub, mid) . extend(mid, sup) — one compose per step.
    Relation Step = Subtype.compose(Extend, {AU.Sup}, {AU.Sub},
                                    JEDD_SITE("hierarchy"));
    Relation Next = Subtype | Step;
    if (Next == Subtype)
      break;
    Subtype = Next;
  }
}

//===----------------------------------------------------------------------===//
// Virtual call resolution (Figure 4, carrying the call site)
//===----------------------------------------------------------------------===//

VirtualCallResolver::VirtualCallResolver(AnalysisUniverse &AU,
                                         const Hierarchy &H)
    : AU(AU), H(H) {
  DeclaresMethod =
      AU.U.empty({{AU.Typ, AU.T2}, {AU.Sig, AU.SG1}, {AU.Mth, AU.M1}});
  std::vector<uint64_t> Tuples;
  for (size_t M = 0; M != AU.Prog.Methods.size(); ++M)
    Tuples.insert(Tuples.end(),
                  {AU.Prog.Methods[M].Klass, AU.Prog.Methods[M].Sig, M});
  DeclaresMethod.insertAll(Tuples);
}

Relation VirtualCallResolver::resolve(const Relation &ReceiverTypes) const {
  // Line numbers refer to Figure 4 of the paper.
  // Line 3: save the receiver type before walking up the hierarchy.
  Relation ToResolve =
      ReceiverTypes.copy(AU.RecT, AU.TgtT, AU.T2, JEDD_SITE("vcr:copy"));
  Relation Answer = AU.U.empty({{AU.Call, AU.C1},
                                {AU.Sig, AU.SG1},
                                {AU.RecT, AU.T1},
                                {AU.TgtT, AU.T2},
                                {AU.Mth, AU.M1}});
  while (!ToResolve.isEmpty()) {
    // Lines 6-7: does the current class implement the signature?
    Relation Resolved = ToResolve.join(DeclaresMethod, {AU.TgtT, AU.Sig},
                                       {AU.Typ, AU.Sig}, JEDD_SITE("vcr:join"));
    // Line 8.
    Answer |= Resolved;
    // Line 9: drop the resolved call sites.
    ToResolve -= Resolved.project({AU.Mth}, JEDD_SITE("vcr:project"));
    // Line 10: move to the immediate superclass.
    ToResolve = ToResolve.compose(H.Extend, {AU.TgtT}, {AU.Sub},
                                  JEDD_SITE("vcr:compose"))
                    .rename(AU.Sup, AU.TgtT);
    // Line 11: the loop condition is the enclosing while.
  }
  return Answer.projectTo({AU.Call, AU.Mth}, JEDD_SITE("vcr:answer"))
      .rename(AU.Mth, AU.Callee);
}

//===----------------------------------------------------------------------===//
// Points-to analysis
//===----------------------------------------------------------------------===//

PointsToAnalysis::PointsToAnalysis(AnalysisUniverse &AU) : AU(AU) {
  Pt = AU.U.empty({{AU.Src, AU.V1}, {AU.Obj, AU.O1}});
  FieldPt = AU.U.empty(
      {{AU.BaseObj, AU.O2}, {AU.Fld, AU.F1}, {AU.Obj, AU.O1}});
  AllocR = AU.U.empty({{AU.Src, AU.V1}, {AU.Obj, AU.O1}});
  // AssignR and LoadR keep their source/base variable in V2 and their
  // destination in V1, so solve()'s compositions quantify V2 and leave
  // results in Pt's layout.
  AssignR = AU.U.empty({{AU.Src, AU.V2}, {AU.Dst, AU.V1}});
  LoadR = AU.U.empty(
      {{AU.Base, AU.V2}, {AU.Fld, AU.F1}, {AU.Dst, AU.V1}});
  StoreR = AU.U.empty(
      {{AU.Src, AU.V1}, {AU.Base, AU.V2}, {AU.Fld, AU.F1}});
}

void PointsToAnalysis::addMethodFacts(const std::vector<Id> &Methods) {
  addFacts(AU.Prog.factsOf(Methods));
}

void PointsToAnalysis::addFacts(const soot::MethodFacts &Facts) {
  AllocR.insertAll(Facts.Alloc);
  AssignR.insertAll(Facts.Assign);
  LoadR.insertAll(Facts.Load);
  StoreR.insertAll(Facts.Store);
}

void PointsToAnalysis::addAssignEdges(
    const std::vector<std::pair<Id, Id>> &Edges) {
  std::vector<uint64_t> Tuples;
  for (auto [SrcVar, DstVar] : Edges)
    Tuples.insert(Tuples.end(), {SrcVar, DstVar});
  AssignR.insertAll(Tuples);
}

bool PointsToAnalysis::solve() {
  bool Changed = false;
  Pt |= AllocR;
  while (true) {
    Relation OldPt = Pt;
    Relation OldFieldPt = FieldPt;

    // The layout rule: compositions quantify V2 (pt:store1 quantifies
    // V1, pt:load2 O2 and F1), and their results land in Pt's (V1, O1)
    // or FieldPt's (O2, F1, O1) layout. So the only replaces are of Pt:
    // one per pt:copy step for its alignment, and one pt:base view per
    // iteration.

    // Copy edges, to a fixpoint before the field rules (Berndl et al.):
    // pt(dst) >= pt(src). Pt's Src moves to V2 to meet AssignR's.
    while (true) {
      Relation Before = Pt;
      Pt |= AssignR.compose(Pt, {AU.Src}, {AU.Src}, JEDD_SITE("pt:copy"))
                .rename(AU.Dst, AU.Src);
      if (Pt == Before)
        break;
    }

    // A points-to view keyed for base lookups: <Src V2, BaseObj O2>, so
    // pt:store2 and pt:load1 compare it in place and pt:load2 finds
    // BaseObj in O2, where FieldPt keeps it.
    Relation PtBase = Pt.rename(AU.Obj, AU.BaseObj)
                          .withBindings({{AU.Src, AU.V2}, {AU.BaseObj, AU.O2}},
                                        JEDD_SITE("pt:base"));

    // Stores: fieldPt(baseobj, fld) >= pt(src) for store(src, base, fld),
    // baseobj in pt(base).
    Relation StoreObjs =
        StoreR.compose(Pt, {AU.Src}, {AU.Src}, JEDD_SITE("pt:store1"));
    FieldPt |= StoreObjs.compose(PtBase, {AU.Base}, {AU.Src},
                                 JEDD_SITE("pt:store2"));

    // Loads: pt(dst) >= fieldPt(baseobj, fld) for load(base, fld, dst),
    // baseobj in pt(base).
    Relation LoadBases =
        LoadR.compose(PtBase, {AU.Base}, {AU.Src}, JEDD_SITE("pt:load1"));
    Pt |= LoadBases
              .compose(FieldPt, {AU.BaseObj, AU.Fld},
                       {AU.BaseObj, AU.Fld}, JEDD_SITE("pt:load2"))
              .rename(AU.Dst, AU.Src);

    if (Pt == OldPt && FieldPt == OldFieldPt)
      break;
    Changed = true;
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Call graph, on the fly
//===----------------------------------------------------------------------===//

CallGraphBuilder::CallGraphBuilder(AnalysisUniverse &AU, Hierarchy &H,
                                   VirtualCallResolver &VCR,
                                   PointsToAnalysis &PTA)
    : AU(AU), H(H), VCR(VCR), PTA(PTA) {
  SiteType = AU.U.empty({{AU.Obj, AU.O1}, {AU.Typ, AU.T1}});
  std::vector<uint64_t> Tuples;
  for (size_t S = 0; S != AU.Prog.NumSites; ++S)
    Tuples.insert(Tuples.end(), {S, AU.Prog.SiteType[S]});
  SiteType.insertAll(Tuples);
  CallRecvSig = AU.U.empty(
      {{AU.Call, AU.C1}, {AU.Src, AU.V1}, {AU.Sig, AU.SG1}});
  CallerOf = AU.U.empty({{AU.Call, AU.C1}, {AU.Mth, AU.M1}});
  Cg = AU.U.empty({{AU.Call, AU.C1}, {AU.Callee, AU.M2}});
}

void CallGraphBuilder::makeReachable(const std::vector<Id> &Methods) {
  std::vector<Id> New;
  for (Id Method : Methods)
    if (Reachable.insert(Method).second)
      New.push_back(Method);
  if (New.empty())
    return;
  soot::MethodFacts Facts = AU.Prog.factsOf(New);
  PTA.addFacts(Facts);
  CallRecvSig.insertAll(Facts.CallRecvSig);
  CallerOf.insertAll(Facts.CallerOf);
}

void CallGraphBuilder::addCallEdges(
    const std::vector<std::pair<Id, Id>> &Edges) {
  std::vector<Id> Callees;
  std::vector<uint64_t> Copies;
  for (auto [CallSiteId, CalleeId] : Edges) {
    Callees.push_back(CalleeId);
    AU.Prog.callCopies(CallSiteId, CalleeId, Copies);
  }
  makeReachable(Callees);
  PTA.AssignR.insertAll(Copies);
}

void CallGraphBuilder::run() {
  makeReachable({AU.Prog.EntryMethod});
  while (true) {
    ++Rounds;
    PTA.solve();

    // Receiver classes per call site, through the points-to sets.
    Relation RecvObjs =
        CallRecvSig.compose(PTA.Pt, {AU.Src}, {AU.Src},
                            JEDD_SITE("cg:recvobjs"));
    Relation RecvTypes =
        RecvObjs.compose(SiteType, {AU.Obj}, {AU.Obj},
                         JEDD_SITE("cg:recvtypes"))
            .rename(AU.Typ, AU.RecT);

    Relation Targets = VCR.resolve(RecvTypes);
    Relation NewEdges = Targets - Cg;
    if (NewEdges.isEmpty())
      break;
    Cg |= NewEdges;
    // Extraction back to Java objects (Section 2.3): the new edges'
    // interprocedural effects go in as one batch per fact relation.
    std::vector<std::pair<Id, Id>> Edges;
    NewEdges.iterate([&](const std::vector<uint64_t> &Tuple) {
      Edges.push_back(
          {static_cast<Id>(Tuple[0]), static_cast<Id>(Tuple[1])});
      return true;
    });
    addCallEdges(Edges);
  }
}

//===----------------------------------------------------------------------===//
// Side effects
//===----------------------------------------------------------------------===//

SideEffectAnalysis::SideEffectAnalysis(AnalysisUniverse &AU,
                                       const PointsToAnalysis &PTA,
                                       const CallGraphBuilder &CGB) {
  VarMethod = AU.U.empty({{AU.Src, AU.V1}, {AU.Mth, AU.M1}});
  std::vector<uint64_t> Tuples;
  for (size_t V = 0; V != AU.Prog.NumVars; ++V)
    Tuples.insert(Tuples.end(), {V, AU.Prog.VarMethod[V]});
  VarMethod.insertAll(Tuples);

  Relation PtBase = PTA.Pt.rename(AU.Obj, AU.BaseObj);

  // Direct effects: stores write, loads read (object, field) pairs,
  // attributed to the method containing the statement.
  Relation StoreBases =
      PTA.StoreR.project({AU.Src}, JEDD_SITE("se:wproj")); // <Base, Fld>
  Relation StoreOwned = StoreBases.rename(AU.Base, AU.Src)
                            .join(VarMethod, {AU.Src}, {AU.Src},
                                  JEDD_SITE("se:wown"));
  DirectWrite =
      StoreOwned.compose(PtBase, {AU.Src}, {AU.Src}, JEDD_SITE("se:wpt"));

  Relation LoadBases = PTA.LoadR.project({AU.Dst}, JEDD_SITE("se:rproj"));
  Relation LoadOwned = LoadBases.rename(AU.Base, AU.Src)
                           .join(VarMethod, {AU.Src}, {AU.Src},
                                 JEDD_SITE("se:rown"));
  DirectRead = LoadOwned.compose(PtBase, {AU.Src}, {AU.Src},
                                 JEDD_SITE("se:rpt"));

  // Method-level call edges <Mth, Callee>.
  Relation MethodEdges =
      CGB.CallerOf.join(CGB.Cg, {AU.Call}, {AU.Call}, JEDD_SITE("se:edges"))
          .projectTo({AU.Mth, AU.Callee}, JEDD_SITE("se:edges2"));

  // Total effects: everything a method's transitive callees do, the least
  // fixpoint of Total = Direct | edges . Total. The composition stays the
  // left operand of | so that the result's columns are <Mth, Fld, BaseObj>
  // (| keeps its left operand's schema order).
  auto addCallees = [&](const Relation &Direct, rel::Site At) {
    Relation Total = Direct;
    while (true) {
      // edges(m, callee) . total(callee, ...) — compare Callee with Mth.
      Relation Next =
          MethodEdges.compose(Total, {AU.Callee}, {AU.Mth}, At) | Total;
      if (Next == Total)
        return Next; // Not Total: at the first step it has Direct's order.
      Total = std::move(Next);
    }
  };
  TotalWrite = addCallees(DirectWrite, JEDD_SITE("se:totalw"));
  TotalRead = addCallees(DirectRead, JEDD_SITE("se:totalr"));
}
