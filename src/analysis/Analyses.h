//===- Analyses.h - The five whole-program analyses -------------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five interrelated whole-program analyses of Figure 2, written
/// against the relational runtime (the "Jedd version"):
///
///   Hierarchy ──> Virtual Call Resolution ──> Call Graph
///                       ^                        |
///   Points-to Analysis ─┘<───────────────────────┘ (on the fly)
///   Side-effect Analysis <── Points-to + Call Graph
///
/// plus the hand-coded points-to baseline written directly on the BDD
/// package (the "C++ version" of Table 2), and a naive set-based
/// reference implementation used as a test oracle.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_ANALYSIS_ANALYSES_H
#define JEDDPP_ANALYSIS_ANALYSES_H

#include "rel/Relation.h"
#include "soot/ProgramModel.h"

#include <map>
#include <set>
#include <utility>
#include <vector>

namespace jedd {
namespace analysis {

/// Declares the domains, attributes and physical domains the analyses
/// use, sized for one program, and owns the universe.
class AnalysisUniverse {
public:
  /// The default order spec (bdd/DomainPack.h): every physical domain in
  /// its own group, permuted from declaration order. Chosen by wall time
  /// over all five Table 2 presets (EXPERIMENTS.md, "Variable order");
  /// it gives the same tuples as every other order.
  static constexpr const char *DefaultOrder =
      "F1_C1_SG1_T1_T2_T3_M1_M2_V1_V2_V3_O1_O2";

  /// \p OrderSpec lays out the physical domains V1 ... C1 below ("" =
  /// declaration order); a malformed spec throws UsageError. \p Limits
  /// installs resource ceilings (node/byte/time budgets and an optional
  /// cancellation token — docs/robustness.md) on the shared BDD manager
  /// right after finalize(); the default is ungoverned.
  explicit AnalysisUniverse(const soot::Program &Prog,
                            const std::string &OrderSpec = DefaultOrder,
                            bdd::ResourceLimits Limits = {});

  rel::Universe U;
  const soot::Program &Prog;

  // Domains.
  rel::DomainId DVar, DObj, DType, DSig, DMeth, DField, DCall;
  // Attributes (paper-style names; several per domain so joins can keep
  // both sides).
  rel::AttributeId Src, Dst, Base;          ///< Variables.
  rel::AttributeId Obj, BaseObj;            ///< Allocation sites.
  rel::AttributeId Sub, Sup, RecT, TgtT, Typ; ///< Types.
  rel::AttributeId Sig;                     ///< Signatures.
  rel::AttributeId Mth, Callee;             ///< Methods.
  rel::AttributeId Fld;                     ///< Fields.
  rel::AttributeId Call;                    ///< Call sites.
  // Physical domains.
  rel::PhysDomId V1, V2, V3, O1, O2, T1, T2, T3, SG1, M1, M2, F1, C1;
};

/// Hierarchy module: the extend relation and its reflexive-transitive
/// closure (subtype).
class Hierarchy {
public:
  explicit Hierarchy(AnalysisUniverse &AU);
  /// Warm-start from checkpointed relations (analysis/Checkpoint.h).
  Hierarchy(rel::Relation Extend, rel::Relation Subtype)
      : Extend(std::move(Extend)), Subtype(std::move(Subtype)) {}

  rel::Relation Extend;  ///< <Sub, Sup>: immediate superclass.
  rel::Relation Subtype; ///< <Sub, Sup>: reflexive-transitive.
};

/// Virtual call resolution: the Figure 4 algorithm generalized to carry
/// the call site through the walk.
class VirtualCallResolver {
public:
  VirtualCallResolver(AnalysisUniverse &AU, const Hierarchy &H);
  /// Warm-start from a checkpointed declaring-class relation.
  VirtualCallResolver(AnalysisUniverse &AU, const Hierarchy &H,
                      rel::Relation DeclaresMethod)
      : DeclaresMethod(std::move(DeclaresMethod)), AU(AU), H(H) {}

  /// Declaring-class relation <Typ, Sig, Mth>.
  rel::Relation DeclaresMethod;

  /// Resolves <Call, Sig, RecT> receiver types to targets <Call, Mth>.
  rel::Relation resolve(const rel::Relation &ReceiverTypes) const;

private:
  AnalysisUniverse &AU;
  const Hierarchy &H;
};

/// Subset-based, context- and flow-insensitive points-to analysis in the
/// style of Berndl et al. [5].
class PointsToAnalysis {
public:
  explicit PointsToAnalysis(AnalysisUniverse &AU);

  /// Warm-start from checkpointed solution + fact relations (ordered as
  /// the members below). The instance is at its fixpoint: solve() would
  /// report no change.
  PointsToAnalysis(AnalysisUniverse &AU, rel::Relation Pt,
                   rel::Relation FieldPt, rel::Relation AllocR,
                   rel::Relation AssignR, rel::Relation LoadR,
                   rel::Relation StoreR)
      : Pt(std::move(Pt)), FieldPt(std::move(FieldPt)),
        AllocR(std::move(AllocR)), AssignR(std::move(AssignR)),
        LoadR(std::move(LoadR)), StoreR(std::move(StoreR)), AU(AU) {}

  /// Adds the pointer statements of a batch of methods, one insertAll
  /// per fact relation.
  void addMethodFacts(const std::vector<soot::Id> &Methods);
  /// Adds the alloc, assign, load and store batches of \p Facts, one
  /// insertAll per fact relation.
  void addFacts(const soot::MethodFacts &Facts);
  /// Adds a batch of (src, dst) copy edges with one insertAll.
  void addAssignEdges(
      const std::vector<std::pair<soot::Id, soot::Id>> &Edges);

  /// Propagates to a fixpoint; returns true if anything changed.
  bool solve();

  rel::Relation Pt;      ///< <Src, Obj>: variable points-to.
  rel::Relation FieldPt; ///< <BaseObj, Fld, Obj>: heap points-to.

  rel::Relation AllocR;  ///< <Src, Obj>.
  rel::Relation AssignR; ///< <Src, Dst>.
  rel::Relation LoadR;   ///< <Base, Fld, Dst>.
  rel::Relation StoreR;  ///< <Src, Base, Fld>.

private:
  AnalysisUniverse &AU;
};

/// Call graph construction, on the fly with points-to: discovers
/// reachable methods, resolves their calls through the points-to sets,
/// and feeds argument/return assignments back into the points-to
/// analysis until both stabilize.
class CallGraphBuilder {
public:
  CallGraphBuilder(AnalysisUniverse &AU, Hierarchy &H,
                   VirtualCallResolver &VCR, PointsToAnalysis &PTA);

  /// Warm-start from checkpointed relations plus the reachable-method
  /// set. The instance is at its fixpoint; run() must not be called on
  /// it.
  CallGraphBuilder(AnalysisUniverse &AU, Hierarchy &H,
                   VirtualCallResolver &VCR, PointsToAnalysis &PTA,
                   rel::Relation SiteType, rel::Relation CallRecvSig,
                   rel::Relation CallerOf, rel::Relation Cg,
                   std::set<soot::Id> ReachableMethods)
      : SiteType(std::move(SiteType)), CallRecvSig(std::move(CallRecvSig)),
        CallerOf(std::move(CallerOf)), Cg(std::move(Cg)), AU(AU), H(H),
        VCR(VCR), PTA(PTA), Reachable(std::move(ReachableMethods)) {}

  /// Runs from the program's entry method to a joint fixpoint.
  void run();

  rel::Relation SiteType;    ///< <Obj, Typ>: allocation-site class.
  rel::Relation CallRecvSig; ///< <Call, Src, Sig>: call-site facts.
  rel::Relation CallerOf;    ///< <Call, Mth>: enclosing method.
  rel::Relation Cg;          ///< <Call, Callee>: the call graph.

  const std::set<soot::Id> &reachableMethods() const { return Reachable; }
  /// Number of points-to/call-graph alternations until the fixpoint.
  unsigned rounds() const { return Rounds; }

private:
  AnalysisUniverse &AU;
  Hierarchy &H;
  VirtualCallResolver &VCR;
  PointsToAnalysis &PTA;
  std::set<soot::Id> Reachable;
  unsigned Rounds = 0;

  /// Marks methods reachable and adds the facts of the new ones, one
  /// batch per fact relation.
  void makeReachable(const std::vector<soot::Id> &Methods);
  /// Registers one round's new (call site, callee) edges: their callees
  /// become reachable and their copy edges join AssignR, in batches.
  void addCallEdges(
      const std::vector<std::pair<soot::Id, soot::Id>> &Edges);
};

/// Side-effect analysis: per-method read/write sets over (object, field)
/// pairs, both direct and transitively through the call graph.
class SideEffectAnalysis {
public:
  SideEffectAnalysis(AnalysisUniverse &AU, const PointsToAnalysis &PTA,
                     const CallGraphBuilder &CGB);
  /// Warm-start from checkpointed relations (ordered as the members).
  SideEffectAnalysis(rel::Relation VarMethod, rel::Relation DirectRead,
                     rel::Relation DirectWrite, rel::Relation TotalRead,
                     rel::Relation TotalWrite)
      : VarMethod(std::move(VarMethod)), DirectRead(std::move(DirectRead)),
        DirectWrite(std::move(DirectWrite)), TotalRead(std::move(TotalRead)),
        TotalWrite(std::move(TotalWrite)) {}

  rel::Relation VarMethod;   ///< <Src, Mth>: declaring method.
  rel::Relation DirectRead;  ///< <Mth, BaseObj, Fld>.
  rel::Relation DirectWrite; ///< <Mth, BaseObj, Fld>.
  rel::Relation TotalRead;   ///< Including callees, transitively.
  rel::Relation TotalWrite;
};

//===----------------------------------------------------------------------===//
// Baselines
//===----------------------------------------------------------------------===//

/// Points-to written directly against the BDD package with hand-managed
/// physical domains — the "hand-coded C++" baseline of Table 2. Consumes
/// a fixed statement set (facts must be complete up front).
class HandCodedPointsTo {
public:
  /// The default order spec: its five domains in the relative order of
  /// AnalysisUniverse::DefaultOrder, so Table 2 compares like with like.
  static constexpr const char *DefaultOrder = "F1_V1_V2_O1_O2";

  explicit HandCodedPointsTo(const soot::Program &Prog,
                             const std::string &OrderSpec = DefaultOrder);

  /// Adds facts: all statements of the program plus \p ExtraAssigns.
  void loadFacts(const std::vector<std::pair<soot::Id, soot::Id>>
                     &ExtraAssigns);
  void solve();

  /// The result as explicit pairs (var, site), for comparison.
  std::vector<std::pair<uint64_t, uint64_t>> pointsToPairs();
  double pointsToSize();

  bdd::Manager &manager() { return Pack.manager(); }

private:
  const soot::Program &Prog;
  bdd::DomainPack Pack;
  bdd::PhysDomId V1, V2, O1, O2, F1;
  bdd::Bdd Pt, FieldPt, Alloc, Assign, Load, Store;
};

/// Naive set-based implementations used as oracles in tests. Quadratic;
/// small programs only.
struct ReferenceResults {
  /// pointsTo[var] = set of sites.
  std::vector<std::set<soot::Id>> PointsTo;
  /// callGraph[callIndex] = set of target methods.
  std::vector<std::set<soot::Id>> CallGraph;
  std::set<soot::Id> ReachableMethods;
  /// (method, site, field) write/read effects, transitive.
  std::set<std::tuple<soot::Id, soot::Id, soot::Id>> TotalWrite;
  std::set<std::tuple<soot::Id, soot::Id, soot::Id>> TotalRead;
};

/// Computes points-to + call graph + side effects with explicit sets and
/// worklists (on-the-fly reachability, like the relational version).
ReferenceResults computeReference(const soot::Program &Prog);

/// Interprocedural copy edges induced by a class-hierarchy-analysis call
/// graph over all methods (receiver may be any class implementing the
/// signature). Very imprecise; small test programs only.
std::vector<std::pair<soot::Id, soot::Id>>
chaAssignEdges(const soot::Program &Prog);

/// Interprocedural copy edges of the on-the-fly call graph (computed by
/// the reference implementation). This is the fixed statement set the
/// Table 2 points-to-only comparison feeds to both implementations.
std::vector<std::pair<soot::Id, soot::Id>>
onTheFlyAssignEdges(const soot::Program &Prog);

} // namespace analysis
} // namespace jedd

#endif // JEDDPP_ANALYSIS_ANALYSES_H
