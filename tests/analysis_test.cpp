//===- analysis_test.cpp - Tests for the five whole-program analyses ------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Correctness of the relational analyses: hand-crafted programs with
/// known answers, differential tests against the naive set-based oracle,
/// and equality of the hand-coded BDD points-to with the relational one
/// (the precondition for Table 2's timing comparison to be meaningful).
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyses.h"
#include "analysis/Checkpoint.h"
#include "io/Io.h"
#include "obs/Obs.h"
#include "soot/Generator.h"
#include "util/Error.h"
#include "util/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <string_view>

using namespace jedd;
using namespace jedd::analysis;
using soot::Id;
using soot::NoId;
using soot::Program;

namespace {

/// Every method of \p P, for loading all of its statements at once.
std::vector<Id> allMethods(const Program &P) {
  std::vector<Id> Methods(P.Methods.size());
  std::iota(Methods.begin(), Methods.end(), 0);
  return Methods;
}

/// A tiny hand-crafted program:
///   class A { m0() { } }  class B extends A { m1() { } }
///   entry m0@A: v0 = new B(site0); v1 = v0; v0.m1();  (resolves to B.m1)
///   B.m1: this.f0 = new A(site1); v5 = this.f0;
Program tinyProgram() {
  Program P;
  P.Klasses.push_back({"A", NoId});
  P.Klasses.push_back({"B", 0});
  P.Sigs.push_back({"m0()"});
  P.Sigs.push_back({"m1()"});
  P.Fields.push_back("f0");

  // Method 0: A.m0 (entry). Method 1: B.m1.
  soot::Method M0;
  M0.Klass = 0;
  M0.Sig = 0;
  soot::Method M1;
  M1.Klass = 1;
  M1.Sig = 1;

  // Variables: 0=v0(m0), 1=v1(m0), 2=this(m1), 3=v5(m1), 4=ret(m1),
  // 5=this(m0).
  P.NumVars = 6;
  P.VarMethod = {0, 0, 1, 1, 1, 0};
  M0.ThisVar = 5;
  M1.ThisVar = 2;
  M1.RetVar = 4;
  P.Methods.push_back(M0);
  P.Methods.push_back(M1);

  // Sites: 0 of class B, 1 of class A.
  P.NumSites = 2;
  P.SiteType = {1, 0};

  P.Allocs.push_back({0, 0});  // v0 = new B.
  P.Assigns.push_back({1, 0}); // v1 = v0.
  P.Allocs.push_back({4, 1});  // (in m1) ret = new A.
  P.Stores.push_back({2, 0, 4}); // this.f0 = ret.
  P.Loads.push_back({3, 2, 0});  // v5 = this.f0.

  soot::CallSite C;
  C.Caller = 0;
  C.Sig = 1; // m1().
  C.RecvVar = 0;
  C.RetDstVar = 1;
  P.Calls.push_back(C);

  P.EntryMethod = 0;
  std::string Error;
  [[maybe_unused]] bool Valid = P.validate(Error);
  assert(Valid && "tiny program must validate");
  return P;
}

/// The index of \p Attr in \p R's tuples.
size_t column(const rel::Relation &R, rel::AttributeId Attr) {
  size_t I = 0;
  while (R.schema()[I].Attr != Attr)
    ++I;
  return I;
}

/// The (method, site, field) triples of a side-effect relation.
std::set<std::tuple<Id, Id, Id>> effectTriples(const AnalysisUniverse &AU,
                                               const rel::Relation &R) {
  size_t M = column(R, AU.Mth), S = column(R, AU.BaseObj),
         F = column(R, AU.Fld);
  std::set<std::tuple<Id, Id, Id>> Out;
  for (const std::vector<uint64_t> &T : R.tuples())
    Out.insert({static_cast<Id>(T[M]), static_cast<Id>(T[S]),
                static_cast<Id>(T[F])});
  return Out;
}

/// Checks heap points-to <BaseObj, Fld, Obj> tuple for tuple against
/// the oracle's bitsets, streaming the relation: every tuple is the
/// oracle's, and there are as many as the oracle has.
void expectFieldPtMatches(const AnalysisUniverse &AU,
                          const rel::Relation &FieldPt,
                          const ReferenceResults &Ref) {
  size_t B = column(FieldPt, AU.BaseObj), F = column(FieldPt, AU.Fld),
         O = column(FieldPt, AU.Obj);
  uint64_t Matched = 0, Unexpected = 0;
  FieldPt.iterate([&](const std::vector<uint64_t> &T) {
    auto It = Ref.FieldPt.find({static_cast<Id>(T[B]), static_cast<Id>(T[F])});
    if (It != Ref.FieldPt.end() && T[O] < It->second.size() &&
        It->second.test(T[O]))
      ++Matched;
    else
      ++Unexpected;
    return true;
  });
  uint64_t RefTriples = 0;
  for (const auto &[Key, Sites] : Ref.FieldPt)
    RefTriples += Sites.count();
  EXPECT_EQ(Unexpected, 0u);
  EXPECT_EQ(Matched, RefTriples);
}

/// Checks points-to, heap points-to, call graph, reachable methods and
/// both transitive effect sets tuple for tuple against the naive
/// set-based oracle.
void expectMatchesReference(const AnalysisUniverse &AU,
                            const CheckpointedAnalysis &A,
                            const ReferenceResults &Ref) {
  std::vector<std::vector<uint64_t>> Pt, Cg;
  for (size_t V = 0; V != Ref.PointsTo.size(); ++V)
    for (Id Site : Ref.PointsTo[V])
      Pt.push_back({V, Site});
  for (size_t C = 0; C != Ref.CallGraph.size(); ++C)
    for (Id Method : Ref.CallGraph[C])
      Cg.push_back({C, Method});
  EXPECT_EQ(A.PTA->Pt.tuples(), Pt);
  expectFieldPtMatches(AU, A.PTA->FieldPt, Ref);
  EXPECT_EQ(A.CGB->Cg.tuples(), Cg);
  EXPECT_EQ(A.CGB->reachableMethods(), Ref.ReachableMethods);
  EXPECT_EQ(effectTriples(AU, A.SEA->TotalWrite), Ref.TotalWrite);
  EXPECT_EQ(effectTriples(AU, A.SEA->TotalRead), Ref.TotalRead);
  // The tuple counts agree with the tuple lists.
  EXPECT_EQ(A.PTA->Pt.sizeExact().toString(), std::to_string(Pt.size()));
  EXPECT_EQ(A.SEA->TotalRead.size(),
            static_cast<double>(Ref.TotalRead.size()));
}

TEST(Hierarchy, ComputesReflexiveTransitiveSubtypes) {
  Program P = tinyProgram();
  AnalysisUniverse AU(P);
  Hierarchy H(AU);
  EXPECT_DOUBLE_EQ(H.Extend.size(), 1.0);
  EXPECT_TRUE(H.Extend.contains({1, 0}));
  // Subtype: (A,A), (B,B), (B,A).
  EXPECT_DOUBLE_EQ(H.Subtype.size(), 3.0);
  EXPECT_TRUE(H.Subtype.contains({0, 0}));
  EXPECT_TRUE(H.Subtype.contains({1, 1}));
  EXPECT_TRUE(H.Subtype.contains({1, 0}));
}

TEST(Hierarchy, DeepChain) {
  Program P;
  P.Klasses.push_back({"K0", NoId});
  for (unsigned K = 1; K != 10; ++K)
    P.Klasses.push_back({"K", K - 1});
  AnalysisUniverse AU(P);
  Hierarchy H(AU);
  // Chain of 10: closure has 10*11/2 pairs.
  EXPECT_DOUBLE_EQ(H.Subtype.size(), 55.0);
  EXPECT_TRUE(H.Subtype.contains({9, 0}));
  EXPECT_FALSE(H.Subtype.contains({0, 9}));
}

TEST(VirtualCalls, ResolvesThroughTheHierarchy) {
  Program P = tinyProgram();
  AnalysisUniverse AU(P);
  Hierarchy H(AU);
  VirtualCallResolver VCR(AU, H);

  // Receiver of type B at call 0 with signature m1: target B.m1.
  rel::Relation Receivers = AU.U.empty(
      {{AU.Call, AU.C1}, {AU.Sig, AU.SG1}, {AU.RecT, AU.T1}});
  Receivers.insert({0, 1, 1});
  rel::Relation Targets = VCR.resolve(Receivers);
  EXPECT_DOUBLE_EQ(Targets.size(), 1.0);
  EXPECT_TRUE(Targets.contains({0, 1}));

  // Receiver of type B with signature m0: inherited A.m0.
  rel::Relation Receivers2 = AU.U.empty(
      {{AU.Call, AU.C1}, {AU.Sig, AU.SG1}, {AU.RecT, AU.T1}});
  Receivers2.insert({0, 0, 1});
  rel::Relation Targets2 = VCR.resolve(Receivers2);
  EXPECT_TRUE(Targets2.contains({0, 0}));
}

TEST(WholeProgram, TinyProgramEndToEnd) {
  Program P = tinyProgram();
  AnalysisUniverse AU(P);
  CheckpointedAnalysis WPA(AU, "");
  WPA.run();

  // Points-to: v0 -> site0; v1 -> site0 (copy) and site1 (return of m1);
  // this(m1) -> site0; ret -> site1; v5 -> site1 (through the heap).
  EXPECT_TRUE(WPA.PTA->Pt.contains({0, 0}));
  EXPECT_TRUE(WPA.PTA->Pt.contains({1, 0}));
  EXPECT_TRUE(WPA.PTA->Pt.contains({1, 1})); // Return value.
  EXPECT_TRUE(WPA.PTA->Pt.contains({2, 0})); // this of m1.
  EXPECT_TRUE(WPA.PTA->Pt.contains({4, 1}));
  EXPECT_TRUE(WPA.PTA->Pt.contains({3, 1})); // Heap round trip.

  // FieldPt: site0.f0 -> site1.
  EXPECT_TRUE(WPA.PTA->FieldPt.contains({0, 0, 1}));

  // Call graph: call 0 -> B.m1 (method 1); both methods reachable.
  EXPECT_DOUBLE_EQ(WPA.CGB->Cg.size(), 1.0);
  EXPECT_TRUE(WPA.CGB->Cg.contains({0, 1}));
  EXPECT_EQ(WPA.CGB->reachableMethods(),
            (std::set<Id>{0, 1}));

  // Side effects: m1 writes (site0, f0) and reads it; m0 inherits both
  // transitively through the call. Tuples are <Mth, Fld, BaseObj>; the
  // m1 tuples pin that column order, which every {0, 0, 0} satisfies.
  EXPECT_TRUE(WPA.SEA->TotalWrite.contains({1, 0, 0}));
  EXPECT_TRUE(WPA.SEA->TotalWrite.contains({0, 0, 0}));
  EXPECT_TRUE(WPA.SEA->TotalRead.contains({1, 0, 0}));
  EXPECT_TRUE(WPA.SEA->TotalRead.contains({0, 0, 0}));
}

TEST(WholeProgram, UnreachableCodeContributesNothing) {
  Program P = tinyProgram();
  // Add an unreachable method with its own allocation.
  soot::Method M2;
  M2.Klass = 0;
  M2.Sig = 1; // A.m1 — but entry never calls on an A receiver.
  M2.ThisVar = static_cast<Id>(P.NumVars++);
  P.VarMethod.push_back(2);
  Id DeadVar = static_cast<Id>(P.NumVars++);
  P.VarMethod.push_back(2);
  P.Methods.push_back(M2);
  P.NumSites++;
  P.SiteType.push_back(0);
  P.Allocs.push_back({DeadVar, 2});

  AnalysisUniverse AU(P);
  CheckpointedAnalysis WPA(AU, "");
  WPA.run();
  EXPECT_EQ(WPA.CGB->reachableMethods().count(2), 0u);
  EXPECT_FALSE(WPA.PTA->Pt.contains({DeadVar, 2}));
}

//===----------------------------------------------------------------------===//
// Differential testing against the naive oracle
//===----------------------------------------------------------------------===//

struct DifferentialCase {
  uint64_t Seed;
  unsigned AssignsPerMethod;
};

/// Prints a case as its seed, so each test is named after its seed (the
/// seeds differ across the sets) rather than after the struct's bytes.
void PrintTo(const DifferentialCase &C, std::ostream *OS) { *OS << C.Seed; }

class AnalysisDifferentialTest
    : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(AnalysisDifferentialTest, MatchesReferenceImplementation) {
  soot::GeneratorParams Params;
  Params.NumClasses = 12;
  Params.NumSignatures = 8;
  Params.MethodsPerClass = 2;
  Params.NumFields = 4;
  Params.VarsPerMethod = 4;
  Params.AllocsPerMethod = 1;
  Params.AssignsPerMethod = GetParam().AssignsPerMethod;
  Params.LoadsPerMethod = 1;
  Params.StoresPerMethod = 1;
  Params.CallsPerMethod = 2;
  Params.Seed = GetParam().Seed;
  Program P = soot::generateProgram(Params);

  AnalysisUniverse AU(P);
  CheckpointedAnalysis WPA(AU, "");
  WPA.run();
  expectMatchesReference(AU, WPA, computeReference(P));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisDifferentialTest,
                         ::testing::Values(DifferentialCase{11, 3},
                                           DifferentialCase{12, 3},
                                           DifferentialCase{13, 3},
                                           DifferentialCase{14, 3},
                                           DifferentialCase{15, 3},
                                           DifferentialCase{16, 3}));
// Eight copies per method make assignment chains that take the copy
// rule's inner fixpoint several steps.
INSTANTIATE_TEST_SUITE_P(LongCopyChains, AnalysisDifferentialTest,
                         ::testing::Values(DifferentialCase{31, 8},
                                           DifferentialCase{32, 8},
                                           DifferentialCase{33, 8},
                                           DifferentialCase{34, 8}));

//===----------------------------------------------------------------------===//
// Hand-coded baseline equivalence (precondition of Table 2)
//===----------------------------------------------------------------------===//

class BaselineEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BaselineEquivalenceTest, HandCodedMatchesRelational) {
  soot::GeneratorParams Params;
  Params.NumClasses = 15;
  Params.NumSignatures = 10;
  Params.Seed = GetParam();
  Program P = soot::generateProgram(Params);
  std::vector<std::pair<Id, Id>> Extra = chaAssignEdges(P);

  // Hand-coded version.
  HandCodedPointsTo Hand(P);
  Hand.loadFacts(Extra);
  Hand.solve();

  // Relational version over the same facts (all methods, CHA edges).
  AnalysisUniverse AU(P);
  PointsToAnalysis PTA(AU);
  PTA.addMethodFacts(allMethods(P));
  PTA.addAssignEdges(Extra);
  PTA.solve();

  EXPECT_DOUBLE_EQ(PTA.Pt.size(), Hand.pointsToSize());
  auto HandPairs = Hand.pointsToPairs();
  auto RelPairs = PTA.Pt.tuples();
  ASSERT_EQ(RelPairs.size(), HandPairs.size());
  for (size_t I = 0; I != HandPairs.size(); ++I) {
    EXPECT_EQ(RelPairs[I][0], HandPairs[I].first);
    EXPECT_EQ(RelPairs[I][1], HandPairs[I].second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineEquivalenceTest,
                         ::testing::Values(21, 22, 23, 24));

TEST(BaselineOrder, HandCodedDefaultFollowsTheUniverseDefault) {
  // Table 2 compares like with like only if the hand-coded version lays
  // out its five domains as the relational default does.
  auto Names = [](std::string_view Spec) {
    std::vector<std::string_view> Out;
    for (size_t End = Spec.find('_'); End != Spec.npos;
         End = Spec.find('_')) {
      Out.push_back(Spec.substr(0, End));
      Spec.remove_prefix(End + 1);
    }
    Out.push_back(Spec);
    return Out;
  };
  std::vector<std::string_view> Hand = Names(HandCodedPointsTo::DefaultOrder);
  std::vector<std::string_view> Filtered;
  for (std::string_view Name : Names(AnalysisUniverse::DefaultOrder))
    if (std::find(Hand.begin(), Hand.end(), Name) != Hand.end())
      Filtered.push_back(Name);
  EXPECT_EQ(Hand.size(), 5u);
  EXPECT_EQ(Filtered, Hand);
}

//===----------------------------------------------------------------------===//
// Bit-order ablation sanity: results agree across variable orders
//===----------------------------------------------------------------------===//

TEST(BitOrderAblation, ResultsAgreeAcrossOrders) {
  soot::GeneratorParams Params;
  Params.NumClasses = 15;
  Params.Seed = 5;
  Program P = soot::generateProgram(Params);
  std::vector<std::pair<Id, Id>> Extra = onTheFlyAssignEdges(P);
  ReferenceResults Ref = computeReference(P);
  std::vector<std::vector<uint64_t>> RefPairs;
  for (size_t V = 0; V != Ref.PointsTo.size(); ++V)
    for (Id Site : Ref.PointsTo[V])
      RefPairs.push_back({V, Site});
  ASSERT_FALSE(RefPairs.empty());

  for (const char *Order :
       {"V1xV2xV3xO1xO2xT1xT2xT3xSG1xM1xM2xF1xC1", "",
        AnalysisUniverse::DefaultOrder,
        "F1_C1_M1xM2_SG1_T1xT2xT3_V1xV2xV3_O1xO2"}) {
    AnalysisUniverse AU(P, Order);
    PointsToAnalysis PTA(AU);
    PTA.addMethodFacts(allMethods(P));
    PTA.addAssignEdges(Extra);
    size_t Before = AU.U.manager().stats().ReorderingReplaces;
    PTA.solve();
    EXPECT_EQ(PTA.Pt.tuples(), RefPairs) << "order '" << Order << "'";
    // Under the default order every replace on the fixpoint path keeps
    // the variable order: the only two kinds move Pt's V1 to V2
    // (pt:copy) and its (V1, O1) to (V2, O2) (pt:base), and V2 lies
    // above O1 and O2, so neither goes through the ITE rebuild.
    if (std::string_view(Order) == AnalysisUniverse::DefaultOrder) {
      EXPECT_EQ(AU.U.manager().stats().ReorderingReplaces, Before);
    }
  }
}

//===----------------------------------------------------------------------===//
// Physical-domain layout of the points-to fixpoint
//===----------------------------------------------------------------------===//

/// Runs \p Body with the tracer keeping totals, and returns its span
/// counts in \p Category: relational ones keyed "op@site", others "op".
template <typename Fn>
std::map<std::string, uint64_t> spanCounts(obs::Cat Category, Fn &&Body) {
  obs::Tracer &T = obs::Tracer::instance();
  T.clear();
  T.setLevel(obs::Level::Metrics);
  Body();
  T.setLevel(obs::Level::Off);
  std::map<std::string, uint64_t> Counts;
  for (const auto &[Key, Totals] : T.totals())
    if (Key.Category == Category)
      Counts[Category == obs::Cat::Rel ? Key.Name + ("@" + Key.SiteLabel)
                                       : Key.Name] += Totals.Count;
  T.clear();
  return Counts;
}

TEST(FixpointLayout, OnlyPtIsReplaced) {
  soot::GeneratorParams Params;
  Params.NumClasses = 15;
  Params.Seed = 5;
  Program P = soot::generateProgram(Params);
  std::vector<std::pair<Id, Id>> Extra = onTheFlyAssignEdges(P);

  // The relational version: compositions quantify V2 and land in Pt's
  // or FieldPt's layout, so the only replaces are of Pt, one for each
  // pt:copy step's alignment and one pt:base view per iteration (whose
  // single pt:store1 composition counts the iterations), and nothing
  // else. The copy rule runs to its own fixpoint inside each iteration.
  AnalysisUniverse AU(P);
  PointsToAnalysis PTA(AU);
  PTA.addMethodFacts(allMethods(P));
  PTA.addAssignEdges(Extra);
  auto Rel = spanCounts(obs::Cat::Rel, [&] { PTA.solve(); });
  uint64_t Iterations = Rel["compose@pt:store1"];
  ASSERT_GE(Iterations, 2u);
  EXPECT_GT(Rel["compose@pt:copy"], Iterations);
  uint64_t Composes = 0, Replaces = 0;
  for (auto &[Key, Count] : Rel) {
    if (Key.rfind("compose@pt:", 0) == 0)
      Composes += Count;
    if (Key.rfind("replace@", 0) == 0) {
      EXPECT_TRUE(Key == "replace@pt:copy" || Key == "replace@pt:base")
          << Key;
      Replaces += Count;
    }
  }
  EXPECT_EQ(Rel["replace@pt:copy"], Rel["compose@pt:copy"]);
  EXPECT_EQ(Rel["replace@pt:base"], Iterations);
  EXPECT_EQ(Composes, 50u);
  EXPECT_EQ(Replaces, 38u);

  // The hand-coded version runs the same steps in the same layout: one
  // relational product per composition, one replace per relational
  // replace.
  HandCodedPointsTo Hand(P);
  Hand.loadFacts(Extra);
  auto Bdd = spanCounts(obs::Cat::Bdd, [&] { Hand.solve(); });
  EXPECT_EQ(Bdd["relProd"], Composes);
  EXPECT_EQ(Bdd["replace"], Replaces);
}

//===----------------------------------------------------------------------===//
// Pinned kernel counters
//===----------------------------------------------------------------------===//

// The five analyses on the javac preset, as `jeddanalyze --benchmark
// javac` and perfbench's `analyze` run them. The BDD kernel's work is
// pinned: a change to its memory layout (node, cache entry, pool) must
// create the same nodes, collect at the same points and grow the pool to
// the same size. The figures are those of the points-to fixpoint that
// runs the copy rule to its own fixpoint inside each iteration, and of
// side effects computed as least fixpoints over the direct effects (no
// method closure). A change to either schedule moves the three kernel
// counters (the side-effect one moved only the node count), never the
// rounds or the tuple counts.
TEST(KernelPinned, JavacAnalyses) {
  Program P = soot::generateProgram(soot::benchmarkPreset("javac"));
  AnalysisUniverse AU(P);
  Hierarchy H(AU);
  VirtualCallResolver VCR(AU, H);
  PointsToAnalysis PTA(AU);
  CallGraphBuilder CGB(AU, H, VCR, PTA);
  CGB.run();
  SideEffectAnalysis SEA(AU, PTA, CGB);

  bdd::ManagerStats S = AU.U.manager().stats();
  EXPECT_EQ(S.NodesCreated, 271679u);
  EXPECT_EQ(S.GcRuns, 6u);
  EXPECT_EQ(S.Capacity, 65536u);
  EXPECT_EQ(CGB.rounds(), 9u);
  EXPECT_EQ(PTA.Pt.sizeExact().toString(), "161934");
  EXPECT_EQ(PTA.FieldPt.sizeExact().toString(), "989016");
  EXPECT_EQ(CGB.Cg.sizeExact().toString(), "1336");
  EXPECT_EQ(SEA.TotalWrite.sizeExact().toString(), "501816");
  EXPECT_EQ(SEA.TotalRead.sizeExact().toString(), "501919");
}

// Every collection shows as one gc.collect span, so over one analysis
// the tracer's totals count ManagerStats::GcRuns.
TEST(SpanTotals, GcCollectCountIsGcRuns) {
  Program P = soot::generateProgram(soot::benchmarkPreset("javac"));
  size_t GcRuns = 0;
  auto Gc = spanCounts(obs::Cat::Gc, [&] {
    AnalysisUniverse AU(P);
    Hierarchy H(AU);
    VirtualCallResolver VCR(AU, H);
    PointsToAnalysis PTA(AU);
    CallGraphBuilder CGB(AU, H, VCR, PTA);
    CGB.run();
    SideEffectAnalysis SEA(AU, PTA, CGB);
    GcRuns = AU.U.manager().stats().GcRuns;
  });
  EXPECT_GT(GcRuns, 0u);
  EXPECT_EQ(Gc["collect"], GcRuns);
}

//===----------------------------------------------------------------------===//
// Checkpoint / warm-start pipeline
//===----------------------------------------------------------------------===//

/// Clears the four stage files so a test's cold run is actually cold
/// even when a previous test execution left checkpoints behind.
void wipeCheckpointDir(const std::string &Dir) {
  for (const char *Stage :
       {"hierarchy", "vcr", "callgraph", "sideeffects"})
    std::remove((Dir + "/" + Stage + ".jdd").c_str());
}

TEST(Checkpoint, InspectReportsLiveNodeCountsUnderDefaultOrder) {
  soot::GeneratorParams Params;
  Params.NumClasses = 10;
  Params.Seed = 21;
  Program P = soot::generateProgram(Params);
  AnalysisUniverse AU(P);
  CheckpointedAnalysis WPA(AU, "");
  WPA.run();
  std::vector<io::NamedRelation> Rels = {{"pt", WPA.PTA->Pt},
                                         {"fieldpt", WPA.PTA->FieldPt},
                                         {"cg", WPA.CGB->Cg},
                                         {"read", WPA.SEA->TotalRead},
                                         {"write", WPA.SEA->TotalWrite}};
  std::string Image;
  ASSERT_TRUE(io::saveCheckpoint(AU.U, Rels, Image, 0).ok());

  io::InspectInfo Info;
  io::Error E = io::inspectImage(Image, Info);
  ASSERT_TRUE(E.ok()) << E.toString();
  EXPECT_EQ(Info.Order, AnalysisUniverse::DefaultOrder);
  ASSERT_EQ(Info.Relations.size(), Rels.size());
  for (size_t I = 0; I != Rels.size(); ++I) {
    EXPECT_EQ(Info.Relations[I].Nodes, Rels[I].Rel.nodeCount())
        << Rels[I].Name;
    EXPECT_EQ(Info.Relations[I].Tuples, Rels[I].Rel.sizeExact().toString())
        << Rels[I].Name;
  }
}

TEST(Checkpoint, WarmStartReproducesResultsWithoutRelationalWork) {
  soot::GeneratorParams Params;
  Params.NumClasses = 10;
  Params.Seed = 21;
  Program P = soot::generateProgram(Params);
  std::string Dir = ::testing::TempDir() + "jeddpp_ckpt_warm";
  wipeCheckpointDir(Dir);

  // Cold run: every stage computed and checkpointed.
  bdd::SatCount PtSize, FieldPtSize, CgSize, ReadSize, WriteSize;
  std::set<Id> Reachable;
  {
    AnalysisUniverse AU(P);
    CheckpointedAnalysis Cold(AU, Dir);
    Cold.run();
    for (const CheckpointedAnalysis::StageStatus &St : Cold.stages()) {
      EXPECT_FALSE(St.WarmStarted) << St.Name << ": " << St.Note;
      EXPECT_TRUE(St.Saved) << St.Name << ": " << St.Note;
    }
    PtSize = Cold.PTA->Pt.sizeExact();
    FieldPtSize = Cold.PTA->FieldPt.sizeExact();
    CgSize = Cold.CGB->Cg.sizeExact();
    ReadSize = Cold.SEA->TotalRead.sizeExact();
    WriteSize = Cold.SEA->TotalWrite.sizeExact();
    Reachable = Cold.CGB->reachableMethods();
  }

  // Warm run in a fresh universe with tracing on: every stage loads,
  // every result is identical, and the trace holds no relational-op
  // spans at all — the stages were genuinely skipped, not recomputed.
  obs::Tracer &Tracer = obs::Tracer::instance();
  Tracer.clear();
  Tracer.setTracing(true);
  {
    AnalysisUniverse AU(P);
    CheckpointedAnalysis Warm(AU, Dir);
    Warm.run();
    for (const CheckpointedAnalysis::StageStatus &St : Warm.stages())
      EXPECT_TRUE(St.WarmStarted) << St.Name << ": " << St.Note;
    EXPECT_EQ(Warm.PTA->Pt.sizeExact(), PtSize);
    EXPECT_EQ(Warm.PTA->FieldPt.sizeExact(), FieldPtSize);
    EXPECT_EQ(Warm.CGB->Cg.sizeExact(), CgSize);
    EXPECT_EQ(Warm.SEA->TotalRead.sizeExact(), ReadSize);
    EXPECT_EQ(Warm.SEA->TotalWrite.sizeExact(), WriteSize);
    EXPECT_EQ(Warm.CGB->reachableMethods(), Reachable);
  }
  std::string Metrics = Tracer.metricsJson("warm_start_test");
  Tracer.setTracing(false);
  Tracer.clear();

  JsonValue Root;
  std::string Error;
  ASSERT_TRUE(parseJson(Metrics, Root, Error)) << Error;
  const JsonValue *Spans = Root.get("spans");
  ASSERT_TRUE(Spans && Spans->isArray());
  bool SawIoLoad = false;
  for (const JsonValue &Row : Spans->Arr) {
    const std::string &Cat = Row.get("cat")->Str, &Op = Row.get("op")->Str;
    EXPECT_NE(Cat, "rel") << "warm start ran a relational operation: "
                          << Op;
    if (Cat == "io" && Op == "load")
      SawIoLoad = true;
  }
  EXPECT_TRUE(SawIoLoad) << "warm start recorded no io.load span";
}

TEST(Checkpoint, ChangedFactsForceRecompute) {
  soot::GeneratorParams Params;
  Params.NumClasses = 8;
  Params.Seed = 33;
  Program P = soot::generateProgram(Params);
  std::string Dir = ::testing::TempDir() + "jeddpp_ckpt_stale";
  wipeCheckpointDir(Dir);

  {
    AnalysisUniverse AU(P);
    CheckpointedAnalysis Cold(AU, Dir);
    Cold.run();
    for (const CheckpointedAnalysis::StageStatus &St : Cold.stages())
      EXPECT_TRUE(St.Saved) << St.Name << ": " << St.Note;
  }

  // One extra assignment changes the facts hash: every checkpoint is
  // stale and every stage must recompute (and re-checkpoint).
  ASSERT_GE(P.NumVars, 2u);
  soot::Id Dst = 0;
  // Pick two variables of one method so the program stays valid.
  for (size_t V = 1; V != P.NumVars; ++V)
    if (P.VarMethod[V] == P.VarMethod[0]) {
      Dst = static_cast<soot::Id>(V);
      break;
    }
  ASSERT_NE(Dst, 0);
  P.Assigns.push_back({Dst, 0});
  std::string Error;
  ASSERT_TRUE(P.validate(Error)) << Error;

  AnalysisUniverse AU(P);
  CheckpointedAnalysis Stale(AU, Dir);
  Stale.run();
  for (const CheckpointedAnalysis::StageStatus &St : Stale.stages()) {
    EXPECT_FALSE(St.WarmStarted) << St.Name;
    EXPECT_TRUE(St.Saved) << St.Name << ": " << St.Note;
  }
  // The first stage reports why its load was refused; later stages are
  // recomputed because the prefix already missed, without re-probing.
  ASSERT_FALSE(Stale.stages().empty());
  EXPECT_NE(Stale.stages()[0].Note.find("facts changed"), std::string::npos);

  // A rerun over the modified facts warm-starts again.
  AnalysisUniverse AU2(P);
  CheckpointedAnalysis Warm(AU2, Dir);
  Warm.run();
  for (const CheckpointedAnalysis::StageStatus &St : Warm.stages())
    EXPECT_TRUE(St.WarmStarted) << St.Name << ": " << St.Note;
}

// The graceful-degradation contract of docs/robustness.md, end to end:
// a run under a too-small node budget aborts with ResourceExhausted,
// records which stage died, and leaves every completed stage's
// checkpoint valid on disk — so a rerun with the budget lifted
// warm-starts the finished prefix and only computes the rest.
TEST(Checkpoint, ResourceAbortLeavesResumableCheckpoints) {
  soot::GeneratorParams Params;
  Params.NumClasses = 10;
  Params.Seed = 21;
  Program P = soot::generateProgram(Params);
  std::string Dir = ::testing::TempDir() + "jeddpp_ckpt_abort";
  wipeCheckpointDir(Dir);

  // Reference run; also measures the live-node footprint after the
  // (small) hierarchy stage and at the end, so the abort budget can be
  // picked between the two: enough for the early stages, and below the
  // live working set of the later ones — which no amount of GC can
  // squeeze under the ceiling, so the abort is certain.
  size_t LiveAfterHierarchy, LiveFinal;
  bdd::SatCount PtSize, CgSize, WriteSize;
  std::set<Id> Reachable;
  {
    AnalysisUniverse AU(P);
    Hierarchy H(AU);
    LiveAfterHierarchy = AU.U.manager().liveNodeCount();
    CheckpointedAnalysis WPA(AU, "");
    WPA.run();
    LiveFinal = AU.U.manager().liveNodeCount();
    PtSize = WPA.PTA->Pt.sizeExact();
    CgSize = WPA.CGB->Cg.sizeExact();
    WriteSize = WPA.SEA->TotalWrite.sizeExact();
    Reachable = WPA.CGB->reachableMethods();
  }
  ASSERT_LT(LiveAfterHierarchy, LiveFinal);

  bdd::ResourceLimits Limits;
  Limits.MaxNodes = LiveAfterHierarchy + (LiveFinal - LiveAfterHierarchy) / 2;
  {
    AnalysisUniverse AU(P, AnalysisUniverse::DefaultOrder, Limits);
    CheckpointedAnalysis Aborted(AU, Dir);
    EXPECT_THROW(Aborted.run(), ResourceExhausted);

    // The aborted stage is recorded, and everything before it was
    // computed and checkpointed before the budget tripped.
    ASSERT_FALSE(Aborted.stages().empty());
    const CheckpointedAnalysis::StageStatus &Last = Aborted.stages().back();
    EXPECT_TRUE(Last.Aborted) << Last.Name << ": " << Last.Note;
    EXPECT_NE(Last.Note.find("aborted"), std::string::npos) << Last.Note;
    ASSERT_GE(Aborted.stages().size(), 2u)
        << "budget tripped before any stage completed";
    for (size_t I = 0; I + 1 != Aborted.stages().size(); ++I) {
      const CheckpointedAnalysis::StageStatus &St = Aborted.stages()[I];
      EXPECT_TRUE(St.Saved) << St.Name << ": " << St.Note;
      EXPECT_FALSE(St.Aborted) << St.Name;
    }
    const bdd::ManagerStats S = AU.U.manager().stats();
    EXPECT_GE(S.ResourceAborts, size_t(1));
    EXPECT_GE(S.NodesPeak, Limits.MaxNodes);
  }

  // Rerun with the budget lifted: the completed prefix warm-starts from
  // the checkpoints the aborted run left behind (proving they are
  // valid), the rest is computed, and the results match the reference.
  AnalysisUniverse AU(P);
  CheckpointedAnalysis Resumed(AU, Dir);
  Resumed.run();
  int WarmStages = 0;
  for (const CheckpointedAnalysis::StageStatus &St : Resumed.stages()) {
    EXPECT_FALSE(St.Aborted) << St.Name << ": " << St.Note;
    WarmStages += St.WarmStarted ? 1 : 0;
  }
  EXPECT_GE(WarmStages, 1)
      << "resume recomputed everything — aborted run left no usable prefix";
  EXPECT_EQ(Resumed.PTA->Pt.sizeExact(), PtSize);
  EXPECT_EQ(Resumed.CGB->Cg.sizeExact(), CgSize);
  EXPECT_EQ(Resumed.SEA->TotalWrite.sizeExact(), WriteSize);
  EXPECT_EQ(Resumed.CGB->reachableMethods(), Reachable);
}

TEST(Checkpoint, EmptyDirectoryMatchesReference) {
  soot::GeneratorParams Params;
  Params.NumClasses = 10;
  Params.Seed = 21;
  Program P = soot::generateProgram(Params);
  AnalysisUniverse AU(P);
  CheckpointedAnalysis C(AU, "");
  C.run();
  for (const CheckpointedAnalysis::StageStatus &St : C.stages()) {
    EXPECT_FALSE(St.WarmStarted) << St.Name;
    EXPECT_FALSE(St.Saved) << St.Name;
  }
  expectMatchesReference(AU, C, computeReference(P));
}

} // namespace
