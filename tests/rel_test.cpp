//===- rel_test.cpp - Tests for the relational runtime --------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the Relation API, a differential suite against a naive
/// set-of-tuples oracle, and the paper's Figure 4 virtual-call-resolution
/// walkthrough executed at the relational level.
///
//===----------------------------------------------------------------------===//

#include "profiler/Profiler.h"
#include "rel/Relation.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

using namespace jedd;
using namespace jedd::rel;

namespace {

/// Small fixture: two domains, several attributes, four physical domains.
class RelTest : public ::testing::Test {
protected:
  void SetUp() override {
    Node = U.addDomain("Node", 16);
    Color = U.addDomain("Color", 4);
    Src = U.addAttribute("src", Node);
    Dst = U.addAttribute("dst", Node);
    Mid = U.addAttribute("mid", Node);
    Hue = U.addAttribute("hue", Color);
    P0 = U.addPhysicalDomain("P0");
    P1 = U.addPhysicalDomain("P1");
    P2 = U.addPhysicalDomain("P2");
    P3 = U.addPhysicalDomain("P3");
    U.finalize();
  }

  Universe U;
  DomainId Node, Color;
  AttributeId Src, Dst, Mid, Hue;
  PhysDomId P0, P1, P2, P3;
};

TEST_F(RelTest, EmptyAndFull) {
  Relation E = U.empty({{Src, P0}, {Dst, P1}});
  EXPECT_TRUE(E.isEmpty());
  EXPECT_DOUBLE_EQ(E.size(), 0.0);

  Relation F = U.full({{Src, P0}, {Dst, P1}});
  EXPECT_DOUBLE_EQ(F.size(), 256.0); // 16 * 16.

  Relation FH = U.full({{Src, P0}, {Hue, P1}});
  EXPECT_DOUBLE_EQ(FH.size(), 64.0); // 16 * 4: domain size, not 2^bits.
}

TEST_F(RelTest, InsertContainsIterate) {
  Relation R = U.empty({{Src, P0}, {Dst, P1}});
  R.insert({3, 5});
  R.insert({3, 7});
  R.insert({9, 0});
  EXPECT_DOUBLE_EQ(R.size(), 3.0);
  EXPECT_TRUE(R.contains({3, 5}));
  EXPECT_FALSE(R.contains({5, 3}));
  EXPECT_EQ(R.tuples(), (std::vector<std::vector<uint64_t>>{
                            {3, 5}, {3, 7}, {9, 0}}));
  // Duplicate insertion is idempotent (relations are sets).
  R.insert({3, 5});
  EXPECT_DOUBLE_EQ(R.size(), 3.0);
}

TEST_F(RelTest, IterateCallbackMayCallBackIntoTheManager) {
  Relation Edges = U.empty({{Src, P0}, {Dst, P1}});
  for (uint64_t I = 0; I != 16; ++I)
    Edges.insert({I, (I * 5 + 3) % 16});
  std::vector<std::vector<uint64_t>> Want;
  for (const std::vector<uint64_t> &T : Edges.tuples())
    Want.push_back({T[1], T[0]});
  std::sort(Want.begin(), Want.end());

  // Like CallGraphBuilder::run: insert into another relation of the same
  // universe from inside the callback, with a collection midway.
  Relation Reversed = U.empty({{Src, P2}, {Dst, P3}});
  size_t Seen = 0;
  Edges.iterate([&](const std::vector<uint64_t> &T) {
    Reversed.insert({T[1], T[0]});
    if (++Seen == 8)
      U.manager().gc();
    return true;
  });
  EXPECT_EQ(Seen, 16u);
  EXPECT_EQ(Reversed.tuples(), Want);

  // Inserting into the iterated relation itself walks the tuples it had
  // when the iteration started.
  Relation Sym = Edges;
  Seen = 0;
  Sym.iterate([&](const std::vector<uint64_t> &T) {
    Sym.insert({T[1], T[0]});
    ++Seen;
    return true;
  });
  EXPECT_EQ(Seen, 16u);
  EXPECT_EQ(Sym, Edges | Reversed.withBindings({{Src, P0}, {Dst, P1}}));
}

TEST_F(RelTest, TupleFactoryKeepsDeclarationOrder) {
  // Values follow the declared schema order, like the paper's literals.
  Relation R = U.tuple({{Dst, P1}, {Src, P0}}, {5, 3});
  EXPECT_TRUE(R.contains({5, 3})); // dst=5, src=3 in declared order.
  ASSERT_EQ(R.schema()[0].Attr, Dst);
  Relation Same = U.tuple({{Src, P0}, {Dst, P1}}, {3, 5});
  EXPECT_TRUE(R == Same); // Order-insensitive comparison.
}

TEST_F(RelTest, SetOperations) {
  Relation A = U.empty({{Src, P0}, {Dst, P1}});
  A.insert({1, 2});
  A.insert({3, 4});
  Relation B = U.empty({{Src, P0}, {Dst, P1}});
  B.insert({3, 4});
  B.insert({5, 6});

  EXPECT_DOUBLE_EQ((A | B).size(), 3.0);
  EXPECT_DOUBLE_EQ((A & B).size(), 1.0);
  EXPECT_DOUBLE_EQ((A - B).size(), 1.0);
  EXPECT_TRUE((A & B).contains({3, 4}));
  EXPECT_TRUE((A - B).contains({1, 2}));

  Relation C = A;
  C |= B;
  C -= A;
  EXPECT_TRUE(C.contains({5, 6}));
  EXPECT_DOUBLE_EQ(C.size(), 1.0);
}

TEST_F(RelTest, SetOperationsAutoAlignPhysicalDomains) {
  // Same schema, different physical domains: the runtime must insert the
  // replace automatically, as jeddc-generated code does.
  Relation A = U.empty({{Src, P0}, {Dst, P1}});
  A.insert({1, 2});
  Relation B = U.empty({{Src, P2}, {Dst, P3}});
  B.insert({3, 4});

  Relation Union = A | B;
  EXPECT_DOUBLE_EQ(Union.size(), 2.0);
  EXPECT_TRUE(Union.contains({1, 2}));
  EXPECT_TRUE(Union.contains({3, 4}));
  // Result adopts the left operand's bindings.
  EXPECT_EQ(Union.physOf(Src), P0);
  EXPECT_EQ(Union.physOf(Dst), P1);
}

TEST_F(RelTest, EqualityIsSchemaAwareAndAligned) {
  Relation A = U.empty({{Src, P0}, {Dst, P1}});
  A.insert({1, 2});
  Relation B = U.empty({{Src, P2}, {Dst, P3}});
  B.insert({1, 2});
  EXPECT_TRUE(A == B);
  B.insert({2, 2});
  EXPECT_TRUE(A != B);
}

TEST_F(RelTest, ZeroRelationComparesLikeThePaperConstant) {
  Relation A = U.empty({{Src, P0}, {Dst, P1}});
  EXPECT_TRUE(A == U.empty({{Src, P0}, {Dst, P1}}));
  A.insert({0, 0});
  EXPECT_TRUE(A != U.empty({{Src, P0}, {Dst, P1}}));
}

TEST_F(RelTest, ProjectRemovesAttributeAndMergesTuples) {
  Relation R = U.empty({{Src, P0}, {Dst, P1}});
  R.insert({1, 2});
  R.insert({1, 3});
  R.insert({4, 2});
  Relation P = R.project({Dst});
  ASSERT_EQ(P.schema().size(), 1u);
  EXPECT_EQ(P.schema()[0].Attr, Src);
  // Projection may reduce the tuple count (Section 2.2.2).
  EXPECT_DOUBLE_EQ(P.size(), 2.0);
  EXPECT_EQ(P.tuples(),
            (std::vector<std::vector<uint64_t>>{{1}, {4}}));
}

TEST_F(RelTest, ProjectToKeepsListedAttributes) {
  Relation R = U.empty({{Src, P0}, {Dst, P1}, {Hue, P2}});
  R.insert({1, 2, 3});
  Relation P = R.projectTo({Hue});
  ASSERT_EQ(P.schema().size(), 1u);
  EXPECT_TRUE(P.contains({3}));
}

TEST_F(RelTest, RenameKeepsBddUntouched) {
  Relation R = U.empty({{Src, P0}});
  R.insert({7});
  Relation Renamed = R.rename(Src, Dst);
  EXPECT_EQ(Renamed.body(), R.body()); // Only the map changed.
  EXPECT_EQ(Renamed.schema()[0].Attr, Dst);
  EXPECT_EQ(Renamed.physOf(Dst), P0);
  EXPECT_TRUE(Renamed.contains({7}));
}

TEST_F(RelTest, CopyDuplicatesValues) {
  Relation R = U.empty({{Src, P0}});
  R.insert({3});
  R.insert({9});
  Relation C = R.copy(Src, Dst);
  ASSERT_EQ(C.schema().size(), 2u);
  EXPECT_DOUBLE_EQ(C.size(), 2.0);
  EXPECT_TRUE(C.contains({3, 3}));
  EXPECT_TRUE(C.contains({9, 9}));
  EXPECT_FALSE(C.contains({3, 9}));
}

TEST_F(RelTest, CopyHonorsExplicitPhysicalDomain) {
  Relation R = U.empty({{Src, P0}});
  R.insert({3});
  Relation C = R.copy(Src, Dst, P3);
  EXPECT_EQ(C.physOf(Dst), P3);
  EXPECT_TRUE(C.contains({3, 3}));
}

TEST_F(RelTest, JoinMatchesOnComparedAttributes) {
  // edge(src, mid) >< edge2(mid, dst) on mid.
  Relation E1 = U.empty({{Src, P0}, {Mid, P1}});
  E1.insert({1, 2});
  E1.insert({1, 3});
  E1.insert({4, 2});
  Relation E2 = U.empty({{Mid, P2}, {Dst, P3}});
  E2.insert({2, 9});
  E2.insert({3, 8});
  E2.insert({7, 6});

  Relation J = E1.join(E2, {Mid}, {Mid});
  ASSERT_EQ(J.schema().size(), 3u); // src, mid, dst in that order.
  EXPECT_DOUBLE_EQ(J.size(), 3.0);
  EXPECT_TRUE(J.contains({1, 2, 9}));
  EXPECT_TRUE(J.contains({1, 3, 8}));
  EXPECT_TRUE(J.contains({4, 2, 9}));
}

TEST_F(RelTest, JoinKeepsComparedAttributesOncePerPaper) {
  Relation E1 = U.empty({{Src, P0}, {Mid, P1}});
  E1.insert({1, 2});
  Relation E2 = U.empty({{Mid, P2}, {Dst, P3}});
  E2.insert({2, 9});
  Relation J = E1.join(E2, {Mid}, {Mid});
  // Attributes: src, dst, mid each exactly once.
  std::set<AttributeId> Seen;
  for (const AttrBinding &B : J.schema())
    Seen.insert(B.Attr);
  EXPECT_EQ(Seen, (std::set<AttributeId>{Src, Dst, Mid}));
}

TEST_F(RelTest, ComposeProjectsComparedAttributesAway) {
  Relation E1 = U.empty({{Src, P0}, {Mid, P1}});
  E1.insert({1, 2});
  E1.insert({1, 3});
  Relation E2 = U.empty({{Mid, P2}, {Dst, P3}});
  E2.insert({2, 9});
  E2.insert({3, 9});
  E2.insert({3, 8});

  Relation C = E1.compose(E2, {Mid}, {Mid});
  ASSERT_EQ(C.schema().size(), 2u); // src, dst only.
  EXPECT_DOUBLE_EQ(C.size(), 2.0);  // (1,9) deduplicated, (1,8).
  EXPECT_TRUE(C.contains({1, 9}));
  EXPECT_TRUE(C.contains({1, 8}));
}

TEST_F(RelTest, ComposeEqualsJoinThenProject) {
  SplitMix64 Rng(31);
  Relation E1 = U.empty({{Src, P0}, {Mid, P1}});
  Relation E2 = U.empty({{Mid, P2}, {Dst, P3}});
  for (int I = 0; I != 30; ++I) {
    E1.insert({Rng.nextBelow(16), Rng.nextBelow(16)});
    E2.insert({Rng.nextBelow(16), Rng.nextBelow(16)});
  }
  Relation ViaCompose = E1.compose(E2, {Mid}, {Mid});
  Relation ViaJoin = E1.join(E2, {Mid}, {Mid}).project({Mid});
  EXPECT_TRUE(ViaCompose == ViaJoin);
}

TEST_F(RelTest, JoinWithClashingPhysicalDomainsRelocates) {
  // Both operands keep non-compared attributes in the same physical
  // domain; the runtime must relocate the right one.
  Relation E1 = U.empty({{Src, P0}, {Mid, P1}});
  E1.insert({1, 2});
  Relation E2 = U.empty({{Mid, P1}, {Dst, P0}}); // Full clash.
  E2.insert({2, 9});
  Relation J = E1.join(E2, {Mid}, {Mid});
  EXPECT_DOUBLE_EQ(J.size(), 1.0);
  EXPECT_TRUE(J.contains({1, 2, 9})); // src, mid, dst.
}

TEST_F(RelTest, SelfJoinTransitiveStep) {
  // Selection-free transitive closure step on a small graph.
  Relation Edge = U.empty({{Src, P0}, {Dst, P1}});
  Edge.insert({0, 1});
  Edge.insert({1, 2});
  Edge.insert({2, 3});

  Relation Step =
      Edge.rename(Dst, Mid).compose(Edge.rename(Src, Mid), {Mid}, {Mid});
  EXPECT_DOUBLE_EQ(Step.size(), 2.0);
  EXPECT_TRUE(Step.contains({0, 2}));
  EXPECT_TRUE(Step.contains({1, 3}));

  // Full closure by fixpoint.
  Relation Closure = Edge;
  while (true) {
    Relation Next =
        Closure |
        Closure.rename(Dst, Mid).compose(Edge.rename(Src, Mid), {Mid}, {Mid});
    if (Next == Closure)
      break;
    Closure = Next;
  }
  EXPECT_DOUBLE_EQ(Closure.size(), 6.0);
  EXPECT_TRUE(Closure.contains({0, 3}));
}

TEST_F(RelTest, WithBindingsMovesEverything) {
  Relation R = U.empty({{Src, P0}, {Dst, P1}});
  R.insert({1, 2});
  Relation Moved = R.withBindings({{Src, P2}, {Dst, P3}});
  EXPECT_EQ(Moved.physOf(Src), P2);
  EXPECT_EQ(Moved.physOf(Dst), P3);
  EXPECT_TRUE(Moved.contains({1, 2}));
  EXPECT_TRUE(Moved == R); // Same tuples, alignment handles the rest.

  // Swapping bindings works too (order-inverting replace).
  Relation Swapped = R.withBindings({{Src, P1}, {Dst, P0}});
  EXPECT_TRUE(Swapped.contains({1, 2}));
  EXPECT_TRUE(Swapped == R);
}

TEST_F(RelTest, SingleAttributeValues) {
  // The paper's first iterator works on relations with one attribute and
  // returns the single object of each tuple (Section 2.3).
  Relation R = U.empty({{Src, P0}});
  R.insert({9});
  R.insert({2});
  R.insert({5});
  EXPECT_EQ(R.values(), (std::vector<uint64_t>{2, 5, 9}));
  EXPECT_TRUE(U.empty({{Src, P0}}).values().empty());
}

TEST_F(RelTest, ToStringShowsHeaderAndRows) {
  U.setLabel(Node, 3, "B");
  U.setLabel(Node, 5, "foo()");
  Relation R = U.empty({{Src, P0}, {Dst, P1}});
  R.insert({3, 5});
  std::string Text = R.toString();
  EXPECT_NE(Text.find("src"), std::string::npos);
  EXPECT_NE(Text.find("dst"), std::string::npos);
  EXPECT_NE(Text.find("B"), std::string::npos);
  EXPECT_NE(Text.find("foo()"), std::string::npos);
}

TEST_F(RelTest, ProfilerRecordsOperations) {
  obs::Tracer &T = obs::Tracer::instance();
  T.clear();
  T.setTracing(true);
  Relation A = U.empty({{Src, P0}, {Dst, P1}});
  A.insert({1, 2});
  Relation B = U.empty({{Src, P0}, {Dst, P1}});
  B.insert({3, 4});
  Relation C = (A | B).project({Dst}, JEDD_SITE("test-site"));
  (void)C;
  T.setTracing(false);

  prof::Profiler Prof;
  bool SawUnion = false, SawProject = false;
  for (const prof::OpSummary &S : Prof.summarize()) {
    SawUnion |= std::string_view(S.Op.Name) == "union";
    if (std::string_view(S.Op.Name) == "project" &&
        S.Op.SiteLabel == "test-site") {
      SawProject = true;
      EXPECT_NE(S.Op.SiteFile.find("rel_test.cpp"), std::string::npos);
      EXPECT_GT(S.Op.SiteLine, 0u);
    }
  }
  EXPECT_TRUE(SawUnion);
  EXPECT_TRUE(SawProject);
  std::string Html = Prof.renderHtml();
  EXPECT_NE(Html.find("test-site"), std::string::npos);
  EXPECT_NE(Html.find("rel_test.cpp"), std::string::npos);
  EXPECT_NE(Html.find("<svg"), std::string::npos);
  T.clear();
}

// Exact tuple counting on a universe whose relations span more than 64
// bits, where both uint64_t and double counting break down.
TEST(SizeExact, WideUniverseCounts) {
  Universe U;
  DomainId Big = U.addDomain("Big", uint64_t(1) << 22);
  AttributeId A = U.addAttribute("a", Big);
  AttributeId B = U.addAttribute("b", Big);
  AttributeId C = U.addAttribute("c", Big);
  PhysDomId Q0 = U.addPhysicalDomain("Q0");
  PhysDomId Q1 = U.addPhysicalDomain("Q1");
  PhysDomId Q2 = U.addPhysicalDomain("Q2");
  U.finalize();
  ASSERT_EQ(U.manager().numVars(), 66u); // 3 x 22 bits.

  // A few explicit tuples: the exact count must match enumeration.
  Relation R = U.empty({{A, Q0}, {B, Q1}, {C, Q2}});
  R.insert({0, 1, 2});
  R.insert({(1 << 22) - 1, 0, 12345});
  R.insert({99, (1 << 22) - 1, 7});
  bdd::SatCount Sparse = R.sizeExact();
  EXPECT_TRUE(Sparse.isExact());
  EXPECT_EQ(Sparse.Hi, 0u);
  EXPECT_EQ(Sparse.Lo, R.tuples().size());
  EXPECT_EQ(Sparse.Lo, 3u);

  // The full relation holds 2^66 tuples — beyond uint64_t.
  Relation F = U.full({{A, Q0}, {B, Q1}, {C, Q2}});
  bdd::SatCount Full = F.sizeExact();
  EXPECT_TRUE(Full.isExact());
  EXPECT_EQ(Full.Hi, 4u);
  EXPECT_EQ(Full.Lo, 0u);
  EXPECT_EQ(Full.toString(), "73786976294838206464");
  EXPECT_DOUBLE_EQ(F.size(), std::ldexp(1.0, 66));

  // 2^66 - 1 is not representable in a double; sizeExact nails it while
  // size() rounds back up to 2^66.
  Relation AlmostFull = F - R;
  EXPECT_DOUBLE_EQ(AlmostFull.size(), std::ldexp(1.0, 66));
  bdd::SatCount AF = AlmostFull.sizeExact();
  EXPECT_TRUE(AF.isExact());
  EXPECT_EQ(AF.Hi, 3u);
  EXPECT_EQ(AF.Lo, ~uint64_t(0) - 2);
  EXPECT_EQ(AF.toString(), "73786976294838206461");

  // Unused physical domains stay wildcards in the BDD; both counts
  // leave them out.
  Relation Two = U.empty({{A, Q0}});
  Two.insert({5});
  Two.insert({17});
  bdd::SatCount TwoC = Two.sizeExact();
  EXPECT_TRUE(TwoC.isExact());
  EXPECT_EQ(TwoC.Hi, 0u);
  EXPECT_EQ(TwoC.Lo, 2u);
  EXPECT_DOUBLE_EQ(Two.size(), 2.0);
}

// Five 40-bit physical domains make 200 variables. Over all of them a
// 3-tuple relation on one domain counts 3 * 2^160 assignments, which
// saturates 128 bits before the 160 wildcard bits could be divided out;
// only a count over the schema's own variables gets 3.
TEST(SizeExact, CountsOnlyTheSchemaVariables) {
  Universe U;
  DomainId Wide = U.addDomain("Wide", uint64_t(1) << 40);
  AttributeId A = U.addAttribute("a", Wide);
  std::vector<PhysDomId> Phys;
  for (int I = 0; I != 5; ++I)
    Phys.push_back(U.addPhysicalDomain("W" + std::to_string(I), 40));
  U.finalize();
  ASSERT_EQ(U.manager().numVars(), 200u);

  Relation R = U.empty({{A, Phys[2]}});
  R.insertAll({0, 12345, (uint64_t(1) << 40) - 1});
  EXPECT_EQ(R.size(), 3.0);
  EXPECT_EQ(R.sizeExact().toString(), "3");
  EXPECT_EQ(U.manager().satCountExact(R.body()).toString(), ">=2^128");
}

//===----------------------------------------------------------------------===//
// Figure 4: the virtual call resolution walkthrough, tables (a)-(g)
//===----------------------------------------------------------------------===//

TEST(Figure4, VirtualCallResolutionWalkthrough) {
  Universe U;
  DomainId Type = U.addDomain("Type", 4);
  DomainId Sig = U.addDomain("Signature", 4);
  DomainId Method = U.addDomain("Method", 4);
  U.setLabel(Type, 0, "A");
  U.setLabel(Type, 1, "B");
  U.setLabel(Sig, 0, "foo()");
  U.setLabel(Sig, 1, "bar()");
  U.setLabel(Method, 0, "A.foo()");
  U.setLabel(Method, 1, "B.bar()");

  AttributeId RecType = U.addAttribute("rectype", Type);
  AttributeId Signature = U.addAttribute("signature", Sig);
  AttributeId TgtType = U.addAttribute("tgttype", Type);
  AttributeId MethodA = U.addAttribute("method", Method);
  AttributeId SubType = U.addAttribute("subtype", Type);
  AttributeId SuperType = U.addAttribute("supertype", Type);
  AttributeId TypeA = U.addAttribute("type", Type);

  PhysDomId T1 = U.addPhysicalDomain("T1");
  PhysDomId T2 = U.addPhysicalDomain("T2");
  PhysDomId S1 = U.addPhysicalDomain("S1");
  PhysDomId M1 = U.addPhysicalDomain("M1");
  U.finalize();

  // declaresMethod (Figure 3 as implementsMethod): A.foo(), B.bar().
  Relation DeclaresMethod = U.empty({{TypeA, T2}, {Signature, S1}, {MethodA, M1}});
  DeclaresMethod.insert({0, 0, 0}); // A implements foo() as A.foo().
  DeclaresMethod.insert({1, 1, 1}); // B implements bar() as B.bar().

  // extend (Figure 4(d)): B extends A.
  Relation Extend = U.empty({{SubType, T2}, {SuperType, T1}});
  Extend.insert({1, 0});

  // receiverTypes (Figure 4(a)): type B at signatures foo() and bar().
  Relation ReceiverTypes = U.empty({{RecType, T1}, {Signature, S1}});
  ReceiverTypes.insert({1, 0});
  ReceiverTypes.insert({1, 1});

  // Line 3: toResolve = (rectype=>rectype tgttype) receiverTypes.
  Relation ToResolve = ReceiverTypes.copy(RecType, TgtType, T2);
  // Figure 4(b): {B, foo(), B}, {B, bar(), B}.
  EXPECT_DOUBLE_EQ(ToResolve.size(), 2.0);
  EXPECT_TRUE(ToResolve.contains({1, 0, 1})); // rectype, signature, tgttype.
  EXPECT_TRUE(ToResolve.contains({1, 1, 1}));

  Relation Answer =
      U.empty({{RecType, T1}, {Signature, S1}, {TgtType, T2}, {MethodA, M1}});

  int Iterations = 0;
  std::vector<double> ResolvedSizes;
  while (true) {
    // Line 6-7: resolved = toResolve{tgttype, signature}
    //                      >< declaresMethod{type, signature}.
    Relation Resolved =
        ToResolve.join(DeclaresMethod, {TgtType, Signature},
                       {TypeA, Signature});
    ResolvedSizes.push_back(Resolved.size());
    if (Iterations == 0) {
      // Figure 4(c): B bar() B B.bar().
      EXPECT_DOUBLE_EQ(Resolved.size(), 1.0);
      EXPECT_TRUE(Resolved.contains({1, 1, 1, 1}));
    } else if (Iterations == 1) {
      // Figure 4(g): B foo() A A.foo().
      EXPECT_DOUBLE_EQ(Resolved.size(), 1.0);
      EXPECT_TRUE(Resolved.contains({1, 0, 0, 0}));
    }
    // Line 8: answer |= resolved.
    Answer |= Resolved;
    // Line 9: toResolve -= (method=>) resolved.
    ToResolve -= Resolved.project({MethodA});
    if (Iterations == 0) {
      // Figure 4(e): only {B, foo(), B} left.
      EXPECT_DOUBLE_EQ(ToResolve.size(), 1.0);
      EXPECT_TRUE(ToResolve.contains({1, 0, 1}));
    }
    // Line 10: toResolve = (supertype=>tgttype)
    //                      (toResolve{tgttype} <> extend{subtype}).
    ToResolve = ToResolve.compose(Extend, {TgtType}, {SubType})
                    .rename(SuperType, TgtType);
    if (Iterations == 0) {
      // Figure 4(f): {B, foo(), A}.
      EXPECT_DOUBLE_EQ(ToResolve.size(), 1.0);
      EXPECT_TRUE(ToResolve.contains({1, 0, 0}));
    }
    ++Iterations;
    // Line 11: while (toResolve != 0B).
    if (ToResolve.isEmpty())
      break;
    ASSERT_LT(Iterations, 10) << "resolution failed to terminate";
  }

  EXPECT_EQ(Iterations, 2);
  // Final answer: foo() and bar() on receiver B resolve to A.foo() and
  // B.bar() respectively.
  EXPECT_DOUBLE_EQ(Answer.size(), 2.0);
  EXPECT_TRUE(Answer.contains({1, 0, 0, 0}));
  EXPECT_TRUE(Answer.contains({1, 1, 1, 1}));
}

//===----------------------------------------------------------------------===//
// Differential property test against a set-of-tuples oracle
//===----------------------------------------------------------------------===//

using Tuple = std::vector<uint64_t>;
using TupleSet = std::set<Tuple>;

class RelDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RelDifferentialTest, OperationsMatchNaiveSets) {
  SplitMix64 Rng(GetParam());
  Universe U;
  DomainId D = U.addDomain("D", 8);
  AttributeId A0 = U.addAttribute("a0", D);
  AttributeId A1 = U.addAttribute("a1", D);
  AttributeId A2 = U.addAttribute("a2", D);
  PhysDomId Q0 = U.addPhysicalDomain("Q0");
  PhysDomId Q1 = U.addPhysicalDomain("Q1");
  PhysDomId Q2 = U.addPhysicalDomain("Q2");
  PhysDomId Q3 = U.addPhysicalDomain("Q3");
  U.finalize();

  auto RandomPair = [&](PhysDomId PA, PhysDomId PB, AttributeId AA,
                        AttributeId AB, TupleSet &Out) {
    Relation R = U.empty({{AA, PA}, {AB, PB}});
    int N = 2 + static_cast<int>(Rng.nextBelow(12));
    for (int I = 0; I != N; ++I) {
      Tuple T = {Rng.nextBelow(8), Rng.nextBelow(8)};
      Out.insert(T);
      R.insert(T); // Declared order on both sides.
    }
    return R;
  };

  for (int Trial = 0; Trial != 8; ++Trial) {
    TupleSet SA, SB;
    Relation RA = RandomPair(Q0, Q1, A0, A1, SA);
    Relation RB = RandomPair(Q2, Q3, A0, A1, SB);

    // Set operations.
    TupleSet SUnion, SInter, SDiff;
    std::set_union(SA.begin(), SA.end(), SB.begin(), SB.end(),
                   std::inserter(SUnion, SUnion.end()));
    std::set_intersection(SA.begin(), SA.end(), SB.begin(), SB.end(),
                          std::inserter(SInter, SInter.end()));
    std::set_difference(SA.begin(), SA.end(), SB.begin(), SB.end(),
                        std::inserter(SDiff, SDiff.end()));
    auto AsSet = [](const Relation &R) {
      TupleSet S;
      for (auto &T : R.tuples())
        S.insert(T);
      return S;
    };
    EXPECT_EQ(AsSet(RA | RB), SUnion);
    EXPECT_EQ(AsSet(RA & RB), SInter);
    EXPECT_EQ(AsSet(RA - RB), SDiff);

    // Projection.
    TupleSet SProj;
    for (const Tuple &T : SA)
      SProj.insert({T[0]});
    EXPECT_EQ(AsSet(RA.project({A1})), SProj);

    // Join on a1 (of RA) with a0 (of RB renamed): build RB over (a1,a2).
    TupleSet SC;
    Relation RC = RandomPair(Q1, Q2, A1, A2, SC);
    // Naive join: match RA.a1 == RC.a1, keep (a0, a1, a2).
    TupleSet SJoin, SComp;
    for (const Tuple &TA : SA)
      for (const Tuple &TC : SC)
        if (TA[1] == TC[0]) {
          SJoin.insert({TA[0], TA[1], TC[1]});
          SComp.insert({TA[0], TC[1]});
        }
    EXPECT_EQ(AsSet(RA.join(RC, {A1}, {A1})), SJoin);
    EXPECT_EQ(AsSet(RA.compose(RC, {A1}, {A1})), SComp);

    // Size matches the oracle.
    EXPECT_DOUBLE_EQ(RA.size(), static_cast<double>(SA.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelDifferentialTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

//===----------------------------------------------------------------------===//
// Bulk insertion (insertAll) against a set model and one-by-one inserts
//===----------------------------------------------------------------------===//

class InsertAllDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InsertAllDifferentialTest, MatchesSetModelAndSingleInserts) {
  SplitMix64 Rng(GetParam());
  // Three 22-bit columns and a 3-bit one: 69 bits a tuple, so every
  // packed row spans two words.
  Universe U;
  DomainId Big = U.addDomain("Big", uint64_t(1) << 22);
  DomainId Small = U.addDomain("Small", 5);
  AttributeId A = U.addAttribute("a", Big);
  AttributeId B = U.addAttribute("b", Big);
  AttributeId C = U.addAttribute("c", Big);
  AttributeId S = U.addAttribute("s", Small);
  PhysDomId Q0 = U.addPhysicalDomain("Q0");
  PhysDomId Q1 = U.addPhysicalDomain("Q1");
  PhysDomId Q2 = U.addPhysicalDomain("Q2");
  PhysDomId Q3 = U.addPhysicalDomain("Q3");
  U.finalize(GetParam() % 2 ? "Q0xQ1_Q2_Q3" : "");
  const std::vector<AttrBinding> Schema = {
      {A, Q2}, {B, Q0}, {C, Q1}, {S, Q3}};

  // Few values per column, so batches hold duplicates and tuples that
  // share long prefixes.
  std::vector<uint64_t> Picks = {0, 1, 7, (uint64_t(1) << 22) - 1, 123456};
  auto RandomTuple = [&] {
    return Tuple{Picks[Rng.nextBelow(Picks.size())],
                 Picks[Rng.nextBelow(Picks.size())],
                 Picks[Rng.nextBelow(Picks.size())], Rng.nextBelow(5)};
  };

  Relation Bulk = U.empty(Schema);
  Relation Single = U.empty(Schema);
  TupleSet Model;
  for (int Round = 0; Round != 12; ++Round) {
    // An empty batch, a one-row batch, then larger ones.
    size_t Rows = Round == 0 ? 0 : Round == 1 ? 1 : Rng.nextBelow(60);
    std::vector<uint64_t> Batch;
    for (size_t R = 0; R != Rows; ++R) {
      Tuple T = Rng.nextBelow(5) == 0 && !Batch.empty()
                    ? Tuple(Batch.begin(), Batch.begin() + 4) // Duplicate.
                    : RandomTuple();
      Batch.insert(Batch.end(), T.begin(), T.end());
      Single.insert(T);
      Model.insert(T);
    }
    Bulk.insertAll(Batch);

    std::vector<Tuple> Got = Bulk.tuples();
    ASSERT_EQ(TupleSet(Got.begin(), Got.end()), Model) << "round " << Round;
    EXPECT_EQ(Got.size(), Model.size());
    EXPECT_TRUE(Bulk == Single) << "round " << Round;
    EXPECT_EQ(Bulk.sizeExact().Lo, Model.size());
    ASSERT_EQ(U.manager().checkInvariants(), "");
  }
  for (const Tuple &T : Model)
    EXPECT_TRUE(Bulk.contains(T));
}

INSTANTIATE_TEST_SUITE_P(Seeds, InsertAllDifferentialTest,
                         ::testing::Values(31, 32, 33, 34));

TEST_F(RelTest, InsertAllRejectsBadBatchesWithoutPartialInsert) {
  Relation R = U.empty({{Src, P0}, {Hue, P1}});
  R.insertAll({1, 2, 3, 0});
  Relation Before = R;

  // The bad value is last: nothing of the batch may go in.
  EXPECT_THROW(R.insertAll({4, 1, 5, 2, 6, 4}), UsageError); // Hue < 4.
  EXPECT_TRUE(R == Before);
  EXPECT_EQ(R.tuples(), (std::vector<Tuple>{{1, 2}, {3, 0}}));
  EXPECT_THROW(R.insert({16, 0}), UsageError); // Src < 16.
  // A length that is not a multiple of the arity.
  EXPECT_THROW(R.insertAll({4, 1, 5}), UsageError);
  EXPECT_TRUE(R == Before);

  // Values outside their domains are never members.
  EXPECT_FALSE(R.contains({1, 6}));
  EXPECT_FALSE(R.contains({17, 2}));
}

TEST_F(RelTest, InsertAllAbortedByTheGovernorLeavesRelationClean) {
  bdd::Manager &M = U.manager();
  Relation R = U.empty({{Src, P0}, {Dst, P1}, {Mid, P2}});
  R.insertAll({1, 2, 3, 4, 5, 6});
  TupleSet Model = {{1, 2, 3}, {4, 5, 6}};

  SplitMix64 Rng(9);
  size_t Aborts = 0;
  for (int Step = 0; Step != 40; ++Step) {
    std::vector<uint64_t> Batch;
    TupleSet BatchSet;
    for (int I = 0; I != 30; ++I) {
      Tuple T = {Rng.nextBelow(16), Rng.nextBelow(16), Rng.nextBelow(16)};
      Batch.insert(Batch.end(), T.begin(), T.end());
      BatchSet.insert(T);
    }
    Relation Before = R;
    // A 1-in-64 roll per allocation and per operation boundary: many
    // batches abort somewhere in the minterm build or the union.
    M.setFaultInjection(uint64_t(Step) + 1, 64);
    try {
      R.insertAll(Batch);
    } catch (const ResourceExhausted &) {
      ++Aborts;
      M.setFaultInjection(0, 0);
      ASSERT_EQ(M.checkInvariants(), "") << "step " << Step;
      ASSERT_TRUE(R == Before) << "step " << Step;
      // The same batch goes in once injection is off.
      R.insertAll(Batch);
    }
    M.setFaultInjection(0, 0);
    Model.insert(BatchSet.begin(), BatchSet.end());
    std::vector<Tuple> Got = R.tuples();
    ASSERT_EQ(TupleSet(Got.begin(), Got.end()), Model) << "step " << Step;
  }
  EXPECT_GT(Aborts, 0u);
  EXPECT_GE(M.stats().ResourceRecoveries, Aborts);
  EXPECT_EQ(M.checkInvariants(), "");
}

} // namespace
