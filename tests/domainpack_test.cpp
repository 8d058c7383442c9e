//===- domainpack_test.cpp - Tests for the physical domain layer ----------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "bdd/DomainPack.h"
#include "util/Error.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <set>

using namespace jedd;
using namespace jedd::bdd;

namespace {

TEST(DomainPack, SequentialLayoutAssignsAdjacentBits) {
  // The empty spec (declaration order) and its spelled-out form agree.
  for (const char *Spec : {"", "A_B"}) {
    DomainPack Pack(Spec);
    PhysDomId A = Pack.addDomain("A", 3);
    PhysDomId B = Pack.addDomain("B", 2);
    Pack.finalize();
    EXPECT_EQ(Pack.vars(A), (std::vector<unsigned>{0, 1, 2})) << Spec;
    EXPECT_EQ(Pack.vars(B), (std::vector<unsigned>{3, 4})) << Spec;
    EXPECT_EQ(Pack.manager().numVars(), 5u);
  }
}

TEST(DomainPack, InterleavedLayoutAlignsLowBits) {
  DomainPack Pack("AxB");
  PhysDomId A = Pack.addDomain("A", 3); // Bits a2 a1 a0 (MSB first).
  PhysDomId B = Pack.addDomain("B", 2);
  Pack.finalize();
  // Round 0: only A (its MSB). Rounds 1,2: A and B.
  EXPECT_EQ(Pack.vars(A), (std::vector<unsigned>{0, 1, 3}));
  EXPECT_EQ(Pack.vars(B), (std::vector<unsigned>{2, 4}));
  // LSB alignment: the last bit of A and B sit in the same round.
}

TEST(DomainPack, MixedSpecLaysOutGroupsInSpecOrder) {
  DomainPack Pack("C_BxA");
  PhysDomId A = Pack.addDomain("A", 3);
  PhysDomId B = Pack.addDomain("B", 2);
  PhysDomId C = Pack.addDomain("C", 2);
  Pack.finalize();
  // C's group comes first; then B and A interleave MSB-aligned in spec
  // order: round 0 only A, rounds 1 and 2 B before A.
  EXPECT_EQ(Pack.vars(C), (std::vector<unsigned>{0, 1}));
  EXPECT_EQ(Pack.vars(A), (std::vector<unsigned>{2, 4, 6}));
  EXPECT_EQ(Pack.vars(B), (std::vector<unsigned>{3, 5}));
  EXPECT_EQ(Pack.orderGroups(),
            (std::vector<std::vector<PhysDomId>>{{C}, {B, A}}));
  // Encodings are layout independent.
  Bdd Tuple = Pack.encode(A, 5) & Pack.encode(B, 2) & Pack.encode(C, 1);
  EXPECT_EQ(Pack.manager().nodeCount(Tuple), 7u);
}

TEST(DomainPack, SpecNamesMayContainSeparators) {
  DomainPack Pack("Max_1_Ax");
  PhysDomId Ax = Pack.addDomain("Ax", 1);
  PhysDomId Max = Pack.addDomain("Max", 1);
  PhysDomId One = Pack.addDomain("1", 1);
  Pack.finalize();
  EXPECT_EQ(Pack.vars(Max), (std::vector<unsigned>{0}));
  EXPECT_EQ(Pack.vars(One), (std::vector<unsigned>{1}));
  EXPECT_EQ(Pack.vars(Ax), (std::vector<unsigned>{2}));
}

/// finalize() must reject \p Spec over domains A and B with a UsageError
/// whose message contains \p Why, and leave the pack unfinalized.
void expectBadSpec(const std::string &Spec, const std::string &Why) {
  DomainPack Pack(Spec);
  Pack.addDomain("A", 2);
  Pack.addDomain("B", 2);
  try {
    Pack.finalize();
    ADD_FAILURE() << "spec '" << Spec << "' was accepted";
  } catch (const UsageError &E) {
    EXPECT_NE(std::string(E.what()).find(Why), std::string::npos)
        << E.what();
  }
  EXPECT_FALSE(Pack.isFinalized());
}

TEST(DomainPack, SpecWithUnknownDomainIsRejected) {
  expectBadSpec("A_B_C", "unknown domain 'C'");
  expectBadSpec("AxBx", "unknown domain ''");
}

TEST(DomainPack, SpecNamingADomainTwiceIsRejected) {
  expectBadSpec("A_BxA", "names domain 'A' twice");
}

TEST(DomainPack, SpecLeavingOutADomainIsRejected) {
  expectBadSpec("B", "leaves out domain 'A'");
}

TEST(DomainPack, EncodeDecodeRoundTrip) {
  for (const char *Order : {"A_B", "AxB"}) {
    DomainPack Pack(Order);
    PhysDomId A = Pack.addDomain("A", 4);
    PhysDomId B = Pack.addDomain("B", 3);
    Pack.finalize();
    Manager &Mgr = Pack.manager();

    Bdd Tuple = Pack.encode(A, 11) & Pack.encode(B, 5);
    EXPECT_DOUBLE_EQ(Mgr.satCount(Tuple), 1.0); // Fully constrained.

    std::vector<unsigned> Vars = Pack.sortedVars({A, B});
    int Seen = 0;
    Mgr.enumerate(Tuple, Vars, [&](const std::vector<bool> &Bits) {
      EXPECT_EQ(Pack.decodeValue(A, {A, B}, Bits), 11u);
      EXPECT_EQ(Pack.decodeValue(B, {A, B}, Bits), 5u);
      ++Seen;
      return true;
    });
    EXPECT_EQ(Seen, 1);
  }
}

TEST(DomainPack, SingleTupleNodeCountEqualsBits) {
  // Paper, Section 3.2.1: "the number of nodes in a BDD for a single
  // tuple always equals the total number of bits in the physical domains
  // used to encode the attributes."
  DomainPack Pack("AxBxUnused");
  PhysDomId A = Pack.addDomain("A", 5);
  PhysDomId B = Pack.addDomain("B", 7);
  Pack.addDomain("Unused", 4);
  Pack.finalize();
  Bdd Tuple = Pack.encode(A, 19) & Pack.encode(B, 100);
  EXPECT_EQ(Pack.manager().nodeCount(Tuple), 12u);
}

TEST(DomainPack, EncodeLess) {
  DomainPack Pack;
  PhysDomId A = Pack.addDomain("A", 4);
  Pack.finalize();
  Manager &Mgr = Pack.manager();
  for (uint64_t Bound : {0ull, 1ull, 5ull, 11ull, 15ull, 16ull, 99ull}) {
    Bdd Less = Pack.encodeLess(A, Bound);
    double Expected = static_cast<double>(std::min<uint64_t>(Bound, 16));
    EXPECT_DOUBLE_EQ(Mgr.satCount(Less), Expected) << "bound " << Bound;
    // Spot-check membership.
    for (uint64_t Value = 0; Value != 16; ++Value) {
      bool Member = !(Pack.encode(A, Value) & Less).isFalse();
      EXPECT_EQ(Member, Value < Bound);
    }
  }
}

TEST(DomainPack, EqualRelatesIdenticalValues) {
  DomainPack Pack;
  PhysDomId A = Pack.addDomain("A", 3);
  PhysDomId B = Pack.addDomain("B", 3);
  Pack.finalize();
  Manager &Mgr = Pack.manager();
  Bdd Eq = Pack.equal(A, B);
  EXPECT_DOUBLE_EQ(Mgr.satCount(Eq), 8.0); // 8 equal pairs.
  for (uint64_t X = 0; X != 8; ++X)
    for (uint64_t Y = 0; Y != 8; ++Y) {
      bool Member = !(Pack.encode(A, X) & Pack.encode(B, Y) & Eq).isFalse();
      EXPECT_EQ(Member, X == Y);
    }
}

TEST(DomainPack, EqualAcrossWidthsZeroesHighBits) {
  DomainPack Pack;
  PhysDomId Wide = Pack.addDomain("Wide", 4);
  PhysDomId Narrow = Pack.addDomain("Narrow", 2);
  Pack.finalize();
  Manager &Mgr = Pack.manager();
  Bdd Eq = Pack.equal(Wide, Narrow);
  EXPECT_DOUBLE_EQ(Mgr.satCount(Eq), 4.0);
  EXPECT_TRUE((Pack.encode(Wide, 5) & Eq & Pack.encode(Narrow, 1)).isFalse());
  EXPECT_FALSE((Pack.encode(Wide, 1) & Eq & Pack.encode(Narrow, 1)).isFalse());
}

TEST(DomainPack, ReplaceMovesValuesBetweenDomains) {
  for (const char *Order : {"A_B", "AxB"}) {
    DomainPack Pack(Order);
    PhysDomId A = Pack.addDomain("A", 3);
    PhysDomId B = Pack.addDomain("B", 3);
    Pack.finalize();
    Bdd F = Pack.encode(A, 6);
    size_t Before = Pack.manager().stats().ReorderingReplaces;
    Bdd Moved = Pack.replaceDomains(F, {{A, B}});
    EXPECT_EQ(Moved, Pack.encode(B, 6));
    // A rename keeps the relative order: relabelled, not rebuilt.
    EXPECT_EQ(Pack.manager().stats().ReorderingReplaces, Before) << Order;
  }
}

TEST(DomainPack, ReplaceSwapsDomains) {
  for (const char *Order : {"A_B", "AxB"}) {
    DomainPack Pack(Order);
    PhysDomId A = Pack.addDomain("A", 3);
    PhysDomId B = Pack.addDomain("B", 3);
    Pack.finalize();
    Bdd F = Pack.encode(A, 2) & Pack.encode(B, 7);
    size_t Before = Pack.manager().stats().ReorderingReplaces;
    Bdd Swapped = Pack.replaceDomains(F, {{A, B}, {B, A}});
    EXPECT_EQ(Swapped, Pack.encode(A, 7) & Pack.encode(B, 2));
    // A swap inverts the order of A's and B's bits in either layout.
    EXPECT_EQ(Pack.manager().stats().ReorderingReplaces, Before + 1) << Order;
  }
}

TEST(DomainPack, ReplaceWideningConstrainsNewHighBits) {
  DomainPack Pack;
  PhysDomId Narrow = Pack.addDomain("Narrow", 2);
  PhysDomId Wide = Pack.addDomain("Wide", 4);
  Pack.finalize();
  Bdd F = Pack.encode(Narrow, 3);
  Bdd Moved = Pack.replaceDomains(F, {{Narrow, Wide}});
  EXPECT_EQ(Moved, Pack.encode(Wide, 3));
  EXPECT_DOUBLE_EQ(Pack.manager().satCount(Moved),
                   Pack.manager().satCount(Pack.encode(Wide, 3)));
}

TEST(DomainPack, ReplaceNarrowingKeepsSmallValues) {
  DomainPack Pack;
  PhysDomId Wide = Pack.addDomain("Wide", 4);
  PhysDomId Narrow = Pack.addDomain("Narrow", 2);
  Pack.finalize();
  Bdd F = Pack.encode(Wide, 3); // Fits in 2 bits.
  Bdd Moved = Pack.replaceDomains(F, {{Wide, Narrow}});
  EXPECT_EQ(Moved, Pack.encode(Narrow, 3));
}

TEST(DomainPack, ReplaceRandomizedRelationRoundTrip) {
  SplitMix64 Rng(2024);
  DomainPack Pack("AxBxC");
  PhysDomId A = Pack.addDomain("A", 4);
  PhysDomId B = Pack.addDomain("B", 4);
  PhysDomId C = Pack.addDomain("C", 4);
  Pack.finalize();
  Manager &Mgr = Pack.manager();

  // A random binary relation over (A, B).
  std::set<std::pair<uint64_t, uint64_t>> Pairs;
  Bdd Rel = Mgr.falseBdd();
  for (int I = 0; I != 25; ++I) {
    uint64_t X = Rng.nextBelow(16), Y = Rng.nextBelow(16);
    Pairs.insert({X, Y});
    Rel = Rel | (Pack.encode(A, X) & Pack.encode(B, Y));
  }
  EXPECT_DOUBLE_EQ(Mgr.satCount(Rel) / (1 << 4),
                   static_cast<double>(Pairs.size()));

  // Move B -> C, then C -> B: must be the identity.
  Bdd Moved = Pack.replaceDomains(Rel, {{B, C}});
  Bdd Back = Pack.replaceDomains(Moved, {{C, B}});
  EXPECT_EQ(Back, Rel);

  // And a full swap there and back.
  Bdd Swapped = Pack.replaceDomains(Rel, {{A, B}, {B, A}});
  Bdd SwappedBack = Pack.replaceDomains(Swapped, {{A, B}, {B, A}});
  EXPECT_EQ(SwappedBack, Rel);
}

} // namespace
