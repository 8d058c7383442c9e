//===- io_test.cpp - Round-trip tests for the persistent store ------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based round-trip tests for the JDD1 checkpoint store
/// (src/io): load(save(r)) == r over randomized universes and relations,
/// across bit orders and manager boundaries — plus determinism, typed
/// mismatch errors, and the golden-format fixture that pins the v1 byte
/// encoding.
///
//===----------------------------------------------------------------------===//

#include "io/Binary.h"
#include "io/Io.h"
#include "obs/Obs.h"
#include "rel/Relation.h"
#include "util/BitSet.h"
#include "util/File.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

using namespace jedd;
using namespace jedd::rel;
using io::NamedRelation;

namespace {

//===----------------------------------------------------------------------===//
// Randomized universe machinery
//===----------------------------------------------------------------------===//

/// A universe declaration as plain data, so the same universe can be
/// built several times (fresh managers, different bit orders) for
/// cross-manager load tests.
struct Decl {
  struct Dom {
    std::string Name;
    uint64_t Size;
  };
  std::vector<Dom> Doms;
  struct Attr {
    std::string Name;
    size_t Dom;
  };
  std::vector<Attr> Attrs;
  struct Phys {
    std::string Name;
    unsigned Bits;
  };
  std::vector<Phys> PhysDoms;
};

/// Draws a declaration with 1-3 domains and 2-5 attributes, each
/// attribute paired with a dedicated physical domain of exactly the
/// width its domain needs (so any attribute subset forms a schema).
Decl randomDecl(SplitMix64 &Rng) {
  Decl D;
  size_t NumDoms = Rng.nextInRange(1, 3);
  for (size_t I = 0; I != NumDoms; ++I)
    D.Doms.push_back({"Dom" + std::to_string(I), Rng.nextInRange(2, 300)});
  size_t NumAttrs = Rng.nextInRange(2, 5);
  for (size_t I = 0; I != NumAttrs; ++I) {
    size_t Dom = Rng.nextBelow(NumDoms);
    D.Attrs.push_back({"attr" + std::to_string(I), Dom});
    D.PhysDoms.push_back({"P" + std::to_string(I),
                          bitsForSize(D.Doms[Dom].Size)});
  }
  return D;
}

/// \p D's physical domains joined by \p Sep in declaration order ("x":
/// all interleaved) or, with \p Reverse, in reverse order.
std::string orderOf(const Decl &D, const char *Sep, bool Reverse = false) {
  std::string Spec;
  for (size_t I = 0; I != D.PhysDoms.size(); ++I)
    Spec += (I ? Sep : "") +
            D.PhysDoms[Reverse ? D.PhysDoms.size() - 1 - I : I].Name;
  return Spec;
}

void declare(Universe &U, const Decl &D, const std::string &Order = "") {
  for (const Decl::Dom &Dom : D.Doms)
    U.addDomain(Dom.Name, Dom.Size);
  for (const Decl::Attr &A : D.Attrs)
    U.addAttribute(A.Name, static_cast<DomainId>(A.Dom));
  for (const Decl::Phys &P : D.PhysDoms)
    U.addPhysicalDomain(P.Name, P.Bits);
  U.finalize(Order, 1 << 14);
}

/// A random relation over a random attribute subset of \p D: each
/// attribute bound to its dedicated physical domain, filled with up to
/// \p MaxTuples random tuples.
Relation randomRelation(Universe &U, const Decl &D, SplitMix64 &Rng,
                        size_t MaxTuples = 40) {
  size_t Arity = Rng.nextInRange(1, std::min<size_t>(3, D.Attrs.size()));
  std::set<size_t> Picked;
  while (Picked.size() != Arity)
    Picked.insert(Rng.nextBelow(D.Attrs.size()));
  std::vector<AttrBinding> Schema;
  std::vector<uint64_t> Sizes;
  for (size_t I : Picked) {
    Schema.push_back({static_cast<AttributeId>(I), static_cast<PhysDomId>(I)});
    Sizes.push_back(D.Doms[D.Attrs[I].Dom].Size);
  }
  Relation R = U.empty(Schema);
  size_t NumTuples = Rng.nextBelow(MaxTuples + 1);
  for (size_t T = 0; T != NumTuples; ++T) {
    std::vector<uint64_t> Tuple;
    for (uint64_t Size : Sizes)
      Tuple.push_back(Rng.nextBelow(Size));
    R.insert(Tuple);
  }
  return R;
}

std::set<std::vector<uint64_t>> tupleSet(const Relation &R) {
  auto Tuples = R.tuples();
  return {Tuples.begin(), Tuples.end()};
}

/// Checks that \p Image loads into a universe declared from \p D with
/// the given order and matches the original tuple sets.
void expectLoadsEqual(const std::string &Image, const Decl &D,
                      const std::vector<std::set<std::vector<uint64_t>>>
                          &Expected,
                      const std::string &Order) {
  Universe U;
  declare(U, D, Order);
  std::vector<NamedRelation> Loaded;
  io::Error E = io::loadCheckpoint(U, Image, Loaded);
  ASSERT_TRUE(E.ok()) << E.toString();
  ASSERT_EQ(Loaded.size(), Expected.size());
  for (size_t I = 0; I != Loaded.size(); ++I)
    EXPECT_EQ(tupleSet(Loaded[I].Rel), Expected[I])
        << "relation " << Loaded[I].Name;
}

/// \p R saved alone as a one-relation checkpoint.
std::string saveOne(const Relation &R) {
  std::string Image;
  io::Error E = io::saveCheckpoint(*R.universe(), {{"r", R}}, Image);
  EXPECT_TRUE(E.ok()) << E.toString();
  return Image;
}

/// Loads a one-relation checkpoint into \p U.
io::Error loadOne(Universe &U, const std::string &Image, Relation &Out) {
  std::vector<NamedRelation> Loaded;
  io::Error E = io::loadCheckpoint(U, Image, Loaded);
  if (E.ok()) {
    EXPECT_EQ(Loaded.size(), 1u);
    Out = std::move(Loaded.front().Rel);
  }
  return E;
}

//===----------------------------------------------------------------------===//
// One-relation checkpoints
//===----------------------------------------------------------------------===//

TEST(IoRelation, RoundTripSameUniverse) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    SplitMix64 Rng(Seed);
    Decl D = randomDecl(Rng);
    Universe U;
    declare(U, D);
    Relation R = randomRelation(U, D, Rng);

    std::string Image = saveOne(R);
    Relation Out;
    io::Error E = loadOne(U, Image, Out);
    ASSERT_TRUE(E.ok()) << "seed " << Seed << ": " << E.toString();
    EXPECT_EQ(Out.schema(), R.schema());
    EXPECT_TRUE(Out == R) << "seed " << Seed;
  }
}

// Five 40-bit physical domains (200 variables): inspect must count the
// relation over its schema's variables, as Relation::sizeExact does.
TEST(IoRelation, InspectCountsOnlyTheSchemaVariables) {
  Decl D;
  D.Doms.push_back({"Wide", uint64_t(1) << 40});
  D.Attrs = {{"a", 0}};
  for (int I = 0; I != 5; ++I)
    D.PhysDoms.push_back({"W" + std::to_string(I), 40});
  Universe U;
  declare(U, D);
  ASSERT_EQ(U.manager().numVars(), 200u);
  Relation R = U.empty({{0, 2}});
  R.insertAll({0, 12345, (uint64_t(1) << 40) - 1});

  io::InspectInfo Info;
  io::Error E = io::inspectImage(saveOne(R), Info);
  ASSERT_TRUE(E.ok()) << E.toString();
  ASSERT_EQ(Info.Relations.size(), 1u);
  EXPECT_EQ(Info.Relations[0].Tuples, "3");
}

TEST(IoRelation, RoundTripFreshUniverseIsByteStable) {
  for (uint64_t Seed = 20; Seed <= 25; ++Seed) {
    SplitMix64 Rng(Seed);
    Decl D = randomDecl(Rng);
    Universe U1;
    declare(U1, D);
    Relation R = randomRelation(U1, D, Rng);

    std::string Image = saveOne(R);

    Universe U2;
    declare(U2, D);
    Relation Out;
    io::Error E = loadOne(U2, Image, Out);
    ASSERT_TRUE(E.ok()) << "seed " << Seed << ": " << E.toString();
    EXPECT_EQ(tupleSet(Out), tupleSet(R)) << "seed " << Seed;

    // The same relation in a different manager re-serializes to the
    // same bytes: the format has no manager-dependent state.
    EXPECT_EQ(saveOne(Out), Image) << "seed " << Seed;
  }
}

TEST(IoRelation, RoundTripAcrossBitOrders) {
  for (uint64_t Seed = 40; Seed <= 45; ++Seed) {
    SplitMix64 Rng(Seed);
    Decl D = randomDecl(Rng);
    // Interleaved, declaration order ("" spelled out), and a permuted
    // sequential order — the shape of AnalysisUniverse::DefaultOrder.
    const std::string Orders[] = {orderOf(D, "x"), "",
                                  orderOf(D, "_", /*Reverse=*/true)};
    const std::string Spelled[] = {Orders[0], orderOf(D, "_"), Orders[2]};
    std::vector<std::unique_ptr<Universe>> Us;
    Us.push_back(std::make_unique<Universe>());
    declare(*Us.back(), D, Orders[0]);
    Relation R = randomRelation(*Us.back(), D, Rng);
    std::set<std::vector<uint64_t>> Want = tupleSet(R);

    // Save under each order and load into the next, round the cycle.
    for (size_t From = 0; From != std::size(Orders); ++From) {
      std::string Image = saveOne(R);
      // Inspect rebuilds the saved layout, so it reports the live node
      // count.
      io::InspectInfo Info;
      ASSERT_TRUE(io::inspectImage(Image, Info).ok());
      EXPECT_EQ(Info.Order, Spelled[From]);
      ASSERT_EQ(Info.Relations.size(), 1u);
      EXPECT_EQ(Info.Relations[0].Nodes, R.nodeCount())
          << "seed " << Seed << ", order '" << Orders[From] << "'";

      Us.push_back(std::make_unique<Universe>());
      declare(*Us.back(), D, Orders[(From + 1) % std::size(Orders)]);
      Relation Out;
      io::Error E = loadOne(*Us.back(), Image, Out);
      ASSERT_TRUE(E.ok()) << "seed " << Seed << ": " << E.toString();
      EXPECT_EQ(tupleSet(Out), Want) << "seed " << Seed;
      R = std::move(Out);
    }
  }
}

//===----------------------------------------------------------------------===//
// Checkpoints
//===----------------------------------------------------------------------===//

TEST(IoCheckpoint, SharedDagRoundTrip) {
  for (uint64_t Seed = 100; Seed <= 104; ++Seed) {
    SplitMix64 Rng(Seed);
    Decl D = randomDecl(Rng);
    Universe U;
    declare(U, D);

    std::vector<NamedRelation> Rels;
    size_t NumRels = Rng.nextInRange(1, 5);
    for (size_t I = 0; I != NumRels; ++I)
      Rels.push_back({"rel" + std::to_string(I), randomRelation(U, D, Rng)});
    // Roots on the two terminals: an empty relation (false) and the
    // nullary relation {()} (true).
    Rels.push_back({"empty", U.empty({{0, 0}})});
    Rels.push_back({"unit", U.full({})});
    ASSERT_TRUE(Rels.back().Rel.body().isTrue());
    std::vector<std::set<std::vector<uint64_t>>> Want;
    for (const NamedRelation &NR : Rels)
      Want.push_back(tupleSet(NR.Rel));

    std::string Image;
    io::Error E = io::saveCheckpoint(U, Rels, Image, 0xfeedface00c0ffeeULL);
    ASSERT_TRUE(E.ok()) << E.toString();

    Universe U2;
    declare(U2, D);
    std::vector<NamedRelation> Loaded;
    uint64_t Hash = 0;
    E = io::loadCheckpoint(U2, Image, Loaded, &Hash);
    ASSERT_TRUE(E.ok()) << "seed " << Seed << ": " << E.toString();
    EXPECT_EQ(Hash, 0xfeedface00c0ffeeULL);
    ASSERT_EQ(Loaded.size(), Rels.size());
    for (size_t I = 0; I != Rels.size(); ++I) {
      EXPECT_EQ(Loaded[I].Name, Rels[I].Name);
      EXPECT_EQ(Loaded[I].Rel.schema(), Rels[I].Rel.schema());
      EXPECT_EQ(tupleSet(Loaded[I].Rel), Want[I]) << "seed " << Seed;
    }
    EXPECT_TRUE(Loaded[NumRels].Rel.body().isFalse());
    EXPECT_TRUE(Loaded[NumRels + 1].Rel.body().isTrue());

    // Also across the bit-order boundary.
    expectLoadsEqual(Image, D, Want, orderOf(D, "x"));
  }
}

TEST(IoCheckpoint, SaveIsDeterministic) {
  SplitMix64 Rng(7);
  Decl D = randomDecl(Rng);
  Universe U;
  declare(U, D);
  std::vector<NamedRelation> Rels;
  for (size_t I = 0; I != 3; ++I)
    Rels.push_back({"r" + std::to_string(I), randomRelation(U, D, Rng)});

  std::string A, B;
  obs::Tracer &T = obs::Tracer::instance();
  T.clear();
  T.setLevel(obs::Level::Metrics);
  ASSERT_TRUE(io::saveCheckpoint(U, Rels, A, 42).ok());
  ASSERT_TRUE(io::saveCheckpoint(U, Rels, B, 42).ok());
  T.setLevel(obs::Level::Off);
  EXPECT_EQ(A, B);

  // Each save's span carries the image's size.
  obs::TotalsMap Totals = T.totals();
  T.clear();
  auto Save = Totals.find(obs::SpanKey{obs::Cat::Io, "save", "", "", 0});
  ASSERT_NE(Save, Totals.end());
  EXPECT_EQ(Save->second.Count, 2u);
  EXPECT_EQ(Save->second.arg("bytes").Sum, A.size() + B.size());
  EXPECT_EQ(Save->second.arg("bytes").Max, A.size());
}

//===----------------------------------------------------------------------===//
// Typed mismatch errors
//===----------------------------------------------------------------------===//

/// \p Image with the header's kind byte set to \p Kind and the header
/// CRC recomputed, so the kind is the only thing wrong with it.
std::string withKind(std::string Image, uint8_t Kind) {
  // "JDD1", the header tag and a one-byte length; the payload starts
  // with the kind and is followed by its CRC32, little-endian.
  size_t Len = static_cast<uint8_t>(Image[5]);
  Image[6] = static_cast<char>(Kind);
  uint32_t Crc = io::crc32(Image.data() + 6, Len);
  for (size_t I = 0; I != 4; ++I)
    Image[6 + Len + I] = static_cast<char>(Crc >> (8 * I));
  return Image;
}

TEST(IoErrors, KindMismatchIsTyped) {
  Universe U;
  DomainId Dom = U.addDomain("D", 8);
  U.addAttribute("a", Dom);
  U.addPhysicalDomain("P", 3);
  U.finalize();
  Relation R = U.empty({{0, 0}});
  R.insert({5});
  std::string Image = saveOne(R);
  ASSERT_EQ(withKind(Image, 3), Image); // The patch rewrites only the kind.

  // Kinds 1 (raw BDD) and 2 (one relation) were never written by a
  // tool; they read as bad-kind, like every kind but 3.
  for (uint8_t Kind : {1, 2, 0, 4}) {
    std::vector<NamedRelation> Loaded;
    io::Error E = io::loadCheckpoint(U, withKind(Image, Kind), Loaded);
    EXPECT_EQ(E.Code, io::ErrorCode::BadKind) << E.toString();
    io::InspectInfo Info;
    E = io::inspectImage(withKind(Image, Kind), Info);
    EXPECT_EQ(E.Code, io::ErrorCode::BadKind) << E.toString();
  }
}

TEST(IoErrors, DomainSizeMismatchIsTyped) {
  Universe U1;
  DomainId Dom = U1.addDomain("D", 8);
  U1.addAttribute("a", Dom);
  U1.addPhysicalDomain("P", 3);
  U1.finalize();
  Relation R = U1.empty({{0, 0}});
  R.insert({3});
  std::string Image = saveOne(R);

  // Same names, different domain size: must be refused, not loaded
  // against the wrong object mapping.
  Universe U2;
  DomainId Dom2 = U2.addDomain("D", 16);
  U2.addAttribute("a", Dom2);
  U2.addPhysicalDomain("P", 4);
  U2.finalize();
  Relation Out;
  io::Error E = loadOne(U2, Image, Out);
  EXPECT_EQ(E.Code, io::ErrorCode::DomainMismatch) << E.toString();
}

TEST(IoErrors, MissingAttributeIsTyped) {
  Universe U1;
  DomainId Dom = U1.addDomain("D", 8);
  U1.addAttribute("only_here", Dom);
  U1.addPhysicalDomain("P", 3);
  U1.finalize();
  std::string Image = saveOne(U1.empty({{0, 0}}));

  Universe U2;
  DomainId Dom2 = U2.addDomain("D", 8);
  U2.addAttribute("different", Dom2);
  U2.addPhysicalDomain("P", 3);
  U2.finalize();
  Relation Out;
  io::Error E = loadOne(U2, Image, Out);
  EXPECT_FALSE(E.ok());
  EXPECT_EQ(E.Code, io::ErrorCode::DomainMismatch) << E.toString();
}

//===----------------------------------------------------------------------===//
// Golden-format fixture
//===----------------------------------------------------------------------===//

/// The canonical fixture universe: fixed declarations, fixed tuples.
/// tests/data/golden_v1.jdd pins the v1 byte encoding of this
/// checkpoint; regenerate only on a deliberate format-version bump
/// (see docs/persistence.md).
void declareGolden(Universe &U) {
  // The fixture was saved under the interleaved order.
  DomainId Node = U.addDomain("Node", 12);
  DomainId Color = U.addDomain("Color", 3);
  U.addAttribute("src", Node);
  U.addAttribute("dst", Node);
  U.addAttribute("hue", Color);
  U.addPhysicalDomain("N1", 4);
  U.addPhysicalDomain("N2", 4);
  U.addPhysicalDomain("C1", 2);
  U.finalize("N1xN2xC1");
}

std::vector<NamedRelation> goldenRelations(Universe &U) {
  Relation Edges = U.empty({{0, 0}, {1, 1}});
  Edges.insert({0, 1});
  Edges.insert({1, 2});
  Edges.insert({2, 0});
  Edges.insert({7, 11});
  Relation Paint = U.empty({{0, 0}, {2, 2}});
  Paint.insert({0, 0});
  Paint.insert({1, 2});
  Relation Nothing = U.empty({{2, 2}});
  return {{"edges", std::move(Edges)},
          {"paint", std::move(Paint)},
          {"nothing", std::move(Nothing)}};
}

TEST(IoGolden, FixtureLoadsByteExactly) {
  std::string Path = std::string(JEDDPP_TESTS_DATA_DIR) + "/golden_v1.jdd";
  std::string FileBytes;
  ASSERT_TRUE(readFileToString(Path, FileBytes))
      << "missing golden fixture " << Path;

  Universe U;
  declareGolden(U);
  std::vector<NamedRelation> Loaded;
  uint64_t Hash = 0;
  io::Error E = io::loadCheckpoint(U, FileBytes, Loaded, &Hash);
  ASSERT_TRUE(E.ok()) << E.toString();
  EXPECT_EQ(Hash, 0x676f6c64656e3031ULL); // "golden01".

  ASSERT_EQ(Loaded.size(), 3u);
  EXPECT_EQ(Loaded[0].Name, "edges");
  EXPECT_EQ(tupleSet(Loaded[0].Rel),
            (std::set<std::vector<uint64_t>>{
                {0, 1}, {1, 2}, {2, 0}, {7, 11}}));
  EXPECT_EQ(Loaded[1].Name, "paint");
  EXPECT_EQ(tupleSet(Loaded[1].Rel),
            (std::set<std::vector<uint64_t>>{{0, 0}, {1, 2}}));
  EXPECT_EQ(Loaded[2].Name, "nothing");
  EXPECT_TRUE(Loaded[2].Rel.isEmpty());
}

TEST(IoGolden, FixtureInspectsWithItsSavedLayout) {
  std::string Path = std::string(JEDDPP_TESTS_DATA_DIR) + "/golden_v1.jdd";
  std::string FileBytes;
  ASSERT_TRUE(readFileToString(Path, FileBytes))
      << "missing golden fixture " << Path;
  io::InspectInfo Info;
  io::Error E = io::inspectImage(FileBytes, Info);
  ASSERT_TRUE(E.ok()) << E.toString();
  EXPECT_EQ(Info.Order, "N1xN2xC1");
  EXPECT_EQ(Info.NumVars, 10u);

  Universe U;
  declareGolden(U);
  std::vector<NamedRelation> Live = goldenRelations(U);
  ASSERT_EQ(Info.Relations.size(), Live.size());
  for (size_t I = 0; I != Live.size(); ++I) {
    EXPECT_EQ(Info.Relations[I].Name, Live[I].Name);
    EXPECT_EQ(Info.Relations[I].Nodes, Live[I].Rel.nodeCount());
    EXPECT_EQ(Info.Relations[I].Tuples, Live[I].Rel.sizeExact().toString());
  }
}

TEST(IoGolden, SerializationReproducesTheFixtureBytes) {
  std::string Path = std::string(JEDDPP_TESTS_DATA_DIR) + "/golden_v1.jdd";
  std::string FileBytes;
  ASSERT_TRUE(readFileToString(Path, FileBytes))
      << "missing golden fixture " << Path;

  // Rebuilding the fixture from scratch must reproduce the file
  // byte for byte: the v1 encoding is part of the contract.
  Universe U;
  declareGolden(U);
  std::string Image;
  io::Error E =
      io::saveCheckpoint(U, goldenRelations(U), Image, 0x676f6c64656e3031ULL);
  ASSERT_TRUE(E.ok()) << E.toString();
  EXPECT_EQ(Image, FileBytes)
      << "the v1 byte encoding changed; this needs a format version bump";

  // And two saves in a row are byte-identical (no hidden state).
  std::string Again;
  ASSERT_TRUE(
      io::saveCheckpoint(U, goldenRelations(U), Again, 0x676f6c64656e3031ULL)
          .ok());
  EXPECT_EQ(Again, Image);
}

} // namespace
