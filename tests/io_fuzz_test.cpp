//===- io_fuzz_test.cpp - Corruption battery for the persistent store -----===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hostile-input tests for the JDD1 loader (src/io): every truncation,
/// every single-byte corruption, and structural splices at every section
/// boundary of a valid image must come back as a typed io::Error — never
/// a crash, never out-of-bounds reads (tools/run_sanitized_tests.sh runs
/// this suite under ASan and TSan), and never a silently wrong load.
///
/// The facts reader, soot::parseFacts, gets seeded mutations of a valid
/// text: it must accept or reject, and what it accepts must write back
/// and read again unchanged.
///
//===----------------------------------------------------------------------===//

#include "io/Binary.h"
#include "io/Io.h"
#include "rel/Relation.h"
#include "soot/FactsIO.h"
#include "soot/Generator.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace jedd;
using namespace jedd::rel;
using io::NamedRelation;

namespace {

/// A small fixed universe every fuzz case loads against.
class IoFuzzTest : public ::testing::Test {
protected:
  void SetUp() override {
    DomainId Node = U.addDomain("Node", 20);
    DomainId Tag = U.addDomain("Tag", 5);
    U.addAttribute("src", Node);
    U.addAttribute("dst", Node);
    U.addAttribute("tag", Tag);
    U.addPhysicalDomain("P0", 5);
    U.addPhysicalDomain("P1", 5);
    U.addPhysicalDomain("P2", 3);
    U.finalize();

    Relation Edges = U.empty({{0, 0}, {1, 1}});
    for (uint64_t I = 0; I != 12; ++I)
      Edges.insert({(I * 7) % 20, (I * 3 + 1) % 20});
    Relation Tags = U.empty({{1, 1}, {2, 2}});
    Tags.insert({4, 0});
    Tags.insert({9, 3});
    ASSERT_TRUE(io::saveCheckpoint(U, {{"edges", Edges}, {"tags", Tags}},
                                   Image, 0x1234)
                    .ok());
    ASSERT_GT(Image.size(), 8u);
  }

  /// Loading must never crash; returns the loader's error.
  io::Error tryLoad(const std::string &Bytes) {
    std::vector<NamedRelation> Out;
    uint64_t Hash = 0;
    return io::loadCheckpoint(U, Bytes, Out, &Hash);
  }

  Universe U;
  std::string Image;
};

//===----------------------------------------------------------------------===//
// Truncation
//===----------------------------------------------------------------------===//

TEST_F(IoFuzzTest, EveryTruncationIsATypedError) {
  // Every strict prefix of a valid image is invalid: the format ends
  // with an End section and permits no trailing garbage, so a cut at
  // any byte must surface as an error.
  for (size_t Len = 0; Len != Image.size(); ++Len) {
    io::Error E = tryLoad(Image.substr(0, Len));
    EXPECT_FALSE(E.ok()) << "prefix of " << Len << " bytes loaded";
    EXPECT_NE(E.Code, io::ErrorCode::None);
  }
}

TEST_F(IoFuzzTest, TrailingGarbageIsRejected) {
  for (const std::string &Tail :
       {std::string("x"), std::string(1, '\0'), std::string("JDD1"),
        std::string(1, '\x7e')}) {
    io::Error E = tryLoad(Image + Tail);
    EXPECT_FALSE(E.ok()) << "accepted trailing bytes";
  }
}

//===----------------------------------------------------------------------===//
// Single-byte corruption
//===----------------------------------------------------------------------===//

TEST_F(IoFuzzTest, EveryByteFlipIsATypedError) {
  // Flip each byte several ways. The CRCs cover every payload, the
  // magic and section framing are validated positionally, and the image
  // is a fixed test vector — so every one of these loads must fail
  // deterministically (and, under ASan, must not touch bad memory).
  for (size_t Pos = 0; Pos != Image.size(); ++Pos) {
    for (uint8_t Mask : {0x01, 0x80, 0xFF}) {
      std::string Bad = Image;
      Bad[Pos] = static_cast<char>(static_cast<uint8_t>(Bad[Pos]) ^ Mask);
      io::Error E = tryLoad(Bad);
      EXPECT_FALSE(E.ok())
          << "byte " << Pos << " ^ 0x" << std::hex << unsigned(Mask)
          << " still loaded";
    }
  }
}

TEST_F(IoFuzzTest, EveryByteZeroedIsATypedError) {
  for (size_t Pos = 0; Pos != Image.size(); ++Pos) {
    if (Image[Pos] == '\x00')
      continue; // Already zero: not a corruption.
    std::string Bad = Image;
    Bad[Pos] = '\x00';
    io::Error E = tryLoad(Bad);
    EXPECT_FALSE(E.ok()) << "byte " << Pos << " zeroed still loaded";
  }
}

//===----------------------------------------------------------------------===//
// Structural splices
//===----------------------------------------------------------------------===//

/// Decodes the section framing of a valid image: [Start, End) byte
/// ranges of each section (tag + length varint + payload + CRC), after
/// the 4-byte magic.
std::vector<std::pair<size_t, size_t>>
sectionRanges(const std::string &Image) {
  std::vector<std::pair<size_t, size_t>> Ranges;
  size_t Pos = 4; // Skip "JDD1".
  while (Pos < Image.size()) {
    size_t Start = Pos;
    ++Pos; // Tag.
    uint64_t Len = 0;
    unsigned Shift = 0;
    while (true) {
      uint8_t Byte = static_cast<uint8_t>(Image[Pos++]);
      Len |= uint64_t(Byte & 0x7F) << Shift;
      Shift += 7;
      if (!(Byte & 0x80))
        break;
    }
    Pos += Len + 4; // Payload + CRC32.
    Ranges.push_back({Start, Pos});
  }
  return Ranges;
}

TEST_F(IoFuzzTest, SectionFramingParsesCleanly) {
  // Sanity-check the test's own framing walk: contiguous sections
  // covering magic..EOF. (If the format framing changes, fix
  // sectionRanges() with it.)
  auto Ranges = sectionRanges(Image);
  ASSERT_GE(Ranges.size(), 4u); // Header, nodes, roots, end at minimum.
  size_t Pos = 4;
  for (auto [Start, End] : Ranges) {
    EXPECT_EQ(Start, Pos);
    Pos = End;
  }
  EXPECT_EQ(Pos, Image.size());
}

TEST_F(IoFuzzTest, DroppingAnySectionIsATypedError) {
  auto Ranges = sectionRanges(Image);
  for (size_t I = 0; I != Ranges.size(); ++I) {
    std::string Bad = Image.substr(0, Ranges[I].first) +
                      Image.substr(Ranges[I].second);
    io::Error E = tryLoad(Bad);
    EXPECT_FALSE(E.ok()) << "image without section " << I << " loaded";
  }
}

TEST_F(IoFuzzTest, DuplicatingAnySectionIsATypedError) {
  auto Ranges = sectionRanges(Image);
  for (size_t I = 0; I != Ranges.size(); ++I) {
    std::string Sect =
        Image.substr(Ranges[I].first, Ranges[I].second - Ranges[I].first);
    std::string Bad = Image.substr(0, Ranges[I].second) + Sect +
                      Image.substr(Ranges[I].second);
    io::Error E = tryLoad(Bad);
    EXPECT_FALSE(E.ok()) << "image with duplicated section " << I
                         << " loaded";
  }
}

TEST_F(IoFuzzTest, SwappingAdjacentSectionsIsATypedError) {
  auto Ranges = sectionRanges(Image);
  for (size_t I = 0; I + 1 != Ranges.size(); ++I) {
    std::string A =
        Image.substr(Ranges[I].first, Ranges[I].second - Ranges[I].first);
    std::string B = Image.substr(Ranges[I + 1].first,
                                 Ranges[I + 1].second - Ranges[I + 1].first);
    std::string Bad = Image.substr(0, Ranges[I].first) + B + A +
                      Image.substr(Ranges[I + 1].second);
    io::Error E = tryLoad(Bad);
    EXPECT_FALSE(E.ok()) << "image with sections " << I << "/" << I + 1
                         << " swapped loaded";
  }
}

TEST_F(IoFuzzTest, SplicingSectionsAcrossImagesIsDetected) {
  // A second, structurally identical image with different content: every
  // whole-section transplant must be caught (the per-section CRC passes,
  // so this exercises the cross-section consistency checks).
  Relation Other = U.empty({{0, 0}, {1, 1}});
  Other.insert({1, 1});
  Relation OtherTags = U.empty({{1, 1}, {2, 2}});
  OtherTags.insert({0, 1});
  std::string Donor;
  ASSERT_TRUE(io::saveCheckpoint(
                  U, {{"edges", Other}, {"tags", OtherTags}}, Donor, 0x9999)
                  .ok());

  auto Ranges = sectionRanges(Image);
  auto DonorRanges = sectionRanges(Donor);
  ASSERT_EQ(Ranges.size(), DonorRanges.size());
  for (size_t I = 0; I != Ranges.size(); ++I) {
    std::string Transplant =
        Donor.substr(DonorRanges[I].first,
                     DonorRanges[I].second - DonorRanges[I].first);
    std::string Bad = Image.substr(0, Ranges[I].first) + Transplant +
                      Image.substr(Ranges[I].second);
    std::vector<NamedRelation> Out;
    uint64_t Hash = 0;
    io::Error E = io::loadCheckpoint(U, Bad, Out, &Hash);
    if (!E.ok())
      continue; // Detected structurally: good.
    // A transplanted section that still parses must at least be
    // semantically harmless: every loaded relation stays well-formed
    // and enumerable (no dangling refs, no UB).
    for (const NamedRelation &R : Out) {
      EXPECT_TRUE(R.Rel.isValid());
      (void)R.Rel.tuples();
    }
  }
}

//===----------------------------------------------------------------------===//
// Degenerate inputs
//===----------------------------------------------------------------------===//

TEST_F(IoFuzzTest, DegenerateInputsAreTyped) {
  // Inputs shorter than the magic report BadMagic, like a wrong magic.
  EXPECT_EQ(tryLoad("").Code, io::ErrorCode::BadMagic);
  EXPECT_EQ(tryLoad("JD").Code, io::ErrorCode::BadMagic);
  EXPECT_EQ(tryLoad("NOPE").Code, io::ErrorCode::BadMagic);
  EXPECT_EQ(tryLoad("JDD2....").Code, io::ErrorCode::BadMagic);
  EXPECT_EQ(tryLoad("JDD1").Code, io::ErrorCode::Truncated);
  EXPECT_EQ(tryLoad(std::string(1 << 16, '\x00')).Code,
            io::ErrorCode::BadMagic);

  // The image with its kind patched to 1 or 2 (never written by a tool)
  // and the header CRC recomputed: a typed kind error.
  auto Ranges = sectionRanges(Image);
  size_t Payload = Ranges[0].first + 2; // Header tag, one-byte length.
  size_t Len = Ranges[0].second - 4 - Payload;
  for (uint8_t Kind : {1, 2}) {
    std::string Bad = Image;
    Bad[Payload] = static_cast<char>(Kind);
    uint32_t Crc = io::crc32(Bad.data() + Payload, Len);
    for (size_t I = 0; I != 4; ++I)
      Bad[Payload + Len + I] = static_cast<char>(Crc >> (8 * I));
    EXPECT_EQ(tryLoad(Bad).Code, io::ErrorCode::BadKind);
  }
}

TEST_F(IoFuzzTest, RandomBytesNeverCrashTheLoader) {
  // Pure-noise inputs of many lengths; all must fail cleanly. A fixed
  // LCG keeps the battery reproducible.
  uint64_t State = 0x243F6A8885A308D3ULL;
  auto Next = [&State] {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<char>(State >> 33);
  };
  for (size_t Len : {1, 3, 4, 5, 8, 16, 64, 256, 1024, 65536}) {
    for (int Round = 0; Round != 8; ++Round) {
      std::string Noise(Len, '\0');
      for (char &C : Noise)
        C = Next();
      io::Error E = tryLoad(Noise);
      EXPECT_FALSE(E.ok());
    }
  }
  // Noise behind a valid magic, so parsing reaches the section walk.
  for (size_t Len : {1, 2, 6, 32, 512}) {
    for (int Round = 0; Round != 8; ++Round) {
      std::string Noise = "JDD1";
      for (size_t I = 0; I != Len; ++I)
        Noise += Next();
      io::Error E = tryLoad(Noise);
      EXPECT_FALSE(E.ok());
    }
  }
}

//===----------------------------------------------------------------------===//
// Facts reader
//===----------------------------------------------------------------------===//

/// \p Text with one to three seeded mutations: a flipped bit, a
/// truncation, or a line written twice.
std::string mutate(const std::string &Text, SplitMix64 &Rng) {
  std::string Out = Text;
  for (uint64_t N = 1 + Rng.nextBelow(3); N-- != 0 && !Out.empty();) {
    size_t Pos = Rng.nextBelow(Out.size());
    switch (Rng.nextBelow(3)) {
    case 0:
      Out[Pos] = static_cast<char>(Out[Pos] ^ (1 << Rng.nextBelow(8)));
      break;
    case 1:
      Out.resize(Pos);
      break;
    default: {
      size_t Begin = Out.rfind('\n', Pos);
      Begin = Begin == std::string::npos ? 0 : Begin + 1;
      size_t End = Out.find('\n', Pos);
      End = End == std::string::npos ? Out.size() : End + 1;
      Out.insert(End, Out.substr(Begin, End - Begin));
    }
    }
  }
  return Out;
}

TEST(TextFuzz, MutatedFactsAreReadOrRejected) {
  soot::GeneratorParams Params;
  Params.NumClasses = 6;
  Params.NumSignatures = 4;
  Params.Seed = 25;
  const std::string Text = soot::writeFacts(soot::generateProgram(Params));
  SplitMix64 Rng(0xfac75);
  unsigned Accepted = 0, Rejected = 0;
  for (int Round = 0; Round != 600; ++Round) {
    std::string Bad = mutate(Text, Rng);
    soot::Program P;
    std::string Error;
    if (!soot::parseFacts(Bad, P, Error)) {
      EXPECT_FALSE(Error.empty());
      ++Rejected;
      continue;
    }
    ++Accepted;
    std::string Written = soot::writeFacts(P);
    soot::Program Q;
    ASSERT_TRUE(soot::parseFacts(Written, Q, Error))
        << Error << "\nin the re-written form of:\n"
        << Bad;
    EXPECT_EQ(soot::writeFacts(Q), Written);
  }
  // Both outcomes occur, so the battery reaches past the first error.
  EXPECT_GT(Accepted, 10u);
  EXPECT_GT(Rejected, 10u);
}

} // namespace
