//===- util_test.cpp - Tests for the support utilities ---------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "util/BitSet.h"
#include "util/Diagnostic.h"
#include "util/File.h"
#include "util/Json.h"
#include "util/Random.h"
#include "util/StringUtils.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

using namespace jedd;

namespace {

//===----------------------------------------------------------------------===//
// Strings
//===----------------------------------------------------------------------===//

/// Every field FieldScanner reads from \p Text.
std::vector<std::string_view> fieldsOf(std::string_view Text, char Sep) {
  std::vector<std::string_view> Fields;
  FieldScanner Scanner(Text, Sep);
  for (std::string_view Field; Scanner.next(Field);)
    Fields.push_back(Field);
  return Fields;
}

TEST(StringUtils, Split) {
  EXPECT_EQ(fieldsOf("a,b,c", ','),
            (std::vector<std::string_view>{"a", "b", "c"}));
  EXPECT_EQ(fieldsOf("", ','), (std::vector<std::string_view>{""}));
  EXPECT_EQ(fieldsOf("a,,b", ','),
            (std::vector<std::string_view>{"a", "", "b"}));
  EXPECT_EQ(fieldsOf(",", ','), (std::vector<std::string_view>{"", ""}));
}

TEST(StringUtils, ParseDecimal) {
  uint32_t Small = 7;
  EXPECT_TRUE(parseDecimal("00", Small));
  EXPECT_EQ(Small, 0u);
  EXPECT_TRUE(parseDecimal("4294967295", Small));
  EXPECT_EQ(Small, 4294967295u);
  for (const char *Bad : {"", "4294967296", "-1", "+1", "0x1", "12a", " 1"})
    EXPECT_FALSE(parseDecimal(Bad, Small)) << Bad;
  EXPECT_EQ(Small, 4294967295u); // Untouched by a rejected text.
  uint64_t Wide = 0;
  EXPECT_TRUE(parseDecimal("18446744073709551615", Wide));
  EXPECT_FALSE(parseDecimal("18446744073709551616", Wide));
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trimString("  hi  "), "hi");
  EXPECT_EQ(trimString("hi"), "hi");
  EXPECT_EQ(trimString("   "), "");
  EXPECT_EQ(trimString("\t\na b\r\n"), "a b");
}

TEST(StringUtils, Join) {
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(joinStrings({}, ", "), "");
  EXPECT_EQ(joinStrings({"x"}, ", "), "x");
}

TEST(StringUtils, Format) {
  EXPECT_EQ(strFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strFormat("%s", std::string(500, 'a').c_str()),
            std::string(500, 'a'));
}

TEST(StringUtils, EscapeHtml) {
  EXPECT_EQ(escapeHtml("<a & \"b\">"), "&lt;a &amp; &quot;b&quot;&gt;");
  EXPECT_EQ(escapeHtml("plain"), "plain");
}

TEST(StringUtils, FormatLoc) {
  EXPECT_EQ(formatLoc("Test.jedd", SourceLoc(4, 25)), "Test.jedd:4,25");
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(Diagnostics, CollectsAndRenders) {
  DiagnosticEngine Diags("file.jedd");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning(SourceLoc(1, 2), "watch out");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error(SourceLoc(3, 4), "boom");
  Diags.note(SourceLoc(), "context");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  std::string Text = Diags.renderAll();
  EXPECT_NE(Text.find("file.jedd:1,2: warning: watch out"),
            std::string::npos);
  EXPECT_NE(Text.find("file.jedd:3,4: error: boom"), std::string::npos);
  EXPECT_NE(Text.find("note: context"), std::string::npos);
  EXPECT_TRUE(Diags.containsMessage("boom"));
  EXPECT_FALSE(Diags.containsMessage("quiet"));
}

//===----------------------------------------------------------------------===//
// PRNG
//===----------------------------------------------------------------------===//

TEST(Random, DeterministicAndBounded) {
  SplitMix64 A(7), B(7);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  SplitMix64 Rng(1);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(Rng.nextBelow(10), 10u);
    uint64_t V = Rng.nextInRange(5, 9);
    EXPECT_GE(V, 5u);
    EXPECT_LE(V, 9u);
  }
}

TEST(Random, BitsForSize) {
  EXPECT_EQ(bitsForSize(1), 1u);
  EXPECT_EQ(bitsForSize(2), 1u);
  EXPECT_EQ(bitsForSize(3), 2u);
  EXPECT_EQ(bitsForSize(4), 2u);
  EXPECT_EQ(bitsForSize(5), 3u);
  EXPECT_EQ(bitsForSize(1024), 10u);
  EXPECT_EQ(bitsForSize(1025), 11u);
}

//===----------------------------------------------------------------------===//
// BitSet
//===----------------------------------------------------------------------===//

TEST(BitSet, SetTestReset) {
  BitSet S(130);
  EXPECT_EQ(S.size(), 130u);
  EXPECT_TRUE(S.empty());
  EXPECT_TRUE(S.set(0));
  EXPECT_TRUE(S.set(64));
  EXPECT_TRUE(S.set(129));
  EXPECT_FALSE(S.set(64)); // Already set.
  EXPECT_TRUE(S.test(0));
  EXPECT_TRUE(S.test(64));
  EXPECT_TRUE(S.test(129));
  EXPECT_FALSE(S.test(1));
  EXPECT_EQ(S.count(), 3u);
  S.reset(64);
  EXPECT_FALSE(S.test(64));
  EXPECT_EQ(S.count(), 2u);
}

TEST(BitSet, UnionWith) {
  BitSet A(100), B(100);
  A.set(1);
  A.set(70);
  B.set(2);
  B.set(70);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_EQ(A.count(), 3u);
  EXPECT_FALSE(A.unionWith(B)); // No growth the second time.
}

TEST(BitSet, ForEachAscending) {
  BitSet S(200);
  std::vector<size_t> Expected = {0, 63, 64, 65, 127, 128, 199};
  for (size_t Bit : Expected)
    S.set(Bit);
  std::vector<size_t> Seen;
  S.forEach([&](size_t Bit) { Seen.push_back(Bit); });
  EXPECT_EQ(Seen, Expected);
}

TEST(BitSet, EqualityAndRandomizedAgainstStdSet) {
  SplitMix64 Rng(5);
  BitSet S(500);
  std::set<size_t> Ref;
  for (int I = 0; I != 2000; ++I) {
    size_t Bit = Rng.nextBelow(500);
    if (Rng.nextChance(2, 3)) {
      S.set(Bit);
      Ref.insert(Bit);
    } else {
      S.reset(Bit);
      Ref.erase(Bit);
    }
  }
  EXPECT_EQ(S.count(), Ref.size());
  std::vector<size_t> Seen;
  S.forEach([&](size_t Bit) { Seen.push_back(Bit); });
  EXPECT_EQ(Seen, std::vector<size_t>(Ref.begin(), Ref.end()));
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

TEST(Json, ParsesBasicDocuments) {
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson(R"({"a": [1, 2.5, -3e2], "b": "x", "c": true,
                            "d": null})",
                        V, Error))
      << Error;
  ASSERT_NE(V.get("a"), nullptr);
  EXPECT_EQ(V.get("a")->Arr.size(), 3u);
  EXPECT_EQ(V.get("a")->Arr[2].Num, -300.0);
  EXPECT_EQ(V.get("b")->Str, "x");
  EXPECT_TRUE(V.get("c")->B);
  EXPECT_EQ(V.get("d")->K, JsonValue::Kind::Null);
}

TEST(Json, DeepNestingFailsInsteadOfOverflowingTheStack) {
  // An unbounded recursive descent would crash on these; the parser
  // must stop at its depth limit with a diagnostic.
  JsonValue V;
  std::string Error;
  EXPECT_FALSE(parseJson(std::string(100000, '['), V, Error));
  EXPECT_NE(Error.find("nesting too deep"), std::string::npos);
  std::string Balanced =
      std::string(100000, '[') + "1" + std::string(100000, ']');
  EXPECT_FALSE(parseJson(Balanced, V, Error));
  std::string Objects;
  for (int I = 0; I != 100000; ++I)
    Objects += "{\"k\":";
  EXPECT_FALSE(parseJson(Objects, V, Error));
}

TEST(Json, ReasonableNestingStillParses) {
  JsonValue V;
  std::string Error;
  std::string Doc = std::string(200, '[') + "0" + std::string(200, ']');
  ASSERT_TRUE(parseJson(Doc, V, Error)) << Error;
  // Depth resets between documents: a second parse with the same
  // parser budget must also succeed.
  ASSERT_TRUE(parseJson(Doc, V, Error)) << Error;
}

TEST(Json, RejectsNonFiniteNumbers) {
  // strtod would happily return inf/nan for these; JSON has neither.
  JsonValue V;
  std::string Error;
  EXPECT_FALSE(parseJson("1e999", V, Error));
  EXPECT_NE(Error.find("number out of range"), std::string::npos);
  EXPECT_FALSE(parseJson("-1e999", V, Error));
  EXPECT_FALSE(parseJson("-nan", V, Error));
  EXPECT_FALSE(parseJson("[1, 1e999]", V, Error));
  // Large-but-finite values stay valid.
  ASSERT_TRUE(parseJson("1e308", V, Error)) << Error;
  EXPECT_EQ(V.Num, 1e308);
}

//===----------------------------------------------------------------------===//
// File I/O
//===----------------------------------------------------------------------===//

TEST(FileIo, RoundTrip) {
  std::string Path = ::testing::TempDir() + "/jeddpp_util_test.txt";
  std::string Payload = "line one\nline two\n\xffraw";
  ASSERT_TRUE(writeStringToFile(Path, Payload));
  std::string Read;
  ASSERT_TRUE(readFileToString(Path, Read));
  EXPECT_EQ(Read, Payload);
  std::remove(Path.c_str());
}

TEST(FileIo, MissingFileFails) {
  std::string Out;
  EXPECT_FALSE(readFileToString("/nonexistent/nowhere.txt", Out));
}

} // namespace
