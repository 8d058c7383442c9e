//===- soot_test.cpp - Tests for the program model and generator ----------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "soot/FactsIO.h"
#include "soot/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace jedd;
using namespace jedd::soot;

namespace {

/// The paper's running example: class B extends A; A implements foo(),
/// B implements bar().
Program figure4Program() {
  Program P;
  P.Klasses.push_back({"A", NoId});
  P.Klasses.push_back({"B", 0});
  P.Sigs.push_back({"foo()"});
  P.Sigs.push_back({"bar()"});
  P.Methods.push_back({/*Klass=*/0, /*Sig=*/0, NoId, {}, NoId}); // A.foo().
  P.Methods.push_back({/*Klass=*/1, /*Sig=*/1, NoId, {}, NoId}); // B.bar().
  return P;
}

TEST(SootModel, ResolveVirtualWalksTheHierarchy) {
  Program P = figure4Program();
  // B.foo() resolves to A.foo(); B.bar() to B.bar(); A.bar() is absent.
  EXPECT_EQ(P.resolveVirtual(1, 0), 0u);
  EXPECT_EQ(P.resolveVirtual(1, 1), 1u);
  EXPECT_EQ(P.resolveVirtual(0, 0), 0u);
  EXPECT_EQ(P.resolveVirtual(0, 1), NoId);
}

TEST(SootModel, DeclaredMethodDoesNotWalk) {
  Program P = figure4Program();
  EXPECT_EQ(P.declaredMethod(1, 0), NoId); // B does not declare foo().
  EXPECT_EQ(P.declaredMethod(0, 0), 0u);
}

TEST(SootModel, ValidateCatchesBrokenPrograms) {
  std::string Error;
  Program Empty;
  EXPECT_FALSE(Empty.validate(Error));

  Program P = figure4Program();
  P.VarMethod.resize(P.NumVars); // Trivially consistent.
  EXPECT_TRUE(P.validate(Error)) << Error;

  Program Cyclic = P;
  Cyclic.Klasses[1].Super = 1; // Self-extend.
  EXPECT_FALSE(Cyclic.validate(Error));

  Program BadAlloc = P;
  BadAlloc.Allocs.push_back({0, 5}); // No variables/sites exist.
  EXPECT_FALSE(BadAlloc.validate(Error));

  Program BadVarMethod = P;
  BadVarMethod.NumVars = 2;
  BadVarMethod.VarMethod = {1, 2}; // Two methods exist: 0 and 1.
  EXPECT_FALSE(BadVarMethod.validate(Error));
  EXPECT_EQ(Error, "variable 1 belongs to method 2, but the program has 2 "
                   "methods");
}

TEST(SootGenerator, ProducesValidPrograms) {
  for (uint64_t Seed : {1, 2, 3}) {
    GeneratorParams Params;
    Params.Seed = Seed;
    Program P = generateProgram(Params);
    std::string Error;
    EXPECT_TRUE(P.validate(Error)) << Error;
    EXPECT_EQ(P.Klasses.size(), Params.NumClasses);
    EXPECT_GE(P.Methods.size(), Params.NumSignatures); // Root implements all.
    EXPECT_GT(P.NumVars, 0u);
    EXPECT_GT(P.Calls.size(), 0u);
  }
}

TEST(SootGenerator, IsDeterministic) {
  GeneratorParams Params;
  Params.Seed = 42;
  Program A = generateProgram(Params);
  Program B = generateProgram(Params);
  EXPECT_EQ(A.NumVars, B.NumVars);
  EXPECT_EQ(A.NumSites, B.NumSites);
  ASSERT_EQ(A.Assigns.size(), B.Assigns.size());
  for (size_t I = 0; I != A.Assigns.size(); ++I) {
    EXPECT_EQ(A.Assigns[I].Dst, B.Assigns[I].Dst);
    EXPECT_EQ(A.Assigns[I].Src, B.Assigns[I].Src);
  }
}

TEST(SootGenerator, RootImplementsEverySignature) {
  GeneratorParams Params;
  Program P = generateProgram(Params);
  for (size_t S = 0; S != P.Sigs.size(); ++S)
    EXPECT_NE(P.declaredMethod(0, static_cast<Id>(S)), NoId);
  // Hence resolution from any class always succeeds.
  for (size_t K = 0; K != P.Klasses.size(); ++K)
    EXPECT_NE(P.resolveVirtual(static_cast<Id>(K), 0), NoId);
}

TEST(SootGenerator, PresetsScaleMonotonically) {
  size_t LastMethods = 0;
  for (const std::string &Name : table2Benchmarks()) {
    Program P = generateProgram(benchmarkPreset(Name));
    EXPECT_GT(P.Methods.size(), LastMethods)
        << Name << " should be larger than its predecessor";
    LastMethods = P.Methods.size();
  }
}

TEST(SootGenerator, ScalePresetsResolveOutsideTable2) {
  struct Shape {
    std::string Name;
    unsigned Classes, Signatures;
  };
  auto ExpectShape = [](const Shape &S) {
    GeneratorParams Params = benchmarkPreset(S.Name);
    EXPECT_EQ(Params.NumClasses, S.Classes) << S.Name;
    EXPECT_EQ(Params.NumSignatures, S.Signatures) << S.Name;
    EXPECT_EQ(Params.NumFields, 24u) << S.Name;
    EXPECT_EQ(Params.Seed, 0x6a656464u) << S.Name;
  };
  // The five Table 2 presets, in the paper's row order, are unchanged.
  std::vector<Shape> Table2 = {{"javac_s", 16, 14},
                               {"compress", 20, 16},
                               {"javac", 24, 18},
                               {"sablecc", 27, 20},
                               {"jedit", 30, 22}};
  const std::vector<std::string> &Names = table2Benchmarks();
  ASSERT_EQ(Names.size(), Table2.size());
  for (size_t I = 0; I != Table2.size(); ++I) {
    EXPECT_EQ(Names[I], Table2[I].Name);
    ExpectShape(Table2[I]);
  }
  // The scale presets resolve but are not Table 2 rows.
  for (const Shape &S :
       {Shape{"jedit_x4", 120, 90}, Shape{"jedit_x8", 240, 180}}) {
    ExpectShape(S);
    EXPECT_EQ(std::count(Names.begin(), Names.end(), S.Name), 0) << S.Name;
  }
}

//===----------------------------------------------------------------------===//
// Fact extraction
//===----------------------------------------------------------------------===//

using Batches = std::vector<std::vector<uint64_t>>;

/// The batches of \p F in member order, and the arity of each.
Batches batches(const MethodFacts &F) {
  return {F.Alloc, F.Assign, F.Load, F.Store, F.CallRecvSig, F.CallerOf};
}
constexpr size_t Arity[] = {2, 2, 3, 3, 3, 2};

/// Each batch as its sorted tuples; every batch must hold whole tuples.
std::vector<Batches> sortedTuples(const Batches &Facts) {
  std::vector<Batches> Out(Facts.size());
  for (size_t B = 0; B != Facts.size(); ++B) {
    EXPECT_EQ(Facts[B].size() % Arity[B], 0u) << "batch " << B;
    for (size_t I = 0; I + Arity[B] <= Facts[B].size(); I += Arity[B])
      Out[B].emplace_back(Facts[B].begin() + I,
                          Facts[B].begin() + I + Arity[B]);
    std::sort(Out[B].begin(), Out[B].end());
  }
  return Out;
}

TEST(SootFacts, StatementsGoToTheMethodThatOwnsThem) {
  // Variables 0, 1 belong to method 0; 2, 3 to method 1. Each statement
  // mixes the two, so only the ownership rule places it.
  Program P = figure4Program();
  P.NumVars = 4;
  P.VarMethod = {0, 0, 1, 1};
  P.Allocs.push_back({/*Var=*/2, /*Site=*/0});
  P.Assigns.push_back({/*Dst=*/0, /*Src=*/2});
  P.Loads.push_back({/*Dst=*/1, /*Base=*/3, /*Field=*/0});
  P.Stores.push_back({/*Base=*/3, /*Field=*/0, /*Src=*/0});
  P.Calls.push_back({/*Caller=*/1, /*Sig=*/0, /*RecvVar=*/0, {}, NoId});

  EXPECT_EQ(batches(P.factsOf({0})),
            (Batches{{}, {2, 0}, {3, 0, 1}, {}, {}, {}}));
  EXPECT_EQ(batches(P.factsOf({1})),
            (Batches{{2, 0}, {}, {}, {0, 3, 0}, {0, 0, 0}, {0, 1}}));
  EXPECT_EQ(batches(P.factsOf({})), Batches(6));
}

TEST(SootFacts, PartsOfTheMethodsAddUpToAllStatementsOnce) {
  GeneratorParams Params;
  Params.Seed = 7;
  Program P = generateProgram(Params);
  std::vector<Id> All, Parts[3];
  for (Id M = 0; M != P.Methods.size(); ++M) {
    All.push_back(M);
    Parts[M % 3].push_back(M);
  }

  // Over all methods, every statement and call site appears exactly once,
  // in the order of its list.
  Batches Want(6);
  for (const AllocStmt &S : P.Allocs)
    Want[0].insert(Want[0].end(), {S.Var, S.Site});
  for (const AssignStmt &S : P.Assigns)
    Want[1].insert(Want[1].end(), {S.Src, S.Dst});
  for (const LoadStmt &S : P.Loads)
    Want[2].insert(Want[2].end(), {S.Base, S.Field, S.Dst});
  for (const StoreStmt &S : P.Stores)
    Want[3].insert(Want[3].end(), {S.Src, S.Base, S.Field});
  for (size_t C = 0; C != P.Calls.size(); ++C) {
    Want[4].insert(Want[4].end(), {C, P.Calls[C].RecvVar, P.Calls[C].Sig});
    Want[5].insert(Want[5].end(), {C, P.Calls[C].Caller});
  }
  Batches Whole = batches(P.factsOf(All));
  for (const std::vector<uint64_t> &Batch : Whole)
    EXPECT_FALSE(Batch.empty());
  EXPECT_EQ(Whole, Want);

  // The facts of a partition of the methods, concatenated, are the facts
  // of all of them.
  Batches Joined(6);
  for (const std::vector<Id> &Part : Parts) {
    Batches F = batches(P.factsOf(Part));
    for (size_t B = 0; B != F.size(); ++B)
      Joined[B].insert(Joined[B].end(), F[B].begin(), F[B].end());
  }
  EXPECT_EQ(sortedTuples(Joined), sortedTuples(Whole));
}

TEST(SootFacts, CallCopiesPairUpToTheShorterList) {
  Program P = figure4Program();
  // Method 0 returns a value; method 1 is void.
  P.Methods[0].ThisVar = 10;
  P.Methods[0].ParamVars = {11, 12};
  P.Methods[0].RetVar = 13;
  P.Methods[1].ThisVar = 20;
  P.Methods[1].ParamVars = {21};
  // Call 0 passes three arguments and keeps the result; call 1 passes
  // one and has no result variable.
  P.Calls.push_back({/*Caller=*/0, /*Sig=*/0, /*RecvVar=*/1, {2, 3, 4}, 5});
  P.Calls.push_back({/*Caller=*/0, /*Sig=*/0, /*RecvVar=*/6, {7}, NoId});

  auto Copies = [&](Id Call, Id Callee) {
    std::vector<uint64_t> Out = {99, 98}; // Appended to, not replaced.
    P.callCopies(Call, Callee, Out);
    return std::vector<uint64_t>(Out.begin() + 2, Out.end());
  };
  // More arguments than parameters: the third argument copies nowhere.
  EXPECT_EQ(Copies(0, 0),
            (std::vector<uint64_t>{1, 10, 2, 11, 3, 12, 13, 5}));
  // Fewer arguments than parameters, and no result variable.
  EXPECT_EQ(Copies(1, 0), (std::vector<uint64_t>{6, 10, 7, 11}));
  // A void callee returns nothing into the result variable.
  EXPECT_EQ(Copies(0, 1), (std::vector<uint64_t>{1, 20, 2, 21}));
  EXPECT_EQ(Copies(1, 1), (std::vector<uint64_t>{6, 20, 7, 21}));
}

//===----------------------------------------------------------------------===//
// Facts text format
//===----------------------------------------------------------------------===//

TEST(FactsIo, RoundTripsGeneratedPrograms) {
  GeneratorParams Params;
  Params.NumClasses = 8;
  Params.NumSignatures = 5;
  Params.Seed = 9;
  Program P = generateProgram(Params);

  std::string Text = writeFacts(P);
  Program Q;
  std::string Error;
  ASSERT_TRUE(parseFacts(Text, Q, Error)) << Error;

  EXPECT_EQ(Q.Klasses.size(), P.Klasses.size());
  EXPECT_EQ(Q.NumVars, P.NumVars);
  EXPECT_EQ(Q.NumSites, P.NumSites);
  EXPECT_EQ(Q.EntryMethod, P.EntryMethod);
  ASSERT_EQ(Q.Calls.size(), P.Calls.size());
  for (size_t I = 0; I != P.Calls.size(); ++I) {
    EXPECT_EQ(Q.Calls[I].RecvVar, P.Calls[I].RecvVar);
    EXPECT_EQ(Q.Calls[I].ArgVars, P.Calls[I].ArgVars);
    EXPECT_EQ(Q.Calls[I].RetDstVar, P.Calls[I].RetDstVar);
  }
  // Byte-exact round trip of the serialized form.
  EXPECT_EQ(writeFacts(Q), Text);

  // And of every Table 2 preset, the programs the analyses run on.
  for (const char *Name :
       {"javac_s", "compress", "javac", "sablecc", "jedit"}) {
    std::string PresetText =
        writeFacts(generateProgram(benchmarkPreset(Name)));
    Program R;
    ASSERT_TRUE(parseFacts(PresetText, R, Error)) << Name << ": " << Error;
    EXPECT_EQ(writeFacts(R), PresetText) << Name;
  }
}

TEST(FactsIo, ParsesHandWrittenFacts) {
  const char *Text = R"(# tiny program
class A
class B extends A
sig m0()
field f
method 0 0 this=0 params=- ret=1
entry 0
var 0 method=0
var 1 method=0
site 0 type=1
alloc v=0 site=0
assign dst=1 src=0
store base=0 field=0 src=1
load dst=1 base=0 field=0
call caller=0 sig=0 recv=0 args=- ret=1
)";
  Program P;
  std::string Error;
  ASSERT_TRUE(parseFacts(Text, P, Error)) << Error;
  EXPECT_EQ(P.Klasses.size(), 2u);
  EXPECT_EQ(P.Klasses[1].Super, 0u);
  EXPECT_EQ(P.NumVars, 2u);
  EXPECT_EQ(P.Calls.size(), 1u);
  EXPECT_EQ(P.Methods[0].RetVar, 1u);
  EXPECT_TRUE(P.Methods[0].ParamVars.empty());
}

TEST(FactsIo, ReportsMalformedInput) {
  Program P;
  std::string Error;
  EXPECT_FALSE(parseFacts("bogus line\n", P, Error));
  EXPECT_NE(Error.find("line 1"), std::string::npos);
  EXPECT_FALSE(parseFacts("class B extends Missing\n", P, Error));
  EXPECT_FALSE(parseFacts("class A\nvar 5 method=0\n", P, Error));
  // Valid syntax but fails validation (alloc over undeclared site).
  EXPECT_FALSE(parseFacts(
      "class A\nsig s\nmethod 0 0 this=- params=- ret=-\n"
      "var 0 method=0\nalloc v=0 site=3\n",
      P, Error));
  EXPECT_NE(Error.find("validation"), std::string::npos);
  // Parses, but a variable names a method the program does not declare.
  EXPECT_FALSE(parseFacts(
      "class A\nsig s\nmethod 0 0 this=0 params=- ret=-\n"
      "entry 0\nvar 0 method=0\nvar 1 method=7\n",
      P, Error));
  EXPECT_EQ(Error, "validation failed: variable 1 belongs to method 7, but "
                   "the program has 1 methods");

  // "-" (NoId) is a variable only in a method's this= and ret= and a
  // call's ret=; a statement that names no variable is malformed.
  const std::string Prefix = "class A\nsig s\nmethod 0 0 this=- params=- "
                             "ret=-\nentry 0\nvar 0 method=0\n"
                             "site 0 type=0\nfield f\n";
  const std::pair<const char *, const char *> Absent[] = {
      {"alloc v=- site=0", "malformed allocation"},
      {"assign dst=- src=0", "malformed assignment"},
      {"assign dst=0 src=-", "malformed assignment"},
      {"load dst=- base=0 field=0", "malformed load"},
      {"load dst=0 base=- field=0", "malformed load"},
      {"store base=- field=0 src=0", "malformed store"},
      {"store base=0 field=0 src=-", "malformed store"},
      {"call caller=0 sig=0 recv=- args=- ret=-", "malformed call site"},
      {"call caller=0 sig=0 recv=0 args=0,- ret=-",
       "malformed call argument"},
  };
  for (const auto &[Line, Message] : Absent) {
    EXPECT_FALSE(parseFacts(Prefix + Line + "\n", P, Error)) << Line;
    EXPECT_EQ(Error, std::string("validation failed: ") + Message) << Line;
  }
  EXPECT_FALSE(parseFacts("class A\nsig s\nmethod 0 0 this=- params=- ret=-"
                          "\nmethod 0 0 this=- params=0,- ret=-\nentry 0\n"
                          "var 0 method=0\n",
                          P, Error));
  EXPECT_EQ(Error, "validation failed: method with out-of-range parameter "
                   "variable");
  // The slots that may be absent still parse.
  ASSERT_TRUE(parseFacts(Prefix + "call caller=0 sig=0 recv=0 args=0 ret=-\n",
                         P, Error))
      << Error;
}

TEST(FactsIo, PinsEdgeCasesOfTheReader) {
  // The lines every case below starts from: a valid two-class program.
  const std::string Base = "class A\nclass B extends A\nsig m0()\nfield f\n"
                           "method 0 0 this=0 params=- ret=1\nentry 0\n"
                           "var 0 method=0\nvar 1 method=0\nsite 0 type=1\n";
  const std::string Alloc = "alloc v=0 site=0\n";
  const std::string Call = "call caller=0 sig=0 recv=0 args=1,0 ret=-\n";
  struct Case {
    const char *What;
    std::string Text;
    /// The error parseFacts reports; empty when it accepts the text.
    std::string Error;
    /// For an accepted text: a plain spelling of the same program, which
    /// must re-write to the same facts.
    std::string Plain;
  };
  std::string Crlf;
  for (char C : Base + Alloc)
    Crlf += C == '\n' ? std::string("\r\n") : std::string(1, C);
  const Case Cases[] = {
      {"CRLF line endings", Crlf, "", Base + Alloc},
      {"no final newline", Base + "alloc v=0 site=0", "", Base + Alloc},
      {"tab inside a line", Base + "alloc\tv=0 site=0\n",
       "line 10: unknown fact kind 'alloc\tv=0'", ""},
      {"vertical tab inside a line", Base + "alloc v=0\vsite=0\n",
       "line 10: malformed alloc", ""},
      {"doubled and trailing spaces", Base + "alloc  v=0   site=0  \n", "",
       Base + Alloc},
      {"indented comment", Base + "   # note\n\t\n" + Alloc, "", Base + Alloc},
      {"leading zero", Base + "alloc v=00 site=0\n", "", Base + Alloc},
      {"hexadecimal id", Base + "alloc v=0 site=0x1\n",
       "line 10: malformed alloc", ""},
      {"trailing letter", Base + "alloc v=12a site=0\n",
       "line 10: malformed alloc", ""},
      {"empty list element",
       Base + "call caller=0 sig=0 recv=0 args=1,,0 ret=-\n",
       "line 10: malformed call", ""},
      {"trailing comma", Base + "call caller=0 sig=0 recv=0 args=1, ret=-\n",
       "line 10: malformed call", ""},
      {"empty list", Base + "call caller=0 sig=0 recv=0 args= ret=-\n",
       "line 10: malformed call", ""},
      {"a well-formed call", Base + Call, "", Base + Call},
      {"swapped keys", Base + "alloc site=0 v=0\n", "line 10: malformed alloc",
       ""},
      {"misspelled key", Base + "alloc vv=0 site=0\n",
       "line 10: malformed alloc", ""},
      {"upper-case kind", Base + "ALLOC v=0 site=0\n",
       "line 10: unknown fact kind 'ALLOC'", ""},
      {"UTF-8 byte order mark", "\xEF\xBB\xBF" + Base,
       "line 1: unknown fact kind '\xEF\xBB\xBF" "class'", ""},
      {"superclass missing", "class A\nclass B extends\n",
       "line 2: unknown superclass ''", ""},
  };
  for (const Case &C : Cases) {
    Program P;
    std::string Error;
    bool Ok = parseFacts(C.Text, P, Error);
    EXPECT_EQ(Ok, C.Error.empty()) << C.What;
    if (!Ok) {
      EXPECT_EQ(Error, C.Error) << C.What;
      continue;
    }
    Program Plain;
    ASSERT_TRUE(parseFacts(C.Plain, Plain, Error)) << C.What << ": " << Error;
    EXPECT_EQ(writeFacts(P), writeFacts(Plain)) << C.What;
  }
}

TEST(FactsIo, RejectsOutOfRangeIds) {
  Program P;
  std::string Error;
  // 2^32 truncates to 0 through a bare strtoul cast; must be an error.
  EXPECT_FALSE(parseFacts("entry 4294967296\n", P, Error));
  EXPECT_NE(Error.find("line 1"), std::string::npos);
  // 2^64 overflows unsigned long itself (ERANGE).
  EXPECT_FALSE(parseFacts("entry 18446744073709551616\n", P, Error));
  // 4294967295 == NoId: reachable only through the "-" spelling.
  EXPECT_FALSE(parseFacts("entry 4294967295\n", P, Error));
  // Signed forms wrap through strtoul; both must be rejected.
  EXPECT_FALSE(parseFacts("entry -1\n", P, Error));
  EXPECT_FALSE(parseFacts("entry +1\n", P, Error));
  EXPECT_FALSE(parseFacts("entry 0x10\n", P, Error));
  EXPECT_FALSE(parseFacts(
      "class A\nsig s\nmethod 0 0 this=- params=-1,2 ret=-\n", P, Error));
}

TEST(FactsIo, RejectsDuplicateClasses) {
  Program P;
  std::string Error;
  EXPECT_FALSE(parseFacts("class A\nclass A\n", P, Error));
  EXPECT_NE(Error.find("duplicate class 'A'"), std::string::npos);
  EXPECT_NE(Error.find("line 2"), std::string::npos);
}

TEST(FactsIo, RejectsNamelessDeclarations) {
  Program P;
  std::string Error;
  EXPECT_FALSE(parseFacts("sig\n", P, Error));
  EXPECT_NE(Error.find("sig without a name"), std::string::npos);
  EXPECT_FALSE(parseFacts("field\n", P, Error));
  EXPECT_NE(Error.find("field without a name"), std::string::npos);
  EXPECT_FALSE(parseFacts("class\n", P, Error));
}

TEST(FactsIo, RejectsTrailingTokens) {
  Program P;
  std::string Error;
  EXPECT_FALSE(parseFacts("entry 0 extra\n", P, Error));
  EXPECT_NE(Error.find("unexpected trailing tokens"), std::string::npos);
  EXPECT_FALSE(parseFacts("class A junk\n", P, Error));
  EXPECT_FALSE(parseFacts("class A\nclass B extends A junk\n", P, Error));
  EXPECT_FALSE(parseFacts("var 0 method=0 extra=1\n", P, Error));
}

} // namespace
