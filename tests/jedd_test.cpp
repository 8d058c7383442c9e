//===- jedd_test.cpp - Tests for the jeddc translator ----------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the Jedd language pipeline: lexing, parsing, the
/// Figure 6 type rules, the SAT-based physical domain assignment of
/// Section 3.3 (including the exact conflict error message of Section
/// 3.3.3), the interpreter running the paper's Figure 4 algorithm from
/// Jedd source, and the C++ emitter.
///
//===----------------------------------------------------------------------===//

#include "jedd/CppEmit.h"
#include "jedd/Driver.h"
#include "jedd/Interp.h"
#include "jedd/Lexer.h"
#include "jedd/Parser.h"
#include "sat/CoreTools.h"

#include <gtest/gtest.h>

using namespace jedd;
using namespace jedd::lang;

namespace {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(JeddLexer, TokenizesOperators) {
  DiagnosticEngine Diags;
  auto Tokens = lex("a >< b <> c => 0B 1B |= &= -= == != 42", Diags);
  EXPECT_FALSE(Diags.hasErrors());
  std::vector<TokenKind> Kinds;
  for (const Token &T : Tokens)
    Kinds.push_back(T.Kind);
  EXPECT_EQ(Kinds, (std::vector<TokenKind>{
                       TokenKind::Identifier, TokenKind::JoinOp,
                       TokenKind::Identifier, TokenKind::ComposeOp,
                       TokenKind::Identifier, TokenKind::Arrow,
                       TokenKind::ZeroB, TokenKind::OneB,
                       TokenKind::OrAssign, TokenKind::AndAssign,
                       TokenKind::SubAssign, TokenKind::EqEq,
                       TokenKind::NotEq, TokenKind::Integer,
                       TokenKind::EndOfFile}));
}

TEST(JeddLexer, TracksLineAndColumn) {
  DiagnosticEngine Diags;
  auto Tokens = lex("domain\n  Foo 12;", Diags);
  ASSERT_GE(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[0].Loc, SourceLoc(1, 1));
  EXPECT_EQ(Tokens[1].Loc, SourceLoc(2, 3));
  EXPECT_EQ(Tokens[2].Loc, SourceLoc(2, 7));
}

TEST(JeddLexer, SkipsComments) {
  DiagnosticEngine Diags;
  auto Tokens = lex("a // line comment\n/* block\ncomment */ b", Diags);
  EXPECT_FALSE(Diags.hasErrors());
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Text, "a");
  EXPECT_EQ(Tokens[1].Text, "b");
}

TEST(JeddLexer, ReportsBadCharacters) {
  DiagnosticEngine Diags;
  lex("a @ b", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

const char *VcrSource = R"(
// The virtual call resolution example of Figure 4, in Jedd.
domain Type 4;
domain Sig 4;
domain Meth 4;

attribute rectype : Type;
attribute tgttype : Type;
attribute subtype : Type;
attribute supertype : Type;
attribute type : Type;
attribute signature : Sig;
attribute method : Meth;

physdom T1, T2, S1, M1, T3;

relation <type:T2, signature:S1, method:M1> declaresMethod;
relation <rectype:T1, signature:S1, tgttype:T2, method:M1> answer;

// Note: supertype needs its own physical domain T3 — with supertype:T1
// this program reproduces exactly the conflict of Section 3.3.3 (see
// JeddAssign.ReportsThePaperConflictError below).
function resolve(<rectype:T1, signature:S1> receiverTypes,
                 <subtype:T2, supertype:T3> extend) {
  <rectype, signature, tgttype> toResolve =
      (rectype => rectype tgttype) receiverTypes;
  do {
    <rectype:T1, signature:S1, tgttype:T2, method:M1> resolved =
        toResolve{tgttype, signature} >< declaresMethod{type, signature};
    answer |= resolved;
    toResolve -= (method=>) resolved;
    toResolve = (supertype=>tgttype) (toResolve{tgttype} <> extend{subtype});
  } while (toResolve != 0B);
}
)";

TEST(JeddParser, ParsesTheFigure4Program) {
  DiagnosticEngine Diags;
  Program P = parse(VcrSource, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.renderAll();
  EXPECT_EQ(P.Domains.size(), 3u);
  EXPECT_EQ(P.Attributes.size(), 7u);
  EXPECT_EQ(P.PhysDoms.size(), 5u);
  EXPECT_EQ(P.Globals.size(), 2u);
  ASSERT_EQ(P.Functions.size(), 1u);
  EXPECT_EQ(P.Functions[0].Name, "resolve");
  EXPECT_EQ(P.Functions[0].Params.size(), 2u);
  // Body: decl + do-while.
  ASSERT_EQ(P.Functions[0].Body.Stmts.size(), 2u);
  EXPECT_EQ(P.Functions[0].Body.Stmts[0]->Kind, StmtKind::Decl);
  EXPECT_EQ(P.Functions[0].Body.Stmts[1]->Kind, StmtKind::DoWhile);
}

TEST(JeddParser, DesugarsCopyPrefix) {
  DiagnosticEngine Diags;
  Program P = parse("domain D 4; attribute a : D; attribute b : D;\n"
                    "physdom Q;\n"
                    "relation <a> g;\n"
                    "function f() { <a, b> x = (a => a b) g; }",
                    Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.renderAll();
  const Stmt &S = *P.Functions[0].Body.Stmts[0];
  ASSERT_TRUE(S.Init != nullptr);
  EXPECT_EQ(S.Init->Kind, ExprKind::Copy);
  EXPECT_EQ(S.Init->From, "a");
  EXPECT_EQ(S.Init->To, "a");
  EXPECT_EQ(S.Init->CopyTo, "b");
}

TEST(JeddParser, DesugarsMultiReplacementPrefix) {
  DiagnosticEngine Diags;
  Program P = parse("domain D 4; attribute a : D; attribute b : D;\n"
                    "attribute c : D; physdom Q;\n"
                    "relation <a, c> g;\n"
                    "function f() { <b> x = (a => b, c =>) g; }",
                    Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.renderAll();
  const Expr &Outer = *P.Functions[0].Body.Stmts[0]->Init;
  // First replacement outermost: rename(a=>b) around project(c=>).
  EXPECT_EQ(Outer.Kind, ExprKind::Rename);
  ASSERT_TRUE(Outer.Sub != nullptr);
  EXPECT_EQ(Outer.Sub->Kind, ExprKind::Project);
  EXPECT_EQ(Outer.Sub->From, "c");
}

TEST(JeddParser, ReportsSyntaxErrors) {
  DiagnosticEngine Diags;
  parse("domain ;", Diags);
  EXPECT_TRUE(Diags.hasErrors());

  DiagnosticEngine Diags2;
  parse("function f() { x ~ y; }", Diags2);
  EXPECT_TRUE(Diags2.hasErrors());
}

//===----------------------------------------------------------------------===//
// Type checking (Figure 6)
//===----------------------------------------------------------------------===//

/// Compiles just through parse + typecheck; returns the diagnostics text.
std::string checkErrors(const std::string &Source) {
  DiagnosticEngine Diags;
  Program P = parse(Source, Diags);
  if (!Diags.hasErrors())
    typeCheck(std::move(P), Diags);
  return Diags.renderAll();
}

const char *Prelude = "domain D 8; domain E 4;\n"
                      "attribute a : D; attribute b : D; attribute c : D;\n"
                      "attribute e : E;\n"
                      "physdom P1, P2, P3;\n";

TEST(JeddTypeCheck, AcceptsAWellTypedProgram) {
  std::string Errors = checkErrors(
      std::string(Prelude) +
      "relation <a:P1, b:P2> g;\n"
      "function f(<b:P1, c:P2> x) {\n"
      "  <a, b, c> y = g{b} >< x{b};\n"
      "  <a> z = (b=>, c=>) y;\n"
      "  z |= new {3=>a};\n"
      "  if (z == 0B) { z = 1B; }\n"
      "}\n");
  EXPECT_EQ(Errors, "") << Errors;
}

TEST(JeddTypeCheck, RejectsSetOpOnDifferentSchemas) {
  std::string Errors =
      checkErrors(std::string(Prelude) + "relation <a> g; relation <b> h;\n"
                                         "function f() { g |= h; }");
  EXPECT_NE(Errors.find("does not match"), std::string::npos) << Errors;
}

TEST(JeddTypeCheck, RejectsDuplicateAttributeInType) {
  std::string Errors =
      checkErrors(std::string(Prelude) + "relation <a, a> g;\n");
  EXPECT_NE(Errors.find("duplicate attribute"), std::string::npos);
}

TEST(JeddTypeCheck, RejectsProjectionOfAbsentAttribute) {
  std::string Errors = checkErrors(std::string(Prelude) +
                                   "relation <a> g; relation <a> h;\n"
                                   "function f() { h = (b=>) g; }");
  EXPECT_NE(Errors.find("not in the operand's schema"), std::string::npos);
}

TEST(JeddTypeCheck, RejectsRenameOntoExistingAttribute) {
  std::string Errors = checkErrors(std::string(Prelude) +
                                   "relation <a, b> g; relation <a, b> h;\n"
                                   "function f() { h = (a=>b) g; }");
  EXPECT_NE(Errors.find("already occurs"), std::string::npos);
}

TEST(JeddTypeCheck, RejectsRenameAcrossDomains) {
  std::string Errors = checkErrors(std::string(Prelude) +
                                   "relation <a> g; relation <e> h;\n"
                                   "function f() { h = (a=>e) g; }");
  EXPECT_NE(Errors.find("different domains"), std::string::npos);
}

TEST(JeddTypeCheck, RejectsJoinWithDuplicateResultAttribute) {
  // Both operands carry 'c' uncompared: the result would have it twice.
  std::string Errors =
      checkErrors(std::string(Prelude) +
                  "relation <a, c> g; relation <b, c> h;\n"
                  "relation <a, b, c> r;\n"
                  "function f() { r = g{a} >< h{b}; }");
  EXPECT_NE(Errors.find("twice"), std::string::npos) << Errors;
}

TEST(JeddTypeCheck, RejectsComparingAttributesOfDifferentDomains) {
  std::string Errors = checkErrors(std::string(Prelude) +
                                   "relation <a> g; relation <e> h;\n"
                                   "relation <a, e> r;\n"
                                   "function f() { r = g{a} >< h{e}; }");
  EXPECT_NE(Errors.find("different domains"), std::string::npos);
}

TEST(JeddTypeCheck, RejectsJoiningConstants) {
  std::string Errors = checkErrors(std::string(Prelude) +
                                   "relation <a> g; relation <a> r;\n"
                                   "function f() { r = g{a} >< 1B{a}; }");
  EXPECT_NE(Errors.find("0B/1B"), std::string::npos) << Errors;
}

TEST(JeddTypeCheck, RejectsOutOfRangeLiteralValues) {
  std::string Errors = checkErrors(std::string(Prelude) +
                                   "relation <e> g;\n"
                                   "function f() { g |= new {9=>e}; }");
  EXPECT_NE(Errors.find("does not fit domain"), std::string::npos);
}

TEST(JeddTypeCheck, RejectsUnknownNames) {
  EXPECT_NE(checkErrors("domain D 4; attribute a : Nope; physdom P;")
                .find("unknown domain"),
            std::string::npos);
  EXPECT_NE(checkErrors(std::string(Prelude) + "relation <zz> g;\n")
                .find("unknown attribute"),
            std::string::npos);
  EXPECT_NE(checkErrors(std::string(Prelude) +
                        "relation <a:Q9> g;\n")
                .find("unknown physical domain"),
            std::string::npos);
  EXPECT_NE(checkErrors(std::string(Prelude) + "relation <a> g;\n"
                                               "function f() { g = zz; }")
                .find("unknown relation"),
            std::string::npos);
}

TEST(JeddTypeCheck, RejectsRedeclarationInOneScope) {
  const std::string Globals = std::string(Prelude) + "relation <a> g;\n";
  // A nested block does not open a scope, and parameters share the
  // function's scope with its locals.
  for (const char *Decls :
       {"function f() { <a> x = g; while (x != 0B) { <a> x = g; } }",
        "function f(<a> x) { <a> x = g; }", "relation <a> g;"})
    EXPECT_NE(checkErrors(Globals + Decls).find("redeclaration of relation"),
              std::string::npos)
        << Decls;
  // Locals may shadow a global, in as many functions as declare them.
  EXPECT_EQ(checkErrors(Globals + "function f() { <a> g = 0B; }\n"
                                  "function h(<a> g) { g = 0B; }"),
            "");
}

TEST(JeddTypeCheck, RejectsReadingALocalInItsOwnInitializer) {
  // As in Java, a local is in scope in its own initializer but may not
  // be read there, even where a global of the same name exists.
  const std::string Globals =
      std::string(Prelude) + "relation <a> in; relation <a> out;\n";
  for (const char *Body : {"function f() { <a> x = x | in; out = x; }",
                           "function f() { <a> out = out | in; }"})
    EXPECT_NE(checkErrors(Globals + Body)
                  .find("is read in its own initializer"),
              std::string::npos)
        << Body;
  // Reads after the declaration are fine.
  EXPECT_EQ(checkErrors(Globals + "function f() { <a> x = in; x = x | in; "
                                  "<a> y = x; out = y; }"),
            "");
}

TEST(JeddTypeCheck, ConstantsComparableAndAssignableToAnything) {
  std::string Errors = checkErrors(std::string(Prelude) +
                                   "relation <a, b> g;\n"
                                   "function f() {\n"
                                   "  g = 0B;\n"
                                   "  g |= 1B;\n"
                                   "  while (g != 0B) { g = 0B; }\n"
                                   "}");
  EXPECT_EQ(Errors, "") << Errors;
}

//===----------------------------------------------------------------------===//
// Physical domain assignment (Section 3.3)
//===----------------------------------------------------------------------===//

TEST(JeddAssign, SolvesTheFigure4Program) {
  DiagnosticEngine Diags("Vcr.jedd");
  auto Compiled = compileJedd(VcrSource, Diags);
  ASSERT_TRUE(Compiled != nullptr) << Diags.renderAll();
  const AssignStats &S = Compiled->assignStats();
  EXPECT_TRUE(S.Satisfiable);
  EXPECT_GT(S.NumRelationalExprs, 0u);
  EXPECT_GT(S.NumConflictEdges, 0u);
  EXPECT_GT(S.NumEqualityEdges, 0u);
  EXPECT_GT(S.NumAssignmentEdges, 0u);
  EXPECT_GT(S.SatVariables, 0u);
  EXPECT_GT(S.SatClauses, S.SatVariables);
  // One replace is unavoidable: the composed result's supertype (T3)
  // must move into toResolve's tgttype (T2) each iteration. The
  // assignment-edge minimization eliminates all others.
  EXPECT_GE(S.ReplacesNeeded, 1u);
  EXPECT_LE(S.ReplacesNeeded, 4u);
}

TEST(JeddAssign, HonorsSpecifiedDomains) {
  DiagnosticEngine Diags;
  auto Compiled = compileJedd(VcrSource, Diags);
  ASSERT_TRUE(Compiled != nullptr);
  int Var = Compiled->findVar("declaresMethod");
  ASSERT_GE(Var, 0);
  const CheckedVar &V = Compiled->program().Vars[Var];
  const SymbolTable &Sym = Compiled->program().Symbols;
  // type:T2, signature:S1, method:M1 as annotated; the recorded
  // bindings are in declaration order.
  ASSERT_EQ(V.Bindings.size(), 3u);
  EXPECT_EQ(V.Bindings[0].Attr,
            static_cast<uint32_t>(Sym.findAttribute("type")));
  EXPECT_EQ(V.Bindings[0].Phys, static_cast<uint32_t>(Sym.findPhysDom("T2")));
  EXPECT_EQ(V.Bindings[1].Attr,
            static_cast<uint32_t>(Sym.findAttribute("signature")));
  EXPECT_EQ(V.Bindings[1].Phys, static_cast<uint32_t>(Sym.findPhysDom("S1")));
}

TEST(JeddAssign, ReportsThePaperConflictError) {
  // The exact example of Section 3.3.3.
  DiagnosticEngine Diags("Test.jedd");
  const char *Source = R"(domain Type 8; domain Sig 8;
attribute rectype : Type;
attribute signature : Sig;
attribute tgttype : Type;
attribute supertype : Type;
attribute subtype : Type;
physdom T1, T2, S1;
relation <rectype:T1, signature:S1, tgttype:T2> toResolve;
relation <supertype:T1, subtype:T2> extend;
function f() {
  <rectype, signature, supertype> result = toResolve {tgttype} <> extend {subtype};
}
)";
  auto Compiled = compileJedd(Source, Diags);
  EXPECT_TRUE(Compiled == nullptr);
  ASSERT_TRUE(Diags.hasErrors());
  // Paper: "Conflict between Compose_expression:rectype at Test.jedd:4,25
  // and Compose_expression:supertype at Test.jedd:4,25 over physical
  // domain T1".
  std::string Rendered = Diags.renderAll();
  EXPECT_NE(Rendered.find("Conflict between"), std::string::npos) << Rendered;
  EXPECT_NE(Rendered.find("Compose_expression:rectype"), std::string::npos)
      << Rendered;
  EXPECT_NE(Rendered.find("Compose_expression:supertype"), std::string::npos)
      << Rendered;
  EXPECT_NE(Rendered.find("over physical domain T1"), std::string::npos)
      << Rendered;
  EXPECT_NE(Rendered.find("Test.jedd:"), std::string::npos) << Rendered;
  // The whole message, attribute order and locations included.
  EXPECT_NE(Rendered.find("Conflict between Compose_expression:rectype at "
                          "Test.jedd:11,44 and Compose_expression:supertype "
                          "at Test.jedd:11,44 over physical domain T1"),
            std::string::npos)
      << Rendered;
}

TEST(JeddAssign, PaperFixResolvesTheConflict) {
  // Adding supertype:T3 (the paper's suggested fix) makes it solvable.
  DiagnosticEngine Diags("Test.jedd");
  const char *Source = R"(domain Type 8; domain Sig 8;
attribute rectype : Type;
attribute signature : Sig;
attribute tgttype : Type;
attribute supertype : Type;
attribute subtype : Type;
physdom T1, T2, S1, T3;
relation <rectype:T1, signature:S1, tgttype:T2> toResolve;
relation <supertype:T1, subtype:T2> extend;
function f() {
  <rectype, signature, supertype:T3> result = toResolve {tgttype} <> extend {subtype};
}
)";
  auto Compiled = compileJedd(Source, Diags);
  ASSERT_TRUE(Compiled != nullptr) << Diags.renderAll();
  EXPECT_TRUE(Compiled->assignStats().Satisfiable);
  // Moving extend's supertype from T1 to T3 costs exactly one replace.
  EXPECT_EQ(Compiled->assignStats().ReplacesNeeded, 1u);
}

TEST(JeddAssign, ReportsUnreachableAttributes) {
  // No attribute anywhere is pinned: nothing has a flow path.
  DiagnosticEngine Diags;
  const char *Source = "domain D 4; attribute a : D; physdom P1;\n"
                       "relation <a> g;\n"
                       "function f() { g = g; }\n";
  auto Compiled = compileJedd(Source, Diags);
  EXPECT_TRUE(Compiled == nullptr);
  EXPECT_TRUE(Diags.containsMessage("not connected to any attribute"))
      << Diags.renderAll();
}

TEST(JeddAssign, CoreIsVerifiableOnConflict) {
  DiagnosticEngine Diags;
  // Two pinned variables forced equal through a set operation: a = T1,
  // b = T2, but a|b requires them aligned... actually pin the SAME
  // attribute differently on both sides of an assignment chain.
  const char *Source = R"(domain D 4;
attribute a : D; attribute b : D;
physdom P1, P2;
relation <a:P1, b:P2> g;
relation <a:P2, b:P1> h;
function f() {
  <a, b> t = g & h;
  g = t{a, b} >< g{a, b};
}
)";
  // Note: g & h is fine (a replace reconciles them); this program is
  // actually satisfiable. Check that it compiles.
  auto Compiled = compileJedd(Source, Diags);
  EXPECT_TRUE(Compiled != nullptr) << Diags.renderAll();
  EXPECT_GE(Compiled->assignStats().ReplacesNeeded, 1u);
}

//===----------------------------------------------------------------------===//
// Interpretation: Figure 4 end to end from Jedd source
//===----------------------------------------------------------------------===//

TEST(JeddInterp, RunsVirtualCallResolution) {
  DiagnosticEngine Diags("Vcr.jedd");
  auto Compiled = compileJedd(VcrSource, Diags);
  ASSERT_TRUE(Compiled != nullptr) << Diags.renderAll();

  rel::Universe U;
  Compiled->buildUniverse(U);
  Interpreter Interp(*Compiled, U);

  // declaresMethod: A(0) implements foo()(0) as A.foo()(0);
  //                 B(1) implements bar()(1) as B.bar()(1).
  rel::Relation DeclaresMethod = Interp.emptyOfVar("declaresMethod");
  DeclaresMethod.insert({0, 0, 0}); // Schema order: type, signature, method.
  DeclaresMethod.insert({1, 1, 1});
  Interp.setGlobal("declaresMethod", DeclaresMethod);

  int F = Compiled->findFunction("resolve");
  ASSERT_GE(F, 0);
  rel::Relation ReceiverTypes = Interp.emptyOfVar("receiverTypes", F);
  ReceiverTypes.insert({1, 0}); // B, foo().
  ReceiverTypes.insert({1, 1}); // B, bar().
  rel::Relation Extend = Interp.emptyOfVar("extend", F);
  Extend.insert({1, 0}); // B extends A.

  Interp.call("resolve", {ReceiverTypes, Extend});

  rel::Relation Answer = Interp.getGlobal("answer");
  // Schema order (sorted attr ids): rectype, tgttype, signature, method.
  EXPECT_DOUBLE_EQ(Answer.size(), 2.0);
  EXPECT_TRUE(Answer.contains({1, 0, 0, 0})); // B.foo() -> A.foo().
  EXPECT_TRUE(Answer.contains({1, 1, 1, 1})); // B.bar() -> B.bar().

  // Exactly the surviving replaces run (once per loop iteration for the
  // supertype->tgttype move; two iterations happen).
  EXPECT_GE(Interp.replacesExecuted(), 1u);
}

TEST(JeddInterp, ExecutesReplacesWhenAssignmentsDiffer) {
  DiagnosticEngine Diags;
  const char *Source = R"(domain D 8;
attribute a : D; attribute b : D;
physdom P1, P2;
relation <a:P1> g;
relation <a:P2> h;
function f() {
  h = g;
}
)";
  auto Compiled = compileJedd(Source, Diags);
  ASSERT_TRUE(Compiled != nullptr) << Diags.renderAll();
  EXPECT_EQ(Compiled->assignStats().ReplacesNeeded, 1u);

  rel::Universe U;
  Compiled->buildUniverse(U);
  Interpreter Interp(*Compiled, U);
  rel::Relation G = Interp.emptyOfVar("g");
  G.insert({5});
  Interp.setGlobal("g", G);
  Interp.call("f", {});
  EXPECT_TRUE(Interp.getGlobal("h").contains({5}));
  EXPECT_EQ(Interp.replacesExecuted(), 1u);
}

TEST(JeddInterp, WhileAndIfControlFlow) {
  DiagnosticEngine Diags;
  const char *Source = R"(domain D 16;
attribute a : D; attribute b : D; attribute c : D;
physdom P1, P2, P3;
relation <a:P1, b:P2> edge;
relation <a:P1, b:P2> closure;
function close() {
  closure = edge;
  <a, b> next = closure;
  while (next != 0B) {
    <a, c:P3> left = (b=>c) closure;
    <c:P3, b> right = (a=>c) edge;
    next = left{c} <> right{c};
    next -= closure;
    closure |= next;
  }
  if (closure == edge) {
    closure = 0B;
  }
}
)";
  auto Compiled = compileJedd(Source, Diags);
  ASSERT_TRUE(Compiled != nullptr) << Diags.renderAll();

  rel::Universe U;
  Compiled->buildUniverse(U);
  Interpreter Interp(*Compiled, U);
  rel::Relation Edge = Interp.emptyOfVar("edge");
  Edge.insert({0, 1});
  Edge.insert({1, 2});
  Edge.insert({2, 3});
  Interp.setGlobal("edge", Edge);
  Interp.call("close", {});
  rel::Relation Closure = Interp.getGlobal("closure");
  // Transitive closure of the 3-edge chain: 6 pairs; closure != edge so
  // the if must not clear it.
  EXPECT_DOUBLE_EQ(Closure.size(), 6.0);
  EXPECT_TRUE(Closure.contains({0, 3}));
}

TEST(JeddScope, LocalShadowsAGlobalOnlyFromItsDeclaration) {
  // The first `g` is the global: the local of the same name is declared
  // one statement later. `seen` shows what the local received.
  DiagnosticEngine Diags;
  const char *Source = R"(domain D 8;
attribute a : D;
physdom P1, P2;
relation <a:P1> g;
relation <a:P2> seen;
function main() {
  g = new {3=>a};
  <a:P2> g = new {5=>a};
  seen = g;
}
)";
  auto Compiled = compileJedd(Source, Diags);
  ASSERT_TRUE(Compiled != nullptr) << Diags.renderAll();

  rel::Universe U;
  Compiled->buildUniverse(U);
  Interpreter Interp(*Compiled, U);
  Interp.call("main", {});
  rel::Relation G = Interp.getGlobal("g");
  EXPECT_DOUBLE_EQ(G.size(), 1.0);
  EXPECT_TRUE(G.contains({3}));
  rel::Relation Seen = Interp.getGlobal("seen");
  EXPECT_DOUBLE_EQ(Seen.size(), 1.0);
  EXPECT_TRUE(Seen.contains({5}));

  // The emitted main() assigns the global first and declares the local
  // before its first use.
  std::string Cpp = emitCpp(*Compiled);
  const std::string Header = "void main() {\n";
  size_t Body = Cpp.find(Header);
  ASSERT_NE(Body, std::string::npos) << Cpp;
  EXPECT_EQ(Cpp.substr(Body + Header.size(), 8), "  G_g = ") << Cpp;
  size_t DeclAt = Cpp.find("jedd::rel::Relation L_g = ");
  ASSERT_NE(DeclAt, std::string::npos) << Cpp;
  EXPECT_EQ(Cpp.find("L_g"), Cpp.find("L_g", DeclAt)) << Cpp;
}

//===----------------------------------------------------------------------===//
// C++ emission
//===----------------------------------------------------------------------===//

TEST(JeddEmit, EmitsCompilableLookingCpp) {
  DiagnosticEngine Diags;
  auto Compiled = compileJedd(VcrSource, Diags);
  ASSERT_TRUE(Compiled != nullptr) << Diags.renderAll();
  std::string Cpp = emitCpp(*Compiled, "vcr_gen");
  EXPECT_NE(Cpp.find("namespace vcr_gen"), std::string::npos);
  EXPECT_NE(Cpp.find("void declareUniverse()"), std::string::npos);
  EXPECT_NE(Cpp.find("U.addPhysicalDomain(\"T1\""), std::string::npos);
  EXPECT_NE(Cpp.find("G_declaresMethod"), std::string::npos);
  EXPECT_NE(Cpp.find("void resolve("), std::string::npos);
  EXPECT_NE(Cpp.find(".join("), std::string::npos);
  EXPECT_NE(Cpp.find(".compose("), std::string::npos);
  EXPECT_NE(Cpp.find("do {"), std::string::npos);
  // The one unavoidable replace is emitted and labelled.
  EXPECT_NE(Cpp.find("survived assignment-edge minimization"),
            std::string::npos);
}

TEST(JeddEmit, EmitsSurvivingReplaces) {
  DiagnosticEngine Diags;
  const char *Source = R"(domain D 8;
attribute a : D;
physdom P1, P2;
relation <a:P1> g;
relation <a:P2> h;
function f() { h = g; }
)";
  auto Compiled = compileJedd(Source, Diags);
  ASSERT_TRUE(Compiled != nullptr) << Diags.renderAll();
  std::string Cpp = emitCpp(*Compiled);
  EXPECT_NE(Cpp.find("withBindings"), std::string::npos) << Cpp;
}

} // namespace
