//===- Ast.h - Abstract syntax for the Jedd language ------------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST for the standalone Jedd language. Mirrors the productions Figure 5
/// adds to Java: relation types `<a:T1, b>`, attribute-operation prefixes
/// `(a=>) (a=>b) (a=>b c)`, join `x{..} >< y{..}`, composition `<>`, the
/// relation constants 0B/1B, and `new {v=>attr, ...}` literals. The host
/// statement language provides declarations, the four assignment forms,
/// do/while, while and if — enough to express the paper's five analyses
/// (see jeddsrc/).
///
/// Multi-replacement prefixes like `(a=>b, c=>) x` are desugared by the
/// parser into nested single-operation expressions.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_JEDD_AST_H
#define JEDDPP_JEDD_AST_H

#include "util/SourceLocation.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace jedd {
namespace lang {

/// One `attr` or `attr:PhysDom` element of a relation type or literal.
struct AttrPhys {
  std::string Attr;
  std::string Phys; ///< Empty when no physical domain was specified.
  SourceLoc Loc;
  /// In a literal, filled in by semantic analysis: the attribute's id and
  /// the pinned physical domain's id (-1 when Phys is empty).
  uint32_t AttrId = 0;
  int PhysId = -1;
};

/// A relation type `<a:T1, b, c:T2>`.
struct RelTypeAst {
  std::vector<AttrPhys> Attrs;
  SourceLoc Loc;
};

enum class ExprKind {
  VarRef,
  Const0, ///< 0B
  Const1, ///< 1B
  Literal,
  Project,    ///< (a=>) x
  Rename,     ///< (a=>b) x
  Copy,       ///< (a=>b c) x
  Union,      ///< x | y
  Intersect,  ///< x & y
  Difference, ///< x - y
  Join,       ///< x{..} >< y{..}
  Compose,    ///< x{..} <> y{..}
};

struct Expr {
  ExprKind Kind;
  SourceLoc Loc;

  // VarRef.
  std::string Name;

  // Literal: Values[i] stored into LitAttrs[i].
  std::vector<uint64_t> Values;
  std::vector<AttrPhys> LitAttrs;

  // Project (From), Rename (From=>To), Copy (From=>To CopyTo).
  std::string From, To, CopyTo;
  SourceLoc FromLoc;
  std::unique_ptr<Expr> Sub;

  // Binary operations.
  std::unique_ptr<Expr> Left, Right;
  std::vector<std::string> LeftAttrs, RightAttrs; ///< Join/compose lists.

  //===--- Filled in by semantic analysis ----------------------------===//
  /// Constraint-graph node of this expression (-1 before checking).
  int NodeId = -1;
  /// Resolved attribute ids of the expression's schema, sorted.
  /// Const0/Const1 adopt their context's schema during checking.
  std::vector<uint32_t> Schema;
  /// For VarRef: index of the resolved variable (-1 before checking).
  int VarIndex = -1;
  /// Project/Rename/Copy: ids of From, To and CopyTo.
  uint32_t FromId = 0, ToId = 0, CopyToId = 0;
  /// Join/Compose: ids of LeftAttrs and RightAttrs, in list order.
  std::vector<uint32_t> LeftIds, RightIds;
};

using ExprPtr = std::unique_ptr<Expr>;

enum class AssignOpKind { Set, Union, Intersect, Difference };

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Block {
  std::vector<StmtPtr> Stmts;
};

enum class StmtKind { Decl, Assign, DoWhile, While, If };

struct Stmt {
  StmtKind Kind;
  SourceLoc Loc;

  // Decl: `<type> name = init;` (Init optional).
  RelTypeAst DeclType;
  std::string Name; ///< Also the assignment target for Assign.
  ExprPtr Init;

  // Assign: `name op= rhs;`.
  AssignOpKind Op = AssignOpKind::Set;
  ExprPtr Rhs;

  // DoWhile/While/If: condition `CondLeft ==/!= CondRight`.
  ExprPtr CondLeft, CondRight;
  bool CondIsEq = true;
  Block Body;
  Block ElseBody; ///< If only.

  /// Decl/Assign: index of the declared or assigned variable, filled in
  /// by semantic analysis (-1 before checking).
  int VarIndex = -1;
};

struct DomainDecl {
  std::string Name;
  uint64_t Size;
  SourceLoc Loc;
};

struct AttributeDecl {
  std::string Name;
  std::string Domain;
  SourceLoc Loc;
};

struct PhysDomDecl {
  std::string Name;
  unsigned Bits; ///< 0 = default width.
  SourceLoc Loc;
};

/// A top-level `relation <type> name;` declaration.
struct GlobalDecl {
  RelTypeAst Type;
  std::string Name;
  SourceLoc Loc;
};

struct Param {
  RelTypeAst Type;
  std::string Name;
  SourceLoc Loc;
  /// Index of the parameter's variable, filled in by semantic analysis.
  int VarIndex = -1;
};

struct FunctionDecl {
  std::string Name;
  std::vector<Param> Params;
  Block Body;
  SourceLoc Loc;
};

struct Program {
  std::vector<DomainDecl> Domains;
  std::vector<AttributeDecl> Attributes;
  std::vector<PhysDomDecl> PhysDoms;
  std::vector<GlobalDecl> Globals;
  std::vector<FunctionDecl> Functions;
};

} // namespace lang
} // namespace jedd

#endif // JEDDPP_JEDD_AST_H
