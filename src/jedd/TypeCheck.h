//===- TypeCheck.h - Semantic analysis for Jedd -----------------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic analysis implementing the static type rules of Figure 6:
/// schema inference for every relational subexpression, the
/// no-duplicate-attribute rules for literals / renames / copies / joins /
/// compositions, schema compatibility for set operations, assignments and
/// comparisons, and the polymorphic 0B/1B constants. Domains of renamed,
/// copied and compared attributes must agree (the runtime's object-to-
/// integer mappings are per-domain).
///
/// This is the only pass that resolves names. It records every result on
/// the AST (variable indices on VarRefs, Decl/Assign statements and
/// parameters; attribute and physical-domain ids on attribute operations,
/// join/compose lists and literals), so domain assignment, the
/// interpreter and the C++ emitter never look a name up again.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_JEDD_TYPECHECK_H
#define JEDDPP_JEDD_TYPECHECK_H

#include "jedd/Ast.h"
#include "util/Diagnostic.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jedd {
namespace lang {

/// Resolved top-level declarations.
struct SymbolTable {
  struct DomainSym {
    std::string Name;
    uint64_t Size;
  };
  struct AttrSym {
    std::string Name;
    uint32_t Domain;
  };
  struct PhysSym {
    std::string Name;
    unsigned Bits; ///< 0 = default width.
  };

  std::vector<DomainSym> Domains;
  std::vector<AttrSym> Attributes;
  std::vector<PhysSym> PhysDoms;

  /// Lookups return -1 when the name is unknown.
  int findDomain(const std::string &Name) const;
  int findAttribute(const std::string &Name) const;
  int findPhysDom(const std::string &Name) const;
};

/// One relation variable: a global, a parameter, or a local.
struct CheckedVar {
  std::string Name;
  SourceLoc Loc;
  /// Attribute ids, sorted (set view used by the type rules).
  std::vector<uint32_t> Attrs;
  /// Attribute ids in declaration order — the order tuple values are
  /// written in, as in the paper's <a, b, c> types.
  std::vector<uint32_t> DeclOrder;
  /// (attribute, physical domain) pairs the programmer pinned with the
  /// `attr:T1` syntax — the SPECIFIED set of Section 3.3.2.
  std::vector<std::pair<uint32_t, uint32_t>> SpecifiedPhys;
  /// -1 for globals, else the index of the owning function.
  int Function = -1;
  /// Constraint-graph node (assigned by the domain assignment pass).
  int NodeId = -1;
  /// Solved bindings in declaration order (assigned by the domain
  /// assignment pass).
  std::vector<rel::AttrBinding> Bindings;
};

/// The result of semantic analysis. Owns the AST.
struct CheckedProgram {
  Program Ast;
  SymbolTable Symbols;
  std::vector<CheckedVar> Vars;

  /// Statistics for the paper's Table 1 (first column group).
  size_t NumRelationalExprs = 0;
  size_t NumExprAttributes = 0;

  uint64_t domainSizeOfAttr(uint32_t Attr) const {
    return Symbols.Domains[Symbols.Attributes[Attr].Domain].Size;
  }
};

/// Runs semantic analysis over \p Ast (moved in). Errors go to \p Diags;
/// the returned structure is meaningful only when !Diags.hasErrors().
CheckedProgram typeCheck(Program Ast, DiagnosticEngine &Diags);

} // namespace lang
} // namespace jedd

#endif // JEDDPP_JEDD_TYPECHECK_H
