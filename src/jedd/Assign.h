//===- Assign.h - Physical domain assignment via SAT ------------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The physical domain assignment algorithm of Section 3.3 — the paper's
/// central technical contribution. The checked program is turned into a
/// constraint graph:
///
///  * a *node* per relational expression, per relation variable, and per
///    dummy replace operation wrapped around every operand (§3.3.2);
///  * *conflict* edges between all attribute pairs within a node;
///  * *equality* edges for the attribute identifications each operation
///    requires (§3.2.2);
///  * breakable *assignment* edges across each dummy replace.
///
/// Flow paths (shortest paths from programmer-specified attributes along
/// equality/assignment edges) are enumerated, the whole problem is
/// encoded as CNF using exactly the seven clause forms of §3.3.2, and our
/// CDCL solver (standing in for zchaff) solves it. On success, every
/// attribute of every expression has a physical domain and replace
/// operations whose input and output assignments agree are dropped: the
/// solved bindings and the surviving replaces are recorded on the checked
/// program, where the interpreter and the C++ emitter read them. On
/// failure, unsat-core extraction (§3.3.3) pinpoints a conflict clause
/// and the error message reproduces the paper's format:
///
///   Conflict between Compose_expression:rectype at Test.jedd:4,25 and
///   Compose_expression:supertype at Test.jedd:4,25 over physical
///   domain T1
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_JEDD_ASSIGN_H
#define JEDDPP_JEDD_ASSIGN_H

#include "jedd/TypeCheck.h"
#include "sat/Cnf.h"

#include <string>
#include <vector>

namespace jedd {
namespace lang {

/// The "Size of physical domain assignment problem" row of the paper's
/// Table 1, plus the solve outcome.
struct AssignStats {
  // Program size.
  size_t NumRelationalExprs = 0;
  size_t NumExprAttributes = 0;
  size_t NumPhysDoms = 0;
  // Constraint counts.
  size_t NumConflictEdges = 0;
  size_t NumEqualityEdges = 0;
  size_t NumAssignmentEdges = 0;
  // SAT problem size.
  size_t SatVariables = 0;
  size_t SatClauses = 0;
  size_t SatLiterals = 0;
  // Solving.
  double SolveSeconds = 0.0;
  bool Satisfiable = false;
  // Replace operations remaining after minimization (assignment edges
  // whose endpoints got different physical domains).
  size_t ReplacesNeeded = 0;
  size_t FlowPaths = 0;
};

/// Runs the assignment for one checked program. The object owns the
/// constraint graph; the solved assignment goes onto the program.
class DomainAssigner {
public:
  /// \p Prog must have passed type checking. run() writes NodeIds into
  /// the AST expressions and CheckedVars and, after a successful solve,
  /// the solved bindings and surviving replaces (Expr::Bindings, Target
  /// and Replace, Stmt::ReplaceRhs, CheckedVar::Bindings).
  DomainAssigner(CheckedProgram &Prog, DiagnosticEngine &Diags);

  /// Builds constraints, encodes, solves. Returns false (with
  /// diagnostics) when no valid assignment exists or some attribute is
  /// not connected to any specified physical domain.
  bool run();

  const AssignStats &stats() const { return Stats; }

  /// The CNF of the last encoding (exposed for tests and the Table 1
  /// bench).
  const sat::CnfFormula &formula() const { return Formula; }

private:
  //===--- Constraint graph -------------------------------------------===//
  struct Node {
    std::string Desc; ///< "Compose_expression", "Relation 'x'", ...
    SourceLoc Loc;
    std::vector<uint32_t> Attrs; ///< Attribute ids, sorted.
    /// Flat id of the first attribute; ANode of Attrs[i] is
    /// FirstANode + i.
    size_t FirstANode = 0;
  };
  /// An edge between two attribute instances (flat ANode ids).
  struct Edge {
    size_t A, B;
  };

  CheckedProgram &Prog;
  DiagnosticEngine &Diags;

  std::vector<Node> Nodes;
  std::vector<Edge> EqualityEdges;
  std::vector<Edge> AssignmentEdges;
  /// (ANode, phys) the programmer pinned.
  std::vector<std::pair<size_t, uint32_t>> Specified;
  size_t NumANodes = 0;

  /// Every expression built, and every operand wrapper with the operand
  /// it wraps (and, for a right-hand side, its Decl/Assign statement):
  /// recordSolution() writes the solved assignment onto them.
  std::vector<Expr *> Exprs;
  struct Wrapper {
    int Node;
    Expr *Operand;
    Stmt *Rhs;
  };
  std::vector<Wrapper> Wrappers;

  sat::CnfFormula Formula;
  /// The clauses of form 4 (conflict edges), the only ones an error
  /// message names: [Begin, End) in Formula.
  size_t ConflictClausesBegin = 0, ConflictClausesEnd = 0;

  AssignStats Stats;

  //===--- Building -----------------------------------------------------===//
  int newNode(std::string Desc, SourceLoc Loc, std::vector<uint32_t> Attrs);
  size_t aNode(int Node, uint32_t Attr) const;
  void addEquality(size_t A, size_t B) { EqualityEdges.push_back({A, B}); }
  void addAssignment(size_t A, size_t B) {
    AssignmentEdges.push_back({A, B});
  }

  void buildGraph();
  /// Builds nodes/edges for E and returns E's graph node id. VarRef
  /// returns the variable's node (no separate node, as in Figure 7).
  int buildExpr(Expr &E);
  /// Wraps \p Operand (already built) as an operand of a parent, or as
  /// the right-hand side of \p Rhs: creates the dummy replace node over
  /// its schema and the assignment edges into it; returns the wrapper
  /// node id (-1 for 0B/1B).
  int wrapOperand(Expr &Operand, SourceLoc Loc, Stmt *Rhs = nullptr);
  void buildStmt(Stmt &S);
  void buildBlock(Block &B);
  /// Ties \p Rhs, the right-hand side of Decl/Assign \p S, into the
  /// assigned variable through a wrapper.
  void connectAssignment(Stmt &S, Expr &Rhs);
  /// Builds the comparison constraints of a condition.
  void buildCondition(Stmt &S);

  //===--- Encoding and solving ----------------------------------------===//
  /// Enumerates flow paths with at most \p MaxPathsPerANode per
  /// attribute. Returns false (with a diagnostic) when some attribute
  /// has no path at all. \p Truncated reports whether the cap was hit.
  bool enumerateFlowPaths(size_t MaxPathsPerANode,
                          std::vector<std::vector<std::vector<size_t>>> &Paths,
                          bool &Truncated);
  void encode(const std::vector<std::vector<std::vector<size_t>>> &Paths);
  /// Solves the formula; on success decodes the assignment and records
  /// it. On unsat, reports the core when \p Final.
  bool solveAndDecode(bool Final);
  /// Writes \p Assignment (physical domain per ANode) onto the program.
  void recordSolution(const std::vector<uint32_t> &Assignment);
  void reportUnsatCore(const std::vector<uint32_t> &Core);

  std::string aNodeDesc(size_t ANode) const;
  const Node &nodeOfANode(size_t ANode) const;
  uint32_t attrOfANode(size_t ANode) const;
};

} // namespace lang
} // namespace jedd

#endif // JEDDPP_JEDD_ASSIGN_H
