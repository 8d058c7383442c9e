//===- Cnf.h - Literals, clauses, CNF formulas ------------------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CNF building blocks shared by the CDCL solver, the DPLL reference
/// solver, and the DIMACS writer. The physical domain assignment
/// of Section 3.3.2 is encoded directly in CNF ("it is easier to specify
/// it directly in CNF than to construct an arbitrary formula and convert
/// it to CNF later"), so this is the interchange format between jeddc and
/// the solver.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_SAT_CNF_H
#define JEDDPP_SAT_CNF_H

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace jedd {
namespace sat {

/// 0-based variable index.
using Var = uint32_t;

/// Literal: variable with a sign packed as 2*Var + (negated ? 1 : 0).
/// This is the MiniSat convention; negation is a single xor.
using Lit = uint32_t;

constexpr Lit NoLit = 0xFFFFFFFFu;

inline Lit mkLit(Var V, bool Negated = false) { return 2 * V + Negated; }
inline Var varOf(Lit L) { return L >> 1; }
inline bool isNegated(Lit L) { return L & 1; }
inline Lit negate(Lit L) { return L ^ 1; }

/// Renders a literal in DIMACS style ("-3" for the negation of var 2).
std::string litToString(Lit L);

/// A plain CNF formula. Clause order is meaningful: the Jedd assignment
/// encoder relies on clause indices to map an unsat core back to the
/// constraints that produced it.
///
/// The literals of every clause sit back to back in one array: clause I
/// is Lits[Ends[I - 1], Ends[I]) (from 0 for the first), so adding a
/// clause allocates nothing once the arrays have grown.
struct CnfFormula {
  unsigned NumVars = 0;
  std::vector<Lit> Lits;
  std::vector<uint32_t> Ends;

  Var newVar() { return NumVars++; }

  /// Appends a clause and returns its index.
  size_t addClause(std::span<const Lit> C) {
#ifndef NDEBUG
    for (Lit L : C)
      assert(varOf(L) < NumVars && "literal over undeclared variable");
#endif
    Lits.insert(Lits.end(), C.begin(), C.end());
    Ends.push_back(static_cast<uint32_t>(Lits.size()));
    return Ends.size() - 1;
  }
  size_t addClause(std::initializer_list<Lit> C) {
    return addClause(std::span<const Lit>(C.begin(), C.size()));
  }

  /// The literals of clause \p I, in the order they were added.
  std::span<const Lit> clause(size_t I) const {
    uint32_t Begin = I == 0 ? 0 : Ends[I - 1];
    return {Lits.data() + Begin, Ends[I] - Begin};
  }

  size_t numClauses() const { return Ends.size(); }
  /// Total number of literal occurrences — the "Literals" column of the
  /// paper's Table 1.
  size_t numLiterals() const { return Lits.size(); }
};

/// Serializes to DIMACS cnf format.
std::string toDimacs(const CnfFormula &F);

} // namespace sat
} // namespace jedd

#endif // JEDDPP_SAT_CNF_H
