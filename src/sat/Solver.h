//===- Solver.h - CDCL SAT solver with unsat cores --------------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Chaff-style conflict-driven clause-learning SAT solver standing in
/// for zchaff [19]: two-watched-literal propagation, first-UIP learning,
/// VSIDS branching from an activity-ordered variable heap (MiniSat's),
/// phase saving and Luby restarts. The layout follows MiniSat too: every
/// clause's literals in one arena, binary clauses propagated from their
/// watchers alone, and only variables that took part in a conflict in the
/// heap. Like the zchaff
/// version the paper relies on, it supports *unsatisfiable core
/// extraction* [30]: on UNSAT it reports a subset of the original clauses
/// whose conjunction is already unsatisfiable, which jeddc turns into the
/// targeted "Conflict between ..." error messages of Section 3.3.3.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_SAT_SOLVER_H
#define JEDDPP_SAT_SOLVER_H

#include "sat/Cnf.h"

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace jedd {
namespace sat {

enum class Result { Sat, Unsat };

struct SolverStats {
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t Conflicts = 0;
  uint64_t Restarts = 0;
  uint64_t LearnedClauses = 0;
};

/// CDCL solver. Typical usage:
/// \code
///   Solver S;
///   S.addFormula(F);
///   if (S.solve() == Result::Sat) use S.modelValue(V);
///   else use S.unsatCore();
/// \endcode
class Solver {
public:
  Solver() = default;

  /// Declares a fresh variable and returns it.
  Var newVar();
  unsigned numVars() const { return static_cast<unsigned>(VarCount); }

  /// Adds one clause of original (problem) clauses. Clauses are numbered
  /// by addition order; unsat cores report these numbers. Variables must
  /// have been declared: a literal over an undeclared variable throws
  /// jedd::UsageError. An empty clause makes the instance trivially
  /// unsatisfiable.
  void addClause(std::span<const Lit> Lits);
  void addClause(std::initializer_list<Lit> Lits) {
    addClause(std::span<const Lit>(Lits.begin(), Lits.size()));
  }

  /// Convenience: declares missing variables and adds all clauses.
  void addFormula(const CnfFormula &F);

  /// Runs the search. May be called once per solver instance.
  Result solve();

  /// After Sat: the value assigned to \p V.
  bool modelValue(Var V) const;
  /// After Sat: copies the full model out (indexed by variable).
  std::vector<bool> model() const;

  /// After Unsat: indices (in addClause order) of an unsatisfiable subset
  /// of the original clauses. Not guaranteed minimal, but in practice
  /// small — the paper reports the same experience with zchaff.
  const std::vector<uint32_t> &unsatCore() const { return Core; }

  const SolverStats &stats() const { return Stats; }

private:
  // Clauses. Original clauses come first (their index is the public
  // clause id); learned clauses follow, each with the ids of the clauses
  // resolved to derive it, forming the resolution graph the core
  // extraction walks. Those lists live in Derivations. The literals of
  // every clause sit back to back in Arena, so a clause is a 12-byte
  // record and adding one allocates nothing once the arrays have grown.
  // Arena grows as learned clauses are added: address a clause's literals
  // by index, and hold no pointer into Arena across addLearned.
  struct Clause {
    uint32_t Begin;      // Index of the first literal in Arena.
    uint32_t Size;       // Number of literals.
    uint32_t Derivation; // Index into Derivations; NoReason if original.
  };

  static constexpr uint32_t NoReason = 0xFFFFFFFFu;

  size_t VarCount = 0;
  std::vector<Lit> Arena;
  std::vector<Clause> Clauses;
  size_t NumOriginal = 0;
  std::vector<std::vector<uint32_t>> Derivations;

  // Assignment state. Values: 0 unassigned, 1 true, 2 false.
  std::vector<uint8_t> Values;
  std::vector<uint32_t> Levels;
  std::vector<uint32_t> Reasons;
  std::vector<Lit> Trail;
  std::vector<size_t> TrailLimits; // Trail size at each decision level.
  size_t PropagateHead = 0;

  // Two-watched literals: Watches[L] lists the clauses watching literal L,
  // binary and longer ones in one list. A binary clause's watcher carries
  // the clause's other literal, so propagating it never reads the arena;
  // a longer clause's carries NoLit.
  struct Watcher {
    uint32_t Clause;
    Lit Other;
  };
  std::vector<std::vector<Watcher>> Watches;

  // VSIDS. The branching variable is the unassigned one of highest
  // activity, ties to the lower index. Heap is a binary max-heap in that
  // order over the variables with positive activity: every unassigned
  // one is in it, and assigned ones leave it lazily when pickBranchLit
  // pops them. Every unassigned variable of activity 0 has an index of at
  // least ZeroCursor, so when the heap holds no unassigned variable the
  // pick is the first unassigned one from ZeroCursor on. Most variables
  // of a Jedd formula are never bumped and never enter the heap.
  static constexpr uint32_t NotInHeap = 0xFFFFFFFFu;
  std::vector<double> Activity;
  double ActivityInc = 1.0;
  std::vector<uint8_t> SavedPhase;
  std::vector<Var> Heap;
  std::vector<uint32_t> HeapPos; // Index into Heap, or NotInHeap.
  Var ZeroCursor = 0;

  // Conflict-analysis marks, all zero between conflicts: 1 for a variable
  // resolved on or in the learned clause, 2 for a level-0 variable whose
  // derivation joins the sources. Level0Seen lists the 2s.
  std::vector<uint8_t> Seen;
  std::vector<Var> Level0Seen;

  // Unsat bookkeeping.
  bool FoundEmptyClause = false;
  uint32_t EmptyClauseId = 0;
  std::vector<uint32_t> Core;

  SolverStats Stats;
  bool Solved = false;

  uint32_t level() const { return static_cast<uint32_t>(TrailLimits.size()); }
  bool litIsTrue(Lit L) const {
    return Values[varOf(L)] == (isNegated(L) ? 2 : 1);
  }
  bool litIsFalse(Lit L) const {
    return Values[varOf(L)] == (isNegated(L) ? 1 : 2);
  }
  bool litIsUnassigned(Lit L) const { return Values[varOf(L)] == 0; }
  /// Clause \p Id's literals; valid until the next clause is added.
  std::span<Lit> litsOf(uint32_t Id) {
    return {Arena.data() + Clauses[Id].Begin, Clauses[Id].Size};
  }

  Result solveImpl();

  void enqueue(Lit L, uint32_t Reason);
  /// Returns the conflicting clause id, or NoReason if propagation
  /// completed without conflict.
  uint32_t propagate();
  void attachClause(uint32_t Id);
  void backtrack(uint32_t ToLevel);
  Lit pickBranchLit();
  void bumpVar(Var V);
  void decayActivities();
  bool heapBefore(Var A, Var B) const {
    return Activity[A] > Activity[B] || (Activity[A] == Activity[B] && A < B);
  }
  void heapInsert(Var V);
  void siftUp(uint32_t I);
  void siftDown(uint32_t I);

  /// First-UIP conflict analysis. Fills \p Learned (asserting literal
  /// first), \p OutLevel (backtrack level) and \p Sources (clause ids
  /// resolved, including \p ConflictId).
  void analyze(uint32_t ConflictId, std::vector<Lit> &Learned,
               uint32_t &OutLevel, std::vector<uint32_t> &Sources);

  /// Level-0 conflict: computes the unsat core by walking reasons of the
  /// falsified literals and expanding learned clauses into original ones.
  void buildCore(uint32_t ConflictId, const std::vector<uint32_t> &Extra);

  /// Appends an original clause, sorted and without duplicate literals,
  /// and returns whether it must be watched: false for a tautology, a
  /// unit or the empty clause.
  bool storeOriginal(std::span<const Lit> Lits);
  /// Appends and watches a learned clause with the ids of the clauses
  /// resolved to derive it; returns its id.
  uint32_t addLearned(std::span<const Lit> Lits,
                      std::vector<uint32_t> Sources);
};

/// A plain recursive DPLL solver (unit propagation + splitting). Used as
/// a differential-testing oracle and as the ablation baseline in
/// bench/sat_solver. Exponential; small inputs only.
class DpllSolver {
public:
  explicit DpllSolver(const CnfFormula &F) : Formula(F) {}

  Result solve();
  /// After Sat: a satisfying assignment (indexed by variable).
  const std::vector<bool> &model() const { return Model; }

private:
  const CnfFormula &Formula;
  std::vector<bool> Model;

  bool solveRec(std::vector<int8_t> &Assign);
};

} // namespace sat
} // namespace jedd

#endif // JEDDPP_SAT_SOLVER_H
