//===- CoreTools.cpp - Unsat core checking and minimization ---------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "sat/CoreTools.h"
#include "sat/Solver.h"

#include <algorithm>

using namespace jedd;
using namespace jedd::sat;

bool jedd::sat::checkModel(const CnfFormula &F,
                           const std::vector<bool> &Model) {
  if (Model.size() < F.NumVars)
    return false;
  for (size_t I = 0; I != F.numClauses(); ++I) {
    bool Satisfied = false;
    for (Lit L : F.clause(I))
      if (Model[varOf(L)] != isNegated(L)) {
        Satisfied = true;
        break;
      }
    if (!Satisfied)
      return false;
  }
  return true;
}

/// Solves the subset of F's clauses selected by \p Selected.
static Result solveSubset(const CnfFormula &F,
                          const std::vector<uint32_t> &Selected) {
  Solver S;
  while (S.numVars() < F.NumVars)
    S.newVar();
  for (uint32_t Id : Selected)
    S.addClause(F.clause(Id));
  return S.solve();
}

bool jedd::sat::verifyCore(const CnfFormula &F,
                           const std::vector<uint32_t> &Core) {
  return solveSubset(F, Core) == Result::Unsat;
}

std::vector<uint32_t>
jedd::sat::minimizeCore(const CnfFormula &F,
                        const std::vector<uint32_t> &Core) {
  assert(verifyCore(F, Core) && "minimizeCore requires an unsat core");
  std::vector<uint32_t> Current(Core);
  // Deletion loop: try dropping each clause once; keep the drop if the
  // rest remains unsat. One pass yields a minimal core because
  // unsatisfiability is monotone under adding clauses back.
  for (size_t I = 0; I < Current.size();) {
    std::vector<uint32_t> Candidate;
    Candidate.reserve(Current.size() - 1);
    for (size_t K = 0; K != Current.size(); ++K)
      if (K != I)
        Candidate.push_back(Current[K]);
    if (solveSubset(F, Candidate) == Result::Unsat)
      Current = std::move(Candidate); // Same index now names the next one.
    else
      ++I;
  }
  return Current;
}
