//===- Dimacs.cpp - DIMACS cnf writer -------------------------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "sat/Cnf.h"
#include "util/StringUtils.h"

using namespace jedd;
using namespace jedd::sat;

std::string jedd::sat::litToString(Lit L) {
  return strFormat("%s%u", isNegated(L) ? "-" : "", varOf(L) + 1);
}

std::string jedd::sat::toDimacs(const CnfFormula &F) {
  std::string Out =
      strFormat("p cnf %u %zu\n", F.NumVars, F.numClauses());
  for (size_t I = 0; I != F.numClauses(); ++I) {
    for (Lit L : F.clause(I)) {
      Out += litToString(L);
      Out += ' ';
    }
    Out += "0\n";
  }
  return Out;
}
