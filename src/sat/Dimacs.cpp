//===- Dimacs.cpp - DIMACS cnf reader/writer ------------------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "sat/Cnf.h"
#include "util/StringUtils.h"

#include <cstdlib>

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

bool jedd::sat::parseDimacs(const std::string &Text, CnfFormula &F,
                            std::string &Error) {
  F = CnfFormula();
  bool SawHeader = false;
  size_t DeclaredClauses = 0;
  std::vector<Lit> Current;

  for (const std::string &RawLine : splitString(Text, '\n')) {
    std::string_view Line = trimString(RawLine);
    if (Line.empty() || Line[0] == 'c')
      continue;
    if (Line[0] == 'p') {
      if (SawHeader) {
        Error = "duplicate problem line";
        return false;
      }
      unsigned Vars = 0;
      size_t ClauseCount = 0;
      if (std::sscanf(std::string(Line).c_str(), "p cnf %u %zu", &Vars,
                      &ClauseCount) != 2) {
        Error = "malformed problem line: " + std::string(Line);
        return false;
      }
      F.NumVars = Vars;
      DeclaredClauses = ClauseCount;
      SawHeader = true;
      continue;
    }
    if (!SawHeader) {
      Error = "clause before the problem line";
      return false;
    }
    for (const std::string &Tok : splitString(std::string(Line), ' ')) {
      std::string_view T = trimString(Tok);
      if (T.empty())
        continue;
      char *End = nullptr;
      std::string TokStr(T); // keep alive: End points into this buffer
      long Value = std::strtol(TokStr.c_str(), &End, 10);
      if (*End != '\0') {
        Error = "malformed literal: " + std::string(T);
        return false;
      }
      if (Value == 0) {
        F.addClause(Current);
        Current.clear();
        continue;
      }
      unsigned V = static_cast<unsigned>(Value < 0 ? -Value : Value) - 1;
      if (V >= F.NumVars) {
        Error = strFormat("literal %ld exceeds declared variable count %u",
                          Value, F.NumVars);
        return false;
      }
      Current.push_back(mkLit(V, Value < 0));
    }
  }
  if (!Current.empty()) {
    Error = "unterminated final clause";
    return false;
  }
  if (DeclaredClauses != F.numClauses()) {
    Error = strFormat("declared %zu clauses but found %zu", DeclaredClauses,
                      F.numClauses());
    return false;
  }
  return true;
}
