//===- Dimacs.cpp - DIMACS cnf reader/writer ------------------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "sat/Cnf.h"
#include "util/StringUtils.h"

#include <charconv>

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
  std::vector<std::string_view> Tokens;

  FieldScanner Lines(Text, '\n');
  for (std::string_view RawLine; Lines.next(RawLine);) {
    std::string_view Line = trimString(RawLine);
    if (Line.empty() || Line[0] == 'c')
      continue;
    Tokens.clear();
    FieldScanner Words(Line, ' ');
    for (std::string_view Tok; Words.next(Tok);)
      if (!(Tok = trimString(Tok)).empty())
        Tokens.push_back(Tok);

    if (Line[0] == 'p') {
      if (SawHeader) {
        Error = "duplicate problem line";
        return false;
      }
      if (Tokens.size() != 4 || Tokens[0] != "p" || Tokens[1] != "cnf" ||
          !parseDecimal(Tokens[2], F.NumVars) ||
          !parseDecimal(Tokens[3], DeclaredClauses)) {
        Error = "malformed problem line: " + std::string(Line);
        return false;
      }
      // Lit packs a variable as 2 * Var + sign below NoLit.
      if (F.NumVars > NoLit / 2) {
        Error = strFormat("problem line declares %u variables; at most %u "
                          "fit a literal",
                          F.NumVars, NoLit / 2);
        return false;
      }
      SawHeader = true;
      continue;
    }
    if (!SawHeader) {
      Error = "clause before the problem line";
      return false;
    }
    for (std::string_view Tok : Tokens) {
      bool Negated = Tok[0] == '-';
      std::string_view Digits = Tok.substr(Negated);
      const char *End = Digits.data() + Digits.size();
      uint64_t Magnitude = 0;
      auto [Ptr, Ec] = std::from_chars(Digits.data(), End, Magnitude);
      if (Ec == std::errc::invalid_argument || Ptr != End) {
        Error = "malformed literal '" + std::string(Tok) + "'";
        return false;
      }
      // All digits, so out_of_range means more than 64 bits.
      if (Ec == std::errc::result_out_of_range || Magnitude > F.NumVars) {
        Error = strFormat("literal '%s' exceeds declared variable count %u",
                          std::string(Tok).c_str(), F.NumVars);
        return false;
      }
      if (Magnitude == 0) {
        F.addClause(Current);
        Current.clear();
        continue;
      }
      Current.push_back(mkLit(static_cast<Var>(Magnitude - 1), Negated));
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
