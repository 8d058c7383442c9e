//===- Driver.cpp - The jeddc compiler pipeline ---------------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "jedd/Driver.h"
#include "jedd/Parser.h"

using namespace jedd;
using namespace jedd::lang;

void CompiledProgram::buildUniverse(rel::Universe &U,
                                    const std::string &OrderSpec,
                                    size_t InitialNodes) const {
  const SymbolTable &Symbols = Prog->Symbols;
  for (const auto &D : Symbols.Domains) {
    rel::DomainId Id = U.addDomain(D.Name, D.Size);
    (void)Id;
  }
  for (const auto &A : Symbols.Attributes)
    U.addAttribute(A.Name, A.Domain);
  for (const auto &P : Symbols.PhysDoms)
    U.addPhysicalDomain(P.Name, P.Bits);
  U.finalize(OrderSpec, InitialNodes);
}

int CompiledProgram::findFunction(const std::string &Name) const {
  for (size_t I = 0; I != Prog->Ast.Functions.size(); ++I)
    if (Prog->Ast.Functions[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

int CompiledProgram::findVar(const std::string &Name, int Function) const {
  int Global = -1;
  for (size_t I = 0; I != Prog->Vars.size(); ++I) {
    const CheckedVar &V = Prog->Vars[I];
    if (V.Name != Name)
      continue;
    if (V.Function == Function)
      return static_cast<int>(I);
    if (V.Function == -1)
      Global = static_cast<int>(I);
  }
  return Global;
}

std::unique_ptr<CompiledProgram>
jedd::lang::compileJedd(const std::string &Source, DiagnosticEngine &Diags) {
  Program Ast = parse(Source, Diags);
  if (Diags.hasErrors())
    return nullptr;
  CheckedProgram Checked = typeCheck(std::move(Ast), Diags);
  if (Diags.hasErrors())
    return nullptr;
  auto Compiled =
      std::make_unique<CompiledProgram>(std::move(Checked), Diags);
  if (!Compiled->assignDomains())
    return nullptr;
  return Compiled;
}
