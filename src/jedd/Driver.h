//===- Driver.h - The jeddc compiler pipeline -------------------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The jeddc driver (Figure 1): parser -> semantic analysis -> physical
/// domain assignment -> code generation. A successful compile yields a
/// CompiledProgram, which can (a) report the Table 1 statistics of its
/// assignment problem, (b) build a matching rel::Universe, (c) be run by
/// the Interpreter, and (d) be emitted as C++ source targeting the
/// relational runtime (the analogue of the paper's generated Java).
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_JEDD_DRIVER_H
#define JEDDPP_JEDD_DRIVER_H

#include "jedd/Assign.h"
#include "jedd/TypeCheck.h"
#include "rel/Universe.h"

#include <memory>
#include <string>

namespace jedd {
namespace lang {

/// A fully compiled Jedd program: checked AST + solved physical domain
/// assignment. The DiagnosticEngine passed at construction must outlive
/// the object.
class CompiledProgram {
public:
  CompiledProgram(CheckedProgram Checked, DiagnosticEngine &Diags)
      : Prog(std::make_unique<CheckedProgram>(std::move(Checked))),
        Assigner(std::make_unique<DomainAssigner>(*Prog, Diags)) {}

  /// Runs the physical domain assignment; false on failure.
  bool assignDomains() { return Assigner->run(); }

  const CheckedProgram &program() const { return *Prog; }
  CheckedProgram &program() { return *Prog; }
  const DomainAssigner &assigner() const { return *Assigner; }
  const AssignStats &assignStats() const { return Assigner->stats(); }

  /// Registers the program's domains, attributes and physical domains in
  /// \p U (ids equal the symbol table indices) and finalizes it with
  /// \p OrderSpec ("" = declaration order; see bdd/DomainPack.h).
  void buildUniverse(rel::Universe &U, const std::string &OrderSpec = "",
                     size_t InitialNodes = 1 << 16) const;

  /// Name lookups for hosts that address functions and relations by
  /// name; the compiler's own passes read the indices the checker
  /// recorded on the AST instead.
  /// Index of a function by name; -1 when absent.
  int findFunction(const std::string &Name) const;
  /// Index of a variable by name: locals/params of \p Function first,
  /// then globals. -1 when absent.
  int findVar(const std::string &Name, int Function = -1) const;

private:
  std::unique_ptr<CheckedProgram> Prog;
  std::unique_ptr<DomainAssigner> Assigner;
};

/// Runs the front half of jeddc: parse + type check + domain assignment.
/// Returns null when any stage fails (see \p Diags).
std::unique_ptr<CompiledProgram> compileJedd(const std::string &Source,
                                             DiagnosticEngine &Diags);

} // namespace lang
} // namespace jedd

#endif // JEDDPP_JEDD_DRIVER_H
