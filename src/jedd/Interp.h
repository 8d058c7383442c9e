//===- Interp.h - Executes compiled Jedd programs ---------------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a CompiledProgram against the relational runtime. This is the
/// semantic core of the paper's code generation strategy (Section 3.2):
/// every expression value lives in the physical domains the SAT-based
/// assignment chose for it, operands are moved through the surviving
/// replace operations (the dummy replaces whose endpoint assignments
/// differ, as the assigner recorded them on the AST), and each
/// relational operation lowers to the corresponding runtime call. The
/// C++ emitter (CppEmit.h) prints the same lowering as source text — the
/// analogue of jeddc's generated Java.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_JEDD_INTERP_H
#define JEDDPP_JEDD_INTERP_H

#include "jedd/Driver.h"
#include "rel/Relation.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace jedd {
namespace lang {

/// Interpreter state over one universe. The universe must have been
/// created with CompiledProgram::buildUniverse().
class Interpreter {
public:
  Interpreter(const CompiledProgram &Compiled, rel::Universe &U);

  /// An empty relation with the solved bindings of variable \p Name
  /// (resolved in \p Function's scope, or globally for -1). Useful for
  /// preparing inputs.
  rel::Relation emptyOfVar(const std::string &Name, int Function = -1) const;

  /// Reads or writes a global relation. Writes re-align the value to the
  /// global's solved bindings.
  rel::Relation getGlobal(const std::string &Name) const;
  void setGlobal(const std::string &Name, const rel::Relation &Value);

  /// Calls function \p Name with \p Args (re-aligned to the parameters'
  /// solved bindings). Fatal error on unknown functions or arity
  /// mismatch.
  void call(const std::string &Name, std::vector<rel::Relation> Args);

  /// Number of replace operations that moved data so far: each run of a
  /// replace that survived minimization counts once. jeddc_demo prints
  /// it; the interpreter tests check it.
  size_t replacesExecuted() const { return ReplacesExecuted; }

private:
  const CompiledProgram &Compiled;
  rel::Universe &U;
  /// Values of all variables, indexed like CheckedProgram::Vars.
  /// Globals persist across calls. A local is written when its
  /// declaration runs, and its initializer cannot read it, so a call
  /// sees no value an earlier call left in it unless it reads the
  /// local where its declaration was skipped (an untaken branch).
  std::vector<rel::Relation> Values;
  size_t ReplacesExecuted = 0;
  /// Site label ("line,col") per expression NodeId, built on first use.
  /// Map nodes stay put, so a label outlives the call it tags.
  std::unordered_map<int, std::string> SiteLabels;

  const CheckedProgram &prog() const { return Compiled.program(); }

  /// Runs one replace operation, counting it.
  rel::Relation replace(const rel::Relation &Value,
                        const std::vector<rel::AttrBinding> &Target);
  /// Moves a value from the host, whose layout the assigner cannot know,
  /// to \p Target when some attribute is elsewhere.
  rel::Relation alignTo(const rel::Relation &Value,
                        const std::vector<rel::AttrBinding> &Target);

  rel::Site siteOf(const Expr &E);
  rel::Relation evalExpr(const Expr &E);
  /// Evaluates operand \p E and moves it to \p Target when \p Replace,
  /// the recorded survival of its replace, says so. 0B/1B materialize
  /// over \p Target.
  rel::Relation evalOperand(const Expr &E,
                            const std::vector<rel::AttrBinding> &Target,
                            bool Replace);
  rel::Relation evalOperand(const Expr &E) {
    return evalOperand(E, E.Target, E.Replace);
  }
  bool evalCondition(const Stmt &S);
  void execStmt(const Stmt &S);
  void execBlock(const Block &B);
};

} // namespace lang
} // namespace jedd

#endif // JEDDPP_JEDD_INTERP_H
