//===- Interp.cpp - Executes compiled Jedd programs ------------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "jedd/Interp.h"
#include "util/Fatal.h"
#include "util/StringUtils.h"

#include <algorithm>

using namespace jedd;
using namespace jedd::lang;
using rel::AttrBinding;
using rel::Relation;

Interpreter::Interpreter(const CompiledProgram &Compiled, rel::Universe &U)
    : Compiled(Compiled), U(U) {
  JEDD_CHECK(U.isFinalized(),
             "the universe must be built with buildUniverse() first");
  // Materialize every variable as the empty relation over its solved
  // bindings; globals keep state across calls.
  Values.resize(prog().Vars.size());
  for (size_t I = 0; I != prog().Vars.size(); ++I)
    Values[I] = U.empty(prog().Vars[I].Bindings);
}

Relation Interpreter::replace(const Relation &Value,
                              const std::vector<AttrBinding> &Target) {
  // Count the replaces that actually move data — the operations the
  // assignment algorithm works to eliminate.
  ++ReplacesExecuted;
  return Value.withBindings(Target, JEDD_SITE("replace"));
}

Relation Interpreter::alignTo(const Relation &Value,
                              const std::vector<AttrBinding> &Target) {
  for (const AttrBinding &B : Target)
    if (Value.physOf(B.Attr) != B.Phys)
      return replace(Value, Target);
  return Value;
}

rel::Relation Interpreter::emptyOfVar(const std::string &Name,
                                      int Function) const {
  int Var = Compiled.findVar(Name, Function);
  JEDD_CHECK(Var >= 0, "unknown relation '" + Name + "'");
  return const_cast<rel::Universe &>(U).empty(prog().Vars[Var].Bindings);
}

rel::Relation Interpreter::getGlobal(const std::string &Name) const {
  int Var = Compiled.findVar(Name, -1);
  JEDD_CHECK(Var >= 0 && prog().Vars[Var].Function == -1,
             "unknown global relation '" + Name + "'");
  return Values[Var];
}

void Interpreter::setGlobal(const std::string &Name,
                            const rel::Relation &Value) {
  int Var = Compiled.findVar(Name, -1);
  JEDD_CHECK(Var >= 0 && prog().Vars[Var].Function == -1,
             "unknown global relation '" + Name + "'");
  Values[Var] = alignTo(Value, prog().Vars[Var].Bindings);
}

Relation Interpreter::evalOperand(const Expr &E,
                                  const std::vector<AttrBinding> &Target,
                                  bool Replace) {
  if (E.Kind == ExprKind::Const0)
    return U.empty(Target);
  if (E.Kind == ExprKind::Const1)
    return U.full(Target);
  Relation Value = evalExpr(E);
  return Replace ? replace(Value, Target) : Value;
}

rel::Site Interpreter::siteOf(const Expr &E) {
  auto [It, New] = SiteLabels.try_emplace(E.NodeId);
  if (New)
    It->second = strFormat("%u,%u", E.Loc.Line, E.Loc.Col);
  return rel::Site(It->second.c_str(), "<jedd>", E.Loc.Line);
}

Relation Interpreter::evalExpr(const Expr &E) {
  switch (E.Kind) {
  case ExprKind::VarRef:
    return Values[E.VarIndex];

  case ExprKind::Const0:
  case ExprKind::Const1:
    fatalError("0B/1B outside an inferring context");

  case ExprKind::Literal:
    return U.tuple(E.Bindings, E.Values); // Bindings are in piece order.

  case ExprKind::Project:
    return evalOperand(*E.Sub).project({E.FromId}, siteOf(E));

  case ExprKind::Rename:
    return evalOperand(*E.Sub).rename(E.FromId, E.ToId, siteOf(E));

  case ExprKind::Copy: {
    Relation V = evalOperand(*E.Sub);
    rel::Site At = siteOf(E);
    Relation Renamed = E.ToId == E.FromId ? V : V.rename(E.FromId, E.ToId, At);
    return Renamed.copy(E.ToId, E.CopyToId, E.physOf(E.CopyToId), At);
  }

  case ExprKind::Union:
  case ExprKind::Intersect:
  case ExprKind::Difference: {
    // A 0B/1B operand materializes over the operation's bindings.
    Relation L = evalOperand(*E.Left, E.Bindings, E.Left->Replace);
    Relation R = evalOperand(*E.Right, E.Bindings, E.Right->Replace);
    if (E.Kind == ExprKind::Union)
      return L | R;
    if (E.Kind == ExprKind::Intersect)
      return L & R;
    return L - R;
  }

  case ExprKind::Join:
  case ExprKind::Compose: {
    Relation L = evalOperand(*E.Left);
    Relation R = evalOperand(*E.Right);
    if (E.Kind == ExprKind::Join)
      return L.join(R, E.LeftIds, E.RightIds, siteOf(E));
    return L.compose(R, E.LeftIds, E.RightIds, siteOf(E));
  }
  }
  fatalError("unhandled expression kind in the interpreter");
}

bool Interpreter::evalCondition(const Stmt &S) {
  const Expr *L = S.CondLeft.get(), *R = S.CondRight.get();
  // Normalize: put a possible constant on the right.
  if (L->Kind == ExprKind::Const0 || L->Kind == ExprKind::Const1)
    std::swap(L, R);

  bool Equal;
  if (R->Kind == ExprKind::Const0) {
    Equal = evalExpr(*L).isEmpty();
  } else if (R->Kind == ExprKind::Const1) {
    Relation V = evalExpr(*L);
    Equal = V == U.full(V.schema());
  } else {
    Equal = evalExpr(*L) == evalExpr(*R);
  }
  return S.CondIsEq ? Equal : !Equal;
}

void Interpreter::execStmt(const Stmt &S) {
  switch (S.Kind) {
  case StmtKind::Decl: {
    const std::vector<AttrBinding> &Bindings =
        prog().Vars[S.VarIndex].Bindings;
    Values[S.VarIndex] = S.Init ? evalOperand(*S.Init, Bindings, S.ReplaceRhs)
                                : U.empty(Bindings);
    return;
  }
  case StmtKind::Assign: {
    Relation &Var = Values[S.VarIndex];
    Relation Rhs = evalOperand(*S.Rhs, prog().Vars[S.VarIndex].Bindings,
                               S.ReplaceRhs);
    switch (S.Op) {
    case AssignOpKind::Set:
      Var = std::move(Rhs);
      break;
    case AssignOpKind::Union:
      Var |= Rhs;
      break;
    case AssignOpKind::Intersect:
      Var &= Rhs;
      break;
    case AssignOpKind::Difference:
      Var -= Rhs;
      break;
    }
    return;
  }
  case StmtKind::DoWhile:
    do {
      execBlock(S.Body);
    } while (evalCondition(S));
    return;
  case StmtKind::While:
    while (evalCondition(S))
      execBlock(S.Body);
    return;
  case StmtKind::If:
    execBlock(evalCondition(S) ? S.Body : S.ElseBody);
    return;
  }
}

void Interpreter::execBlock(const Block &B) {
  for (const StmtPtr &S : B.Stmts)
    execStmt(*S);
}

void Interpreter::call(const std::string &Name,
                       std::vector<rel::Relation> Args) {
  int Function = Compiled.findFunction(Name);
  JEDD_CHECK(Function >= 0, "unknown function '" + Name + "'");
  const FunctionDecl &F = prog().Ast.Functions[Function];
  JEDD_CHECK(Args.size() == F.Params.size(),
             strFormat("function '%s' expects %zu arguments, got %zu",
                       Name.c_str(), F.Params.size(), Args.size()));
  for (size_t I = 0; I != Args.size(); ++I) {
    int Var = F.Params[I].VarIndex;
    Values[Var] = alignTo(Args[I], prog().Vars[Var].Bindings);
  }
  execBlock(F.Body);
}
