//===- CppEmit.cpp - C++ source emission for compiled Jedd ----------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "jedd/CppEmit.h"
#include "util/StringUtils.h"

using namespace jedd;
using namespace jedd::lang;

namespace {

class Emitter {
public:
  Emitter(const CompiledProgram &Compiled, std::string UnitName)
      : Compiled(Compiled), UnitName(std::move(UnitName)) {}

  std::string run();

private:
  const CompiledProgram &Compiled;
  std::string UnitName;
  std::string Out;
  int Indent = 1;
  int NextTemp = 0;

  const CheckedProgram &prog() const { return Compiled.program(); }
  const SymbolTable &symbols() const { return Compiled.program().Symbols; }

  void line(const std::string &Text) {
    Out += std::string(static_cast<size_t>(Indent) * 2, ' ');
    Out += Text;
    Out += '\n';
  }

  std::string attrRef(uint32_t Attr) {
    return "A_" + symbols().Attributes[Attr].Name;
  }
  std::string physRef(uint32_t Phys) {
    return "P_" + symbols().PhysDoms[Phys].Name;
  }
  std::string varRef(int Var) {
    const CheckedVar &V = prog().Vars[Var];
    return (V.Function == -1 ? "G_" : "L_") + V.Name;
  }
  std::string bindingsText(const std::vector<rel::AttrBinding> &Bindings) {
    std::string Text = "{";
    for (size_t I = 0; I != Bindings.size(); ++I) {
      if (I)
        Text += ", ";
      Text += "{" + attrRef(Bindings[I].Attr) + ", " +
              physRef(Bindings[I].Phys) + "}";
    }
    return Text + "}";
  }

  /// Emits statements computing E into a fresh temporary; returns its
  /// name. Constants materialize with \p ContextBindings.
  std::string emitExpr(const Expr &E,
                       const std::vector<rel::AttrBinding> &ContextBindings);
  /// emitExpr + re-alignment to \p Target when \p Replace, the recorded
  /// survival of the operand's replace, says so.
  std::string emitOperand(const Expr &E,
                          const std::vector<rel::AttrBinding> &Target,
                          bool Replace);
  std::string emitOperand(const Expr &E) {
    return emitOperand(E, E.Target, E.Replace);
  }
  std::string emitCondition(const Stmt &S);
  void emitStmt(const Stmt &S);
  void emitBlock(const Block &B);
};

std::string Emitter::emitOperand(const Expr &E,
                                 const std::vector<rel::AttrBinding> &Target,
                                 bool Replace) {
  std::string Value = emitExpr(E, Target);
  if (!Replace)
    return Value;
  std::string Temp = strFormat("t%d", NextTemp++);
  line("// replace (survived assignment-edge minimization)");
  line("jedd::rel::Relation " + Temp + " = " + Value + ".withBindings(" +
       bindingsText(Target) + ");");
  return Temp;
}

std::string
Emitter::emitExpr(const Expr &E,
                  const std::vector<rel::AttrBinding> &ContextBindings) {
  switch (E.Kind) {
  case ExprKind::VarRef:
    return varRef(E.VarIndex);

  case ExprKind::Const0:
    return "U.empty(" + bindingsText(ContextBindings) + ")";
  case ExprKind::Const1:
    return "U.full(" + bindingsText(ContextBindings) + ")";

  case ExprKind::Literal: {
    std::string Values = "{";
    for (size_t I = 0; I != E.Values.size(); ++I) {
      if (I)
        Values += ", ";
      Values += strFormat("%llu",
                          static_cast<unsigned long long>(E.Values[I]));
    }
    Values += "}";
    // Bindings are in piece order, so the values line up.
    return "U.tuple(" + bindingsText(E.Bindings) + ", " + Values + ")";
  }

  case ExprKind::Project:
    return emitOperand(*E.Sub) + ".project({" + attrRef(E.FromId) + "})";
  case ExprKind::Rename:
    return emitOperand(*E.Sub) + ".rename(" + attrRef(E.FromId) + ", " +
           attrRef(E.ToId) + ")";
  case ExprKind::Copy: {
    std::string Sub = emitOperand(*E.Sub);
    std::string Renamed = E.FromId == E.ToId
                              ? Sub
                              : Sub + ".rename(" + attrRef(E.FromId) + ", " +
                                    attrRef(E.ToId) + ")";
    return Renamed + ".copy(" + attrRef(E.ToId) + ", " +
           attrRef(E.CopyToId) + ", " +
           physRef(E.physOf(E.CopyToId)) + ")";
  }

  case ExprKind::Union:
  case ExprKind::Intersect:
  case ExprKind::Difference: {
    // A 0B/1B operand materializes over the operation's bindings.
    std::string L = emitOperand(*E.Left, E.Bindings, E.Left->Replace);
    std::string R = emitOperand(*E.Right, E.Bindings, E.Right->Replace);
    const char *Op = E.Kind == ExprKind::Union       ? " | "
                     : E.Kind == ExprKind::Intersect ? " & "
                                                     : " - ";
    return "(" + L + Op + R + ")";
  }

  case ExprKind::Join:
  case ExprKind::Compose: {
    std::string L = emitOperand(*E.Left);
    std::string R = emitOperand(*E.Right);
    std::string LA = "{", RA = "{";
    for (size_t I = 0; I != E.LeftIds.size(); ++I) {
      if (I) {
        LA += ", ";
        RA += ", ";
      }
      LA += attrRef(E.LeftIds[I]);
      RA += attrRef(E.RightIds[I]);
    }
    LA += "}";
    RA += "}";
    const char *Method = E.Kind == ExprKind::Join ? ".join(" : ".compose(";
    return L + Method + R + ", " + LA + ", " + RA + ")";
  }
  }
  return "/*unreachable*/";
}

std::string Emitter::emitCondition(const Stmt &S) {
  const Expr *L = S.CondLeft.get(), *R = S.CondRight.get();
  auto IsConst = [](const Expr *E) {
    return E->Kind == ExprKind::Const0 || E->Kind == ExprKind::Const1;
  };
  if (IsConst(L))
    std::swap(L, R);
  std::string Text;
  if (R->Kind == ExprKind::Const0) {
    Text = emitExpr(*L, {}) + ".isEmpty()";
    if (!S.CondIsEq)
      Text = "!" + Text;
    return Text;
  }
  std::string LV = emitExpr(*L, L->Bindings);
  std::string RV = emitExpr(*R, L->Bindings);
  return LV + (S.CondIsEq ? " == " : " != ") + RV;
}

void Emitter::emitStmt(const Stmt &S) {
  switch (S.Kind) {
  case StmtKind::Decl: {
    const std::vector<rel::AttrBinding> &Bindings =
        prog().Vars[S.VarIndex].Bindings;
    std::string Init =
        S.Init ? emitOperand(*S.Init, Bindings, S.ReplaceRhs)
               : "U.empty(" + bindingsText(Bindings) + ")";
    line("jedd::rel::Relation " + varRef(S.VarIndex) + " = " + Init + ";");
    return;
  }
  case StmtKind::Assign: {
    std::string Rhs = emitOperand(*S.Rhs, prog().Vars[S.VarIndex].Bindings,
                                  S.ReplaceRhs);
    const char *Op = S.Op == AssignOpKind::Set         ? " = "
                     : S.Op == AssignOpKind::Union     ? " |= "
                     : S.Op == AssignOpKind::Intersect ? " &= "
                                                       : " -= ";
    line(varRef(S.VarIndex) + Op + Rhs + ";");
    return;
  }
  case StmtKind::DoWhile:
    line("do {");
    ++Indent;
    emitBlock(S.Body);
    --Indent;
    line("} while (" + emitCondition(S) + ");");
    return;
  case StmtKind::While:
    line("while (" + emitCondition(S) + ") {");
    ++Indent;
    emitBlock(S.Body);
    --Indent;
    line("}");
    return;
  case StmtKind::If:
    line("if (" + emitCondition(S) + ") {");
    ++Indent;
    emitBlock(S.Body);
    --Indent;
    if (!S.ElseBody.Stmts.empty()) {
      line("} else {");
      ++Indent;
      emitBlock(S.ElseBody);
      --Indent;
    }
    line("}");
    return;
  }
}

void Emitter::emitBlock(const Block &B) {
  for (const StmtPtr &S : B.Stmts)
    emitStmt(*S);
}

std::string Emitter::run() {
  Out += "// Generated by jeddc (jeddpp) — do not edit.\n";
  Out += "#include \"rel/Relation.h\"\n\n";
  Out += "namespace " + UnitName + " {\n\n";

  Out += "// Declarations mirrored from the Jedd source.\n";
  Out += "jedd::rel::Universe U;\n";
  for (size_t I = 0; I != symbols().Domains.size(); ++I)
    Out += strFormat("const jedd::rel::DomainId D_%s = %zu;\n",
                     symbols().Domains[I].Name.c_str(), I);
  for (size_t I = 0; I != symbols().Attributes.size(); ++I)
    Out += strFormat("const jedd::rel::AttributeId A_%s = %zu;\n",
                     symbols().Attributes[I].Name.c_str(), I);
  for (size_t I = 0; I != symbols().PhysDoms.size(); ++I)
    Out += strFormat("const jedd::rel::PhysDomId P_%s = %zu;\n",
                     symbols().PhysDoms[I].Name.c_str(), I);
  Out += "\nvoid declareUniverse() {\n";
  for (const auto &D : symbols().Domains)
    Out += strFormat("  U.addDomain(\"%s\", %llu);\n", D.Name.c_str(),
                     static_cast<unsigned long long>(D.Size));
  for (const auto &A : symbols().Attributes)
    Out += strFormat("  U.addAttribute(\"%s\", D_%s);\n", A.Name.c_str(),
                     symbols().Domains[A.Domain].Name.c_str());
  for (const auto &P : symbols().PhysDoms)
    Out += strFormat("  U.addPhysicalDomain(\"%s\", %u);\n", P.Name.c_str(),
                     P.Bits);
  Out += "  U.finalize();\n}\n\n";

  Out += "// Globals, in their solved physical domains.\n";
  for (const CheckedVar &V : prog().Vars)
    if (V.Function == -1)
      Out += "jedd::rel::Relation G_" + V.Name + ";\n";
  Out += "\nvoid initGlobals() {\n";
  for (const CheckedVar &V : prog().Vars)
    if (V.Function == -1)
      Out += "  G_" + V.Name + " = U.empty(" +
             bindingsText(V.Bindings) + ");\n";
  Out += "}\n";

  for (const FunctionDecl &Fn : prog().Ast.Functions) {
    Out += "\nvoid " + Fn.Name + "(";
    for (size_t I = 0; I != Fn.Params.size(); ++I) {
      if (I)
        Out += ", ";
      Out += "jedd::rel::Relation L_" + Fn.Params[I].Name;
    }
    Out += ") {\n";
    // Re-align parameters to their solved bindings.
    for (const Param &P : Fn.Params)
      Out += "  L_" + P.Name + " = L_" + P.Name + ".withBindings(" +
             bindingsText(prog().Vars[P.VarIndex].Bindings) + ");\n";
    emitBlock(Fn.Body);
    Out += "}\n";
  }

  Out += "\n} // namespace " + UnitName + "\n";
  return Out;
}

} // namespace

std::string jedd::lang::emitCpp(const CompiledProgram &Compiled,
                                const std::string &UnitName) {
  Emitter E(Compiled, UnitName);
  return E.run();
}
