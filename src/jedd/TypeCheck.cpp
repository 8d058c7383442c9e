//===- TypeCheck.cpp - Semantic analysis for Jedd --------------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "jedd/TypeCheck.h"
#include "util/StringUtils.h"

#include <algorithm>
#include <map>

using namespace jedd;
using namespace jedd::lang;

int SymbolTable::findDomain(const std::string &Name) const {
  for (size_t I = 0; I != Domains.size(); ++I)
    if (Domains[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

int SymbolTable::findAttribute(const std::string &Name) const {
  for (size_t I = 0; I != Attributes.size(); ++I)
    if (Attributes[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

int SymbolTable::findPhysDom(const std::string &Name) const {
  for (size_t I = 0; I != PhysDoms.size(); ++I)
    if (PhysDoms[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

namespace {

/// Renders a schema as "<a, b, c>" for diagnostics.
std::string schemaToString(const SymbolTable &Symbols,
                           const std::vector<uint32_t> &Schema) {
  std::string Out = "<";
  for (size_t I = 0; I != Schema.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Symbols.Attributes[Schema[I]].Name;
  }
  return Out + ">";
}

class Checker {
public:
  Checker(Program Ast, DiagnosticEngine &Diags)
      : Result{std::move(Ast), {}, {}, 0, 0}, Diags(Diags) {}

  CheckedProgram run();

private:
  CheckedProgram Result;
  DiagnosticEngine &Diags;
  /// Variables in scope for the function being checked: name -> index
  /// into Result.Vars. Globals stay for the whole run.
  std::map<std::string, int> Scope;
  std::map<std::string, int> GlobalScope;
  int CurrentFunction = -1;

  SymbolTable &symbols() { return Result.Symbols; }

  void collectDeclarations();
  /// Resolves a relation type to (sorted attrs, specified phys pairs).
  bool resolveRelType(const RelTypeAst &Type, std::vector<uint32_t> &Attrs,
                      std::vector<std::pair<uint32_t, uint32_t>> &Specified);
  int declareVar(const RelTypeAst &Type, const std::string &Name,
                 SourceLoc Loc, bool IsParam);

  void checkFunction(FunctionDecl &F, int FunctionIndex);
  void checkBlock(Block &B);
  void checkStmt(Stmt &S);
  /// Infers the schema of E; Const0/Const1 get an empty schema and
  /// IsConst semantics. Returns false when checking failed (schema
  /// meaningless).
  bool checkExpr(Expr &E);
  /// Adopts \p ContextSchema into const subexpressions of E (so code
  /// generation knows their type).
  void adoptConstSchema(Expr &E, const std::vector<uint32_t> &Schema);

  bool isConst(const Expr &E) const {
    return E.Kind == ExprKind::Const0 || E.Kind == ExprKind::Const1;
  }

  int resolveAttr(const std::string &Name, SourceLoc Loc) {
    int Attr = symbols().findAttribute(Name);
    if (Attr < 0)
      Diags.error(Loc, "unknown attribute '" + Name + "'");
    return Attr;
  }

  /// Looks a variable up in the local then global scope; -1 if unknown.
  int lookupVar(const std::string &Name) const {
    auto It = Scope.find(Name);
    if (It != Scope.end())
      return It->second;
    auto GIt = GlobalScope.find(Name);
    return GIt != GlobalScope.end() ? GIt->second : -1;
  }
};

void Checker::collectDeclarations() {
  for (const DomainDecl &D : Result.Ast.Domains) {
    if (symbols().findDomain(D.Name) >= 0) {
      Diags.error(D.Loc, "duplicate domain '" + D.Name + "'");
      continue;
    }
    if (D.Size == 0) {
      Diags.error(D.Loc, "domain '" + D.Name + "' must be nonempty");
      continue;
    }
    symbols().Domains.push_back({D.Name, D.Size});
  }
  for (const AttributeDecl &A : Result.Ast.Attributes) {
    if (symbols().findAttribute(A.Name) >= 0) {
      Diags.error(A.Loc, "duplicate attribute '" + A.Name + "'");
      continue;
    }
    int Dom = symbols().findDomain(A.Domain);
    if (Dom < 0) {
      Diags.error(A.Loc, "attribute '" + A.Name + "' over unknown domain '" +
                             A.Domain + "'");
      continue;
    }
    symbols().Attributes.push_back({A.Name, static_cast<uint32_t>(Dom)});
  }
  for (const PhysDomDecl &P : Result.Ast.PhysDoms) {
    if (symbols().findPhysDom(P.Name) >= 0) {
      Diags.error(P.Loc, "duplicate physical domain '" + P.Name + "'");
      continue;
    }
    symbols().PhysDoms.push_back({P.Name, P.Bits});
  }
}

bool Checker::resolveRelType(
    const RelTypeAst &Type, std::vector<uint32_t> &Attrs,
    std::vector<std::pair<uint32_t, uint32_t>> &Specified) {
  bool Ok = true;
  for (const AttrPhys &AP : Type.Attrs) {
    int Attr = resolveAttr(AP.Attr, AP.Loc);
    if (Attr < 0) {
      Ok = false;
      continue;
    }
    if (std::find(Attrs.begin(), Attrs.end(), Attr) != Attrs.end()) {
      Diags.error(AP.Loc, "duplicate attribute '" + AP.Attr +
                              "' in relation type");
      Ok = false;
      continue;
    }
    Attrs.push_back(static_cast<uint32_t>(Attr));
    if (!AP.Phys.empty()) {
      int Phys = symbols().findPhysDom(AP.Phys);
      if (Phys < 0) {
        Diags.error(AP.Loc, "unknown physical domain '" + AP.Phys + "'");
        Ok = false;
        continue;
      }
      Specified.push_back({static_cast<uint32_t>(Attr),
                           static_cast<uint32_t>(Phys)});
    }
  }
  return Ok;
}

int Checker::declareVar(const RelTypeAst &Type, const std::string &Name,
                        SourceLoc Loc, bool IsParam) {
  CheckedVar Var;
  Var.Name = Name;
  Var.Loc = Loc;
  Var.Function = CurrentFunction;
  Var.IsParam = IsParam;
  resolveRelType(Type, Var.Attrs, Var.SpecifiedPhys);
  Var.DeclOrder = Var.Attrs; // resolveRelType fills in source order...
  std::sort(Var.Attrs.begin(), Var.Attrs.end());

  auto &Table = CurrentFunction < 0 ? GlobalScope : Scope;
  if (Table.count(Name)) {
    Diags.error(Loc, "redeclaration of relation '" + Name + "'");
    return Table[Name];
  }
  Result.Vars.push_back(std::move(Var));
  int Index = static_cast<int>(Result.Vars.size() - 1);
  Table[Name] = Index;
  return Index;
}

void Checker::adoptConstSchema(Expr &E,
                               const std::vector<uint32_t> &Schema) {
  if (isConst(E) && E.Schema.empty())
    E.Schema = Schema;
  // Set operations propagate context into const operands.
  if (E.Kind == ExprKind::Union || E.Kind == ExprKind::Intersect ||
      E.Kind == ExprKind::Difference) {
    if (E.Left)
      adoptConstSchema(*E.Left, Schema);
    if (E.Right)
      adoptConstSchema(*E.Right, Schema);
  }
}

bool Checker::checkExpr(Expr &E) {
  ++Result.NumRelationalExprs;
  switch (E.Kind) {
  case ExprKind::VarRef: {
    int Var = lookupVar(E.Name);
    if (Var < 0) {
      Diags.error(E.Loc, "unknown relation '" + E.Name + "'");
      return false;
    }
    E.VarIndex = Var;
    E.Schema = Result.Vars[Var].Attrs;
    Result.NumExprAttributes += E.Schema.size();
    return true;
  }

  case ExprKind::Const0:
  case ExprKind::Const1:
    // Polymorphic like Java's null (Section 2.1); the context fills the
    // schema in via adoptConstSchema.
    return true;

  case ExprKind::Literal: {
    bool Ok = true;
    for (size_t I = 0; I != E.LitAttrs.size(); ++I) {
      AttrPhys &AP = E.LitAttrs[I];
      int Attr = resolveAttr(AP.Attr, AP.Loc);
      if (Attr < 0) {
        Ok = false;
        continue;
      }
      if (std::find(E.Schema.begin(), E.Schema.end(),
                    static_cast<uint32_t>(Attr)) != E.Schema.end()) {
        Diags.error(AP.Loc,
                    "duplicate attribute '" + AP.Attr + "' in tuple literal");
        Ok = false;
        continue;
      }
      E.Schema.push_back(static_cast<uint32_t>(Attr));
      AP.AttrId = static_cast<uint32_t>(Attr);
      uint64_t DomSize = Result.domainSizeOfAttr(Attr);
      if (E.Values[I] >= DomSize) {
        Diags.error(AP.Loc,
                    strFormat("value %llu does not fit domain '%s' of "
                              "size %llu",
                              static_cast<unsigned long long>(E.Values[I]),
                              symbols()
                                  .Domains[symbols().Attributes[Attr].Domain]
                                  .Name.c_str(),
                              static_cast<unsigned long long>(DomSize)));
        Ok = false;
      }
      if (!AP.Phys.empty()) {
        AP.PhysId = symbols().findPhysDom(AP.Phys);
        if (AP.PhysId < 0) {
          Diags.error(AP.Loc, "unknown physical domain '" + AP.Phys + "'");
          Ok = false;
        }
      }
    }
    std::sort(E.Schema.begin(), E.Schema.end());
    Result.NumExprAttributes += E.Schema.size();
    return Ok;
  }

  case ExprKind::Project:
  case ExprKind::Rename:
  case ExprKind::Copy: {
    if (!checkExpr(*E.Sub))
      return false;
    if (isConst(*E.Sub)) {
      Diags.error(E.Loc, "attribute operations cannot apply to 0B/1B");
      return false;
    }
    int From = resolveAttr(E.From, E.FromLoc);
    if (From < 0)
      return false;
    E.FromId = static_cast<uint32_t>(From);
    const std::vector<uint32_t> &T = E.Sub->Schema;
    if (std::find(T.begin(), T.end(), static_cast<uint32_t>(From)) ==
        T.end()) {
      Diags.error(E.FromLoc, "attribute '" + E.From +
                                 "' is not in the operand's schema " +
                                 schemaToString(symbols(), T));
      return false;
    }
    // Start from T \ {From}.
    for (uint32_t A : T)
      if (A != static_cast<uint32_t>(From))
        E.Schema.push_back(A);

    auto AddTarget = [&](const std::string &Name, uint32_t &Id) -> bool {
      int To = resolveAttr(Name, E.FromLoc);
      if (To < 0)
        return false;
      Id = static_cast<uint32_t>(To);
      if (std::find(E.Schema.begin(), E.Schema.end(),
                    static_cast<uint32_t>(To)) != E.Schema.end()) {
        Diags.error(E.FromLoc, "attribute '" + Name +
                                   "' already occurs in the result schema");
        return false;
      }
      if (symbols().Attributes[To].Domain !=
          symbols().Attributes[From].Domain) {
        Diags.error(E.FromLoc,
                    "attributes '" + E.From + "' and '" + Name +
                        "' draw from different domains");
        return false;
      }
      E.Schema.push_back(static_cast<uint32_t>(To));
      return true;
    };

    bool Ok = true;
    if (E.Kind == ExprKind::Rename) {
      Ok = AddTarget(E.To, E.ToId);
    } else if (E.Kind == ExprKind::Copy) {
      if (E.To == E.CopyTo) {
        Diags.error(E.FromLoc,
                    "copy targets must be distinct attributes");
        Ok = false;
      } else {
        Ok = AddTarget(E.To, E.ToId) && AddTarget(E.CopyTo, E.CopyToId);
      }
    }
    std::sort(E.Schema.begin(), E.Schema.end());
    Result.NumExprAttributes += E.Schema.size();
    return Ok;
  }

  case ExprKind::Union:
  case ExprKind::Intersect:
  case ExprKind::Difference: {
    bool OkL = checkExpr(*E.Left);
    bool OkR = checkExpr(*E.Right);
    if (!OkL || !OkR)
      return false;
    if (isConst(*E.Left) && isConst(*E.Right)) {
      Diags.error(E.Loc,
                  "cannot infer a schema for a set operation on constants");
      return false;
    }
    if (isConst(*E.Left)) {
      E.Schema = E.Right->Schema;
      adoptConstSchema(*E.Left, E.Schema);
    } else if (isConst(*E.Right)) {
      E.Schema = E.Left->Schema;
      adoptConstSchema(*E.Right, E.Schema);
    } else {
      if (E.Left->Schema != E.Right->Schema) {
        Diags.error(E.Loc,
                    "set operation on different schemas: " +
                        schemaToString(symbols(), E.Left->Schema) + " vs " +
                        schemaToString(symbols(), E.Right->Schema));
        return false;
      }
      E.Schema = E.Left->Schema;
    }
    Result.NumExprAttributes += E.Schema.size();
    return true;
  }

  case ExprKind::Join:
  case ExprKind::Compose: {
    bool OkL = checkExpr(*E.Left);
    bool OkR = checkExpr(*E.Right);
    if (!OkL || !OkR)
      return false;
    if (isConst(*E.Left) || isConst(*E.Right)) {
      Diags.error(E.Loc, "0B/1B cannot be joined or composed");
      return false;
    }
    if (E.LeftAttrs.size() != E.RightAttrs.size()) {
      Diags.error(E.Loc, "compared attribute lists differ in length");
      return false;
    }
    bool Ok = true;
    std::vector<uint32_t> &L = E.LeftIds, &R = E.RightIds;
    for (size_t I = 0; I != E.LeftAttrs.size(); ++I) {
      int A = resolveAttr(E.LeftAttrs[I], E.Loc);
      int B = resolveAttr(E.RightAttrs[I], E.Loc);
      if (A < 0 || B < 0) {
        Ok = false;
        continue;
      }
      auto CheckIn = [&](int Attr, const std::vector<uint32_t> &Schema,
                         const char *Side) {
        if (std::find(Schema.begin(), Schema.end(),
                      static_cast<uint32_t>(Attr)) == Schema.end()) {
          Diags.error(E.Loc, strFormat("compared attribute '%s' is not in "
                                       "the %s operand's schema",
                                       symbols().Attributes[Attr].Name.c_str(),
                                       Side));
          return false;
        }
        return true;
      };
      Ok &= CheckIn(A, E.Left->Schema, "left");
      Ok &= CheckIn(B, E.Right->Schema, "right");
      if (std::find(L.begin(), L.end(), static_cast<uint32_t>(A)) != L.end() ||
          std::find(R.begin(), R.end(), static_cast<uint32_t>(B)) != R.end()) {
        Diags.error(E.Loc, "attribute compared more than once");
        Ok = false;
      }
      if (symbols().Attributes[A].Domain != symbols().Attributes[B].Domain) {
        Diags.error(E.Loc, "compared attributes '" + E.LeftAttrs[I] +
                               "' and '" + E.RightAttrs[I] +
                               "' draw from different domains");
        Ok = false;
      }
      L.push_back(static_cast<uint32_t>(A));
      R.push_back(static_cast<uint32_t>(B));
    }
    if (!Ok)
      return false;

    // Result schema per Figure 6.
    std::vector<uint32_t> LeftPart, RightPart;
    if (E.Kind == ExprKind::Join) {
      LeftPart = E.Left->Schema; // T, including compared attrs.
    } else {
      for (uint32_t A : E.Left->Schema)
        if (std::find(L.begin(), L.end(), A) == L.end())
          LeftPart.push_back(A); // T' = T \ {a_i}.
    }
    for (uint32_t B : E.Right->Schema)
      if (std::find(R.begin(), R.end(), B) == R.end())
        RightPart.push_back(B); // U' = U \ {b_i}.
    for (uint32_t B : RightPart)
      if (std::find(LeftPart.begin(), LeftPart.end(), B) != LeftPart.end()) {
        Diags.error(E.Loc, "result would contain attribute '" +
                               symbols().Attributes[B].Name + "' twice");
        return false;
      }
    E.Schema = LeftPart;
    E.Schema.insert(E.Schema.end(), RightPart.begin(), RightPart.end());
    std::sort(E.Schema.begin(), E.Schema.end());
    Result.NumExprAttributes += E.Schema.size();
    return true;
  }
  }
  return false;
}

void Checker::checkStmt(Stmt &S) {
  switch (S.Kind) {
  case StmtKind::Decl: {
    // The local is in scope from here on, its own initializer included.
    S.VarIndex = declareVar(S.DeclType, S.Name, S.Loc, /*IsParam=*/false);
    if (S.Init && checkExpr(*S.Init)) {
      const CheckedVar &V = Result.Vars[S.VarIndex];
      if (isConst(*S.Init)) {
        adoptConstSchema(*S.Init, V.Attrs);
      } else if (S.Init->Schema != V.Attrs) {
        Diags.error(S.Loc,
                    "initializer schema " +
                        schemaToString(symbols(), S.Init->Schema) +
                        " does not match declared type " +
                        schemaToString(symbols(), V.Attrs));
      }
    }
    return;
  }
  case StmtKind::Assign: {
    S.VarIndex = lookupVar(S.Name);
    if (S.VarIndex < 0) {
      Diags.error(S.Loc, "unknown relation '" + S.Name + "'");
      if (S.Rhs)
        checkExpr(*S.Rhs);
      return;
    }
    if (S.Rhs && checkExpr(*S.Rhs)) {
      const CheckedVar &V = Result.Vars[S.VarIndex];
      if (isConst(*S.Rhs)) {
        adoptConstSchema(*S.Rhs, V.Attrs);
      } else if (S.Rhs->Schema != V.Attrs) {
        Diags.error(S.Loc, "assigned schema " +
                               schemaToString(symbols(), S.Rhs->Schema) +
                               " does not match '" + S.Name + "' of type " +
                               schemaToString(symbols(), V.Attrs));
      }
    }
    return;
  }
  case StmtKind::DoWhile:
  case StmtKind::While:
  case StmtKind::If: {
    // Condition operands; 0B/1B adopt the other side's schema.
    bool OkL = S.CondLeft && checkExpr(*S.CondLeft);
    bool OkR = S.CondRight && checkExpr(*S.CondRight);
    if (OkL && OkR) {
      if (isConst(*S.CondLeft) && isConst(*S.CondRight)) {
        Diags.error(S.Loc, "cannot compare two relation constants");
      } else if (isConst(*S.CondLeft)) {
        adoptConstSchema(*S.CondLeft, S.CondRight->Schema);
      } else if (isConst(*S.CondRight)) {
        adoptConstSchema(*S.CondRight, S.CondLeft->Schema);
      } else if (S.CondLeft->Schema != S.CondRight->Schema) {
        Diags.error(S.Loc,
                    "comparison of different schemas: " +
                        schemaToString(symbols(), S.CondLeft->Schema) +
                        " vs " +
                        schemaToString(symbols(), S.CondRight->Schema));
      }
    }
    checkBlock(S.Body);
    if (S.Kind == StmtKind::If)
      checkBlock(S.ElseBody);
    return;
  }
  }
}

void Checker::checkBlock(Block &B) {
  for (StmtPtr &S : B.Stmts)
    checkStmt(*S);
}

void Checker::checkFunction(FunctionDecl &F, int FunctionIndex) {
  CurrentFunction = FunctionIndex;
  Scope.clear();
  for (Param &P : F.Params)
    P.VarIndex = declareVar(P.Type, P.Name, P.Loc, /*IsParam=*/true);
  checkBlock(F.Body);
  CurrentFunction = -1;
}

CheckedProgram Checker::run() {
  collectDeclarations();
  for (GlobalDecl &G : Result.Ast.Globals) {
    CurrentFunction = -1;
    declareVar(G.Type, G.Name, G.Loc, /*IsParam=*/false);
  }
  for (size_t I = 0; I != Result.Ast.Functions.size(); ++I) {
    // Duplicate function names confuse the driver; reject them.
    for (size_t K = 0; K != I; ++K)
      if (Result.Ast.Functions[K].Name == Result.Ast.Functions[I].Name)
        Diags.error(Result.Ast.Functions[I].Loc,
                    "duplicate function '" + Result.Ast.Functions[I].Name +
                        "'");
    checkFunction(Result.Ast.Functions[I], static_cast<int>(I));
  }
  return std::move(Result);
}

} // namespace

CheckedProgram jedd::lang::typeCheck(Program Ast, DiagnosticEngine &Diags) {
  Checker C(std::move(Ast), Diags);
  return C.run();
}
