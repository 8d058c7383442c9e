//===- Assign.cpp - Physical domain assignment via SAT --------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "jedd/Assign.h"
#include "sat/CoreTools.h"
#include "sat/Solver.h"
#include "util/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <functional>

using namespace jedd;
using namespace jedd::lang;

DomainAssigner::DomainAssigner(CheckedProgram &Prog, DiagnosticEngine &Diags)
    : Prog(Prog), Diags(Diags) {}

//===----------------------------------------------------------------------===//
// Constraint graph construction
//===----------------------------------------------------------------------===//

int DomainAssigner::newNode(std::string Desc, SourceLoc Loc,
                            std::vector<uint32_t> Attrs) {
  std::sort(Attrs.begin(), Attrs.end());
  Node N;
  N.Desc = std::move(Desc);
  N.Loc = Loc;
  N.Attrs = std::move(Attrs);
  N.FirstANode = NumANodes;
  NumANodes += N.Attrs.size();
  Nodes.push_back(std::move(N));
  return static_cast<int>(Nodes.size() - 1);
}

size_t DomainAssigner::aNode(int NodeId, uint32_t Attr) const {
  const Node &N = Nodes[NodeId];
  auto It = std::lower_bound(N.Attrs.begin(), N.Attrs.end(), Attr);
  assert(It != N.Attrs.end() && *It == Attr &&
         "attribute not part of the node");
  return N.FirstANode + static_cast<size_t>(It - N.Attrs.begin());
}

const DomainAssigner::Node &
DomainAssigner::nodeOfANode(size_t ANode) const {
  // Nodes are created with increasing FirstANode; binary search.
  size_t Lo = 0, Hi = Nodes.size();
  while (Lo + 1 < Hi) {
    size_t Mid = (Lo + Hi) / 2;
    if (Nodes[Mid].FirstANode <= ANode)
      Lo = Mid;
    else
      Hi = Mid;
  }
  return Nodes[Lo];
}

uint32_t DomainAssigner::attrOfANode(size_t ANode) const {
  const Node &N = nodeOfANode(ANode);
  return N.Attrs[ANode - N.FirstANode];
}

std::string DomainAssigner::aNodeDesc(size_t ANode) const {
  const Node &N = nodeOfANode(ANode);
  return N.Desc + ":" +
         Prog.Symbols.Attributes[N.Attrs[ANode - N.FirstANode]].Name +
         " at " + formatLoc(Diags.fileName(), N.Loc);
}

int DomainAssigner::wrapOperand(Expr &Operand, SourceLoc Loc, Stmt *Rhs) {
  if (Operand.NodeId < 0)
    return -1; // 0B/1B operands impose no constraints.
  int W = newNode("Replace_expression", Loc, Operand.Schema);
  for (uint32_t A : Operand.Schema)
    addAssignment(aNode(W, A), aNode(Operand.NodeId, A));
  Wrappers.push_back({W, &Operand, Rhs});
  return W;
}

static const char *exprDesc(ExprKind Kind) {
  switch (Kind) {
  case ExprKind::VarRef:
    return "Variable"; // Not used; VarRef shares the variable's node.
  case ExprKind::Const0:
  case ExprKind::Const1:
    return "Constant";
  case ExprKind::Literal:
    return "Literal_expression";
  case ExprKind::Project:
    return "Project_expression";
  case ExprKind::Rename:
    return "Rename_expression";
  case ExprKind::Copy:
    return "Copy_expression";
  case ExprKind::Union:
    return "Union_expression";
  case ExprKind::Intersect:
    return "Intersect_expression";
  case ExprKind::Difference:
    return "Difference_expression";
  case ExprKind::Join:
    return "Join_expression";
  case ExprKind::Compose:
    return "Compose_expression";
  }
  return "expression";
}

int DomainAssigner::buildExpr(Expr &E) {
  Exprs.push_back(&E);
  switch (E.Kind) {
  case ExprKind::VarRef:
    // Figure 7: variable operands are the variable's own node.
    E.NodeId = Prog.Vars[E.VarIndex].NodeId;
    return E.NodeId;

  case ExprKind::Const0:
  case ExprKind::Const1:
    E.NodeId = -1;
    return -1;

  case ExprKind::Literal: {
    E.NodeId = newNode(exprDesc(E.Kind), E.Loc, E.Schema);
    for (const AttrPhys &AP : E.LitAttrs)
      if (AP.PhysId >= 0)
        Specified.push_back({aNode(E.NodeId, AP.AttrId),
                             static_cast<uint32_t>(AP.PhysId)});
    return E.NodeId;
  }

  case ExprKind::Project:
  case ExprKind::Rename:
  case ExprKind::Copy: {
    buildExpr(*E.Sub);
    E.NodeId = newNode(exprDesc(E.Kind), E.Loc, E.Schema);
    int W = wrapOperand(*E.Sub, E.Loc);
    if (W < 0)
      return E.NodeId;
    if (E.Kind == ExprKind::Project) {
      for (uint32_t A : E.Schema)
        addEquality(aNode(E.NodeId, A), aNode(W, A));
      // W's projected attribute is tied only to the child; it still gets
      // a physical domain through the child's flow paths.
    } else {
      // Rename and Copy: (From => To) and (From => To CopyTo). A copy's
      // CopyTo is a fresh attribute, constrained only by the conflict
      // edges within this node.
      for (uint32_t A : E.Sub->Schema)
        if (A != E.FromId)
          addEquality(aNode(E.NodeId, A), aNode(W, A));
      addEquality(aNode(E.NodeId, E.ToId), aNode(W, E.FromId));
    }
    return E.NodeId;
  }

  case ExprKind::Union:
  case ExprKind::Intersect:
  case ExprKind::Difference: {
    buildExpr(*E.Left);
    buildExpr(*E.Right);
    E.NodeId = newNode(exprDesc(E.Kind), E.Loc, E.Schema);
    int WL = wrapOperand(*E.Left, E.Left->Loc);
    int WR = wrapOperand(*E.Right, E.Right->Loc);
    for (uint32_t A : E.Schema) {
      if (WL >= 0)
        addEquality(aNode(E.NodeId, A), aNode(WL, A));
      if (WR >= 0)
        addEquality(aNode(E.NodeId, A), aNode(WR, A));
    }
    return E.NodeId;
  }

  case ExprKind::Join:
  case ExprKind::Compose: {
    buildExpr(*E.Left);
    buildExpr(*E.Right);
    E.NodeId = newNode(exprDesc(E.Kind), E.Loc, E.Schema);
    int WL = wrapOperand(*E.Left, E.Left->Loc);
    int WR = wrapOperand(*E.Right, E.Right->Loc);
    assert(WL >= 0 && WR >= 0 && "join/compose operands cannot be 0B/1B");

    auto IsCompared = [](const std::vector<uint32_t> &List, uint32_t A) {
      return std::find(List.begin(), List.end(), A) != List.end();
    };

    if (E.Kind == ExprKind::Join) {
      // Result keeps all of T (in left physical domains) plus U \ R.
      for (uint32_t T : E.Left->Schema)
        addEquality(aNode(E.NodeId, T), aNode(WL, T));
      for (uint32_t U : E.Right->Schema)
        if (!IsCompared(E.RightIds, U))
          addEquality(aNode(E.NodeId, U), aNode(WR, U));
      for (size_t I = 0; I != E.LeftIds.size(); ++I)
        addEquality(aNode(E.NodeId, E.LeftIds[I]), aNode(WR, E.RightIds[I]));
    } else {
      // Compose: compared attributes meet on the operand wrappers and
      // are projected away by the relational product.
      for (uint32_t T : E.Left->Schema)
        if (!IsCompared(E.LeftIds, T))
          addEquality(aNode(E.NodeId, T), aNode(WL, T));
      for (uint32_t U : E.Right->Schema)
        if (!IsCompared(E.RightIds, U))
          addEquality(aNode(E.NodeId, U), aNode(WR, U));
      for (size_t I = 0; I != E.LeftIds.size(); ++I)
        addEquality(aNode(WL, E.LeftIds[I]), aNode(WR, E.RightIds[I]));
    }
    return E.NodeId;
  }
  }
  return -1;
}

void DomainAssigner::connectAssignment(Stmt &S, Expr &Rhs) {
  buildExpr(Rhs);
  int W = wrapOperand(Rhs, S.Loc, &S);
  if (W < 0)
    return; // x = 0B imposes nothing.
  const CheckedVar &V = Prog.Vars[S.VarIndex];
  for (uint32_t A : V.Attrs)
    addEquality(aNode(V.NodeId, A), aNode(W, A));
}

void DomainAssigner::buildCondition(Stmt &S) {
  Expr *L = S.CondLeft.get(), *R = S.CondRight.get();
  if (!L || !R)
    return;
  int LN = buildExpr(*L);
  int RN = buildExpr(*R);
  if (LN < 0 || RN < 0)
    return; // Comparison against 0B/1B constrains nothing.
  int P = newNode("Compare_expression", S.Loc, L->Schema);
  int WL = wrapOperand(*L, L->Loc);
  int WR = wrapOperand(*R, R->Loc);
  for (uint32_t A : L->Schema) {
    addEquality(aNode(P, A), aNode(WL, A));
    addEquality(aNode(P, A), aNode(WR, A));
  }
}

void DomainAssigner::buildStmt(Stmt &S) {
  switch (S.Kind) {
  case StmtKind::Decl:
    // The variable's node was created up front; hook up the initializer.
    if (S.Init)
      connectAssignment(S, *S.Init);
    return;
  case StmtKind::Assign:
    connectAssignment(S, *S.Rhs);
    return;
  case StmtKind::DoWhile:
  case StmtKind::While:
    buildCondition(S);
    buildBlock(S.Body);
    return;
  case StmtKind::If:
    buildCondition(S);
    buildBlock(S.Body);
    buildBlock(S.ElseBody);
    return;
  }
}

void DomainAssigner::buildBlock(Block &B) {
  for (StmtPtr &S : B.Stmts)
    buildStmt(*S);
}

void DomainAssigner::buildGraph() {
  // One node per relation variable, with its pinned physical domains.
  for (CheckedVar &V : Prog.Vars) {
    V.NodeId = newNode("Relation_" + V.Name, V.Loc, V.Attrs);
    for (auto &[Attr, Phys] : V.SpecifiedPhys)
      Specified.push_back({aNode(V.NodeId, Attr), Phys});
  }
  for (FunctionDecl &F : Prog.Ast.Functions)
    buildBlock(F.Body);
}

//===----------------------------------------------------------------------===//
// Flow path enumeration
//===----------------------------------------------------------------------===//

bool DomainAssigner::enumerateFlowPaths(
    size_t MaxPathsPerANode,
    std::vector<std::vector<std::vector<size_t>>> &Paths, bool &Truncated) {
  Truncated = false;
  Paths.assign(NumANodes, {});

  // Adjacency over equality + assignment edges.
  std::vector<std::vector<size_t>> Adj(NumANodes);
  for (const Edge &E : EqualityEdges) {
    Adj[E.A].push_back(E.B);
    Adj[E.B].push_back(E.A);
  }
  for (const Edge &E : AssignmentEdges) {
    Adj[E.A].push_back(E.B);
    Adj[E.B].push_back(E.A);
  }

  // Multi-source BFS from the specified attributes: used both for the
  // reachability error and to order the path search so short flow paths
  // are found first.
  constexpr size_t Unreached = static_cast<size_t>(-1);
  std::vector<size_t> Dist(NumANodes, Unreached);
  std::vector<size_t> Queue;
  std::vector<uint8_t> IsSpecified(NumANodes, 0);
  for (auto &[ANode, Phys] : Specified) {
    (void)Phys;
    if (Dist[ANode] != 0) {
      Dist[ANode] = 0;
      Queue.push_back(ANode);
    }
    IsSpecified[ANode] = 1;
  }
  for (size_t Head = 0; Head != Queue.size(); ++Head) {
    size_t Cur = Queue[Head];
    for (size_t Next : Adj[Cur])
      if (Dist[Next] == Unreached) {
        Dist[Next] = Dist[Cur] + 1;
        Queue.push_back(Next);
      }
  }

  // Check reachability — the error the paper detects while building
  // clause 6.
  for (size_t A = 0; A != NumANodes; ++A) {
    if (Dist[A] != Unreached)
      continue;
    Diags.error(nodeOfANode(A).Loc,
                "no physical domain can be assigned to " + aNodeDesc(A) +
                    ": it is not connected to any attribute with a "
                    "specified physical domain (add an explicit "
                    "':PHYSDOM' annotation)");
    return false;
  }

  // Prefer neighbours closer to a specified attribute so the DFS yields
  // short paths first.
  for (size_t A = 0; A != NumANodes; ++A)
    std::sort(Adj[A].begin(), Adj[A].end(), [&](size_t X, size_t Y) {
      if (Dist[X] != Dist[Y])
        return Dist[X] < Dist[Y];
      return X < Y;
    });

  // Flow paths per the paper: simple paths whose only specified
  // attribute is the first one, following equality and assignment edges.
  // (Subset-minimality prunes redundant paths in the paper; here the
  // per-attribute cap plays that role, escalated by run() when a capped
  // problem comes back unsatisfiable.) Paths longer than the BFS
  // distance plus a slack proportional to the cap are cut off to bound
  // the search.
  size_t TotalPaths = 0;
  const size_t Slack = MaxPathsPerANode * 4;
  for (size_t A = 0; A != NumANodes; ++A) {
    if (IsSpecified[A])
      continue; // Clause 3 pins it; no flow path needed.
    std::vector<std::vector<size_t>> &Out = Paths[A];
    std::vector<size_t> Current;
    std::vector<uint8_t> OnPath(NumANodes, 0);
    size_t MaxLen = Dist[A] + Slack;
    // DFS backwards from A; a path completes at a specified attribute.
    std::function<void(size_t)> Walk = [&](size_t Cur) {
      if (Out.size() >= MaxPathsPerANode) {
        Truncated = true;
        return;
      }
      Current.push_back(Cur);
      OnPath[Cur] = 1;
      if (IsSpecified[Cur]) {
        // Reverse so the path starts at the specified attribute.
        Out.emplace_back(Current.rbegin(), Current.rend());
      } else if (Current.size() <= MaxLen) {
        for (size_t Next : Adj[Cur])
          if (!OnPath[Next])
            Walk(Next);
      } else {
        Truncated = true; // Length cut-off; longer paths may exist.
      }
      OnPath[Cur] = 0;
      Current.pop_back();
    };
    Walk(A);
    if (Out.empty()) {
      // All simple paths were cut off by the caps; force a retry.
      Truncated = true;
      // Fall back to one BFS-shortest path so the encoding stays sound.
      std::vector<size_t> Path;
      size_t Cur = A;
      Path.push_back(Cur);
      while (Dist[Cur] != 0) {
        for (size_t Next : Adj[Cur])
          if (Dist[Next] + 1 == Dist[Cur]) {
            Cur = Next;
            break;
          }
        Path.push_back(Cur);
      }
      std::reverse(Path.begin(), Path.end());
      Out.push_back(std::move(Path));
    }
    TotalPaths += Out.size();
  }
  Stats.FlowPaths = TotalPaths;
  return true;
}

//===----------------------------------------------------------------------===//
// CNF encoding — the seven clause forms of Section 3.3.2
//===----------------------------------------------------------------------===//

void DomainAssigner::encode(
    const std::vector<std::vector<std::vector<size_t>>> &Paths) {
  Formula = sat::CnfFormula();
  const size_t P = Prog.Symbols.PhysDoms.size();

  // Attribute-physical-domain variables x_{e_a : p}.
  auto XVar = [&](size_t ANode, uint32_t Phys) {
    return static_cast<sat::Var>(ANode * P + Phys);
  };
  Formula.NumVars = static_cast<unsigned>(NumANodes * P);

  // 1. Each attribute is assigned to some physical domain.
  std::vector<sat::Lit> Lits;
  for (size_t A = 0; A != NumANodes; ++A) {
    Lits.clear();
    for (uint32_t Phys = 0; Phys != P; ++Phys)
      Lits.push_back(sat::mkLit(XVar(A, Phys)));
    Formula.addClause(Lits);
  }

  // 2. No attribute is assigned to multiple physical domains.
  for (size_t A = 0; A != NumANodes; ++A)
    for (uint32_t P1 = 0; P1 != P; ++P1)
      for (uint32_t P2 = P1 + 1; P2 != P; ++P2)
        Formula.addClause({sat::mkLit(XVar(A, P1), true),
                           sat::mkLit(XVar(A, P2), true)});

  // 3. Explicitly specified assignments.
  for (auto &[ANode, Phys] : Specified)
    Formula.addClause({sat::mkLit(XVar(ANode, Phys))});

  // 4. Conflict edges: attributes of one expression get distinct
  //    physical domains. reportUnsatCore decodes these clauses.
  ConflictClausesBegin = Formula.numClauses();
  for (const Node &N : Nodes)
    for (size_t I = 0; I != N.Attrs.size(); ++I)
      for (size_t K = I + 1; K != N.Attrs.size(); ++K)
        for (uint32_t Phys = 0; Phys != P; ++Phys)
          Formula.addClause({sat::mkLit(XVar(N.FirstANode + I, Phys), true),
                             sat::mkLit(XVar(N.FirstANode + K, Phys), true)});
  ConflictClausesEnd = Formula.numClauses();

  // 5. Equality edges force equal physical domains.
  for (const Edge &E : EqualityEdges)
    for (uint32_t Phys = 0; Phys != P; ++Phys) {
      Formula.addClause({sat::mkLit(XVar(E.A, Phys), true),
                         sat::mkLit(XVar(E.B, Phys))});
      Formula.addClause({sat::mkLit(XVar(E.A, Phys)),
                         sat::mkLit(XVar(E.B, Phys), true)});
    }

  // Specified physical domain per ANode (for path heads).
  std::vector<int> SpecifiedPhysOf(NumANodes, -1);
  for (auto &[ANode, Phys] : Specified)
    SpecifiedPhysOf[ANode] = static_cast<int>(Phys);

  // 6 & 7. Flow path variables.
  for (size_t A = 0; A != NumANodes; ++A) {
    if (Paths[A].empty())
      continue;
    Lits.clear(); // The path variables, for clause 6.
    for (const std::vector<size_t> &Path : Paths[A]) {
      sat::Var PathVar = Formula.newVar();
      Lits.push_back(sat::mkLit(PathVar));
      int P0 = SpecifiedPhysOf[Path.front()];
      assert(P0 >= 0 && "flow path must start at a specified attribute");
      // 7. Active path assigns its physical domain along the way.
      for (size_t OnPath : Path)
        Formula.addClause(
            {sat::mkLit(PathVar, true),
             sat::mkLit(XVar(OnPath, static_cast<uint32_t>(P0)))});
    }
    // 6. At least one flow path to each attribute is active.
    Formula.addClause(Lits);
  }

  Stats.SatVariables = Formula.NumVars;
  Stats.SatClauses = Formula.numClauses();
  Stats.SatLiterals = Formula.numLiterals();
}

//===----------------------------------------------------------------------===//
// Solving, decoding, error reporting
//===----------------------------------------------------------------------===//

void DomainAssigner::reportUnsatCore(const std::vector<uint32_t> &Core) {
  // Minimize when cheap; the paper found zchaff's cores already minimal,
  // ours occasionally keep a few extra clauses.
  std::vector<uint32_t> Minimal = Core;
  if (Core.size() <= 200)
    Minimal = sat::minimizeCore(Formula, Core);

  // Proposition (Section 3.3.3): every unsatisfiable core contains at
  // least one conflict clause; report the first. Conflict clause
  // (~x_{A:p} | ~x_{B:p}) names its attributes and physical domain in
  // its variables, x_{e:p} = e * P + p.
  const size_t P = Prog.Symbols.PhysDoms.size();
  for (uint32_t Id : Minimal) {
    if (Id < ConflictClausesBegin || Id >= ConflictClausesEnd)
      continue;
    std::span<const sat::Lit> C = Formula.clause(Id);
    size_t A = sat::varOf(C[0]) / P, B = sat::varOf(C[1]) / P;
    size_t Phys = sat::varOf(C[0]) % P;
    Diags.error(nodeOfANode(A).Loc,
                "Conflict between " + aNodeDesc(A) + " and " + aNodeDesc(B) +
                    " over physical domain " +
                    Prog.Symbols.PhysDoms[Phys].Name);
    return;
  }
  Diags.error(SourceLoc(),
              "no valid physical domain assignment exists (unsatisfiable "
              "constraint system without a conflict clause in the core)");
}

bool DomainAssigner::solveAndDecode(bool Final) {
  sat::Solver Solver;
  Solver.addFormula(Formula);

  auto Start = std::chrono::steady_clock::now();
  sat::Result R = Solver.solve();
  auto End = std::chrono::steady_clock::now();
  Stats.SolveSeconds +=
      std::chrono::duration<double>(End - Start).count();

  Stats.Satisfiable = R == sat::Result::Sat;
  if (!Stats.Satisfiable) {
    if (Final)
      reportUnsatCore(Solver.unsatCore());
    return false;
  }

  const size_t P = Prog.Symbols.PhysDoms.size();
  std::vector<uint32_t> Assignment(NumANodes, 0);
  for (size_t A = 0; A != NumANodes; ++A)
    for (uint32_t Phys = 0; Phys != P; ++Phys)
      if (Solver.modelValue(static_cast<sat::Var>(A * P + Phys))) {
        Assignment[A] = Phys;
        break;
      }
  recordSolution(Assignment);
  return true;
}

void DomainAssigner::recordSolution(
    const std::vector<uint32_t> &Assignment) {
  auto Solved = [&](int NodeId, const std::vector<uint32_t> &Attrs) {
    std::vector<rel::AttrBinding> Bindings;
    Bindings.reserve(Attrs.size());
    for (uint32_t A : Attrs)
      Bindings.push_back({A, Assignment[aNode(NodeId, A)]});
    return Bindings;
  };

  // Variables in declaration order, so tuple values read like the
  // source's <a, b, c>; a literal in piece order, so its values line up.
  for (CheckedVar &V : Prog.Vars)
    V.Bindings = Solved(V.NodeId, V.DeclOrder);
  std::vector<uint32_t> Pieces;
  for (Expr *E : Exprs) {
    if (E->NodeId < 0)
      continue;
    if (E->Kind != ExprKind::Literal) {
      E->Bindings = Solved(E->NodeId, E->Schema);
      continue;
    }
    Pieces.clear();
    for (const AttrPhys &AP : E->LitAttrs)
      Pieces.push_back(AP.AttrId);
    E->Bindings = Solved(E->NodeId, Pieces);
  }

  // Replace operations that survive: a wrapper survives when one of its
  // assignment edges joins two different physical domains, and each
  // such edge counts once.
  Stats.ReplacesNeeded = 0;
  for (const Wrapper &W : Wrappers) {
    Expr &Operand = *W.Operand;
    bool Survives = false;
    for (uint32_t A : Operand.Schema)
      if (Assignment[aNode(W.Node, A)] !=
          Assignment[aNode(Operand.NodeId, A)]) {
        ++Stats.ReplacesNeeded;
        Survives = true;
      }
    if (W.Rhs) {
      W.Rhs->ReplaceRhs = Survives;
    } else {
      Operand.Target = Solved(W.Node, Operand.Schema);
      Operand.Replace = Survives;
    }
  }
}

bool DomainAssigner::run() {
  buildGraph();

  Stats.NumRelationalExprs = Prog.NumRelationalExprs;
  Stats.NumExprAttributes = Prog.NumExprAttributes;
  Stats.NumPhysDoms = Prog.Symbols.PhysDoms.size();
  Stats.NumEqualityEdges = EqualityEdges.size();
  Stats.NumAssignmentEdges = AssignmentEdges.size();
  Stats.NumConflictEdges = 0;
  for (const Node &N : Nodes)
    Stats.NumConflictEdges += N.Attrs.size() * (N.Attrs.size() - 1) / 2;

  if (Prog.Symbols.PhysDoms.empty()) {
    Diags.error(SourceLoc(), "no physical domains are declared");
    return false;
  }

  for (size_t MaxPaths = 8;; MaxPaths *= 4) {
    std::vector<std::vector<std::vector<size_t>>> Paths;
    bool Truncated = false;
    if (!enumerateFlowPaths(MaxPaths, Paths, Truncated))
      return false;
    encode(Paths);
    // A capped flow-path set can make the formula spuriously
    // unsatisfiable; retry with more paths, up to the largest cap (128),
    // whose answer is final.
    bool Final = !Truncated || MaxPaths == 128;
    if (solveAndDecode(Final) || Final)
      return Stats.Satisfiable;
  }
}
