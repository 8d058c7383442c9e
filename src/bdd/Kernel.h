//===- Kernel.h - The BDD recursions ----------------------------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five recursions every relational operation lowers to (Section
/// 3.2.2): not, the binary apply operators, ite, exists and the and-exists
/// relational product. Each works on raw NodeRefs over the manager's node
/// pool, memoizes in Manager::Cache and allocates through
/// Manager::makeNode, which throws ResourceExhausted when a governor limit
/// trips (the public entry point then recovers the manager).
///
/// Private to src/bdd.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_BDD_KERNEL_H
#define JEDDPP_BDD_KERNEL_H

#include "bdd/Bdd.h"

#include <algorithm>

namespace jedd {
namespace bdd {

/// The recursions, as static functions over the manager. A friend of
/// Manager, for its node pool and cache tags. A node's Var is its level,
/// and the terminals' sentinel Var sorts below every variable, so the
/// recursions compare Vars directly.
class Kernel {
public:
  static NodeRef notRec(Manager &M, NodeRef F) {
    if (F == FalseRef)
      return TrueRef;
    if (F == TrueRef)
      return FalseRef;
    NodeRef Result;
    if (M.Cache.lookup(Manager::TagNot, F, 0, 0, Result))
      return Result;
    const Manager::Node &Nd = M.Nodes[F];
    NodeRef Low = notRec(M, Nd.Low);
    NodeRef High = notRec(M, Nd.High);
    return memo(M, Manager::TagNot, F, 0, 0, M.makeNode(Nd.Var, Low, High));
  }

  static NodeRef applyRec(Manager &M, Op Operator, NodeRef F, NodeRef G) {
    // Terminal rules per operator.
    switch (Operator) {
    case Op::And:
      if (F == FalseRef || G == FalseRef)
        return FalseRef;
      if (F == TrueRef)
        return G;
      if (G == TrueRef || F == G)
        return F;
      break;
    case Op::Or:
      if (F == TrueRef || G == TrueRef)
        return TrueRef;
      if (F == FalseRef)
        return G;
      if (G == FalseRef || F == G)
        return F;
      break;
    case Op::Xor:
      if (F == G)
        return FalseRef;
      if (F == FalseRef)
        return G;
      if (G == FalseRef)
        return F;
      if (F == TrueRef)
        return notRec(M, G);
      if (G == TrueRef)
        return notRec(M, F);
      break;
    case Op::Diff:
      if (F == FalseRef || G == TrueRef || F == G)
        return FalseRef;
      if (G == FalseRef)
        return F;
      if (F == TrueRef)
        return notRec(M, G);
      break;
    case Op::Imp:
      if (F == FalseRef || G == TrueRef || F == G)
        return TrueRef;
      if (F == TrueRef)
        return G;
      if (G == FalseRef)
        return notRec(M, F);
      break;
    case Op::Biimp:
      if (F == G)
        return TrueRef;
      if (F == TrueRef)
        return G;
      if (G == TrueRef)
        return F;
      if (F == FalseRef)
        return notRec(M, G);
      if (G == FalseRef)
        return notRec(M, F);
      break;
    }

    // Normalize commutative operators for better cache reuse.
    NodeRef A = F, B = G;
    if ((Operator == Op::And || Operator == Op::Or || Operator == Op::Xor ||
         Operator == Op::Biimp) &&
        A > B)
      std::swap(A, B);

    uint32_t Tag = static_cast<uint32_t>(Operator);
    NodeRef Result;
    if (M.Cache.lookup(Tag, A, B, 0, Result))
      return Result;

    uint32_t VarF = M.varOf(F), VarG = M.varOf(G);
    uint32_t Var = std::min(VarF, VarG);
    NodeRef F0 = VarF == Var ? M.Nodes[F].Low : F;
    NodeRef F1 = VarF == Var ? M.Nodes[F].High : F;
    NodeRef G0 = VarG == Var ? M.Nodes[G].Low : G;
    NodeRef G1 = VarG == Var ? M.Nodes[G].High : G;

    NodeRef Low = applyRec(M, Operator, F0, G0);
    NodeRef High = applyRec(M, Operator, F1, G1);
    return memo(M, Tag, A, B, 0, M.makeNode(Var, Low, High));
  }

  static NodeRef iteRec(Manager &M, NodeRef F, NodeRef G, NodeRef H) {
    if (F == TrueRef)
      return G;
    if (F == FalseRef)
      return H;
    if (G == H)
      return G;
    if (G == TrueRef && H == FalseRef)
      return F;
    if (G == FalseRef && H == TrueRef)
      return notRec(M, F);

    NodeRef Result;
    if (M.Cache.lookup(Manager::TagIte, F, G, H, Result))
      return Result;

    uint32_t Var = std::min({M.varOf(F), M.varOf(G), M.varOf(H)});
    auto Cof = [&](NodeRef N, bool HighBranch) {
      if (M.varOf(N) != Var)
        return N;
      return HighBranch ? M.Nodes[N].High : M.Nodes[N].Low;
    };
    NodeRef Low = iteRec(M, Cof(F, false), Cof(G, false), Cof(H, false));
    NodeRef High = iteRec(M, Cof(F, true), Cof(G, true), Cof(H, true));
    return memo(M, Manager::TagIte, F, G, H, M.makeNode(Var, Low, High));
  }

  static NodeRef existsRec(Manager &M, NodeRef F, NodeRef CubeBdd) {
    if (M.isTerminal(F))
      return F;
    // Skip quantified variables above F's top variable.
    while (!M.isTerminal(CubeBdd) && M.varOf(CubeBdd) < M.varOf(F))
      CubeBdd = M.Nodes[CubeBdd].High;
    if (M.isTerminal(CubeBdd))
      return F;

    NodeRef Result;
    if (M.Cache.lookup(Manager::TagExists, F, CubeBdd, 0, Result))
      return Result;

    uint32_t Var = M.varOf(F);
    NodeRef Low = existsRec(M, M.Nodes[F].Low, CubeBdd);
    NodeRef High = existsRec(M, M.Nodes[F].High, CubeBdd);
    Result = M.varOf(CubeBdd) == Var ? applyRec(M, Op::Or, Low, High)
                                     : M.makeNode(Var, Low, High);
    return memo(M, Manager::TagExists, F, CubeBdd, 0, Result);
  }

  static NodeRef relProdRec(Manager &M, NodeRef F, NodeRef G,
                            NodeRef CubeBdd) {
    if (F == FalseRef || G == FalseRef)
      return FalseRef;
    if (F == TrueRef && G == TrueRef)
      return TrueRef;

    uint32_t VarF = M.varOf(F), VarG = M.varOf(G);
    uint32_t Var = std::min(VarF, VarG);
    while (!M.isTerminal(CubeBdd) && M.varOf(CubeBdd) < Var)
      CubeBdd = M.Nodes[CubeBdd].High;
    if (M.isTerminal(CubeBdd))
      return applyRec(M, Op::And, F, G);

    NodeRef Result;
    if (M.Cache.lookup(Manager::TagRelProd, F, G, CubeBdd, Result))
      return Result;

    NodeRef F0 = VarF == Var ? M.Nodes[F].Low : F;
    NodeRef F1 = VarF == Var ? M.Nodes[F].High : F;
    NodeRef G0 = VarG == Var ? M.Nodes[G].Low : G;
    NodeRef G1 = VarG == Var ? M.Nodes[G].High : G;

    if (M.varOf(CubeBdd) == Var) {
      // Quantified level: the result is the OR of the two cofactors.
      NodeRef Next = M.Nodes[CubeBdd].High;
      NodeRef Low = relProdRec(M, F0, G0, Next);
      // Short-circuit: x OR true == true.
      NodeRef High = Low == TrueRef ? Low : relProdRec(M, F1, G1, Next);
      Result = applyRec(M, Op::Or, Low, High);
    } else {
      NodeRef Low = relProdRec(M, F0, G0, CubeBdd);
      NodeRef High = relProdRec(M, F1, G1, CubeBdd);
      Result = M.makeNode(Var, Low, High);
    }
    return memo(M, Manager::TagRelProd, F, G, CubeBdd, Result);
  }

private:
  /// Caches \p Result under the key and returns it.
  static NodeRef memo(Manager &M, uint32_t Tag, NodeRef A, NodeRef B,
                      NodeRef D, NodeRef Result) {
    M.Cache.store(Tag, A, B, D, Result);
    return Result;
  }
};

} // namespace bdd
} // namespace jedd

#endif // JEDDPP_BDD_KERNEL_H
