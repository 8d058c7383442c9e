//===- Reorder.cpp - Dynamic variable reordering (block sifting) ----------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
//
// Rudell sifting over variable blocks (docs/reordering.md). The paper's
// Section 3.3.1 observes that the bit order determines BDD sizes and thus
// speed; BuDDy/CUDD close the gap between static orders with dynamic
// reordering, and this file is jeddpp's version of it.
//
// The primitive is an in-place exchange of two adjacent levels: with u at
// level x and v at level x+1, every u-node whose cofactors depend on v is
// rewritten — in its own slot, so external NodeRefs and the node's
// semantics are preserved — into a v-node over two fresh u-cofactors
// (Low = (v=0)-cofactor, High = (v=1)-cofactor of the original function).
// Nodes at other levels are untouched because nodes store the stable
// variable *index*; only the var<->level maps change. Canonicity is
// preserved: a rewritten node cannot collapse (at least one cofactor pair
// differs in v) and cannot collide with an existing v-node (it computes a
// function no other table entry computes).
//
// Blocks (physical domains / interleaved bit groups, see
// Manager::setBlocks) move as units: exchanging adjacent blocks of widths
// wx and wy is wx*wy adjacent-level swaps. Each block is sifted to every
// position, the total live size is measured by a mark pass from the
// external roots (sifting creates garbage but frees nothing, so allocated
// counts would mislead), and the block returns to the best position seen.
//
// Everything here runs between operations, where collections run, and
// ends with a collection, which flushes
// the computed caches (their NodeRef keys and the cube-keyed
// exists/relProd entries are order-dependent) and resets the free list.
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"
#include "obs/Obs.h"

#include <algorithm>
#include <chrono>

using namespace jedd;
using namespace jedd::bdd;

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

void Manager::reorder() { reorderImpl(/*Force=*/true); }

void Manager::setReorderConfig(const ReorderConfig &Cfg) {
  RCfg = Cfg;
  ReorderBaseline = std::max(RCfg.MinNodes, Nodes.size() - FreeCount - 2);
  updateReorderTrigger();
}

ReorderConfig Manager::reorderConfig() const { return RCfg; }

void Manager::setBlocks(std::vector<std::vector<unsigned>> BlockList) {
#ifndef NDEBUG
  std::vector<uint8_t> Seen(NumVars, 0);
  for (const std::vector<unsigned> &B : BlockList) {
    assert(!B.empty() && "empty reorder block");
    std::vector<unsigned> Levels;
    for (unsigned V : B) {
      assert(V < NumVars && "block variable out of range");
      assert(!Seen[V] && "variable in two reorder blocks");
      Seen[V] = 1;
      Levels.push_back(VarToLevel[V]);
    }
    std::sort(Levels.begin(), Levels.end());
    for (size_t I = 1; I != Levels.size(); ++I)
      assert(Levels[I] == Levels[I - 1] + 1 &&
             "block variables must occupy contiguous levels");
  }
#endif
  Blocks = std::move(BlockList);
}

std::vector<std::vector<unsigned>> Manager::blocks() const { return Blocks; }

ReorderStats Manager::reorderStats() const { return RStats; }

unsigned Manager::levelOfVar(unsigned Var) const {
  assert(Var < TotalVars && "variable out of range");
  return VarToLevel[Var];
}

unsigned Manager::varAtLevel(unsigned Level) const {
  assert(Level < TotalVars && "level out of range");
  return LevelToVar[Level];
}

//===----------------------------------------------------------------------===//
// Trigger plumbing
//===----------------------------------------------------------------------===//

void Manager::updateReorderTrigger() {
  size_t T = ~size_t(0);
  if (RCfg.Auto) {
    double V = std::max(static_cast<double>(RCfg.MinNodes),
                        static_cast<double>(ReorderBaseline) *
                            RCfg.GrowthFactor);
    if (V < static_cast<double>(~size_t(0)))
      T = static_cast<size_t>(V);
  }
  ReorderTrigger = T;
}

bool Manager::reorderDueImpl() const {
  if (InReorder)
    return false;
  size_t Live = Nodes.size() - FreeCount - 2;
  return Live >= ReorderTrigger;
}

//===----------------------------------------------------------------------===//
// Unique-table maintenance for in-place rewrites
//===----------------------------------------------------------------------===//

void Manager::bucketRemove(NodeRef N) {
  uint32_t Hash =
      hashTriple(Nodes[N].Var, Nodes[N].Low, Nodes[N].High) &
      static_cast<uint32_t>(Buckets.size() - 1);
  uint32_t Cur = Buckets[Hash];
  if (Cur == N) {
    Buckets[Hash] = Nodes[N].Next;
    return;
  }
  while (Cur != NoNode) {
    if (Nodes[Cur].Next == N) {
      Nodes[Cur].Next = Nodes[N].Next;
      return;
    }
    Cur = Nodes[Cur].Next;
  }
  assert(false && "node missing from its unique-table bucket");
}

void Manager::bucketInsert(NodeRef N) {
  uint32_t Hash =
      hashTriple(Nodes[N].Var, Nodes[N].Low, Nodes[N].High) &
      static_cast<uint32_t>(Buckets.size() - 1);
  Nodes[N].Next = Buckets[Hash];
  Buckets[Hash] = N;
}

void Manager::buildVarNodesImpl() {
  VarNodes.assign(TotalVars, {});
  for (uint32_t N = 2, E = static_cast<uint32_t>(Nodes.size()); N != E; ++N)
    if (Nodes[N].Var < VarFree)
      VarNodes[Nodes[N].Var].push_back(N);
}

//===----------------------------------------------------------------------===//
// The swap primitive
//===----------------------------------------------------------------------===//

void Manager::swapAdjacentLevels(unsigned Level) {
  assert(Level + 1 < NumVars && "swap must stay within client levels");
  unsigned U = LevelToVar[Level], V = LevelToVar[Level + 1];
  // Maps first: nested makeNode calls assert against the *new* order.
  LevelToVar[Level] = V;
  LevelToVar[Level + 1] = U;
  VarToLevel[U] = Level + 1;
  VarToLevel[V] = Level;

  std::vector<NodeRef> &UList = VarNodes[U];
  std::vector<NodeRef> MovedToV;
  std::vector<NodeRef> NewUNodes;
  size_t OldCount = UList.size();
  for (size_t K = 0; K != OldCount; ++K) {
    NodeRef N = UList[K];
    if (Nodes[N].Var != U)
      continue; // Stale list entry (rewritten earlier, or swept).
    NodeRef F0 = Nodes[N].Low, F1 = Nodes[N].High;
    bool LowHasV = !isTerminal(F0) && Nodes[F0].Var == V;
    bool HighHasV = !isTerminal(F1) && Nodes[F1].Var == V;
    if (!LowHasV && !HighHasV)
      continue; // Independent of v: swapping the maps already moved it.

    // f = u ? f1 : f0 with fij the cofactors on (u, v). Rebuild as
    // v ? (u ? f11 : f01) : (u ? f10 : f00) in N's own slot.
    bucketRemove(N);
    NodeRef F00 = LowHasV ? Nodes[F0].Low : F0;
    NodeRef F01 = LowHasV ? Nodes[F0].High : F0;
    NodeRef F10 = HighHasV ? Nodes[F1].Low : F1;
    NodeRef F11 = HighHasV ? Nodes[F1].High : F1;
    NodeRef A = makeNode(U, F00, F10); // (v=0)-cofactor.
    NodeRef B = makeNode(U, F01, F11); // (v=1)-cofactor.
    assert(A != B && "node was redundant before the swap");
    Node &Nd = Nodes[N];
    Nd.Var = V;
    Nd.Low = A;
    Nd.High = B;
    bucketInsert(N);
    MovedToV.push_back(N);
    if (!isTerminal(A) && Nodes[A].Var == U)
      NewUNodes.push_back(A);
    if (!isTerminal(B) && Nodes[B].Var == U)
      NewUNodes.push_back(B);
  }

  // Compact u's list: drop rewritten entries, add the fresh cofactor
  // nodes, dedup via stamps (a cofactor may be a pre-listed survivor).
  uint32_t Stamp = newStamp();
  std::vector<NodeRef> Compact;
  Compact.reserve(OldCount);
  auto Keep = [&](NodeRef N) {
    if (Nodes[N].Var == U && Stamps[N] != Stamp) {
      Stamps[N] = Stamp;
      Compact.push_back(N);
    }
  };
  for (size_t K = 0; K != OldCount; ++K)
    Keep(UList[K]);
  for (NodeRef N : NewUNodes)
    Keep(N);
  UList = std::move(Compact);
  VarNodes[V].insert(VarNodes[V].end(), MovedToV.begin(), MovedToV.end());
  ++RStats.Swaps;
}

void Manager::swapAdjacentBlocksAt(unsigned StartLevel, unsigned WidthX,
                                   unsigned WidthY) {
  // Bubble each variable of the upper block down past the lower block,
  // bottom variable first.
  for (unsigned I = 0; I != WidthX; ++I)
    for (unsigned J = 0; J != WidthY; ++J)
      swapAdjacentLevels(StartLevel + (WidthX - 1 - I) + J);
  ++RStats.BlockMoves;
}

//===----------------------------------------------------------------------===//
// The sifting pass
//===----------------------------------------------------------------------===//

void Manager::reorderImpl(bool Force) {
  if (InReorder || NumVars < 2)
    return;
  auto StartTime = std::chrono::steady_clock::now();
  InReorder = true;
  gcImpl();
  size_t Before = Nodes.size() - FreeCount - 2;
  if (!Force && (Before < RCfg.MinNodes ||
                 static_cast<double>(Before) <
                     static_cast<double>(ReorderBaseline) *
                         RCfg.GrowthFactor)) {
    // The apparent growth was garbage; the collection resolved it.
    ReorderBaseline = std::max(RCfg.MinNodes, Before);
    updateReorderTrigger();
    InReorder = false;
    return;
  }
  obs::SpanGuard Span(obs::Cat::Reorder, "sift");
  size_t Swaps0 = RStats.Swaps, BlockMoves0 = RStats.BlockMoves;
  RStats.NodesBefore = Before;

  // Working layout: declared blocks plus a singleton block per uncovered
  // client variable, in current level order, variables level-sorted
  // within each block.
  struct LayoutBlock {
    std::vector<unsigned> Vars;
    size_t Id;
    size_t Weight = 0;
  };
  std::vector<LayoutBlock> Layout;
  {
    std::vector<uint8_t> Covered(NumVars, 0);
    for (const std::vector<unsigned> &B : Blocks) {
      Layout.push_back({B, Layout.size(), 0});
      for (unsigned V : B)
        Covered[V] = 1;
    }
    for (unsigned V = 0; V != NumVars; ++V)
      if (!Covered[V])
        Layout.push_back({{V}, Layout.size(), 0});
  }
  for (LayoutBlock &LB : Layout)
    std::sort(LB.Vars.begin(), LB.Vars.end(), [&](unsigned A, unsigned B) {
      return VarToLevel[A] < VarToLevel[B];
    });
  std::sort(Layout.begin(), Layout.end(),
            [&](const LayoutBlock &A, const LayoutBlock &B) {
              return VarToLevel[A.Vars.front()] < VarToLevel[B.Vars.front()];
            });
#ifndef NDEBUG
  {
    unsigned Expect = 0;
    for (const LayoutBlock &LB : Layout)
      for (unsigned V : LB.Vars)
        assert(VarToLevel[V] == Expect++ &&
               "reorder blocks must tile the client levels contiguously");
  }
#endif

  buildVarNodesImpl();
  for (LayoutBlock &LB : Layout)
    for (unsigned V : LB.Vars)
      LB.Weight += VarNodes[V].size();

  // Sift heaviest blocks first (they have the most to gain); identify
  // blocks by Id since positions shift as blocks move.
  std::vector<size_t> SiftOrder(Layout.size());
  for (size_t I = 0; I != SiftOrder.size(); ++I)
    SiftOrder[I] = I;
  {
    std::vector<size_t> WeightOf(Layout.size());
    for (const LayoutBlock &LB : Layout)
      WeightOf[LB.Id] = LB.Weight;
    std::sort(SiftOrder.begin(), SiftOrder.end(), [&](size_t A, size_t B) {
      return WeightOf[A] > WeightOf[B];
    });
  }

  auto StartLevelOf = [&](size_t Pos) {
    unsigned L = 0;
    for (size_t K = 0; K != Pos; ++K)
      L += static_cast<unsigned>(Layout[K].Vars.size());
    return L;
  };
  auto ExchangeAt = [&](size_t Pos) { // Swaps blocks at Pos and Pos + 1.
    swapAdjacentBlocksAt(StartLevelOf(Pos),
                         static_cast<unsigned>(Layout[Pos].Vars.size()),
                         static_cast<unsigned>(Layout[Pos + 1].Vars.size()));
    std::swap(Layout[Pos], Layout[Pos + 1]);
  };

  for (size_t Id : SiftOrder) {
    // Governor checkpoint between block sifts — the only points where a
    // pass may stop: every swap is complete, so the truncated pass is a
    // valid (if less optimal) order. A deadline/cancel trip persists, so
    // the next operation boundary turns it into the typed error. No
    // throw here: mid-reorder unwinding would strand the table
    // mid-rewrite.
    if (GovEnabled && governorExpired())
      break;
    size_t Pos = 0;
    while (Layout[Pos].Id != Id)
      ++Pos;

    size_t Best = liveNodeCount();
    size_t BestPos = Pos, Cur = Pos;
    auto LimitOf = [&](size_t B) {
      return static_cast<size_t>(static_cast<double>(B) * RCfg.MaxGrowth) + 2;
    };
    size_t Limit = LimitOf(Best);
    // Down to the bottom, aborting on excessive growth...
    while (Cur + 1 < Layout.size()) {
      ExchangeAt(Cur);
      ++Cur;
      size_t Sz = liveNodeCount();
      if (Sz < Best) {
        Best = Sz;
        BestPos = Cur;
        Limit = LimitOf(Best);
      } else if (Sz > Limit)
        break;
    }
    // ...then up to the top...
    while (Cur > 0) {
      ExchangeAt(Cur - 1);
      --Cur;
      size_t Sz = liveNodeCount();
      if (Sz < Best) {
        Best = Sz;
        BestPos = Cur;
        Limit = LimitOf(Best);
      } else if (Sz > Limit)
        break;
    }
    // ...and back to the best position seen.
    while (Cur > BestPos) {
      ExchangeAt(Cur - 1);
      --Cur;
    }
    while (Cur < BestPos) {
      ExchangeAt(Cur);
      ++Cur;
    }

    // Swaps strand garbage (old cofactor chains) that a mark pass must
    // not count and later swaps must not rewrite; collect between block
    // sifts and rebuild the per-variable lists from the swept pool.
    gcImpl();
    buildVarNodesImpl();
  }

  gcImpl(); // Final state: caches flushed, free list exact.
  size_t After = Nodes.size() - FreeCount - 2;
  RStats.NodesAfter = After;
  ++RStats.Runs;
  RStats.Micros += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - StartTime)
          .count());
  if (Span.active()) {
    Span.arg("nodes_before", Before);
    Span.arg("nodes_after", After);
    Span.arg("swaps", RStats.Swaps - Swaps0);
    Span.arg("block_moves", RStats.BlockMoves - BlockMoves0);
    obs::Tracer::instance().counterAdd("reorder.runs");
  }
  ReorderBaseline = std::max(RCfg.MinNodes, After);
  updateReorderTrigger();
  VarNodes.clear();
  VarNodes.shrink_to_fit();
  InReorder = false;
  assert(Cache.empty() && "computed cache must be empty after reordering");
}
