//===- Bdd.h - Reduced ordered binary decision diagrams ---------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A complete ROBDD package playing the role BuDDy/CUDD play in the paper:
/// shared nodes in a unique table, a computed cache, reference-counted
/// external handles with mark-and-sweep garbage collection, and the exact
/// set of operations the Jedd runtime lowers relational operations to
/// (Section 3.2.2): the binary set operations, existential quantification,
/// the combined and-exists "relational product", and variable replacement.
///
/// Memory discipline: operations never garbage-collect mid-recursion (the
/// node pool grows instead, so intermediate results stay valid); collection
/// runs between operations when the live ratio drops. External `Bdd`
/// handles are RAII wrappers over per-node reference counts, giving the
/// "free as soon as it is safe" guarantee of Section 4.2 without any
/// programmer involvement.
///
/// Execution: the manager is single-threaded, like BuDDy and CUDD. The
/// recursions of not, apply, ite, exists and relProd live in Kernel.h.
/// Distinct managers share no BDD state, so threads may each own one.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_BDD_BDD_H
#define JEDDPP_BDD_BDD_H

#include "util/Error.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace jedd {
namespace obs {
class SpanGuard;
} // namespace obs

namespace bdd {

/// Index of a node in the manager's node pool. Nodes 0 and 1 are the
/// constant false/true terminals.
using NodeRef = uint32_t;

constexpr NodeRef FalseRef = 0;
constexpr NodeRef TrueRef = 1;

/// Binary boolean operators supported by apply().
enum class Op : uint8_t {
  And,
  Or,
  Xor,
  Diff,  ///< f AND NOT g — set difference on relations.
  Imp,   ///< NOT f OR g.
  Biimp, ///< f XNOR g — used to build equality-of-domains BDDs.
};

class Kernel;
class Manager;

/// Resource-governor limits (docs/robustness.md). All zero/null means
/// ungoverned — the historical grow-until-OOM behavior. When a limit
/// trips mid-operation the operation unwinds via jedd::ResourceExhausted,
/// the manager runs its GC + cache-flush recovery, and every pre-existing
/// handle remains valid with unchanged semantics. This is jeddpp's
/// analogue of BuDDy's bdd_setmaxnodenum and CUDD's memory/time limits,
/// which the paper's runtime leans on (Section 6).
struct ResourceLimits {
  /// Ceiling on allocated (live + not-yet-collected) nodes; 0 = none.
  size_t MaxNodes = 0;
  /// Ceiling on the manager's approximate heap bytes (node pool, unique
  /// table, caches, mark bits); 0 = none.
  size_t MaxBytes = 0;
  /// Wall-clock budget, measured from setResourceLimits(); 0 = none.
  uint64_t TimeLimitMicros = 0;
  /// Cooperative cancellation token: operations poll it and abort with
  /// Kind::Cancelled once it reads true. Must outlive the manager (or be
  /// reset to null). Tools wire their SIGINT flag here.
  const std::atomic<bool> *Cancel = nullptr;

  bool any() const {
    return MaxNodes || MaxBytes || TimeLimitMicros || Cancel;
  }
};

/// An exact 128-bit satisfying-assignment count. Counts above 2^128 - 1
/// are reported as saturated rather than silently truncated (the double
/// API loses exactness already above 2^53, which is what this fixes).
struct SatCount {
  uint64_t Hi = 0;
  uint64_t Lo = 0;
  bool Saturated = false;

  bool isExact() const { return !Saturated; }
  double toDouble() const;
  /// Decimal rendering; saturated counts render as ">=2^128".
  std::string toString() const;

  friend bool operator==(const SatCount &A, const SatCount &B) {
    return A.Hi == B.Hi && A.Lo == B.Lo && A.Saturated == B.Saturated;
  }
  friend bool operator!=(const SatCount &A, const SatCount &B) {
    return !(A == B);
  }
};

/// A reference-counted handle to a BDD node. Copying a handle bumps the
/// node's reference count; destruction releases it, which is what lets the
/// manager reclaim dead intermediate results at the next collection. This
/// is the C++ analogue of the relation-container scheme of Section 4.2.
class Bdd {
public:
  Bdd() = default;
  Bdd(Manager *Mgr, NodeRef Ref);
  Bdd(const Bdd &Other);
  Bdd(Bdd &&Other) noexcept;
  Bdd &operator=(const Bdd &Other);
  Bdd &operator=(Bdd &&Other) noexcept;
  ~Bdd();

  /// True if this handle refers to a node (even the false terminal).
  bool isValid() const { return Mgr != nullptr; }
  bool isFalse() const { return Ref == FalseRef; }
  bool isTrue() const { return Ref == TrueRef; }

  NodeRef ref() const { return Ref; }
  Manager *manager() const { return Mgr; }

  /// Structural (= semantic, BDDs are canonical) equality. Comparing
  /// handles from different managers is a programming error.
  friend bool operator==(const Bdd &A, const Bdd &B) {
    assert((!A.Mgr || !B.Mgr || A.Mgr == B.Mgr) &&
           "comparing BDDs from different managers");
    return A.Ref == B.Ref;
  }
  friend bool operator!=(const Bdd &A, const Bdd &B) { return !(A == B); }

  // Convenience operator forms of the set operations; definitions follow
  // the Manager declaration.
  Bdd operator&(const Bdd &Other) const;
  Bdd operator|(const Bdd &Other) const;
  Bdd operator-(const Bdd &Other) const;
  Bdd operator^(const Bdd &Other) const;
  Bdd operator!() const;

private:
  Manager *Mgr = nullptr;
  NodeRef Ref = FalseRef;
};

/// Aggregate statistics exposed for tests and the profiler.
struct ManagerStats {
  size_t Capacity = 0;     ///< Total node slots.
  /// Allocated slots (capacity - free - 2): the reachable nodes plus the
  /// garbage not yet collected. liveNodeCount() gives the reachable ones.
  size_t LiveNodes = 0;
  size_t FreeNodes = 0;    ///< Slots on the free list.
  size_t GcRuns = 0;       ///< Number of completed collections.
  size_t CacheHits = 0;    ///< Computed-cache hits since creation.
  size_t CacheLookups = 0; ///< Computed-cache probes since creation.
  size_t CacheEntries = 0; ///< Computed-cache slots (follows Capacity).
  size_t NodesCreated = 0; ///< makeNode calls that allocated a new node.
  /// replace() calls whose map inverts the relative order of the moved
  /// variables, so the result is rebuilt with ITEs instead of relabelled.
  size_t ReorderingReplaces = 0;

  // Resource-governor state (docs/robustness.md); limits echo the
  // configured ResourceLimits, peaks/aborts accumulate over the
  // manager's lifetime.
  size_t LimitMaxNodes = 0;       ///< Configured node ceiling (0 = none).
  size_t LimitMaxBytes = 0;       ///< Configured byte ceiling (0 = none).
  size_t NodesPeak = 0;           ///< Peak allocated nodes observed.
  size_t BytesPeak = 0;           ///< Peak approximate heap bytes.
  size_t ResourceAborts = 0;      ///< Operations aborted by the governor.
  size_t ResourceRecoveries = 0;  ///< Completed post-abort recoveries.
  size_t ResourceEscalations = 0; ///< Pressure escalations (flush + gc).
};

/// The BDD manager: node pool, unique table, computed cache, and all
/// operations. One manager owns one static variable order over its
/// variables [0, numVars()): a variable's index is its level (0 =
/// topmost). Clients choose the order by how they number variables,
/// which DomainPack does from an order spec.
class Manager {
public:
  /// Creates a manager with \p NumVars client variables. \p InitialNodes
  /// is the starting node-pool capacity (rounded up to a power of two).
  /// The computed cache follows the pool: cacheEntriesFor(capacity).
  explicit Manager(unsigned NumVars, size_t InitialNodes = 1 << 14);
  ~Manager();

  Manager(const Manager &) = delete;
  Manager &operator=(const Manager &) = delete;

  unsigned numVars() const { return NumVars; }

  //===--------------------------------------------------------------===//
  // Constants and literals
  //===--------------------------------------------------------------===//

  Bdd falseBdd() { return Bdd(this, FalseRef); }
  Bdd trueBdd() { return Bdd(this, TrueRef); }
  /// The positive literal of variable \p Var.
  Bdd var(unsigned Var);
  /// The negative literal of variable \p Var.
  Bdd nvar(unsigned Var);

  //===--------------------------------------------------------------===//
  // Core operations
  //===--------------------------------------------------------------===//

  Bdd apply(Op Operator, const Bdd &F, const Bdd &G);
  Bdd bddAnd(const Bdd &F, const Bdd &G) { return apply(Op::And, F, G); }
  Bdd bddOr(const Bdd &F, const Bdd &G) { return apply(Op::Or, F, G); }
  Bdd bddDiff(const Bdd &F, const Bdd &G) { return apply(Op::Diff, F, G); }
  Bdd bddXor(const Bdd &F, const Bdd &G) { return apply(Op::Xor, F, G); }
  Bdd bddNot(const Bdd &F);
  Bdd ite(const Bdd &F, const Bdd &G, const Bdd &H);

  /// Conjunction of the positive literals of \p Vars; the usual encoding
  /// of a quantification variable set.
  Bdd cube(const std::vector<unsigned> &Vars);

  /// The set of \p NumRows full assignments to \p Vars (strictly
  /// ascending, so in level order); variables outside \p Vars stay free.
  /// The rows are packed bit rows of W = ceil(Vars.size() / 64) words:
  /// row R is words [R*W, (R+1)*W) of \p Rows, and bit I of a row (word
  /// I / 64, bit I % 64) is the value of Vars[I]. Built bottom-up in one
  /// pass: each level partitions the rows on its bit, and only the
  /// result's nodes are created — no apply, no cache traffic, no sort.
  /// Duplicate rows merge. This is how relations load tuples
  /// (DomainPack::encodeTuples, Relation::insertAll).
  Bdd minterms(const std::vector<unsigned> &Vars, size_t NumRows,
               std::vector<uint64_t> Rows);

  /// Existential quantification of the variables of \p CubeBdd out of F.
  /// This implements relational projection (Section 3.2.2).
  Bdd exists(const Bdd &F, const Bdd &CubeBdd);

  /// Combined AND + exists in one recursion — BuDDy's bdd_relprod /
  /// bdd_appex. This implements relational composition, which the paper
  /// notes is cheaper than a join followed by a projection.
  Bdd relProd(const Bdd &F, const Bdd &G, const Bdd &CubeBdd);

  /// Variable replacement: \p Map has one entry per client variable;
  /// Map[v] == -1 keeps v, otherwise v is renamed to Map[v]. The mapping
  /// must be injective on the support of F, and a target variable must
  /// either be a moved source itself or absent from the support of F.
  /// Handles arbitrary permutations (including swaps of interleaved
  /// domains) — order-preserving maps take a fast single recursion, the
  /// rest a level-correcting ITE rebuild. Whether a map preserves order
  /// on every operand that obeys this contract is decided once per map;
  /// only a map that does not is checked against F's support.
  Bdd replace(const Bdd &F, const std::vector<int> &Map);

  /// Restricts variable \p Var to constant \p Value in F (cofactor).
  Bdd restrict(const Bdd &F, unsigned Var, bool Value);

  //===--------------------------------------------------------------===//
  // Inspection
  //===--------------------------------------------------------------===//

  /// Number of satisfying assignments over \p Vars (sorted ascending,
  /// which must cover the support of F, as for enumerate), or over all
  /// numVars() variables. Relations count over their own physical
  /// domains' variables (BuDDy's bdd_satcountset). Exact up to 2^53;
  /// counts past 2^128 come from a floating-point count.
  double satCount(const Bdd &F);
  double satCount(const Bdd &F, const std::vector<unsigned> &Vars);

  /// Exact satisfying-assignment count over \p Vars (as for satCount)
  /// or all numVars() variables; counts that do not fit 128 bits come
  /// back marked saturated.
  SatCount satCountExact(const Bdd &F);
  SatCount satCountExact(const Bdd &F, const std::vector<unsigned> &Vars);

  /// Number of internal nodes (excluding terminals) in F.
  size_t nodeCount(const Bdd &F);

  /// Nodes per level — the "shape" the profiler of Section 4.3 draws.
  std::vector<size_t> levelShape(const Bdd &F);

  /// The set of variables F depends on, sorted ascending.
  std::vector<unsigned> support(const Bdd &F);

  /// Enumerates all assignments of \p Vars (sorted ascending, which must
  /// cover the support of F) that keep F satisfiable. Each callback
  /// receives one bit per entry of \p Vars. Returning false stops the
  /// enumeration early. The callback may call back into this manager
  /// (say, to insert each tuple of one relation into another from inside
  /// Relation::iterate): a collection in between never frees F's nodes,
  /// because the caller's handle keeps them referenced.
  void enumerate(const Bdd &F, const std::vector<unsigned> &Vars,
                 const std::function<bool(const std::vector<bool> &)> &Fn);

  /// Evaluates F under a concrete assignment (indexed by variable). Used
  /// by differential tests against truth tables.
  bool evalAssignment(const Bdd &F, const std::vector<bool> &Assignment) const;

  /// Visits every internal node of F exactly once in a deterministic
  /// post-order (low subtree, then high subtree, then the node), so each
  /// node's children have been visited before the node itself. The
  /// callback receives the node, its client variable, and its child refs
  /// (which may be the terminals FalseRef/TrueRef). This is the walk the
  /// persistence layer (src/io) serializes the shared-node DAG with: the
  /// visit order is a topological order of the DAG, and it depends only
  /// on the BDD's structure, never on the manager's memory layout.
  void traverse(const Bdd &F,
                const std::function<void(NodeRef Node, unsigned Var,
                                         NodeRef Low, NodeRef High)> &Fn);

  //===--------------------------------------------------------------===//
  // Memory management
  //===--------------------------------------------------------------===//

  /// Runs mark-and-sweep from all externally referenced nodes. Safe only
  /// between operations; the public operations call gcIfNeeded()
  /// themselves, so clients normally never call this.
  void gc();
  void gcIfNeeded();

  ManagerStats stats() const;
  /// Computed-cache entries for a pool of \p PoolSlots slots: one per
  /// CacheRatio slots, clamped to [MinCacheEntries, MaxCacheEntries]
  /// (BuDDy's cache ratio). The manager sizes its cache with this at
  /// construction and on every pool growth.
  static size_t cacheEntriesFor(size_t PoolSlots);
  static constexpr size_t CacheRatio = 2;
  static constexpr size_t MinCacheEntries = size_t(1) << 10;
  static constexpr size_t MaxCacheEntries = size_t(1) << 18;

  /// Number of nodes reachable from live roots (forces a mark pass).
  size_t liveNodeCount();

  /// Verifies the node store's structural invariants: intact terminals;
  /// every allocated node non-redundant (Low != High) with both children
  /// allocated and strictly deeper in the order; every allocated node
  /// linked exactly once, in the unique-table chain its (Var, Low, High)
  /// hashes to; no two nodes sharing a triple; and a free list exactly
  /// FreeCount long. Returns "" when all hold, else the first violation.
  /// Always compiled (not an assert).
  std::string checkInvariants() const;

  //===--------------------------------------------------------------===//
  // Resource governor (docs/robustness.md)
  //===--------------------------------------------------------------===//

  /// Installs (or clears, with a default-constructed value) the resource
  /// limits. The wall-clock budget starts counting from this call. Safe
  /// between operations only.
  void setResourceLimits(const ResourceLimits &L);
  ResourceLimits resourceLimits() const;

  /// Deterministic fault injection: roughly one in \p Rate governor
  /// checkpoints trips with Kind::FaultInjected / Kind::AllocFailed
  /// (0 disables). Also configurable via the JEDDPP_FAULT_INJECT
  /// environment variable ("RATE" or "RATE:SEED").
  void setFaultInjection(uint64_t Seed, uint32_t Rate);

  // Reference counting, used by the Bdd handle.
  void incRef(NodeRef Ref);
  void decRef(NodeRef Ref);
  /// Current external reference count of a node (for tests).
  uint32_t refCount(NodeRef Ref) const;

private:
  /// A node: 16 bytes, so one never spans two cache lines. Its reference
  /// count lives in the pool's side array.
  struct Node {
    uint32_t Var;  ///< Variable (= level); VarTerminal for constants,
                   ///< VarFree if free. Both sentinels sort below every
                   ///< variable.
    NodeRef Low;   ///< Also next-free chain for free nodes.
    NodeRef High;
    uint32_t Next; ///< Unique-table chain.
  };
  static_assert(sizeof(Node) == 16, "a node is one quarter cache line");

  static constexpr uint32_t VarTerminal = 0xFFFFFFFFu;
  static constexpr uint32_t VarFree = 0xFFFFFFFEu;
  /// End of a unique-table chain or of the free list: slot 0, the false
  /// terminal, is in neither, so arrays of chain heads start out zero.
  static constexpr uint32_t NoNode = 0;

  /// NodeRefs stay below 2^RefBits: walk() and the computed cache's keys
  /// use the bits above.
  static constexpr unsigned RefBits = 27;

  /// The node pool: one flat array of nodes and a side array of their
  /// reference counts, in a range of address space reserved once for
  /// MaxSlots slots (fewer if the address space is limited), of which
  /// the first size() are accessible. Growing makes more of the range
  /// accessible and never moves a node, so a recursion may hold a Node
  /// reference across a makeNode that grows the pool. The range's pages
  /// are zero and not resident until first touched: slots a run never
  /// allocates cost no memory, and a slot that has never held a node has
  /// reference count 0.
  class NodePool {
  public:
    static constexpr size_t MaxSlots = size_t(1) << RefBits;
    /// The smallest pool; a size() is a power of two at least this.
    static constexpr size_t MinSlots = size_t(1) << 12;

    /// Reserves the range, with no slot accessible. Throws bad_alloc.
    NodePool();
    ~NodePool();
    NodePool(const NodePool &) = delete;
    NodePool &operator=(const NodePool &) = delete;

    Node &operator[](NodeRef I) { return Slots[I]; }
    const Node &operator[](NodeRef I) const { return Slots[I]; }
    uint32_t &refCount(NodeRef I) { return RefCounts[I]; }
    uint32_t refCount(NodeRef I) const { return RefCounts[I]; }
    size_t size() const { return Cap; }
    /// Bytes of the accessible slots and their reference counts.
    size_t bytes() const { return Cap * SlotBytes; }
    /// Makes the first \p NewCap slots accessible. Throws bad_alloc past
    /// the reserved slots or when the system refuses the memory; the
    /// pool is then as it was.
    void growTo(size_t NewCap);

  private:
    static constexpr size_t SlotBytes = sizeof(Node) + sizeof(uint32_t);
    Node *Slots = nullptr;
    uint32_t *RefCounts = nullptr; ///< Follows Slots in the same range.
    size_t Reserved = 0;           ///< Slots in the range.
    size_t Cap = 0;
  };

  /// Returns the \p Bytes of pages mapped at a pointer to the system.
  struct Unmap {
    size_t Bytes;
    void operator()(void *P) const;
  };

  /// A direct-mapped computed cache keyed by (tag, a, b, c), owned by
  /// the manager and shared by all its operations. Empty until the
  /// manager sizes it.
  class ComputedCache {
  public:
    /// Makes the cache \p N (a power of two) empty entries; a no-op when
    /// it already has that many. Allocates before it drops the old
    /// entries, so a bad_alloc leaves the cache as it was.
    void resize(size_t N);

    bool lookup(uint32_t Tag, NodeRef A, NodeRef B, NodeRef C,
                NodeRef &Result) {
      ++Lookups;
      const Entry &E = slot(Tag, A, B, C);
      if (E.Key == key(Tag, A) && E.B == B && E.C == C) {
        ++Hits;
        Result = E.Result;
        return true;
      }
      return false;
    }
    void store(uint32_t Tag, NodeRef A, NodeRef B, NodeRef C,
               NodeRef Result) {
      slot(Tag, A, B, C) = {key(Tag, A), B, C, Result};
    }
    void clear();
    bool empty() const;
    size_t entries() const { return NumEntries; }
    size_t bytes() const { return NumEntries * sizeof(Entry); }
    size_t hits() const { return Hits; }
    size_t lookups() const { return Lookups; }

  private:
    /// 16 bytes, aligned so that one entry never spans two cache lines:
    /// the tag rides in the bits of operand A above RefBits (BuDDy keeps
    /// its entries in four ints the same way). All zeros is the empty
    /// entry (a stored key's tag bits are never 0), so resize() takes the
    /// entries from fresh zero pages, untouched until an entry on them is
    /// stored.
    struct alignas(16) Entry {
      uint32_t Key; ///< key(Tag, A).
      NodeRef B, C;
      NodeRef Result;
    };
    static_assert(sizeof(Entry) == 16, "a cache entry is 16 bytes");

    static uint32_t key(uint32_t Tag, NodeRef A) {
      assert(Tag + 1 < (1u << (32 - RefBits)) && A < NodePool::MaxSlots &&
             "the tag and operand A must share 32 bits");
      return A | (Tag + 1) << RefBits;
    }
    Entry &slot(uint32_t Tag, NodeRef A, NodeRef B, NodeRef C) {
      return Entries[hashTriple(A ^ (Tag * 0x85ebca6bu), B, C) & Mask];
    }

    std::unique_ptr<Entry[], Unmap> Entries;
    size_t NumEntries = 0;
    size_t Mask = 0;
    size_t Hits = 0;
    size_t Lookups = 0;
  };

  // Operation tags for the computed cache, each below 2^(32 - RefBits) -
  // 1. Binary apply operators use their Op value directly; the rest start
  // above them. A replace keys on its map's id as operand B.
  enum CacheTag : uint32_t {
    TagNot = 16,
    TagIte = 17,
    TagExists = 18,
    TagRelProd = 19,
    TagRestrict0 = 20,
    TagRestrict1 = 21,
    TagReplace = 22,    ///< Order-preserving relabelling (replaceRec).
    TagReplaceIte = 23, ///< ITE rebuild (replaceViaIteRec).
  };
  static_assert(TagReplaceIte + 1 < (1u << (32 - RefBits)),
                "a tag must fit above a NodeRef in a cache key");

  static uint32_t hashTriple(uint32_t A, uint32_t B, uint32_t C) {
    uint64_t H = (uint64_t)A * 0x9e3779b97f4a7c15ULL;
    H ^= (uint64_t)B * 0xc2b2ae3d27d4eb4fULL;
    H ^= (uint64_t)C * 0x165667b19e3779f9ULL;
    H ^= H >> 29;
    return static_cast<uint32_t>(H);
  }

  unsigned NumVars;

  NodePool Nodes;
  struct FreeBuckets {
    void operator()(uint32_t *P) const { std::free(P); }
  };
  /// Unique-table chain heads, NumBuckets (a power of two) of them, from
  /// calloc: all NoNode when empty.
  std::unique_ptr<uint32_t[], FreeBuckets> Buckets;
  size_t NumBuckets = 0;
  // Free slots are the free list (all below FreshSlot) and every slot
  // from FreshSlot on, which has never held a node: memory a run never
  // allocates from is never touched.
  uint32_t FreeHead = NoNode;
  uint32_t FreshSlot = 2;
  size_t FreeCount = 0; ///< Free-list length plus the fresh slots.

  ComputedCache Cache;

  std::vector<uint8_t> Marks; ///< GC mark bits, one byte per node.

  // Visited set of walk(): a walk stamps the nodes it visits with
  // consecutive values from WalkBase on, in visit order, so a node was
  // visited by the latest walk iff its stamp is at least WalkBase, and
  // the stamp minus WalkBase is its post-order index. The next walk
  // starts at WalkEnd; stamps only grow, so nothing is cleared between
  // walks.
  mutable std::vector<uint32_t> Stamps;
  mutable uint32_t WalkBase = 1;
  mutable uint32_t WalkEnd = 1;
  /// Per-node values of the latest tuple count, by post-order index;
  /// sized by the largest BDD counted so far.
  std::vector<unsigned __int128> ExactMemo;
  std::vector<double> ApproxMemo;

  // Statistics.
  size_t GcRuns = 0;
  size_t NodesCreated = 0;
  size_t ReorderingReplaces = 0;

  /// What replace() knows of a map without looking at an operand.
  struct ReplaceMapInfo {
    uint32_t Id;          ///< Operand B of the map's cache keys.
    bool OrderPreserving; ///< mapPreservesOrder(Map).
  };
  /// Registry assigning each distinct replace() map a stable id. Owned by
  /// the manager (not global): ids key this manager's computed cache, so
  /// two managers must never derive the same id from different maps.
  std::map<std::vector<int>, ReplaceMapInfo> ReplaceMapIds;

  uint32_t varOf(NodeRef N) const { return Nodes[N].Var; }
  bool isTerminal(NodeRef N) const { return N <= TrueRef; }

  NodeRef makeNode(uint32_t Var, NodeRef Low, NodeRef High);
  void growPool();
  void rehash();
  /// Marks every node reachable from an externally referenced one;
  /// returns how many were marked.
  size_t markFromRoots();
  size_t markRec(NodeRef N);

  /// The one DAG walk under every inspection: calls \p Visit(N, Node)
  /// once per internal node below \p Root, in post-order (low subtree,
  /// high subtree, then the node), so children come before parents. The
  /// order depends only on the BDD's structure.
  template <typename Fn> void walk(NodeRef Root, Fn &&Visit) const;
  /// The post-order index of \p N in the latest walk that visited it.
  uint32_t walkIndex(NodeRef N) const { return Stamps[N] - WalkBase; }
  /// The satisfying-assignment count of \p Root over \p Vars (all
  /// client variables when null) as one fold over walk(), in T: the
  /// saturating 128-bit integer or double.
  template <typename T>
  T countImpl(NodeRef Root, const std::vector<unsigned> *Vars,
              bool &Saturated);
  SatCount satCountExactImpl(NodeRef Root, const std::vector<unsigned> *Vars);
  double satCountImpl(NodeRef Root, const std::vector<unsigned> *Vars);

  // Cores of the public entry points, without their governor wrapping
  // and span bookkeeping. Internal code calls these.
  void gcImpl();
  void gcIfNeededImpl();
  std::vector<unsigned> supportImpl(NodeRef Root) const;
  NodeRef replaceImpl(NodeRef F, const std::vector<int> &Map);

  /// Runs a public operation: between-operations GC check, then \p Body,
  /// with governor recovery on abort.
  template <typename Fn> auto runOp(Fn &&Body);
  /// Runs one kernel recursion as a public operation (runOp) and fills
  /// its span: the nodes_created and cache deltas, plus the operand and
  /// result node counts when the span is buffered.
  template <typename Fn>
  Bdd kernelOp(obs::SpanGuard &Span,
               std::initializer_list<const Bdd *> Operands, Fn &&Rec);

  // Recursive cores of the remaining operations; the kernel (Kernel.h)
  // holds the apply-family ones. These work on raw NodeRefs; intermediate
  // results are protected by the no-GC-during-operations discipline.
  NodeRef replaceRec(NodeRef F, const std::vector<int> &FullMap,
                     uint32_t MapId);
  NodeRef replaceViaIteRec(NodeRef F, const std::vector<int> &Map,
                           uint32_t MapId);
  NodeRef restrictRec(NodeRef F, unsigned Var, bool Value);
  /// minterms() over rows [Rows, Rows + NumRows * Words), deciding
  /// Vars[Depth] and below.
  NodeRef mintermsRec(const std::vector<unsigned> &Vars, size_t Depth,
                      uint64_t *Rows, size_t NumRows, size_t Words);

  /// True if Map preserves the relative order of \p Vars (ascending),
  /// enabling the single-recursion replace fast path.
  static bool isOrderPreserving(const std::vector<int> &Map,
                                const std::vector<unsigned> &Vars);
  /// True if Map preserves the relative order of every variable that
  /// may appear in the support of an operand obeying replace()'s
  /// contract: all variables except the targets that are not moved
  /// themselves.
  bool mapPreservesOrder(const std::vector<int> &Map) const;

  //===--------------------------------------------------------------===//
  // Resource-governor state (docs/robustness.md)
  //===--------------------------------------------------------------===//

  ResourceLimits Limits;
  /// Any limit, cancel token or fault injector is active; single branch
  /// gating all hot-path checks.
  bool GovEnabled = false;
  /// Absolute deadline derived from TimeLimitMicros at install time.
  std::chrono::steady_clock::time_point GovDeadlineAt{};
  size_t GovNodesPeak = 0;
  size_t GovBytesPeak = 0;
  size_t GovAborts = 0;
  size_t GovRecoveries = 0;
  size_t GovEscalations = 0;
  /// Poll divider: deadline/cancel are only consulted every
  /// GovTickMask + 1 node creations.
  uint32_t GovTick = 0;
  static constexpr uint32_t GovTickMask = 1023;
  /// Set when flush + GC left usage above 7/8 of the ceiling, so the
  /// ladder does not rerun on every operation of that pressure episode;
  /// re-armed when usage drops below half the ceiling.
  bool GovEscalated = false;
  // Fault injection (JEDDPP_FAULT_INJECT / setFaultInjection).
  uint64_t FaultSeed = 0;
  uint32_t FaultRate = 0;
  uint64_t FaultCounter = 0;

  size_t usedNodesImpl() const { return Nodes.size() - FreeCount; }
  size_t heapBytesApprox() const;
  /// Records usage peaks; returns the byte figure it computed.
  size_t notePeaks();
  bool faultRoll();
  /// Builds and throws the typed error of kind \p Kind.
  [[noreturn]] void throwResource(ResourceExhausted::Kind Kind);
  /// The cancellation or deadline condition that has tripped, if any.
  std::optional<ResourceExhausted::Kind> governorExpired() const;
  /// Deadline / cancellation / forced-fault trips. Throws
  /// ResourceExhausted.
  void governorBoundary();
  /// Escalation ladder + boundary checks at operation entry (called from
  /// gcIfNeededImpl): flush caches → GC, then the boundary trips.
  /// Throws.
  void governorPreOp();
  /// Allocation-level check (ceilings plus periodic deadline / cancel
  /// poll). Throws.
  void governorCheckAlloc();
  /// Post-abort recovery: GC + cache flush, emits
  /// resource.abort/resource.recovery spans.
  void recoverAfterAbort(const ResourceExhausted &E);
  /// Wraps a public operation body: on ResourceExhausted, recover the
  /// manager to a clean, observably pre-op state, then rethrow.
  template <typename Fn> auto governed(Fn &&Body) {
    try {
      return Body();
    } catch (const ResourceExhausted &E) {
      recoverAfterAbort(E);
      throw;
    }
  }

  friend class Bdd;
  friend class Kernel;
};

inline Bdd Bdd::operator&(const Bdd &Other) const {
  assert(Mgr && Mgr == Other.Mgr && "operands from different managers");
  return Mgr->bddAnd(*this, Other);
}
inline Bdd Bdd::operator|(const Bdd &Other) const {
  assert(Mgr && Mgr == Other.Mgr && "operands from different managers");
  return Mgr->bddOr(*this, Other);
}
inline Bdd Bdd::operator-(const Bdd &Other) const {
  assert(Mgr && Mgr == Other.Mgr && "operands from different managers");
  return Mgr->bddDiff(*this, Other);
}
inline Bdd Bdd::operator^(const Bdd &Other) const {
  assert(Mgr && Mgr == Other.Mgr && "operands from different managers");
  return Mgr->bddXor(*this, Other);
}
inline Bdd Bdd::operator!() const {
  assert(Mgr && "negating an invalid BDD");
  return Mgr->bddNot(*this);
}

} // namespace bdd
} // namespace jedd

#endif // JEDDPP_BDD_BDD_H
