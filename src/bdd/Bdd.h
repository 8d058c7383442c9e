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
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
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
/// operations. One manager owns one static variable order: a variable's
/// index is its level (0 = topmost). Clients choose the order by how they
/// number variables, which DomainPack does from an order spec.
///
/// The variable space is split in two halves: "real" variables
/// [0, numVars()) that clients use, and a hidden scratch region used by
/// replace() to implement arbitrary (even order-inverting) variable
/// permutations as two relational products.
class Manager {
public:
  /// Creates a manager with \p NumVars client variables. \p InitialNodes
  /// is the starting node-pool capacity and \p CacheSize the computed
  /// cache size (rounded up to a power of two).
  explicit Manager(unsigned NumVars, size_t InitialNodes = 1 << 14,
                   size_t CacheSize = 1 << 16);
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
  /// rest a level-correcting ITE rebuild.
  Bdd replace(const Bdd &F, const std::vector<int> &Map);

  /// Restricts variable \p Var to constant \p Value in F (cofactor).
  Bdd restrict(const Bdd &F, unsigned Var, bool Value);

  //===--------------------------------------------------------------===//
  // Inspection
  //===--------------------------------------------------------------===//

  /// Number of satisfying assignments over all numVars() variables.
  /// Relations divide out the unused-physical-domain wildcards. Exact up
  /// to 2^53 (routed through satCountExact); larger counts fall back to
  /// floating point.
  double satCount(const Bdd &F);

  /// Exact satisfying-assignment count over all numVars() variables;
  /// counts that do not fit 128 bits come back marked saturated.
  SatCount satCountExact(const Bdd &F);

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

  /// Graphviz dump for debugging.
  std::string toDot(const Bdd &F);

  //===--------------------------------------------------------------===//
  // Memory management
  //===--------------------------------------------------------------===//

  /// Runs mark-and-sweep from all externally referenced nodes. Safe only
  /// between operations; the public operations call gcIfNeeded()
  /// themselves, so clients normally never call this.
  void gc();
  void gcIfNeeded();

  ManagerStats stats() const;
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
  struct Node {
    uint32_t Var;  ///< Variable (= level); VarTerminal for constants,
                   ///< VarFree if free. Both sentinels sort below every
                   ///< variable.
    NodeRef Low;   ///< Also next-free chain for free nodes.
    NodeRef High;
    uint32_t Next; ///< Unique-table chain.
    uint32_t RefCount;
  };

  static constexpr uint32_t VarTerminal = 0xFFFFFFFFu;
  static constexpr uint32_t VarFree = 0xFFFFFFFEu;
  /// End of a unique-table chain or of the free list.
  static constexpr uint32_t NoNode = 0xFFFFFFFFu;

  /// Node storage as fixed-size chunks with stable addresses. Growth
  /// appends chunks and never moves existing nodes, so a recursion may
  /// hold a Node reference across a makeNode that grows the pool (the
  /// chunk-pointer array is pre-reserved, so push_back never
  /// reallocates). Indexing costs one extra load over a flat vector.
  class NodePool {
  public:
    static constexpr unsigned ChunkShift = 12;
    static constexpr size_t ChunkSize = size_t(1) << ChunkShift;
    static constexpr size_t ChunkMask = ChunkSize - 1;
    /// Upper bound on chunks (~134M nodes); keeps the pre-reserve small.
    static constexpr size_t MaxChunks = size_t(1) << 15;

    Node &operator[](NodeRef I) {
      return Chunks[I >> ChunkShift].get()[I & ChunkMask];
    }
    const Node &operator[](NodeRef I) const {
      return Chunks[I >> ChunkShift].get()[I & ChunkMask];
    }
    size_t size() const { return Cap.load(std::memory_order_relaxed); }
    /// Extends capacity to at least \p NewCap (rounded up to a chunk
    /// multiple). Existing nodes never move.
    void growTo(size_t NewCap);

  private:
    std::vector<std::unique_ptr<Node[]>> Chunks;
    std::atomic<size_t> Cap{0};
  };

  /// Single-writer statistics counter: only the owning thread bumps it,
  /// but stats() may read it from another thread at any time, so the
  /// accesses are atomic. The relaxed load+store bump (instead of an
  /// atomic RMW) keeps the hot cache-lookup path free of lock-prefixed
  /// instructions; single-writer means nothing is lost.
  class StatCounter {
  public:
    void bump() {
      Value.store(Value.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    }
    size_t get() const { return Value.load(std::memory_order_relaxed); }

  private:
    std::atomic<size_t> Value{0};
  };

  /// A direct-mapped computed cache keyed by (tag, a, b, c), owned by
  /// the manager and shared by all its operations.
  class ComputedCache {
  public:
    /// At least \p MinEntries entries, rounded up to a power of two.
    explicit ComputedCache(size_t MinEntries);

    bool lookup(uint32_t Tag, NodeRef A, NodeRef B, NodeRef C,
                NodeRef &Result) {
      Lookups.bump();
      const Entry &E = slot(Tag, A, B, C);
      if (E.Tag == Tag && E.A == A && E.B == B && E.C == C) {
        Hits.bump();
        Result = E.Result;
        return true;
      }
      return false;
    }
    void store(uint32_t Tag, NodeRef A, NodeRef B, NodeRef C,
               NodeRef Result) {
      slot(Tag, A, B, C) = {Tag, A, B, C, Result};
    }
    void clear();
    bool empty() const;
    size_t entries() const { return Entries.size(); }
    size_t bytes() const { return Entries.capacity() * sizeof(Entry); }
    size_t hits() const { return Hits.get(); }
    size_t lookups() const { return Lookups.get(); }

  private:
    struct Entry {
      uint32_t Tag = InvalidTag;
      NodeRef A = 0, B = 0, C = 0;
      NodeRef Result = 0;
    };
    static constexpr uint32_t InvalidTag = 0xFFFFFFFFu;

    Entry &slot(uint32_t Tag, NodeRef A, NodeRef B, NodeRef C) {
      return Entries[hashTriple(A ^ (Tag * 0x85ebca6bu), B, C) & Mask];
    }

    std::vector<Entry> Entries;
    size_t Mask;
    StatCounter Hits;
    StatCounter Lookups;
  };

  // Operation tags for the computed caches. Binary apply operators use
  // their Op value directly; the rest start above them.
  enum CacheTag : uint32_t {
    TagNot = 16,
    TagIte = 17,
    TagExists = 18,
    TagRelProd = 19,
    TagRestrict0 = 20,
    TagRestrict1 = 21,
    TagReplaceBase = 64, // TagReplaceBase + per-map id.
  };

  static uint32_t hashTriple(uint32_t A, uint32_t B, uint32_t C) {
    uint64_t H = (uint64_t)A * 0x9e3779b97f4a7c15ULL;
    H ^= (uint64_t)B * 0xc2b2ae3d27d4eb4fULL;
    H ^= (uint64_t)C * 0x165667b19e3779f9ULL;
    H ^= H >> 29;
    return static_cast<uint32_t>(H);
  }

  unsigned NumVars;
  unsigned TotalVars; ///< NumVars real + NumVars scratch, scratch below.

  NodePool Nodes;
  std::vector<uint32_t> Buckets; ///< Unique table heads; size power of 2.
  uint32_t FreeHead = NoNode;
  size_t FreeCount = 0;

  ComputedCache Cache;

  std::vector<uint8_t> Marks; ///< GC mark bits, one byte per node.

  // Reusable visited-set for the inspection walks (nodeCount, support,
  // shape...): per-node stamps avoid clearing a capacity-sized vector on
  // every call.
  mutable std::vector<uint32_t> Stamps;
  mutable uint32_t CurrentStamp = 0;
  uint32_t newStamp() const;

  // Statistics.
  size_t GcRuns = 0;
  size_t NodesCreated = 0;
  size_t ReorderingReplaces = 0;

  /// Registry assigning each distinct replace() map a stable cache-tag
  /// id. Owned by the manager (not global): tags index this manager's
  /// computed cache, so two managers must never derive the same tag from
  /// different maps.
  std::map<std::vector<int>, uint32_t> ReplaceMapIds;

  uint32_t varOf(NodeRef N) const { return Nodes[N].Var; }
  bool isTerminal(NodeRef N) const { return N <= TrueRef; }

  NodeRef makeNode(uint32_t Var, NodeRef Low, NodeRef High);
  void growPool();
  void rehash();
  void markRec(NodeRef N);

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
                     uint32_t CacheTag);
  NodeRef replaceViaIteRec(NodeRef F, const std::vector<int> &Map,
                           uint32_t Tag);
  NodeRef restrictRec(NodeRef F, unsigned Var, bool Value);
  /// minterms() over rows [Rows, Rows + NumRows * Words), deciding
  /// Vars[Depth] and below.
  NodeRef mintermsRec(const std::vector<unsigned> &Vars, size_t Depth,
                      uint64_t *Rows, size_t NumRows, size_t Words);

  double satCountRec(NodeRef F,
                     std::unordered_map<NodeRef, double> &Memo);

  SatCount satCountExactImpl(NodeRef Root);
  unsigned __int128
  satCountExactRec(NodeRef F,
                   std::unordered_map<NodeRef, unsigned __int128> &Memo,
                   bool &Saturated);

  /// True if Map (over support vars of F) preserves relative variable
  /// order, enabling the single-recursion replace fast path.
  bool isOrderPreserving(const std::vector<int> &Map,
                         const std::vector<unsigned> &Support) const;

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
