//===- BddManager.cpp - ROBDD manager implementation ----------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"
#include "bdd/Kernel.h"
#include "obs/Obs.h"
#include "util/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <new>

#include <sys/mman.h>
#include <unistd.h>

using namespace jedd;
using namespace jedd::bdd;

namespace {

/// Static span names for apply()'s operators (obs span names must
/// outlive the event).
inline const char *applyOpName(Op Operator) {
  switch (Operator) {
  case Op::And:
    return "and";
  case Op::Or:
    return "or";
  case Op::Xor:
    return "xor";
  case Op::Diff:
    return "diff";
  case Op::Imp:
    return "imp";
  case Op::Biimp:
    return "biimp";
  }
  return "apply";
}

/// \p Bytes rounded up to whole pages.
size_t pageRound(size_t Bytes) {
  static const size_t Page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return (Bytes + Page - 1) / Page * Page;
}

/// Maps \p Bytes of zero pages with access \p Prot, or returns null; the
/// system makes a page resident when it is first touched.
void *mapPages(size_t Bytes, int Prot) {
  void *P = mmap(nullptr, Bytes, Prot,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  return P == MAP_FAILED ? nullptr : P;
}

/// True if the replace map \p Map renames \p V to another variable.
inline bool movesVar(const std::vector<int> &Map, unsigned V) {
  return V < Map.size() && Map[V] >= 0 && static_cast<unsigned>(Map[V]) != V;
}

} // namespace

//===----------------------------------------------------------------------===//
// Bdd handle
//===----------------------------------------------------------------------===//

Bdd::Bdd(Manager *Mgr, NodeRef Ref) : Mgr(Mgr), Ref(Ref) {
  if (Mgr)
    Mgr->incRef(Ref);
}

Bdd::Bdd(const Bdd &Other) : Mgr(Other.Mgr), Ref(Other.Ref) {
  if (Mgr)
    Mgr->incRef(Ref);
}

Bdd::Bdd(Bdd &&Other) noexcept : Mgr(Other.Mgr), Ref(Other.Ref) {
  Other.Mgr = nullptr;
  Other.Ref = FalseRef;
}

Bdd &Bdd::operator=(const Bdd &Other) {
  if (this == &Other)
    return *this;
  if (Other.Mgr)
    Other.Mgr->incRef(Other.Ref);
  if (Mgr)
    Mgr->decRef(Ref);
  Mgr = Other.Mgr;
  Ref = Other.Ref;
  return *this;
}

Bdd &Bdd::operator=(Bdd &&Other) noexcept {
  if (this == &Other)
    return *this;
  if (Mgr)
    Mgr->decRef(Ref);
  Mgr = Other.Mgr;
  Ref = Other.Ref;
  Other.Mgr = nullptr;
  Other.Ref = FalseRef;
  return *this;
}

Bdd::~Bdd() {
  if (Mgr)
    Mgr->decRef(Ref);
}

//===----------------------------------------------------------------------===//
// Manager: construction and node pool
//===----------------------------------------------------------------------===//

static size_t roundUpPow2(size_t N) {
  size_t P = 1;
  while (P < N)
    P <<= 1;
  return P;
}

void Manager::Unmap::operator()(void *P) const { munmap(P, Bytes); }

// The range holds Reserved nodes, then Reserved reference counts. It is
// mapped inaccessible, so reserving it commits no memory; growTo makes
// the prefixes of both arrays accessible. Under an address-space limit
// the range halves until it fits, and the pool meets its cap earlier.
Manager::NodePool::NodePool() {
  for (Reserved = MaxSlots;; Reserved /= 2) {
    if (void *Range = mapPages(Reserved * SlotBytes, PROT_NONE)) {
      Slots = static_cast<Node *>(Range);
      RefCounts = reinterpret_cast<uint32_t *>(Slots + Reserved);
      return;
    }
    if (Reserved == MinSlots)
      throw std::bad_alloc();
  }
}

Manager::NodePool::~NodePool() { Unmap{Reserved * SlotBytes}(Slots); }

void Manager::NodePool::growTo(size_t NewCap) {
  // Address-space exhaustion surfaces like any allocation failure; the
  // callers translate it to ResourceExhausted.
  if (NewCap > Reserved)
    throw std::bad_alloc();
  if (NewCap <= Cap)
    return;
  // Re-protecting the accessible prefix leaves it as it is. On a failure
  // Cap stays, so pages made accessible past it are never used.
  if (mprotect(Slots, pageRound(NewCap * sizeof(Node)),
               PROT_READ | PROT_WRITE) != 0 ||
      mprotect(RefCounts, pageRound(NewCap * sizeof(uint32_t)),
               PROT_READ | PROT_WRITE) != 0)
    throw std::bad_alloc();
  Cap = NewCap;
}

void Manager::ComputedCache::resize(size_t N) {
  assert(N == roundUpPow2(N) && "entries must be 2^k");
  if (N == NumEntries)
    return;
  // Page-aligned, so every entry sits within one cache line.
  size_t Bytes = N * sizeof(Entry);
  void *Fresh = mapPages(Bytes, PROT_READ | PROT_WRITE);
  if (!Fresh)
    throw std::bad_alloc();
  Entries = std::unique_ptr<Entry[], Unmap>(static_cast<Entry *>(Fresh),
                                            Unmap{Bytes});
  NumEntries = N;
  Mask = N - 1;
}

void Manager::ComputedCache::clear() {
  std::fill_n(Entries.get(), NumEntries, Entry{});
}

bool Manager::ComputedCache::empty() const {
  return std::all_of(Entries.get(), Entries.get() + NumEntries,
                     [](const Entry &E) { return E.Key == 0; });
}

size_t Manager::cacheEntriesFor(size_t PoolSlots) {
  return std::clamp(roundUpPow2(PoolSlots / CacheRatio), MinCacheEntries,
                    MaxCacheEntries);
}

Manager::Manager(unsigned NumVars, size_t InitialNodes) : NumVars(NumVars) {
  assert(NumVars > 0 && "a manager needs at least one variable");
  size_t Capacity =
      std::max<size_t>(roundUpPow2(InitialNodes), NodePool::MinSlots);
  Nodes.growTo(Capacity);
  Cache.resize(cacheEntriesFor(Capacity));
  Marks.assign(Capacity, 0);
  Buckets.reset(
      static_cast<uint32_t *>(std::calloc(Capacity, sizeof(uint32_t))));
  if (!Buckets)
    throw std::bad_alloc();
  NumBuckets = Capacity;

  // Terminals. A permanent reference count keeps them off the free list.
  Nodes[FalseRef] = {VarTerminal, FalseRef, FalseRef, NoNode};
  Nodes[TrueRef] = {VarTerminal, TrueRef, TrueRef, NoNode};
  Nodes.refCount(FalseRef) = Nodes.refCount(TrueRef) = 1;
  // Every other slot starts fresh (FreshSlot = 2).
  FreeCount = Capacity - 2;

  // Fault injection from the environment: "RATE" or "RATE:SEED" (one in
  // RATE governor checkpoints trips). The API (setFaultInjection) takes
  // precedence when called later.
  if (const char *Env = std::getenv("JEDDPP_FAULT_INJECT")) {
    char *End = nullptr;
    unsigned long Rate = std::strtoul(Env, &End, 10);
    if (Rate > 0) {
      FaultRate = static_cast<uint32_t>(Rate);
      if (End && *End == ':')
        FaultSeed = std::strtoull(End + 1, nullptr, 10);
      GovEnabled = true;
    }
  }
}

Manager::~Manager() = default;

NodeRef Manager::makeNode(uint32_t Var, NodeRef Low, NodeRef High) {
  assert(Var < NumVars && "variable out of range");
  assert(varOf(Low) > Var && varOf(High) > Var &&
         "children must be below the new node in the order");
  if (Low == High)
    return Low;

  uint32_t Hash = hashTriple(Var, Low, High) & (NumBuckets - 1);
  for (uint32_t N = Buckets[Hash]; N != NoNode; N = Nodes[N].Next)
    if (Nodes[N].Var == Var && Nodes[N].Low == Low && Nodes[N].High == High)
      return N;

  // Governor checkpoint at the allocation level (ceilings, periodic
  // deadline/cancel poll, injected allocation failures).
  if (GovEnabled)
    governorCheckAlloc();

  if (FreeHead == NoNode && FreshSlot == Nodes.size()) {
    growPool();
    Hash = hashTriple(Var, Low, High) & (NumBuckets - 1);
  }

  // The free list holds only slots below FreshSlot, so taking it first
  // hands slots out in ascending order after every collection.
  uint32_t N = FreshSlot;
  if (FreeHead != NoNode) {
    N = FreeHead;
    FreeHead = Nodes[N].Low;
  } else {
    ++FreshSlot;
  }
  --FreeCount;
  ++NodesCreated;
  // The slot's reference count is already 0: fresh slots come zeroed,
  // and a collection frees only unmarked slots, none of them referenced.
  Nodes[N] = {Var, Low, High, Buckets[Hash]};
  Buckets[Hash] = N;
  return N;
}

void Manager::growPool() {
  // Growing (rather than collecting) is the only safe response while a
  // recursive operation is in flight: unreferenced intermediate results
  // must survive. See the class comment.
  if (GovEnabled) {
    size_t Bytes = notePeaks();
    if (Limits.MaxBytes && Bytes >= Limits.MaxBytes)
      throwResource(ResourceExhausted::Kind::Bytes);
    if (FaultRate && faultRoll())
      throwResource(ResourceExhausted::Kind::AllocFailed);
  }
  size_t OldCapacity = Nodes.size();
  assert(FreshSlot == OldCapacity && "the pool grows only when it is full");
  try {
    Nodes.growTo(OldCapacity * 2);
    FreeCount += Nodes.size() - OldCapacity; // The new slots are fresh.
    Marks.resize(Nodes.size(), 0);
    // Dropping the entries mid-operation only costs recomputation: the
    // recursion keeps its partial results on the stack, not in the cache.
    Cache.resize(cacheEntriesFor(Nodes.size()));
  } catch (const std::bad_alloc &) {
    // The pool and mark vector are still consistent (growth appends only)
    // and a failed resize keeps the old cache; the recovery GC run by
    // governed() reclaims whatever the aborted operation allocated so
    // far.
    throwResource(ResourceExhausted::Kind::AllocFailed);
  }
  if (Nodes.size() > 2 * NumBuckets)
    rehash();
}

void Manager::rehash() {
  // One head per slot. Without memory for new heads the old ones are
  // reused: long chains are a performance problem, not a correctness one.
  uint32_t *Fresh = nullptr;
  if (Nodes.size() != NumBuckets)
    Fresh =
        static_cast<uint32_t *>(std::calloc(Nodes.size(), sizeof(uint32_t)));
  if (Fresh) {
    Buckets.reset(Fresh);
    NumBuckets = Nodes.size();
  } else {
    std::fill_n(Buckets.get(), NumBuckets, NoNode);
  }
  for (uint32_t N = 2; N != FreshSlot; ++N) {
    Node &Nd = Nodes[N];
    if (Nd.Var >= VarFree)
      continue;
    uint32_t Hash = hashTriple(Nd.Var, Nd.Low, Nd.High) & (NumBuckets - 1);
    Nd.Next = Buckets[Hash];
    Buckets[Hash] = N;
  }
}

size_t Manager::markRec(NodeRef N) {
  size_t Marked = 0;
  while (!isTerminal(N) && !Marks[N]) {
    Marks[N] = 1;
    Marked += 1 + markRec(Nodes[N].Low);
    N = Nodes[N].High;
  }
  return Marked;
}

size_t Manager::markFromRoots() {
  // A growPool whose mark-vector resize failed leaves Marks short.
  if (Marks.size() < Nodes.size())
    Marks.resize(Nodes.size(), 0);
  std::fill(Marks.begin(), Marks.end(), 0);
  size_t Marked = 0;
  for (uint32_t N = 2; N != FreshSlot; ++N)
    if (Nodes.refCount(N) > 0)
      Marked += markRec(N);
  return Marked;
}

void Manager::gcImpl() {
  obs::SpanGuard Span(obs::Cat::Gc, "collect");
  size_t FreeBefore = FreeCount;
  markFromRoots();

  FreeHead = NoNode;
  FreeCount = Nodes.size() - FreshSlot;
  for (size_t I = FreshSlot; I-- > 2;) {
    if (Nodes[I].Var < VarFree && !Marks[I]) {
      Nodes[I].Var = VarFree;
      Nodes[I].Low = FreeHead;
      FreeHead = static_cast<uint32_t>(I);
      ++FreeCount;
    } else if (Nodes[I].Var == VarFree) {
      Nodes[I].Low = FreeHead;
      FreeHead = static_cast<uint32_t>(I);
      ++FreeCount;
    }
  }
  rehash();
  Cache.clear();
  ++GcRuns;
  Span.arg("capacity", Nodes.size());
  Span.arg("live_nodes", Nodes.size() - FreeCount - 2);
  Span.arg("freed_nodes", FreeCount - FreeBefore);
  assert(Cache.empty() && "computed cache must be empty after a collection");
}

void Manager::gcIfNeededImpl() {
  if (FreeCount * 8 < Nodes.size())
    gcImpl();
  if (GovEnabled)
    governorPreOp();
}

void Manager::gc() {
  governed([&] { gcImpl(); });
}

void Manager::gcIfNeeded() {
  governed([&] { gcIfNeededImpl(); });
}

// Saturating reference counts: a count that reaches the maximum sticks
// there, keeping its node alive for the manager's lifetime.
void Manager::incRef(NodeRef Ref) {
  uint32_t &Count = Nodes.refCount(Ref);
  if (Count != 0xFFFFFFFFu)
    ++Count;
}

void Manager::decRef(NodeRef Ref) {
  uint32_t &Count = Nodes.refCount(Ref);
  assert(Count > 0 && "reference count underflow");
  if (Count != 0xFFFFFFFFu)
    --Count;
}

uint32_t Manager::refCount(NodeRef Ref) const { return Nodes.refCount(Ref); }

size_t Manager::liveNodeCount() { return markFromRoots(); }

std::string Manager::checkInvariants() const {
  const uint32_t Size = static_cast<uint32_t>(Nodes.size());
  for (NodeRef T : {FalseRef, TrueRef})
    if (Nodes[T].Var != VarTerminal || Nodes[T].Low != T ||
        Nodes[T].High != T || Nodes.refCount(T) == 0)
      return strFormat("terminal %u is corrupted", T);
  // Slots from FreshSlot on have never held a node and are not read.
  const uint32_t Used = FreshSlot;
  if (Used < 2 || Used > Size)
    return strFormat("fresh slots start at %u, outside the pool of %u", Used,
                     Size);

  for (uint32_t N = 2; N != Used; ++N) {
    const Node &Nd = Nodes[N];
    if (Nd.Var == VarFree) {
      // makeNode reuses a free slot without writing its count.
      if (Nodes.refCount(N) != 0)
        return strFormat("free slot %u has reference count %u", N,
                         Nodes.refCount(N));
      continue;
    }
    if (Nd.Var >= NumVars)
      return strFormat("node %u has invalid variable %u", N, Nd.Var);
    if (Nd.Low == Nd.High)
      return strFormat("node %u is redundant (low == high == %u)", N, Nd.Low);
    for (NodeRef Child : {Nd.Low, Nd.High}) {
      if (Child >= Used || Nodes[Child].Var == VarFree)
        return strFormat("node %u has dangling child %u", N, Child);
      if (varOf(Child) <= Nd.Var)
        return strFormat("node %u (level %u) has child %u at level %u", N,
                         Nd.Var, Child, varOf(Child));
    }
  }

  // Every chain entry must be allocated, hash to its bucket and differ
  // from the chain's earlier entries; Linked counts sightings, which
  // also catches cycles.
  std::vector<uint8_t> Linked(Used, 0);
  const size_t Mask = NumBuckets - 1;
  for (size_t B = 0; B != NumBuckets; ++B) {
    for (uint32_t N = Buckets[B]; N != NoNode; N = Nodes[N].Next) {
      if (N < 2 || N >= Used || Nodes[N].Var >= NumVars)
        return strFormat("bucket %zu links slot %u, not a node", B, N);
      const Node &Nd = Nodes[N];
      if ((hashTriple(Nd.Var, Nd.Low, Nd.High) & Mask) != B)
        return strFormat("node %u sits in bucket %zu but hashes elsewhere", N,
                         B);
      if (Linked[N]++)
        return strFormat("node %u is linked twice in the unique table", N);
      for (uint32_t P = Buckets[B]; P != N; P = Nodes[P].Next)
        if (Nodes[P].Var == Nd.Var && Nodes[P].Low == Nd.Low &&
            Nodes[P].High == Nd.High)
          return strFormat("nodes %u and %u share a triple", P, N);
    }
  }
  for (uint32_t N = 2; N != Used; ++N)
    if (Nodes[N].Var != VarFree && !Linked[N])
      return strFormat("node %u is missing from the unique table", N);

  size_t FreeLen = 0;
  for (uint32_t N = FreeHead; N != NoNode; N = Nodes[N].Low)
    if (N >= Used || Nodes[N].Var != VarFree || ++FreeLen > Used)
      return strFormat("free list reaches slot %u, not a free slot", N);
  if (FreeLen + (Size - Used) != FreeCount)
    return strFormat("free list holds %zu slots and %u are fresh, but "
                     "FreeCount is %zu",
                     FreeLen, Size - Used, FreeCount);
  return "";
}

ManagerStats Manager::stats() const {
  ManagerStats S;
  S.Capacity = Nodes.size();
  S.FreeNodes = FreeCount;
  S.LiveNodes = S.Capacity - S.FreeNodes - 2;
  S.GcRuns = GcRuns;
  S.CacheHits = Cache.hits();
  S.CacheLookups = Cache.lookups();
  S.CacheEntries = Cache.entries();
  S.NodesCreated = NodesCreated;
  S.ReorderingReplaces = ReorderingReplaces;
  S.LimitMaxNodes = Limits.MaxNodes;
  S.LimitMaxBytes = Limits.MaxBytes;
  S.NodesPeak = GovNodesPeak;
  S.BytesPeak = GovBytesPeak;
  S.ResourceAborts = GovAborts;
  S.ResourceRecoveries = GovRecoveries;
  S.ResourceEscalations = GovEscalations;
  return S;
}

//===----------------------------------------------------------------------===//
// Resource governor (docs/robustness.md)
//===----------------------------------------------------------------------===//

void Manager::setResourceLimits(const ResourceLimits &L) {
  Limits = L;
  GovDeadlineAt = L.TimeLimitMicros
                      ? std::chrono::steady_clock::now() +
                            std::chrono::microseconds(L.TimeLimitMicros)
                      : std::chrono::steady_clock::time_point{};
  GovEnabled = Limits.any() || FaultRate != 0;
}

ResourceLimits Manager::resourceLimits() const { return Limits; }

void Manager::setFaultInjection(uint64_t Seed, uint32_t Rate) {
  FaultSeed = Seed;
  FaultRate = Rate;
  FaultCounter = 0;
  GovEnabled = Limits.any() || FaultRate != 0;
}

size_t Manager::heapBytesApprox() const {
  return Nodes.bytes() + NumBuckets * sizeof(uint32_t) +
         Cache.bytes() + Marks.capacity() +
         Stamps.capacity() * sizeof(uint32_t) +
         ExactMemo.capacity() * sizeof(unsigned __int128) +
         ApproxMemo.capacity() * sizeof(double);
}

size_t Manager::notePeaks() {
  GovNodesPeak = std::max(GovNodesPeak, usedNodesImpl());
  size_t Bytes = heapBytesApprox();
  GovBytesPeak = std::max(GovBytesPeak, Bytes);
  return Bytes;
}

bool Manager::faultRoll() {
  // splitmix64 finalizer over a checkpoint counter: deterministic for a
  // fixed seed and checkpoint sequence, uniform enough for a 1-in-Rate
  // trip probability.
  uint64_t N = FaultCounter++ + FaultSeed;
  N ^= N >> 30;
  N *= 0xbf58476d1ce4e5b9ULL;
  N ^= N >> 27;
  N *= 0x94d049bb133111ebULL;
  N ^= N >> 31;
  return N % FaultRate == 0;
}

void Manager::throwResource(ResourceExhausted::Kind Kind) {
  using K = ResourceExhausted::Kind;
  size_t NP = GovNodesPeak;
  size_t BP = GovBytesPeak;
  std::string Msg = "BDD resource limit tripped: ";
  Msg += resourceKindName(Kind);
  if (Kind == K::Nodes)
    Msg += " (max-nodes " + std::to_string(Limits.MaxNodes) + ")";
  else if (Kind == K::Bytes)
    Msg += " (max-bytes " + std::to_string(Limits.MaxBytes) + ")";
  Msg += "; peak " + std::to_string(NP) + " nodes / " + std::to_string(BP) +
         " bytes";
  throw ResourceExhausted(Kind, Msg, NP, BP);
}

std::optional<ResourceExhausted::Kind> Manager::governorExpired() const {
  if (Limits.Cancel && Limits.Cancel->load(std::memory_order_relaxed))
    return ResourceExhausted::Kind::Cancelled;
  if (Limits.TimeLimitMicros &&
      std::chrono::steady_clock::now() >= GovDeadlineAt)
    return ResourceExhausted::Kind::Deadline;
  return std::nullopt;
}

void Manager::governorBoundary() {
  if (!GovEnabled)
    return;
  if (auto Kind = governorExpired())
    throwResource(*Kind);
  if (FaultRate && faultRoll())
    throwResource(ResourceExhausted::Kind::FaultInjected);
}

void Manager::governorPreOp() {
  // Escalation ladder under node pressure (flush caches → GC → abort):
  // gcImpl covers the first two rungs, once per episode. If usage still
  // sits above 7/8 of the ceiling afterwards the ladder is exhausted; the
  // operation proceeds and aborts at the allocation that crosses the
  // ceiling.
  if (Limits.MaxNodes) {
    size_t Used = usedNodesImpl();
    if (Used * 8 >= Limits.MaxNodes * 7 && !GovEscalated) {
      ++GovEscalations;
      gcImpl();
      Used = usedNodesImpl();
      if (Used * 8 >= Limits.MaxNodes * 7)
        GovEscalated = true; // Ladder exhausted for this episode.
    }
    if (Used * 2 < Limits.MaxNodes)
      GovEscalated = false;
  }
  governorBoundary();
}

void Manager::governorCheckAlloc() {
  notePeaks();
  size_t Used = usedNodesImpl();
  if (Limits.MaxNodes && Used >= Limits.MaxNodes)
    throwResource(ResourceExhausted::Kind::Nodes);
  if (FaultRate && faultRoll())
    throwResource(ResourceExhausted::Kind::AllocFailed);
  if ((++GovTick & GovTickMask) == 0) {
    size_t Bytes = heapBytesApprox();
    if (Limits.MaxBytes && Bytes >= Limits.MaxBytes)
      throwResource(ResourceExhausted::Kind::Bytes);
    if (auto Kind = governorExpired())
      throwResource(*Kind);
  }
}

void Manager::recoverAfterAbort(const ResourceExhausted &E) {
  ++GovAborts;
  {
    obs::SpanGuard Span(obs::Cat::Resource, "abort");
    Span.arg("kind", static_cast<uint64_t>(E.What));
    Span.arg("nodes_peak", E.NodesPeak);
    Span.arg("bytes_peak", E.BytesPeak);
  }
  {
    obs::SpanGuard Span(obs::Cat::Resource, "recovery");
    // GC + cache flush: sweeps every intermediate the aborted recursion
    // left unreferenced and drops cache entries pointing at them. After
    // this the manager holds exactly the externally referenced state it
    // had before the operation started.
    gcImpl();
    Span.arg("live_nodes", Nodes.size() - FreeCount - 2);
  }
  ++GovRecoveries;
}

//===----------------------------------------------------------------------===//
// Operation entry points
//===----------------------------------------------------------------------===//

template <typename Fn> auto Manager::runOp(Fn &&Body) {
  return governed([&] {
    gcIfNeededImpl();
    return Body();
  });
}

template <typename Fn>
Bdd Manager::kernelOp(obs::SpanGuard &Span,
                      std::initializer_list<const Bdd *> Operands,
                      Fn &&Rec) {
  if (Span.detail()) {
    assert(Operands.size() <= 2 && "spans name two operands at most");
    const char *const Keys[] = {"left_nodes", "right_nodes"};
    const char *const *Key = Keys;
    for (const Bdd *Operand : Operands)
      Span.arg(*Key++, nodeCount(*Operand));
  }
  size_t Created0 = NodesCreated, Hits0 = Cache.hits(),
         Lookups0 = Cache.lookups();
  Bdd Result = runOp([&] { return Bdd(this, Rec()); });
  Span.arg("nodes_created", NodesCreated - Created0);
  Span.arg("cache_hits", Cache.hits() - Hits0);
  Span.arg("cache_lookups", Cache.lookups() - Lookups0);
  if (Span.detail())
    Span.arg("result_nodes", nodeCount(Result));
  return Result;
}

//===----------------------------------------------------------------------===//
// Literals and the kernel operations
//===----------------------------------------------------------------------===//

Bdd Manager::var(unsigned Var) {
  assert(Var < NumVars && "client variable out of range");
  return runOp(
      [&] { return Bdd(this, makeNode(Var, FalseRef, TrueRef)); });
}

Bdd Manager::nvar(unsigned Var) {
  assert(Var < NumVars && "client variable out of range");
  return runOp(
      [&] { return Bdd(this, makeNode(Var, TrueRef, FalseRef)); });
}

Bdd Manager::apply(Op Operator, const Bdd &F, const Bdd &G) {
  assert(F.manager() == this && G.manager() == this &&
         "operands belong to another manager");
  obs::SpanGuard Span(obs::Cat::Bdd, applyOpName(Operator));
  return kernelOp(Span, {&F, &G}, [&] {
    return Kernel::applyRec(*this, Operator, F.ref(), G.ref());
  });
}

Bdd Manager::bddNot(const Bdd &F) {
  assert(F.manager() == this && "operand belongs to another manager");
  return runOp([&] { return Bdd(this, Kernel::notRec(*this, F.ref())); });
}

Bdd Manager::ite(const Bdd &F, const Bdd &G, const Bdd &H) {
  assert(F.manager() == this && G.manager() == this && H.manager() == this &&
         "operands belong to another manager");
  obs::SpanGuard Span(obs::Cat::Bdd, "ite");
  return kernelOp(Span, {&F, &G}, [&] {
    return Kernel::iteRec(*this, F.ref(), G.ref(), H.ref());
  });
}

Bdd Manager::cube(const std::vector<unsigned> &Vars) {
  std::vector<unsigned> Sorted(Vars);
#ifndef NDEBUG
  for (unsigned V : Sorted)
    assert(V < NumVars && "cube variable out of range");
#endif
  std::sort(Sorted.begin(), Sorted.end());
  return runOp([&] {
    assert(std::adjacent_find(Sorted.begin(), Sorted.end()) == Sorted.end() &&
           "duplicate variable in cube");
    NodeRef Result = TrueRef;
    for (size_t I = Sorted.size(); I-- > 0;)
      Result = makeNode(Sorted[I], FalseRef, Result);
    return Bdd(this, Result);
  });
}

NodeRef Manager::mintermsRec(const std::vector<unsigned> &Vars, size_t Depth,
                             uint64_t *Rows, size_t NumRows, size_t Words) {
  if (NumRows == 0)
    return FalseRef;
  if (Depth == Vars.size())
    return TrueRef; // Every row left is this one assignment.
  const size_t Word = Depth / 64;
  const uint64_t Mask = uint64_t(1) << (Depth % 64);
  auto IsSet = [&](size_t Row) {
    return (Rows[Row * Words + Word] & Mask) != 0;
  };
  // Partition: rows with the bit clear first, then rows with it set.
  size_t Lo = 0, Hi = NumRows;
  while (true) {
    while (Lo != Hi && !IsSet(Lo))
      ++Lo;
    while (Lo != Hi && IsSet(Hi - 1))
      --Hi;
    if (Lo == Hi)
      break;
    --Hi;
    std::swap_ranges(Rows + Lo * Words, Rows + (Lo + 1) * Words,
                     Rows + Hi * Words);
    ++Lo;
  }
  NodeRef Low = mintermsRec(Vars, Depth + 1, Rows, Lo, Words);
  NodeRef High =
      mintermsRec(Vars, Depth + 1, Rows + Lo * Words, NumRows - Lo, Words);
  return makeNode(Vars[Depth], Low, High);
}

Bdd Manager::minterms(const std::vector<unsigned> &Vars, size_t NumRows,
                      std::vector<uint64_t> Rows) {
  const size_t Words = (Vars.size() + 63) / 64;
  assert(Rows.size() == NumRows * Words && "rows do not match the variables");
#ifndef NDEBUG
  for (size_t I = 0; I != Vars.size(); ++I)
    assert(Vars[I] < NumVars && (I == 0 || Vars[I - 1] < Vars[I]) &&
           "minterm variables must be client variables in level order");
#endif
  obs::SpanGuard Span(obs::Cat::Bdd, "minterms");
  Span.arg("rows", NumRows);
  return kernelOp(Span, {}, [&] {
    return mintermsRec(Vars, 0, Rows.data(), NumRows, Words);
  });
}

Bdd Manager::exists(const Bdd &F, const Bdd &CubeBdd) {
  assert(F.manager() == this && CubeBdd.manager() == this &&
         "operands belong to another manager");
  obs::SpanGuard Span(obs::Cat::Bdd, "exists");
  return kernelOp(Span, {&F}, [&] {
    return Kernel::existsRec(*this, F.ref(), CubeBdd.ref());
  });
}

Bdd Manager::relProd(const Bdd &F, const Bdd &G, const Bdd &CubeBdd) {
  assert(F.manager() == this && G.manager() == this &&
         CubeBdd.manager() == this && "operands belong to another manager");
  obs::SpanGuard Span(obs::Cat::Bdd, "relProd");
  return kernelOp(Span, {&F, &G}, [&] {
    return Kernel::relProdRec(*this, F.ref(), G.ref(), CubeBdd.ref());
  });
}

//===----------------------------------------------------------------------===//
// Replace
//===----------------------------------------------------------------------===//

bool Manager::isOrderPreserving(const std::vector<int> &Map,
                                const std::vector<unsigned> &Vars) {
  // The single-recursion fast path relabels nodes in place, which is
  // sound exactly when the images are strictly increasing down the
  // variables (sorted ascending, so in order).
  uint32_t LastImage = 0;
  bool First = true;
  for (unsigned V : Vars) {
    unsigned Image =
        (V < Map.size() && Map[V] >= 0) ? static_cast<unsigned>(Map[V]) : V;
    if (!First && Image <= LastImage)
      return false;
    LastImage = Image;
    First = false;
  }
  return true;
}

bool Manager::mapPreservesOrder(const std::vector<int> &Map) const {
  // An operand's support avoids the targets that stay put (replace's
  // contract), so order preserved on the rest is preserved on it.
  std::vector<bool> Target(NumVars, false);
  for (unsigned V = 0; V != Map.size(); ++V)
    if (movesVar(Map, V)) {
      assert(static_cast<unsigned>(Map[V]) < NumVars && "target out of range");
      Target[Map[V]] = true;
    }
  std::vector<unsigned> MayOccur;
  for (unsigned V = 0; V != NumVars; ++V)
    if (!Target[V] || movesVar(Map, V))
      MayOccur.push_back(V);
  return isOrderPreserving(Map, MayOccur);
}

NodeRef Manager::replaceRec(NodeRef F, const std::vector<int> &FullMap,
                            uint32_t MapId) {
  if (isTerminal(F))
    return F;
  NodeRef Result;
  if (Cache.lookup(TagReplace, F, MapId, 0, Result))
    return Result;
  NodeRef Low = replaceRec(Nodes[F].Low, FullMap, MapId);
  NodeRef High = replaceRec(Nodes[F].High, FullMap, MapId);
  uint32_t Var = Nodes[F].Var;
  uint32_t Image =
      (Var < FullMap.size() && FullMap[Var] >= 0) ? FullMap[Var] : Var;
  Result = makeNode(Image, Low, High);
  Cache.store(TagReplace, F, MapId, 0, Result);
  return Result;
}

Bdd Manager::replace(const Bdd &F, const std::vector<int> &Map) {
  assert(F.manager() == this && "operand belongs to another manager");
  assert(Map.size() <= NumVars && "replace map covers client variables only");
  obs::SpanGuard Span(obs::Cat::Bdd, "replace");
  return kernelOp(Span, {&F}, [&] { return replaceImpl(F.ref(), Map); });
}

NodeRef Manager::replaceImpl(NodeRef F, const std::vector<int> &Map) {
#ifndef NDEBUG
  // Validity: injective on the moved sources; targets either moved away
  // themselves or absent from the support.
  {
    std::vector<unsigned> Supp = supportImpl(F);
    std::vector<std::pair<unsigned, unsigned>> Moves;
    for (unsigned V : Supp)
      if (movesVar(Map, V))
        Moves.push_back({V, static_cast<unsigned>(Map[V])});
    std::vector<unsigned> Targets;
    for (auto &M : Moves)
      Targets.push_back(M.second);
    std::sort(Targets.begin(), Targets.end());
    assert(std::adjacent_find(Targets.begin(), Targets.end()) ==
               Targets.end() &&
           "replace map must be injective");
    for (unsigned T : Targets) {
      bool InSupport = std::binary_search(Supp.begin(), Supp.end(), T);
      bool IsMovedSource = false;
      for (auto &M : Moves)
        IsMovedSource |= (M.first == T);
      assert((!InSupport || IsMovedSource) &&
             "replace target collides with a live variable");
    }
  }
#endif

  // Cache entries are keyed per distinct map, by an id from a registry
  // owned by this manager: the ids key this manager's computed cache, so
  // they must never collide with another manager's maps. The id is
  // operand B of the key, so the ids of all the maps a manager can hold
  // fit it.
  auto [It, Inserted] = ReplaceMapIds.try_emplace(Map);
  ReplaceMapInfo &Info = It->second;
  if (Inserted)
    Info = {static_cast<uint32_t>(ReplaceMapIds.size() - 1),
            mapPreservesOrder(Map)};

  // A single bottom-up relabeling recursion is sound whenever relative
  // variable order is unchanged on F's support: for every operand when
  // the whole map preserves order, else as the support decides.
  bool OrderPreserving =
      Info.OrderPreserving || isOrderPreserving(Map, supportImpl(F));
  assert((!OrderPreserving || isOrderPreserving(Map, supportImpl(F))) &&
         "a map that preserves order must preserve it on the support");
  if (OrderPreserving)
    return replaceRec(F, Map, Info.Id);

  // General path (order-inverting maps, e.g. swaps of interleaved
  // blocks): rebuild bottom-up, inserting each image variable with an
  // ITE so it sinks to its proper level. Correct for any injective map
  // whose targets are free (asserted above); polynomial, unlike the
  // naive conjunction-with-equality encoding, whose transfer BDD is
  // exponential in the block width.
  ++ReorderingReplaces;
  return replaceViaIteRec(F, Map, Info.Id);
}

jedd::bdd::NodeRef Manager::replaceViaIteRec(NodeRef F,
                                             const std::vector<int> &Map,
                                             uint32_t MapId) {
  if (isTerminal(F))
    return F;
  NodeRef Result;
  if (Cache.lookup(TagReplaceIte, F, MapId, 0, Result))
    return Result;
  NodeRef Low = replaceViaIteRec(Nodes[F].Low, Map, MapId);
  NodeRef High = replaceViaIteRec(Nodes[F].High, Map, MapId);
  uint32_t Var = Nodes[F].Var;
  uint32_t Image =
      (Var < Map.size() && Map[Var] >= 0) ? Map[Var] : Var;
  NodeRef Lit = makeNode(Image, FalseRef, TrueRef);
  Result = Kernel::iteRec(*this, Lit, High, Low);
  Cache.store(TagReplaceIte, F, MapId, 0, Result);
  return Result;
}

//===----------------------------------------------------------------------===//
// Restrict
//===----------------------------------------------------------------------===//

NodeRef Manager::restrictRec(NodeRef F, unsigned Var, bool Value) {
  if (isTerminal(F) || varOf(F) > Var)
    return F;
  uint32_t Tag = Value ? TagRestrict1 : TagRestrict0;
  if (varOf(F) == Var)
    return Value ? Nodes[F].High : Nodes[F].Low;
  NodeRef Result;
  if (Cache.lookup(Tag, F, Var, 0, Result))
    return Result;
  NodeRef Low = restrictRec(Nodes[F].Low, Var, Value);
  NodeRef High = restrictRec(Nodes[F].High, Var, Value);
  Result = makeNode(Nodes[F].Var, Low, High);
  Cache.store(Tag, F, Var, 0, Result);
  return Result;
}

Bdd Manager::restrict(const Bdd &F, unsigned Var, bool Value) {
  assert(F.manager() == this && "operand belongs to another manager");
  assert(Var < NumVars && "variable out of range");
  return runOp(
      [&] { return Bdd(this, restrictRec(F.ref(), Var, Value)); });
}

//===----------------------------------------------------------------------===//
// Inspection
//===----------------------------------------------------------------------===//

template <typename Fn> void Manager::walk(NodeRef Root, Fn &&Visit) const {
  if (isTerminal(Root))
    return;
  if (Stamps.size() < Nodes.size())
    Stamps.resize(Nodes.size(), 0);
  // A walk issues at most one stamp per slot; restart below the wrap.
  if (WalkEnd > UINT32_MAX - Nodes.size()) {
    std::fill(Stamps.begin(), Stamps.end(), 0);
    WalkEnd = 1;
  }
  const uint32_t Base = WalkBase = WalkEnd;
  uint32_t Next = Base;
  // Explicit post-order. An entry's top bit says its children have been
  // pushed (node refs stay below 2^27). A node may sit on the stack more
  // than once (once per parent expanded before it was visited), but only
  // its first pop after expansion visits and stamps it, and by then both
  // children have been visited: the visit order is a topological order
  // of the DAG.
  constexpr NodeRef Expanded = NodeRef(1) << 31;
  std::vector<NodeRef> Stack = {Root};
  while (!Stack.empty()) {
    NodeRef Top = Stack.back();
    NodeRef N = Top & ~Expanded;
    if (Stamps[N] >= Base) {
      Stack.pop_back();
    } else if (Top & Expanded) {
      Stack.pop_back();
      Stamps[N] = Next++;
      Visit(N, Nodes[N]);
    } else {
      Stack.back() = Top | Expanded;
      // Push high first so the low subtree is visited first.
      for (NodeRef Child : {Nodes[N].High, Nodes[N].Low})
        if (!isTerminal(Child) && Stamps[Child] < Base)
          Stack.push_back(Child);
    }
  }
  WalkEnd = Next;
}

namespace {

using u128 = unsigned __int128;
constexpr u128 SatCountMax = ~u128(0);

// The arithmetic of the two tuple counts: X * 2^Shift and A + B,
// saturating at 2^128 - 1 for the exact count and floating for double.
inline u128 scaleCount(u128 X, unsigned Shift, bool &Saturated) {
  if (X == 0)
    return 0;
  if (Shift >= 128 || X > (SatCountMax >> Shift)) {
    Saturated = true;
    return SatCountMax;
  }
  return X << Shift;
}
inline u128 addCount(u128 A, u128 B, bool &Saturated) {
  if (A > SatCountMax - B) {
    Saturated = true;
    return SatCountMax;
  }
  return A + B;
}
inline double scaleCount(double X, unsigned Shift, bool &) {
  return std::ldexp(X, static_cast<int>(Shift));
}
inline double addCount(double A, double B, bool &) { return A + B; }

} // namespace

template <typename T>
T Manager::countImpl(NodeRef Root, const std::vector<unsigned> *Vars,
                     bool &Saturated) {
  // Pos[v] is v's index among the counted variables; a node's count
  // doubles once per counted variable skipped between it and a child.
  constexpr unsigned NotCounted = ~0u;
  std::vector<unsigned> Pos;
  unsigned End = NumVars;
  if (Vars) {
    assert(std::is_sorted(Vars->begin(), Vars->end()) &&
           "counting variables must be sorted");
    Pos.assign(NumVars, NotCounted);
    for (unsigned I = 0; I != Vars->size(); ++I)
      Pos[(*Vars)[I]] = I;
    End = static_cast<unsigned>(Vars->size());
  }
  auto PosOf = [&](NodeRef N) {
    return isTerminal(N) ? End : Vars ? Pos[varOf(N)] : varOf(N);
  };

  std::vector<T> &Memo = [&]() -> std::vector<T> & {
    if constexpr (std::is_same_v<T, double>)
      return ApproxMemo;
    else
      return ExactMemo;
  }();
  Memo.clear();
  auto Count = [&](NodeRef N) -> T {
    return isTerminal(N) ? T(N == TrueRef) : Memo[walkIndex(N)];
  };
  walk(Root, [&](NodeRef N, const Node &Nd) {
    unsigned P = PosOf(N);
    assert(P != NotCounted && "counting variables must cover the support");
    T Low = scaleCount(Count(Nd.Low), PosOf(Nd.Low) - P - 1, Saturated);
    T High = scaleCount(Count(Nd.High), PosOf(Nd.High) - P - 1, Saturated);
    Memo.push_back(addCount(Low, High, Saturated));
  });
  return scaleCount(Count(Root), PosOf(Root), Saturated);
}

SatCount Manager::satCountExactImpl(NodeRef Root,
                                    const std::vector<unsigned> *Vars) {
  SatCount Result;
  u128 Count = countImpl<u128>(Root, Vars, Result.Saturated);
  Result.Hi = static_cast<uint64_t>(Count >> 64);
  Result.Lo = static_cast<uint64_t>(Count);
  return Result;
}

double Manager::satCountImpl(NodeRef Root, const std::vector<unsigned> *Vars) {
  // Exact below 2^128; only counts past it need the floating-point fold.
  SatCount Exact = satCountExactImpl(Root, Vars);
  if (!Exact.Saturated)
    return Exact.toDouble();
  bool Unused = false;
  return countImpl<double>(Root, Vars, Unused);
}

SatCount Manager::satCountExact(const Bdd &F) {
  assert(F.manager() == this && "operand belongs to another manager");
  return satCountExactImpl(F.ref(), nullptr);
}

SatCount Manager::satCountExact(const Bdd &F,
                                const std::vector<unsigned> &Vars) {
  assert(F.manager() == this && "operand belongs to another manager");
  return satCountExactImpl(F.ref(), &Vars);
}

double Manager::satCount(const Bdd &F) {
  assert(F.manager() == this && "operand belongs to another manager");
  return satCountImpl(F.ref(), nullptr);
}

double Manager::satCount(const Bdd &F, const std::vector<unsigned> &Vars) {
  assert(F.manager() == this && "operand belongs to another manager");
  return satCountImpl(F.ref(), &Vars);
}

double SatCount::toDouble() const {
  return std::ldexp(static_cast<double>(Hi), 64) + static_cast<double>(Lo);
}

std::string SatCount::toString() const {
  if (Saturated)
    return ">=2^128";
  u128 V = (static_cast<u128>(Hi) << 64) | static_cast<u128>(Lo);
  if (V == 0)
    return "0";
  std::string Digits;
  while (V != 0) {
    Digits.push_back(static_cast<char>('0' + static_cast<unsigned>(V % 10)));
    V /= 10;
  }
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}

size_t Manager::nodeCount(const Bdd &F) {
  size_t Count = 0;
  walk(F.ref(), [&](NodeRef, const Node &) { ++Count; });
  return Count;
}

void Manager::traverse(
    const Bdd &F, const std::function<void(NodeRef Node, unsigned Var,
                                           NodeRef Low, NodeRef High)> &Fn) {
  walk(F.ref(),
       [&](NodeRef N, const Node &Nd) { Fn(N, Nd.Var, Nd.Low, Nd.High); });
}

std::vector<size_t> Manager::levelShape(const Bdd &F) {
  std::vector<size_t> Shape(NumVars, 0);
  walk(F.ref(), [&](NodeRef, const Node &Nd) { ++Shape[Nd.Var]; });
  return Shape;
}

std::vector<unsigned> Manager::support(const Bdd &F) {
  assert(F.manager() == this && "operand belongs to another manager");
  return supportImpl(F.ref());
}

std::vector<unsigned> Manager::supportImpl(NodeRef Root) const {
  std::vector<uint8_t> InSupport(NumVars, 0);
  walk(Root, [&](NodeRef, const Node &Nd) { InSupport[Nd.Var] = 1; });
  std::vector<unsigned> Result;
  for (unsigned V = 0; V != NumVars; ++V)
    if (InSupport[V])
      Result.push_back(V);
  return Result;
}

void Manager::enumerate(
    const Bdd &F, const std::vector<unsigned> &Vars,
    const std::function<bool(const std::vector<bool> &)> &Fn) {
  // Fn may call back into this manager (see the declaration): the walk
  // holds only NodeRefs below F, which stay allocated while F is held.
  assert(std::is_sorted(Vars.begin(), Vars.end()) &&
         "enumeration variables must be sorted");
#ifndef NDEBUG
  for (unsigned V : supportImpl(F.ref()))
    assert(std::find(Vars.begin(), Vars.end(), V) != Vars.end() &&
           "enumeration variables must cover the support");
#endif

  std::vector<bool> Bits(Vars.size(), false);
  // Returns false when the callback asked to stop.
  std::function<bool(NodeRef, size_t)> Rec = [&](NodeRef N,
                                                 size_t Index) -> bool {
    if (N == FalseRef)
      return true;
    if (Index == Vars.size())
      return Fn(Bits);
    uint32_t Var = Vars[Index];
    if (!isTerminal(N) && varOf(N) == Var) {
      Bits[Index] = false;
      if (!Rec(Nodes[N].Low, Index + 1))
        return false;
      Bits[Index] = true;
      return Rec(Nodes[N].High, Index + 1);
    }
    // Don't-care on Var: both branches on the same node.
    Bits[Index] = false;
    if (!Rec(N, Index + 1))
      return false;
    Bits[Index] = true;
    return Rec(N, Index + 1);
  };
  Rec(F.ref(), 0);
}

bool Manager::evalAssignment(const Bdd &F,
                             const std::vector<bool> &Assignment) const {
  NodeRef N = F.ref();
  while (!isTerminal(N)) {
    assert(Nodes[N].Var < Assignment.size() &&
           "assignment does not cover the support");
    N = Assignment[Nodes[N].Var] ? Nodes[N].High : Nodes[N].Low;
  }
  return N == TrueRef;
}

