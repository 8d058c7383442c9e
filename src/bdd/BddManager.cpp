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

void Manager::NodePool::growTo(size_t NewCap) {
  if (Chunks.capacity() == 0)
    Chunks.reserve(MaxChunks); // Never reallocates afterwards.
  size_t Current = Cap.load(std::memory_order_relaxed);
  while (Current < NewCap) {
    // Address-space exhaustion surfaces like any allocation failure; the
    // callers translate it to ResourceExhausted.
    if (Chunks.size() >= MaxChunks)
      throw std::bad_alloc();
    Chunks.push_back(std::make_unique<Node[]>(ChunkSize));
    Current += ChunkSize;
  }
  Cap.store(Current, std::memory_order_relaxed);
}

Manager::ComputedCache::ComputedCache(size_t MinEntries)
    : Entries(roundUpPow2(MinEntries)), Mask(Entries.size() - 1) {}

void Manager::ComputedCache::clear() {
  std::fill(Entries.begin(), Entries.end(), Entry());
}

bool Manager::ComputedCache::empty() const {
  return std::all_of(Entries.begin(), Entries.end(),
                     [](const Entry &E) { return E.Tag == InvalidTag; });
}

Manager::Manager(unsigned NumVars, size_t InitialNodes, size_t CacheSize)
    : NumVars(NumVars), TotalVars(2 * NumVars),
      Cache(std::max<size_t>(CacheSize, 1024)) {
  assert(NumVars > 0 && "a manager needs at least one variable");
  size_t Capacity =
      std::max<size_t>(roundUpPow2(InitialNodes), NodePool::ChunkSize);
  Nodes.growTo(Capacity);
  Marks.assign(Capacity, 0);
  Buckets.assign(roundUpPow2(Capacity), NoNode);

  // Terminals. A permanent reference count keeps them off the free list.
  Nodes[FalseRef] = {VarTerminal, FalseRef, FalseRef, NoNode, 1};
  Nodes[TrueRef] = {VarTerminal, TrueRef, TrueRef, NoNode, 1};

  // Chain the remaining slots onto the free list (ascending order so node
  // indices are allocated densely from low addresses).
  FreeHead = NoNode;
  FreeCount = 0;
  for (size_t I = Capacity; I-- > 2;) {
    Nodes[I].Var = VarFree;
    Nodes[I].Low = FreeHead;
    FreeHead = static_cast<uint32_t>(I);
    ++FreeCount;
  }

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
  assert(Var < TotalVars && "variable out of range");
  assert(varOf(Low) > Var && varOf(High) > Var &&
         "children must be below the new node in the order");
  if (Low == High)
    return Low;

  uint32_t Hash = hashTriple(Var, Low, High) & (Buckets.size() - 1);
  for (uint32_t N = Buckets[Hash]; N != NoNode; N = Nodes[N].Next)
    if (Nodes[N].Var == Var && Nodes[N].Low == Low && Nodes[N].High == High)
      return N;

  // Governor checkpoint at the allocation level (ceilings, periodic
  // deadline/cancel poll, injected allocation failures).
  if (GovEnabled)
    governorCheckAlloc();

  if (FreeHead == NoNode) {
    growPool();
    Hash = hashTriple(Var, Low, High) & (Buckets.size() - 1);
  }

  uint32_t N = FreeHead;
  FreeHead = Nodes[N].Low;
  --FreeCount;
  ++NodesCreated;
  Nodes[N] = {Var, Low, High, Buckets[Hash], 0};
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
  size_t NewCapacity = OldCapacity * 2;
  try {
    Nodes.growTo(NewCapacity);
    Marks.resize(NewCapacity, 0);
  } catch (const std::bad_alloc &) {
    // The pool/mark vectors are still consistent (growth appends only);
    // the recovery GC run by governed() reclaims whatever the aborted
    // operation allocated so far.
    throwResource(ResourceExhausted::Kind::AllocFailed);
  }
  for (size_t I = NewCapacity; I-- > OldCapacity;) {
    Nodes[I].Var = VarFree;
    Nodes[I].Low = FreeHead;
    FreeHead = static_cast<uint32_t>(I);
    ++FreeCount;
  }
  if (Nodes.size() > 2 * Buckets.size())
    rehash();
}

void Manager::rehash() {
  try {
    Buckets.assign(roundUpPow2(Nodes.size()), NoNode);
  } catch (const std::bad_alloc &) {
    // assign allocates before mutating, so the old bucket array is
    // intact; long chains are a performance problem, not a correctness
    // one. Surface the failure as a governor abort.
    throwResource(ResourceExhausted::Kind::AllocFailed);
  }
  for (uint32_t N = 2, E = static_cast<uint32_t>(Nodes.size()); N != E; ++N) {
    Node &Nd = Nodes[N];
    if (Nd.Var >= VarFree)
      continue;
    uint32_t Hash = hashTriple(Nd.Var, Nd.Low, Nd.High) & (Buckets.size() - 1);
    Nd.Next = Buckets[Hash];
    Buckets[Hash] = N;
  }
}

void Manager::markRec(NodeRef N) {
  while (!isTerminal(N) && !Marks[N]) {
    Marks[N] = 1;
    markRec(Nodes[N].Low);
    N = Nodes[N].High;
  }
}

void Manager::gcImpl() {
  obs::SpanGuard Span(obs::Cat::Gc, "collect");
  size_t FreeBefore = FreeCount;
  // A growPool whose mark-vector resize failed leaves Marks short.
  if (Marks.size() < Nodes.size())
    Marks.resize(Nodes.size(), 0);
  std::fill(Marks.begin(), Marks.end(), 0);
  for (uint32_t N = 2, E = static_cast<uint32_t>(Nodes.size()); N != E; ++N)
    if (Nodes[N].Var < VarFree && Nodes[N].RefCount > 0)
      markRec(N);

  FreeHead = NoNode;
  FreeCount = 0;
  for (size_t I = Nodes.size(); I-- > 2;) {
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
  if (Span.active()) {
    Span.arg("capacity", Nodes.size());
    Span.arg("live_nodes", Nodes.size() - FreeCount - 2);
    Span.arg("freed_nodes", FreeCount - FreeBefore);
    obs::Tracer &T = obs::Tracer::instance();
    T.counterAdd("gc.runs");
    T.histRecord("gc.freed_nodes", FreeCount - FreeBefore);
  }
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
  uint32_t &Count = Nodes[Ref].RefCount;
  if (Count != 0xFFFFFFFFu)
    ++Count;
}

void Manager::decRef(NodeRef Ref) {
  uint32_t &Count = Nodes[Ref].RefCount;
  assert(Count > 0 && "reference count underflow");
  if (Count != 0xFFFFFFFFu)
    --Count;
}

uint32_t Manager::refCount(NodeRef Ref) const { return Nodes[Ref].RefCount; }

size_t Manager::liveNodeCount() {
  if (Marks.size() < Nodes.size())
    Marks.resize(Nodes.size(), 0);
  std::fill(Marks.begin(), Marks.end(), 0);
  size_t Live = 0;
  for (uint32_t N = 2, E = static_cast<uint32_t>(Nodes.size()); N != E; ++N)
    if (Nodes[N].Var < VarFree && Nodes[N].RefCount > 0)
      markRec(N);
  for (uint32_t N = 2, E = static_cast<uint32_t>(Nodes.size()); N != E; ++N)
    if (Nodes[N].Var < VarFree && Marks[N])
      ++Live;
  return Live;
}

std::string Manager::checkInvariants() const {
  const uint32_t Size = static_cast<uint32_t>(Nodes.size());
  for (NodeRef T : {FalseRef, TrueRef})
    if (Nodes[T].Var != VarTerminal || Nodes[T].Low != T ||
        Nodes[T].High != T || Nodes[T].RefCount == 0)
      return strFormat("terminal %u is corrupted", T);

  for (uint32_t N = 2; N != Size; ++N) {
    const Node &Nd = Nodes[N];
    if (Nd.Var == VarFree)
      continue;
    if (Nd.Var >= TotalVars)
      return strFormat("node %u has invalid variable %u", N, Nd.Var);
    if (Nd.Low == Nd.High)
      return strFormat("node %u is redundant (low == high == %u)", N, Nd.Low);
    for (NodeRef Child : {Nd.Low, Nd.High}) {
      if (Child >= Size || Nodes[Child].Var == VarFree)
        return strFormat("node %u has dangling child %u", N, Child);
      if (varOf(Child) <= Nd.Var)
        return strFormat("node %u (level %u) has child %u at level %u", N,
                         Nd.Var, Child, varOf(Child));
    }
  }

  // Every chain entry must be allocated, hash to its bucket and differ
  // from the chain's earlier entries; Linked counts sightings, which
  // also catches cycles.
  std::vector<uint8_t> Linked(Size, 0);
  const size_t Mask = Buckets.size() - 1;
  for (size_t B = 0; B != Buckets.size(); ++B) {
    for (uint32_t N = Buckets[B]; N != NoNode; N = Nodes[N].Next) {
      if (N < 2 || N >= Size || Nodes[N].Var >= TotalVars)
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
  for (uint32_t N = 2; N != Size; ++N)
    if (Nodes[N].Var != VarFree && !Linked[N])
      return strFormat("node %u is missing from the unique table", N);

  size_t FreeLen = 0;
  for (uint32_t N = FreeHead; N != NoNode; N = Nodes[N].Low)
    if (N >= Size || Nodes[N].Var != VarFree || ++FreeLen > Size)
      return strFormat("free list reaches slot %u, not a free slot", N);
  if (FreeLen != FreeCount)
    return strFormat("free list holds %zu slots but FreeCount is %zu", FreeLen,
                     FreeCount);
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
  return Nodes.size() * sizeof(Node) + Buckets.capacity() * sizeof(uint32_t) +
         Cache.bytes() + Marks.capacity() +
         Stamps.capacity() * sizeof(uint32_t);
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
    if (Span.active()) {
      Span.arg("kind", static_cast<uint64_t>(E.What));
      Span.arg("nodes_peak", E.NodesPeak);
      Span.arg("bytes_peak", E.BytesPeak);
    }
  }
  {
    obs::SpanGuard Span(obs::Cat::Resource, "recovery");
    // GC + cache flush: sweeps every intermediate the aborted recursion
    // left unreferenced and drops cache entries pointing at them. After
    // this the manager holds exactly the externally referenced state it
    // had before the operation started.
    gcImpl();
    if (Span.active()) {
      Span.arg("live_nodes", Nodes.size() - FreeCount - 2);
      obs::Tracer &T = obs::Tracer::instance();
      T.counterAdd("resource.aborts");
      T.counterMax("resource.nodes_peak", GovNodesPeak);
      T.counterMax("resource.bytes_peak", GovBytesPeak);
    }
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
    assert(V < TotalVars && "cube variable out of range");
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
                                const std::vector<unsigned> &Support) const {
  // The single-recursion fast path relabels nodes in place, which is
  // sound exactly when the images are strictly increasing down the
  // support (sorted ascending, so in order).
  uint32_t LastImage = 0;
  bool First = true;
  for (unsigned V : Support) {
    unsigned Image =
        (V < Map.size() && Map[V] >= 0) ? static_cast<unsigned>(Map[V]) : V;
    if (!First && Image <= LastImage)
      return false;
    LastImage = Image;
    First = false;
  }
  return true;
}

NodeRef Manager::replaceRec(NodeRef F, const std::vector<int> &FullMap,
                            uint32_t CacheTag) {
  if (isTerminal(F))
    return F;
  NodeRef Result;
  if (Cache.lookup(CacheTag, F, 0, 0, Result))
    return Result;
  NodeRef Low = replaceRec(Nodes[F].Low, FullMap, CacheTag);
  NodeRef High = replaceRec(Nodes[F].High, FullMap, CacheTag);
  uint32_t Var = Nodes[F].Var;
  uint32_t Image =
      (Var < FullMap.size() && FullMap[Var] >= 0) ? FullMap[Var] : Var;
  Result = makeNode(Image, Low, High);
  Cache.store(CacheTag, F, 0, 0, Result);
  return Result;
}

Bdd Manager::replace(const Bdd &F, const std::vector<int> &Map) {
  assert(F.manager() == this && "operand belongs to another manager");
  assert(Map.size() <= NumVars && "replace map covers client variables only");
  obs::SpanGuard Span(obs::Cat::Bdd, "replace");
  return kernelOp(Span, {&F}, [&] { return replaceImpl(F.ref(), Map); });
}

NodeRef Manager::replaceImpl(NodeRef F, const std::vector<int> &Map) {
  std::vector<unsigned> Supp = supportImpl(F);
  std::vector<std::pair<unsigned, unsigned>> Moves;
  for (unsigned V : Supp)
    if (V < Map.size() && Map[V] >= 0 && static_cast<unsigned>(Map[V]) != V)
      Moves.push_back({V, static_cast<unsigned>(Map[V])});
  if (Moves.empty())
    return F;

#ifndef NDEBUG
  // Validity: injective on the moved sources; targets either moved away
  // themselves or absent from the support.
  {
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

  // Cache entries are keyed per distinct map via a registry owned by
  // this manager: the tag indexes this manager's computed cache, so ids
  // must never collide with another manager's maps. The fast and general
  // paths compute the same canonical result, so they can share entries.
  // Tag-space guard: TagReplaceBase + id must stay clear of both the
  // general-path high bit and the invalid-entry sentinel. Recycling the
  // registry invalidates any cached results keyed by old ids.
  if (ReplaceMapIds.size() >= (1u << 20)) {
    ReplaceMapIds.clear();
    Cache.clear();
  }
  auto [It, Inserted] = ReplaceMapIds.try_emplace(
      Map, static_cast<uint32_t>(ReplaceMapIds.size()));
  (void)Inserted;
  uint32_t Tag = TagReplaceBase + It->second;

  if (isOrderPreserving(Map, Supp))
    // A single bottom-up relabeling recursion is sound because relative
    // variable order is unchanged.
    return replaceRec(F, Map, Tag);

  // General path (order-inverting maps, e.g. swaps of interleaved
  // blocks): rebuild bottom-up, inserting each image variable with an
  // ITE so it sinks to its proper level. Correct for any injective map
  // whose targets are free (asserted above); polynomial, unlike the
  // naive conjunction-with-equality encoding, whose transfer BDD is
  // exponential in the block width.
  ++ReorderingReplaces;
  return replaceViaIteRec(F, Map, Tag | 0x80000000u);
}

jedd::bdd::NodeRef Manager::replaceViaIteRec(NodeRef F,
                                             const std::vector<int> &Map,
                                             uint32_t Tag) {
  if (isTerminal(F))
    return F;
  NodeRef Result;
  if (Cache.lookup(Tag, F, 0, 0, Result))
    return Result;
  NodeRef Low = replaceViaIteRec(Nodes[F].Low, Map, Tag);
  NodeRef High = replaceViaIteRec(Nodes[F].High, Map, Tag);
  uint32_t Var = Nodes[F].Var;
  uint32_t Image =
      (Var < Map.size() && Map[Var] >= 0) ? Map[Var] : Var;
  NodeRef Lit = makeNode(Image, FalseRef, TrueRef);
  Result = Kernel::iteRec(*this, Lit, High, Low);
  Cache.store(Tag, F, 0, 0, Result);
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
  assert(Var < TotalVars && "variable out of range");
  return runOp(
      [&] { return Bdd(this, restrictRec(F.ref(), Var, Value)); });
}

//===----------------------------------------------------------------------===//
// Inspection
//===----------------------------------------------------------------------===//

uint32_t Manager::newStamp() const {
  if (Stamps.size() < Nodes.size())
    Stamps.resize(Nodes.size(), 0);
  if (++CurrentStamp == 0) {
    std::fill(Stamps.begin(), Stamps.end(), 0);
    CurrentStamp = 1;
  }
  return CurrentStamp;
}

double Manager::satCountRec(NodeRef F,
                            std::unordered_map<NodeRef, double> &Memo) {
  if (F == FalseRef)
    return 0.0;
  if (F == TrueRef)
    return 1.0;
  auto It = Memo.find(F);
  if (It != Memo.end())
    return It->second;
  const Node &Nd = Nodes[F];
  auto LevelOfN = [&](NodeRef N) {
    return isTerminal(N) ? NumVars : varOf(N);
  };
  double Low = satCountRec(Nd.Low, Memo) *
               std::pow(2.0, LevelOfN(Nd.Low) - Nd.Var - 1);
  double High = satCountRec(Nd.High, Memo) *
                std::pow(2.0, LevelOfN(Nd.High) - Nd.Var - 1);
  double Result = Low + High;
  Memo.emplace(F, Result);
  return Result;
}

//===----------------------------------------------------------------------===//
// Exact satisfying-assignment counting
//===----------------------------------------------------------------------===//

namespace {

constexpr unsigned __int128 SatCountMax = ~(unsigned __int128)0;

/// x * 2^Shift, clamping to the 128-bit maximum.
inline unsigned __int128 shiftSat(unsigned __int128 X, unsigned Shift,
                                  bool &Saturated) {
  if (X == 0)
    return 0;
  if (Shift >= 128 || X > (SatCountMax >> Shift)) {
    Saturated = true;
    return SatCountMax;
  }
  return X << Shift;
}

inline unsigned __int128 addSat(unsigned __int128 A, unsigned __int128 B,
                                bool &Saturated) {
  if (A > SatCountMax - B) {
    Saturated = true;
    return SatCountMax;
  }
  return A + B;
}

} // namespace

unsigned __int128
Manager::satCountExactRec(NodeRef F,
                          std::unordered_map<NodeRef, unsigned __int128> &Memo,
                          bool &Saturated) {
  if (F == FalseRef)
    return 0;
  if (F == TrueRef)
    return 1;
  auto It = Memo.find(F);
  if (It != Memo.end())
    return It->second;
  const Node &Nd = Nodes[F];
  auto LevelOfN = [&](NodeRef N) {
    return isTerminal(N) ? NumVars : varOf(N);
  };
  unsigned __int128 Low =
      shiftSat(satCountExactRec(Nd.Low, Memo, Saturated),
               LevelOfN(Nd.Low) - Nd.Var - 1, Saturated);
  unsigned __int128 High =
      shiftSat(satCountExactRec(Nd.High, Memo, Saturated),
               LevelOfN(Nd.High) - Nd.Var - 1, Saturated);
  unsigned __int128 Result = addSat(Low, High, Saturated);
  Memo.emplace(F, Result);
  return Result;
}

SatCount Manager::satCountExactImpl(NodeRef Root) {
#ifndef NDEBUG
  for (unsigned V : supportImpl(Root))
    assert(V < NumVars && "satCount over a BDD holding scratch variables");
#endif
  std::unordered_map<NodeRef, unsigned __int128> Memo;
  bool Saturated = false;
  unsigned TopLevel = isTerminal(Root) ? NumVars : varOf(Root);
  unsigned __int128 Count =
      shiftSat(satCountExactRec(Root, Memo, Saturated), TopLevel, Saturated);
  SatCount Result;
  Result.Saturated = Saturated;
  Result.Hi = static_cast<uint64_t>(Count >> 64);
  Result.Lo = static_cast<uint64_t>(Count);
  return Result;
}

SatCount Manager::satCountExact(const Bdd &F) {
  assert(F.manager() == this && "operand belongs to another manager");
  return satCountExactImpl(F.ref());
}

double Manager::satCount(const Bdd &F) {
  assert(F.manager() == this && "operand belongs to another manager");
  // Wrapper over the exact count; only counts beyond 2^128 - 1 (possible
  // with 128+ variables) fall back to the floating-point recursion.
  SatCount Exact = satCountExactImpl(F.ref());
  if (!Exact.Saturated)
    return Exact.toDouble();
  std::unordered_map<NodeRef, double> Memo;
  NodeRef Root = F.ref();
  unsigned TopLevel = isTerminal(Root) ? NumVars : varOf(Root);
  return satCountRec(Root, Memo) * std::pow(2.0, TopLevel);
}

double SatCount::toDouble() const {
  return std::ldexp(static_cast<double>(Hi), 64) + static_cast<double>(Lo);
}

std::string SatCount::toString() const {
  if (Saturated)
    return ">=2^128";
  unsigned __int128 V =
      (static_cast<unsigned __int128>(Hi) << 64) | static_cast<unsigned __int128>(Lo);
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
  uint32_t Stamp = newStamp();
  std::vector<NodeRef> Stack = {F.ref()};
  size_t Count = 0;
  while (!Stack.empty()) {
    NodeRef N = Stack.back();
    Stack.pop_back();
    if (isTerminal(N) || Stamps[N] == Stamp)
      continue;
    Stamps[N] = Stamp;
    ++Count;
    Stack.push_back(Nodes[N].Low);
    Stack.push_back(Nodes[N].High);
  }
  return Count;
}

void Manager::traverse(
    const Bdd &F, const std::function<void(NodeRef Node, unsigned Var,
                                           NodeRef Low, NodeRef High)> &Fn) {
  if (isTerminal(F.ref()))
    return;
  uint32_t Stamp = newStamp();
  // Explicit post-order: each stack entry is (node, children-expanded).
  // Nodes are stamped when *emitted*, not when pushed — a node may sit on
  // the stack more than once (once per referencing parent seen before it
  // was emitted), but only the first pop-after-expansion emits it, and by
  // then both children have been emitted. That makes the emission order a
  // topological order of the shared DAG.
  std::vector<std::pair<NodeRef, bool>> Stack = {{F.ref(), false}};
  while (!Stack.empty()) {
    NodeRef N = Stack.back().first;
    if (Stamps[N] == Stamp) {
      Stack.pop_back();
      continue;
    }
    if (Stack.back().second) {
      Stack.pop_back();
      Stamps[N] = Stamp;
      Fn(N, Nodes[N].Var, Nodes[N].Low, Nodes[N].High);
      continue;
    }
    Stack.back().second = true;
    // Push high first so low is visited first (deterministic order).
    for (NodeRef Child : {Nodes[N].High, Nodes[N].Low})
      if (!isTerminal(Child) && Stamps[Child] != Stamp)
        Stack.push_back({Child, false});
  }
}

std::vector<size_t> Manager::levelShape(const Bdd &F) {
  std::vector<size_t> Shape(NumVars, 0);
  uint32_t Stamp = newStamp();
  std::vector<NodeRef> Stack = {F.ref()};
  while (!Stack.empty()) {
    NodeRef N = Stack.back();
    Stack.pop_back();
    if (isTerminal(N) || Stamps[N] == Stamp)
      continue;
    Stamps[N] = Stamp;
    if (varOf(N) < NumVars)
      ++Shape[varOf(N)];
    Stack.push_back(Nodes[N].Low);
    Stack.push_back(Nodes[N].High);
  }
  return Shape;
}

std::vector<unsigned> Manager::support(const Bdd &F) {
  assert(F.manager() == this && "operand belongs to another manager");
  return supportImpl(F.ref());
}

std::vector<unsigned> Manager::supportImpl(NodeRef Root) const {
  std::vector<uint8_t> InSupport(TotalVars, 0);
  uint32_t Stamp = newStamp();
  std::vector<NodeRef> Stack = {Root};
  while (!Stack.empty()) {
    NodeRef N = Stack.back();
    Stack.pop_back();
    if (isTerminal(N) || Stamps[N] == Stamp)
      continue;
    Stamps[N] = Stamp;
    InSupport[Nodes[N].Var] = 1;
    Stack.push_back(Nodes[N].Low);
    Stack.push_back(Nodes[N].High);
  }
  std::vector<unsigned> Result;
  for (unsigned V = 0; V != TotalVars; ++V)
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

std::string Manager::toDot(const Bdd &F) {
  std::string Out = "digraph bdd {\n  node [shape=circle];\n";
  Out += "  f0 [shape=box,label=\"0\"];\n  f1 [shape=box,label=\"1\"];\n";
  uint32_t Stamp = newStamp();
  std::vector<NodeRef> Stack = {F.ref()};
  while (!Stack.empty()) {
    NodeRef N = Stack.back();
    Stack.pop_back();
    if (isTerminal(N) || Stamps[N] == Stamp)
      continue;
    Stamps[N] = Stamp;
    auto Name = [](NodeRef R) {
      if (R == FalseRef)
        return std::string("f0");
      if (R == TrueRef)
        return std::string("f1");
      return strFormat("n%u", R);
    };
    Out += strFormat("  n%u [label=\"x%u\"];\n", N, Nodes[N].Var);
    Out += strFormat("  n%u -> %s [style=dashed];\n", N,
                     Name(Nodes[N].Low).c_str());
    Out += strFormat("  n%u -> %s;\n", N, Name(Nodes[N].High).c_str());
    Stack.push_back(Nodes[N].Low);
    Stack.push_back(Nodes[N].High);
  }
  Out += "}\n";
  return Out;
}
