//===- Obs.cpp - Structured tracing and metrics ---------------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <new>
#include <sstream>
#include <vector>

namespace jedd {
namespace obs {

const char *catName(Cat C) {
  switch (C) {
  case Cat::Rel:
    return "rel";
  case Cat::Bdd:
    return "bdd";
  case Cat::Gc:
    return "gc";
  case Cat::Sat:
    return "sat";
  case Cat::Io:
    return "io";
  case Cat::Resource:
    return "resource";
  }
  return "?";
}

uint64_t SpanEvent::argOr(const char *Key, uint64_t Default) const {
  for (uint8_t I = 0; I != NumArgs; ++I)
    if (std::strcmp(Args[I].Key, Key) == 0)
      return Args[I].Value;
  return Default;
}

void SpanTotals::merge(const SpanTotals &Other) {
  Count += Other.Count;
  TotalMicros += Other.TotalMicros;
  MaxMicros = std::max(MaxMicros, Other.MaxMicros);
  MaxResultNodes = std::max(MaxResultNodes, Other.MaxResultNodes);
}

//===----------------------------------------------------------------------===//
// ThreadBuffer
//===----------------------------------------------------------------------===//

/// One thread's share of the tracer: its online totals and its trace
/// buffer. The owning thread appends to the buffer without locks: chunk
/// pointers are atomic, and each append publishes through one release
/// store of Count, so a reader that acquires Count sees fully written
/// events and valid chunk pointers below it. Chunks have stable
/// addresses; nothing moves after publication. The totals sit behind a
/// lock that only snapshots contend for.
class ThreadBuffer {
public:
  static constexpr size_t ChunkShift = 8;
  static constexpr size_t ChunkSize = size_t(1) << ChunkShift;
  static constexpr size_t MaxChunks = size_t(1) << 12; ///< ~1M spans.

  explicit ThreadBuffer(uint32_t Tid) : Tid(Tid) {}
  ~ThreadBuffer() {
    for (std::atomic<SpanEvent *> &Chunk : Chunks)
      delete[] Chunk.load(std::memory_order_relaxed);
  }
  ThreadBuffer(const ThreadBuffer &) = delete;
  ThreadBuffer &operator=(const ThreadBuffer &) = delete;

  uint32_t tid() const { return Tid; }

  /// Owning thread only: adds \p Event to this thread's totals.
  void tally(const SpanEvent &Event) {
    SpanTotals One{1, Event.DurMicros, Event.DurMicros,
                   Event.argOr("result_nodes")};
    std::lock_guard<std::mutex> G(TotalsLock);
    auto It = Totals.lower_bound(Event);
    if (It == Totals.end() || SpanKeyLess()(Event, It->first))
      It = Totals.emplace_hint(It,
                               SpanKey{Event.Category, Event.Name,
                                       Event.SiteLabel, Event.SiteFile,
                                       Event.SiteLine},
                               SpanTotals());
    It->second.merge(One);
  }

  /// Safe from any thread.
  void mergeTotalsInto(TotalsMap &Out) const {
    std::lock_guard<std::mutex> G(TotalsLock);
    for (const auto &[Key, T] : Totals)
      Out[Key].merge(T);
  }

  /// Owning thread only. Returns false when the buffer is full (the
  /// event is dropped; the tracer counts drops).
  bool push(SpanEvent &&Event) {
    size_t Index = Count.load(std::memory_order_relaxed);
    size_t ChunkIdx = Index >> ChunkShift;
    if (ChunkIdx >= MaxChunks)
      return false;
    SpanEvent *Chunk = Chunks[ChunkIdx].load(std::memory_order_relaxed);
    if (!Chunk) {
      Chunk = new SpanEvent[ChunkSize];
      // Release so a reader that later acquires Count also sees the chunk.
      Chunks[ChunkIdx].store(Chunk, std::memory_order_release);
    }
    Chunk[Index & (ChunkSize - 1)] = std::move(Event);
    Count.store(Index + 1, std::memory_order_release);
    return true;
  }

  /// Safe from any thread, concurrently with push().
  size_t publishedCount() const {
    return Count.load(std::memory_order_acquire);
  }
  const SpanEvent &at(size_t Index) const {
    return Chunks[Index >> ChunkShift].load(std::memory_order_relaxed)
        [Index & (ChunkSize - 1)];
  }

  /// Drops the totals and all published events. Requires quiescence (no
  /// concurrent push); only Tracer::clear() calls this.
  void reset() {
    Count.store(0, std::memory_order_release);
    std::lock_guard<std::mutex> G(TotalsLock);
    Totals.clear();
  }

private:
  uint32_t Tid;
  std::array<std::atomic<SpanEvent *>, MaxChunks> Chunks{};
  std::atomic<size_t> Count{0};
  mutable std::mutex TotalsLock;
  TotalsMap Totals;
};

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

std::atomic<uint32_t> Tracer::ActiveMask{0};

namespace {

/// Log2-bucket histogram: bucket B counts samples in [2^(B-1), 2^B)
/// with bucket 0 holding zeros.
struct Histogram {
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = ~uint64_t(0);
  uint64_t Max = 0;
  std::array<uint64_t, 65> Buckets{};

  void record(uint64_t Value) {
    ++Count;
    Sum += Value;
    Min = std::min(Min, Value);
    Max = std::max(Max, Value);
    unsigned B = 0;
    while (Value != 0) {
      Value >>= 1;
      ++B;
    }
    ++Buckets[B];
  }
};

void appendEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

} // namespace

struct Tracer::Impl {
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();

  /// Registry of all per-thread buffers; buffers outlive their threads
  /// so late sinks still see every span.
  mutable std::mutex BufferLock;
  std::vector<ThreadBuffer *> Buffers;
  uint32_t NextTid = 0;

  mutable std::mutex StateLock;
  Level Lvl = Level::Off;
  std::vector<SpanSubscriber *> Subscribers;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, Histogram> Histograms;

  std::vector<ThreadBuffer *> buffers() const {
    std::lock_guard<std::mutex> G(BufferLock);
    return Buffers;
  }
};

Tracer::Tracer() : I(new Impl) {}

Tracer::~Tracer() {
  // The singleton lives for the process; buffers are reclaimed here so
  // leak checkers stay quiet.
  for (ThreadBuffer *B : I->Buffers)
    delete B;
  delete I;
}

Tracer &Tracer::instance() {
  static Tracer T;
  return T;
}

ThreadBuffer &Tracer::localBuffer() {
  thread_local ThreadBuffer *Local = nullptr;
  if (!Local) {
    std::lock_guard<std::mutex> G(I->BufferLock);
    Local = new ThreadBuffer(I->NextTid++);
    I->Buffers.push_back(Local);
  }
  return *Local;
}

void Tracer::refreshMask() {
  // Caller holds StateLock.
  uint32_t Mask = 0;
  if (I->Lvl != Level::Off)
    Mask |= MetricsBit;
  if (I->Lvl == Level::Trace)
    Mask |= TraceBit;
  if (!I->Subscribers.empty())
    Mask |= SubscriberBit;
  ActiveMask.store(Mask, std::memory_order_relaxed);
}

void Tracer::setLevel(Level L) {
  std::lock_guard<std::mutex> G(I->StateLock);
  I->Lvl = L;
  refreshMask();
}

void Tracer::subscribe(SpanSubscriber *Sub) {
  std::lock_guard<std::mutex> G(I->StateLock);
  if (std::find(I->Subscribers.begin(), I->Subscribers.end(), Sub) ==
      I->Subscribers.end())
    I->Subscribers.push_back(Sub);
  refreshMask();
}

void Tracer::unsubscribe(SpanSubscriber *Sub) {
  std::lock_guard<std::mutex> G(I->StateLock);
  I->Subscribers.erase(
      std::remove(I->Subscribers.begin(), I->Subscribers.end(), Sub),
      I->Subscribers.end());
  refreshMask();
}

uint64_t Tracer::nowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - I->Epoch)
          .count());
}

void Tracer::record(SpanEvent &&Event) {
  ThreadBuffer &Buf = localBuffer();
  Event.ThreadId = Buf.tid();
  Buf.tally(Event);

  uint32_t Mask = ActiveMask.load(std::memory_order_relaxed);
  if (Mask & SubscriberBit) {
    std::vector<SpanSubscriber *> Subs;
    {
      std::lock_guard<std::mutex> G(I->StateLock);
      Subs = I->Subscribers;
    }
    for (SpanSubscriber *S : Subs)
      S->onSpan(Event);
  }
  if ((Mask & TraceBit) && !Buf.push(std::move(Event)))
    counterAdd("obs.spans_dropped");
}

void Tracer::counterAdd(const char *Name, uint64_t Delta) {
  std::lock_guard<std::mutex> G(I->StateLock);
  I->Counters[Name] += Delta;
}

void Tracer::counterMax(const char *Name, uint64_t Value) {
  std::lock_guard<std::mutex> G(I->StateLock);
  uint64_t &Slot = I->Counters[Name];
  Slot = std::max(Slot, Value);
}

void Tracer::histRecord(const char *Name, uint64_t Value) {
  std::lock_guard<std::mutex> G(I->StateLock);
  I->Histograms[Name].record(Value);
}

TotalsMap Tracer::totals() const {
  TotalsMap Out;
  for (ThreadBuffer *B : I->buffers())
    B->mergeTotalsInto(Out);
  return Out;
}

std::vector<const SpanEvent *> Tracer::spans() const {
  std::vector<const SpanEvent *> Out;
  for (ThreadBuffer *B : I->buffers())
    for (size_t Idx = 0, N = B->publishedCount(); Idx != N; ++Idx)
      Out.push_back(&B->at(Idx));
  return Out;
}

void Tracer::clear() {
  for (ThreadBuffer *B : I->buffers())
    B->reset();
  std::lock_guard<std::mutex> G(I->StateLock);
  I->Counters.clear();
  I->Histograms.clear();
}

//===----------------------------------------------------------------------===//
// Chrome-trace sink
//===----------------------------------------------------------------------===//

std::string Tracer::chromeTraceJson() const {
  std::string Out;
  Out.reserve(1 << 16);
  Out += "{\"traceEvents\":[";
  bool First = true;
  char Buf[128];
  for (const SpanEvent *Span : spans()) {
    const SpanEvent &E = *Span;
    if (!First)
      Out += ",\n";
    First = false;
    Out += "{\"name\":\"";
    appendEscaped(Out, E.Name);
    Out += "\",\"cat\":\"";
    Out += catName(E.Category);
    std::snprintf(Buf, sizeof(Buf),
                  "\",\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,"
                  "\"pid\":1,\"tid\":%u,\"args\":{",
                  static_cast<unsigned long long>(E.StartMicros),
                  static_cast<unsigned long long>(E.DurMicros),
                  E.ThreadId);
    Out += Buf;
    bool FirstArg = true;
    if (!E.SiteLabel.empty()) {
      Out += "\"site\":\"";
      appendEscaped(Out, E.SiteLabel);
      Out += '"';
      FirstArg = false;
    }
    if (!E.SiteFile.empty()) {
      if (!FirstArg)
        Out += ',';
      Out += "\"site_loc\":\"";
      appendEscaped(Out, E.SiteFile);
      std::snprintf(Buf, sizeof(Buf), ":%u", E.SiteLine);
      Out += Buf;
      Out += '"';
      FirstArg = false;
    }
    for (uint8_t A = 0; A != E.NumArgs; ++A) {
      if (!FirstArg)
        Out += ',';
      Out += '"';
      appendEscaped(Out, E.Args[A].Key);
      std::snprintf(Buf, sizeof(Buf), "\":%llu",
                    static_cast<unsigned long long>(E.Args[A].Value));
      Out += Buf;
      FirstArg = false;
    }
    Out += "}}";
  }
  Out += "],\"displayTimeUnit\":\"ms\"}\n";
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::ofstream Stream(Path);
  if (!Stream)
    return false;
  Stream << chromeTraceJson();
  return static_cast<bool>(Stream);
}

//===----------------------------------------------------------------------===//
// Metrics sink
//===----------------------------------------------------------------------===//

std::string Tracer::metricsJson(const std::string &Name) const {
  std::map<std::string, SpanTotals> Spans;
  for (const auto &[Key, T] : totals())
    Spans[std::string(catName(Key.Category)) + "." + Key.Name].merge(T);

  std::map<std::string, uint64_t> Counters;
  std::map<std::string, Histogram> Histograms;
  {
    std::lock_guard<std::mutex> G(I->StateLock);
    Counters = I->Counters;
    Histograms = I->Histograms;
  }

  std::ostringstream Out;
  Out << "{\n  \"version\": 1,\n  \"name\": \"";
  std::string Escaped;
  appendEscaped(Escaped, Name);
  Out << Escaped << "\",\n  \"counters\": {";
  bool First = true;
  for (const auto &[K, V] : Counters) {
    Out << (First ? "\n" : ",\n") << "    \"" << K << "\": " << V;
    First = false;
  }
  Out << (First ? "" : "\n  ") << "},\n  \"histograms\": {";
  First = true;
  for (const auto &[K, H] : Histograms) {
    Out << (First ? "\n" : ",\n") << "    \"" << K << "\": {\"count\": "
        << H.Count << ", \"sum\": " << H.Sum
        << ", \"min\": " << (H.Count ? H.Min : 0) << ", \"max\": " << H.Max
        << ", \"buckets\": {";
    bool FirstB = true;
    for (size_t B = 0; B != H.Buckets.size(); ++B) {
      if (!H.Buckets[B])
        continue;
      Out << (FirstB ? "" : ", ") << "\"" << B << "\": " << H.Buckets[B];
      FirstB = false;
    }
    Out << "}}";
    First = false;
  }
  Out << (First ? "" : "\n  ") << "},\n  \"spans\": {";
  First = true;
  for (const auto &[K, Agg] : Spans) {
    Out << (First ? "\n" : ",\n") << "    \"" << K
        << "\": {\"count\": " << Agg.Count
        << ", \"total_micros\": " << Agg.TotalMicros
        << ", \"max_micros\": " << Agg.MaxMicros << "}";
    First = false;
  }
  Out << (First ? "" : "\n  ") << "}\n}\n";
  return Out.str();
}

bool Tracer::writeMetrics(const std::string &Path,
                          const std::string &Name) const {
  std::ofstream Stream(Path);
  if (!Stream)
    return false;
  Stream << metricsJson(Name);
  return static_cast<bool>(Stream);
}

//===----------------------------------------------------------------------===//
// SpanGuard
//===----------------------------------------------------------------------===//

void SpanGuard::begin(Cat Category, const char *Name, const char *SiteLabel,
                      const char *SiteFile, uint32_t SiteLine) {
  SpanEvent &E = *new (Storage) SpanEvent;
  Live = true;
  E.Name = Name;
  E.Category = Category;
  if (SiteLabel)
    E.SiteLabel = SiteLabel;
  if (SiteFile)
    E.SiteFile = SiteFile;
  E.SiteLine = SiteLine;
  E.StartMicros = Tracer::instance().nowMicros();
}

void SpanGuard::finish() {
  if (!Live)
    return;
  Live = false;
  Tracer &T = Tracer::instance();
  SpanEvent &E = event();
  E.DurMicros = T.nowMicros() - E.StartMicros;
  T.record(std::move(E));
  E.~SpanEvent();
}

} // namespace obs
} // namespace jedd
