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

//===----------------------------------------------------------------------===//
// ThreadBuffer
//===----------------------------------------------------------------------===//

ThreadBuffer::~ThreadBuffer() {
  for (std::atomic<SpanEvent *> &Chunk : Chunks)
    delete[] Chunk.load(std::memory_order_relaxed);
}

bool ThreadBuffer::push(SpanEvent &&Event) {
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
  bool Tracing = false;
  std::vector<SpanSubscriber *> Subscribers;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, Histogram> Histograms;

  /// Snapshot of every buffer with its published prefix length.
  std::vector<std::pair<ThreadBuffer *, size_t>> snapshot() const {
    std::lock_guard<std::mutex> G(BufferLock);
    std::vector<std::pair<ThreadBuffer *, size_t>> Snap;
    Snap.reserve(Buffers.size());
    for (ThreadBuffer *B : Buffers)
      Snap.emplace_back(B, B->publishedCount());
    return Snap;
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
  if (I->Tracing)
    Mask |= TraceBit;
  if (!I->Subscribers.empty())
    Mask |= SubscriberBit;
  for (SpanSubscriber *S : I->Subscribers)
    if (S->wantsDetail())
      Mask |= DetailBit;
  ActiveMask.store(Mask, std::memory_order_relaxed);
}

void Tracer::setTracing(bool Enabled) {
  std::lock_guard<std::mutex> G(I->StateLock);
  I->Tracing = Enabled;
  refreshMask();
}

bool Tracer::tracingEnabled() const {
  std::lock_guard<std::mutex> G(I->StateLock);
  return I->Tracing;
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

  // Fan out first: subscribers get the event even when the trace buffer
  // is full or tracing is off.
  std::vector<SpanSubscriber *> Subs;
  bool Tracing;
  {
    std::lock_guard<std::mutex> G(I->StateLock);
    Subs = I->Subscribers;
    Tracing = I->Tracing;
  }
  for (SpanSubscriber *S : Subs)
    S->onSpan(Event);

  if (Tracing && !Buf.push(std::move(Event)))
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

size_t Tracer::spanCount() const {
  size_t Total = 0;
  for (const auto &[Buf, N] : I->snapshot())
    Total += N;
  return Total;
}

void Tracer::clear() {
  {
    std::lock_guard<std::mutex> G(I->BufferLock);
    for (ThreadBuffer *B : I->Buffers)
      B->reset();
  }
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
  for (const auto &[B, N] : I->snapshot()) {
    for (size_t Idx = 0; Idx != N; ++Idx) {
      const SpanEvent &E = B->at(Idx);
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
  struct SpanAgg {
    uint64_t Count = 0;
    uint64_t TotalMicros = 0;
    uint64_t MaxMicros = 0;
  };
  std::map<std::string, SpanAgg> Spans;
  for (const auto &[B, N] : I->snapshot()) {
    for (size_t Idx = 0; Idx != N; ++Idx) {
      const SpanEvent &E = B->at(Idx);
      SpanAgg &Agg = Spans[std::string(catName(E.Category)) + "." + E.Name];
      ++Agg.Count;
      Agg.TotalMicros += E.DurMicros;
      Agg.MaxMicros = std::max(Agg.MaxMicros, E.DurMicros);
    }
  }

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
