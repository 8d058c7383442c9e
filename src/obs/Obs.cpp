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
#include <memory>
#include <mutex>
#include <new>
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

void SpanTotals::add(const SpanEvent &Event) {
  ++Count;
  TotalMicros += Event.DurMicros;
  MaxMicros = std::max(MaxMicros, Event.DurMicros);
  for (uint8_t A = 0; A != Event.NumArgs; ++A) {
    const SpanEvent::Arg &In = Event.Args[A];
    uint8_t K = 0;
    while (K != NumArgs && std::strcmp(Args[K].Key, In.Key) != 0)
      ++K;
    if (K == NumArgs) {
      if (NumArgs == Args.size())
        continue;
      Args[NumArgs++].Key = In.Key;
    }
    Args[K].Sum += In.Value;
    Args[K].Max = std::max(Args[K].Max, In.Value);
  }
}

SpanTotals::ArgTotals SpanTotals::arg(const char *Key) const {
  for (uint8_t K = 0; K != NumArgs; ++K)
    if (std::strcmp(Args[K].Key, Key) == 0)
      return Args[K];
  return {Key, 0, 0};
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

std::atomic<uint32_t> Tracer::ActiveMask{0};

namespace {

void appendEscaped(std::string &Out, std::string_view S) {
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

/// Appends a site's "file:line", or nothing when it has no file.
void appendSiteLoc(std::string &Out, const std::string &File,
                   uint32_t Line) {
  if (File.empty())
    return;
  appendEscaped(Out, File);
  Out += ':';
  Out += std::to_string(Line);
}

/// The calling thread's small index, the Chrome trace's "tid".
uint32_t threadIndex() {
  static std::atomic<uint32_t> Next{0};
  thread_local const uint32_t Index =
      Next.fetch_add(1, std::memory_order_relaxed);
  return Index;
}

} // namespace

struct Tracer::Impl {
  /// Spans the trace buffer holds; later ones are dropped and counted.
  static constexpr size_t MaxSpans = size_t(1) << 20;
  /// Spans per trace-buffer chunk, the unit the buffer allocates.
  static constexpr size_t ChunkSpans = 4096;

  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();

  /// Guards everything below; never held while a subscriber runs.
  mutable std::mutex Lock;
  Level Lvl = Level::Off;
  std::vector<SpanSubscriber *> Subscribers;
  TotalsMap Totals;
  /// The buffered spans in record order, NumSpans of them in fixed
  /// chunks. A chunk never moves, so the pointers spans() hands out stay
  /// valid until clear().
  std::vector<std::unique_ptr<SpanEvent[]>> Chunks;
  size_t NumSpans = 0;
  uint64_t Dropped = 0;

  /// Caller holds Lock.
  SpanEvent &span(size_t Index) {
    return Chunks[Index / ChunkSpans][Index % ChunkSpans];
  }

  /// Caller holds Lock.
  void tally(const SpanEvent &Event) {
    auto It = Totals.lower_bound(Event);
    if (It == Totals.end() || SpanKeyLess()(Event, It->first))
      It = Totals.emplace_hint(It,
                               SpanKey{Event.Category, Event.Name,
                                       Event.SiteLabel, Event.SiteFile,
                                       Event.SiteLine},
                               SpanTotals());
    It->second.add(Event);
  }

  /// Caller holds Lock.
  void buffer(SpanEvent &&Event) {
    if (NumSpans == MaxSpans) {
      ++Dropped;
      return;
    }
    if (NumSpans % ChunkSpans == 0)
      Chunks.push_back(
          std::make_unique_for_overwrite<SpanEvent[]>(ChunkSpans));
    span(NumSpans++) = std::move(Event);
  }
};

Tracer::Tracer() : I(new Impl) {}

Tracer::~Tracer() { delete I; }

Tracer &Tracer::instance() {
  static Tracer T;
  return T;
}

void Tracer::refreshMask() {
  // Caller holds Lock.
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
  std::lock_guard<std::mutex> G(I->Lock);
  I->Lvl = L;
  refreshMask();
}

void Tracer::subscribe(SpanSubscriber *Sub) {
  std::lock_guard<std::mutex> G(I->Lock);
  if (std::find(I->Subscribers.begin(), I->Subscribers.end(), Sub) ==
      I->Subscribers.end())
    I->Subscribers.push_back(Sub);
  refreshMask();
}

void Tracer::unsubscribe(SpanSubscriber *Sub) {
  std::lock_guard<std::mutex> G(I->Lock);
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
  Event.ThreadId = threadIndex();
  std::unique_lock<std::mutex> G(I->Lock);
  I->tally(Event);
  if (!I->Subscribers.empty()) {
    std::vector<SpanSubscriber *> Subs = I->Subscribers;
    G.unlock();
    for (SpanSubscriber *S : Subs)
      S->onSpan(Event);
    G.lock();
  }
  if (I->Lvl == Level::Trace)
    I->buffer(std::move(Event));
}

TotalsMap Tracer::totals() const {
  std::lock_guard<std::mutex> G(I->Lock);
  return I->Totals;
}

std::vector<const SpanEvent *> Tracer::spans() const {
  std::lock_guard<std::mutex> G(I->Lock);
  std::vector<const SpanEvent *> Out;
  Out.reserve(I->NumSpans);
  for (size_t K = 0; K != I->NumSpans; ++K)
    Out.push_back(&I->span(K));
  return Out;
}

size_t Tracer::spanCount() const {
  std::lock_guard<std::mutex> G(I->Lock);
  return I->NumSpans;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> G(I->Lock);
  I->Totals.clear();
  I->Chunks.clear();
  I->NumSpans = 0;
  I->Dropped = 0;
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
      appendSiteLoc(Out, E.SiteFile, E.SiteLine);
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
  // One snapshot, so the rows and the dropped count agree.
  TotalsMap Totals;
  uint64_t Dropped;
  {
    std::lock_guard<std::mutex> G(I->Lock);
    Totals = I->Totals;
    Dropped = I->Dropped;
  }

  std::string Out = "{\n  \"version\": 2,\n  \"name\": \"";
  appendEscaped(Out, Name);
  Out += "\",\n  \"spans_dropped\": " + std::to_string(Dropped) +
         ",\n  \"spans\": [";
  bool First = true;
  for (const auto &[Key, T] : Totals) {
    Out += First ? "\n    {\"cat\": \"" : ",\n    {\"cat\": \"";
    First = false;
    Out += catName(Key.Category);
    Out += "\", \"op\": \"";
    appendEscaped(Out, Key.Name);
    Out += "\", \"site\": \"";
    appendEscaped(Out, Key.SiteLabel);
    Out += "\", \"site_loc\": \"";
    appendSiteLoc(Out, Key.SiteFile, Key.SiteLine);
    Out += "\", \"count\": " + std::to_string(T.Count) +
           ", \"total_micros\": " + std::to_string(T.TotalMicros) +
           ", \"max_micros\": " + std::to_string(T.MaxMicros) +
           ", \"args\": {";
    for (uint8_t A = 0; A != T.NumArgs; ++A) {
      Out += A ? ", \"" : "\"";
      appendEscaped(Out, T.Args[A].Key);
      Out += "\": {\"sum\": " + std::to_string(T.Args[A].Sum) +
             ", \"max\": " + std::to_string(T.Args[A].Max) + "}";
    }
    Out += "}}";
  }
  Out += First ? "]\n}\n" : "\n  ]\n}\n";
  return Out;
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
