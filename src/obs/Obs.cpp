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
#include <deque>
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

  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();

  /// Guards everything below; never held while a subscriber runs.
  mutable std::mutex Lock;
  Level Lvl = Level::Off;
  std::vector<SpanSubscriber *> Subscribers;
  TotalsMap Totals;
  /// The buffered spans in record order. A deque never moves an element,
  /// so the pointers spans() hands out stay valid until clear().
  std::deque<SpanEvent> Spans;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, Histogram> Histograms;

  /// Caller holds Lock.
  void tally(const SpanEvent &Event) {
    auto It = Totals.lower_bound(Event);
    if (It == Totals.end() || SpanKeyLess()(Event, It->first))
      It = Totals.emplace_hint(It,
                               SpanKey{Event.Category, Event.Name,
                                       Event.SiteLabel, Event.SiteFile,
                                       Event.SiteLine},
                               SpanTotals());
    It->second.merge({1, Event.DurMicros, Event.DurMicros,
                      Event.argOr("result_nodes")});
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
  if (I->Lvl != Level::Trace)
    return;
  if (I->Spans.size() < Impl::MaxSpans)
    I->Spans.push_back(std::move(Event));
  else
    ++I->Counters["obs.spans_dropped"];
}

void Tracer::counterAdd(const char *Name, uint64_t Delta) {
  std::lock_guard<std::mutex> G(I->Lock);
  I->Counters[Name] += Delta;
}

void Tracer::counterMax(const char *Name, uint64_t Value) {
  std::lock_guard<std::mutex> G(I->Lock);
  uint64_t &Slot = I->Counters[Name];
  Slot = std::max(Slot, Value);
}

void Tracer::histRecord(const char *Name, uint64_t Value) {
  std::lock_guard<std::mutex> G(I->Lock);
  I->Histograms[Name].record(Value);
}

TotalsMap Tracer::totals() const {
  std::lock_guard<std::mutex> G(I->Lock);
  return I->Totals;
}

std::vector<const SpanEvent *> Tracer::spans() const {
  std::lock_guard<std::mutex> G(I->Lock);
  std::vector<const SpanEvent *> Out;
  Out.reserve(I->Spans.size());
  for (const SpanEvent &E : I->Spans)
    Out.push_back(&E);
  return Out;
}

size_t Tracer::spanCount() const {
  std::lock_guard<std::mutex> G(I->Lock);
  return I->Spans.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> G(I->Lock);
  I->Totals.clear();
  I->Spans = std::deque<SpanEvent>();
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
  // One snapshot, so the totals, counters and histograms agree.
  std::map<std::string, SpanTotals> Spans;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, Histogram> Histograms;
  {
    std::lock_guard<std::mutex> G(I->Lock);
    for (const auto &[Key, T] : I->Totals)
      Spans[std::string(catName(Key.Category)) + "." + Key.Name].merge(T);
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
