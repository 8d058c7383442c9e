//===- Obs.h - Structured tracing and metrics ------------------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured observability layer (docs/observability.md). Every
/// subsystem reports into one process-wide event stream: the relational
/// runtime emits a span per operation (join/compose/replace/project...),
/// the BDD kernel per top-level apply/ite/exists/relProd/replace, and the
/// garbage collector and the SAT solver per pass/solve. Spans carry
/// scalar arguments (operand/result node counts, cache counters) plus
/// wall time; named counters and log2 histograms accumulate alongside.
///
/// Two sinks consume the stream:
///
///  * a Chrome-trace JSON file (chrome://tracing, about:tracing, or
///    https://ui.perfetto.dev) built from per-thread span buffers;
///  * an aggregated metrics snapshot (counters + histograms + per-span
///    totals) in plain JSON — the BENCH_<name>.json artifact format.
///
/// Push consumers (prof::Profiler) subscribe to finished spans instead of
/// owning a recording path of their own.
///
/// Overhead contract: with the layer inactive (no tracing, no
/// subscribers) an instrumented site costs one relaxed atomic load — the
/// SpanGuard constructor is inlined, reads Tracer::active() and does
/// nothing else. Active tracing appends to a per-thread buffer that is
/// written without locks (growth publishes through one release store per
/// event, so readers may snapshot concurrently). Compiling with
/// -DJEDDPP_NO_OBS stubs the guard out entirely.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_OBS_OBS_H
#define JEDDPP_OBS_OBS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace jedd {
namespace obs {

/// Event categories; the Chrome-trace "cat" field and the prefix of the
/// aggregated metrics key ("rel.join", "bdd.and", "gc.collect", ...).
enum class Cat : uint8_t { Rel, Bdd, Gc, Sat, Io, Resource };

const char *catName(Cat C);

/// One finished span, as handed to subscribers and kept in the trace
/// buffers. Strings are owned copies: emitters may pass transient labels.
struct SpanEvent {
  const char *Name = "";  ///< Operation name; static lifetime required.
  Cat Category = Cat::Bdd;
  std::string SiteLabel;  ///< Program-point label ("" when unattributed).
  std::string SiteFile;   ///< Source file of the site ("" when unknown).
  uint32_t SiteLine = 0;
  uint64_t StartMicros = 0; ///< Since the tracer epoch.
  uint64_t DurMicros = 0;
  uint32_t ThreadId = 0; ///< Small per-process thread index.

  /// Scalar arguments (Chrome-trace "args"). Keys need static lifetime.
  struct Arg {
    const char *Key = "";
    uint64_t Value = 0;
  };
  static constexpr size_t MaxArgs = 8;
  std::array<Arg, MaxArgs> Args;
  uint8_t NumArgs = 0;

  /// Expensive extras, filled only when a subscriber wants detail:
  /// the result's nodes-per-level shape and exact tuple count.
  std::vector<size_t> ResultShape;
  double ResultTuples = -1.0; ///< Negative: not computed.

  /// Value of argument \p Key, or \p Default when absent.
  uint64_t argOr(const char *Key, uint64_t Default = 0) const;
};

/// Push consumer of finished spans. onSpan() runs on the emitting thread
/// (possibly many concurrently) and must be thread-safe; it must not
/// call back into the manager that emitted the span.
class SpanSubscriber {
public:
  virtual ~SpanSubscriber() = default;
  virtual void onSpan(const SpanEvent &Event) = 0;
  /// Subscribers returning true ask emitters for the expensive extras
  /// (ResultShape / ResultTuples) the HTML profiler renders.
  virtual bool wantsDetail() const { return false; }
};

/// Per-thread span storage. The owning thread appends without locks:
/// chunk pointers are atomic, and each append publishes through one
/// release store of Count, so a reader that acquires Count sees fully
/// written events and valid chunk pointers below it. Chunks have stable
/// addresses; nothing moves after publication.
class ThreadBuffer {
public:
  static constexpr size_t ChunkShift = 8;
  static constexpr size_t ChunkSize = size_t(1) << ChunkShift;
  static constexpr size_t MaxChunks = size_t(1) << 12; ///< ~1M spans.

  explicit ThreadBuffer(uint32_t Tid) : Tid(Tid) {}
  ~ThreadBuffer();
  ThreadBuffer(const ThreadBuffer &) = delete;
  ThreadBuffer &operator=(const ThreadBuffer &) = delete;

  uint32_t tid() const { return Tid; }

  /// Owning thread only. Returns false when the buffer is full (the
  /// event is dropped; the tracer counts drops).
  bool push(SpanEvent &&Event);

  /// Safe from any thread, concurrently with push().
  size_t publishedCount() const {
    return Count.load(std::memory_order_acquire);
  }
  const SpanEvent &at(size_t Index) const {
    return Chunks[Index >> ChunkShift].load(std::memory_order_relaxed)
        [Index & (ChunkSize - 1)];
  }

  /// Drops all published events. Requires quiescence (no concurrent
  /// push); only Tracer::clear() calls this.
  void reset() { Count.store(0, std::memory_order_release); }

private:
  uint32_t Tid;
  std::array<std::atomic<SpanEvent *>, MaxChunks> Chunks{};
  std::atomic<size_t> Count{0};
};

/// The process-wide event hub: thread buffers, subscribers, counters,
/// histograms, and the two sinks.
class Tracer {
public:
  static Tracer &instance();

  /// Cheapest possible activity test — the inlined guard the
  /// instrumentation macros compile down to. True when tracing is
  /// buffering or at least one subscriber is attached.
  static bool active() {
    return ActiveMask.load(std::memory_order_relaxed) != 0;
  }
  /// True when some subscriber wants the expensive span extras.
  static bool detailWanted() {
    return (ActiveMask.load(std::memory_order_relaxed) & DetailBit) != 0;
  }

  /// Enables/disables buffering of spans for the Chrome-trace sink.
  void setTracing(bool Enabled);
  bool tracingEnabled() const;

  void subscribe(SpanSubscriber *Sub);
  void unsubscribe(SpanSubscriber *Sub);

  /// Microseconds since the tracer epoch (process start, steady clock).
  uint64_t nowMicros() const;

  /// Records one finished span: buffers it (when tracing) and fans it
  /// out to subscribers. Fills Event.ThreadId.
  void record(SpanEvent &&Event);

  /// Named monotonic counter ("gc.runs", "obs.spans_dropped", ...).
  void counterAdd(const char *Name, uint64_t Delta = 1);
  /// High-water-mark counter: keeps the maximum of all recorded values
  /// ("resource.nodes_peak", "resource.bytes_peak", ...).
  void counterMax(const char *Name, uint64_t Value);
  /// Records one sample into the named log2-bucket histogram.
  void histRecord(const char *Name, uint64_t Value);

  //===--------------------------------------------------------------===//
  // Sinks
  //===--------------------------------------------------------------===//

  /// The buffered spans as a Chrome-trace JSON document. Consistent
  /// while threads still emit (a prefix snapshot per thread).
  std::string chromeTraceJson() const;
  bool writeChromeTrace(const std::string &Path) const;

  /// Aggregated snapshot: counters, histograms, and per-(cat.name) span
  /// totals derived from the buffers. \p Name, when non-empty, is
  /// embedded as the artifact name (the BENCH_<name>.json convention).
  std::string metricsJson(const std::string &Name = "") const;
  bool writeMetrics(const std::string &Path,
                    const std::string &Name = "") const;

  /// Total spans currently buffered across all threads.
  size_t spanCount() const;

  /// Drops buffered spans, counters and histograms. Requires quiescence
  /// (tests and single-threaded drivers only).
  void clear();

private:
  Tracer();
  ~Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  static constexpr uint32_t TraceBit = 1, SubscriberBit = 2, DetailBit = 4;
  static std::atomic<uint32_t> ActiveMask;

  ThreadBuffer &localBuffer();
  void refreshMask();

  struct Impl;
  Impl *I;
};

/// RAII span. Construction snapshots the clock only when the layer is
/// active; destruction records the event. All mutators are no-ops on an
/// inactive guard, so emitters can instrument unconditionally.
class SpanGuard {
public:
  SpanGuard(Cat Category, const char *Name) {
#ifndef JEDDPP_NO_OBS
    if (Tracer::active()) [[unlikely]]
      begin(Category, Name, nullptr, nullptr, 0);
#else
    (void)Category;
    (void)Name;
#endif
  }
  SpanGuard(Cat Category, const char *Name, const char *SiteLabel,
            const char *SiteFile, uint32_t SiteLine) {
#ifndef JEDDPP_NO_OBS
    if (Tracer::active()) [[unlikely]]
      begin(Category, Name, SiteLabel, SiteFile, SiteLine);
#else
    (void)Category;
    (void)Name;
    (void)SiteLabel;
    (void)SiteFile;
    (void)SiteLine;
#endif
  }
  ~SpanGuard() {
    if (Live) [[unlikely]]
      finish();
  }
  SpanGuard(const SpanGuard &) = delete;
  SpanGuard &operator=(const SpanGuard &) = delete;

  /// True when the event will be recorded — gate for argument
  /// computation that is not free.
  bool active() const { return Live; }
  /// True when a subscriber wants ResultShape/ResultTuples.
  bool detail() const { return Live && Tracer::detailWanted(); }

  void arg(const char *Key, uint64_t Value) {
    if (Live && event().NumArgs < SpanEvent::MaxArgs)
      event().Args[event().NumArgs++] = {Key, Value};
  }
  void shape(std::vector<size_t> Shape) {
    if (Live)
      event().ResultShape = std::move(Shape);
  }
  void tuples(double Tuples) {
    if (Live)
      event().ResultTuples = Tuples;
  }

  /// Records the span now (idempotent; the destructor otherwise does).
  void finish();

private:
  void begin(Cat Category, const char *Name, const char *SiteLabel,
             const char *SiteFile, uint32_t SiteLine);

  /// The event lives in raw storage and is placement-constructed only on
  /// the active path, so an inactive guard costs one relaxed atomic load
  /// and two branches — no string/array/vector construction.
  SpanEvent &event() { return *reinterpret_cast<SpanEvent *>(Storage); }

  bool Live = false;
  alignas(SpanEvent) unsigned char Storage[sizeof(SpanEvent)];
};

} // namespace obs
} // namespace jedd

#endif // JEDDPP_OBS_OBS_H
