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
/// garbage collector and the SAT solver per pass/solve. Spans carry wall
/// time and scalar arguments (O(1) counter deltas such as nodes_created
/// and cache hits).
///
/// The tracer keeps one aggregation of the stream: exact online totals
/// per (category, op, rel::Site) of the spans' count, time and
/// arguments. Everything else reads it:
///
///  * the metrics snapshot, one row per key in plain JSON — the
///    BENCH_<name>.json artifact format;
///  * prof::Profiler's summary table.
///
/// At Level::Trace the tracer also buffers every span, and emitters add
/// the expensive extras (operand and result node walks, result shapes,
/// tuple counts). The buffer feeds the Chrome-trace JSON file and the
/// profiler's per-execution rows and shape charts. Push consumers may
/// subscribe to finished spans as well.
///
/// Overhead contract: with the layer inactive (level Off, no
/// subscribers) an instrumented site costs one relaxed atomic load — the
/// SpanGuard constructor is inlined, reads Tracer::active() and does
/// nothing else. An active span takes one lock, which guards the totals,
/// the trace buffer, the level and the subscriber list; subscribers run
/// outside it.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_OBS_OBS_H
#define JEDDPP_OBS_OBS_H

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace jedd {
namespace obs {

/// Event categories; the Chrome-trace "cat" field and the prefix of the
/// aggregated metrics key ("rel.join", "bdd.and", "gc.collect", ...).
enum class Cat : uint8_t { Rel, Bdd, Gc, Sat, Io, Resource };

const char *catName(Cat C);

/// What the tracer does with finished spans. Every level above Off keeps
/// the online totals; Trace also buffers each span with its expensive
/// extras.
enum class Level : uint8_t { Off, Metrics, Trace };

/// One finished span, as handed to subscribers and kept in the trace
/// buffer. Strings are owned copies: emitters may pass transient labels.
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

  /// Expensive extras, filled only at Level::Trace: the result's
  /// nodes-per-level shape and exact tuple count.
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
};

/// The key the online totals are kept under: a span's category, op and
/// rel::Site.
struct SpanKey {
  Cat Category = Cat::Bdd;
  const char *Name = "";
  std::string SiteLabel, SiteFile;
  uint32_t SiteLine = 0;
};

/// Orders SpanKeys, and compares them with SpanEvents directly, so a
/// span finds its totals without building a key.
struct SpanKeyLess {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A &X, const B &Y) const {
    return fields(X) < fields(Y);
  }

private:
  template <typename T> static auto fields(const T &K) {
    return std::make_tuple(K.Category, std::string_view(K.Name),
                           std::string_view(K.SiteLabel),
                           std::string_view(K.SiteFile), K.SiteLine);
  }
};

/// Exact totals of the spans of one key: their count and time, and the
/// sum and the maximum of each argument they carry.
struct SpanTotals {
  struct ArgTotals {
    const char *Key = "";
    uint64_t Sum = 0;
    uint64_t Max = 0;
  };

  uint64_t Count = 0;
  uint64_t TotalMicros = 0;
  uint64_t MaxMicros = 0;
  /// One entry per argument key, in the order the keys were first seen.
  std::array<ArgTotals, SpanEvent::MaxArgs> Args;
  uint8_t NumArgs = 0;

  /// Adds one span. Keys are matched by name; a key past the first
  /// MaxArgs is not totalled.
  void add(const SpanEvent &Event);
  /// The totals of argument \p Key (all zero when no span carried it).
  ArgTotals arg(const char *Key) const;
};

using TotalsMap = std::map<SpanKey, SpanTotals, SpanKeyLess>;

/// The process-wide event hub: the online totals, the trace buffer,
/// subscribers, and the sinks.
class Tracer {
public:
  static Tracer &instance();

  /// Cheapest possible activity test — the inlined guard the
  /// instrumentation macros compile down to. True above Level::Off or
  /// while a subscriber is attached.
  static bool active() {
    return ActiveMask.load(std::memory_order_relaxed) != 0;
  }
  /// True at Level::Trace: spans are buffered, and emitters add the
  /// expensive extras (node walks, result shapes, tuple counts).
  static bool buffering() {
    return (ActiveMask.load(std::memory_order_relaxed) & TraceBit) != 0;
  }

  void setLevel(Level L);
  /// Switches between Level::Trace and Level::Off.
  void setTracing(bool Enabled) {
    setLevel(Enabled ? Level::Trace : Level::Off);
  }

  void subscribe(SpanSubscriber *Sub);
  void unsubscribe(SpanSubscriber *Sub);

  /// Microseconds since the tracer epoch (process start, steady clock).
  uint64_t nowMicros() const;

  /// Records one finished span: adds it to the totals, fans it out to
  /// subscribers, and buffers it at Level::Trace. Fills Event.ThreadId.
  void record(SpanEvent &&Event);

  /// The online totals of every span recorded since the last clear().
  /// Exact at any run length.
  TotalsMap totals() const;

  /// The buffered spans in record order, so each thread's are in end
  /// order. Safe while threads still emit; the pointers stay valid until
  /// clear().
  std::vector<const SpanEvent *> spans() const;
  size_t spanCount() const;

  //===--------------------------------------------------------------===//
  // Sinks
  //===--------------------------------------------------------------===//

  /// The buffered spans as a Chrome-trace JSON document.
  std::string chromeTraceJson() const;
  bool writeChromeTrace(const std::string &Path) const;

  /// Snapshot of the totals: one row per (category, op, site), and the
  /// number of spans the full trace buffer dropped. \p Name, when
  /// non-empty, is embedded as the artifact name (the BENCH_<name>.json
  /// convention).
  std::string metricsJson(const std::string &Name = "") const;
  bool writeMetrics(const std::string &Path,
                    const std::string &Name = "") const;

  /// Drops the totals and the buffered spans, and frees the trace
  /// buffer. Invalidates the pointers spans() returned.
  void clear();

private:
  Tracer();
  ~Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  static constexpr uint32_t MetricsBit = 1, TraceBit = 2, SubscriberBit = 4;
  static std::atomic<uint32_t> ActiveMask;

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
    if (Tracer::active()) [[unlikely]]
      begin(Category, Name, nullptr, nullptr, 0);
  }
  SpanGuard(Cat Category, const char *Name, const char *SiteLabel,
            const char *SiteFile, uint32_t SiteLine) {
    if (Tracer::active()) [[unlikely]]
      begin(Category, Name, SiteLabel, SiteFile, SiteLine);
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
  /// True when the span will be buffered, so node walks, shapes and
  /// tuple counts are worth computing.
  bool detail() const { return Live && Tracer::buffering(); }

  void arg(const char *Key, uint64_t Value) {
    if (!Live)
      return;
    assert(event().NumArgs < SpanEvent::MaxArgs && "span argument dropped");
    if (event().NumArgs < SpanEvent::MaxArgs)
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
