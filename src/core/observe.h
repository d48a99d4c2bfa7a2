// Zero-cost-when-disabled observability substrate: an RAII span tracer
// (ACBM_SPAN), a process-wide metrics registry (counters / gauges /
// fixed-bucket histograms), and export sinks (Chrome trace_event JSON,
// Prometheus-style text, a human-readable profile tree). See
// OBSERVABILITY.md for naming conventions and the determinism contract.
//
// Thread-safety and cost model:
//   - Every instrumentation macro compiles to one relaxed atomic load of
//     the global enabled flag plus a branch; when the flag is off nothing
//     else runs, no memory is allocated, and no lock is taken — model
//     outputs and kernel timings are unaffected.
//   - Span events are emitted into a lock-free single-producer /
//     single-consumer ring buffer owned by the emitting thread (producer)
//     and drained by Tracer::collect() (consumer). A full ring drops the
//     event and counts the drop; it never blocks the producer.
//   - Counters and histograms use relaxed atomics and may be updated from
//     any thread (a counter spreads its count over per-thread cache-line
//     shards, so a hot counter does not bounce one line between cores);
//     Metrics::instance() registration takes a mutex but every macro
//     caches the returned reference in a function-local static, so the
//     registry lock is paid once per call site, not per update.
//   - Registered metrics are never erased, so references returned by
//     counter()/gauge()/histogram() stay valid for the process lifetime.
//   - Tracer::reset() / Metrics::reset() require quiescence: call them only
//     while no instrumented code is running (tests do this between cases).
//
// This is the bottom layer of the library (below acbm_robust); it must not
// include any other acbm header.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace acbm::core::observe {

// --- Master switch --------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when instrumentation is collecting. Relaxed load: this is the only
/// cost an instrumented call site pays when observability is off.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turns collection on/off process-wide (the CLI flips this for
/// --trace/--metrics/--profile). Safe to call at any time; spans that are
/// already open keep recording so the stack stays balanced.
void set_enabled(bool on) noexcept;

// --- Metrics registry -----------------------------------------------------

namespace detail {
/// Number of shards a Counter splits its count over.
inline constexpr std::size_t kCounterShards = 16;
/// Shard index of a new thread: threads take the shards round-robin.
std::size_t next_counter_shard() noexcept;
/// The calling thread's shard index, fixed for the thread's lifetime.
inline std::size_t counter_shard() noexcept {
  thread_local const std::size_t shard = next_counter_shard();
  return shard;
}
}  // namespace detail

/// Monotonic event count. add() is wait-free and may race freely. Each
/// thread adds into its own cache-line-sized shard (threads beyond
/// kCounterShards share one), so a counter every pool worker bumps
/// (kernels.dispatch.* on each kernel call) does not bounce one line
/// between cores; value() and reset() cover every shard, so totals stay
/// exact.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[detail::counter_shard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void reset() noexcept {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, detail::kCounterShards> shards_;
};

/// Last-writer-wins instantaneous value (e.g. queue depth).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. A sample lands in the first bucket whose upper
/// bound is >= the value (Prometheus `le` semantics); values above every
/// bound land in the implicit +Inf bucket. observe() is lock-free.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket (non-cumulative) counts; the last entry is the +Inf bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds+1 slots.
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default histogram bounds for millisecond latencies.
[[nodiscard]] std::vector<double> default_latency_bounds_ms();

/// Process-wide metric registry. Lookup registers on first use; names are
/// dot-separated paths (see OBSERVABILITY.md for the inventory).
class Metrics {
 public:
  static Metrics& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Empty `upper_bounds` selects default_latency_bounds_ms(). Bounds are
  /// fixed by the first registration; later calls ignore the argument.
  Histogram& histogram(std::string_view name,
                       std::span<const double> upper_bounds = {});

  /// Current value of a counter, 0 when it was never registered.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

  /// Every registered counter and its current value, sorted by name.
  /// Deterministic; used to ship a worker process's counters to the
  /// coordinator for aggregation (core/shard.h).
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counters_snapshot() const;

  /// One-shot Prometheus text-exposition dump (acbm_ prefix, dots become
  /// underscores, counters get _total). Deterministic: sorted by name.
  void write_prometheus(std::ostream& os) const;

  /// Zeroes every value but keeps registrations (cached references held by
  /// call sites stay valid). Requires quiescence.
  void reset();

 private:
  Metrics() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// --- Span tracer ----------------------------------------------------------

/// One closed span, as drained from a ring. `seq` is a process-global
/// span-open sequence number: sorting events by seq reproduces the exact
/// open order, which is the deterministic merge key across threads.
struct SpanEvent {
  std::uint64_t seq = 0;       ///< 1-based open-order id (0 = "no span").
  std::uint64_t parent = 0;    ///< seq of the enclosing span, 0 for roots.
  std::uint32_t thread = 0;    ///< Tracer registration index of the thread.
  const char* name = nullptr;  ///< Static string from the ACBM_SPAN site.
  std::string tags;            ///< "k=v,..." from ACBM_SPAN_KV; may be empty.
  std::int64_t start_ns = 0;   ///< Open time (steady clock, ns).
  std::int64_t wall_ns = 0;    ///< Wall-clock duration.
  std::int64_t cpu_ns = 0;     ///< Thread CPU duration (0 if unsupported).
};

/// Lock-free single-producer/single-consumer ring of span events. The
/// owning thread pushes, Tracer::collect() drains; a full ring drops the
/// newest event and counts it. Capacity is rounded up to a power of two.
class SpanRing {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 13;

  explicit SpanRing(std::size_t capacity = kDefaultCapacity);

  /// Producer side. Returns false (and counts a drop) when full.
  bool push(SpanEvent&& event) noexcept;
  /// Consumer side: appends every pending event to `out` in push order.
  std::size_t drain(std::vector<SpanEvent>& out);

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  /// Requires quiescence (no concurrent push).
  void clear();

 private:
  std::vector<SpanEvent> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};  // Next write position (producer).
  std::atomic<std::uint64_t> tail_{0};  // Next read position (consumer).
  std::atomic<std::uint64_t> dropped_{0};
};

/// Owns one SpanRing per registered thread and merges them on collect().
/// Rings are created on a thread's first span and never freed before
/// process exit, so producers never race a deallocation.
class Tracer {
 public:
  static Tracer& instance();

  /// Drains every ring and returns all events accumulated since the last
  /// collect()/reset(), sorted by seq (deterministic span-open order).
  /// Spans still open are not included. Consuming: a second collect()
  /// returns only newer events.
  [[nodiscard]] std::vector<SpanEvent> collect();

  /// Total events dropped across all rings since the last reset().
  [[nodiscard]] std::uint64_t dropped() const;

  /// Drops all collected/pending events and restarts the seq counter.
  /// Requires quiescence (no spans open, no instrumented code running).
  void reset();

  /// The calling thread's ring and registration index (registering the
  /// thread on first use). Used by Span; not part of the public surface.
  struct ThreadSlot {
    SpanRing* ring = nullptr;
    std::uint32_t index = 0;
  };
  [[nodiscard]] ThreadSlot local_slot();

 private:
  Tracer() = default;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<SpanRing>> rings_;
  std::vector<SpanEvent> drained_;
};

/// The seq of the innermost span open on this thread (0 when none). Used
/// by the thread pool to carry the submitting thread's span across to its
/// workers so the span tree is identical at any thread count.
[[nodiscard]] std::uint64_t current_span() noexcept;

/// Pushes an inherited parent span onto this thread's span stack for the
/// current scope (see current_span()). Cheap and always-on: a thread_local
/// vector push/pop, taken once per pool task, never per index.
class ScopedParent {
 public:
  explicit ScopedParent(std::uint64_t parent_seq);
  ~ScopedParent();
  ScopedParent(const ScopedParent&) = delete;
  ScopedParent& operator=(const ScopedParent&) = delete;
};

/// RAII span. Open/close must happen on the same thread (keep instances
/// stack-local; never move one across threads). When observability is
/// disabled at construction the span records nothing.
class Span {
 public:
  explicit Span(const char* name) {
    if (enabled()) open(name, {});
  }
  Span(const char* name, std::string tags) {
    if (enabled()) open(name, std::move(tags));
  }
  ~Span() {
    if (seq_ != 0) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(const char* name, std::string tags);
  void close() noexcept;

  const char* name_ = nullptr;
  std::string tags_;
  std::uint64_t seq_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_wall_ = 0;
  std::int64_t start_cpu_ = 0;
};

// --- Export sinks ---------------------------------------------------------

/// Chrome trace_event JSON ("X" complete events, microsecond timestamps
/// rebased to the earliest span). Loads in chrome://tracing and Perfetto.
void write_chrome_trace(std::ostream& os, std::span<const SpanEvent> events);

/// One node of the merged span tree: spans with the same root-to-node name
/// path are aggregated (count + summed wall/CPU time). For a fixed input
/// and ACBM_FAULTS spec the set of (path, count) pairs is identical at any
/// ACBM_THREADS — this is the determinism contract tests pin down.
struct SpanAggregate {
  std::string path;  ///< "/"-joined names from the root.
  std::string name;  ///< Leaf name (last path component).
  int depth = 0;
  std::uint64_t count = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
};

/// Merges events into the aggregated span tree, depth-first, children in
/// lexicographic name order. Events whose parent is absent (still open or
/// dropped) are treated as roots.
[[nodiscard]] std::vector<SpanAggregate> aggregate_spans(
    std::span<const SpanEvent> events);

/// Human-readable profile tree (the --profile sink): one line per
/// aggregate with wall ms, CPU ms, and count, plus a drop summary.
void write_profile(std::ostream& os, std::span<const SpanEvent> events,
                   std::uint64_t dropped = 0);

// --- Instrumentation macros -----------------------------------------------

#define ACBM_OBS_CONCAT_INNER(a, b) a##b
#define ACBM_OBS_CONCAT(a, b) ACBM_OBS_CONCAT_INNER(a, b)

/// Opens a span for the rest of the enclosing scope. `name` must be a
/// string literal (it is stored by pointer).
#define ACBM_SPAN(name)                                       \
  ::acbm::core::observe::Span ACBM_OBS_CONCAT(acbm_obs_span_, \
                                              __LINE__)(name)

/// Span with tags; the tag expression (any std::string) is only evaluated
/// when observability is enabled.
#define ACBM_SPAN_KV(name, kv)                                           \
  ::acbm::core::observe::Span ACBM_OBS_CONCAT(acbm_obs_span_, __LINE__)( \
      name, ::acbm::core::observe::enabled() ? (kv) : ::std::string())

/// Adds `n` to the named counter. `name` must be a string literal: the
/// registry reference is cached in a function-local static so the steady
/// state is one relaxed load, one branch, one relaxed fetch_add.
#define ACBM_COUNT(name, n)                                             \
  do {                                                                  \
    if (::acbm::core::observe::enabled()) {                             \
      static ::acbm::core::observe::Counter& ACBM_OBS_CONCAT(           \
          acbm_obs_counter_, __LINE__) =                                \
          ::acbm::core::observe::Metrics::instance().counter(name);     \
      ACBM_OBS_CONCAT(acbm_obs_counter_, __LINE__)                      \
          .add(static_cast<std::uint64_t>(n));                          \
    }                                                                   \
  } while (0)

/// Sets the named gauge to `v` (same caching pattern as ACBM_COUNT).
#define ACBM_GAUGE_SET(name, v)                                         \
  do {                                                                  \
    if (::acbm::core::observe::enabled()) {                             \
      static ::acbm::core::observe::Gauge& ACBM_OBS_CONCAT(             \
          acbm_obs_gauge_, __LINE__) =                                  \
          ::acbm::core::observe::Metrics::instance().gauge(name);       \
      ACBM_OBS_CONCAT(acbm_obs_gauge_, __LINE__)                        \
          .set(static_cast<double>(v));                                 \
    }                                                                   \
  } while (0)

/// Records `v` in the named histogram (default latency buckets).
#define ACBM_HISTOGRAM(name, v)                                         \
  do {                                                                  \
    if (::acbm::core::observe::enabled()) {                             \
      static ::acbm::core::observe::Histogram& ACBM_OBS_CONCAT(         \
          acbm_obs_hist_, __LINE__) =                                   \
          ::acbm::core::observe::Metrics::instance().histogram(name);   \
      ACBM_OBS_CONCAT(acbm_obs_hist_, __LINE__)                         \
          .observe(static_cast<double>(v));                             \
    }                                                                   \
  } while (0)

}  // namespace acbm::core::observe
