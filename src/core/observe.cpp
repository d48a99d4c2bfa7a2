#include "core/observe.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

#if defined(__linux__)
#include <ctime>
#endif

namespace acbm::core::observe {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

// Process-global span-open sequence. fetch_add gives every span a unique,
// totally ordered id; sorting drained events by it reproduces the open
// order, which is the deterministic merge key across rings.
std::atomic<std::uint64_t> g_seq{0};

// Innermost-open-span stack of the current thread. ScopedParent pushes an
// inherited seq so spans opened inside a pool task parent correctly.
thread_local std::vector<std::uint64_t> t_span_stack;

std::int64_t wall_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_now_ns() noexcept {
#if defined(__linux__)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }
#endif
  return 0;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Prometheus metric name: acbm_ prefix, [a-zA-Z0-9_] alphabet.
std::string prometheus_name(std::string_view name) {
  std::string out = "acbm_";
  for (char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9');
    out += safe ? c : '_';
  }
  return out;
}

void atomic_add_double(std::atomic<double>& target, double delta) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

// --- Histogram ------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: needs at least one bucket bound");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i])) {
      throw std::invalid_argument("Histogram: bounds must strictly increase");
    }
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double value) noexcept {
  // Linear scan: bucket lists are a dozen entries; the scan is cheaper
  // than a branch-heavy binary search at this size.
  std::size_t idx = bounds_.size();
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      idx = i;
      break;
    }
  }
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, value);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> default_latency_bounds_ms() {
  return {0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0,
          5000.0};
}

// --- Metrics --------------------------------------------------------------

std::size_t detail::next_counter_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
}

Metrics& Metrics::instance() {
  // Leaked singleton: worker threads may still touch cached metric
  // references during static destruction, so the registry must outlive
  // every other static.
  static Metrics* metrics = new Metrics();
  return *metrics;
}

Counter& Metrics::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& Metrics::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& Metrics::histogram(std::string_view name,
                              std::span<const double> upper_bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  std::vector<double> bounds =
      upper_bounds.empty()
          ? default_latency_bounds_ms()
          : std::vector<double>(upper_bounds.begin(), upper_bounds.end());
  return *histograms_
              .emplace(std::string(name),
                       std::make_unique<Histogram>(std::move(bounds)))
              .first->second;
}

std::uint64_t Metrics::counter_value(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::vector<std::pair<std::string, std::uint64_t>> Metrics::counters_snapshot()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

void Metrics::write_prometheus(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    const std::string prom = prometheus_name(name) + "_total";
    os << "# TYPE " << prom << " counter\n"
       << prom << ' ' << counter->value() << '\n';
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string prom = prometheus_name(name);
    os << "# TYPE " << prom << " gauge\n"
       << prom << ' ' << gauge->value() << '\n';
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string prom = prometheus_name(name);
    os << "# TYPE " << prom << " histogram\n";
    const std::vector<std::uint64_t> counts = histogram->bucket_counts();
    const std::vector<double>& bounds = histogram->bounds();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += counts[i];
      os << prom << "_bucket{le=\"" << bounds[i] << "\"} " << cumulative
         << '\n';
    }
    cumulative += counts[bounds.size()];
    os << prom << "_bucket{le=\"+Inf\"} " << cumulative << '\n'
       << prom << "_sum " << histogram->sum() << '\n'
       << prom << "_count " << histogram->count() << '\n';
  }
}

void Metrics::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->reset();
  for (const auto& [name, gauge] : gauges_) gauge->reset();
  for (const auto& [name, histogram] : histograms_) histogram->reset();
}

// --- SpanRing -------------------------------------------------------------

SpanRing::SpanRing(std::size_t capacity)
    : slots_(round_up_pow2(std::max<std::size_t>(capacity, 2))),
      mask_(slots_.size() - 1) {}

bool SpanRing::push(SpanEvent&& event) noexcept {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  if (head - tail_.load(std::memory_order_acquire) >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  slots_[head & mask_] = std::move(event);
  head_.store(head + 1, std::memory_order_release);
  return true;
}

std::size_t SpanRing::drain(std::vector<SpanEvent>& out) {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::size_t drained = static_cast<std::size_t>(head - tail);
  out.reserve(out.size() + drained);
  while (tail != head) {
    out.push_back(std::move(slots_[tail & mask_]));
    ++tail;
  }
  tail_.store(tail, std::memory_order_release);
  return drained;
}

void SpanRing::clear() {
  head_.store(0, std::memory_order_relaxed);
  tail_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  for (SpanEvent& slot : slots_) slot = SpanEvent{};
}

// --- Tracer ---------------------------------------------------------------

Tracer& Tracer::instance() {
  // Leaked for the same reason as Metrics: rings must outlive every thread
  // that might still close a span during static destruction.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadSlot Tracer::local_slot() {
  thread_local ThreadSlot slot;
  if (slot.ring == nullptr) {
    const std::lock_guard<std::mutex> lock(mutex_);
    rings_.push_back(std::make_unique<SpanRing>());
    slot.ring = rings_.back().get();
    slot.index = static_cast<std::uint32_t>(rings_.size() - 1);
  }
  return slot;
}

std::vector<SpanEvent> Tracer::collect() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& ring : rings_) ring->drain(drained_);
  std::sort(drained_.begin(), drained_.end(),
            [](const SpanEvent& a, const SpanEvent& b) { return a.seq < b.seq; });
  std::vector<SpanEvent> out = std::move(drained_);
  drained_.clear();
  return out;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->dropped();
  return total;
}

void Tracer::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& ring : rings_) ring->clear();
  drained_.clear();
  g_seq.store(0, std::memory_order_relaxed);
}

// --- Span / parent stack --------------------------------------------------

std::uint64_t current_span() noexcept {
  return t_span_stack.empty() ? 0 : t_span_stack.back();
}

ScopedParent::ScopedParent(std::uint64_t parent_seq) {
  t_span_stack.push_back(parent_seq);
}

ScopedParent::~ScopedParent() { t_span_stack.pop_back(); }

void Span::open(const char* name, std::string tags) {
  name_ = name;
  tags_ = std::move(tags);
  seq_ = g_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  parent_ = current_span();
  t_span_stack.push_back(seq_);
  start_wall_ = wall_now_ns();
  start_cpu_ = cpu_now_ns();
}

void Span::close() noexcept {
  SpanEvent event;
  event.seq = seq_;
  event.parent = parent_;
  event.name = name_;
  event.tags = std::move(tags_);
  event.start_ns = start_wall_;
  event.wall_ns = wall_now_ns() - start_wall_;
  event.cpu_ns = cpu_now_ns() - start_cpu_;
  const Tracer::ThreadSlot slot = Tracer::instance().local_slot();
  event.thread = slot.index;
  slot.ring->push(std::move(event));
  if (!t_span_stack.empty() && t_span_stack.back() == seq_) {
    t_span_stack.pop_back();
  }
}

// --- Sinks ----------------------------------------------------------------

void write_chrome_trace(std::ostream& os, std::span<const SpanEvent> events) {
  std::int64_t base = 0;
  for (const SpanEvent& e : events) {
    if (base == 0 || e.start_ns < base) base = e.start_ns;
  }
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanEvent& e : events) {
    char timing[96];
    std::snprintf(timing, sizeof timing, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(e.start_ns - base) / 1000.0,
                  static_cast<double>(e.wall_ns) / 1000.0);
    os << (first ? "\n" : ",\n") << "{\"name\":\""
       << json_escape(e.name != nullptr ? e.name : "?")
       << "\",\"cat\":\"acbm\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.thread
       << ',' << timing << ",\"args\":{\"seq\":" << e.seq
       << ",\"parent\":" << e.parent << ",\"cpu_us\":"
       << e.cpu_ns / 1000;
    if (!e.tags.empty()) {
      os << ",\"tags\":\"" << json_escape(e.tags) << '"';
    }
    os << "}}";
    first = false;
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::vector<SpanAggregate> aggregate_spans(std::span<const SpanEvent> events) {
  // Index events and group children by parent seq. An event whose parent
  // was never drained (still open, or dropped by a full ring) is a root.
  std::unordered_map<std::uint64_t, std::size_t> by_seq;
  by_seq.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) by_seq[events[i].seq] = i;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children_of;
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint64_t parent = events[i].parent;
    if (parent != 0 && by_seq.count(parent) != 0) {
      children_of[parent].push_back(i);
    } else {
      roots.push_back(i);
    }
  }

  std::vector<SpanAggregate> out;
  // Recursive merge: group sibling events by name (sorted), emit one
  // aggregate per group, then recurse into the union of the group's
  // children. Same-name siblings merge, so the tree shape depends only on
  // which spans ran under which — not on timing or thread placement.
  const auto emit = [&](const auto& self, const std::vector<std::size_t>& evs,
                        const std::string& prefix, int depth) -> void {
    std::map<std::string_view, std::vector<std::size_t>> groups;
    for (std::size_t i : evs) {
      groups[events[i].name != nullptr ? events[i].name : "?"].push_back(i);
    }
    for (const auto& [name, members] : groups) {
      SpanAggregate agg;
      agg.name = std::string(name);
      agg.path = prefix.empty() ? agg.name : prefix + "/" + agg.name;
      agg.depth = depth;
      std::vector<std::size_t> grandchildren;
      for (std::size_t i : members) {
        ++agg.count;
        agg.wall_ns += events[i].wall_ns;
        agg.cpu_ns += events[i].cpu_ns;
        const auto it = children_of.find(events[i].seq);
        if (it != children_of.end()) {
          grandchildren.insert(grandchildren.end(), it->second.begin(),
                               it->second.end());
        }
      }
      const std::string path = agg.path;
      out.push_back(std::move(agg));
      self(self, grandchildren, path, depth + 1);
    }
  };
  emit(emit, roots, "", 0);
  return out;
}

void write_profile(std::ostream& os, std::span<const SpanEvent> events,
                   std::uint64_t dropped) {
  const std::vector<SpanAggregate> tree = aggregate_spans(events);
  os << "-- acbm profile: merged span tree --\n";
  char header[96];
  std::snprintf(header, sizeof header, "%-44s %12s %12s %9s\n", "span",
                "wall ms", "cpu ms", "count");
  os << header;
  for (const SpanAggregate& node : tree) {
    std::string label(static_cast<std::size_t>(node.depth) * 2, ' ');
    label += node.name;
    char line[160];
    std::snprintf(line, sizeof line, "%-44s %12.3f %12.3f %9" PRIu64 "\n",
                  label.c_str(), static_cast<double>(node.wall_ns) / 1e6,
                  static_cast<double>(node.cpu_ns) / 1e6, node.count);
    os << line;
  }
  os << "spans: " << events.size() << " closed, " << dropped << " dropped\n";
}

}  // namespace acbm::core::observe
