// Process-wide metrics registry: monotonic counters, gauges, and
// fixed-bucket latency histograms with quantile estimation.
//
// Library code plants named instruments on its hot and failure paths:
//
//   SEL_METRIC_COUNTER_INC("solver.qp.pg.attempts");
//   SEL_METRIC_GAUGE_SET("pool.queue_depth", depth);
//   SEL_METRIC_HIST_RECORD("predict.query_us", elapsed_us);
//
// Instruments are inert until metrics are enabled, either
// programmatically (SetMetricsEnabled(true)) or via the SEL_METRICS=1
// environment knob parsed at process start. The macros' fast path is a
// single relaxed atomic load (mirroring fault.h), so disabled processes
// pay (essentially) nothing; when enabled, updates are lock-free relaxed
// atomics — registration takes a mutex once per call site, after which
// the instrument reference is cached in a function-local static.
//
// Snapshot() captures every instrument into a plain-value
// MetricsSnapshot that tests assert against and `selcli stats` renders
// as text/CSV. Histogram buckets are fixed powers of two (1us .. ~4s
// plus overflow); quantiles are estimated by linear interpolation
// inside the owning bucket, which makes them monotone in p by
// construction.
#ifndef SEL_COMMON_METRICS_H_
#define SEL_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer.h"

namespace sel {

namespace metrics_internal {
extern std::atomic<bool> g_enabled;
}  // namespace metrics_internal

/// True iff metric recording is on (the macros' fast path).
inline bool MetricsEnabled() {
  return metrics_internal::g_enabled.load(std::memory_order_relaxed);
}

/// Turns metric recording on or off process-wide. Existing values are
/// kept; recording simply stops/resumes.
void SetMetricsEnabled(bool enabled);

/// Monotonic counter. Increment-only, relaxed atomic.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time gauge (queue depths, backoff intervals). Set/Add,
/// relaxed atomic.
class Gauge {
 public:
  void Set(int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Value-copy of one histogram, safe to inspect without racing writers.
struct HistogramSnapshot {
  uint64_t count = 0;   ///< total recorded values
  double sum = 0.0;     ///< sum of recorded values
  /// bucket_counts[i] values fell in (bound[i-1], bound[i]]; the last
  /// bucket is the overflow bucket (no upper bound).
  std::vector<uint64_t> bucket_counts;
  /// Upper bound of each non-overflow bucket (2^i).
  std::vector<double> bucket_bounds;

  double Mean() const { return count == 0 ? 0.0 : sum / count; }

  /// p-th quantile estimate (p in [0,1]) by linear interpolation inside
  /// the owning bucket. Monotone in p. Returns 0 on an empty histogram.
  double Quantile(double p) const;
};

/// Fixed-bucket histogram: power-of-two upper bounds 1, 2, 4, ... up to
/// 2^(kNumBounds-1), plus one overflow bucket. Designed for latencies
/// in microseconds (1us .. ~4.2s) but any nonnegative magnitude (solver
/// iterations, byte counts) buckets the same way. Record is lock-free:
/// one relaxed fetch_add per bucket count plus one for the sum.
class Histogram {
 public:
  static constexpr int kNumBounds = 23;              ///< 2^0 .. 2^22
  static constexpr int kNumBuckets = kNumBounds + 1; ///< + overflow

  void Record(double value);

  HistogramSnapshot Snapshot() const;

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Value-copy of every instrument in the registry at one point in time.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Counter value, or 0 if the counter was never touched.
  uint64_t CounterValue(const std::string& name) const;

  /// Gauge value, or 0 if the gauge was never touched.
  int64_t GaugeValue(const std::string& name) const;

  /// The named histogram, or nullptr if it was never touched.
  const HistogramSnapshot* FindHistogram(const std::string& name) const;

  /// Human-readable dump, one instrument per line, sorted by name.
  std::string ToText() const;

  /// CSV dump with header "kind,name,count,value,sum,mean,p50,p95,p99".
  std::string ToCsv() const;

  /// JSON render: {"counters":{...},"gauges":{...},"histograms":{name:
  /// {"count","sum","mean","p50","p95","p99"}}}. One format shared by
  /// `selcli stats --json`, the server's Stats frame, and external
  /// scrapers. Keys sorted (std::map), deterministic output.
  std::string ToJson() const;
};

/// Process-wide registry of named instruments. Instruments are created
/// on first lookup and never destroyed, so references stay valid for the
/// process lifetime (call sites cache them in function-local statics).
class MetricsRegistry {
 public:
  /// The singleton. First use parses SEL_METRICS.
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Captures every instrument into plain values.
  MetricsSnapshot Snapshot() const;

  /// Drops every instrument (tests only — outstanding cached references
  /// at call sites would dangle, so instead the instruments are zeroed
  /// in place and kept).
  void Reset();

 private:
  MetricsRegistry();

  mutable std::mutex mu_;
  // unique_ptr for pointer stability across map growth.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// RAII latency probe: records elapsed microseconds into `hist` on
/// destruction. Only constructed by SEL_METRIC_SCOPED_LATENCY, which
/// gates on MetricsEnabled() first.
class ScopedLatencyRecorder {
 public:
  explicit ScopedLatencyRecorder(Histogram* hist) : hist_(hist) {}
  ~ScopedLatencyRecorder() {
    if (hist_ != nullptr) hist_->Record(timer_.Seconds() * 1e6);
  }

  ScopedLatencyRecorder(const ScopedLatencyRecorder&) = delete;
  ScopedLatencyRecorder& operator=(const ScopedLatencyRecorder&) = delete;

 private:
  Histogram* hist_;
  WallTimer timer_;
};

namespace metrics_internal {
// Concatenation helpers so each macro expansion gets a unique local.
#define SEL_METRICS_CONCAT_INNER(a, b) a##b
#define SEL_METRICS_CONCAT(a, b) SEL_METRICS_CONCAT_INNER(a, b)
}  // namespace metrics_internal

}  // namespace sel

/// Increments counter `name` by `delta` when metrics are enabled. The
/// instrument lookup runs once per call site (function-local static).
#define SEL_METRIC_COUNTER_ADD(name, delta)                           \
  do {                                                                \
    if (::sel::MetricsEnabled()) {                                    \
      static ::sel::Counter& sel_metric_counter_ =                    \
          ::sel::MetricsRegistry::Global().GetCounter(name);          \
      sel_metric_counter_.Increment(delta);                           \
    }                                                                 \
  } while (0)

/// Increments counter `name` by 1 when metrics are enabled.
#define SEL_METRIC_COUNTER_INC(name) SEL_METRIC_COUNTER_ADD(name, 1)

/// Sets gauge `name` to `value` when metrics are enabled.
#define SEL_METRIC_GAUGE_SET(name, value)                             \
  do {                                                                \
    if (::sel::MetricsEnabled()) {                                    \
      static ::sel::Gauge& sel_metric_gauge_ =                        \
          ::sel::MetricsRegistry::Global().GetGauge(name);            \
      sel_metric_gauge_.Set(value);                                   \
    }                                                                 \
  } while (0)

/// Adds `delta` (may be negative) to gauge `name` when enabled.
#define SEL_METRIC_GAUGE_ADD(name, delta)                             \
  do {                                                                \
    if (::sel::MetricsEnabled()) {                                    \
      static ::sel::Gauge& sel_metric_gauge_ =                        \
          ::sel::MetricsRegistry::Global().GetGauge(name);            \
      sel_metric_gauge_.Add(delta);                                   \
    }                                                                 \
  } while (0)

/// Records `value` into histogram `name` when metrics are enabled.
#define SEL_METRIC_HIST_RECORD(name, value)                           \
  do {                                                                \
    if (::sel::MetricsEnabled()) {                                    \
      static ::sel::Histogram& sel_metric_hist_ =                     \
          ::sel::MetricsRegistry::Global().GetHistogram(name);        \
      sel_metric_hist_.Record(value);                                 \
    }                                                                 \
  } while (0)

/// Times the rest of the enclosing scope into latency histogram `name`
/// (microseconds) when metrics are enabled at entry.
#define SEL_METRIC_SCOPED_LATENCY(name)                               \
  ::sel::ScopedLatencyRecorder SEL_METRICS_CONCAT(                    \
      sel_scoped_latency_, __LINE__)(                                 \
      ::sel::MetricsEnabled()                                         \
          ? &::sel::MetricsRegistry::Global().GetHistogram(name)      \
          : nullptr)

#endif  // SEL_COMMON_METRICS_H_
