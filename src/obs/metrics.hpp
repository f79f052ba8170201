// MetricsRegistry: the process-wide instruments -- counters, gauges and
// histograms that no single node owns: latency and size histograms, the
// transport counters, cudart calls, chaos events, the head node's
// directory and dispatch counters and the migration byte totals. Hot
// paths update them through cached handles.
//
// Per-node counts are not kept here. Each layer (Runtime, Scheduler,
// MemoryManager, SimGpu) keeps its own in its stats struct, the only store
// of those counts (common/stats_table.hpp). A daemon answers the QueryStats
// op with Runtime::stats_snapshot(): this registry's snapshot plus the
// serving daemon's own "stats.*" gauges rendered from its structs. A
// MetricsSnapshot serializes over the wire protocol, so a client can poll a
// running daemon.
//
// Handle discipline: counter()/gauge()/histogram() take a mutex and do a
// map lookup — call them once at setup and cache the returned reference
// (entries are never removed, so handles stay valid for the registry's
// lifetime, across reset()). The handle operations themselves are single
// atomic ops, safe on any thread.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "common/wire.hpp"

namespace gpuvm::obs {

class Counter {
 public:
  void add(u64 delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  u64 value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<u64> value_{0};
};

class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `edges` are the inclusive upper bounds of the
/// first N buckets; one implicit overflow bucket catches the rest. An
/// observation lands in the first bucket whose edge is >= the value.
class Histogram {
 public:
  explicit Histogram(std::vector<double> edges);

  void observe(double value);

  const std::vector<double>& edges() const { return edges_; }
  /// Per-bucket counts; size() == edges().size() + 1 (overflow last).
  std::vector<u64> bucket_counts() const;
  u64 count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::vector<double> edges_;
  std::vector<std::atomic<u64>> buckets_;
  std::atomic<u64> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Canonical bucket edges: modeled seconds for waits/latencies, bytes for
/// transfer sizes. Shared so every layer's histograms line up.
std::span<const double> default_seconds_edges();
std::span<const double> default_bytes_edges();

/// Quantile estimate over explicit bucket counts (edges as in Histogram:
/// inclusive upper bounds plus one implicit overflow bucket). Returns the
/// upper edge of the bucket containing the q-th observation -- a
/// deterministic, conservative estimate; the overflow bucket reports the
/// last finite edge. 0 when there are no observations.
double histogram_quantile(std::span<const double> edges, std::span<const u64> buckets,
                          double q);

/// Same, over the delta between two cumulative bucket snapshots (`current`
/// minus `previous`, element-wise): the quantile of the observations made
/// between the two snapshots. Used by load-report heartbeats for "recent"
/// latency percentiles.
double histogram_quantile_delta(std::span<const double> edges, std::span<const u64> current,
                                std::span<const u64> previous, double q);

enum class MetricKind : u8 { Counter = 0, Gauge = 1, Histogram = 2 };

struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  u64 counter = 0;
  double gauge = 0.0;
  std::vector<double> edges;
  std::vector<u64> buckets;
  u64 count = 0;
  double sum = 0.0;
};

/// Point-in-time copy of metrics, ordered by name. Wire-serializable for
/// the QueryStats op.
struct MetricsSnapshot {
  std::vector<MetricValue> values;

  const MetricValue* find(std::string_view name) const;
  u64 counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;

  void encode(WireWriter& w) const;
  static std::optional<MetricsSnapshot> decode(WireReader& r);

  /// Plain-text rendering (gpuvm_run --stats, gpuvmd dumps).
  std::string to_text() const;
};

class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `edges` applies on first creation; later callers share the existing
  /// histogram whatever edges they pass.
  Histogram& histogram(const std::string& name, std::span<const double> edges);

  MetricsSnapshot snapshot() const;

  /// Zeroes every value, keeping the entries (and handles) alive. Benches
  /// call this between configurations so annotations are per-run.
  void reset();

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// The process-global registry (Prometheus-default-registry idiom). Always
/// available; instrumentation cost is one atomic op per update.
MetricsRegistry& metrics();

}  // namespace gpuvm::obs
