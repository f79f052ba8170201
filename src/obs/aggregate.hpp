// Cluster-wide metrics aggregation: merge per-node QueryStats snapshots
// into one namespaced view.
//
// Each daemon answers QueryStats with a MetricsSnapshot: its process's
// registry plus the daemon's own "stats.*" counts (Runtime::stats_snapshot).
// The head node (gpuvm_run --stats --cluster, gpuvm_top) fans the query out
// to every peer and merges the answers here:
//
//   node.<name>.<metric>     -- each node's value, namespaced verbatim
//   cluster.total.<metric>   -- rollup across nodes: counters and gauges
//                               summed, histograms bucket-merged (so
//                               histogram_quantile on the rollup yields
//                               cluster-level p50/p95/p99)
//
// A node's "stats.*" rows are its own, so their rollup is the cluster's
// total. The registry's instruments are process-wide and "stats.vt.*"
// belongs to the clock domain: when N nodes share one process and domain
// (an in-process cluster), every node's reply repeats them, and their
// cluster.total.* is N times the shared value.
//
// Histograms only merge when their bucket edges agree (they do -- every
// layer uses the shared default edges); on a mismatch the rollup keeps the
// first node's shape and counts the others' observations into count/sum
// only, rather than inventing buckets.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace gpuvm::obs {

/// One node's contribution: its advertised name plus its snapshot.
struct NodeStats {
  std::string name;
  MetricsSnapshot snapshot;
};

/// Merges per-node snapshots into namespaced views plus cluster rollups
/// (see file comment). Output values are sorted by name, like any registry
/// snapshot.
MetricsSnapshot aggregate_cluster(std::span<const NodeStats> nodes);

}  // namespace gpuvm::obs
