// Shared helpers for the benchmark harness. Each bench binary reproduces one
// experiment row of DESIGN.md section 3; metrics of interest are *simulated*
// quantities reported as google-benchmark counters (wall time of the
// simulation itself is irrelevant to the paper's claims).
#pragma once

#include <benchmark/benchmark.h>

#include <memory>

#include "baseline/conservative_replica.h"
#include "baseline/lazy_replica.h"
#include "core/cluster.h"
#include "workload/workload.h"

namespace otpdb::bench {

inline ReplicaFactory lazy_factory() {
  return [](const ReplicaDeps& d) {
    return std::make_unique<LazyReplica>(d.sim, d.net, d.storage, d.catalog, d.registry, d.site);
  };
}

/// LAN regime used across benches: the calibrated Figure-1 defaults.
inline NetConfig lan() { return NetConfig{}; }

/// Aggregated view over all replicas of a cluster.
struct ClusterTotals {
  std::uint64_t committed = 0;
  std::uint64_t aborts = 0;
  std::uint64_t reexecutions = 0;
  std::uint64_t reorders = 0;
  OnlineStats commit_latency_ns;
  PercentileTracker commit_latency_percentiles_ns;
  OnlineStats commit_wait_ns;
  OnlineStats opt_to_gap_ns;
  OnlineStats query_latency_ns;
  std::uint64_t query_retries = 0;
};

inline ClusterTotals totals(Cluster& cluster) {
  ClusterTotals t;
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    const ReplicaMetrics& m = cluster.replica(s).metrics();
    t.committed += m.committed;
    t.aborts += m.aborts;
    t.reexecutions += m.reexecutions;
    t.reorders += m.mismatch_reorders;
    t.commit_latency_ns.merge(m.commit_latency_ns);
    t.commit_latency_percentiles_ns.merge(m.commit_latency_percentiles_ns);
    t.commit_wait_ns.merge(m.commit_wait_ns);
    t.opt_to_gap_ns.merge(m.opt_to_gap_ns);
    t.query_latency_ns.merge(m.query_latency_ns);
    t.query_retries += m.query_retries;
  }
  return t;
}

inline double to_ms(double ns) { return ns / 1e6; }

/// Cluster-wide goodput in distinct transactions per second. Eager engines
/// commit every transaction at every site (divide by n); the lazy engine's
/// commit counter only covers a transaction's origin site (count directly).
inline double goodput(const ClusterTotals& t, std::size_t n_sites, double duration_s,
                      bool lazy_engine) {
  if (duration_s <= 0) return 0;
  const double commits = static_cast<double>(t.committed);
  return lazy_engine ? commits / duration_s
                     : commits / static_cast<double>(n_sites) / duration_s;
}

}  // namespace otpdb::bench
