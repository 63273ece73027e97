// Per-layer breakdown of the traced run.  Every layer is measured from the
// outside: handler spans around EiService::handle and Router::route on the
// benchmark-owned servers, the program's own counters, and a sequential
// replay of sampled requests through each layer's public calls.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "loadgen.h"
#include "workloads.h"

namespace openei::bench_e2e {

/// Program-side counters, summed over nodes where that makes sense.
struct Counters {
  double cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  double algorithm_requests = 0, batch_flushes = 0;
  double conns_accepted = 0, requests_served = 0, keepalive_reuses = 0;
  double fleet_requests = 0, fleet_forwards = 0, fleet_failovers = 0;
  double energy_j = 0;  // EnergyGovernor ledger total_j, all nodes
};
Counters snapshot(Topology& topo);

/// What the load left behind for the breakdown.
struct LoadRun {
  Phase closed;
  Phase open;
  Phase swaps;  // sequential swap pass (empty when swaps ride in the load)
  Counters before;  // before the closed-loop phase
  Counters after;   // after the open-loop phase
};

/// Parts-add-up tolerance: a layer's self time plus its children must land
/// within this share of the whole.
inline constexpr double kPartsTolerance = 0.25;

/// The per-layer metrics (BENCHMARK.json "per_layer").  `notes` receives
/// human-readable lines: replay counts and the parts-add-up checks.
std::vector<Metric> layer_metrics(const WorkloadSpec& spec, Topology& topo,
                                  const LoadRun& run, const Spans& spans,
                                  std::uint64_t first_free_rid,
                                  std::uint64_t seed,
                                  std::vector<std::string>& notes,
                                  bool& replay_correct);

}  // namespace openei::bench_e2e
