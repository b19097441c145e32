// The three workloads and the per-layer metric table they share.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Per-layer values a traced run measured, by metric name. A layer the
/// workload does not run is absent and prints as 0.
using LayerValues = std::map<std::string, double>;

/// What a workload hands back to main: its operations and checks live in
/// `ledger`, its end-to-end metrics and exact counts in `report`, and the
/// traced run's per-layer values in `layers`.
struct Outcome {
  Ledger ledger;
  Report report;
  LayerValues layers;
};

struct City;

/// Times each stage of the set-up pipeline on its own with the city's
/// config: sim.pipeline_ms, roadnet.betweenness_ms, trace.generate_ms,
/// trace.fixes, spatial.deploy_ms, cluster.algorithm1_ms and
/// cluster.region_graph_ms.
void time_setup_stages(const City& city, LayerValues& layers);

/// Median microseconds of one ThreadPool::run_batch of `tasks` no-op
/// tasks at `lanes` lanes.
double dispatch_us(std::size_t lanes, std::size_t tasks);

void run_paper_city(const Args& args, Outcome& out);
void run_service_churn(const Args& args, Outcome& out);
void run_fleet_scale(const Args& args, Outcome& out);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 9;

/// The set-ups after the first, run after every pass and check: times
/// `set_up()` kSetupReps - 1 times and releases what it built after its
/// time is taken.
template <typename SetUp>
void repeat_set_up(std::vector<double>& setup_ms, SetUp&& set_up) {
  for (int rep = 1; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    const auto built = set_up();
    setup_ms.push_back(ms_since(t0));
  }
}

/// Stops a timed phase: at least `min_passes` passes, then whole passes
/// until `seconds` have elapsed since `start`.
inline bool more_passes(std::size_t done, std::size_t min_passes,
                        Clock::time_point start, double seconds) {
  return done < min_passes || ms_since(start) < seconds * 1e3;
}

}  // namespace perfbench
