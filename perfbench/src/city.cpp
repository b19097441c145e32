#include "city.h"

#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "common/interval.h"

namespace perfbench {

using namespace avcp;

core::FdsOptions fds_options() {
  core::FdsOptions options = bench::bench_fds_options();
  options.max_step = kLambda;
  return options;
}

City build_city() {
  City city;
  city.config = bench::paper_config(sim::CoefficientKind::kBetweenness);
  city.artifacts = sim::build_pipeline(city.config);
  city.game.emplace(bench::make_paper_game(city.artifacts, kStepSize));
  city.fields.emplace(bench::attainable_fields(
      *city.game, city.game->uniform_state(), kXRef, kEps));
  return city;
}

bool pipeline_valid(const City& city) {
  const cluster::Clustering& cl = city.artifacts.clustering;
  const std::size_t segments = city.artifacts.graph.num_segments();
  if (cl.num_regions() != city.config.num_regions) return false;
  if (cl.region_of.size() != segments) return false;
  std::vector<int> seen(segments, 0);
  for (cluster::RegionId r = 0; r < cl.num_regions(); ++r) {
    if (cl.members[r].empty()) return false;
    for (const roadnet::SegmentId s : cl.members[r]) {
      if (s >= segments || cl.region_of[s] != r) return false;
      ++seen[s];
    }
  }
  if (!std::all_of(seen.begin(), seen.end(), [](int n) { return n == 1; })) {
    return false;
  }
  if (city.artifacts.region_specs.size() != city.config.num_regions) {
    return false;
  }
  for (const core::RegionSpec& spec : city.artifacts.region_specs) {
    if (!(spec.beta >= city.config.beta_lo && spec.beta <= city.config.beta_hi)) {
      return false;
    }
  }
  return true;
}

bool inside_fields(const core::DesiredFields& fields,
                   const core::GameState& state) {
  for (core::RegionId i = 0; i < state.p.size(); ++i) {
    for (core::DecisionId k = 0; k < state.p[i].size(); ++k) {
      const Interval& iv = fields.target(i, k);
      if (!(state.p[i][k] >= iv.lo && state.p[i][k] <= iv.hi)) return false;
    }
  }
  return true;
}

}  // namespace perfbench
