#include "cluster/incremental_clustering.h"

#include <cmath>

#include "common/contracts.h"

namespace avcp::cluster {

namespace {

/// The congestion-scaled travel time documented at
/// IncrementalClusteringOptions::congestion_alpha.
double congestion_weight(const roadnet::RoadGraph& g, roadnet::SegmentId s,
                         std::int64_t load, double congestion_alpha) {
  AVCP_EXPECT(load >= 0);
  return g.segment(s).travel_time_s() *
         (1.0 + congestion_alpha * static_cast<double>(load));
}

}  // namespace

std::vector<double> IncrementalClustering::load_weights(
    const roadnet::RoadGraph& g, std::span<const std::int64_t> loads,
    double congestion_alpha) {
  AVCP_EXPECT(loads.size() == g.num_segments());
  std::vector<double> weights(g.num_segments());
  for (roadnet::SegmentId s = 0; s < g.num_segments(); ++s) {
    weights[s] = congestion_weight(g, s, loads[s], congestion_alpha);
  }
  return weights;
}

IncrementalClustering::IncrementalClustering(const roadnet::RoadGraph& g,
                                             IncrementalClusteringOptions opts)
    : g_(g),
      opts_(opts),
      loads_(g.num_segments(), 0),
      inc_(g, load_weights(g, loads_, opts.congestion_alpha),
           opts.betweenness) {
  AVCP_EXPECT(std::isfinite(opts_.congestion_alpha) &&
              opts_.congestion_alpha >= 0.0);
  clustering_ = cluster_segments(g_, inc_.centrality(), opts_.clustering);
}

IncrementalClustering::RefreshStats IncrementalClustering::apply(
    std::span<const LoadDelta> deltas) {
  if (deltas.empty()) return {};

  // Fold duplicates into the counts first, then hand the betweenness one
  // final weight per touched segment, in segment-id order so the update is
  // independent of delta ordering.
  touched_.assign(g_.num_segments(), 0);
  for (const LoadDelta& d : deltas) {
    AVCP_EXPECT(d.segment < g_.num_segments());
    loads_[d.segment] += d.delta;
    AVCP_EXPECT(loads_[d.segment] >= 0);
    touched_[d.segment] = 1;
  }
  segments_.clear();
  weights_.clear();
  for (roadnet::SegmentId s = 0; s < g_.num_segments(); ++s) {
    if (touched_[s] == 0) continue;
    segments_.push_back(s);
    weights_.push_back(
        congestion_weight(g_, s, loads_[s], opts_.congestion_alpha));
  }
  return refresh();
}

void IncrementalClustering::set_loads(std::span<const std::int64_t> loads) {
  AVCP_EXPECT(loads.size() == g_.num_segments());
  segments_.clear();
  weights_.clear();
  for (roadnet::SegmentId s = 0; s < g_.num_segments(); ++s) {
    AVCP_EXPECT(loads[s] >= 0);
    if (loads[s] == loads_[s]) continue;
    loads_[s] = loads[s];
    segments_.push_back(s);
    weights_.push_back(
        congestion_weight(g_, s, loads_[s], opts_.congestion_alpha));
  }
  refresh();
}

IncrementalClustering::RefreshStats IncrementalClustering::refresh() {
  const auto up = inc_.update_weights(segments_, weights_);
  RefreshStats stats;
  stats.segments_changed = up.segments_changed;
  stats.chunks_recomputed = up.chunks_recomputed;
  // With no changed weight the centrality is bit-identical, and so is
  // Algorithm 1's clustering over it: skip the re-run.
  if (up.chunks_recomputed > 0) {
    clustering_ = cluster_segments(g_, inc_.centrality(), opts_.clustering);
    stats.reclustered = true;
  }
  return stats;
}

Clustering IncrementalClustering::scratch(
    const roadnet::RoadGraph& g, std::span<const std::int64_t> loads,
    const IncrementalClusteringOptions& opts) {
  const std::vector<double> weights =
      load_weights(g, loads, opts.congestion_alpha);
  const std::vector<double> coeffs =
      roadnet::segment_betweenness_weighted(g, weights, opts.betweenness);
  return cluster_segments(g, coeffs, opts.clustering);
}

}  // namespace avcp::cluster
