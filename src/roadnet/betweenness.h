// Betweenness centrality of road segments (Eq. (2) of the paper).
//
// The paper measures the importance of a road segment by the fraction of
// shortest paths that traverse it. On the intersection graph this is the
// classical *edge* betweenness, computed here with Brandes' accumulation
// (O(N*M) unweighted, O(N*(M + N log N)) weighted).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "roadnet/road_graph.h"

namespace avcp::roadnet {

/// How path length is measured when counting shortest paths.
enum class PathMetric : std::uint8_t {
  kHops = 0,        // unweighted BFS
  kDistance = 1,    // segment length, Dijkstra
  kTravelTime = 2,  // length / speed, Dijkstra
};

struct BetweennessOptions {
  PathMetric metric = PathMetric::kHops;
  /// Normalise by (N-1)(N-2) as in Eq. (2) so values are comparable across
  /// network sizes. When false, raw pair counts are returned.
  bool normalize = true;
  /// Worker threads for the per-source accumulation passes (Brandes is
  /// embarrassingly parallel across sources). 0 = hardware concurrency.
  /// Sources are chunked independently of the thread count and the chunk
  /// partials are reduced in chunk order, so the result is bit-identical at
  /// every thread count (and therefore across machines at the default).
  std::size_t num_threads = 1;
};

/// Exact per-segment betweenness centrality.
std::vector<double> segment_betweenness(const RoadGraph& g,
                                        const BetweennessOptions& opts = {});

/// Exact betweenness under caller-supplied per-segment weights (one finite
/// positive weight per segment; Dijkstra path counting with the relative
/// tie tolerance). `opts.metric` is ignored — the weights *are* the metric;
/// normalize / num_threads apply as usual. This is the from-scratch
/// reference for IncrementalBetweenness below: for any weight vector the
/// two agree bit for bit.
std::vector<double> segment_betweenness_weighted(
    const RoadGraph& g, std::span<const double> weights,
    const BetweennessOptions& opts = {});

/// Weighted Brandes kept alive for weights that change between refreshes
/// (the service layer's congestion-scaled travel times, which move as
/// vehicles join, leave, and migrate).
///
/// The object owns its thread pool and its per-chunk partials, so a refresh
/// starts no threads and allocates only the chunks' Brandes workspaces.
/// update_weights() applies the changed weights and, if any weight changed,
/// re-runs every source chunk and reduces the partials in chunk order: the
/// same driver, chunk boundaries and summation order as
/// segment_betweenness_weighted, so the centrality is bit-equal to it at
/// every thread count.
class IncrementalBetweenness {
 public:
  /// `g` must outlive the object and stay unchanged (weights are the only
  /// mutable input). Computes the initial centrality from scratch.
  IncrementalBetweenness(const RoadGraph& g, std::vector<double> weights,
                         BetweennessOptions opts = {});

  struct UpdateStats {
    std::size_t segments_changed = 0;
    /// num_chunks() when a weight changed, 0 otherwise.
    std::size_t chunks_recomputed = 0;
  };

  /// Applies the weight changes (parallel arrays; later duplicates win) and
  /// refreshes the centrality if any of them changed a weight. Entries
  /// whose weight is bit-equal to the current one are ignored.
  UpdateStats update_weights(std::span<const SegmentId> segments,
                             std::span<const double> new_weights);

  /// Current centrality — bit-equal to segment_betweenness_weighted(g,
  /// weights(), opts) at all times.
  const std::vector<double>& centrality() const noexcept {
    return centrality_;
  }

  std::span<const double> weights() const noexcept { return weights_; }
  std::size_t num_chunks() const noexcept { return partials_.size(); }

 private:
  const RoadGraph& g_;
  BetweennessOptions opts_;
  std::vector<double> weights_;
  /// partials_[chunk][segment]: the chunk's unscaled accumulation.
  std::vector<std::vector<double>> partials_;
  std::vector<double> centrality_;
  ThreadPool pool_;
};

}  // namespace avcp::roadnet
