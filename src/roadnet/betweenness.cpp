#include "roadnet/betweenness.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <thread>
#include <utility>

#include "common/contracts.h"
#include "common/thread_pool.h"

namespace avcp::roadnet {

namespace {

double edge_weight(const RoadGraph& g, SegmentId s, PathMetric metric) {
  switch (metric) {
    case PathMetric::kHops:
      return 1.0;
    case PathMetric::kDistance:
      return g.segment(s).length_m;
    case PathMetric::kTravelTime:
      return g.segment(s).travel_time_s();
  }
  return 1.0;
}

/// Scratch for Brandes accumulation passes, reused for every source one
/// chunk accumulates. Every array is sized once from the graph, so a pass
/// never allocates: the Dijkstra heap's reserve covers its worst case (one
/// entry per relaxed hop plus the source). Predecessors live in flat
/// per-node slots laid out by degree — an undirected node has at most
/// degree(w) counted predecessors, one per incident hop.
class BrandesWorkspace {
 public:
  explicit BrandesWorkspace(const RoadGraph& g)
      : g_(g),
        dist_(g.num_intersections()),
        sigma_(g.num_intersections()),
        delta_(g.num_intersections()),
        settled_(g.num_intersections()),
        pred_begin_(g.num_intersections() + 1, 0),
        pred_count_(g.num_intersections()) {
    const std::size_t n = g.num_intersections();
    for (NodeId v = 0; v < n; ++v) {
      pred_begin_[v + 1] = pred_begin_[v] +
                           static_cast<std::uint32_t>(g.neighbors(v).size());
    }
    preds_.resize(pred_begin_[n]);
    order_.reserve(n);
    frontier_.reserve(n);
    heap_.reserve(preds_.size() + 1);
  }

  /// One Brandes pass from `source`, adding each segment's pair-dependency
  /// into `centrality`. An empty `weights` span selects the unweighted BFS
  /// path (the kHops metric); otherwise weights[segment] is the segment's
  /// traversal cost (Dijkstra).
  void accumulate(NodeId source, std::span<const double> weights,
                  std::span<double> centrality) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::fill(dist_.begin(), dist_.end(), kInf);
    std::fill(sigma_.begin(), sigma_.end(), 0.0);  // shortest-path counts
    std::fill(delta_.begin(), delta_.end(), 0.0);  // dependencies
    std::fill(pred_count_.begin(), pred_count_.end(), 0u);
    order_.clear();  // nodes in nondecreasing distance

    dist_[source] = 0.0;
    sigma_[source] = 1.0;

    if (weights.empty()) {
      frontier_.clear();
      frontier_.push_back(source);
      for (std::size_t head = 0; head < frontier_.size(); ++head) {
        const NodeId v = frontier_[head];
        order_.push_back(v);
        for (const Hop& hop : g_.neighbors(v)) {
          const NodeId w = hop.node;
          if (dist_[w] == kInf) {
            dist_[w] = dist_[v] + 1.0;
            frontier_.push_back(w);
          }
          if (dist_[w] == dist_[v] + 1.0) {
            sigma_[w] += sigma_[v];
            append_pred(w, Hop{hop.segment, v});
          }
        }
      }
    } else {
      // Min-heap on (dist, node) through push_heap/pop_heap with
      // std::greater: the comparator alone fixes the pop sequence, and so
      // the settle order every floating-point sum below depends on.
      std::fill(settled_.begin(), settled_.end(), std::uint8_t{0});
      heap_.clear();
      push_heap_entry(0.0, source);
      // Tie tolerance *relative* to the candidate distance: equal-cost
      // paths accumulated through different chains drift apart by
      // O(eps * length), so a fixed absolute window both misses ties on
      // km-scale distance / travel-time weights (drift > window) and merges
      // genuinely distinct path lengths on tiny ones. 1e-12 relative sits
      // far above the few-ulp drift of any realistic chain and far below
      // any real length gap.
      constexpr double kTieTolRel = 1e-12;
      while (!heap_.empty()) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        const auto [d, v] = heap_.back();
        heap_.pop_back();
        if (settled_[v] != 0) continue;
        settled_[v] = 1;
        order_.push_back(v);
        for (const Hop& hop : g_.neighbors(v)) {
          const NodeId w = hop.node;
          const double nd = d + weights[hop.segment];
          const double tol = kTieTolRel * nd;  // dist[w] may be +inf
          if (nd < dist_[w] - tol) {
            dist_[w] = nd;
            sigma_[w] = sigma_[v];
            pred_count_[w] = 0;
            append_pred(w, Hop{hop.segment, v});
            push_heap_entry(nd, w);
          } else if (std::abs(nd - dist_[w]) <= tol && settled_[w] == 0) {
            sigma_[w] += sigma_[v];
            append_pred(w, Hop{hop.segment, v});
          }
        }
      }
    }

    // Back-propagate dependencies in reverse settle order.
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      const NodeId w = *it;
      const Hop* preds = preds_.data() + pred_begin_[w];
      for (std::uint32_t p = 0; p < pred_count_[w]; ++p) {
        const Hop& pred = preds[p];
        const double share = sigma_[pred.node] / sigma_[w] * (1.0 + delta_[w]);
        centrality[pred.segment] += share;
        delta_[pred.node] += share;
      }
    }
  }

 private:
  void append_pred(NodeId w, Hop pred) {
    preds_[pred_begin_[w] + pred_count_[w]++] = pred;
  }

  void push_heap_entry(double d, NodeId v) {
    heap_.emplace_back(d, v);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  const RoadGraph& g_;
  std::vector<double> dist_;
  std::vector<double> sigma_;
  std::vector<double> delta_;
  std::vector<std::uint8_t> settled_;
  std::vector<std::uint32_t> pred_begin_;  // CSR offsets of the slots
  std::vector<std::uint32_t> pred_count_;
  std::vector<Hop> preds_;
  std::vector<NodeId> order_;
  std::vector<NodeId> frontier_;  // BFS queue, consumed by a head index
  std::vector<std::pair<double, NodeId>> heap_;
};

/// Per-segment traversal cost vector for a metric; empty for kHops (which
/// runs the BFS path). Hoisting the weights out of the per-source loop
/// computes each segment's cost once instead of per (source, visit) — the
/// values are identical doubles, so results are unchanged bit for bit.
std::vector<double> metric_weights(const RoadGraph& g, PathMetric metric) {
  std::vector<double> weights;
  if (metric == PathMetric::kHops) return weights;
  weights.resize(g.num_segments());
  for (SegmentId s = 0; s < g.num_segments(); ++s) {
    weights[s] = edge_weight(g, s, metric);
  }
  return weights;
}

/// One partial (an entry per segment) per source chunk. Sources are split
/// into at most 64 contiguous chunks whose boundaries depend only on the
/// source count, never on the thread count.
std::vector<std::vector<double>> make_partials(const RoadGraph& g) {
  constexpr std::size_t kMaxChunks = 64;
  const std::size_t num_chunks = std::min<std::size_t>(
      kMaxChunks, std::max<std::size_t>(1, g.num_intersections()));
  return std::vector<std::vector<double>>(
      num_chunks, std::vector<double>(g.num_segments(), 0.0));
}

/// The one Brandes driver behind every entry point: each chunk accumulates
/// its own partial from its sources in order, on `pool`, and the partials
/// are then reduced on this thread in chunk order and normalised. The
/// floating-point summation order, and so the centrality bit for bit, is
/// therefore invariant to how many lanes ran the chunks. `partials` comes
/// from make_partials(g).
void chunked_betweenness(const RoadGraph& g, std::span<const double> weights,
                         const BetweennessOptions& opts, ThreadPool& pool,
                         std::vector<std::vector<double>>& partials,
                         std::span<double> centrality) {
  const std::size_t n = g.num_intersections();
  const std::size_t num_chunks = partials.size();
  pool.parallel_for(0, num_chunks, [&](std::size_t c) {
    std::vector<double>& partial = partials[c];
    std::fill(partial.begin(), partial.end(), 0.0);
    const std::size_t begin = n * c / num_chunks;
    const std::size_t end = n * (c + 1) / num_chunks;
    BrandesWorkspace ws(g);
    for (std::size_t s = begin; s < end; ++s) {
      ws.accumulate(static_cast<NodeId>(s), weights, partial);
    }
  });
  std::fill(centrality.begin(), centrality.end(), 0.0);
  for (const auto& partial : partials) {
    for (std::size_t i = 0; i < centrality.size(); ++i) {
      centrality[i] += partial[i];
    }
  }
  // Undirected graph: each pair (s, t) is visited from both endpoints.
  double norm = 2.0;
  if (opts.normalize && n > 2) {
    const auto nd = static_cast<double>(n);
    norm *= (nd - 1.0) * (nd - 2.0);
  }
  for (double& c : centrality) c /= norm;
}

/// The one-shot entry points: a pool of exactly opts.num_threads lanes (0 =
/// hardware concurrency), never more than there are sources.
std::vector<double> one_shot_betweenness(const RoadGraph& g,
                                         std::span<const double> weights,
                                         const BetweennessOptions& opts) {
  std::size_t num_threads = opts.num_threads;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads =
      std::min(num_threads, std::max<std::size_t>(1, g.num_intersections()));
  ThreadPool pool(num_threads);
  std::vector<std::vector<double>> partials = make_partials(g);
  std::vector<double> centrality(g.num_segments());
  chunked_betweenness(g, weights, opts, pool, partials, centrality);
  return centrality;
}

void check_weights(const RoadGraph& g, std::span<const double> weights) {
  AVCP_EXPECT(weights.size() == g.num_segments());
  for (const double w : weights) {
    AVCP_EXPECT(std::isfinite(w) && w > 0.0);
  }
}

}  // namespace

std::vector<double> segment_betweenness(const RoadGraph& g,
                                        const BetweennessOptions& opts) {
  AVCP_EXPECT(g.finalized());
  return one_shot_betweenness(g, metric_weights(g, opts.metric), opts);
}

std::vector<double> segment_betweenness_weighted(
    const RoadGraph& g, std::span<const double> weights,
    const BetweennessOptions& opts) {
  AVCP_EXPECT(g.finalized());
  check_weights(g, weights);
  return one_shot_betweenness(g, weights, opts);
}

IncrementalBetweenness::IncrementalBetweenness(const RoadGraph& g,
                                               std::vector<double> weights,
                                               BetweennessOptions opts)
    : g_(g),
      opts_(opts),
      weights_(std::move(weights)),
      partials_(make_partials(g)),
      centrality_(g.num_segments(), 0.0),
      pool_(std::min<std::size_t>(
          ThreadPool::clamped_lanes(opts.num_threads),
          std::max<std::size_t>(1, g.num_intersections()))) {
  AVCP_EXPECT(g_.finalized());
  AVCP_EXPECT(g_.num_intersections() >= 1);
  check_weights(g_, weights_);
  chunked_betweenness(g_, weights_, opts_, pool_, partials_, centrality_);
}

IncrementalBetweenness::UpdateStats IncrementalBetweenness::update_weights(
    std::span<const SegmentId> segments, std::span<const double> new_weights) {
  AVCP_EXPECT(segments.size() == new_weights.size());
  UpdateStats stats;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const SegmentId s = segments[i];
    AVCP_EXPECT(s < g_.num_segments());
    const double w = new_weights[i];
    AVCP_EXPECT(std::isfinite(w) && w > 0.0);
    if (std::bit_cast<std::uint64_t>(weights_[s]) ==
        std::bit_cast<std::uint64_t>(w)) {
      continue;
    }
    weights_[s] = w;
    ++stats.segments_changed;
  }
  if (stats.segments_changed == 0) return stats;
  chunked_betweenness(g_, weights_, opts_, pool_, partials_, centrality_);
  stats.chunks_recomputed = num_chunks();
  return stats;
}

}  // namespace avcp::roadnet
