// The equivalence contract of the service layer's clustering: for ANY
// seeded sequence of load deltas, the maintained centrality and region
// clustering are bit-equal to the from-scratch computation over the same
// loads — at every thread count — and an apply re-runs every source chunk
// exactly when it changed a weight.
#include "cluster/incremental_clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "roadnet/betweenness.h"
#include "roadnet/builders.h"

namespace avcp {
namespace {

using cluster::IncrementalClustering;
using cluster::IncrementalClusteringOptions;
using cluster::LoadDelta;

IncrementalClusteringOptions make_opts(std::size_t threads, double alpha) {
  IncrementalClusteringOptions opts;
  opts.clustering.num_regions = 4;
  opts.betweenness.num_threads = threads;
  opts.congestion_alpha = alpha;
  return opts;
}

/// A random bounded delta batch that keeps every load non-negative.
std::vector<LoadDelta> random_deltas(Rng& rng, std::vector<std::int64_t>& loads,
                                     std::size_t max_touched) {
  const std::size_t touched =
      1 + static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(max_touched) - 1));
  std::vector<LoadDelta> deltas;
  deltas.reserve(touched);
  for (std::size_t i = 0; i < touched; ++i) {
    const auto seg = static_cast<roadnet::SegmentId>(
        rng.uniform_int(0, static_cast<std::int64_t>(loads.size()) - 1));
    auto delta = static_cast<std::int32_t>(rng.uniform_int(-2, 3));
    if (loads[seg] + delta < 0) delta = -static_cast<std::int32_t>(loads[seg]);
    if (delta == 0) delta = 1;
    loads[seg] += delta;
    deltas.push_back({seg, delta});
  }
  return deltas;
}

void expect_clusterings_equal(const cluster::Clustering& a,
                              const cluster::Clustering& b) {
  EXPECT_EQ(a.region_of, b.region_of);
  EXPECT_EQ(a.members, b.members);
  EXPECT_EQ(a.seeds, b.seeds);
}

TEST(IncrementalClustering, AnySeededSequenceMatchesFromScratch) {
  const auto g = roadnet::make_grid(5, 5);
  const double alpha = 0.15;

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    std::vector<std::vector<double>> per_thread_centrality;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const auto opts = make_opts(threads, alpha);
      IncrementalClustering inc(g, opts);
      std::vector<std::int64_t> loads(g.num_segments(), 0);
      Rng rng(derive_seed(seed, {0x5ec1u}));
      for (std::size_t step = 0; step < 12; ++step) {
        const auto deltas = random_deltas(rng, loads, 6);
        const auto stats = inc.apply(deltas);
        const std::size_t num_chunks =
            std::min<std::size_t>(64, g.num_intersections());
        if (stats.segments_changed > 0) {
          EXPECT_EQ(stats.chunks_recomputed, num_chunks);
          EXPECT_TRUE(stats.reclustered);
        }
        ASSERT_EQ(std::vector<std::int64_t>(inc.loads().begin(),
                                            inc.loads().end()),
                  loads);
        // Bit-equal to the from-scratch pipeline over the same loads.
        expect_clusterings_equal(
            inc.clustering(),
            IncrementalClustering::scratch(g, loads, opts));
        const auto weights =
            IncrementalClustering::load_weights(g, loads, alpha);
        ASSERT_EQ(inc.centrality(), roadnet::segment_betweenness_weighted(
                                        g, weights, opts.betweenness))
            << "seed " << seed << " threads " << threads << " step " << step;
      }
      per_thread_centrality.push_back(inc.centrality());

      // set_loads over the final loads reproduces the incremental state —
      // the checkpoint-restore path.
      IncrementalClustering restored(g, opts);
      restored.set_loads(loads);
      ASSERT_EQ(restored.centrality(), inc.centrality());
      expect_clusterings_equal(restored.clustering(), inc.clustering());
    }
    for (std::size_t i = 1; i < per_thread_centrality.size(); ++i) {
      EXPECT_EQ(per_thread_centrality[0], per_thread_centrality[i]);
    }
  }
}

TEST(IncrementalClustering, NetZeroBatchChangesNothing) {
  const auto g = roadnet::make_grid(5, 5);
  IncrementalClustering inc(g, make_opts(2, 0.15));
  const std::vector<LoadDelta> load = {{3, 2}, {7, 1}};
  inc.apply(load);
  const auto centrality = inc.centrality();
  const auto region_of = inc.clustering().region_of;

  // A vehicle joins and another leaves on each of two segments.
  const std::vector<LoadDelta> churn = {{3, 1}, {7, -1}, {3, -1}, {7, 1}};
  const auto stats = inc.apply(churn);
  EXPECT_EQ(stats.segments_changed, 0u);
  EXPECT_EQ(stats.chunks_recomputed, 0u);
  EXPECT_FALSE(stats.reclustered);
  EXPECT_EQ(inc.loads()[3], 2);
  EXPECT_EQ(inc.loads()[7], 1);
  ASSERT_EQ(inc.centrality().size(), centrality.size());
  for (std::size_t i = 0; i < centrality.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(inc.centrality()[i]),
              std::bit_cast<std::uint64_t>(centrality[i]))
        << "segment " << i;
  }
  EXPECT_EQ(inc.clustering().region_of, region_of);
}

TEST(IncrementalClustering, ZeroAlphaNeverReclusters) {
  const auto g = roadnet::make_grid(4, 4);
  const auto opts = make_opts(1, 0.0);
  IncrementalClustering inc(g, opts);
  const auto initial = inc.clustering().region_of;
  std::vector<std::int64_t> loads(g.num_segments(), 0);
  Rng rng(99);
  for (std::size_t step = 0; step < 8; ++step) {
    const auto deltas = random_deltas(rng, loads, 4);
    const auto stats = inc.apply(deltas);
    EXPECT_EQ(stats.chunks_recomputed, 0u);
    EXPECT_FALSE(stats.reclustered);
  }
  EXPECT_EQ(inc.clustering().region_of, initial);
}

TEST(IncrementalClustering, RejectsNegativeLoad) {
  const auto g = roadnet::make_grid(3, 3);
  IncrementalClustering inc(g, make_opts(1, 0.1));
  const LoadDelta underflow{0, -1};
  EXPECT_THROW(inc.apply(std::span<const LoadDelta>(&underflow, 1)),
               ContractViolation);
}

}  // namespace
}  // namespace avcp
