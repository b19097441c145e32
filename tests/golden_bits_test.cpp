// Golden-bit pins for kernels whose arithmetic order is part of the
// determinism contract. Each test reduces an output to the CRC-32C of its
// exact IEEE-754 bit patterns (little-endian, through Serializer) on the
// paper-size inputs, so a refactor that claims bit-identity must leave
// every checksum unchanged. The other betweenness and FDS tests compare a
// kernel against itself (incremental vs scratch) or against brute force on
// small graphs; these pin the actual bits. A deliberate change to the
// arithmetic re-records the constants and says so in its change note.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/serial.h"
#include "core/fds.h"
#include "roadnet/betweenness.h"
#include "roadnet/builders.h"
#include "test_support.h"

namespace avcp {
namespace {

using roadnet::BetweennessOptions;
using roadnet::RoadGraph;
using roadnet::SegmentId;

std::uint32_t crc_of(std::span<const double> values, std::uint32_t seed = 0) {
  Serializer s;
  for (const double v : values) s.put_f64(v);
  return crc32c(s.bytes(), seed);
}

/// The paper's 18x24 evaluation city (the perfbench and fig. 8 grid).
RoadGraph paper_city() {
  roadnet::CityParams params;
  params.rows = 18;
  params.cols = 24;
  return roadnet::build_city(params);
}

/// Travel times scaled by a seeded per-segment load, as the service's
/// congestion coupling (alpha = 0.05) derives them.
std::vector<double> congestion_weights(const RoadGraph& g, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(g.num_segments());
  for (SegmentId s = 0; s < g.num_segments(); ++s) {
    const auto load = static_cast<double>(rng.uniform_int(0, 40));
    weights[s] = g.segment(s).travel_time_s() * (1.0 + 0.05 * load);
  }
  return weights;
}

constexpr std::uint32_t kHopsCrc = 0xb1dabbf3u;
constexpr std::uint32_t kWeightedCrc = 0xb272685du;
constexpr std::uint32_t kIncrementalCrc = 0xecc6b85du;
constexpr std::uint32_t kFdsCrc = 0x142b6dd5u;

TEST(GoldenBits, HopBetweennessOnPaperCity) {
  const RoadGraph g = paper_city();
  for (const std::size_t threads : {1u, 2u}) {
    BetweennessOptions opts;
    opts.num_threads = threads;
    EXPECT_EQ(crc_of(roadnet::segment_betweenness(g, opts)), kHopsCrc)
        << "threads " << threads;
  }
}

TEST(GoldenBits, WeightedBetweennessOnPaperCity) {
  const RoadGraph g = paper_city();
  const std::vector<double> weights = congestion_weights(g, 11);
  for (const std::size_t threads : {1u, 2u}) {
    BetweennessOptions opts;
    opts.num_threads = threads;
    EXPECT_EQ(
        crc_of(roadnet::segment_betweenness_weighted(g, weights, opts)),
        kWeightedCrc)
        << "threads " << threads;
  }
}

TEST(GoldenBits, IncrementalBetweennessAfterSeededUpdates) {
  const RoadGraph g = paper_city();
  BetweennessOptions opts;
  opts.num_threads = 2;
  roadnet::IncrementalBetweenness inc(g, congestion_weights(g, 13), opts);
  std::uint32_t crc = crc_of(inc.centrality());
  Rng rng(17);
  std::vector<SegmentId> segments;
  std::vector<double> weights;
  for (int step = 0; step < 6; ++step) {
    // Alternate local edits with a city-wide one (every segment re-weighted),
    // so both the skipped-chunk and the all-chunks refresh are pinned.
    segments.clear();
    weights.clear();
    const bool city_wide = step % 3 == 2;
    const auto count = city_wide ? g.num_segments()
                                 : static_cast<std::size_t>(
                                       rng.uniform_int(1, 12));
    for (std::size_t e = 0; e < count; ++e) {
      const auto s = city_wide ? static_cast<SegmentId>(e)
                               : static_cast<SegmentId>(rng.uniform_int(
                                     0, static_cast<std::int64_t>(
                                            g.num_segments()) -
                                            1));
      segments.push_back(s);
      weights.push_back(g.segment(s).travel_time_s() *
                        (1.0 + 0.05 * static_cast<double>(
                                          rng.uniform_int(0, 40))));
    }
    inc.update_weights(segments, weights);
    crc = crc_of(inc.centrality(), crc);
  }
  EXPECT_EQ(crc, kIncrementalCrc);
}

TEST(GoldenBits, FdsNextXOnConstrainedChainGame) {
  constexpr std::size_t kRegions = 20;
  const core::MultiRegionGame game = core::testing::make_chain_game(kRegions);
  const std::size_t k_count = game.num_decisions();
  Rng rng(23);
  // Every decision of every region carries a target of one of the three
  // shapes FDS distinguishes: containing 1, containing 0, or interior.
  core::DesiredFields fields(kRegions, k_count);
  for (core::RegionId i = 0; i < kRegions; ++i) {
    for (core::DecisionId k = 0; k < k_count; ++k) {
      switch (rng.uniform_int(0, 2)) {
        case 0:
          fields.set_target(i, k, Interval{rng.uniform(0.3, 0.9), 1.0});
          break;
        case 1:
          fields.set_target(i, k, Interval{0.0, rng.uniform(0.05, 0.4)});
          break;
        default: {
          const double lo = rng.uniform(0.05, 0.6);
          fields.set_target(i, k, Interval{lo, lo + rng.uniform(0.05, 0.3)});
        }
      }
    }
  }
  std::uint32_t crc = 0;
  // An uncapped step (max_step 1) lands x on the admissible interval's
  // interior point itself, so the output carries the interval bounds' bits
  // rather than x_prev +- Lambda.
  for (const double max_step : {0.05, 1.0}) {
    for (const auto sweep : {core::FdsOptions::Sweep::kJacobi,
                             core::FdsOptions::Sweep::kGaussSeidel}) {
      core::FdsOptions options;
      options.max_step = max_step;
      options.sweep = sweep;
      core::FdsController controller(game, fields, options);
      for (int sample = 0; sample < 4; ++sample) {
        core::GameState state;
        for (std::size_t i = 0; i < kRegions; ++i) {
          state.p.push_back(core::testing::random_simplex(rng, k_count));
        }
        std::vector<double> x_prev(kRegions);
        for (double& x : x_prev) x = rng.uniform(0.0, 1.0);
        std::vector<double> out;
        controller.next_x_into(state, x_prev, out);
        crc = crc_of(out, crc);
      }
    }
  }
  EXPECT_EQ(crc, kFdsCrc);
}

}  // namespace
}  // namespace avcp
