#include "trace/generator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/contracts.h"
#include "roadnet/builders.h"
#include "trace/density.h"

namespace avcp::trace {
namespace {

using roadnet::RoadGraph;

TraceParams small_params() {
  TraceParams params;
  params.num_vehicles = 20;
  params.duration_s = 1800.0;
  params.mean_dwell_s = 60.0;
  params.seed = 5;
  return params;
}

TEST(TraceGenerator, FixesRespectTimeBounds) {
  const RoadGraph g = roadnet::make_grid(5, 5, 200.0);
  const TraceGenerator gen(g, small_params());
  const auto fixes = gen.generate_all();
  ASSERT_FALSE(fixes.empty());
  for (const GpsFix& fix : fixes) {
    EXPECT_GE(fix.time_s, 0.0);
    EXPECT_LT(fix.time_s, small_params().duration_s);
    EXPECT_LT(fix.vehicle, small_params().num_vehicles);
    EXPECT_LT(fix.segment, g.num_segments());
  }
}

TEST(TraceGenerator, PerVehicleFixesAreTimeOrderedOnFixGrid) {
  const RoadGraph g = roadnet::make_grid(4, 4, 300.0);
  const auto params = small_params();
  const TraceGenerator gen(g, params);
  const auto fixes = gen.generate_all();
  std::map<VehicleId, double> last_time;
  for (const GpsFix& fix : fixes) {
    const auto it = last_time.find(fix.vehicle);
    if (it != last_time.end()) {
      EXPECT_GE(fix.time_s, it->second);
      // Consecutive fixes are whole reporting intervals apart.
      const double gap = fix.time_s - it->second;
      const double intervals = gap / params.fix_interval_s;
      EXPECT_NEAR(intervals, std::round(intervals), 1e-6);
      EXPECT_GE(gap, params.fix_interval_s - 1e-9);
    }
    last_time[fix.vehicle] = fix.time_s;
  }
}

TEST(TraceGenerator, PositionsLieOnReportedSegment) {
  const RoadGraph g = roadnet::make_grid(4, 4, 300.0);
  const TraceGenerator gen(g, small_params());
  const auto fixes = gen.generate_all();
  for (const GpsFix& fix : fixes) {
    const auto& seg = g.segment(fix.segment);
    const PointM a = g.intersection(seg.from);
    const PointM b = g.intersection(seg.to);
    // Distance from the segment's line, via the triangle inequality:
    // |a-p| + |p-b| should equal |a-b| for a point on the segment.
    const double detour =
        distance_m(a, fix.pos) + distance_m(fix.pos, b) - distance_m(a, b);
    EXPECT_NEAR(detour, 0.0, 1e-6);
  }
}

TEST(TraceGenerator, SpeedsWithinConfiguredFactorRange) {
  const RoadGraph g = roadnet::make_grid(4, 4, 300.0);
  const auto params = small_params();
  const TraceGenerator gen(g, params);
  for (const GpsFix& fix : gen.generate_all()) {
    const auto& seg = g.segment(fix.segment);
    EXPECT_GE(fix.speed_mps, seg.speed_mps * params.speed_factor_lo - 1e-9);
    EXPECT_LE(fix.speed_mps, seg.speed_mps * params.speed_factor_hi + 1e-9);
  }
}

TEST(TraceGenerator, DeterministicForSeed) {
  const RoadGraph g = roadnet::make_grid(4, 4, 300.0);
  const TraceGenerator gen(g, small_params());
  const auto a = gen.generate_all();
  const auto b = gen.generate_all();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].vehicle, b[i].vehicle);
    EXPECT_EQ(a[i].time_s, b[i].time_s);
    EXPECT_EQ(a[i].segment, b[i].segment);
  }
}

TEST(TraceGenerator, AttractionFavoursArterials) {
  roadnet::CityParams city;
  city.rows = 6;
  city.cols = 6;
  city.arterial_period = 3;
  city.seed = 4;
  const RoadGraph g = roadnet::build_city(city);
  TraceParams params = small_params();
  params.num_vehicles = 60;
  params.duration_s = 3600.0;
  const TraceGenerator gen(g, params);

  // Count fixes per road class.
  double arterial_fixes = 0.0;
  double arterial_count = 0.0;
  double local_fixes = 0.0;
  double local_count = 0.0;
  std::vector<double> per_segment(g.num_segments(), 0.0);
  for (const GpsFix& fix : gen.generate_all()) per_segment[fix.segment] += 1.0;
  for (roadnet::SegmentId s = 0; s < g.num_segments(); ++s) {
    if (g.segment(s).cls == roadnet::RoadClass::kArterial) {
      arterial_fixes += per_segment[s];
      arterial_count += 1.0;
    } else if (g.segment(s).cls == roadnet::RoadClass::kLocal) {
      local_fixes += per_segment[s];
      local_count += 1.0;
    }
  }
  ASSERT_GT(arterial_count, 0.0);
  ASSERT_GT(local_count, 0.0);
  // Arterials should see clearly more traffic per segment on average.
  EXPECT_GT(arterial_fixes / arterial_count, local_fixes / local_count);
}

TEST(TrafficDensity, CountsDistinctPresencesPerWindow) {
  TrafficDensityAccumulator td(3, 100.0, 300.0);
  // Vehicle 1 reports twice in window 0 on segment 0: counted once.
  td.add(GpsFix{1, 10.0, {}, 0.0, 0});
  td.add(GpsFix{1, 20.0, {}, 0.0, 0});
  // Vehicle 1 moves to segment 1 within window 0: new presence.
  td.add(GpsFix{1, 30.0, {}, 0.0, 1});
  // Vehicle 2 in window 0 segment 0.
  td.add(GpsFix{2, 50.0, {}, 0.0, 0});
  // Vehicle 1 in window 1 segment 0: new window, counted again.
  td.add(GpsFix{1, 150.0, {}, 0.0, 0});

  EXPECT_EQ(td.count(0, 0), 2u);
  EXPECT_EQ(td.count(0, 1), 1u);
  EXPECT_EQ(td.count(1, 0), 1u);
  EXPECT_EQ(td.count(2, 0), 0u);
}

TEST(TrafficDensity, DensityDividesByWindow) {
  TrafficDensityAccumulator td(1, 600.0, 600.0);
  td.add(GpsFix{1, 0.0, {}, 0.0, 0});
  td.add(GpsFix{2, 1.0, {}, 0.0, 0});
  td.add(GpsFix{3, 2.0, {}, 0.0, 0});
  EXPECT_DOUBLE_EQ(td.density(0, 0), 3.0 / 600.0);
}

TEST(TrafficDensity, AverageDensityOverWindows) {
  TrafficDensityAccumulator td(2, 100.0, 200.0);
  td.add(GpsFix{1, 10.0, {}, 0.0, 0});
  td.add(GpsFix{2, 110.0, {}, 0.0, 0});
  td.add(GpsFix{3, 120.0, {}, 0.0, 0});
  const auto avg = td.average_density();
  ASSERT_EQ(avg.size(), 2u);
  EXPECT_DOUBLE_EQ(avg[0], 3.0 / 200.0);
  EXPECT_DOUBLE_EQ(avg[1], 0.0);
}

TEST(TrafficDensity, IgnoresFixesBeyondDuration) {
  TrafficDensityAccumulator td(1, 100.0, 100.0);
  td.add(GpsFix{1, 250.0, {}, 0.0, 0});
  EXPECT_EQ(td.count(0, 0), 0u);
}

TEST(TrafficDensity, RejectsInvalidSegment) {
  TrafficDensityAccumulator td(2, 100.0, 100.0);
  EXPECT_THROW(td.add(GpsFix{1, 0.0, {}, 0.0, 5}), ContractViolation);
}

TEST(TrafficDensity, TotalCountsSumWindows) {
  TrafficDensityAccumulator td(1, 100.0, 300.0);
  td.add(GpsFix{1, 50.0, {}, 0.0, 0});
  td.add(GpsFix{1, 150.0, {}, 0.0, 0});
  td.add(GpsFix{1, 250.0, {}, 0.0, 0});
  EXPECT_EQ(td.total_counts()[0], 3u);
}

}  // namespace
}  // namespace avcp::trace
