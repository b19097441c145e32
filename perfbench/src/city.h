// The paper's evaluation city, shared by paper_city and service_churn, built
// from the reproduction benches' bench_common.h as Fig. 9 builds it: the
// trace-derived 18x24 city with betweenness coefficients, 400 trace
// vehicles over 3 h, 100 edge servers, 20 regions and betas in [2, 3.5],
// the 8-decision game over it, and the eps = 0.05 field around the
// x_ref = 0.75 equilibrium (Fig. 9).
//
// The city and its traces are the paper's fixed evaluation input, so they
// do not depend on --seed; the seed drives the fleets, scenes, churn,
// faults and links each workload runs on that city.
#pragma once

#include <optional>

#include "core/fds.h"
#include "core/game.h"
#include "sim/pipeline.h"

namespace perfbench {

inline constexpr double kXRef = 0.75;
inline constexpr double kEps = 0.05;
/// Lambda of Eq. (13) used by every FDS controller here (as in Fig. 9).
inline constexpr double kLambda = 0.2;
/// Replicator step of the game (Fig. 9's calibration).
inline constexpr double kStepSize = 2.0;
/// Initial ratio of the mean-field solve (Fig. 9).
inline constexpr double kX0 = 0.2;

struct City {
  avcp::sim::PipelineConfig config;
  avcp::sim::PipelineArtifacts artifacts;
  std::optional<avcp::core::MultiRegionGame> game;
  std::optional<avcp::core::DesiredFields> fields;
};

/// The whole set-up pipeline on bench_common.h's paper_config: the
/// pipeline, make_paper_game over its region specs, and attainable_fields.
City build_city();

avcp::core::FdsOptions fds_options();

/// Every segment in exactly one region and every beta in [lo, hi].
bool pipeline_valid(const City& city);

/// The benchmark's own interval test: every p[i][k] inside its target.
bool inside_fields(const avcp::core::DesiredFields& fields,
                   const avcp::core::GameState& state);

}  // namespace perfbench
