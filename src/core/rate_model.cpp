#include "core/rate_model.h"

#include <cmath>

#include "common/contracts.h"

namespace avcp::core {

double CaseInfo::limit(double p_current) const noexcept {
  switch (kind) {
    case CaseKind::kConvergeOne:
      return 1.0;
    case CaseKind::kConvergeZero:
      return 0.0;
    case CaseKind::kUnstableInterior:
      return p_current >= rest_point ? 1.0 : 0.0;
    case CaseKind::kStableInterior:
      return rest_point;
    case CaseKind::kNeutral:
      return p_current;
  }
  return p_current;
}

CaseInfo classify_case(const AffineRate& rate, double tol) noexcept {
  const double r0 = rate(0.0);  // alpha2
  const double r1 = rate(1.0);  // alpha1 + alpha2
  CaseInfo info;
  if (std::abs(r0) <= tol && std::abs(r1) <= tol) {
    info.kind = CaseKind::kNeutral;
    return info;
  }
  if (r0 >= -tol && r1 >= -tol) {
    info.kind = CaseKind::kConvergeOne;  // Case 1
    return info;
  }
  if (r0 <= tol && r1 <= tol) {
    info.kind = CaseKind::kConvergeZero;  // Case 2
    return info;
  }
  const double root = rate.rest_point();
  if (r0 <= tol && r1 >= -tol) {
    info.kind = CaseKind::kUnstableInterior;  // Case 3 (rate increasing)
    info.rest_point = root;
    return info;
  }
  info.kind = CaseKind::kStableInterior;  // Case 4 (rate decreasing, ESS)
  info.rest_point = root;
  return info;
}

namespace {

/// r(p_new) of growth_rate_at, writing the probed region-i distribution
/// into `row` (grow-only) instead of copying the whole state. The fitness
/// terms and the qbar sum run in the same order as fitness() and
/// average_fitness() over a probed copy, so the result is bit-identical.
double probe_growth_rate(const MultiRegionGame& game, const GameState& state,
                         std::span<const double> x, RegionId i, DecisionId k,
                         double p_new, std::vector<double>& row) {
  const std::size_t num_k = game.num_decisions();
  const double p_cur = state.p[i][k];
  const double remainder_cur = 1.0 - p_cur;
  const double remainder_new = 1.0 - p_new;

  // Hypothetical region-i distribution with p_{i,k} = p_new and the other
  // groups rescaled proportionally (uniformly if currently extinct).
  row.assign(state.p[i].begin(), state.p[i].end());
  constexpr double kEps = 1e-12;
  if (remainder_cur > kEps) {
    const double scale = remainder_new / remainder_cur;
    for (DecisionId d = 0; d < num_k; ++d) {
      if (d != k) row[d] *= scale;
    }
  } else {
    const double share =
        num_k > 1 ? remainder_new / static_cast<double>(num_k - 1) : 0.0;
    for (DecisionId d = 0; d < num_k; ++d) {
      if (d != k) row[d] = share;
    }
  }
  row[k] = p_new;

  double q_k = 0.0;
  double qbar = 0.0;
  for (DecisionId d = 0; d < num_k; ++d) {
    const double q = game.fitness_with_row(state, row, x, i, d);
    if (d == k) q_k = q;
    qbar += row[d] * q;
  }
  return q_k - qbar;
}

/// affine_rate over caller-owned probe row storage.
AffineRate probe_affine_rate(const MultiRegionGame& game,
                             const GameState& state, std::span<const double> x,
                             RegionId i, DecisionId k,
                             std::vector<double>& row) {
  // The true growth rate along the rescaling path is r(p) = (1-p) s(p) with
  // s affine, so two probes recover s exactly:
  //   s(0)   = r(0) / (1-0)   = r(0)
  //   s(1/2) = r(1/2) / (1/2) = 2 r(1/2)
  const double s0 = probe_growth_rate(game, state, x, i, k, 0.0, row);
  const double s_half =
      2.0 * probe_growth_rate(game, state, x, i, k, 0.5, row);
  return AffineRate{2.0 * (s_half - s0), s0};
}

}  // namespace

double growth_rate_at(const MultiRegionGame& game, const GameState& state,
                      std::span<const double> x, RegionId i, DecisionId k,
                      double p_new) {
  AVCP_EXPECT(p_new >= 0.0 && p_new <= 1.0);
  AVCP_EXPECT(i < game.num_regions());
  AVCP_EXPECT(k < game.num_decisions());
  std::vector<double> row;
  return probe_growth_rate(game, state, x, i, k, p_new, row);
}

AffineRate affine_rate(const MultiRegionGame& game, const GameState& state,
                       std::span<const double> x, RegionId i, DecisionId k) {
  AVCP_EXPECT(i < game.num_regions());
  AVCP_EXPECT(k < game.num_decisions());
  std::vector<double> row;
  return probe_affine_rate(game, state, x, i, k, row);
}

RateFamily rate_family(const MultiRegionGame& game, const GameState& state,
                       std::span<const double> x, RegionId i, DecisionId k) {
  RateProbeScratch scratch;
  return rate_family(game, state, x, i, k, scratch);
}

RateFamily rate_family(const MultiRegionGame& game, const GameState& state,
                       std::span<const double> x, RegionId i, DecisionId k,
                       RateProbeScratch& scratch) {
  AVCP_EXPECT(x.size() == game.num_regions());
  AVCP_EXPECT(i < game.num_regions());
  AVCP_EXPECT(k < game.num_decisions());
  // One ratio copy serves both probes: x_i pinned at 0, then at 1.
  scratch.x.assign(x.begin(), x.end());
  scratch.x[i] = 0.0;
  const AffineRate at0 =
      probe_affine_rate(game, state, scratch.x, i, k, scratch.row);
  scratch.x[i] = 1.0;
  const AffineRate at1 =
      probe_affine_rate(game, state, scratch.x, i, k, scratch.row);

  RateFamily family;
  family.a1_const = at0.alpha1;
  family.a1_slope = at1.alpha1 - at0.alpha1;
  family.a2_const = at0.alpha2;
  family.a2_slope = at1.alpha2 - at0.alpha2;
  return family;
}

}  // namespace avcp::core
