// Closed-interval arithmetic and interval sets.
//
// The FDS controller (core/fds.h) characterises, for every region, the set
// of admissible sharing ratios x_i in [0, 1] as an intersection of unions of
// intervals derived from affine inequalities (Eqs. (6)-(10) of the paper).
// This header provides the interval algebra those computations are built on.
#pragma once

#include <optional>
#include <span>
#include <vector>

namespace avcp {

/// A closed interval [lo, hi]. An interval with lo > hi is empty.
struct Interval {
  double lo = 1.0;
  double hi = 0.0;  // default-constructed interval is empty

  /// The empty interval.
  static Interval empty_interval() noexcept { return Interval{1.0, 0.0}; }

  /// The single point {x}.
  static Interval point(double x) noexcept { return Interval{x, x}; }

  bool empty() const noexcept { return lo > hi; }
  double width() const noexcept { return empty() ? 0.0 : hi - lo; }
  bool contains(double x) const noexcept { return lo <= x && x <= hi; }

  /// Nearest point of the interval to x. Requires a non-empty interval.
  double nearest(double x) const noexcept;

  /// Intersection of two closed intervals (possibly empty).
  static Interval intersect(const Interval& a, const Interval& b) noexcept;

  /// True if the intervals overlap or touch (their union is an interval).
  static bool touches(const Interval& a, const Interval& b) noexcept;

  friend bool operator==(const Interval&, const Interval&) = default;
};

/// A finite union of disjoint, sorted, non-empty closed intervals.
class IntervalSet {
 public:
  IntervalSet() = default;

  /// Singleton set containing one interval (ignored if empty).
  explicit IntervalSet(const Interval& iv);

  /// Inserts an interval, merging with any intervals it touches. Works in
  /// place: no allocation while the set's capacity suffices.
  void add(const Interval& iv);

  /// Empties the set, keeping its capacity (grow-only reuse).
  void clear() noexcept { parts_.clear(); }

  /// Union of two interval sets.
  static IntervalSet unite(const IntervalSet& a, const IntervalSet& b);

  /// Intersection of two interval sets.
  static IntervalSet intersect(const IntervalSet& a, const IntervalSet& b);

  /// intersect() into caller-owned `out`, reusing its capacity. `out` must
  /// alias neither input.
  static void intersect_into(const IntervalSet& a, const IntervalSet& b,
                             IntervalSet& out);

  bool empty() const noexcept { return parts_.empty(); }

  /// True if some interval of the set contains x (within tolerance tol).
  bool contains(double x, double tol = 0.0) const noexcept;

  /// The point of the set nearest to x; nullopt if the set is empty.
  std::optional<double> nearest(double x) const noexcept;

  /// Smallest / largest points of the set. Require a non-empty set.
  double min() const;
  double max() const;

  /// Total measure (sum of widths).
  double measure() const noexcept;

  std::span<const Interval> parts() const noexcept { return parts_; }

 private:
  std::vector<Interval> parts_;  // invariant: sorted, disjoint, non-empty
};

/// Solves a*x + b >= 0 for x within `domain`, returning the (possibly
/// empty) feasible sub-interval. `tol` absorbs floating-point noise when a
/// is effectively zero.
Interval solve_affine_ge(double a, double b, const Interval& domain,
                         double tol = 1e-12) noexcept;

/// Solves a*x + b <= 0 for x within `domain`.
Interval solve_affine_le(double a, double b, const Interval& domain,
                         double tol = 1e-12) noexcept;

}  // namespace avcp
