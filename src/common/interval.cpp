#include "common/interval.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace avcp {

double Interval::nearest(double x) const noexcept {
  if (x < lo) return lo;
  if (x > hi) return hi;
  return x;
}

Interval Interval::intersect(const Interval& a, const Interval& b) noexcept {
  return Interval{std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
}

bool Interval::touches(const Interval& a, const Interval& b) noexcept {
  if (a.empty() || b.empty()) return false;
  return a.lo <= b.hi && b.lo <= a.hi;
}

IntervalSet::IntervalSet(const Interval& iv) {
  if (!iv.empty()) parts_.push_back(iv);
}

void IntervalSet::add(const Interval& iv) {
  if (iv.empty()) return;
  // Parts are sorted and disjoint, so the parts iv touches (as it grows by
  // absorbing them) form one contiguous run [first, last): merge the run.
  auto first = parts_.begin();
  while (first != parts_.end() && first->hi < iv.lo) ++first;
  Interval merged = iv;
  auto last = first;
  while (last != parts_.end() && Interval::touches(*last, merged)) {
    merged.lo = std::min(merged.lo, last->lo);
    merged.hi = std::max(merged.hi, last->hi);
    ++last;
  }
  if (first == last) {
    parts_.insert(first, merged);
  } else {
    *first = merged;
    parts_.erase(first + 1, last);
  }
}

IntervalSet IntervalSet::unite(const IntervalSet& a, const IntervalSet& b) {
  IntervalSet out = a;
  for (const Interval& p : b.parts_) out.add(p);
  return out;
}

IntervalSet IntervalSet::intersect(const IntervalSet& a,
                                   const IntervalSet& b) {
  IntervalSet out;
  intersect_into(a, b, out);
  return out;
}

void IntervalSet::intersect_into(const IntervalSet& a, const IntervalSet& b,
                                 IntervalSet& out) {
  AVCP_EXPECT(&out != &a && &out != &b);
  out.parts_.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.parts_.size() && j < b.parts_.size()) {
    const Interval& pa = a.parts_[i];
    const Interval& pb = b.parts_[j];
    const Interval iv = Interval::intersect(pa, pb);
    if (!iv.empty()) out.parts_.push_back(iv);
    if (pa.hi < pb.hi) {
      ++i;
    } else {
      ++j;
    }
  }
}

bool IntervalSet::contains(double x, double tol) const noexcept {
  for (const Interval& p : parts_) {
    if (x >= p.lo - tol && x <= p.hi + tol) return true;
    if (p.lo - tol > x) break;
  }
  return false;
}

std::optional<double> IntervalSet::nearest(double x) const noexcept {
  if (parts_.empty()) return std::nullopt;
  double best = parts_.front().nearest(x);
  double best_dist = std::abs(best - x);
  for (const Interval& p : parts_) {
    const double cand = p.nearest(x);
    const double dist = std::abs(cand - x);
    if (dist < best_dist) {
      best = cand;
      best_dist = dist;
    }
  }
  return best;
}

double IntervalSet::min() const {
  AVCP_EXPECT(!parts_.empty());
  return parts_.front().lo;
}

double IntervalSet::max() const {
  AVCP_EXPECT(!parts_.empty());
  return parts_.back().hi;
}

double IntervalSet::measure() const noexcept {
  double total = 0.0;
  for (const Interval& p : parts_) total += p.width();
  return total;
}

Interval solve_affine_ge(double a, double b, const Interval& domain,
                         double tol) noexcept {
  if (domain.empty()) return Interval::empty_interval();
  if (std::abs(a) <= tol) {
    return b >= -tol ? domain : Interval::empty_interval();
  }
  const double root = -b / a;
  if (a > 0.0) {
    return Interval::intersect(domain, Interval{root, domain.hi});
  }
  return Interval::intersect(domain, Interval{domain.lo, root});
}

Interval solve_affine_le(double a, double b, const Interval& domain,
                         double tol) noexcept {
  return solve_affine_ge(-a, -b, domain, tol);
}

}  // namespace avcp
