// Shared plumbing of the repo benchmark: command line, clocks, order
// statistics, the operation ledger that counts checked operations, and the
// report that prints every metric and the final JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Wall time of fn() in milliseconds.
template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return ms_since(t0);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for checkpoint files; created if missing.
  std::filesystem::path scratch = ".bench_build/scratch";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--scratch DIR]`.
/// Returns false (after printing usage) on any malformed argument.
bool parse_args(int argc, char** argv, Args& out);

/// q-quantile by linear interpolation between order statistics (q in
/// [0, 1]); the input is copied and sorted.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set of this process in MB (bench::peak_rss_bytes).
double peak_rss_mb();

/// Live heap allocations counted by the benchmark's replacement operator
/// new/delete while counting is switched on (off by default, so untraced
/// runs pay one relaxed load per allocation).
void set_alloc_counting(bool on);
long long live_allocations();

/// FNV-1a over raw bytes; chained through `h` to fingerprint a sequence.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 1469598103934665603ULL);
template <typename T>
std::uint64_t fnv1a_vec(const std::vector<T>& v,
                        std::uint64_t h = 1469598103934665603ULL) {
  return fnv1a(v.data(), v.size() * sizeof(T), h);
}

/// Counts checked operations. An operation is one round, epoch, restore or
/// replay; it fails when any check made on it fails. The first failures
/// are printed to stderr with what was checked.
class Ledger {
 public:
  /// Records one operation; returns ok.
  bool op(bool ok, const std::string& what);
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Collects the run's output. Every value is printed as a human line; the
/// end-to-end or per-layer set (by --trace) also goes to the final JSON.
class Report {
 public:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::string moves;  // per-layer only: the end-to-end metric it moves
  };

  void e2e(const std::string& name, const std::string& unit, double value);
  void layer(const std::string& name, const std::string& unit, double value,
             const std::string& moves);
  /// An exact count of the determinism guard: it must repeat bit for bit
  /// on every run of the same seed and in every one-lane replay.
  void exact(const std::string& name, std::uint64_t value);
  /// Tracing overhead: traced minus untraced value of an end-to-end metric.
  void overhead(const std::string& name, const std::string& unit,
                double traced, double untraced);

  const std::vector<Metric>& e2e_metrics() const noexcept { return e2e_; }

  /// Prints the human-readable block and the final JSON line. `layers`
  /// selects which set the JSON carries.
  void print(bool layers, const Ledger& ledger, bool correct) const;

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layers_;
  std::vector<std::pair<std::string, std::uint64_t>> exact_;
  std::vector<std::string> overhead_lines_;
};

/// Summary of a series of per-round wall times.
struct RoundTimes {
  std::vector<double> ms;
  double vehicle_rounds = 0.0;  // live vehicles summed over the rounds

  void add(double round_ms, double vehicles) {
    ms.push_back(round_ms);
    vehicle_rounds += vehicles;
  }
  /// Room for `more` rounds, so adding them allocates nothing.
  void reserve(std::size_t more) { ms.reserve(ms.size() + more); }
  double total_ms() const;
  /// Fills round_ms_p50, round_ms_p90 and vehicle_rounds_per_s.
  void report(Report& r) const;
  /// Reports this (traced) series minus `untraced` for each of the three.
  void report_overhead(Report& r, const RoundTimes& untraced) const;
};

}  // namespace perfbench
