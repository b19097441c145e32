#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "bench_common.h"

namespace perfbench {

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long long> g_live{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_live.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  if (g_counting.load(std::memory_order_relaxed)) {
    g_live.fetch_sub(1, std::memory_order_relaxed);
  }
  std::free(p);
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_city|service_churn|"
               "fleet_scale --seed N --seconds S --trace 0|1 "
               "[--scratch DIR]\n");
}

/// JSON number: full precision, never NaN/inf (those become null, which
/// the reader rejects — a broken value must not pass as a measurement).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

bool parse_args(int argc, char** argv, Args& out) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* key = argv[i];
    if (i + 1 >= argc) {
      usage();
      return false;
    }
    const char* val = argv[++i];
    char* end = nullptr;
    if (std::strcmp(key, "--workload") == 0) {
      out.workload = val;
      have_workload = true;
    } else if (std::strcmp(key, "--seed") == 0) {
      out.seed = std::strtoull(val, &end, 10);
      if (end == val || *end != '\0') {
        usage();
        return false;
      }
    } else if (std::strcmp(key, "--seconds") == 0) {
      out.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(out.seconds > 0.0)) {
        usage();
        return false;
      }
    } else if (std::strcmp(key, "--trace") == 0) {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        usage();
        return false;
      }
      out.trace = val[0] == '1';
    } else if (std::strcmp(key, "--scratch") == 0) {
      out.scratch = val;
    } else {
      usage();
      return false;
    }
  }
  if (!have_workload) usage();
  return have_workload;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  return static_cast<double>(avcp::bench::peak_rss_bytes()) / (1024.0 * 1024.0);
}

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

long long live_allocations() { return g_live.load(std::memory_order_relaxed); }

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

bool Ledger::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    if (failed_ < 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++failed_;
  }
  return ok;
}

void Report::e2e(const std::string& name, const std::string& unit,
                 double value) {
  e2e_.push_back({name, unit, value, {}});
}

void Report::layer(const std::string& name, const std::string& unit,
                   double value, const std::string& moves) {
  layers_.push_back({name, unit, value, moves});
}

void Report::exact(const std::string& name, std::uint64_t value) {
  exact_.emplace_back(name, value);
}

void Report::overhead(const std::string& name, const std::string& unit,
                      double traced, double untraced) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "overhead %-22s %+.6g %s (traced %.6g, untraced %.6g)",
                name.c_str(), traced - untraced, unit.c_str(), traced,
                untraced);
  overhead_lines_.emplace_back(buf);
}

void Report::print(bool layers, const Ledger& ledger, bool correct) const {
  for (const Metric& m : e2e_) {
    std::printf("end_to_end %-24s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : layers_) {
    std::printf("per_layer  %-32s %.6g %s  -> %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.moves.c_str());
  }
  for (const std::string& line : overhead_lines_) {
    std::printf("%s\n", line.c_str());
  }
  for (const auto& [name, value] : exact_) {
    std::printf("exact %s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted());
  json += ", \"failed\": " + std::to_string(ledger.failed());
  json += ", \"metrics\": {";
  const std::vector<Metric>& chosen = layers ? layers_ : e2e_;
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + chosen[i].name + "\": {\"value\": " +
            json_number(chosen[i].value) + ", \"unit\": \"" + chosen[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double RoundTimes::total_ms() const {
  double total = 0.0;
  for (const double v : ms) total += v;
  return total;
}

void RoundTimes::report(Report& r) const {
  r.e2e("round_ms_p50", "ms", quantile(ms, 0.5));
  r.e2e("round_ms_p90", "ms", quantile(ms, 0.9));
  r.e2e("vehicle_rounds_per_s", "1/s", vehicle_rounds / (total_ms() / 1e3));
}

void RoundTimes::report_overhead(Report& r, const RoundTimes& untraced) const {
  Report traced_report, untraced_report;
  report(traced_report);
  untraced.report(untraced_report);
  for (std::size_t i = 0; i < traced_report.e2e_metrics().size(); ++i) {
    const Report::Metric& t = traced_report.e2e_metrics()[i];
    r.overhead(t.name, t.unit, t.value, untraced_report.e2e_metrics()[i].value);
  }
}

}  // namespace perfbench

// Replacement global allocation functions: counting is off unless the
// traced run switches it on around the span it measures.
void* operator new(std::size_t size) { return perfbench::counted_alloc(size); }
void* operator new[](std::size_t size) {
  return perfbench::counted_alloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { perfbench::counted_free(p); }
void operator delete[](void* p) noexcept { perfbench::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
