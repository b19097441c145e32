// The repo benchmark. Runs one workload for --seconds, checks its outputs,
// prints every metric by name with its unit, and ends with one JSON line:
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits non-zero when any check failed.
#include <cstdio>
#include <exception>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/simd.h"
#include "workloads.h"

namespace {

using perfbench::Outcome;

struct LayerRow {
  const char* name;
  const char* unit;
  const char* moves;
};

// Every per-layer metric, the end-to-end metric it should move and where.
// A layer a workload does not run reads 0 on that workload.
constexpr LayerRow kLayers[] = {
    {"sim.pipeline_ms", "ms", "setup_s on paper_city and service_churn"},
    {"roadnet.betweenness_ms", "ms", "setup_s on paper_city and service_churn"},
    {"trace.generate_ms", "ms", "setup_s on paper_city and service_churn"},
    {"trace.fixes", "count", "setup_s on paper_city and service_churn"},
    {"spatial.deploy_ms", "ms", "setup_s on paper_city and service_churn"},
    {"cluster.algorithm1_ms", "ms", "setup_s on paper_city and service_churn"},
    {"cluster.region_graph_ms", "ms", "setup_s on paper_city and service_churn"},
    {"core.mean_field_ms", "ms", "none (the solve's count is core.fds_rounds)"},
    {"core.lower_bound_rounds", "rounds", "none (Prop. 4.1 bound of core.fds_rounds)"},
    {"core.fds_rounds", "rounds", "none (Fig. 9 rounds to the eps = 0.05 field)"},
    {"core.fds_step_us", "us", "round_ms_p50 on paper_city (small)"},
    {"perception.plane_us", "us", "round_ms_p50, vehicle_rounds_per_s on paper_city and fleet_scale"},
    {"perception.plane_us_exact", "us", "round_ms_p50 on paper_city and fleet_scale if made default"},
    {"perception.plane_us_aggregated", "us", "round_ms_p50 on paper_city and fleet_scale if made default"},
    {"perception.directional_us", "us", "round_ms_p50 on paper_city and fleet_scale"},
    {"perception.deliveries", "count", "none (exact count of the replays)"},
    {"system.self_ms", "ms", "round_ms_p50 on paper_city and fleet_scale (estimate)"},
    {"roadnet.refresh_ms", "ms", "round_ms_p90, vehicle_rounds_per_s on service_churn"},
    {"roadnet.chunks_recomputed", "count", "round_ms_p90 on service_churn"},
    {"roadnet.chunk_reuse", "ratio", "round_ms_p90 on service_churn"},
    {"service.epoch_ms_plain", "ms", "round_ms_p50 on service_churn"},
    {"service.epoch_ms_maintained", "ms", "round_ms_p90 on service_churn"},
    {"service.events", "count", "none (churn events applied)"},
    {"cluster.refreshes", "count", "round_ms_p90 on service_churn"},
    {"cluster.deferred_epochs", "count", "round_ms_p50 on service_churn"},
    {"byzantine.quarantines", "count", "none (hostile path ran)"},
    {"byzantine.releases", "count", "none (hostile path ran)"},
    {"faults.outage_region_epochs", "count", "none (hostile path ran)"},
    {"net.sent", "count", "none (degraded path ran)"},
    {"net.delivered", "count", "none (degraded path ran)"},
    {"net.dropped", "count", "none (degraded path ran)"},
    {"net.retries", "count", "none (degraded path ran)"},
    {"net.blind", "count", "none (degraded path ran)"},
    {"checkpoint.save_ms", "ms", "none end to end (part of the mid-pass checkpoint)"},
    {"checkpoint.load_ms", "ms", "checkpoint.recovery_ms on paper_city and service_churn"},
    {"checkpoint.bytes", "bytes", "checkpoint.recovery_ms on paper_city and service_churn"},
    {"checkpoint.recovery_ms", "ms", "none end to end (too unsteady to bound; see README)"},
    {"system.ingest_ms", "ms", "setup_s on fleet_scale"},
    {"system.steady_allocs", "count", "peak_rss_mb on fleet_scale"},
    {"common.dispatch_us", "us", "round_ms_p50 on fleet_scale"},
};

/// CPU model, core count, compiler, build type and the SIMD path the
/// library was compiled for: the figures are only comparable between runs
/// with the same fingerprint.
void print_machine() {
  std::string cpu = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000002, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      __get_cpuid(0x80000003, &regs[4], &regs[5], &regs[6], &regs[7]) &&
      __get_cpuid(0x80000004, &regs[8], &regs[9], &regs[10], &regs[11])) {
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    cpu = brand;
    cpu.erase(0, cpu.find_first_not_of(' '));
  }
#endif
#if defined(AVCP_SIMD_AVX2)
  const char* simd = "avx2";
#elif defined(AVCP_SIMD_SSE2)
  const char* simd = "sse2";
#else
  const char* simd = "scalar";
#endif
  std::printf("machine cpu=\"%s\" nproc=%u compiler=\"%s\" build=%s simd=%s\n",
              cpu.c_str(), std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE, simd);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) return 2;

  print_machine();
  Outcome out;
  try {
    if (args.workload == "paper_city") {
      perfbench::run_paper_city(args, out);
    } else if (args.workload == "service_churn") {
      perfbench::run_service_churn(args, out);
    } else if (args.workload == "fleet_scale") {
      perfbench::run_fleet_scale(args, out);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  if (args.trace) {
    for (const LayerRow& row : kLayers) {
      const auto it = out.layers.find(row.name);
      out.report.layer(row.name, row.unit,
                       it == out.layers.end() ? 0.0 : it->second, row.moves);
    }
  }
  const bool correct = out.ledger.failed() == 0 && out.ledger.attempted() > 0;
  std::printf("workload %s seed %llu: %llu operations, %llu failed\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(out.ledger.attempted()),
              static_cast<unsigned long long>(out.ledger.failed()));
  out.report.print(args.trace, out.ledger, correct);
  return correct ? 0 : 1;
}
