// paper_city: the paper's evaluation loop on the trace-derived city.
//
// A run is the set-up pipeline (repeated; setup_s is the median), the
// mean-field FDS solve to the eps = 0.05 field (Fig. 9), and whole passes
// of kRounds timed rounds of the measured CooperativePerceptionSystem
// driven by FdsController, each pass from a freshly built plant on the
// same seed, with a checkpoint taken mid-pass. Every pass must repeat the
// first one bit for bit.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "city.h"
#include "common/rng.h"
#include "core/lower_bound.h"
#include "perception/data_plane.h"
#include "perception/fleet_soa.h"
#include "sim/runner.h"
#include "system/system.h"
#include "workloads.h"

namespace perfbench {

using namespace avcp;

namespace {

constexpr std::size_t kVehiclesPerRegion = 200;
constexpr std::size_t kCellsPerRegion = 5;  // 100 servers over 20 regions
constexpr std::size_t kLanes = 2;
constexpr std::size_t kWarmupRounds = 2;
constexpr std::size_t kRounds = 100;  // timed rounds per pass
constexpr std::size_t kCheckpointAt = kRounds / 2;
constexpr std::size_t kLaneReplayRounds = 8;
constexpr int kRestores = 25;

system::SystemParams plant_params(std::uint64_t seed, std::size_t lanes) {
  system::SystemParams p;
  p.vehicles_per_region = kVehiclesPerRegion;
  p.cells_per_region = kCellsPerRegion;
  p.inter_region_exchange = true;
  p.seed = derive_seed(seed, {0x9C17});
  p.num_threads = lanes;
  return p;  // data_plane_mode stays at the engine's default
}

struct Plant {
  std::unique_ptr<system::CooperativePerceptionSystem> sys;
  std::unique_ptr<core::FdsController> ctrl;
};

Plant make_plant(const City& city, std::uint64_t seed, std::size_t lanes) {
  Plant plant;
  plant.sys = std::make_unique<system::CooperativePerceptionSystem>(
      *city.game, plant_params(seed, lanes));
  plant.ctrl = std::make_unique<core::FdsController>(*city.game, *city.fields,
                                                     fds_options());
  plant.sys->init_from(city.game->uniform_state());
  return plant;
}

std::uint64_t round_hash(const system::RoundReport& r) {
  std::uint64_t h = fnv1a_vec(r.x);
  for (const auto& row : r.state.p) h = fnv1a_vec(row, h);
  h = fnv1a_vec(r.mean_utility, h);
  return fnv1a_vec(r.mean_privacy, h);
}

/// Eq. 13 and the simplex: x in [0, 1], |dx| <= Lambda, rows non-negative,
/// summing to 1 and made of whole vehicles.
bool round_valid(const system::RoundReport& r, const std::vector<double>& x_prev) {
  if (r.x.size() != x_prev.size()) return false;
  for (std::size_t i = 0; i < r.x.size(); ++i) {
    if (!(r.x[i] >= 0.0 && r.x[i] <= 1.0)) return false;
    if (!(std::fabs(r.x[i] - x_prev[i]) <= kLambda + 1e-12)) return false;
  }
  const double n = static_cast<double>(kVehiclesPerRegion);
  for (const auto& row : r.state.p) {
    double sum = 0.0;
    for (const double p : row) {
      if (!(p >= 0.0)) return false;
      if (std::fabs(p * n - std::round(p * n)) > 1e-9 * n) return false;
      sum += p;
    }
    if (std::fabs(sum - 1.0) > 1e-9) return false;
  }
  return true;
}

/// Replays one edge-server cell of the plant's size and decision mix
/// through the data plane's public entry points, on a scene synthesised
/// like the plant's (desired items Bernoulli(0.3) per item, collected items
/// dealt disjointly across the region).
class CellReplay {
 public:
  CellReplay(const core::MultiRegionGame& game, std::uint64_t seed)
      : lattice_(game.lattice()), universe_(make_universe(game, seed)),
        plane_(lattice_, universe_, game.config().access, seed) {}

  struct Times {
    double plane_us = 0, exact_us = 0, aggregated_us = 0, directional_us = 0;
    std::size_t deliveries = 0;
  };

  Times run(const std::vector<double>& row, const std::vector<double>& row_nb,
            double x, double x_nb, std::uint64_t stream) {
    Rng rng(stream);
    fill(cell_, row, rng);
    fill(senders_, row_nb, rng);
    const perception::FleetView view = cell_.view();
    const perception::DataPlaneMode def = system::SystemParams{}.data_plane_mode;
    Times t;
    t.plane_us = 1e3 * time_ms([&] {
      plane_.run_round_into(view, x, {}, {}, def, out_);
    });
    t.deliveries = out_.deliveries;
    t.exact_us = 1e3 * time_ms([&] {
      plane_.run_round_into(view, x, {}, {},
                            perception::DataPlaneMode::kPairwiseExact, out_);
    });
    t.aggregated_us = 1e3 * time_ms([&] {
      plane_.run_round_into(view, x, {}, {},
                            perception::DataPlaneMode::kClassAggregated, out_);
    });
    t.directional_us = 1e3 * time_ms([&] {
      plane_.run_directional_into(senders_.view(), view, x_nb, def, dout_);
    });
    t.deliveries += dout_.deliveries;
    return t;
  }

 private:
  static perception::DataUniverse make_universe(
      const core::MultiRegionGame& game, std::uint64_t seed) {
    const core::DecisionLattice& lattice = game.lattice();
    std::vector<double> privacy(lattice.num_sensors());
    for (std::size_t s = 0; s < lattice.num_sensors(); ++s) {
      privacy[s] = std::max(
          1e-3, game.config().privacy[lattice.decision_of(lattice.sensor_bit(s))]);
    }
    Rng rng(seed);
    return perception::DataUniverse::synthetic(
        lattice.num_sensors(), kVehiclesPerRegion, privacy, rng);
  }

  void fill(perception::FleetSoA& f, const std::vector<double>& row, Rng& rng) {
    constexpr std::size_t n = kVehiclesPerRegion / kCellsPerRegion;
    f.clear();
    // Decisions by quantile of the region's row: the cell's mix.
    double cum = 0.0;
    core::DecisionId k = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const double u = (static_cast<double>(v) + 0.5) / static_cast<double>(n);
      while (k + 1 < row.size() && cum + row[k] < u) cum += row[k++];
      f.add(k);
    }
    for (std::size_t v = 0; v < n; ++v) {
      f.begin_desired(v);
      for (perception::ItemId id = 0; id < universe_.size(); ++id) {
        if (rng.bernoulli(0.3)) f.push_item(id);
      }
      f.end_set();
    }
    // Each item goes to one of the region's vehicles; this cell holds the
    // items dealt to its share of them.
    std::vector<std::vector<perception::ItemId>> owned(n);
    const double share = 1.0 / static_cast<double>(kCellsPerRegion);
    for (perception::ItemId id = 0; id < universe_.size(); ++id) {
      if (!rng.bernoulli(share)) continue;
      owned[static_cast<std::size_t>(rng.uniform_int(0, n - 1))].push_back(id);
    }
    for (std::size_t v = 0; v < n; ++v) {
      f.begin_collected(v);
      for (const perception::ItemId id : owned[v]) f.push_item(id);
      f.end_set();
    }
  }

  const core::DecisionLattice& lattice_;
  perception::DataUniverse universe_;
  perception::EdgeServerDataPlane plane_;
  perception::FleetSoA cell_, senders_;
  perception::RoundOutcome out_;
  perception::EdgeServerDataPlane::DirectionalOutcome dout_;
};

/// Spans of the traced passes.
struct PassTrace {
  std::vector<double> fds_us, plane_us, exact_us, aggregated_us, dir_us;
};

struct PassResult {
  std::vector<std::uint64_t> hashes;  // one per timed round
  double save_ms = 0.0;
  std::size_t checkpoint_bytes = 0;
  // Traced passes only.
  std::uint64_t deliveries = 0;
  long long steady_allocs = 0;
};

/// One pass of kRounds timed rounds, with a checkpoint written after round
/// kCheckpointAt, on `plant` (the set-up's, already warmed up) or, when
/// empty, on a freshly built and warmed-up one. The plant ends with the
/// pass.
PassResult run_pass(const City& city, const Args& args, Plant plant,
                    const std::filesystem::path& ckpt, Ledger& ledger,
                    RoundTimes& times, PassTrace* trace) {
  if (plant.sys == nullptr) {
    plant = make_plant(city, args.seed, kLanes);
    for (std::size_t w = 0; w < kWarmupRounds; ++w) plant.sys->run_round(*plant.ctrl);
  }
  system::CooperativePerceptionSystem& sys = *plant.sys;
  core::FdsController& ctrl = *plant.ctrl;
  const double vehicles =
      static_cast<double>(kVehiclesPerRegion * city.game->num_regions());

  std::unique_ptr<CellReplay> replay;
  std::unique_ptr<core::FdsController> replay_ctrl;
  core::GameState observed;
  if (trace != nullptr) {
    replay = std::make_unique<CellReplay>(*city.game, derive_seed(args.seed, {0xCE11}));
    replay_ctrl = std::make_unique<core::FdsController>(*city.game, *city.fields,
                                                        fds_options());
    observed = sys.empirical_state();
  }
  // Live allocations count the engine's alone: the benchmark's own series
  // are reserved up front, and counting pauses around the replays.
  PassResult res;
  res.hashes.reserve(kRounds);
  times.reserve(kRounds);
  if (trace != nullptr) set_alloc_counting(true);
  const long long live0 = live_allocations();

  for (std::size_t t = 0; t < kRounds; ++t) {
    const std::vector<double> x_prev = sys.current_x();
    const auto t0 = Clock::now();
    const system::RoundReport report = sys.run_round(ctrl);
    times.add(ms_since(t0), vehicles);
    res.hashes.push_back(round_hash(report));
    bool ok = round_valid(report, x_prev);

    if (trace != nullptr) {
      set_alloc_counting(false);
      std::vector<double> x_replay;
      trace->fds_us.push_back(1e3 * time_ms([&] {
        x_replay = replay_ctrl->next_x(observed, x_prev);
      }));
      ok = ok && x_replay == report.x;  // the controller is a pure function
      const core::RegionId i = static_cast<core::RegionId>(t % report.x.size());
      const core::RegionSpec& spec = city.game->region(i);
      const core::RegionId j = spec.neighbors.empty() ? i : spec.neighbors[0].first;
      const CellReplay::Times ct =
          replay->run(observed.p[i], observed.p[j], report.x[i], report.x[j],
                      derive_seed(args.seed, {0xCE12, t}));
      trace->plane_us.push_back(ct.plane_us);
      trace->exact_us.push_back(ct.exact_us);
      trace->aggregated_us.push_back(ct.aggregated_us);
      trace->dir_us.push_back(ct.directional_us);
      res.deliveries += ct.deliveries;
      observed = report.state;
    }
    if (trace != nullptr) set_alloc_counting(true);
    ledger.op(ok, "paper_city round " + std::to_string(t));

    if (t + 1 == kCheckpointAt) {
      checkpoint::CheckpointWriter writer(sys.round());
      res.save_ms = time_ms([&] {
        sys.save_state(writer.section(checkpoint::kSectionSystem));
        ctrl.save_state(writer.section(checkpoint::kSectionController));
        writer.write(ckpt);
      });
      res.checkpoint_bytes = std::filesystem::file_size(ckpt);
    }
  }
  if (trace != nullptr) {
    res.steady_allocs = live_allocations() - live0;
    set_alloc_counting(false);
  }
  return res;
}

}  // namespace

void run_paper_city(const Args& args, Outcome& out) {
  Ledger& ledger = out.ledger;
  Report& report = out.report;
  std::filesystem::create_directories(args.scratch);
  const std::filesystem::path ckpt = args.scratch / "paper_city.ckpt";

  // --- Set-up: pipeline, game, fields, plant, warm-up. -------------------
  // This set-up's plant runs the first pass; repeat_set_up times the others.
  std::vector<double> setup_ms;
  const auto t0 = Clock::now();
  const auto city = std::make_unique<City>(build_city());
  Plant plant = make_plant(*city, args.seed, kLanes);
  for (std::size_t w = 0; w < kWarmupRounds; ++w) plant.sys->run_round(*plant.ctrl);
  setup_ms.push_back(ms_since(t0));
  ledger.op(pipeline_valid(*city), "paper_city pipeline: regions and betas");
  const core::MultiRegionGame& game = *city->game;

  // --- Mean-field FDS solve (Fig. 9) against the Prop. 4.1 bound. -------
  const std::vector<double> x0(game.num_regions(), kX0);
  core::FdsController mf_ctrl(game, *city->fields, fds_options());
  sim::RunOptions mf_opts;
  mf_opts.max_rounds = 5000;
  mf_opts.record_trajectory = false;
  sim::RunResult mf;
  const double mf_ms = time_ms([&] {
    mf = sim::run_mean_field(game, mf_ctrl, game.uniform_state(), x0,
                             &*city->fields, mf_opts);
  });
  core::LowerBoundOptions lb_opts;
  lb_opts.max_step = kLambda;
  const core::LowerBoundResult lb = core::convergence_lower_bound(
      game, game.uniform_state(), *city->fields, x0, lb_opts);
  ledger.op(mf.converged && inside_fields(*city->fields, mf.final_state) &&
                lb.reachable && mf.rounds >= lb.rounds,
            "paper_city mean-field solve reaches the field above the bound");

  // --- Timed passes (traced runs alternate untraced and traced passes). --
  RoundTimes untraced, traced;
  PassTrace trace;
  std::vector<PassResult> passes;
  double rss_mb = 0.0;
  const std::size_t min_passes = args.trace ? 2 : 1;
  const auto start = Clock::now();
  while (more_passes(passes.size(), min_passes, start, args.seconds)) {
    const bool traced_pass = args.trace && passes.size() % 2 == 1;
    passes.push_back(run_pass(*city, args, std::move(plant),
                              ckpt, ledger, traced_pass ? traced : untraced,
                              traced_pass ? &trace : nullptr));
    ledger.op(passes.back().hashes == passes.front().hashes,
              "paper_city pass repeats the first pass bit for bit");
    if (passes.size() == 1) rss_mb = peak_rss_mb();
  }
  const PassResult& first = passes.front();

  // --- Recovery: restore the newest checkpoint into fresh engines. ------
  std::vector<double> recovery_ms, load_ms;
  for (int r = 0; r < kRestores; ++r) {
    Plant restored;
    double load = 0.0;
    bool ok = true;
    const double ms = time_ms([&] {
      checkpoint::CheckpointReader reader = checkpoint::CheckpointReader::open(ckpt);
      restored.sys = std::make_unique<system::CooperativePerceptionSystem>(
          game, plant_params(args.seed, kLanes));
      restored.ctrl = std::make_unique<core::FdsController>(game, *city->fields,
                                                            fds_options());
      load = time_ms([&] {
        Deserializer ds = reader.section(checkpoint::kSectionSystem);
        restored.sys->load_state(ds);
        Deserializer dc = reader.section(checkpoint::kSectionController);
        restored.ctrl->load_state(dc);
        ok = ds.exhausted() && dc.exhausted();
      });
    });
    recovery_ms.push_back(ms);
    load_ms.push_back(load);
    if (r + 1 == kRestores) {
      // The restored plant repeats the rest of the pass bit for bit.
      for (std::size_t t = kCheckpointAt; t < kRounds && ok; ++t) {
        ok = round_hash(restored.sys->run_round(*restored.ctrl)) == first.hashes[t];
      }
    }
    ledger.op(ok, "paper_city restore from the mid-run checkpoint");
  }

  // --- Lanes: the first rounds at one lane match bit for bit. -----------
  {
    Plant one = make_plant(*city, args.seed, 1);
    for (std::size_t w = 0; w < kWarmupRounds; ++w) one.sys->run_round(*one.ctrl);
    bool ok = true;
    for (std::size_t t = 0; t < kLaneReplayRounds; ++t) {
      ok = ok && round_hash(one.sys->run_round(*one.ctrl)) == first.hashes[t];
    }
    ledger.op(ok, "paper_city one-lane replay matches");
  }

  // --- End-to-end metrics (untraced passes only). ------------------------
  repeat_set_up(setup_ms, [&] {
    auto again = std::make_unique<City>(build_city());
    Plant p = make_plant(*again, args.seed, kLanes);
    for (std::size_t w = 0; w < kWarmupRounds; ++w) p.sys->run_round(*p.ctrl);
    return std::make_pair(std::move(again), std::move(p));  // plant dies first
  });
  report.e2e("setup_s", "s", median(setup_ms) / 1e3);
  untraced.report(report);
  report.e2e("peak_rss_mb", "MB", rss_mb);

  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint64_t v : first.hashes) h = fnv1a(&v, sizeof v, h);
  report.exact("fds_rounds", mf.rounds);
  report.exact("lower_bound_rounds", lb.rounds);
  report.exact("checkpoint_bytes", first.checkpoint_bytes);
  report.exact("trajectory_hash", h);

  if (!args.trace) return;
  const PassResult& tp = passes[1];  // the first traced pass
  report.exact("replay_deliveries", tp.deliveries);
  traced.report_overhead(report, untraced);

  // --- Per-layer values of the traced run. ------------------------------
  LayerValues& L = out.layers;
  time_setup_stages(*city, L);
  L["core.mean_field_ms"] = mf_ms;
  L["core.lower_bound_rounds"] = static_cast<double>(lb.rounds);
  L["core.fds_rounds"] = static_cast<double>(mf.rounds);
  L["core.fds_step_us"] = median(trace.fds_us);
  L["perception.plane_us"] = median(trace.plane_us);
  L["perception.plane_us_exact"] = median(trace.exact_us);
  L["perception.plane_us_aggregated"] = median(trace.aggregated_us);
  L["perception.directional_us"] = median(trace.dir_us);
  L["perception.deliveries"] = static_cast<double>(tp.deliveries);
  // Estimate: the round minus its replayed data-plane and control spans
  // (every cell once, every region's inter-region exchange once, spread
  // over the lanes).
  const double cells = static_cast<double>(game.num_regions() * kCellsPerRegion);
  const double regions = static_cast<double>(game.num_regions());
  L["system.self_ms"] =
      quantile(untraced.ms, 0.5) -
      (cells * median(trace.plane_us) + regions * median(trace.dir_us)) /
          (1e3 * static_cast<double>(kLanes)) -
      median(trace.fds_us) / 1e3;
  L["system.steady_allocs"] = static_cast<double>(tp.steady_allocs);
  L["checkpoint.save_ms"] = first.save_ms;
  L["checkpoint.load_ms"] = median(load_ms);
  L["checkpoint.recovery_ms"] = median(recovery_ms);
  L["checkpoint.bytes"] = static_cast<double>(first.checkpoint_bytes);
  L["common.dispatch_us"] = dispatch_us(kLanes, game.num_regions());
}

}  // namespace perfbench
