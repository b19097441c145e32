// fleet_scale: ShardedFleetEngine streaming in a fleet far larger than the
// last-level cache, on the class-aggregated kernel (the engine's default),
// with inter-shard ring exchange over a link that drops and delays
// messages, at a fixed commanded ratio. No set-up pipeline, no clustering.
//
// A run is the set-up (engine construction, streaming ingest, warm-up;
// repeated, setup_s is the median) and whole passes of kRounds timed
// rounds, each from a freshly ingested engine on the same seed. The
// fleet's decisions converge over the first rounds and the round cost
// falls with them, so every pass times the same fixed span of rounds.
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/fleet_stream.h"
#include "perception/data_plane.h"
#include "perception/fleet_soa.h"
#include "system/fleet_engine.h"
#include "workloads.h"

namespace perfbench {

using namespace avcp;

namespace {

constexpr std::size_t kVehicles = 250000;
constexpr std::size_t kLanes = 2;
constexpr double kRatio = 0.6;
constexpr std::size_t kWarmupRounds = 2;
constexpr std::size_t kRounds = 100;  // timed rounds per pass
constexpr std::size_t kLaneReplayRounds = 4;
constexpr std::size_t kExactSlice = 1024;  // exact kernel is O(V^2)
constexpr int kShardReplays = 3;

system::FleetEngineParams engine_params(std::uint64_t seed, std::size_t lanes) {
  system::FleetEngineParams p;
  p.seed = derive_seed(seed, {0xF1EE7});
  p.num_threads = lanes;
  p.inter_shard_exchange = true;
  p.net.drop_rate = 0.2;
  p.net.delay_rate = 0.1;
  p.net.max_retries = 2;
  p.net.max_staleness = 3;
  p.net.seed = derive_seed(seed, {0xF1EE8});
  return p;  // kernel stays at the engine's default
}

struct Built {
  std::unique_ptr<system::ShardedFleetEngine> engine;
  double ingest_ms = 0.0;
};

/// Construction and streaming ingest: the engine ready for round 0.
Built build_engine(std::uint64_t seed, std::size_t lanes) {
  const system::FleetEngineParams params = engine_params(seed, lanes);
  Built b;
  b.engine = std::make_unique<system::ShardedFleetEngine>(params);
  core::SyntheticFleetSource source(
      kVehicles, core::DecisionLattice(params.num_sensors).num_decisions(),
      derive_seed(seed, {0xF1EE9}));
  b.ingest_ms = time_ms([&] { b.engine->ingest(source); });
  return b;
}

/// decision_share equals the benchmark's own histogram over the shards.
bool shares_match(const system::ShardedFleetEngine& engine,
                  const system::FleetRoundStats& stats) {
  std::vector<double> counts(stats.decision_share.size(), 0.0);
  std::size_t total = 0;
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    const perception::FleetSoA& f = engine.shard_fleet(s);
    for (std::size_t v = 0; v < f.size(); ++v) {
      const core::DecisionId d = f.decision(v);
      if (d >= counts.size()) return false;
      counts[d] += 1.0;
    }
    total += f.size();
  }
  if (total != kVehicles || stats.vehicles != kVehicles) return false;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] / static_cast<double>(total) != stats.decision_share[k]) return false;
  }
  return true;
}

/// Replays shard 0 through a data plane of its own: both kernels on the
/// shard (the exact one on a slice of it) and the directional kernel
/// with a ring-sized sample of shard 1 as senders. Times are medians of
/// kShardReplays replays.
struct ShardReplay {
  double plane_us = 0, exact_us = 0, aggregated_us = 0, directional_us = 0;
  std::size_t deliveries = 0;
};

ShardReplay replay_shard(const system::ShardedFleetEngine& engine, std::uint64_t seed) {
  const system::FleetEngineParams p = engine_params(seed, 1);
  const core::DecisionLattice lattice(p.num_sensors);
  std::vector<double> privacy(p.num_sensors);
  for (std::size_t s = 0; s < privacy.size(); ++s) privacy[s] = 1.0 / static_cast<double>(s + 1);
  Rng rng(derive_seed(seed, {0xF1EEA}));
  const perception::DataUniverse universe = perception::DataUniverse::synthetic(
      p.num_sensors, p.items_per_sensor, privacy, rng);
  perception::EdgeServerDataPlane plane(lattice, universe, p.access, rng());
  const perception::FleetView shard = engine.shard_fleet(0).view();
  perception::FleetSoA slice, sample;
  for (std::size_t v = 0; v < kExactSlice && v < shard.size(); ++v) slice.add(shard, v);
  const perception::FleetView senders_of = engine.shard_fleet(1).view();
  for (std::size_t v = 0; v < p.exchange_sample_cap && v < senders_of.size(); ++v) {
    sample.add(senders_of, v);
  }

  ShardReplay r;
  perception::RoundOutcome out;
  perception::EdgeServerDataPlane::DirectionalOutcome dout;
  std::vector<double> plane_us, aggregated_us, exact_us, directional_us;
  for (int i = 0; i < kShardReplays; ++i) {
    plane_us.push_back(1e3 * time_ms([&] {
      plane.run_round_into(shard, kRatio, {}, {}, p.mode, out);
    }));
    r.deliveries += out.deliveries;
    aggregated_us.push_back(1e3 * time_ms([&] {
      plane.run_round_into(shard, kRatio, {}, {},
                           perception::DataPlaneMode::kClassAggregated, out);
    }));
    exact_us.push_back(1e3 * time_ms([&] {
      plane.run_round_into(slice.view(), kRatio, {}, {},
                           perception::DataPlaneMode::kPairwiseExact, out);
    }));
    directional_us.push_back(1e3 * time_ms([&] {
      plane.run_directional_into(sample.view(), shard, kRatio, p.mode, dout);
    }));
    r.deliveries += dout.deliveries;
  }
  r.plane_us = median(plane_us);
  r.aggregated_us = median(aggregated_us);
  r.exact_us = median(exact_us);
  r.directional_us = median(directional_us);
  return r;
}

struct PassResult {
  std::vector<std::uint64_t> hashes;  // state_hash after every round
  net::ExchangeChannel::Counters net;
  std::uint64_t blind = 0;
  // Traced passes only: allocations across the timed rounds, and the
  // shard replay made on the state after the middle timed round.
  long long steady_allocs = 0;
  ShardReplay shard;
};

/// One pass on `engine` (the set-up's, already warmed up) or, when null,
/// on a freshly ingested and warmed-up one. The engine ends with the pass.
PassResult run_pass(const Args& args, std::unique_ptr<system::ShardedFleetEngine> owned,
                    Ledger& ledger, RoundTimes& times, bool traced) {
  const bool fresh = owned == nullptr;
  if (fresh) owned = build_engine(args.seed, kLanes).engine;
  system::ShardedFleetEngine& engine = *owned;
  system::FleetRoundStats stats;
  PassResult res;
  // Live allocations count the engine's alone: the benchmark's own series
  // are reserved up front, and counting pauses around the shard replay.
  res.hashes.reserve(kWarmupRounds + kRounds);
  times.reserve(kRounds);
  if (fresh) {
    for (std::size_t w = 0; w < kWarmupRounds; ++w) {
      engine.run_round_into(kRatio, stats);
      res.hashes.push_back(engine.state_hash());
    }
  }
  if (traced) set_alloc_counting(true);
  const long long live0 = live_allocations();
  for (std::size_t t = 0; t < kRounds; ++t) {
    const auto t0 = Clock::now();
    engine.run_round_into(kRatio, stats);
    times.add(ms_since(t0), static_cast<double>(stats.vehicles));
    res.hashes.push_back(engine.state_hash());
    res.blind += stats.net_blind;
    ledger.op(shares_match(engine, stats) && engine.size() == kVehicles,
              "fleet_scale round " + std::to_string(t));
    if (traced && t + 1 == kRounds / 2) {
      set_alloc_counting(false);
      res.shard = replay_shard(engine, args.seed);
      set_alloc_counting(true);
    }
  }
  if (traced) {
    res.steady_allocs = live_allocations() - live0;
    set_alloc_counting(false);
  }
  res.net = engine.channel()->counters();
  return res;
}

}  // namespace

void run_fleet_scale(const Args& args, Outcome& out) {
  Ledger& ledger = out.ledger;
  Report& report = out.report;

  // Set-up: engine, ingest and warm-up. This set-up's engine runs the
  // first pass; repeat_set_up times the others.
  std::vector<double> setup_ms, ingest_ms;
  std::vector<std::uint64_t> warmup_hashes;
  const auto set_up = [&](std::vector<std::uint64_t>& hashes) {
    Built b = build_engine(args.seed, kLanes);
    system::FleetRoundStats stats;
    for (std::size_t w = 0; w < kWarmupRounds; ++w) {
      b.engine->run_round_into(kRatio, stats);
      hashes.push_back(b.engine->state_hash());
    }
    ingest_ms.push_back(b.ingest_ms);
    return b;
  };
  const auto t0 = Clock::now();
  Built first = set_up(warmup_hashes);
  setup_ms.push_back(ms_since(t0));

  RoundTimes untraced, traced;
  std::vector<PassResult> passes;
  double rss_mb = 0.0;
  const std::size_t min_passes = args.trace ? 2 : 1;
  const auto start = Clock::now();
  while (more_passes(passes.size(), min_passes, start, args.seconds)) {
    const bool traced_pass = args.trace && passes.size() % 2 == 1;
    PassResult p = run_pass(args, std::move(first.engine), ledger,
                            traced_pass ? traced : untraced, traced_pass);
    if (passes.empty()) {
      p.hashes.insert(p.hashes.begin(), warmup_hashes.begin(), warmup_hashes.end());
    }
    passes.push_back(std::move(p));
    ledger.op(passes.back().hashes == passes.front().hashes,
              "fleet_scale pass repeats the first pass bit for bit");
    if (passes.size() == 1) rss_mb = peak_rss_mb();
  }
  const PassResult& first_pass = passes.front();

  // The replay of the first rounds at one lane gives equal state hashes.
  {
    Built one = build_engine(args.seed, 1);
    system::FleetRoundStats stats;
    bool ok = one.engine->size() == kVehicles;
    for (std::size_t t = 0; t < kWarmupRounds + kLaneReplayRounds; ++t) {
      one.engine->run_round_into(kRatio, stats);
      ok = ok && one.engine->state_hash() == first_pass.hashes[t];
    }
    ledger.op(ok, "fleet_scale one-lane replay matches");
  }

  repeat_set_up(setup_ms, [&] {
    std::vector<std::uint64_t> hashes;
    Built again = set_up(hashes);
    ledger.op(hashes == warmup_hashes, "fleet_scale set-up repeats the first");
    return again;
  });
  report.e2e("setup_s", "s", median(setup_ms) / 1e3);
  untraced.report(report);
  report.e2e("peak_rss_mb", "MB", rss_mb);

  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint64_t v : first_pass.hashes) h = fnv1a(&v, sizeof v, h);
  report.exact("state_hash_chain", h);
  report.exact("net_sent", first_pass.net.sent);
  report.exact("net_delivered", first_pass.net.delivered);
  report.exact("net_dropped", first_pass.net.dropped);
  report.exact("net_retries", first_pass.net.retries);
  report.exact("net_blind", first_pass.blind);

  if (!args.trace) return;
  const ShardReplay& shard = passes[1].shard;  // the first traced pass
  report.exact("replay_deliveries", shard.deliveries);
  traced.report_overhead(report, untraced);
  LayerValues& L = out.layers;
  const double shards = static_cast<double>(engine_params(args.seed, kLanes).num_shards);
  L["perception.plane_us"] = shard.plane_us;
  L["perception.plane_us_exact"] = shard.exact_us;
  L["perception.plane_us_aggregated"] = shard.aggregated_us;
  L["perception.directional_us"] = shard.directional_us;
  L["perception.deliveries"] = static_cast<double>(shard.deliveries);
  L["system.self_ms"] = quantile(untraced.ms, 0.5) -
                        shards * (shard.plane_us + shard.directional_us) /
                            (1e3 * static_cast<double>(kLanes));
  L["net.sent"] = static_cast<double>(first_pass.net.sent);
  L["net.delivered"] = static_cast<double>(first_pass.net.delivered);
  L["net.dropped"] = static_cast<double>(first_pass.net.dropped);
  L["net.retries"] = static_cast<double>(first_pass.net.retries);
  L["net.blind"] = static_cast<double>(first_pass.blind);
  L["system.ingest_ms"] = median(ingest_ms);
  L["system.steady_allocs"] = static_cast<double>(passes[1].steady_allocs);
  L["common.dispatch_us"] = dispatch_us(kLanes, static_cast<std::size_t>(shards));
}

}  // namespace perfbench
