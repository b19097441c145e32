// service_churn: ServiceEngine on the paper's city graph and game at the
// paper's fleet scale (1000 vehicles per region, ~20k live), under heavy
// join/leave/migrate churn with congestion-coupled re-clustering, overload
// shedding bounded by the staleness budget, 20% free-riders with
// reputation quarantine, report loss and region outages, a degraded
// region->cloud backhaul, FdsController as the inner controller, and a
// checkpoint taken mid-pass. It has no data plane.
//
// A run is the set-up (repeated; setup_s is the median) and whole passes
// of kEpochs timed epochs, each from a freshly initialised engine on the
// same seed. Every pass must repeat the first one byte for byte.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "city.h"
#include "common/rng.h"
#include "faults/fault_model.h"
#include "roadnet/betweenness.h"
#include "service/events.h"
#include "service/service_engine.h"
#include "workloads.h"

namespace perfbench {

using namespace avcp;

namespace {

constexpr std::size_t kVehiclesPerRegion = 1000;
constexpr std::size_t kLanes = 2;
constexpr std::size_t kWarmupEpochs = 2;
constexpr std::size_t kEpochs = 100;  // timed epochs per pass
constexpr std::size_t kCheckpointAt = kEpochs / 2;
constexpr int kRestores = 11;

service::ServiceParams service_params(std::uint64_t seed) {
  service::ServiceParams sp;
  sp.mode = service::ServiceParams::Mode::kFleet;
  sp.vehicles_per_region = kVehiclesPerRegion;
  sp.revision_rate = 0.9;
  sp.imitation_scale = 0.7;
  sp.seed = derive_seed(seed, {0x5E1});
  sp.num_threads = kLanes;
  sp.attacker_fraction = 0.2;
  // ~2% of the fleet leaves and ~2% joins per epoch; 5% migrate.
  sp.churn.leave_rate = 0.02;
  sp.churn.migrate_rate = 0.05;
  sp.churn.join_slots = 2 * 20 * kVehiclesPerRegion / 50;
  sp.churn.join_rate = 0.5;
  sp.churn.seed = derive_seed(seed, {0x5E2});
  sp.congestion_alpha = 0.05;
  // Every epoch carries ~1800 events: maintenance is shed until the
  // staleness budget forces it.
  sp.overload_events = 1000;
  sp.staleness_budget = 3;
  sp.reputation.decay = 0.6;
  sp.reputation.quarantine_threshold = 0.3;
  sp.reputation.rehab_threshold = 0.05;
  sp.reputation.rehab_rounds = 50;
  sp.reputation.min_rounds = 4;
  sp.degraded.staleness_budget = 2;
  sp.degraded.max_step = kLambda;
  sp.net.drop_rate = 0.2;
  sp.net.delay_rate = 0.1;
  sp.net.duplicate_rate = 0.05;
  sp.net.max_retries = 2;
  sp.net.max_staleness = 3;
  sp.net.seed = derive_seed(seed, {0x5E3});
  return sp;
}

faults::FaultParams fault_params(std::uint64_t seed) {
  faults::FaultParams fp;
  fp.report_loss_rate = 0.08;
  fp.outage_rate = 0.02;
  fp.seed = derive_seed(seed, {0x5E4});
  return fp;
}

/// An engine with everything it references.
struct Service {
  std::unique_ptr<faults::FaultModel> faults;
  std::unique_ptr<core::FdsController> inner;
  std::unique_ptr<service::ServiceEngine> engine;
};

Service make_service(const City& city, std::uint64_t seed) {
  Service s;
  s.faults = std::make_unique<faults::FaultModel>(fault_params(seed));
  s.inner = std::make_unique<core::FdsController>(*city.game, *city.fields,
                                                  fds_options());
  s.engine = std::make_unique<service::ServiceEngine>(
      *city.game, *s.inner, &city.artifacts.graph, service_params(seed),
      s.faults.get());
  return s;
}

Service start_service(const City& city, std::uint64_t seed) {
  Service s = make_service(city, seed);
  s.engine->init(city.game->uniform_state(),
                 std::vector<double>(city.game->num_regions(), 0.5));
  for (std::size_t e = 0; e < kWarmupEpochs; ++e) s.engine->run_epoch();
  return s;
}

std::vector<std::byte> state_bytes(const service::ServiceEngine& engine) {
  Serializer s;
  engine.save_state(s);
  return s.bytes();
}

std::vector<std::int64_t> segment_counts(const service::ServiceEngine& engine,
                                         std::size_t num_segments) {
  std::vector<std::int64_t> counts(num_segments, 0);
  for (const service::VehicleRecord& rec : engine.fleet()) ++counts[rec.segment];
  return counts;
}

bool same_clustering(const cluster::Clustering& a, const cluster::Clustering& b) {
  return a.region_of == b.region_of && a.members == b.members && a.seeds == b.seeds;
}

/// The fleet's ids as the public EventStream predicts them: every epoch
/// drops the vehicles that leave and appends the joiners' fresh ids.
class IdTracker {
 public:
  IdTracker(const service::ChurnParams& churn, std::size_t initial)
      : events_(churn), next_(initial) {
    for (std::uint64_t id = 0; id < initial; ++id) ids_.push_back(id);
  }
  void advance(std::size_t epoch) {
    std::erase_if(ids_, [&](std::uint64_t id) {
      return events_.vehicle_leaves(epoch, id);
    });
    for (std::size_t j = events_.joins(epoch); j > 0; --j) ids_.push_back(next_++);
  }
  bool matches(const service::ServiceEngine& engine) const {
    const auto& fleet = engine.fleet();
    if (fleet.size() != ids_.size()) return false;
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      if (fleet[i].id != ids_[i]) return false;
    }
    return true;
  }

 private:
  service::EventStream events_;
  std::vector<std::uint64_t> ids_;
  std::uint64_t next_;
};

/// Spans of the traced passes.
struct PassTrace {
  std::vector<double> fds_us, refresh_ms;
};

struct PassResult {
  std::vector<std::byte> end_state;
  std::size_t end_epoch = 0;
  service::ServiceCounters counters;
  net::ExchangeChannel::Counters net;
  double save_ms = 0.0;
  std::size_t checkpoint_bytes = 0;
  std::vector<double> plain_ms, maintained_ms;
  std::uint64_t blind = 0;  // region-epochs with no consumable report
  // Clustering replica (traced passes only).
  std::uint64_t chunks_recomputed = 0;
  std::uint64_t refreshes = 0;
};

/// One pass on `svc` (the set-up's, already warmed up) or, when empty, on
/// a freshly started one. The engine ends with the pass.
PassResult run_pass(const City& city, const Args& args, Service svc,
                    const std::filesystem::path& ckpt, Ledger& ledger,
                    RoundTimes& times, PassTrace* trace) {
  if (svc.engine == nullptr) svc = start_service(city, args.seed);
  service::ServiceEngine& engine = *svc.engine;
  const roadnet::RoadGraph& graph = city.artifacts.graph;
  const service::ServiceParams params = service_params(args.seed);

  IdTracker ids(params.churn, city.game->num_regions() * kVehiclesPerRegion);
  for (std::size_t e = 0; e < kWarmupEpochs; ++e) ids.advance(e);
  ledger.op(ids.matches(engine), "service_churn fleet ids after warm-up");

  std::unique_ptr<core::FdsController> replay_ctrl;
  std::unique_ptr<cluster::IncrementalClustering> replica;
  cluster::IncrementalClusteringOptions copts;
  copts.clustering.num_regions = static_cast<std::uint32_t>(city.game->num_regions());
  copts.betweenness.num_threads = kLanes;
  copts.congestion_alpha = params.congestion_alpha;
  if (trace != nullptr) {
    replay_ctrl = std::make_unique<core::FdsController>(*city.game, *city.fields,
                                                        fds_options());
    replica = std::make_unique<cluster::IncrementalClustering>(graph, copts);
    replica->set_loads(engine.clustering()->loads());
  }

  PassResult res;
  std::vector<cluster::LoadDelta> deltas;
  for (std::size_t t = 0; t < kEpochs; ++t) {
    const std::size_t e = engine.epoch();
    const std::vector<double> x_prev = engine.x();
    const std::uint64_t deferred0 = engine.counters().recluster_deferred;
    const auto t0 = Clock::now();
    engine.run_epoch();
    const double ms = ms_since(t0);
    times.add(ms, static_cast<double>(engine.fleet().size()));
    const bool maintained = engine.counters().recluster_deferred == deferred0;
    (maintained ? res.maintained_ms : res.plain_ms).push_back(ms);

    ids.advance(e);
    bool ok = ids.matches(engine);
    const bool fresh_loads = engine.staleness() == 0;
    std::vector<std::int64_t> counts;
    if (fresh_loads) {
      counts = segment_counts(engine, graph.num_segments());
      const auto loads = engine.clustering()->loads();
      ok = ok && std::equal(loads.begin(), loads.end(), counts.begin(), counts.end());
    }

    if (trace != nullptr) {
      trace->fds_us.push_back(1e3 * time_ms([&] {
        (void)replay_ctrl->next_x(engine.observed_state(), x_prev);
      }));
      if (maintained && fresh_loads) {
        deltas.clear();
        const auto have = replica->loads();
        for (roadnet::SegmentId s = 0; s < counts.size(); ++s) {
          if (counts[s] != have[s]) {
            deltas.push_back({s, static_cast<std::int32_t>(counts[s] - have[s])});
          }
        }
        cluster::IncrementalClustering::RefreshStats st;
        trace->refresh_ms.push_back(time_ms([&] { st = replica->apply(deltas); }));
        res.chunks_recomputed += st.chunks_recomputed;
        ++res.refreshes;
        ok = ok && same_clustering(replica->clustering(),
                                   engine.clustering()->clustering());
      }
    }
    for (std::uint32_t r = 0; r < city.game->num_regions(); ++r) {
      res.blind += engine.channel()->consumable(r, e) == net::ExchangeChannel::kNothing;
    }
    ledger.op(ok, "service_churn epoch " + std::to_string(e));

    if (t + 1 == kCheckpointAt) {
      checkpoint::CheckpointWriter writer(engine.epoch());
      res.save_ms = time_ms([&] {
        engine.save_state(writer.section(checkpoint::kSectionService));
        writer.write(ckpt);
      });
      res.checkpoint_bytes = std::filesystem::file_size(ckpt);
    }
  }

  // The clustering equals a from-scratch Brandes + Algorithm 1 over the
  // same loads.
  const auto loads = engine.clustering()->loads();
  ledger.op(same_clustering(engine.clustering()->clustering(),
                            cluster::IncrementalClustering::scratch(
                                graph, loads, copts)),
            "service_churn clustering equals the from-scratch clustering");

  res.end_state = state_bytes(engine);
  res.end_epoch = engine.epoch();
  res.counters = engine.counters();
  res.net = engine.channel()->counters();
  return res;
}

}  // namespace

void run_service_churn(const Args& args, Outcome& out) {
  Ledger& ledger = out.ledger;
  Report& report = out.report;
  std::filesystem::create_directories(args.scratch);
  const std::filesystem::path ckpt = args.scratch / "service_churn.ckpt";

  // This set-up's service runs the first pass; repeat_set_up times the
  // others.
  std::vector<double> setup_ms;
  const auto t0 = Clock::now();
  const auto city = std::make_unique<City>(build_city());
  Service first_service = start_service(*city, args.seed);
  setup_ms.push_back(ms_since(t0));
  ledger.op(pipeline_valid(*city), "service_churn pipeline: regions and betas");

  RoundTimes untraced, traced;
  PassTrace trace;
  std::vector<PassResult> passes;
  double rss_mb = 0.0;
  const std::size_t min_passes = args.trace ? 2 : 1;
  const auto start = Clock::now();
  while (more_passes(passes.size(), min_passes, start, args.seconds)) {
    const bool traced_pass = args.trace && passes.size() % 2 == 1;
    passes.push_back(run_pass(*city, args, std::move(first_service),
                              ckpt, ledger, traced_pass ? traced : untraced,
                              traced_pass ? &trace : nullptr));
    ledger.op(passes.back().end_state == passes.front().end_state,
              "service_churn pass repeats the first pass byte for byte");
    if (passes.size() == 1) rss_mb = peak_rss_mb();
  }
  const PassResult& first = passes.front();

  // Recovery: restore the newest checkpoint into freshly built engines;
  // the last one runs on and must end byte-equal to the first pass.
  std::vector<double> recovery_ms, load_ms;
  for (int r = 0; r < kRestores; ++r) {
    double load = 0.0;
    bool ok = true;
    Service restored;
    recovery_ms.push_back(time_ms([&] {
      checkpoint::CheckpointReader reader = checkpoint::CheckpointReader::open(ckpt);
      restored = make_service(*city, args.seed);
      load = time_ms([&] {
        Deserializer d = reader.section(checkpoint::kSectionService);
        restored.engine->load_state(d);
        ok = d.exhausted();
      });
    }));
    load_ms.push_back(load);
    if (r + 1 == kRestores) {
      while (ok && restored.engine->epoch() < first.end_epoch) {
        restored.engine->run_epoch();
      }
      ok = ok && state_bytes(*restored.engine) == first.end_state;
    }
    ledger.op(ok, "service_churn restore from the mid-run checkpoint");
  }

  repeat_set_up(setup_ms, [&] {
    auto again = std::make_unique<City>(build_city());
    Service svc = start_service(*again, args.seed);
    return std::make_pair(std::move(again), std::move(svc));  // service dies first
  });
  report.e2e("setup_s", "s", median(setup_ms) / 1e3);
  untraced.report(report);
  report.e2e("peak_rss_mb", "MB", rss_mb);

  const service::ServiceCounters& c = first.counters;
  report.exact("epochs", c.epochs);
  report.exact("joins", c.joins);
  report.exact("leaves", c.leaves);
  report.exact("migrations", c.migrations);
  report.exact("reclusters", c.reclusters);
  report.exact("recluster_deferred", c.recluster_deferred);
  report.exact("betweenness_chunks_recomputed", c.betweenness_chunks_recomputed);
  report.exact("outage_region_epochs", c.outage_region_epochs);
  report.exact("quarantines", c.quarantines);
  report.exact("releases", c.releases);
  report.exact("net_sent", first.net.sent);
  report.exact("net_delivered", first.net.delivered);
  report.exact("net_dropped", first.net.dropped);
  report.exact("net_retries", first.net.retries);
  report.exact("net_blind", first.blind);
  report.exact("checkpoint_bytes", first.checkpoint_bytes);
  report.exact("end_state_hash", fnv1a_vec(first.end_state));

  if (!args.trace) return;
  traced.report_overhead(report, untraced);
  LayerValues& L = out.layers;
  time_setup_stages(*city, L);
  std::vector<double> plain, maintained;  // over the untraced passes
  for (std::size_t i = 0; i < passes.size(); i += 2) {
    const PassResult& p = passes[i];
    plain.insert(plain.end(), p.plain_ms.begin(), p.plain_ms.end());
    maintained.insert(maintained.end(), p.maintained_ms.begin(), p.maintained_ms.end());
  }
  const PassResult& tp = passes[1];  // the first traced pass
  L["core.fds_step_us"] = median(trace.fds_us);
  const roadnet::IncrementalBetweenness chunking(
      city->artifacts.graph, std::vector<double>(city->artifacts.graph.num_segments(), 1.0));
  L["roadnet.refresh_ms"] = median(trace.refresh_ms);
  L["roadnet.chunks_recomputed"] = static_cast<double>(tp.chunks_recomputed);
  L["roadnet.chunk_reuse"] =
      1.0 - static_cast<double>(tp.chunks_recomputed) /
                static_cast<double>(tp.refreshes * chunking.num_chunks());
  L["service.epoch_ms_plain"] = median(plain);
  L["service.epoch_ms_maintained"] = median(maintained);
  L["service.events"] = static_cast<double>(c.joins + c.leaves + c.migrations);
  L["cluster.refreshes"] = static_cast<double>(c.epochs - c.recluster_deferred);
  L["cluster.deferred_epochs"] = static_cast<double>(c.recluster_deferred);
  L["byzantine.quarantines"] = static_cast<double>(c.quarantines);
  L["byzantine.releases"] = static_cast<double>(c.releases);
  L["faults.outage_region_epochs"] = static_cast<double>(c.outage_region_epochs);
  L["net.sent"] = static_cast<double>(first.net.sent);
  L["net.delivered"] = static_cast<double>(first.net.delivered);
  L["net.dropped"] = static_cast<double>(first.net.dropped);
  L["net.retries"] = static_cast<double>(first.net.retries);
  L["net.blind"] = static_cast<double>(first.blind);
  L["checkpoint.save_ms"] = first.save_ms;
  L["checkpoint.load_ms"] = median(load_ms);
  L["checkpoint.recovery_ms"] = median(recovery_ms);
  L["checkpoint.bytes"] = static_cast<double>(first.checkpoint_bytes);
  L["common.dispatch_us"] = dispatch_us(kLanes, city->game->num_regions());
}

}  // namespace perfbench
