// Per-layer replays shared by the workloads: the set-up pipeline's stages
// called one by one, and the thread pool's dispatch cost.
#include <vector>

#include "city.h"
#include "cluster/region_graph.h"
#include "common/thread_pool.h"
#include "roadnet/betweenness.h"
#include "roadnet/builders.h"
#include "spatial/voronoi.h"
#include "trace/generator.h"
#include "workloads.h"

namespace perfbench {

using namespace avcp;

void time_setup_stages(const City& city, LayerValues& L) {
  const sim::PipelineConfig& cfg = city.config;
  L["sim.pipeline_ms"] = time_ms([&] { (void)sim::build_pipeline(cfg); });
  const roadnet::RoadGraph graph = roadnet::build_city(cfg.city);
  L["roadnet.betweenness_ms"] =
      time_ms([&] { (void)roadnet::segment_betweenness(graph); });
  std::vector<trace::GpsFix> fixes;
  L["trace.generate_ms"] = time_ms([&] {
    const trace::TraceGenerator gen(graph, cfg.traces);
    gen.generate([&](const trace::GpsFix& f) { fixes.push_back(f); });
  });
  L["trace.fixes"] = static_cast<double>(fixes.size());
  std::vector<spatial::ServerId> cell_of_segment;
  L["spatial.deploy_ms"] = time_ms([&] {
    std::vector<PointM> nodes;
    for (std::size_t v = 0; v < graph.num_intersections(); ++v) {
      nodes.push_back(graph.intersection(static_cast<roadnet::NodeId>(v)));
    }
    const spatial::VoronoiPartition voronoi(
        spatial::deploy_grid(spatial::BBoxM::around(nodes), cfg.num_servers));
    cell_of_segment = voronoi.assign_segments(graph);
  });
  cluster::Clustering clustering;
  L["cluster.algorithm1_ms"] = time_ms([&] {
    clustering = cluster::cluster_segments(
        graph, city.artifacts.coefficients,
        cluster::ClusteringOptions{cfg.num_regions});
  });
  L["cluster.region_graph_ms"] = time_ms([&] {
    cluster::RegionGraphInputs in;
    in.region_of_segment = clustering.region_of;
    in.cell_of_segment = cell_of_segment;
    in.num_regions = cfg.num_regions;
    in.num_cells = cfg.num_servers;
    in.window_s = cfg.traces.fix_interval_s;
    in.duration_s = cfg.traces.duration_s;
    cluster::RegionGraphAccumulator acc(in);
    for (const trace::GpsFix& f : fixes) acc.add(f);
    (void)acc.build();
  });
}

double dispatch_us(std::size_t lanes, std::size_t tasks) {
  ThreadPool pool(lanes);
  auto noop = [](std::size_t) {};
  const ThreadPool::Stage stage{tasks, IndexFnRef(noop), 0, {}};
  std::vector<double> us;
  for (int b = 0; b < 2000; ++b) {
    us.push_back(1e3 * time_ms([&] { pool.run_batch({&stage, 1}); }));
  }
  return median(us);
}

}  // namespace perfbench
