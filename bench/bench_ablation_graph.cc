// Graph-representation ablation (paper Sec. III-C2): compares the paper's
// chosen encoding — one node per logical operator, instance statistics
// collapsed (option 2) — against one node per operator *instance*
// (option 1). Reports graph sizes, training time, and accuracy on seen
// and unseen structures, reproducing the analysis that motivated the
// paper's choice ("4096 edges ... hardly any new information per node").
#include <iostream>

#include "bench_util.h"
#include "core/trainer.h"

using namespace zerotune;

namespace {

/// Average node/edge counts of the encoded test graphs: data-flow edges
/// (upstream entries), resource links (every node pair) and mapping edges.
std::pair<double, double> GraphSize(const workload::Dataset& data,
                                    const core::FeatureConfig& config) {
  double nodes = 0.0, edges = 0.0;
  for (const auto& s : data.samples()) {
    const auto g = core::BuildPlanGraph(s.plan, config);
    const size_t resources = g.num_resources();
    nodes += static_cast<double>(g.num_operators() + resources);
    size_t data_edges = 0;
    for (const auto& ups : g.operator_upstreams) data_edges += ups.size();
    edges += static_cast<double>(data_edges +
                                 resources * (resources - 1) / 2 +
                                 g.mapping_edges.size());
  }
  const double n = static_cast<double>(std::max<size_t>(1, data.size()));
  return {nodes / n, edges / n};
}

}  // namespace

int main() {
  bench::BenchScale scale = bench::BenchScale::FromEnv();
  // Per-instance graphs are big; keep the corpus moderate so this bench
  // stays in the minutes range even at default scale.
  scale.train_queries = std::min<size_t>(scale.train_queries, 1500);
  ThreadPool pool;
  bench::Banner("Ablation — graph representation (option 1 vs option 2)");

  core::OptiSampleEnumerator enumerator;

  // Shared unseen-structure evaluation corpus.
  core::DatasetBuilderOptions uopts;
  uopts.count = scale.test_queries_per_type;
  uopts.seed = 0x9ab5;
  uopts.structures = {workload::QueryStructure::kFourWayJoin};
  uopts.pool = &pool;
  const workload::Dataset unseen_eval =
      core::BuildDataset(enumerator, uopts).value();

  TextTable table({"Representation", "Avg nodes", "Avg edges",
                   "Train time s", "Seen lat median", "Unseen lat median"});
  for (const auto& [label, config] :
       std::vector<std::pair<std::string, core::FeatureConfig>>{
           {"option 2: collapsed (paper)", core::FeatureConfig::All()},
           {"option 1: per-instance", core::FeatureConfig::PerInstance()}}) {
    bench::TrainedSetup setup = bench::TrainModel(
        enumerator, scale, &pool, /*seed=*/0x6a9, {}, config);
    const auto [nodes, edges] = GraphSize(setup.test, config);
    const auto seen = core::Trainer::Evaluate(*setup.model, setup.test);
    const auto unseen = core::Trainer::Evaluate(*setup.model, unseen_eval);
    table.AddRow({label, TextTable::Fmt(nodes, 1), TextTable::Fmt(edges, 1),
                  TextTable::Fmt(setup.train_seconds, 1),
                  TextTable::Fmt(seen.latency.median),
                  TextTable::Fmt(unseen.latency.median)});
  }
  bench::EmitTable("ablation_graph", table);
  std::cout << "Expected shape: per-instance graphs are 1-2 orders of\n"
               "magnitude larger and slower to train without an accuracy\n"
               "win — the paper's Sec. III-C2 argument for collapsing\n"
               "parallel instances into one node.\n";
  return 0;
}
