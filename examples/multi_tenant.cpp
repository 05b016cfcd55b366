// Multi-tenant cluster planning: three queries with very different loads
// share one cluster. The MultiQueryOptimizer partitions the worker nodes
// among them using what-if predictions and tunes each query's parallelism
// on its partition.
//
// Run:  ./multi_tenant
#include <iostream>

#include "common/table.h"
#include "core/multi_query.h"
#include "core/oracle_predictor.h"
#include "dsp/dot_export.h"
#include "sim/cost_engine.h"

using namespace zerotune;

namespace {

dsp::QueryPlan MakePipeline(const std::string& name, double rate,
                            double filter_sel) {
  dsp::QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = rate;
  s.schema = dsp::TupleSchema::Uniform(3, dsp::DataType::kDouble);
  const int src = q.AddSource(s);
  dsp::FilterProperties f;
  f.selectivity = filter_sel;
  const int fid = q.AddFilter(src, f).value();
  dsp::AggregateProperties a;
  a.selectivity = 0.15;
  const int aid = q.AddWindowAggregate(fid, a).value();
  ZT_CHECK_OK(q.AddSink(aid));
  q.mutable_op(src).name = name + "-source";
  return q;
}

}  // namespace

int main() {
  // This example uses the oracle (ground-truth what-if) predictor so it
  // runs instantly; swap in a trained ZeroTuneModel for the learned
  // variant (see quickstart).
  core::OraclePredictor oracle;
  core::MultiQueryOptimizer optimizer(&oracle);

  const std::vector<dsp::QueryPlan> queries = {
      MakePipeline("dashboard", 2000, 0.9),     // light
      MakePipeline("clickstream", 150000, 0.6),  // medium
      MakePipeline("telemetry", 1500000, 0.8),   // heavy
  };
  const dsp::Cluster cluster = dsp::Cluster::Homogeneous("rs6525", 6).value();
  std::cout << "Cluster: " << cluster.num_nodes() << " x rs6525 ("
            << cluster.TotalCores() << " cores total)\n\n";

  const auto assignment = optimizer.Tune(queries, cluster).value();

  sim::CostParams noiseless;
  noiseless.noise_sigma = 0.0;
  const sim::CostEngine engine(noiseless);

  TextTable table({"Query", "Nodes", "Degrees", "Pred latency ms",
                   "Meas latency ms", "Meas tput/s"});
  const char* names[] = {"dashboard", "clickstream", "telemetry"};
  for (size_t i = 0; i < assignment.queries.size(); ++i) {
    const auto& qa = assignment.queries[i];
    std::string degrees;
    for (int d : qa.plan.ParallelismVector()) {
      if (!degrees.empty()) degrees += ",";
      degrees += std::to_string(d);
    }
    const auto measured = engine.MeasureNoiseless(qa.plan).value();
    table.AddRow({names[i], std::to_string(qa.node_indices.size()), degrees,
                  TextTable::Fmt(qa.predicted.latency_ms, 1),
                  TextTable::Fmt(measured.latency_ms, 1),
                  TextTable::Fmt(measured.throughput_tps, 0)});
  }
  table.Print(std::cout);

  std::cout << "\nDOT rendering of the heavy query's deployment (pipe into "
               "`dot -Tpng`):\n\n"
            << dsp::DotExport::ParallelPlanDot(
                   assignment.queries.back().plan);
  return 0;
}
