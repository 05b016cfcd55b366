// Spike detection (DSPBench / Intel-lab): deploy the benchmark query on
// unseen hardware, compare parallelism recommendations from a trained
// ZeroTune model, the greedy heuristic, and the Dhalion-style controller,
// then validate every choice on the discrete-event simulator.
//
// Run:  ./spike_detection
#include <iostream>

#include "baselines/dhalion.h"
#include "baselines/greedy.h"
#include "common/table.h"
#include "core/dataset_builder.h"
#include "core/enumeration.h"
#include "core/optimizer.h"
#include "core/trainer.h"
#include "sim/event_simulator.h"
#include "workload/benchmarks.h"

using namespace zerotune;

int main() {
  Rng rng(2024);

  // The benchmark query is *unseen*: the model below trains only on the
  // synthetic linear/2-way/3-way structures of Table III.
  workload::BenchmarkQueries::Options bench_opts;
  bench_opts.event_rate = 8000.0;
  const auto g =
      workload::BenchmarkQueries::SpikeDetection(bench_opts, &rng).value();
  std::cout << "Spike detection query:\n" << g.plan.DebugString() << "\n";
  std::cout << "Deployed on " << g.cluster.num_nodes()
            << " unseen-type nodes (" << g.cluster.node(0).type_name
            << ", ...)\n\n";

  std::cout << "Training ZeroTune on synthetic workloads only...\n";
  core::OptiSampleEnumerator enumerator;
  core::DatasetBuilderOptions build_opts;
  build_opts.count = 800;
  build_opts.seed = 9;
  ThreadPool pool;
  build_opts.pool = &pool;
  const auto corpus = core::BuildDataset(enumerator, build_opts).value();
  workload::Dataset train, val, test;
  ZT_CHECK_OK(corpus.Split(0.85, 0.15, &rng, &train, &val, &test));

  core::ModelConfig config;
  config.hidden_dim = 32;
  core::ZeroTuneModel model(config);
  core::TrainOptions topts;
  topts.epochs = 40;
  topts.pool = &pool;
  core::Trainer(&model, topts).Train(train, val).value();

  // Tune with each approach.
  sim::CostParams noiseless;
  noiseless.noise_sigma = 0.0;
  sim::CostEngine engine(noiseless);

  core::ParallelismOptimizer optimizer(&model);
  const auto zerotune_plan = optimizer.Tune(g.plan, g.cluster).value().plan;

  baselines::GreedyHeuristicTuner greedy;
  const auto greedy_plan = greedy.Tune(g.plan, g.cluster).value();

  baselines::DhalionTuner dhalion;
  const auto dhalion_outcome =
      dhalion.Tune(g.plan, g.cluster, engine).value();

  // Validate all three on the per-tuple discrete-event simulator.
  sim::EventSimulator::Options sim_opts;
  sim_opts.duration_s = 3.0;
  sim_opts.warmup_s = 1.0;
  sim::EventSimulator des(sim_opts);

  TextTable table({"Tuner", "Degrees (per op)", "DES latency ms",
                   "DES throughput/s", "Executions needed"});
  auto report = [&](const std::string& name,
                    const dsp::ParallelQueryPlan& plan, int executions) {
    const auto m = des.Run(plan).value();
    std::string degrees;
    for (int d : plan.ParallelismVector()) {
      if (!degrees.empty()) degrees += ",";
      degrees += std::to_string(d);
    }
    table.AddRow({name, degrees, TextTable::Fmt(m.mean_latency_ms),
                  TextTable::Fmt(m.throughput_tps, 0),
                  std::to_string(executions)});
  };
  report("ZeroTune", zerotune_plan, 0);  // zero-shot: no trial deployments
  report("Greedy", greedy_plan, 0);
  report("Dhalion", dhalion_outcome.plan, dhalion_outcome.executions);
  table.Print(std::cout);

  std::cout << "\nZeroTune picked the degrees without ever deploying the "
               "benchmark query — Dhalion needed "
            << dhalion_outcome.executions << " trial executions.\n";
  return 0;
}
