// Google-benchmark microbenchmarks for the library's hot paths: graph
// encoding, GNN inference, analytical cost measurement, discrete-event
// simulation, and optimizer search.
//
// Two modes:
//   bench_micro_perf               google-benchmark suite (human-readable)
//   bench_micro_perf --trajectory  JSON perf trajectory on stdout, committed
//                                  as bench/BENCH_micro_perf.json via
//                                  scripts/bench_micro_perf.sh
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cost_predictor.h"
#include "core/model.h"
#include "core/optimizer.h"
#include "core/oracle_predictor.h"
#include "core/plan_graph.h"
#include "nn/kernels.h"
#include "nn/quantized.h"
#include "sim/cost_engine.h"
#include "sim/event_simulator.h"
#include "workload/generator.h"

namespace {

using namespace zerotune;

dsp::ParallelQueryPlan MakePlan(workload::QueryStructure structure,
                                int degree) {
  workload::QueryGenerator gen({}, 99);
  auto g = gen.Generate(structure).value();
  dsp::ParallelQueryPlan plan(std::move(g.plan), std::move(g.cluster));
  ZT_CHECK_OK(plan.SetUniformParallelism(degree));
  ZT_CHECK_OK(plan.PlaceRoundRobin());
  return plan;
}

void BM_BuildPlanGraph(benchmark::State& state) {
  const auto plan = MakePlan(workload::QueryStructure::kThreeWayJoin,
                             static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BuildPlanGraph(plan));
  }
}
BENCHMARK(BM_BuildPlanGraph)->Arg(1)->Arg(8)->Arg(16);

void BM_ModelForward(benchmark::State& state) {
  core::ModelConfig cfg;
  cfg.hidden_dim = static_cast<size_t>(state.range(0));
  core::ZeroTuneModel model(cfg);
  const auto plan = MakePlan(workload::QueryStructure::kThreeWayJoin, 8);
  const auto graph = core::BuildPlanGraph(plan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forward(graph));
  }
}
BENCHMARK(BM_ModelForward)->Arg(24)->Arg(48)->Arg(96)->MinWarmUpTime(0.1);

void BM_CostEngineMeasure(benchmark::State& state) {
  const sim::CostEngine engine;
  const auto plan = MakePlan(workload::QueryStructure::kThreeWayJoin,
                             static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Measure(plan));
  }
}
BENCHMARK(BM_CostEngineMeasure)->Arg(1)->Arg(16);

void BM_EventSimulator(benchmark::State& state) {
  sim::EventSimulator::Options opts;
  opts.duration_s = 0.5;
  opts.warmup_s = 0.1;
  const sim::EventSimulator sim(opts);
  workload::QueryGenerator::Options gopts;
  gopts.overrides.event_rate = 2000.0;
  workload::QueryGenerator gen(gopts, 7);
  auto g = gen.Generate(workload::QueryStructure::kLinear).value();
  dsp::ParallelQueryPlan plan(std::move(g.plan), std::move(g.cluster));
  ZT_CHECK_OK(plan.SetUniformParallelism(2));
  ZT_CHECK_OK(plan.PlaceRoundRobin());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Run(plan));
  }
}
BENCHMARK(BM_EventSimulator);

/// Distinct parallelism candidates of one generated query — the
/// optimizer's scoring workload. Degrees vary combinatorially per
/// operator so no two candidates are identical; what the batched path
/// amortizes is the shared topology, cluster, and per-operator encodings.
std::vector<dsp::ParallelQueryPlan> CandidateSet(size_t n) {
  workload::QueryGenerator gen({}, 99);
  auto g = gen.Generate(workload::QueryStructure::kThreeWayJoin).value();
  std::vector<int> inner;
  for (const auto& op : g.plan.operators()) {
    if (op.type != dsp::OperatorType::kSource &&
        op.type != dsp::OperatorType::kSink) {
      inner.push_back(op.id);
    }
  }
  std::vector<dsp::ParallelQueryPlan> plans;
  for (size_t i = 0; plans.size() < n && i < 100 * n; ++i) {
    dsp::ParallelQueryPlan plan(g.plan, g.cluster);
    bool ok = true;
    size_t x = i;
    for (int id : inner) {
      ok = ok && plan.SetParallelism(id, 1 + static_cast<int>(x % 4)).ok();
      x /= 4;
    }
    if (!ok) continue;
    plan.DerivePartitioning();
    if (!plan.PlaceRoundRobin().ok() || !plan.Validate().ok()) continue;
    plans.push_back(std::move(plan));
  }
  return plans;
}

void BM_PredictSequential(benchmark::State& state) {
  core::ZeroTuneModel model;
  const auto plans = CandidateSet(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (const auto& p : plans) {
      benchmark::DoNotOptimize(model.Predict(p));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plans.size()));
}
BENCHMARK(BM_PredictSequential)->Arg(32)->Arg(128)->MinWarmUpTime(0.1);

void BM_PredictBatched(benchmark::State& state) {
  core::ZeroTuneModel model;
  const auto plans = CandidateSet(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::PredictBatch(model, plans));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plans.size()));
}
// Wall time, not the calling thread's CPU time: the pooled variant below
// does most of its work on pool threads, so CPU-time rates would overstate
// it. 12 plans is Tune's batch size in the benchmark of record.
BENCHMARK(BM_PredictBatched)
    ->Arg(12)
    ->Arg(32)
    ->Arg(128)
    ->UseRealTime()
    ->MinWarmUpTime(0.1);

void BM_PredictBatchedPooled(benchmark::State& state) {
  core::ZeroTuneModel model;
  ThreadPool pool;
  model.set_thread_pool(&pool);
  const auto plans = CandidateSet(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::PredictBatch(model, plans));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plans.size()));
}
BENCHMARK(BM_PredictBatchedPooled)
    ->Arg(12)
    ->Arg(32)
    ->Arg(128)
    ->UseRealTime()
    ->MinWarmUpTime(0.1);

void BM_OptimizerTune(benchmark::State& state) {
  core::OraclePredictor oracle;
  core::ParallelismOptimizer optimizer(&oracle);
  workload::QueryGenerator gen({}, 13);
  const auto g = gen.Generate(workload::QueryStructure::kTwoWayJoin).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.Tune(g.plan, g.cluster));
  }
}
BENCHMARK(BM_OptimizerTune);

/// End-to-end Tune() against the real GNN at cluster scale: args are
/// (m510 nodes, prescreen on/off). 8/32/128 nodes = 64/256/1024 cores.
/// The analytical tier's value shows as the on/off gap widening with the
/// cluster (more candidates enumerated, same handful GNN-scored).
void BM_TuneEndToEnd(benchmark::State& state) {
  core::ZeroTuneModel model;
  workload::QueryGenerator::Options gen_opts;
  gen_opts.overrides.event_rate = 500000;
  workload::QueryGenerator gen(gen_opts, 0xf1);
  const auto g = gen.Generate(workload::QueryStructure::kLinear).value();
  const auto cluster =
      dsp::Cluster::Homogeneous("m510", static_cast<int>(state.range(0)))
          .value();
  core::ParallelismOptimizer::Options opts;
  opts.prescreen.enabled = state.range(1) != 0;
  core::ParallelismOptimizer optimizer(&model, opts);
  size_t gnn_scored = 0;
  for (auto _ : state) {
    const auto tuned = optimizer.Tune(g.plan, cluster);
    ZT_CHECK_OK(tuned.status());
    gnn_scored = tuned.value().candidates_evaluated;
    benchmark::DoNotOptimize(tuned);
  }
  state.counters["gnn_scored"] = static_cast<double>(gnn_scored);
}
BENCHMARK(BM_TuneEndToEnd)
    ->ArgsProduct({{8, 32, 128}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// --- committed perf trajectory (--trajectory) ------------------------
//
// Emits a JSON document with one row per (stage, variant): the encoder /
// message-passing / readout GNN blocks on a 128-row batch, and the
// end-to-end batched scoring path over 128 distinct candidates, each on
// the fp32 engine under the scalar and simd kernel implementations.
//
// Methodology (the committed numbers must be trustworthy):
//   - reps per sample are auto-calibrated so one sample spans at least a
//     few milliseconds (timer noise amortized away),
//   - warm-up samples run and are discarded before timing (caches, page
//     faults, branch predictors — no cold first iteration in the data),
//   - the reported value is the median of N samples, with the
//     interquartile range committed alongside as the spread.
// Timing uses the project Clock (ZT-S001), not raw std::chrono.

/// One timed configuration: median-of-N ns per operation plus spread.
struct TimingStats {
  double median_ns = 0.0;
  double p25_ns = 0.0;
  double p75_ns = 0.0;
  int reps = 0;
  int samples = 0;
};

double Percentile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

TimingStats MeasureNs(Clock* clock, const std::function<void()>& fn,
                      int warmup, int samples, int64_t min_sample_ns) {
  // Calibrate: double reps until one sample spans min_sample_ns.
  int reps = 1;
  for (;;) {
    const int64_t t0 = clock->NowNanos();
    for (int i = 0; i < reps; ++i) fn();
    if (clock->NowNanos() - t0 >= min_sample_ns) break;
    reps *= 2;
  }
  for (int w = 0; w < warmup; ++w) {
    for (int i = 0; i < reps; ++i) fn();
  }
  std::vector<double> per_op;
  per_op.reserve(static_cast<size_t>(samples));
  for (int s = 0; s < samples; ++s) {
    const int64_t t0 = clock->NowNanos();
    for (int i = 0; i < reps; ++i) fn();
    const int64_t elapsed = clock->NowNanos() - t0;
    per_op.push_back(static_cast<double>(elapsed) / reps);
  }
  std::sort(per_op.begin(), per_op.end());
  TimingStats t;
  t.median_ns = Percentile(per_op, 0.50);
  t.p25_ns = Percentile(per_op, 0.25);
  t.p75_ns = Percentile(per_op, 0.75);
  t.reps = reps;
  t.samples = samples;
  return t;
}

struct TrajectoryRow {
  std::string stage;
  std::string variant;  // scalar | simd
  std::string isa;      // ISA actually dispatched while timing
  double items = 1.0;   // batch rows (stages) or candidates (end-to-end)
  TimingStats t;
};

int RunTrajectory() {
  const bool fast = std::getenv("ZEROTUNE_BENCH_FAST") != nullptr;
  const int kWarmup = fast ? 1 : 3;
  const int kSamples = fast ? 5 : 15;
  const int64_t kMinSampleNs = fast ? 500'000 : 4'000'000;
  constexpr size_t kBatchRows = 128;
  constexpr size_t kCandidates = 128;

  Clock* clock = SystemClock::Default();
  core::ZeroTuneModel model;
  const core::ZeroTuneModel::GnnBlocks blocks = model.blocks();
  const auto plans = CandidateSet(kCandidates);
  ZT_CHECK_OK(core::PredictBatch(model, plans).status());

  // Stage inputs, narrowed to fp32 as the batch engine does. The encoder
  // sees real featurized operator rows (sparse one-hots matter to the
  // scalar GEMM's zero-skip); the deeper blocks see dense activations,
  // modeled here as Gaussian values.
  const core::PlanGraph graph = core::BuildPlanGraph(plans.front());
  const size_t enc_dim = blocks.op_encoder->in_features();
  nn::FloatBuffer enc_in(kBatchRows * enc_dim);
  for (size_t r = 0; r < kBatchRows; ++r) {
    const auto& row = graph.operator_features[r % graph.num_operators()];
    for (size_t c = 0; c < enc_dim; ++c) {
      enc_in[r * enc_dim + c] = static_cast<float>(row[c]);
    }
  }
  Rng rng(42);
  const auto gaussian_rows = [&rng](size_t cols) {
    nn::FloatBuffer in(kBatchRows * cols);
    for (float& v : in) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
    return in;
  };
  const nn::FloatBuffer mp_in =
      gaussian_rows(blocks.flow_update->in_features());
  const nn::FloatBuffer ro_in = gaussian_rows(blocks.readout->in_features());

  std::vector<TrajectoryRow> rows;
  const auto measure = [&](const char* stage, const char* variant,
                           bool force_scalar, double items,
                           const std::function<void()>& fn) {
    nn::kernels::ForceScalar(force_scalar);
    TrajectoryRow row;
    row.stage = stage;
    row.variant = variant;
    row.isa = nn::kernels::IsaName(nn::kernels::ActiveIsa());
    row.items = items;
    row.t = MeasureNs(clock, fn, kWarmup, kSamples, kMinSampleNs);
    nn::kernels::ForceScalar(false);
    rows.push_back(std::move(row));
    std::fprintf(stderr, "  %-16s %-6s %12.0f ns/op\n", stage, variant,
                 rows.back().t.median_ns);
  };

  struct StageDef {
    const char* name;
    const nn::Mlp* mlp;
    const nn::FloatBuffer* in;
  };
  const StageDef stages[] = {
      {"encoder", blocks.op_encoder, &enc_in},
      {"message_passing", blocks.flow_update, &mp_in},
      {"readout", blocks.readout, &ro_in},
  };
  nn::FloatBuffer stage_out;
  for (const StageDef& s : stages) {
    const nn::QuantizedMlp q = nn::QuantizedMlp::FromMlp(*s.mlp);
    const auto fwd = [&] {
      q.ForwardRows(s.in->data(), kBatchRows, &stage_out);
      benchmark::DoNotOptimize(stage_out.data());
      benchmark::ClobberMemory();
    };
    const double items = static_cast<double>(kBatchRows);
    measure(s.name, "scalar", /*force_scalar=*/true, items, fwd);
    measure(s.name, "simd", /*force_scalar=*/false, items, fwd);
  }

  // End-to-end batched scoring: featurization + dedup + all eight GNN
  // blocks + decode, over kCandidates distinct parallelism candidates.
  const auto e2e = [&] {
    benchmark::DoNotOptimize(core::PredictBatch(model, plans));
  };
  const double n_cand = static_cast<double>(plans.size());
  measure("predict_batch", "scalar", /*force_scalar=*/true, n_cand, e2e);
  measure("predict_batch", "simd", /*force_scalar=*/false, n_cand, e2e);

  const auto scalar_median = [&rows](const std::string& stage) {
    for (const TrajectoryRow& r : rows) {
      if (r.stage == stage && r.variant == "scalar") return r.t.median_ns;
    }
    return 0.0;
  };

  std::printf("{\n");
  std::printf("  \"benchmark\": \"micro_perf_trajectory\",\n");
  std::printf("  \"generated_by\": \"scripts/bench_micro_perf.sh\",\n");
  std::printf("  \"simd_compiled_in\": %s,\n",
              nn::kernels::SimdCompiledIn() ? "true" : "false");
  std::printf("  \"active_isa\": \"%s\",\n",
              nn::kernels::IsaName(nn::kernels::ActiveIsa()));
  std::printf("  \"hidden_dim\": %zu,\n", blocks.readout->in_features());
  std::printf("  \"batch_rows\": %zu,\n", kBatchRows);
  std::printf("  \"candidates\": %zu,\n", plans.size());
  std::printf("  \"warmup_samples\": %d,\n", kWarmup);
  std::printf("  \"timed_samples\": %d,\n", kSamples);
  std::printf("  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const TrajectoryRow& r = rows[i];
    const double base = scalar_median(r.stage);
    const double speedup = r.t.median_ns > 0.0 ? base / r.t.median_ns : 0.0;
    const double iqr_rel =
        r.t.median_ns > 0.0 ? (r.t.p75_ns - r.t.p25_ns) / r.t.median_ns : 0.0;
    std::printf(
        "    {\"stage\": \"%s\", \"variant\": \"%s\", \"isa\": \"%s\",\n"
        "     \"median_ns\": %.0f, \"p25_ns\": %.0f, \"p75_ns\": %.0f,\n"
        "     \"iqr_rel\": %.4f, \"reps_per_sample\": %d,\n"
        "     \"items_per_op\": %.0f, \"items_per_s\": %.1f,\n"
        "     \"speedup_vs_scalar\": %.2f}%s\n",
        r.stage.c_str(), r.variant.c_str(), r.isa.c_str(), r.t.median_ns,
        r.t.p25_ns, r.t.p75_ns, iqr_rel, r.t.reps, r.items,
        r.items * 1e9 / r.t.median_ns, speedup,
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--trajectory") return RunTrajectory();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
