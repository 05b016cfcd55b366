#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "analysis/plan_analyzer.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "common/thread_pool.h"
#include "core/enumeration.h"
#include "core/optimizer.h"
#include "core/oracle_predictor.h"
#include "core/search_space.h"
#include "core/trainer.h"
#include "layers.h"
#include "obs/trace.h"
#include "serve/adaptation/worker.h"
#include "serve/fleet/fleet.h"
#include "serve/fleet/hash_ring.h"
#include "sim/cost_engine.h"
#include "sim/ground_truth.h"

namespace zerotune::e2e {
namespace {

using serve::fleet::DeriveSeed;

// Input streams derived from --seed (MakeQuery's `stream`).
constexpr uint64_t kTuneStream = 1;
constexpr uint64_t kServeStream = 2;
constexpr uint64_t kFinetuneStream = 3;
constexpr uint64_t kHeldOutStream = 4;
constexpr uint64_t kCallerStream = 6;
constexpr uint64_t kDeployStream = 7;
constexpr uint64_t kTruthStream = 8;

// The quality inputs (error_ratio) come from this seed, not --seed: the
// same in every run, so a change in quality shows as a change of the value
// itself rather than hiding in the spread between seeds. The timed inputs
// come from --seed.
constexpr uint64_t kQualitySeed = 0;

// Chosen-plan quality is measured on this many queries, tuned untimed
// before the measured phase (which they also warm up).
constexpr size_t kQualityQueries = 512;

// Plans and tenants are drawn uniformly, as the CLI's serve-sim drill
// draws its plan variants and tenants; 100 tenants is the fleet example
// of its usage text. No measured trace gives a popularity skew, so the
// benchmark assumes none.
constexpr size_t kServePlans = 4096;
constexpr size_t kServeTenants = 100;
constexpr size_t kServeCallers = 2;
constexpr size_t kServePoolThreads = 2;
constexpr double kServeWarmupSeconds = 0.5;
constexpr double kServeSegmentSeconds = 0.5;

// A fine-tune's outcome depends on the drifted plans it trains on, so
// cycles rotate over several disjoint training sets and the reported
// quality is the geometric mean over them.
constexpr size_t kFinetuneSets = 4;
constexpr size_t kFinetunePlans = 256;  // per set
constexpr size_t kHeldOutPlans = 1024;
constexpr double kDriftFactor = 3.0;
constexpr size_t kFinetuneEpochs = 4;
constexpr size_t kMinFinetuneCycles = 3;

// Set-up, labelling and training share one pool of nproc = 4 threads.
constexpr size_t kPoolThreads = 4;
// Raw spans kept for --trace-out.
constexpr size_t kKeptSpans = 200000;
// Relative tolerance of the checks that compare two predictions of one
// plan.
constexpr double kRelTolerance = 1e-9;

obs::TraceRecorder* Recorder() { return obs::TraceRecorder::Global(); }

// Prints the first few failed checks of a run; the rest are only counted.
void ReportFailure(const RunConfig& cfg, const std::string& what,
                   const Status& status) {
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1) >= 5) return;
  std::fprintf(stderr, "zt_bench: %s seed %llu: check failed for %s: %s\n",
               cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
               what.c_str(), status.ToString().c_str());
}

double PerOp(double total, size_t ops) {
  return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// --- Metric catalogue -------------------------------------------------

// Times at reference speed (SpeedReference); the raw values go to stderr
// here and into the traced run's wall.* metrics.
void AddEndToEnd(const OpSamples& ops, size_t callers,
                 const SpeedReference& speed, double error_ratio,
                 SetupTime setup, RunResult* result) {
  const PhaseSummary raw = Summarize(ops, callers, nullptr);
  const PhaseSummary s = Summarize(ops, callers, &speed);
  std::fprintf(stderr,
               "zt_bench: %zu ops measured: p50 %.4f ms, p95 %.4f ms, %.4f "
               "ops/s as measured; reference %.4f ms\n",
               ops.size(), raw.p50, raw.p95, raw.ops_per_s, speed.MedianMs());
  result->metrics = {
      {"op_ms_p50", s.p50, "ms"},
      {"op_ms_p95", s.p95, "ms"},
      {"ops_per_s", s.ops_per_s, "1/s"},
      {"error_ratio", error_ratio, "ratio"},
      {"setup_s", setup.s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

// Spans the batch engine records under batch_inference/ (besides the
// enclosing batch_inference/predict, whose self time is unattributed).
const std::vector<std::string>& BatchStages() {
  static const std::vector<std::string> kStages = {
      "validate",        "featurize",      "intern",        "encode",
      "dedup",           "group",          "resource_state", "mp_plan",
      "message_passing", "mp_flow",        "mp_map_message", "mp_map_update",
      "mp_flow2",        "mp_mlp",         "readout"};
  return kStages;
}

const std::vector<std::string>& OptimizerSpans() {
  static const std::vector<std::string> kSpans = {
      "tune", "enumerate", "prescreen_calibrate", "prescreen_rank",
      "hill_climb_round"};
  return kSpans;
}

// Every per-layer metric, in print order, zero until a workload sets it:
// a layer the workload leaves idle reads 0. Times and counts are per op
// (Tune call, served answer or fine-tune cycle) unless the name says
// otherwise.
class LayerMetrics {
 public:
  LayerMetrics() {
    Add("batch_inference.ms", "ms");
    Add("batch_inference.us_per_plan", "us");
    Add("batch_inference.calls", "count");
    Add("batch_inference.plans_per_call", "count");
    Add("batch_inference.plans", "count");
    Add("batch_inference.unique_plan_ratio", "ratio");
    Add("batch_inference.op_rows", "count");
    Add("batch_inference.op_row_ratio", "ratio");
    Add("batch_inference.res_rows", "count");
    Add("batch_inference.res_row_ratio", "ratio");
    for (const std::string& stage : BatchStages()) {
      Add("span.batch_inference." + stage + ".self_ms", "ms");
    }
    Add("batch_inference.unattributed_ms", "ms");
    Add("batch_inference.span_coverage", "ratio");
    Add("model.predict_ms", "ms");
    Add("model.calls", "count");
    Add("optimizer.tune_ms", "ms");
    Add("optimizer.self_ms", "ms");
    Add("optimizer.candidates_evaluated", "count");
    Add("optimizer.candidates_rejected", "count");
    Add("optimizer.rejected_ratio", "ratio");
    Add("optimizer.candidates_prescreened", "count");
    Add("optimizer.prescreen_kept_ratio", "ratio");
    for (const std::string& span : OptimizerSpans()) {
      Add("span.optimizer." + span + ".self_ms", "ms");
    }
    Add("search_space.enumerate_us", "us");
    Add("search_space.candidates", "count");
    Add("fleet.answer_ms", "ms");
    Add("fleet.self_ms", "ms");
    Add("serve.cpu_us_per_req", "us");
    Add("fleet.requests", "count");
    Add("serve.repeat_ratio", "ratio");
    Add("fleet.hedge_ratio", "ratio");
    Add("fleet.hedges", "count");
    Add("fleet.hedge_win_ratio", "ratio");
    Add("fleet.failovers", "count");
    Add("fleet.shed", "count");
    Add("span.serve.execute.self_ms", "ms");
    Add("trainer.epoch_ms", "ms");
    Add("trainer.samples_per_s", "1/s");
    Add("trainer.nonfinite_batches", "count");
    Add("trainer.recoveries", "count");
    Add("span.trainer.train.self_ms", "ms");
    Add("span.trainer.epoch.self_ms", "ms");
    Add("reference.ms", "ms");
    Add("wall.op_ms_p50", "ms");
    Add("wall.op_ms_p95", "ms");
    Add("wall.ops_per_s", "1/s");
    Add("wall.setup_s", "s");
    Add("trace.ops", "count");
    Add("trace.overhead_ratio", "ratio");
    Add("trace.spans_per_op", "count");
    Add("trace.dropped", "count");
  }

  void Set(const std::string& name, double value) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    std::fprintf(stderr, "zt_bench: unknown layer metric %s\n", name.c_str());
    std::abort();
  }

  // Trace bookkeeping shared by every workload; `ops` is the base of
  // every per-op value.
  void SetTrace(const SpanFolder& folder, size_t ops, double traced_mean_ms,
                double untraced_mean_ms) {
    Set("trace.ops", static_cast<double>(ops));
    Set("trace.overhead_ratio", Ratio(traced_mean_ms, untraced_mean_ms));
    Set("trace.spans_per_op", PerOp(static_cast<double>(folder.spans()), ops));
    Set("trace.dropped", static_cast<double>(folder.dropped()));
  }

  // The machine: the reference, and the end-to-end times of the untraced
  // phase and of set-up as measured, before scaling to reference speed.
  void SetMachine(const SpeedReference& speed, const OpSamples& untraced,
                  size_t callers, SetupTime setup) {
    const PhaseSummary wall = Summarize(untraced, callers, nullptr);
    Set("reference.ms", speed.MedianMs());
    Set("wall.op_ms_p50", wall.p50);
    Set("wall.op_ms_p95", wall.p95);
    Set("wall.ops_per_s", wall.ops_per_s);
    Set("wall.setup_s", setup.wall_s);
  }

  // Model and batch-engine metrics from the probes and the engine's own
  // spans, per op.
  void SetModelLayers(const LayerCounters& c, const SpanFolder& folder,
                      size_t ops) {
    const double batch_ms = static_cast<double>(c.batch_nanos.load()) / 1e6;
    const double plans = static_cast<double>(c.batch_plans.load());
    const double op_rows = static_cast<double>(c.op_rows_total.load());
    const double res_rows = static_cast<double>(c.res_rows_total.load());
    Set("batch_inference.ms", PerOp(batch_ms, ops));
    Set("batch_inference.us_per_plan", Ratio(batch_ms * 1e3, plans));
    Set("batch_inference.calls",
        PerOp(static_cast<double>(c.batch_calls.load()), ops));
    Set("batch_inference.plans_per_call",
        Ratio(plans, static_cast<double>(c.batch_calls.load())));
    Set("batch_inference.plans", PerOp(plans, ops));
    Set("batch_inference.unique_plan_ratio",
        Ratio(static_cast<double>(c.unique_plans.load()), plans));
    Set("batch_inference.op_rows", PerOp(op_rows, ops));
    Set("batch_inference.op_row_ratio",
        Ratio(static_cast<double>(c.op_rows_encoded.load()), op_rows));
    Set("batch_inference.res_rows", PerOp(res_rows, ops));
    Set("batch_inference.res_row_ratio",
        Ratio(static_cast<double>(c.res_rows_encoded.load()), res_rows));
    double staged_ms = 0.0;
    for (const std::string& stage : BatchStages()) {
      const double ms = folder.SelfMs("batch_inference/" + stage);
      staged_ms += ms;
      Set("span.batch_inference." + stage + ".self_ms", PerOp(ms, ops));
    }
    Set("batch_inference.unattributed_ms", PerOp(batch_ms - staged_ms, ops));
    Set("batch_inference.span_coverage", Ratio(staged_ms, batch_ms));
    Set("model.predict_ms",
        PerOp(static_cast<double>(c.predict_nanos.load()) / 1e6, ops));
    Set("model.calls", PerOp(static_cast<double>(c.predict_calls.load()), ops));
  }

  std::vector<Metric> Take() { return std::move(metrics_); }

 private:
  void Add(std::string name, std::string unit) {
    metrics_.push_back(Metric{std::move(name), 0.0, std::move(unit)});
  }

  std::vector<Metric> metrics_;
};

// Writes the traced phase's kept spans when --trace-out is given.
Status ExportTrace(const RunConfig& cfg, const SpanFolder& folder) {
  return cfg.trace_out.empty() ? Status::OK()
                               : folder.WriteChromeJson(cfg.trace_out);
}

// Phase lengths of a traced run: a third untraced (overhead baseline),
// the rest traced.
double UntracedSeconds(const RunConfig& cfg) { return cfg.seconds / 3.0; }
double TracedSeconds(const RunConfig& cfg) { return cfg.seconds * 2.0 / 3.0; }

// --- tune-grid / tune-prescreen ---------------------------------------

// The optimizer's search score (weight 0.5) on noiseless ground truth:
// 0.5 log latency - 0.5 log throughput.
Result<double> TrueScore(const sim::CostEngine& engine,
                         const dsp::ParallelQueryPlan& plan) {
  ZT_ASSIGN_OR_RETURN(const sim::CostMeasurement m,
                      engine.MeasureNoiseless(plan));
  return 0.5 * std::log(std::max(m.latency_ms, 1e-6)) -
         0.5 * std::log(std::max(m.throughput_tps, 1e-6));
}

// Regret of a chosen plan: exp(true score - best true score among the
// statically valid candidates of the default grid). 1 means as good as
// the best grid plan; below 1, hill climbing beat the grid.
Result<double> Regret(const sim::CostEngine& engine,
                      const workload::GeneratedQuery& query,
                      const dsp::ParallelQueryPlan& chosen) {
  ZT_ASSIGN_OR_RETURN(const double score, TrueScore(engine, chosen));
  ZT_ASSIGN_OR_RETURN(
      const std::vector<core::PlanCandidate> grid,
      core::GridSearchSpace().Enumerate(query.plan, query.cluster));
  double best = INFINITY;
  for (const core::PlanCandidate& c : grid) {
    dsp::ParallelQueryPlan plan(query.plan, query.cluster);
    bool placed = c.degrees.size() == query.plan.num_operators();
    for (const dsp::Operator& op : query.plan.operators()) {
      placed = placed &&
               plan.SetParallelism(op.id, c.degrees[static_cast<size_t>(op.id)])
                   .ok();
    }
    if (!placed) continue;
    plan.DerivePartitioning();
    if (!plan.PlaceRoundRobin().ok() ||
        !analysis::PlanAnalyzer::Check(plan).ok()) {
      continue;
    }
    const Result<double> s = TrueScore(engine, plan);
    if (s.ok()) best = std::min(best, s.value());
  }
  if (!std::isfinite(best)) {
    return Status::Internal("no valid grid candidate for " + Describe(query));
  }
  return std::exp(score - best);
}

// Tune succeeded, the chosen plan passes the static analyzer, and its
// reported prediction equals a fresh Predict of that plan.
Status CheckTuned(
    const core::ZeroTuneModel& model,
    const Result<core::ParallelismOptimizer::TuningResult>& tuned) {
  ZT_RETURN_IF_ERROR(tuned.status());
  const core::ParallelismOptimizer::TuningResult& r = tuned.value();
  ZT_RETURN_IF_ERROR(analysis::PlanAnalyzer::Check(r.plan));
  ZT_ASSIGN_OR_RETURN(const core::CostPrediction fresh, model.Predict(r.plan));
  if (!NearlyEqual(fresh.latency_ms, r.predicted.latency_ms, kRelTolerance) ||
      !NearlyEqual(fresh.throughput_tps, r.predicted.throughput_tps,
                   kRelTolerance)) {
    return Status::Internal("TuningResult.predicted differs from Predict()");
  }
  return Status::OK();
}

struct TuneStats {
  OpSamples ops;
  std::vector<double> regrets;
  uint64_t evaluated = 0;
  uint64_t rejected = 0;
  uint64_t prescreened = 0;
  uint64_t kept = 0;
};

// Closed loop, one tuner: Tune query i of (`seed`, kTuneStream) for
// i = 0, 1, ... until `seconds` have passed and at least `min_ops` ran.
// With `quality`, every chosen plan's regret is recorded. With `folder`,
// the spans of each Tune are folded right after it returns. With `speed`,
// the reference is sampled between Tune calls, when no library code runs.
Status RunTunePhase(const RunConfig& cfg, uint64_t seed,
                    const core::ZeroTuneModel& model,
                    const core::ParallelismOptimizer& optimizer,
                    double seconds, size_t min_ops, bool quality,
                    Watchdog* dog, SpanFolder* folder, SpeedReference* speed,
                    RunResult* result, TuneStats* stats) {
  const sim::CostEngine engine;
  const int64_t end = NowNanos() + static_cast<int64_t>(seconds * 1e9);
  if (speed != nullptr) speed->Sample();
  for (uint64_t i = 0; i < min_ops || NowNanos() < end; ++i) {
    ZT_ASSIGN_OR_RETURN(const workload::GeneratedQuery query,
                        MakeQuery(seed, kTuneStream, i));
    const std::string what = "query " + std::to_string(i) + " of seed " +
                             std::to_string(seed) + ": " + Describe(query);
    dog->Begin(0, i, what);
    const int64_t t0 = NowNanos();
    const Result<core::ParallelismOptimizer::TuningResult> tuned =
        optimizer.Tune(query.plan, query.cluster);
    stats->ops.Add(t0, NowNanos());
    dog->End(0);
    if (folder != nullptr) folder->Drain(Recorder());
    if (speed != nullptr) speed->CatchUp();

    const Status check = CheckTuned(model, tuned);
    result->Count(check.ok());
    if (!check.ok()) {
      ReportFailure(cfg, what, check);
      continue;
    }
    const core::ParallelismOptimizer::TuningResult& r = tuned.value();
    stats->evaluated += r.candidates_evaluated;
    stats->rejected += r.candidates_rejected;
    stats->prescreened += r.candidates_prescreened;
    stats->kept += r.prescreen_kept;
    if (quality) {
      ZT_ASSIGN_OR_RETURN(const double regret, Regret(engine, query, r.plan));
      stats->regrets.push_back(regret);
    }
  }
  return Status::OK();
}

Status RunTune(const RunConfig& cfg, const core::ZeroTuneModel& model,
               bool prescreen, SetupTime setup, RunResult* result) {
  // As `zerotune tune` runs: default options, no model thread pool.
  core::ParallelismOptimizer::Options options;
  options.prescreen.enabled = prescreen;
  const core::ParallelismOptimizer optimizer(&model, options);
  Watchdog dog(cfg.workload + " seed " + std::to_string(cfg.seed),
               cfg.op_timeout_s, 1);

  // Untimed: the quality queries, which also warm up.
  TuneStats quality;
  ZT_RETURN_IF_ERROR(RunTunePhase(cfg, kQualitySeed, model, optimizer, 0.0,
                                  kQualityQueries, true, &dog, nullptr,
                                  nullptr, result, &quality));
  SpeedReference speed;
  if (!cfg.trace) {
    TuneStats stats;
    ZT_RETURN_IF_ERROR(RunTunePhase(cfg, cfg.seed, model, optimizer,
                                    cfg.seconds, 1, false, &dog, nullptr,
                                    &speed, result, &stats));
    AddEndToEnd(stats.ops, 1, speed, GeometricMean(quality.regrets), setup,
                result);
    return Status::OK();
  }

  TuneStats base;
  ZT_RETURN_IF_ERROR(RunTunePhase(cfg, cfg.seed, model, optimizer,
                                  UntracedSeconds(cfg), 1, false, &dog,
                                  nullptr, &speed, result, &base));
  LayerCounters counters;
  core::GridSearchSpace::Options grid_options;
  grid_options.max_parallelism = options.max_parallelism;
  const core::GridSearchSpace grid(grid_options);
  const TimedSearchSpace space(&grid, &counters);
  const ProbedPredictor probe(&model, &counters);
  core::ParallelismOptimizer::Options traced_options = options;
  traced_options.search_space = &space;
  const core::ParallelismOptimizer traced(&probe, traced_options);
  SpanFolder folder(kKeptSpans);
  Recorder()->Clear();
  Recorder()->Enable();
  TuneStats stats;
  const Status run = RunTunePhase(cfg, cfg.seed, model, traced,
                                  TracedSeconds(cfg), 1, false, &dog, &folder,
                                  &speed, result, &stats);
  Recorder()->Disable();
  folder.Drain(Recorder());
  ZT_RETURN_IF_ERROR(run);

  const size_t ops = stats.ops.size();
  const double tune_ms = Mean(stats.ops.ms);
  // Both phases tune the same stream from query 0, so the overhead is
  // compared on the queries both ran: the mix of structures and cluster
  // sizes differs between prefixes of different length.
  const size_t matched = std::min(ops, base.ops.size());
  const auto prefix_mean = [matched](const std::vector<double>& ms) {
    return Mean(std::vector<double>(ms.begin(), ms.begin() + matched));
  };
  LayerMetrics layers;
  layers.SetTrace(folder, ops, prefix_mean(stats.ops.ms),
                  prefix_mean(base.ops.ms));
  layers.SetMachine(speed, base.ops, 1, setup);
  layers.SetModelLayers(counters, folder, ops);
  const double enumerate_ms =
      PerOp(static_cast<double>(counters.enumerate_nanos.load()) / 1e6, ops);
  const double batch_ms =
      PerOp(static_cast<double>(counters.batch_nanos.load()) / 1e6, ops);
  const double predict_ms =
      PerOp(static_cast<double>(counters.predict_nanos.load()) / 1e6, ops);
  layers.Set("search_space.enumerate_us", enumerate_ms * 1e3);
  layers.Set("search_space.candidates",
             PerOp(static_cast<double>(counters.enumerate_candidates.load()),
                   ops));
  layers.Set("optimizer.tune_ms", tune_ms);
  layers.Set("optimizer.self_ms",
             tune_ms - enumerate_ms - batch_ms - predict_ms);
  layers.Set("optimizer.candidates_evaluated",
             PerOp(static_cast<double>(stats.evaluated), ops));
  layers.Set("optimizer.candidates_rejected",
             PerOp(static_cast<double>(stats.rejected), ops));
  layers.Set("optimizer.rejected_ratio",
             Ratio(static_cast<double>(stats.rejected),
                   static_cast<double>(stats.evaluated + stats.rejected)));
  layers.Set("optimizer.candidates_prescreened",
             PerOp(static_cast<double>(stats.prescreened), ops));
  layers.Set("optimizer.prescreen_kept_ratio",
             Ratio(static_cast<double>(stats.kept),
                   static_cast<double>(stats.prescreened)));
  for (const std::string& span : OptimizerSpans()) {
    layers.Set("span.optimizer." + span + ".self_ms",
               PerOp(folder.SelfMs("optimizer/" + span), ops));
  }
  result->metrics = layers.Take();
  return ExportTrace(cfg, folder);
}

// --- serve-closed -------------------------------------------------------

// The deployed plans requests draw from, with the answers and noiseless
// truth computed before any traffic.
struct ServeInputs {
  std::vector<dsp::ParallelQueryPlan> plans;
  std::vector<core::CostPrediction> expected;
  std::vector<std::string> what;
  std::vector<std::string> tenants;
  double qerror_p50 = 0.0;
};

// Query `index` of `stream`, deployed by OptiSample (seen-range scale
// factors) and placed round-robin.
Result<dsp::ParallelQueryPlan> DeployQuery(uint64_t seed, uint64_t stream,
                                           uint64_t index, std::string* what) {
  ZT_ASSIGN_OR_RETURN(workload::GeneratedQuery query,
                      MakeQuery(seed, stream, index));
  *what = Describe(query);
  dsp::ParallelQueryPlan plan(std::move(query.plan), std::move(query.cluster));
  Rng rng(
      DeriveSeed(DeriveSeed(seed, kDeployStream), stream * 1000003 + index));
  ZT_RETURN_IF_ERROR(core::OptiSampleEnumerator().Assign(&plan, &rng));
  return plan;
}

Result<ServeInputs> MakeServeInputs(uint64_t seed,
                                    const core::ZeroTuneModel& model,
                                    ThreadPool* pool) {
  ServeInputs in;
  std::vector<Result<dsp::ParallelQueryPlan>> plans(
      kServePlans, Status::Internal("not built"));
  in.what.resize(kServePlans);
  in.expected.resize(kServePlans);
  std::vector<double> qerrors(kServePlans, 0.0);
  std::vector<Status> status(kServePlans);
  const sim::CostEngine engine;
  ParallelFor(pool, kServePlans, [&](size_t k) {
    std::string what;
    plans[k] = DeployQuery(seed, kServeStream, k, &what);
    in.what[k] = "plan " + std::to_string(k) + ": " + what;
    if (!plans[k].ok()) {
      status[k] = plans[k].status();
      return;
    }
    const Result<core::CostPrediction> predicted =
        model.Predict(plans[k].value());
    const Result<sim::CostMeasurement> truth =
        engine.MeasureNoiseless(plans[k].value());
    if (!predicted.ok() || !truth.ok()) {
      status[k] = !predicted.ok() ? predicted.status() : truth.status();
      return;
    }
    in.expected[k] = predicted.value();
    qerrors[k] = QError(truth.value().latency_ms, predicted.value().latency_ms);
  });
  for (size_t k = 0; k < kServePlans; ++k) {
    if (!status[k].ok()) return status[k].Annotated(in.what[k]);
    in.plans.push_back(std::move(plans[k]).value());
  }
  for (size_t t = 0; t < kServeTenants; ++t) {
    in.tenants.push_back(std::string("t").append(std::to_string(t)));
  }
  in.qerror_p50 = Median(qerrors);
  return in;
}

struct ServePhase {
  OpSamples ops;  // answered requests, both callers
  uint64_t sent = 0;
  uint64_t distinct_plans = 0;  // among the requests sent
  double cpu_s = 0.0;
};

// Both callers in a closed loop for `seconds`: draw a plan and a tenant
// uniformly, send, check the answer. The phase runs in segments of
// kServeSegmentSeconds; after each, both callers stop and the fleet's pool
// drains (hedge losers finish), and only then is the reference sampled, so
// no library code runs while it is timed.
void RunServeCallers(const RunConfig& cfg, const ServeInputs& in,
                     uint64_t phase, double seconds,
                     serve::fleet::PredictionFleet* fleet, ThreadPool* pool,
                     Watchdog* dog, SpeedReference* speed, RunResult* result,
                     ServePhase* out) {
  struct CallerOut {
    explicit CallerOut(uint64_t seed) : rng(seed) {}
    Rng rng;
    OpSamples ops;
    std::vector<bool> requested = std::vector<bool>(kServePlans, false);
    uint64_t sent = 0;
    uint64_t failed = 0;
  };
  std::vector<CallerOut> callers;
  for (size_t c = 0; c < kServeCallers; ++c) {
    callers.emplace_back(
        DeriveSeed(DeriveSeed(cfg.seed, kCallerStream), phase * 16 + c));
  }
  auto drive = [&](size_t c, int64_t end) {
    CallerOut& mine = callers[c];
    serve::fleet::FleetRequest request;
    while (NowNanos() < end) {
      const auto k = static_cast<size_t>(
          mine.rng.UniformInt(0, static_cast<int64_t>(kServePlans) - 1));
      mine.requested[k] = true;
      request.plan = &in.plans[k];
      request.tenant = in.tenants[static_cast<size_t>(
          mine.rng.UniformInt(0, static_cast<int64_t>(kServeTenants) - 1))];
      dog->Begin(c, mine.sent, in.what[k]);
      const int64_t t0 = NowNanos();
      const Result<serve::fleet::FleetPrediction> answer =
          fleet->Predict(request);
      const int64_t t1 = NowNanos();
      dog->End(c);
      ++mine.sent;
      Status check = answer.status();
      if (check.ok() && answer.value().served.degraded) {
        check = Status::Internal("degraded answer");
      } else if (check.ok() &&
                 (!NearlyEqual(answer.value().served.cost.latency_ms,
                               in.expected[k].latency_ms, kRelTolerance) ||
                  !NearlyEqual(answer.value().served.cost.throughput_tps,
                               in.expected[k].throughput_tps,
                               kRelTolerance))) {
        check = Status::Internal("answer differs from set-up Predict()");
      }
      if (!check.ok()) {
        ++mine.failed;
        ReportFailure(cfg, in.what[k], check);
        continue;
      }
      mine.ops.Add(t0, t1);
    }
  };
  speed->CatchUp();
  const int64_t end = NowNanos() + static_cast<int64_t>(seconds * 1e9);
  for (int64_t now = NowNanos(); now < end; now = NowNanos()) {
    const int64_t segment_end = std::min(
        end, now + static_cast<int64_t>(kServeSegmentSeconds * 1e9));
    const double cpu0 = ProcessCpuSeconds();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kServeCallers; ++c) {
      threads.emplace_back(drive, c, segment_end);
    }
    for (std::thread& t : threads) t.join();
    pool->Wait();
    out->cpu_s += ProcessCpuSeconds() - cpu0;
    speed->CatchUp();
  }
  for (const CallerOut& c : callers) {
    out->ops.Append(c.ops);
    out->sent += c.sent;
    result->Count(c.sent, c.failed);
  }
  for (size_t k = 0; k < kServePlans; ++k) {
    bool requested = false;
    for (const CallerOut& c : callers) requested = requested || c.requested[k];
    out->distinct_plans += requested ? 1 : 0;
  }
}

// Share of the requests sent whose plan an earlier request of the phase
// already asked for: what a cache keyed on the plan could at best answer.
double RepeatRatio(const ServePhase& phase) {
  return Ratio(static_cast<double>(phase.sent - phase.distinct_plans),
               static_cast<double>(phase.sent));
}

// FleetStats ledger at quiescence: every request sent was received, and
// every received request is admitted or shed, then answered, expired or
// failed.
Status CheckLedger(const serve::fleet::FleetStats& s, uint64_t sent) {
  const uint64_t shed =
      s.shed_fleet_capacity + s.shed_tenant_quota + s.shed_fair_share;
  if (s.received != sent || s.received != s.admitted + shed ||
      s.admitted != s.answered + s.deadline_expired + s.failed) {
    return Status::Internal(
        "fleet ledger does not reconcile: sent " + std::to_string(sent) +
        ", received " + std::to_string(s.received) + ", admitted " +
        std::to_string(s.admitted) + ", shed " + std::to_string(shed) +
        ", answered " + std::to_string(s.answered) + ", expired " +
        std::to_string(s.deadline_expired) + ", failed " +
        std::to_string(s.failed));
  }
  return Status::OK();
}

// Builds a fleet (2 replicas, default options, 2-thread pool, oracle
// fallback) serving `factory`, runs `phases(fleet, pool)` on it, then
// quiesces and reconciles its ledger (one checked op).
template <typename Phases>
Status WithFleet(const RunConfig& cfg,
                 serve::fleet::PredictionFleet::PrimaryFactory factory,
                 RunResult* result, Phases phases,
                 serve::fleet::FleetStats* stats) {
  ThreadPool pool(kServePoolThreads);
  const core::OraclePredictor fallback;
  serve::fleet::FleetOptions options;
  options.initial_replicas = 2;
  serve::fleet::PredictionFleet fleet(std::move(factory), &fallback, options,
                                      &pool, nullptr);
  const uint64_t sent = phases(&fleet, &pool);
  pool.Wait();  // hedge losers still racing on the pool
  *stats = fleet.Snapshot();
  const Status ledger = CheckLedger(*stats, sent);
  result->Count(ledger.ok());
  if (!ledger.ok()) ReportFailure(cfg, "fleet ledger", ledger);
  return Status::OK();
}

Status RunServe(const RunConfig& cfg,
                std::shared_ptr<const core::ZeroTuneModel> model,
                ThreadPool* pool, SetupTime setup, RunResult* result) {
  // Quality: the median q-error over the plans of kQualitySeed.
  double qerror_p50 = 0.0;
  {
    ZT_ASSIGN_OR_RETURN(const ServeInputs quality,
                        MakeServeInputs(kQualitySeed, *model, pool));
    qerror_p50 = quality.qerror_p50;
  }
  ZT_ASSIGN_OR_RETURN(const ServeInputs in,
                      MakeServeInputs(cfg.seed, *model, pool));
  Watchdog dog(cfg.workload + " seed " + std::to_string(cfg.seed),
               cfg.op_timeout_s, kServeCallers);
  auto shared =
      [model](uint32_t) -> std::unique_ptr<const core::CostPredictor> {
    return std::make_unique<serve::adaptation::SharedModelPredictor>(model);
  };

  SpeedReference speed;
  ServePhase base;
  serve::fleet::FleetStats untraced_stats;
  ZT_RETURN_IF_ERROR(WithFleet(
      cfg, shared, result,
      [&](serve::fleet::PredictionFleet* fleet, ThreadPool* fleet_pool) {
        SpeedReference warmup_speed;
        ServePhase warmup;
        RunServeCallers(cfg, in, 0, kServeWarmupSeconds, fleet, fleet_pool,
                        &dog, &warmup_speed, result, &warmup);
        RunServeCallers(cfg, in, 1,
                        cfg.trace ? UntracedSeconds(cfg) : cfg.seconds, fleet,
                        fleet_pool, &dog, &speed, result, &base);
        return warmup.sent + base.sent;
      },
      &untraced_stats));
  std::fprintf(stderr,
               "zt_bench: %llu requests for %llu distinct plans (repeat "
               "ratio %.4f)\n",
               static_cast<unsigned long long>(base.sent),
               static_cast<unsigned long long>(base.distinct_plans),
               RepeatRatio(base));
  if (!cfg.trace) {
    AddEndToEnd(base.ops, kServeCallers, speed, qerror_p50, setup, result);
    return Status::OK();
  }

  LayerCounters counters;
  auto probed = [&](uint32_t) -> std::unique_ptr<const core::CostPredictor> {
    return std::make_unique<ProbedPredictor>(model.get(), &counters);
  };
  SpanFolder folder(kKeptSpans);
  ServePhase traced;
  serve::fleet::FleetStats stats;
  ZT_RETURN_IF_ERROR(WithFleet(
      cfg, probed, result,
      [&](serve::fleet::PredictionFleet* fleet, ThreadPool* fleet_pool) {
        Recorder()->Clear();
        Recorder()->Enable();
        RunServeCallers(cfg, in, 2, TracedSeconds(cfg), fleet, fleet_pool,
                        &dog, &speed, result, &traced);
        return traced.sent;
      },
      &stats));
  Recorder()->Disable();
  folder.Drain(Recorder());

  const size_t answers = traced.ops.size();
  const double answer_ms = Mean(traced.ops.ms);
  LayerMetrics layers;
  layers.SetTrace(folder, answers, answer_ms, Mean(base.ops.ms));
  layers.SetMachine(speed, base.ops, kServeCallers, setup);
  layers.SetModelLayers(counters, folder, answers);
  const double predict_ms =
      PerOp(static_cast<double>(counters.predict_nanos.load()) / 1e6, answers);
  layers.Set("fleet.answer_ms", answer_ms);
  layers.Set("fleet.self_ms", answer_ms - predict_ms);
  layers.Set("serve.cpu_us_per_req",
             Ratio(base.cpu_s * 1e6, static_cast<double>(base.ops.size())));
  layers.Set("fleet.requests", static_cast<double>(stats.received));
  layers.Set("serve.repeat_ratio", RepeatRatio(traced));
  layers.Set("fleet.hedge_ratio",
             Ratio(static_cast<double>(stats.hedges_sent),
                   static_cast<double>(stats.received)));
  layers.Set("fleet.hedges", static_cast<double>(stats.hedges_sent));
  layers.Set("fleet.hedge_win_ratio",
             Ratio(static_cast<double>(stats.hedges_won),
                   static_cast<double>(stats.hedges_sent)));
  layers.Set("fleet.failovers", static_cast<double>(stats.failovers));
  layers.Set("fleet.shed",
             static_cast<double>(stats.shed_fleet_capacity +
                                 stats.shed_tenant_quota +
                                 stats.shed_fair_share));
  layers.Set("span.serve.execute.self_ms",
             PerOp(folder.SelfMs("serve/execute"), answers));
  result->metrics = layers.Take();
  return ExportTrace(cfg, folder);
}

// --- finetune -----------------------------------------------------------

// Plans [first, first + count) of `stream`, deployed and labelled by the
// ground-truth stream in its drifted regime.
Result<workload::Dataset> DriftedPlans(uint64_t seed, uint64_t stream,
                                       size_t first, size_t count,
                                       const sim::GroundTruthStream& truth) {
  workload::Dataset out;
  for (size_t k = first; k < first + count; ++k) {
    std::string what;
    ZT_ASSIGN_OR_RETURN(dsp::ParallelQueryPlan plan,
                        DeployQuery(seed, stream, k, &what));
    ZT_ASSIGN_OR_RETURN(const sim::CostMeasurement m, truth.Measure(plan));
    const workload::QueryStructure structure =
        StreamStructures()[k % StreamStructures().size()];
    out.Add(workload::LabeledQuery(std::move(plan), m.latency_ms,
                                   m.throughput_tps, structure));
  }
  return out;
}

double MedianLatencyQError(const core::ZeroTuneModel& model,
                           const workload::Dataset& data) {
  std::vector<double> latency, throughput;
  core::Trainer::QErrors(model, data, &latency, &throughput);
  return Median(latency);
}

struct FinetuneStats {
  OpSamples ops;
  double epoch_seconds = 0.0;
  size_t epochs = 0;
  size_t samples = 0;
  uint64_t nonfinite = 0;
  uint64_t recoveries = 0;
};

// What the fine-tune cycles train on, and what they must reproduce.
struct FinetuneSets {
  std::vector<workload::Dataset> train;  // cycle i trains on train[i % size]
  std::vector<uint64_t> digests;         // per set, from its first cycle
  std::vector<std::unique_ptr<core::ZeroTuneModel>> last;  // per set
};

// kFinetuneSets disjoint training sets of drifted plans from `seed`, and,
// with `held_out`, kHeldOutPlans more to evaluate on; the ground truth's
// noise derives from `seed` as well.
Result<FinetuneSets> MakeFinetuneSets(uint64_t seed,
                                      workload::Dataset* held_out) {
  sim::GroundTruthOptions truth_options;
  truth_options.drift_factor = kDriftFactor;
  truth_options.noise_seed = DeriveSeed(seed, kTruthStream);
  sim::GroundTruthStream truth({}, truth_options);
  (void)truth.SetDrifted(true);
  FinetuneSets sets;
  for (size_t s = 0; s < kFinetuneSets; ++s) {
    ZT_ASSIGN_OR_RETURN(workload::Dataset train,
                        DriftedPlans(seed, kFinetuneStream, s * kFinetunePlans,
                                     kFinetunePlans, truth));
    sets.train.push_back(std::move(train));
  }
  sets.digests.assign(kFinetuneSets, 0);
  sets.last.resize(kFinetuneSets);
  if (held_out != nullptr) {
    ZT_ASSIGN_OR_RETURN(
        *held_out, DriftedPlans(seed, kHeldOutStream, 0, kHeldOutPlans, truth));
  }
  return sets;
}

// Closed loop of fine-tune cycles: reload the base weights (untimed),
// then Trainer::Train for 4 epochs on the next set of drifted plans.
// Every cycle must reproduce its set's digest (set by the set's first
// cycle ever run) and have no non-finite batch. With `speed`, the
// reference is sampled between cycles, when the pool is idle.
Status RunFinetunePhase(const RunConfig& cfg, const core::ZeroTuneModel& base,
                        ThreadPool* pool, double seconds, size_t min_ops,
                        Watchdog* dog, SpanFolder* folder,
                        SpeedReference* speed, RunResult* result,
                        FinetuneStats* stats, FinetuneSets* sets) {
  core::TrainOptions options;
  options.epochs = kFinetuneEpochs;
  options.patience = 0;
  options.fit_target_stats = false;
  options.pool = pool;
  const int64_t end = NowNanos() + static_cast<int64_t>(seconds * 1e9);
  if (speed != nullptr) speed->Sample();
  for (uint64_t i = 0; i < min_ops || NowNanos() < end; ++i) {
    const size_t set = i % sets->train.size();
    const workload::Dataset& train = sets->train[set];
    const std::string what = "fine-tune cycle on set " + std::to_string(set) +
                             ": " + std::to_string(train.size()) +
                             " drifted plans x " +
                             std::to_string(kFinetuneEpochs) + " epochs";
    ZT_ASSIGN_OR_RETURN(std::unique_ptr<core::ZeroTuneModel> model,
                        CloneModel(base));
    dog->Begin(0, i, what);
    const int64_t t0 = NowNanos();
    const Result<core::TrainReport> report =
        core::Trainer(model.get(), options).Train(train, workload::Dataset());
    stats->ops.Add(t0, NowNanos());
    dog->End(0);
    if (folder != nullptr) folder->Drain(Recorder());
    if (speed != nullptr) speed->CatchUp();
    Status check = report.status();
    if (check.ok()) {
      stats->epoch_seconds += report.value().train_seconds;
      stats->epochs += report.value().epochs_run;
      stats->samples += report.value().epochs_run * train.size();
      stats->nonfinite += report.value().nonfinite_batches;
      stats->recoveries += report.value().recovery_attempts;
      const uint64_t d = WeightDigest(*model);
      if (sets->digests[set] == 0) sets->digests[set] = d;
      if (report.value().nonfinite_batches > 0) {
        check = Status::Internal("non-finite training batches");
      } else if (d != sets->digests[set]) {
        check = Status::Internal("fine-tuned weights differ between cycles");
      }
    }
    result->Count(check.ok());
    if (!check.ok()) ReportFailure(cfg, what, check);
    sets->last[set] = std::move(model);
  }
  return Status::OK();
}

Status RunFinetune(const RunConfig& cfg, const core::ZeroTuneModel& base,
                   ThreadPool* pool, SetupTime setup, RunResult* result) {
  workload::Dataset held_out;
  ZT_ASSIGN_OR_RETURN(FinetuneSets quality_sets,
                      MakeFinetuneSets(kQualitySeed, &held_out));
  ZT_ASSIGN_OR_RETURN(FinetuneSets sets, MakeFinetuneSets(cfg.seed, nullptr));
  const double qerror_before = MedianLatencyQError(base, held_out);
  Watchdog dog(cfg.workload + " seed " + std::to_string(cfg.seed),
               cfg.op_timeout_s, 1);

  // Untimed, and a warm-up: one cycle per quality set. Fine-tuning on every
  // set must help on the held-out drifted plans.
  FinetuneStats warmup;
  ZT_RETURN_IF_ERROR(RunFinetunePhase(cfg, base, pool, 0.0, kFinetuneSets,
                                      &dog, nullptr, nullptr, result, &warmup,
                                      &quality_sets));
  std::vector<double> qerrors_after(kFinetuneSets);
  ParallelFor(pool, kFinetuneSets, [&](size_t s) {
    qerrors_after[s] = MedianLatencyQError(*quality_sets.last[s], held_out);
  });
  for (size_t s = 0; s < kFinetuneSets; ++s) {
    const double after = qerrors_after[s];
    const bool improved = after < qerror_before;
    result->Count(improved);
    if (!improved) {
      ReportFailure(cfg, "held-out drifted plans, set " + std::to_string(s),
                    Status::Internal("q-error did not improve: " +
                                     std::to_string(qerror_before) + " -> " +
                                     std::to_string(after)));
    }
  }
  std::fprintf(stderr, "zt_bench: held-out median q-error %.4f -> %.4f\n",
               qerror_before, GeometricMean(qerrors_after));

  SpeedReference speed;
  if (!cfg.trace) {
    FinetuneStats stats;
    ZT_RETURN_IF_ERROR(RunFinetunePhase(cfg, base, pool, cfg.seconds,
                                        kMinFinetuneCycles, &dog, nullptr,
                                        &speed, result, &stats, &sets));
    AddEndToEnd(stats.ops, 1, speed, GeometricMean(qerrors_after), setup,
                result);
    return Status::OK();
  }

  FinetuneStats untraced;
  ZT_RETURN_IF_ERROR(RunFinetunePhase(cfg, base, pool, UntracedSeconds(cfg),
                                      1, &dog, nullptr, &speed, result,
                                      &untraced, &sets));
  SpanFolder folder(kKeptSpans);
  Recorder()->Clear();
  Recorder()->Enable();
  FinetuneStats stats;
  const Status run =
      RunFinetunePhase(cfg, base, pool, TracedSeconds(cfg), 1, &dog, &folder,
                       &speed, result, &stats, &sets);
  Recorder()->Disable();
  folder.Drain(Recorder());
  ZT_RETURN_IF_ERROR(run);

  const size_t ops = stats.ops.size();
  LayerMetrics layers;
  layers.SetTrace(folder, ops, Mean(stats.ops.ms), Mean(untraced.ops.ms));
  layers.SetMachine(speed, untraced.ops, 1, setup);
  layers.Set("trainer.epoch_ms", PerOp(stats.epoch_seconds * 1e3,
                                       stats.epochs));
  layers.Set("trainer.samples_per_s",
             Ratio(static_cast<double>(stats.samples), stats.epoch_seconds));
  layers.Set("trainer.nonfinite_batches", static_cast<double>(stats.nonfinite));
  layers.Set("trainer.recoveries", static_cast<double>(stats.recoveries));
  layers.Set("span.trainer.train.self_ms",
             PerOp(folder.SelfMs("trainer/train"), ops));
  layers.Set("span.trainer.epoch.self_ms",
             PerOp(folder.SelfMs("trainer/epoch"), ops));
  result->metrics = layers.Take();
  return ExportTrace(cfg, folder);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "tune-grid", "tune-prescreen", "serve-closed", "finetune"};
  return kNames;
}

Result<RunResult> RunWorkload(const RunConfig& cfg) {
  ThreadPool pool(kPoolThreads);
  ZT_ASSIGN_OR_RETURN(BaseModel base, SetUpBaseModel(&pool));
  RunResult result;
  if (!base.deterministic) {
    ReportFailure(
        cfg, "base-model set-up",
        Status::Internal("repeated set-ups trained different weights"));
    result.correct = false;
  }
  if (cfg.workload == "tune-grid" || cfg.workload == "tune-prescreen") {
    ZT_RETURN_IF_ERROR(RunTune(cfg, *base.model,
                               cfg.workload == "tune-prescreen", base.setup,
                               &result));
  } else if (cfg.workload == "serve-closed") {
    ZT_RETURN_IF_ERROR(RunServe(cfg, std::move(base.model), &pool,
                                base.setup, &result));
  } else if (cfg.workload == "finetune") {
    ZT_RETURN_IF_ERROR(
        RunFinetune(cfg, *base.model, &pool, base.setup, &result));
  } else {
    return Status::InvalidArgument("unknown workload " + cfg.workload);
  }
  return result;
}

}  // namespace zerotune::e2e
