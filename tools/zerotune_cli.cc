// Command-line interface for the ZeroTune library: collect labeled
// corpora, train and evaluate cost models, compile DSL queries, predict
// what-if costs, tune parallelism, and simulate deployments.
//
//   zerotune_cli collect  --count 5000 --out corpus.txt [--strategy random]
//                         [--structures linear,2-way-join] [--seed 42]
//   zerotune_cli train    --corpus corpus.txt --model-out model.txt
//                         [--epochs 60] [--hidden 48] [--lr 0.001]
//   zerotune_cli evaluate --corpus test.txt --model model.txt
//   zerotune_cli compile  --dsl query.dsl --out query.plan
//   zerotune_cli predict  --model model.txt --plan deployment.plan
//                         [--format json]
//   zerotune_cli predict  --model model.txt --batch plans.txt
//                         (one plan path per line; scored in one
//                          PredictBatch call) [--format json]
//   zerotune_cli tune     --model model.txt --query query.plan
//                         --cluster m510:4[:10] [--weight 0.5]
//                         [--prescreen] [--prescreen-keep 0.15]
//                         [--out tuned.plan] [--format json]
//                         (--prescreen ranks all candidates with the
//                          calibrated analytical tier first and only the
//                          kept fraction reaches the GNN)
//   zerotune_cli explain  --model model.txt --plan deployment.plan
//                         [--top 10] | [--segments [--format json]]
//                         (--segments prints the analytical pre-screen's
//                          per-segment cost story instead of feature
//                          attributions)
//   zerotune_cli simulate --plan deployment.plan [--des]
//                         [--duration 5.0]
//                         [--inject-faults "crash@2:node=0;slow@1+2:node=1,factor=0.5"]
//   zerotune_cli recover  --model model.txt --plan deployment.plan
//                         --failed-node 0 [--out recovered.plan]
//                         [--format json]
//   zerotune_cli lint     <plan-file> [--strict] [--format json]
//                         (exit 0 = clean, 1 = warnings only, 2 = errors
//                          or, with --strict, any finding)
//   zerotune_cli serve-sim --plan deployment.plan [--model model.txt]
//                         [--requests 1000] [--threads 4] [--queue 64]
//                         [--fail-rate 0.1] [--slow-rate 0] [--slow-ms 5]
//                         [--deadline-ms 0] [--inject-faults SPEC]
//                         [--seed 7] [--format json]
//                         (replays a request trace through the resilient
//                          PredictionService against a chaos-wrapped
//                          primary and prints the service stats; every
//                          random stream — chaos, retry jitter, tenants,
//                          kills — derives from --seed, so identical
//                          invocations replay identically)
//   zerotune_cli serve-sim ... --replicas 4 [--tenants 100]
//                         [--kill-replica-every 5000]
//                         [--restart-delay-ms 5] [--no-hedge]
//                         [--autoscale]
//                         (fleet mode: the same trace drives a
//                          PredictionFleet of N replicas behind the
//                          consistent-hash router, with per-tenant
//                          admission, hedging, chaos kills every K
//                          requests, and the Dhalion-style controller
//                          restarting crashed replicas. --threads 0 runs
//                          inline on a FakeClock: bit-deterministic
//                          output for a given --seed)
//   zerotune_cli serve-sim ... --adapt --model model.txt --registry DIR
//                         --replicas N [--adapt-every 64]
//                         [--drift-after 0] [--drift-factor 2]
//                         [--plan-variants 4]
//                         (adaptation drill: requests are answered by the
//                          registry's live version while a simulated
//                          ground-truth stream labels every execution;
//                          after --drift-after requests the ground truth
//                          drifts by --drift-factor, the drift detector
//                          trips, the worker fine-tunes, shadow-scores,
//                          and rolls the promoted version across the
//                          fleet. All adaptation randomness derives from
//                          --seed, so inline runs replay bit-identically)
//   zerotune_cli adapt    --registry DIR [--init-from model.txt]
//                         [--promote ID | --rollback | --reject ID]
//                         [--format json]
//                         (inspect or mutate a model registry: no action
//                          flag lists versions and quarantined artifacts)
//
// predict/tune/recover accept --deadline-ms BUDGET; exhausting the budget
// exits with code 3 and, under --format json, a partial object carrying
// "deadline_exceeded": true. train accepts --checkpoint PATH
// [--checkpoint-every N] [--resume] for crash-safe training.
//
// train/predict/tune/serve-sim additionally accept
//   --metrics-out FILE   write the process metrics registry as JSON
//   --trace-out FILE     record spans and write Chrome trace_event JSON
//                        (load in chrome://tracing or ui.perfetto.dev)
// Both files are written atomically after the command runs, even when it
// fails — a failed run's metrics are exactly what you want to look at.
#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/plan_analyzer.h"
#include "analysis/plan_linter.h"
#include "common/clock.h"
#include "common/flags.h"
#include "common/statistics.h"
#include "common/table.h"
#include "core/oracle_predictor.h"
#include "core/dataset_builder.h"
#include "core/enumeration.h"
#include "core/explain.h"
#include "core/optimizer.h"
#include "core/prescreen/analytical.h"
#include "core/reconfiguration.h"
#include "core/trainer.h"
#include "dsp/dot_export.h"
#include "dsp/plan_io.h"
#include "dsp/query_dsl.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/registry/model_registry.h"
#include "serve/adaptation/worker.h"
#include "serve/chaos_predictor.h"
#include "serve/fleet/controller.h"
#include "serve/fleet/fleet.h"
#include "serve/fleet/hash_ring.h"
#include "serve/prediction_service.h"
#include "sim/cost_report.h"
#include "sim/event_simulator.h"
#include "sim/ground_truth.h"
#include "workload/dataset_io.h"

namespace zerotune {
namespace {

int Fail(const Status& s) {
  std::cerr << "error: " << s.ToString() << "\n";
  return 1;
}

/// Exit code for an exhausted --deadline-ms budget (distinct from generic
/// failures so schedulers can tell "ran out of time" from "broken").
constexpr int kDeadlineExitCode = 3;

/// Like ZT_ASSIGN_OR_RETURN but exits the subcommand with a CLI error.
#define ZT_ASSIGN_OR_RETURN_CLI(lhs, expr)                             \
  ZT_ASSIGN_OR_RETURN_CLI_IMPL(ZT_CONCAT(_zt_cli_, __LINE__), lhs, expr)
#define ZT_ASSIGN_OR_RETURN_CLI_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) return Fail(tmp.status());          \
  lhs = std::move(tmp).value();

void PrintUsage() {
  std::cout <<
      "usage: zerotune_cli <command> [flags]\n\n"
      "commands:\n"
      "  collect   generate + deploy + measure a labeled query corpus\n"
      "  train     train a ZeroTune model on a corpus\n"
      "  evaluate  q-error report of a model on a corpus\n"
      "  compile   compile a DSL query into a plan file\n"
      "  predict   what-if cost prediction for a deployed plan\n"
      "  tune      pick parallelism degrees for a logical plan\n"
      "  simulate  measure a deployed plan (analytical and/or DES,\n"
      "            optionally under injected faults)\n"
      "  recover   re-optimize a deployment after losing a cluster node\n"
      "  explain   feature attributions for a prediction\n"
      "  lint      static semantic checks on a plan file\n"
      "  serve-sim replay a request trace through the resilient\n"
      "            prediction service (chaos, breaker, deadlines;\n"
      "            --adapt runs the online adaptation drill)\n"
      "  adapt     inspect or mutate an on-disk model registry\n"
      "  dot       Graphviz rendering of a plan\n"
      "  help      this message\n\n"
      "run a command with wrong flags to see its flag list.\n";
}

/// Output format shared by predict/tune/recover: the default "human"
/// rendering is unchanged; "json" emits one machine-readable object.
enum class OutputFormat { kHuman, kJson };

Result<OutputFormat> ParseFormat(const FlagParser& flags) {
  const std::string fmt = flags.GetString("format", "human");
  if (fmt == "human") return OutputFormat::kHuman;
  if (fmt == "json") return OutputFormat::kJson;
  return Status::InvalidArgument("--format must be human or json, got " +
                                 fmt);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string JsonNum(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string JsonCost(const core::CostPrediction& p) {
  return "{\"latency_ms\": " + JsonNum(p.latency_ms) +
         ", \"throughput_tps\": " + JsonNum(p.throughput_tps) + "}";
}

Result<dsp::Cluster> ParseClusterSpec(const std::string& spec) {
  // "type:count[:gbps]", e.g. "m510:4" or "rs6525:2:1".
  std::vector<std::string> parts;
  std::istringstream is(spec);
  std::string p;
  while (std::getline(is, p, ':')) parts.push_back(p);
  if (parts.size() < 2 || parts.size() > 3) {
    return Status::InvalidArgument("bad --cluster spec: " + spec +
                                   " (want type:count[:gbps])");
  }
  try {
    const int count = std::stoi(parts[1]);
    const double gbps = parts.size() == 3 ? std::stod(parts[2]) : 10.0;
    return dsp::Cluster::Homogeneous(parts[0], count, gbps);
  } catch (...) {
    return Status::InvalidArgument("bad numbers in --cluster spec: " + spec);
  }
}

/// Runs the static analyzer over a freshly loaded deployment and prints
/// its findings to stderr. The strict loader already rejects hard errors,
/// so what surfaces here are warnings (trained-envelope excursions,
/// wasteful partitioning, oversubscribed nodes) that would otherwise go
/// unnoticed until predictions look off.
void WarnOnLoadedPlan(const std::string& path,
                      const analysis::DiagnosticReport& report) {
  for (const analysis::Diagnostic& d : report.diagnostics()) {
    std::cerr << path << ": " << d.ToString() << "\n";
  }
}

/// Loads a logical plan from either a plan file or a DSL file.
Result<dsp::QueryPlan> LoadLogicalPlan(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::IOError("cannot open " + path);
  std::string first_line;
  std::getline(f, first_line);
  f.seekg(0);
  if (first_line == "zerotune-plan-v1") {
    return dsp::PlanIO::ReadQueryPlan(f);
  }
  std::stringstream text;
  text << f.rdbuf();
  return dsp::QueryDsl::Parse(text.str());
}

int CmdCollect(const FlagParser& flags) {
  ZT_ASSIGN_OR_RETURN_CLI(const int64_t count, flags.GetInt("count", 1000));
  ZT_ASSIGN_OR_RETURN_CLI(const int64_t seed, flags.GetInt("seed", 42));
  const std::string out = flags.GetString("out");
  if (out.empty()) return Fail(Status::InvalidArgument("--out is required"));

  core::DatasetBuilderOptions opts;
  opts.count = static_cast<size_t>(count);
  opts.seed = static_cast<uint64_t>(seed);
  opts.generator.unseen_ranges = flags.GetBool("unseen");
  const std::string structures = flags.GetString("structures");
  if (!structures.empty()) {
    std::istringstream is(structures);
    std::string name;
    while (std::getline(is, name, ',')) {
      auto s = workload::QueryStructureFromString(name);
      if (!s.ok()) return Fail(s.status());
      opts.structures.push_back(s.value());
    }
  }
  ThreadPool pool;
  opts.pool = &pool;

  const std::string strategy = flags.GetString("strategy", "optisample");
  Result<workload::Dataset> corpus = Status::Internal("unreachable");
  if (strategy == "optisample") {
    corpus = core::BuildDataset(core::OptiSampleEnumerator(), opts);
  } else if (strategy == "random") {
    corpus = core::BuildDataset(core::RandomEnumerator(), opts);
  } else {
    return Fail(Status::InvalidArgument("--strategy must be optisample or "
                                        "random"));
  }
  if (!corpus.ok()) return Fail(corpus.status());
  const Status saved = workload::DatasetIO::Save(corpus.value(), out);
  if (!saved.ok()) return Fail(saved);
  std::cout << "wrote " << corpus.value().size() << " labeled queries to "
            << out << "\n";
  return 0;
}

int CmdTrain(const FlagParser& flags) {
  const std::string corpus_path = flags.GetString("corpus");
  const std::string model_out = flags.GetString("model-out");
  if (corpus_path.empty() || model_out.empty()) {
    return Fail(
        Status::InvalidArgument("--corpus and --model-out are required"));
  }
  auto corpus = workload::DatasetIO::Load(corpus_path);
  if (!corpus.ok()) return Fail(corpus.status());

  ZT_ASSIGN_OR_RETURN_CLI(const int64_t epochs, flags.GetInt("epochs", 60));
  ZT_ASSIGN_OR_RETURN_CLI(const int64_t hidden, flags.GetInt("hidden", 48));
  ZT_ASSIGN_OR_RETURN_CLI(const double lr, flags.GetDouble("lr", 1e-3));
  ZT_ASSIGN_OR_RETURN_CLI(const int64_t seed, flags.GetInt("seed", 1));

  Rng rng(static_cast<uint64_t>(seed));
  workload::Dataset train, val, test;
  auto split = corpus.value().Split(0.8, 0.1, &rng, &train, &val, &test);
  if (!split.ok()) return Fail(split);

  core::ModelConfig config;
  config.hidden_dim = static_cast<size_t>(hidden);
  config.seed = static_cast<uint64_t>(seed);
  core::ZeroTuneModel model(config);
  core::TrainOptions topts;
  topts.epochs = static_cast<size_t>(epochs);
  topts.learning_rate = lr;
  topts.verbose = flags.GetBool("verbose");
  topts.checkpoint_path = flags.GetString("checkpoint");
  ZT_ASSIGN_OR_RETURN_CLI(const int64_t checkpoint_every,
                          flags.GetInt("checkpoint-every", 1));
  topts.checkpoint_every_epochs = static_cast<size_t>(checkpoint_every);
  topts.resume = flags.GetBool("resume");
  ThreadPool pool;
  topts.pool = &pool;
  auto report = core::Trainer(&model, topts).Train(train, val);
  if (!report.ok()) return Fail(report.status());
  if (report.value().resumed_from_epoch > 0) {
    std::cout << "resumed from checkpoint at epoch "
              << report.value().resumed_from_epoch << "\n";
  }
  if (!topts.checkpoint_path.empty()) {
    std::cout << "wrote " << report.value().checkpoints_written
              << " checkpoint(s) to " << topts.checkpoint_path << "\n";
  }
  std::cout << "trained " << report.value().epochs_run << " epochs in "
            << TextTable::Fmt(report.value().train_seconds, 1)
            << " s (best val loss "
            << TextTable::Fmt(report.value().best_val_loss, 4) << ")\n";

  const auto eval = core::Trainer::Evaluate(model, test);
  std::cout << "held-out q-error: latency median "
            << TextTable::Fmt(eval.latency.median) << " p95 "
            << TextTable::Fmt(eval.latency.p95) << "; throughput median "
            << TextTable::Fmt(eval.throughput.median) << " p95 "
            << TextTable::Fmt(eval.throughput.p95) << "\n";

  const Status saved = model.Save(model_out);
  if (!saved.ok()) return Fail(saved);
  std::cout << "saved model to " << model_out << "\n";
  return 0;
}

int CmdEvaluate(const FlagParser& flags) {
  const std::string corpus_path = flags.GetString("corpus");
  const std::string model_path = flags.GetString("model");
  if (corpus_path.empty() || model_path.empty()) {
    return Fail(Status::InvalidArgument("--corpus and --model are required"));
  }
  auto corpus = workload::DatasetIO::Load(corpus_path);
  if (!corpus.ok()) return Fail(corpus.status());
  auto model = core::ZeroTuneModel::LoadFromFile(model_path);
  if (!model.ok()) return Fail(model.status());

  TextTable table({"Structure", "Lat median", "Lat 95th", "Tpt median",
                   "Tpt 95th", "#queries"});
  std::set<workload::QueryStructure> structures;
  for (const auto& s : corpus.value().samples()) structures.insert(s.structure);
  for (auto s : structures) {
    const auto subset = corpus.value().FilterStructure(s);
    const auto eval = core::Trainer::Evaluate(*model.value(), subset);
    table.AddRow({workload::ToString(s), TextTable::Fmt(eval.latency.median),
                  TextTable::Fmt(eval.latency.p95),
                  TextTable::Fmt(eval.throughput.median),
                  TextTable::Fmt(eval.throughput.p95),
                  std::to_string(subset.size())});
  }
  const auto overall = core::Trainer::Evaluate(*model.value(), corpus.value());
  table.AddRow({"overall", TextTable::Fmt(overall.latency.median),
                TextTable::Fmt(overall.latency.p95),
                TextTable::Fmt(overall.throughput.median),
                TextTable::Fmt(overall.throughput.p95),
                std::to_string(corpus.value().size())});
  table.Print(std::cout);
  return 0;
}

int CmdCompile(const FlagParser& flags) {
  const std::string dsl_path = flags.GetString("dsl");
  const std::string out = flags.GetString("out");
  if (dsl_path.empty() || out.empty()) {
    return Fail(Status::InvalidArgument("--dsl and --out are required"));
  }
  std::ifstream f(dsl_path);
  if (!f) return Fail(Status::IOError("cannot open " + dsl_path));
  std::stringstream text;
  text << f.rdbuf();
  auto plan = dsp::QueryDsl::Parse(text.str());
  if (!plan.ok()) return Fail(plan.status());
  const Status saved = dsp::PlanIO::SaveQueryPlan(plan.value(), out);
  if (!saved.ok()) return Fail(saved);
  std::cout << "compiled " << plan.value().num_operators()
            << " operators to " << out << "\n";
  return 0;
}

int CmdPredict(const FlagParser& flags) {
  const std::string model_path = flags.GetString("model");
  const std::string plan_path = flags.GetString("plan");
  const std::string batch_path = flags.GetString("batch");
  if (model_path.empty() || (plan_path.empty() == batch_path.empty())) {
    return Fail(Status::InvalidArgument(
        "--model and exactly one of --plan / --batch are required"));
  }
  ZT_ASSIGN_OR_RETURN_CLI(const OutputFormat format, ParseFormat(flags));
  ZT_ASSIGN_OR_RETURN_CLI(const double deadline_ms,
                          flags.GetDouble("deadline-ms", 0.0));
  const Deadline deadline =
      deadline_ms > 0.0 ? Deadline(SystemClock::Default(), deadline_ms)
                        : Deadline();
  // Emits the partial JSON / diagnostic for an exhausted budget. `partial`
  // is the JSON body accumulated so far (without the closing brace).
  const auto deadline_exit = [&](const std::string& partial,
                                 const std::string& where) {
    if (format == OutputFormat::kJson) {
      std::cout << partial << "\"deadline_exceeded\": true}\n";
    }
    std::cerr << "error: deadline of " << deadline_ms << " ms exhausted "
              << where << "\n";
    return kDeadlineExitCode;
  };
  auto model = core::ZeroTuneModel::LoadFromFile(model_path);
  if (!model.ok()) return Fail(model.status());

  if (!batch_path.empty()) {
    // One deployment plan path per line; all plans are scored in a
    // single PredictBatch call on this thread.
    std::ifstream list(batch_path);
    if (!list) return Fail(Status::IOError("cannot open " + batch_path));
    std::vector<std::string> paths;
    std::vector<dsp::ParallelQueryPlan> plans;
    std::string line;
    while (std::getline(list, line)) {
      if (line.empty()) continue;
      auto plan = dsp::PlanIO::LoadParallelPlan(line);
      if (!plan.ok()) {
        return Fail(plan.status().Annotated("loading batch plan " + line));
      }
      paths.push_back(line);
      plans.push_back(std::move(plan).value());
    }
    if (plans.empty()) {
      return Fail(Status::InvalidArgument("batch file " + batch_path +
                                          " lists no plans"));
    }
    std::vector<core::CostPrediction> costs;
    bool expired = false;
    if (deadline.infinite()) {
      auto batch_costs = core::PredictBatch(*model.value(), plans);
      if (!batch_costs.ok()) return Fail(batch_costs.status());
      costs = std::move(batch_costs).value();
    } else {
      // With a budget the plans are scored one at a time so the deadline
      // can cut the batch short; finished predictions are still reported.
      for (const dsp::ParallelQueryPlan& p : plans) {
        if (deadline.Expired()) {
          expired = true;
          break;
        }
        auto cost = model.value()->Predict(p);
        if (!cost.ok()) return Fail(cost.status());
        costs.push_back(cost.value());
      }
    }
    if (format == OutputFormat::kJson) {
      std::ostringstream os;
      os << "{\"model_version\": " << model.value()->version()
         << ", \"predictions\": [";
      for (size_t i = 0; i < costs.size(); ++i) {
        const core::CostPrediction& p = costs[i];
        os << (i > 0 ? ", " : "") << "{\"plan\": \"" << JsonEscape(paths[i])
           << "\", \"latency_ms\": " << JsonNum(p.latency_ms)
           << ", \"throughput_tps\": " << JsonNum(p.throughput_tps) << "}";
      }
      if (expired) {
        return deadline_exit(os.str() + "], ",
                             "after scoring " + std::to_string(costs.size()) +
                                 "/" + std::to_string(plans.size()) +
                                 " plans");
      }
      // No deadline (or an unexhausted one): original output shape.
      std::cout << os.str() << "]}\n";
    } else {
      TextTable table({"Plan", "Pred latency (ms)", "Pred tput (tps)"});
      for (size_t i = 0; i < costs.size(); ++i) {
        table.AddRow({paths[i], TextTable::Fmt(costs[i].latency_ms),
                      TextTable::Fmt(costs[i].throughput_tps, 0)});
      }
      table.Print(std::cout);
      if (expired) {
        return deadline_exit("", "after scoring " +
                                     std::to_string(costs.size()) + "/" +
                                     std::to_string(plans.size()) + " plans");
      }
    }
    return 0;
  }

  auto plan = dsp::PlanIO::LoadParallelPlan(plan_path);
  if (!plan.ok()) return Fail(plan.status());
  WarnOnLoadedPlan(plan_path, analysis::PlanAnalyzer::Analyze(plan.value()));
  if (deadline.Expired()) {
    return deadline_exit("{\"plan\": \"" + JsonEscape(plan_path) + "\", ",
                         "before the prediction ran");
  }
  auto cost = model.value()->Predict(plan.value());
  if (!cost.ok()) return Fail(cost.status());
  if (format == OutputFormat::kJson) {
    std::cout << "{\"plan\": \"" << JsonEscape(plan_path)
              << "\", \"latency_ms\": " << JsonNum(cost.value().latency_ms)
              << ", \"throughput_tps\": "
              << JsonNum(cost.value().throughput_tps)
              << ", \"model_version\": " << model.value()->version()
              << "}\n";
    return 0;
  }
  std::cout << "predicted latency:    "
            << TextTable::Fmt(cost.value().latency_ms) << " ms\n"
            << "predicted throughput: "
            << TextTable::Fmt(cost.value().throughput_tps, 0)
            << " tuples/s\n";
  if (model.value()->version() > 0) {
    std::cout << "model version:        " << model.value()->version()
              << "\n";
  }
  return 0;
}

int CmdTune(const FlagParser& flags) {
  const std::string model_path = flags.GetString("model");
  const std::string query_path = flags.GetString("query");
  const std::string cluster_spec = flags.GetString("cluster");
  if (model_path.empty() || query_path.empty() || cluster_spec.empty()) {
    return Fail(Status::InvalidArgument(
        "--model, --query and --cluster are required"));
  }
  auto model = core::ZeroTuneModel::LoadFromFile(model_path);
  if (!model.ok()) return Fail(model.status());
  auto logical = LoadLogicalPlan(query_path);
  if (!logical.ok()) return Fail(logical.status());
  WarnOnLoadedPlan(query_path,
                   analysis::PlanAnalyzer::Analyze(logical.value()));
  auto cluster = ParseClusterSpec(cluster_spec);
  if (!cluster.ok()) return Fail(cluster.status());
  ZT_ASSIGN_OR_RETURN_CLI(const double weight,
                          flags.GetDouble("weight", 0.5));
  ZT_ASSIGN_OR_RETURN_CLI(const OutputFormat format, ParseFormat(flags));
  ZT_ASSIGN_OR_RETURN_CLI(const double deadline_ms,
                          flags.GetDouble("deadline-ms", 0.0));
  const Deadline deadline =
      deadline_ms > 0.0 ? Deadline(SystemClock::Default(), deadline_ms)
                        : Deadline();

  core::ParallelismOptimizer::Options opts;
  opts.weight = weight;
  opts.prescreen.enabled = flags.GetBool("prescreen");
  ZT_ASSIGN_OR_RETURN_CLI(
      opts.prescreen.keep_fraction,
      flags.GetDouble("prescreen-keep", opts.prescreen.keep_fraction));
  if (!deadline.infinite()) opts.deadline = &deadline;
  core::ParallelismOptimizer optimizer(model.value().get(), opts);
  auto tuned = optimizer.Tune(logical.value(), cluster.value());
  if (!tuned.ok()) {
    if (tuned.status().code() == StatusCode::kDeadlineExceeded) {
      // Budget ran out before anything was scored: no partial result.
      if (format == OutputFormat::kJson) {
        std::cout << "{\"deadline_exceeded\": true, \"error\": \""
                  << JsonEscape(tuned.status().message()) << "\"}\n";
      }
      std::cerr << "error: " << tuned.status().ToString() << "\n";
      return kDeadlineExitCode;
    }
    return Fail(tuned.status());
  }

  if (format == OutputFormat::kJson) {
    std::cout << "{\"operators\": [";
    bool first = true;
    for (const auto& op : logical.value().operators()) {
      std::cout << (first ? "" : ", ") << "{\"name\": \""
                << JsonEscape(op.name) << "\", \"parallelism\": "
                << tuned.value().plan.parallelism(op.id)
                << ", \"partitioning\": \""
                << JsonEscape(dsp::ToString(
                       tuned.value().plan.placement(op.id).partitioning))
                << "\"}";
      first = false;
    }
    std::cout << "], \"predicted\": " << JsonCost(tuned.value().predicted)
              << ", \"candidates_evaluated\": "
              << tuned.value().candidates_evaluated
              << ", \"candidates_rejected\": "
              << tuned.value().candidates_rejected
              << ", \"candidates_prescreened\": "
              << tuned.value().candidates_prescreened
              << ", \"prescreen_kept\": " << tuned.value().prescreen_kept
              << ", \"model_version\": " << model.value()->version();
    if (!deadline.infinite()) {
      std::cout << ", \"deadline_exceeded\": "
                << (tuned.value().deadline_hit ? "true" : "false");
    }
    std::cout << "}\n";
  } else {
    TextTable table({"Operator", "Parallelism", "Partitioning"});
    for (const auto& op : logical.value().operators()) {
      table.AddRow({op.name,
                    std::to_string(tuned.value().plan.parallelism(op.id)),
                    dsp::ToString(tuned.value().plan.placement(op.id)
                                      .partitioning)});
    }
    table.Print(std::cout);
    std::cout << "predicted latency "
              << TextTable::Fmt(tuned.value().predicted.latency_ms)
              << " ms, throughput "
              << TextTable::Fmt(tuned.value().predicted.throughput_tps, 0)
              << " tuples/s (over " << tuned.value().candidates_evaluated
              << " candidates, " << tuned.value().candidates_rejected
              << " rejected as invalid deployments)\n";
    if (tuned.value().candidates_prescreened > 0) {
      std::cout << "analytical pre-screen ranked "
                << tuned.value().candidates_prescreened
                << " candidates, kept " << tuned.value().prescreen_kept
                << " for GNN scoring\n";
    }
    if (tuned.value().deadline_hit) {
      std::cout << "note: tuning budget of " << deadline_ms
                << " ms ran out; this is the best assignment found in "
                   "time, not the full search's\n";
    }
  }

  const std::string out = flags.GetString("out");
  if (!out.empty()) {
    const Status saved =
        dsp::PlanIO::SaveParallelPlan(tuned.value().plan, out);
    if (!saved.ok()) return Fail(saved);
    if (format != OutputFormat::kJson) {
      std::cout << "wrote tuned deployment to " << out << "\n";
    }
  }
  return tuned.value().deadline_hit ? kDeadlineExitCode : 0;
}

int CmdSimulate(const FlagParser& flags) {
  const std::string plan_path = flags.GetString("plan");
  if (plan_path.empty()) {
    return Fail(Status::InvalidArgument("--plan is required"));
  }
  auto plan = dsp::PlanIO::LoadParallelPlan(plan_path);
  if (!plan.ok()) return Fail(plan.status());
  WarnOnLoadedPlan(plan_path, analysis::PlanAnalyzer::Analyze(plan.value()));

  sim::CostEngine engine;
  auto m = engine.Measure(plan.value());
  if (!m.ok()) return Fail(m.status());
  if (flags.GetBool("breakdown")) {
    std::cout << sim::CostReport::Render(plan.value(), m.value());
  } else {
    std::cout << "analytical: latency "
              << TextTable::Fmt(m.value().latency_ms) << " ms, throughput "
              << TextTable::Fmt(m.value().throughput_tps, 0) << " tuples/s"
              << (m.value().backpressured ? " [backpressured]" : "")
              << "\n";
  }

  const std::string fault_spec = flags.GetString("inject-faults");
  if (flags.GetBool("des") || !fault_spec.empty()) {
    ZT_ASSIGN_OR_RETURN_CLI(const double duration,
                            flags.GetDouble("duration", 5.0));
    sim::EventSimulator::Options sopts;
    sopts.duration_s = duration;
    sopts.warmup_s = duration / 5.0;
    if (!fault_spec.empty()) {
      ZT_ASSIGN_OR_RETURN_CLI(sopts.faults,
                              sim::FaultPlan::Parse(fault_spec));
    }
    sim::EventSimulator des(sopts);
    auto dm = des.Run(plan.value());
    if (!dm.ok()) return Fail(dm.status());
    std::cout << "discrete-event: mean latency "
              << TextTable::Fmt(dm.value().mean_latency_ms) << " ms (p95 "
              << TextTable::Fmt(dm.value().p95_latency_ms)
              << "), throughput "
              << TextTable::Fmt(dm.value().throughput_tps, 0) << " tuples/s"
              << (dm.value().backpressured ? " [backpressured]" : "")
              << "\n";
    if (!sopts.faults.empty()) {
      std::cout << "injected " << sopts.faults.size() << " fault(s), "
                << dm.value().tuples_lost << " tuples lost\n";
      TextTable table({"Fault", "Onset (s)", "Sink tps before",
                       "Sink tps after"});
      for (const sim::FaultImpact& fi : dm.value().fault_impacts) {
        table.AddRow({sim::ToString(fi.event.kind),
                      TextTable::Fmt(fi.event.time_s, 1),
                      TextTable::Fmt(fi.sink_tps_before, 0),
                      TextTable::Fmt(fi.sink_tps_after, 0)});
      }
      table.Print(std::cout);
    }
  }
  return 0;
}

int CmdRecover(const FlagParser& flags) {
  const std::string model_path = flags.GetString("model");
  const std::string plan_path = flags.GetString("plan");
  if (model_path.empty() || plan_path.empty()) {
    return Fail(Status::InvalidArgument("--model and --plan are required"));
  }
  ZT_ASSIGN_OR_RETURN_CLI(const int64_t failed_node,
                          flags.GetInt("failed-node", -1));
  if (failed_node < 0) {
    return Fail(Status::InvalidArgument("--failed-node is required"));
  }
  auto model = core::ZeroTuneModel::LoadFromFile(model_path);
  if (!model.ok()) return Fail(model.status());
  auto plan = dsp::PlanIO::LoadParallelPlan(plan_path);
  if (!plan.ok()) return Fail(plan.status());

  ZT_ASSIGN_OR_RETURN_CLI(const OutputFormat format, ParseFormat(flags));
  ZT_ASSIGN_OR_RETURN_CLI(const double deadline_ms,
                          flags.GetDouble("deadline-ms", 0.0));
  const Deadline deadline =
      deadline_ms > 0.0 ? Deadline(SystemClock::Default(), deadline_ms)
                        : Deadline();
  core::ReconfigurationPlanner::Options popts;
  if (!deadline.infinite()) popts.optimizer.deadline = &deadline;
  core::ReconfigurationPlanner planner(model.value().get(), popts);
  auto report = planner.RecoverFromNodeFailure(
      plan.value(), static_cast<int>(failed_node));
  if (!report.ok()) {
    if (report.status().code() == StatusCode::kDeadlineExceeded) {
      if (format == OutputFormat::kJson) {
        std::cout << "{\"failed_node\": " << failed_node
                  << ", \"deadline_exceeded\": true, \"error\": \""
                  << JsonEscape(report.status().message()) << "\"}\n";
      }
      std::cerr << "error: " << report.status().ToString() << "\n";
      return kDeadlineExitCode;
    }
    return Fail(report.status());
  }
  const core::RecoveryReport& r = report.value();

  if (format == OutputFormat::kJson) {
    std::cout << "{\"failed_node\": " << failed_node
              << ", \"remaining_nodes\": " << r.degraded_cluster.num_nodes()
              << ", \"unrecovered\": " << JsonCost(r.unrecovered_predicted)
              << ", \"recovered\": " << JsonCost(r.recovered_predicted)
              << ", \"migration_pause_ms\": "
              << JsonNum(r.migration_pause_ms);
    if (!deadline.infinite()) {
      std::cout << ", \"deadline_exceeded\": "
                << (r.deadline_hit ? "true" : "false");
    }
    std::cout << "}\n";
  } else {
    std::cout << "node " << failed_node << " removed; "
              << r.degraded_cluster.num_nodes() << " node(s) remain\n";
    TextTable table({"Deployment", "Pred latency (ms)", "Pred tput (tps)"});
    table.AddRow({"keep degrees",
                  TextTable::Fmt(r.unrecovered_predicted.latency_ms),
                  TextTable::Fmt(r.unrecovered_predicted.throughput_tps, 0)});
    table.AddRow({"re-optimized",
                  TextTable::Fmt(r.recovered_predicted.latency_ms),
                  TextTable::Fmt(r.recovered_predicted.throughput_tps, 0)});
    table.Print(std::cout);
    std::cout << "estimated migration pause "
              << TextTable::Fmt(r.migration_pause_ms) << " ms\n";
    if (r.deadline_hit) {
      std::cout << "note: recovery budget of " << deadline_ms
                << " ms ran out; best re-deployment found in time\n";
    }
  }

  const std::string out = flags.GetString("out");
  if (!out.empty()) {
    const Status saved = dsp::PlanIO::SaveParallelPlan(r.recovered_plan, out);
    if (!saved.ok()) return Fail(saved);
    if (format != OutputFormat::kJson) {
      std::cout << "wrote recovered deployment to " << out << "\n";
    }
  }
  return r.deadline_hit ? kDeadlineExitCode : 0;
}

/// explain --segments: decomposes the plan into analytical segments,
/// calibrates the prescreen closures from a batched probe ladder, and
/// prints the per-segment analytical story at the deployment's degrees.
int RunExplainSegments(OutputFormat format, const core::CostPredictor* model,
                       const dsp::ParallelQueryPlan& plan) {
  const dsp::QueryPlan& logical = plan.logical();
  const dsp::Cluster& cluster = plan.cluster();
  auto probes_r = core::AnalyticalPrescreen::ProbeLadder(
      logical, cluster, /*max_parallelism=*/128, /*max_probes=*/6);
  if (!probes_r.ok()) return Fail(probes_r.status());
  std::vector<dsp::ParallelQueryPlan> probe_plans;
  for (const std::vector<int>& degrees : probes_r.value()) {
    dsp::ParallelQueryPlan probe(logical, cluster);
    for (const auto& op : logical.operators()) {
      const Status s = probe.SetParallelism(
          op.id, degrees[static_cast<size_t>(op.id)]);
      if (!s.ok()) return Fail(s);
    }
    probe.DerivePartitioning();
    const Status placed = probe.PlaceRoundRobin();
    if (!placed.ok()) return Fail(placed);
    probe_plans.push_back(std::move(probe));
  }
  auto preds = core::PredictBatch(*model, probe_plans);
  if (!preds.ok()) return Fail(preds.status());
  auto fitted = core::AnalyticalPrescreen::Fit(
      logical, cluster, probes_r.value(), preds.value(),
      core::AnalyticalPrescreen::Options());
  if (!fitted.ok()) {
    return Fail(fitted.status().Annotated(
        "calibrating the analytical segment model (is the plan degenerate? "
        "see lint ZT-P026)"));
  }
  const std::vector<int> degrees = plan.ParallelismVector();
  const auto stories = fitted.value().ExplainSegments(degrees);
  if (format == OutputFormat::kJson) {
    std::cout << "{\"segments\": [";
    for (size_t i = 0; i < stories.size(); ++i) {
      const auto& s = stories[i];
      std::cout << (i > 0 ? ", " : "") << "{\"kind\": \""
                << analysis::ToString(s.segment.kind)
                << "\", \"operators\": [";
      for (size_t j = 0; j < s.segment.operator_ids.size(); ++j) {
        std::cout << (j > 0 ? ", " : "") << "\""
                  << JsonEscape(
                         logical.op(s.segment.operator_ids[j]).name)
                  << "\"";
      }
      std::cout << "], \"closure\": " << JsonNum(s.closure_value)
                << ", \"latency_coefficient\": "
                << JsonNum(s.latency_coefficient)
                << ", \"throughput_coefficient\": "
                << JsonNum(s.throughput_coefficient) << "}";
    }
    std::cout << "], \"probes\": " << probe_plans.size()
              << ", \"latency_intercept\": "
              << JsonNum(fitted.value().latency_intercept())
              << ", \"throughput_intercept\": "
              << JsonNum(fitted.value().throughput_intercept())
              << ", \"latency_overhead_coefficient\": "
              << JsonNum(fitted.value().latency_overhead_coefficient())
              << ", \"throughput_overhead_coefficient\": "
              << JsonNum(fitted.value().throughput_overhead_coefficient())
              << ", \"predicted_log_latency\": "
              << JsonNum(fitted.value().PredictLogLatency(degrees))
              << ", \"predicted_log_throughput\": "
              << JsonNum(fitted.value().PredictLogThroughput(degrees))
              << "}\n";
    return 0;
  }
  std::cout << "analytical segment decomposition (" << stories.size()
            << " segment" << (stories.size() == 1 ? "" : "s")
            << ", calibrated from " << probe_plans.size()
            << " GNN probes):\n";
  for (size_t i = 0; i < stories.size(); ++i) {
    const auto& s = stories[i];
    std::cout << "  [" << i + 1 << "] " << s.segment.ToString(logical)
              << "\n      closure x = " << TextTable::Fmt(s.closure_value)
              << ", latency beta = "
              << TextTable::Fmt(s.latency_coefficient)
              << ", throughput beta = "
              << TextTable::Fmt(s.throughput_coefficient) << "\n";
  }
  std::cout << "parallelism overhead: latency beta = "
            << TextTable::Fmt(
                   fitted.value().latency_overhead_coefficient())
            << ", throughput beta = "
            << TextTable::Fmt(
                   fitted.value().throughput_overhead_coefficient())
            << "\nat this deployment's degrees: predicted log-latency "
            << TextTable::Fmt(fitted.value().PredictLogLatency(degrees))
            << ", log-throughput "
            << TextTable::Fmt(fitted.value().PredictLogThroughput(degrees))
            << "\n";
  return 0;
}

int CmdExplain(const FlagParser& flags) {
  const std::string model_path = flags.GetString("model");
  const std::string plan_path = flags.GetString("plan");
  if (model_path.empty() || plan_path.empty()) {
    return Fail(Status::InvalidArgument("--model and --plan are required"));
  }
  auto model = core::ZeroTuneModel::LoadFromFile(model_path);
  if (!model.ok()) return Fail(model.status());
  auto plan = dsp::PlanIO::LoadParallelPlan(plan_path);
  if (!plan.ok()) return Fail(plan.status());
  if (flags.GetBool("segments")) {
    ZT_ASSIGN_OR_RETURN_CLI(const OutputFormat format, ParseFormat(flags));
    return RunExplainSegments(format, model.value().get(), plan.value());
  }
  ZT_ASSIGN_OR_RETURN_CLI(const int64_t top_k, flags.GetInt("top", 10));

  auto cost = model.value()->Predict(plan.value());
  if (!cost.ok()) return Fail(cost.status());
  std::cout << "prediction: latency "
            << TextTable::Fmt(cost.value().latency_ms) << " ms, throughput "
            << TextTable::Fmt(cost.value().throughput_tps, 0)
            << " tuples/s\n";

  core::PredictionExplainer::Options opts;
  opts.top_k = static_cast<size_t>(top_k);
  core::PredictionExplainer explainer(model.value().get(), opts);
  auto attrs = explainer.Explain(plan.value());
  if (!attrs.ok()) return Fail(attrs.status());
  std::cout << "top feature attributions (impact of zeroing the slot, in\n"
               "normalized log-cost units):\n"
            << core::PredictionExplainer::ToText(attrs.value());
  return 0;
}

int CmdLint(const FlagParser& flags) {
  std::string path = flags.GetString("plan");
  if (path.empty() && flags.positional().size() > 1) {
    path = flags.positional()[1];
  }
  if (path.empty()) {
    std::cerr << "error: usage: lint <plan-file> [--strict] [--format json]\n";
    return 2;
  }
  const auto format = ParseFormat(flags);
  if (!format.ok()) {
    std::cerr << "error: " << format.status().ToString() << "\n";
    return 2;
  }
  const auto report = analysis::PlanLinter::LintFile(path);
  if (!report.ok()) {
    std::cerr << "error: " << report.status().ToString() << "\n";
    return 2;
  }
  const analysis::DiagnosticReport& r = report.value();
  if (format.value() == OutputFormat::kJson) {
    std::cout << r.ToJson() << "\n";
  } else {
    std::cout << r.ToText();
  }
  if (r.HasErrors()) return 2;
  if (!r.Clean()) return flags.GetBool("strict") ? 2 : 1;
  return 0;
}

/// serve-sim --replicas mode configuration (see RunFleetServeSim).
struct FleetSimConfig {
  size_t requests = 0;
  size_t threads = 0;
  size_t replicas = 0;
  size_t tenants = 1;
  size_t kill_every = 0;  // 0 = no chaos kills
  double restart_delay_ms = 5.0;
  bool hedge = true;
  bool autoscale = false;
  double deadline_ms = 0.0;
  uint64_t root_seed = 7;
};

/// Tenant id "t<n>" of a simulated request. Built by appending: GCC 12's
/// -Wrestrict misfires on `"t" + std::to_string(n)` in Release builds.
std::string TenantName(uint64_t n) {
  std::string name = "t";
  name += std::to_string(n);
  return name;
}

/// How long a fleet or adapt replay of serve-sim took, and its request
/// rate. An inline run (--threads 0) reads a FakeClock, so its time is
/// virtual and is reported as `virtual_s` / `virtual_rps`; a pooled run
/// reads the system clock and reports `wall_s` / `rps`.
struct SimElapsed {
  SimElapsed(Clock* clock, int64_t t_start, size_t requests,
             bool virtual_time)
      : seconds(clock->MillisSince(t_start) / 1000.0),
        rps(seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0),
        is_virtual(virtual_time) {}

  /// The two JSON members, without braces.
  std::string Json() const {
    std::ostringstream os;
    os.precision(17);
    os << (is_virtual ? "\"virtual_s\": " : "\"wall_s\": ") << seconds
       << (is_virtual ? ", \"virtual_rps\": " : ", \"rps\": ") << rps;
    return os.str();
  }
  std::string Text() const {
    return TextTable::Fmt(seconds) + " s (" + TextTable::Fmt(rps, 0) +
           " req/s" + (is_virtual ? ", virtual time)" : ")");
  }

  double seconds;
  double rps;
  bool is_virtual;
};

/// Fleet mode of serve-sim: drives a PredictionFleet instead of a single
/// PredictionService. Chaos kills a replica every kill_every requests and
/// the Dhalion-style controller (ticking every 256 requests) restarts it
/// after restart_delay_ms, so the replay exercises failover, hedging and
/// recovery, not just the happy path.
int RunFleetServeSim(OutputFormat format, const dsp::ParallelQueryPlan& plan,
                     const core::CostPredictor* inner,
                     const core::CostPredictor* fallback,
                     const serve::ChaosPredictor::Options& chaos_options,
                     const serve::ServeOptions& sopts,
                     const FleetSimConfig& cfg) {
  using serve::fleet::DeriveSeed;
  using serve::fleet::Mix64;

  // --threads 0: inline on a FakeClock — virtual time advances only
  // through chaos latency and a fixed per-request epsilon, so a given
  // --seed replays to bit-identical output. --threads N: a real pool on
  // the system clock (the benchmark mode).
  std::unique_ptr<FakeClock> fake;
  std::unique_ptr<ThreadPool> pool;
  if (cfg.threads > 0) {
    pool = std::make_unique<ThreadPool>(cfg.threads);
  } else {
    fake = std::make_unique<FakeClock>();
  }
  Clock* clock = fake != nullptr ? static_cast<Clock*>(fake.get())
                                 : SystemClock::Default();

  serve::fleet::FleetOptions fopts;
  fopts.initial_replicas = cfg.replicas;
  fopts.replica = sopts;
  fopts.hedge.enabled = cfg.hedge;
  const uint64_t chaos_stream = DeriveSeed(cfg.root_seed, 1);
  auto factory = [inner, &chaos_options, chaos_stream, clock](uint32_t id)
      -> std::unique_ptr<const core::CostPredictor> {
    serve::ChaosPredictor::Options per_replica = chaos_options;
    per_replica.seed = DeriveSeed(chaos_stream, id);
    return std::make_unique<serve::ChaosPredictor>(inner, per_replica, clock);
  };
  serve::fleet::PredictionFleet fleet(factory, fallback, fopts, pool.get(),
                                      clock);

  serve::fleet::ControllerOptions ctl;
  // Without --autoscale the controller only restarts crashed replicas:
  // pinning min == max makes both scaling resolutions no-ops.
  ctl.min_replicas = cfg.autoscale ? 1 : cfg.replicas;
  ctl.max_replicas = cfg.autoscale ? cfg.replicas * 2 : cfg.replicas;
  ctl.restart_delay_ms = cfg.restart_delay_ms;
  serve::fleet::FleetController controller(&fleet, ctl, clock);

  const uint64_t tenant_stream = DeriveSeed(cfg.root_seed, 3);
  const uint64_t kill_stream = DeriveSeed(cfg.root_seed, 4);
  const size_t callers = pool != nullptr ? cfg.threads : size_t{1};
  const int64_t t_start = clock->NowNanos();
  std::atomic<uint64_t> kill_count{0};
  auto drive = [&](size_t caller) {
    const size_t share = (cfg.requests + callers - 1) / callers;
    const size_t lo = caller * share;
    const size_t hi = std::min(cfg.requests, lo + share);
    serve::fleet::FleetRequest req;
    req.plan = &plan;
    req.deadline_ms = cfg.deadline_ms;
    for (size_t i = lo; i < hi; ++i) {
      // Tenant assignment hashes the global request index, so the mix is
      // identical whatever the thread count.
      req.tenant = TenantName(Mix64(tenant_stream ^ i) % cfg.tenants);
      (void)fleet.Predict(req);
      if (fake != nullptr) fake->AdvanceMillis(0.05);
      if (caller != 0) continue;
      // Chaos and the control plane run on caller 0's schedule.
      if (cfg.kill_every > 0 && (i + 1) % cfg.kill_every == 0) {
        const std::vector<uint32_t> alive = fleet.AliveReplicaIds();
        if (!alive.empty()) {
          const uint64_t k =
              kill_count.fetch_add(1, std::memory_order_relaxed);
          (void)fleet.KillReplica(
              alive[Mix64(kill_stream ^ k) % alive.size()]);
        }
      }
      if ((i + 1) % 256 == 0) (void)controller.Tick();
    }
  };
  if (callers <= 1) {
    drive(0);
  } else {
    std::vector<std::thread> drivers;
    drivers.reserve(callers);
    for (size_t c = 0; c < callers; ++c) drivers.emplace_back(drive, c);
    for (std::thread& t : drivers) t.join();
  }
  // Quiesce hedge losers still racing in the pool so the snapshot's
  // reconciliation invariants hold exactly.
  if (pool != nullptr) pool->Wait();

  const serve::fleet::FleetStats stats = fleet.Snapshot();
  const SimElapsed elapsed(clock, t_start, cfg.requests, fake != nullptr);
  if (format == OutputFormat::kJson) {
    std::ostringstream os;
    os.precision(17);
    os << "{\"mode\": \"fleet\", \"replicas\": " << cfg.replicas
       << ", \"tenants\": " << cfg.tenants
       << ", \"requests\": " << cfg.requests
       << ", \"threads\": " << cfg.threads
       << ", \"kill_replica_every\": " << cfg.kill_every
       << ", \"seed\": " << cfg.root_seed << ", " << elapsed.Json()
       << ", \"stats\": " << stats.ToJson() << "}";
    std::cout << os.str() << "\n";
  } else {
    std::cout << "fleet replayed " << cfg.requests << " request(s) from "
              << cfg.tenants << " tenant(s) across " << cfg.replicas
              << " replica(s) in " << elapsed.Text() << "\n"
              << stats.ToText();
  }
  return 0;
}

/// serve-sim --adapt configuration (see RunAdaptServeSim).
struct AdaptSimConfig {
  std::string registry_path;
  size_t adapt_every = 64;
  size_t drift_after = 0;  // 0 = never drift
  double drift_factor = 2.0;
  size_t plan_variants = 4;
};

/// Adaptation drill of serve-sim: the registry's live version serves a
/// fleet while a simulated ground-truth stream labels every execution.
/// After --drift-after requests the ground truth drifts, the live model's
/// q-errors trip the drift detector, and the AdaptationWorker fine-tunes,
/// shadow-scores, promotes and rolls the new version across the fleet
/// (or rejects / rolls back). Every random stream — fine-tune shuffling,
/// ground-truth noise, plan variants, tenants — derives from --seed, so
/// inline runs (--threads 0) replay bit-identically.
int RunAdaptServeSim(OutputFormat format, const dsp::ParallelQueryPlan& plan,
                     core::ZeroTuneModel* model,
                     const core::CostPredictor* fallback,
                     const serve::ServeOptions& sopts,
                     const FleetSimConfig& cfg, const AdaptSimConfig& acfg) {
  using serve::fleet::DeriveSeed;
  using serve::fleet::Mix64;
  namespace adaptation = serve::adaptation;

  std::unique_ptr<FakeClock> fake;
  std::unique_ptr<ThreadPool> pool;
  if (cfg.threads > 0) {
    pool = std::make_unique<ThreadPool>(cfg.threads);
  } else {
    fake = std::make_unique<FakeClock>();
  }
  Clock* clock = fake != nullptr ? static_cast<Clock*>(fake.get())
                                 : SystemClock::Default();

  ZT_ASSIGN_OR_RETURN_CLI(
      std::unique_ptr<core::registry::ModelRegistry> registry,
      core::registry::ModelRegistry::Open(acfg.registry_path));
  if (registry->live_version() == 0) {
    // First run against this registry: the --model becomes version 1.
    core::registry::VersionInfo info;
    info.source = "initial";
    ZT_ASSIGN_OR_RETURN_CLI(const uint64_t initial,
                            registry->Publish(model, info));
    const Status promoted = registry->Promote(initial, 0.0);
    if (!promoted.ok()) return Fail(promoted);
  }
  const uint64_t live_id = registry->live_version();
  ZT_ASSIGN_OR_RETURN_CLI(std::shared_ptr<const core::ZeroTuneModel> live,
                          registry->LoadVersion(live_id));

  serve::fleet::FleetOptions fopts;
  fopts.initial_replicas = cfg.replicas;
  fopts.replica = sopts;
  fopts.replica.model_version = live_id;
  fopts.hedge.enabled = cfg.hedge;
  auto factory = [live](uint32_t) -> std::unique_ptr<const core::CostPredictor> {
    return std::make_unique<adaptation::SharedModelPredictor>(live);
  };
  serve::fleet::PredictionFleet fleet(factory, fallback, fopts, pool.get(),
                                      clock);

  serve::fleet::ControllerOptions ctl;
  ctl.min_replicas = cfg.replicas;
  ctl.max_replicas = cfg.replicas;
  ctl.restart_delay_ms = cfg.restart_delay_ms;
  serve::fleet::FleetController controller(&fleet, ctl, clock);

  sim::GroundTruthOptions gopts;
  gopts.drift_factor = acfg.drift_factor;
  gopts.noise_seed = DeriveSeed(cfg.root_seed, 6);
  sim::GroundTruthStream truth({}, gopts);

  // Windows sized for a CLI drill: trip within tens of drifted requests,
  // decide the shadow race within ~a hundred mirrored executions.
  adaptation::AdaptationOptions aopts;
  aopts.seed = DeriveSeed(cfg.root_seed, 5);
  aopts.drift.window = 32;
  aopts.drift.min_samples = 8;
  aopts.shadow.min_samples = 16;
  aopts.shadow.max_samples = 128;
  aopts.min_pairs = 16;
  aopts.max_pairs = 256;
  aopts.rollout.pause_ms = 1.0;
  aopts.rollout.min_answers = 8;
  aopts.rollout.max_wait_ms = 64.0;
  adaptation::AdaptationWorker worker(registry.get(), &fleet, aopts, clock);

  // Plan variants diversify the drift window and the fine-tune set; the
  // variant stream is seeded, so the set is identical across replays.
  std::vector<dsp::ParallelQueryPlan> variants;
  variants.push_back(plan);
  {
    Rng vrng(DeriveSeed(cfg.root_seed, 7));
    const core::RandomEnumerator enumerator;
    while (variants.size() < acfg.plan_variants) {
      dsp::ParallelQueryPlan variant = plan;
      if (!enumerator.Assign(&variant, &vrng).ok() ||
          !variant.Validate().ok()) {
        break;  // keep whatever diversity we got
      }
      variants.push_back(std::move(variant));
    }
  }

  const uint64_t tenant_stream = DeriveSeed(cfg.root_seed, 3);
  const uint64_t variant_stream = DeriveSeed(cfg.root_seed, 7) ^ 0xada97;
  const int64_t t_start = clock->NowNanos();
  uint64_t tick_errors = 0;
  // Served q-errors under the drifted regime, bucketed by adaptation
  // progress: before the loop promotes a version fine-tuned on drifted
  // traffic vs after — the before/after the bench report tracks.
  std::vector<double> qe_drifted, qe_adapted;
  uint64_t promotions_seen = 0;
  uint64_t promotions_at_drift = 0;
  serve::fleet::FleetRequest req;
  req.deadline_ms = cfg.deadline_ms;
  for (size_t i = 0; i < cfg.requests; ++i) {
    if (acfg.drift_after > 0 && i == acfg.drift_after) {
      (void)truth.SetDrifted(true);
      promotions_at_drift = promotions_seen;
    }
    const dsp::ParallelQueryPlan& p =
        variants[Mix64(variant_stream ^ i) % variants.size()];
    req.tenant = TenantName(Mix64(tenant_stream ^ i) % cfg.tenants);
    req.plan = &p;
    const Result<serve::fleet::FleetPrediction> answer = fleet.Predict(req);
    if (fake != nullptr) fake->AdvanceMillis(0.05);
    if (answer.ok()) {
      const Result<sim::CostMeasurement> actual = truth.Measure(p);
      if (actual.ok()) {
        const adaptation::ObservedExecution exec{
            p, answer.value().served.cost.latency_ms,
            actual.value().latency_ms, actual.value().throughput_tps,
            "workload"};
        worker.Observe(exec);
        if (truth.drifted()) {
          const double qe = QError(exec.actual_latency_ms,
                                   exec.predicted_latency_ms);
          if (promotions_seen > promotions_at_drift) {
            qe_adapted.push_back(qe);
          } else {
            qe_drifted.push_back(qe);
          }
        }
      }
    }
    if ((i + 1) % acfg.adapt_every == 0) {
      if (!worker.Tick().ok()) ++tick_errors;
      promotions_seen = worker.snapshot().promotions;
    }
    if ((i + 1) % 256 == 0) (void)controller.Tick();
  }
  // Drain an in-flight rollout so the run ends in a settled state: with
  // no more traffic the rollout judges each remaining replica at its
  // max_wait timeout (0 answers = healthy).
  for (int guard = 0;
       worker.state() == adaptation::AdaptationWorker::State::kRollingOut &&
       guard < 10000;
       ++guard) {
    if (fake != nullptr) fake->AdvanceMillis(aopts.rollout.max_wait_ms);
    if (!worker.Tick().ok()) ++tick_errors;
  }
  if (pool != nullptr) pool->Wait();

  const serve::fleet::FleetStats stats = fleet.Snapshot();
  const adaptation::AdaptationWorker::Stats astats = worker.snapshot();
  const SimElapsed elapsed(clock, t_start, cfg.requests, fake != nullptr);
  const auto median_of = [](std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double qerror_drifted = median_of(qe_drifted);
  const double qerror_adapted = median_of(qe_adapted);
  const double last_rollout_ms =
      worker.rollout() != nullptr ? worker.rollout()->last_duration_ms()
                                  : 0.0;
  const auto adaptation_json = [&] {
    std::ostringstream os;
    os.precision(17);
    os << "{\"initial_version\": " << live_id
       << ", \"live_version\": " << astats.live_version
       << ", \"finetunes\": " << astats.finetunes
       << ", \"promotions\": " << astats.promotions
       << ", \"rejections\": " << astats.rejections
       << ", \"rollbacks\": " << astats.rollbacks
       << ", \"drift_observations\": " << astats.drift_observations
       << ", \"buffered_pairs\": " << astats.buffered_pairs
       << ", \"state\": \""
       << adaptation::AdaptationWorker::ToString(astats.state)
       << "\", \"registry_versions\": " << registry->Versions().size()
       << ", \"quarantined\": " << registry->Quarantined().size()
       << ", \"ground_truth_drifted\": "
       << (truth.drifted() ? "true" : "false")
       << ", \"median_qerror_drifted\": " << qerror_drifted
       << ", \"median_qerror_adapted\": " << qerror_adapted
       << ", \"last_rollout_ms\": " << last_rollout_ms
       << ", \"tick_errors\": " << tick_errors << "}";
    return os.str();
  };
  if (format == OutputFormat::kJson) {
    std::ostringstream os;
    os.precision(17);
    os << "{\"mode\": \"adapt\", \"replicas\": " << cfg.replicas
       << ", \"requests\": " << cfg.requests
       << ", \"threads\": " << cfg.threads
       << ", \"plan_variants\": " << variants.size()
       << ", \"adapt_every\": " << acfg.adapt_every
       << ", \"drift_after\": " << acfg.drift_after
       << ", \"drift_factor\": " << acfg.drift_factor
       << ", \"seed\": " << cfg.root_seed << ", " << elapsed.Json()
       << ", \"adaptation\": " << adaptation_json()
       << ", \"stats\": " << stats.ToJson() << "}";
    std::cout << os.str() << "\n";
  } else {
    std::cout << "adaptation drill: " << cfg.requests << " request(s) in "
              << elapsed.Text() << ", " << variants.size()
              << " plan variant(s), drift after "
              << acfg.drift_after << " (factor "
              << TextTable::Fmt(acfg.drift_factor) << ")\n"
              << "versions: initial " << live_id << " -> live "
              << astats.live_version << "; " << astats.finetunes
              << " fine-tune(s), " << astats.promotions
              << " promotion(s), " << astats.rejections
              << " rejection(s), " << astats.rollbacks
              << " rollback(s), state "
              << adaptation::AdaptationWorker::ToString(astats.state)
              << "\n"
              << "median q-error: drifted " << TextTable::Fmt(qerror_drifted)
              << " -> adapted " << TextTable::Fmt(qerror_adapted)
              << "; last rollout " << TextTable::Fmt(last_rollout_ms)
              << " ms\n"
              << stats.ToText();
  }
  return 0;
}

int CmdServeSim(const FlagParser& flags) {
  const std::string plan_path = flags.GetString("plan");
  if (plan_path.empty()) {
    return Fail(Status::InvalidArgument("--plan is required"));
  }
  auto plan = dsp::PlanIO::LoadParallelPlan(plan_path);
  if (!plan.ok()) return Fail(plan.status());
  ZT_ASSIGN_OR_RETURN_CLI(const OutputFormat format, ParseFormat(flags));
  ZT_ASSIGN_OR_RETURN_CLI(const int64_t requests,
                          flags.GetInt("requests", 1000));
  ZT_ASSIGN_OR_RETURN_CLI(const int64_t threads, flags.GetInt("threads", 4));
  ZT_ASSIGN_OR_RETURN_CLI(const int64_t queue, flags.GetInt("queue", 64));
  ZT_ASSIGN_OR_RETURN_CLI(const int64_t attempts,
                          flags.GetInt("attempts", 3));
  ZT_ASSIGN_OR_RETURN_CLI(const double deadline_ms,
                          flags.GetDouble("deadline-ms", 0.0));
  ZT_ASSIGN_OR_RETURN_CLI(const double fail_rate,
                          flags.GetDouble("fail-rate", 0.1));
  ZT_ASSIGN_OR_RETURN_CLI(const double slow_rate,
                          flags.GetDouble("slow-rate", 0.0));
  ZT_ASSIGN_OR_RETURN_CLI(const double slow_ms,
                          flags.GetDouble("slow-ms", 5.0));
  ZT_ASSIGN_OR_RETURN_CLI(const double base_latency_ms,
                          flags.GetDouble("base-latency-ms", 0.0));
  ZT_ASSIGN_OR_RETURN_CLI(const int64_t seed, flags.GetInt("seed", 7));
  ZT_ASSIGN_OR_RETURN_CLI(const int64_t replicas, flags.GetInt("replicas", 0));
  ZT_ASSIGN_OR_RETURN_CLI(const int64_t tenants, flags.GetInt("tenants", 1));
  ZT_ASSIGN_OR_RETURN_CLI(const int64_t kill_every,
                          flags.GetInt("kill-replica-every", 0));
  ZT_ASSIGN_OR_RETURN_CLI(const double restart_delay_ms,
                          flags.GetDouble("restart-delay-ms", 5.0));
  if (requests < 1) {
    return Fail(Status::InvalidArgument("--requests must be >= 1"));
  }
  if (threads < 0 || queue < 1 || attempts < 1) {
    return Fail(Status::InvalidArgument(
        "--threads must be >= 0, --queue and --attempts >= 1"));
  }
  if (replicas < 0 || tenants < 1 || kill_every < 0) {
    return Fail(Status::InvalidArgument(
        "--replicas and --kill-replica-every must be >= 0, --tenants >= 1"));
  }

  // Primary: the trained model when given, else the analytical oracle —
  // in both cases wrapped in the chaos decorator that injects the
  // configured failures/slowdowns (plus any --inject-faults timeline).
  std::unique_ptr<core::ZeroTuneModel> model;
  const std::string model_path = flags.GetString("model");
  if (!model_path.empty()) {
    auto loaded = core::ZeroTuneModel::LoadFromFile(model_path);
    if (!loaded.ok()) return Fail(loaded.status());
    model = std::move(loaded).value();
  }
  core::OraclePredictor oracle;
  const core::CostPredictor* inner =
      model != nullptr ? static_cast<const core::CostPredictor*>(model.get())
                       : &oracle;

  // Every random stream of the simulation — chaos injection, retry
  // jitter, tenant assignment, the kill schedule — derives from the one
  // --seed via DeriveSeed, so two invocations with identical flags replay
  // identical outcomes (bit-identical in inline mode).
  const uint64_t root_seed = static_cast<uint64_t>(seed);

  serve::ChaosPredictor::Options copts;
  copts.fail_rate = fail_rate;
  copts.slow_rate = slow_rate;
  copts.slow_ms = slow_ms;
  copts.base_latency_ms = base_latency_ms;
  copts.seed = serve::fleet::DeriveSeed(root_seed, 1);
  const std::string fault_spec = flags.GetString("inject-faults");
  if (!fault_spec.empty()) {
    ZT_ASSIGN_OR_RETURN_CLI(copts.faults, sim::FaultPlan::Parse(fault_spec));
  }
  const Status copts_ok = copts.Validate();
  if (!copts_ok.ok()) return Fail(copts_ok);

  // Fallback: always the cheap analytical oracle (degraded answers).
  core::OraclePredictor fallback;

  serve::ServeOptions sopts;
  sopts.max_inflight = static_cast<size_t>(queue);
  sopts.default_deadline_ms = deadline_ms;
  sopts.max_attempts = static_cast<size_t>(attempts);
  sopts.seed = serve::fleet::DeriveSeed(root_seed, 2);
  sopts.model_version = model != nullptr ? model->version() : 0;

  if (flags.GetBool("adapt")) {
    const std::string registry_path = flags.GetString("registry");
    if (model == nullptr || registry_path.empty()) {
      return Fail(Status::InvalidArgument(
          "--adapt requires --model and --registry"));
    }
    if (replicas < 1) {
      return Fail(Status::InvalidArgument(
          "--adapt requires --replicas >= 1 (the promoted version rolls "
          "across a fleet)"));
    }
    AdaptSimConfig acfg;
    acfg.registry_path = registry_path;
    ZT_ASSIGN_OR_RETURN_CLI(const int64_t adapt_every,
                            flags.GetInt("adapt-every", 64));
    ZT_ASSIGN_OR_RETURN_CLI(const int64_t drift_after,
                            flags.GetInt("drift-after", 0));
    ZT_ASSIGN_OR_RETURN_CLI(acfg.drift_factor,
                            flags.GetDouble("drift-factor", 2.0));
    ZT_ASSIGN_OR_RETURN_CLI(const int64_t plan_variants,
                            flags.GetInt("plan-variants", 4));
    if (adapt_every < 1 || drift_after < 0 || plan_variants < 1) {
      return Fail(Status::InvalidArgument(
          "--adapt-every and --plan-variants must be >= 1, "
          "--drift-after >= 0"));
    }
    acfg.adapt_every = static_cast<size_t>(adapt_every);
    acfg.drift_after = static_cast<size_t>(drift_after);
    acfg.plan_variants = static_cast<size_t>(plan_variants);

    FleetSimConfig cfg;
    cfg.requests = static_cast<size_t>(requests);
    cfg.threads = static_cast<size_t>(threads);
    cfg.replicas = static_cast<size_t>(replicas);
    cfg.tenants = static_cast<size_t>(tenants);
    cfg.restart_delay_ms = restart_delay_ms;
    cfg.hedge = !flags.GetBool("no-hedge");
    cfg.deadline_ms = deadline_ms;
    cfg.root_seed = root_seed;
    return RunAdaptServeSim(format, plan.value(), model.get(), &fallback,
                            sopts, cfg, acfg);
  }

  if (replicas > 0) {
    FleetSimConfig cfg;
    cfg.requests = static_cast<size_t>(requests);
    cfg.threads = static_cast<size_t>(threads);
    cfg.replicas = static_cast<size_t>(replicas);
    cfg.tenants = static_cast<size_t>(tenants);
    cfg.kill_every = static_cast<size_t>(kill_every);
    cfg.restart_delay_ms = restart_delay_ms;
    cfg.hedge = !flags.GetBool("no-hedge");
    cfg.autoscale = flags.GetBool("autoscale");
    cfg.deadline_ms = deadline_ms;
    cfg.root_seed = root_seed;
    return RunFleetServeSim(format, plan.value(), inner, &fallback, copts,
                            sopts, cfg);
  }

  serve::ChaosPredictor chaos(inner, copts, /*clock=*/nullptr);
  serve::PredictionService service(&chaos, &fallback, sopts,
                                   /*clock=*/nullptr);

  // Replay: `threads` caller threads (1 when 0) split the trace and fire
  // back-to-back requests against the same deployment.
  const size_t callers = threads > 0 ? static_cast<size_t>(threads) : 1;
  const size_t total = static_cast<size_t>(requests);
  auto drive = [&](size_t caller) {
    const size_t share = (total + callers - 1) / callers;
    const size_t lo = caller * share;
    const size_t hi = std::min(total, lo + share);
    for (size_t i = lo; i < hi; ++i) {
      // Outcome (value, shed, expired, degraded) lands in the stats; a
      // trace replay has no per-request consumer.
      (void)service.Predict(plan.value());
    }
  };
  if (callers <= 1) {
    drive(0);
  } else {
    std::vector<std::thread> drivers;
    drivers.reserve(callers);
    for (size_t c = 0; c < callers; ++c) drivers.emplace_back(drive, c);
    for (std::thread& t : drivers) t.join();
  }

  const serve::ServiceStats stats = service.Snapshot();
  if (format == OutputFormat::kJson) {
    std::cout << stats.ToJson() << "\n";
  } else {
    std::cout << "replayed " << total << " request(s), "
              << chaos.injected_failures() << " injected failure(s)\n"
              << stats.ToText() << "\nmetrics registry:\n"
              << obs::MetricsRegistry::Global()->ToText();
  }
  return 0;
}

/// Registry maintenance: list versions, seed an initial version from a
/// model file, promote/reject a candidate, roll back the live version.
int CmdAdapt(const FlagParser& flags) {
  const std::string registry_path = flags.GetString("registry");
  if (registry_path.empty()) {
    return Fail(Status::InvalidArgument("--registry is required"));
  }
  ZT_ASSIGN_OR_RETURN_CLI(const OutputFormat format, ParseFormat(flags));
  ZT_ASSIGN_OR_RETURN_CLI(
      std::unique_ptr<core::registry::ModelRegistry> registry,
      core::registry::ModelRegistry::Open(registry_path));

  const std::string init_from = flags.GetString("init-from");
  ZT_ASSIGN_OR_RETURN_CLI(const int64_t promote_id,
                          flags.GetInt("promote", 0));
  ZT_ASSIGN_OR_RETURN_CLI(const int64_t reject_id, flags.GetInt("reject", 0));
  const bool rollback = flags.GetBool("rollback");
  const int actions = (init_from.empty() ? 0 : 1) + (promote_id > 0 ? 1 : 0) +
                      (reject_id > 0 ? 1 : 0) + (rollback ? 1 : 0);
  if (actions > 1) {
    return Fail(Status::InvalidArgument(
        "--init-from, --promote, --reject and --rollback are mutually "
        "exclusive"));
  }

  if (!init_from.empty()) {
    ZT_ASSIGN_OR_RETURN_CLI(std::unique_ptr<core::ZeroTuneModel> model,
                            core::ZeroTuneModel::LoadFromFile(init_from));
    core::registry::VersionInfo info;
    info.source = "initial";
    ZT_ASSIGN_OR_RETURN_CLI(const uint64_t id,
                            registry->Publish(model.get(), info));
    const Status promoted = registry->Promote(id, 0.0);
    if (!promoted.ok()) return Fail(promoted);
  } else if (promote_id > 0) {
    const Status s =
        registry->Promote(static_cast<uint64_t>(promote_id), 0.0);
    if (!s.ok()) return Fail(s);
  } else if (reject_id > 0) {
    const Status s = registry->Reject(static_cast<uint64_t>(reject_id));
    if (!s.ok()) return Fail(s);
  } else if (rollback) {
    auto back = registry->Rollback();
    if (!back.ok()) return Fail(back.status());
  }

  const std::vector<core::registry::VersionInfo> versions =
      registry->Versions();
  const std::vector<core::registry::QuarantinedVersion> quarantined =
      registry->Quarantined();
  if (format == OutputFormat::kJson) {
    std::ostringstream os;
    os.precision(17);
    os << "{\"root\": \"" << JsonEscape(registry->root())
       << "\", \"live_version\": " << registry->live_version()
       << ", \"versions\": [";
    for (size_t i = 0; i < versions.size(); ++i) {
      const core::registry::VersionInfo& v = versions[i];
      os << (i > 0 ? ", " : "") << "{\"id\": " << v.id << ", \"state\": \""
         << core::registry::VersionStateName(v.state)
         << "\", \"parent\": " << v.parent
         << ", \"created_seq\": " << v.created_seq
         << ", \"median_qerror\": " << JsonNum(v.median_qerror)
         << ", \"source\": \"" << JsonEscape(v.source) << "\"}";
    }
    os << "], \"quarantined\": [";
    for (size_t i = 0; i < quarantined.size(); ++i) {
      const core::registry::QuarantinedVersion& q = quarantined[i];
      os << (i > 0 ? ", " : "") << "{\"id\": " << q.id << ", \"file\": \""
         << JsonEscape(q.file) << "\", \"reason\": \""
         << JsonEscape(q.reason) << "\"}";
    }
    os << "]}";
    std::cout << os.str() << "\n";
    return 0;
  }
  std::cout << "registry " << registry->root() << ": live version "
            << registry->live_version() << ", " << versions.size()
            << " version(s), " << quarantined.size() << " quarantined\n";
  if (!versions.empty()) {
    TextTable table({"Id", "State", "Parent", "Seq", "Median q-error",
                     "Source"});
    for (const core::registry::VersionInfo& v : versions) {
      table.AddRow({std::to_string(v.id),
                    core::registry::VersionStateName(v.state),
                    std::to_string(v.parent), std::to_string(v.created_seq),
                    TextTable::Fmt(v.median_qerror), v.source});
    }
    table.Print(std::cout);
  }
  for (const core::registry::QuarantinedVersion& q : quarantined) {
    std::cout << "quarantined version " << q.id << ": " << q.file << " ("
              << q.reason << ")\n";
  }
  return 0;
}

int CmdDot(const FlagParser& flags) {
  const std::string deployed = flags.GetString("deployed");
  const std::string query = flags.GetString("query");
  if (!deployed.empty()) {
    auto plan = dsp::PlanIO::LoadParallelPlan(deployed);
    if (!plan.ok()) return Fail(plan.status());
    std::cout << dsp::DotExport::ParallelPlanDot(plan.value());
    return 0;
  }
  if (!query.empty()) {
    auto plan = LoadLogicalPlan(query);
    if (!plan.ok()) return Fail(plan.status());
    std::cout << dsp::DotExport::QueryPlanDot(plan.value());
    return 0;
  }
  return Fail(Status::InvalidArgument("--query or --deployed is required"));
}

/// Wraps an instrumented subcommand with --metrics-out / --trace-out
/// handling: tracing is switched on before the command runs, and both
/// exports are written after it returns — success or failure — so a
/// failed run still leaves its observability artifacts behind. A failing
/// export never masks the command's own exit code.
int RunWithObs(const FlagParser& flags, int (*cmd)(const FlagParser&)) {
  const std::string metrics_out = flags.GetString("metrics-out");
  const std::string trace_out = flags.GetString("trace-out");
  if (!trace_out.empty()) obs::TraceRecorder::Global()->Enable();
  const int rc = cmd(flags);
  int export_rc = 0;
  if (!metrics_out.empty()) {
    const Status s = obs::MetricsRegistry::Global()->WriteJson(metrics_out);
    if (!s.ok()) {
      std::cerr << "error: writing --metrics-out: " << s.ToString() << "\n";
      export_rc = 1;
    }
  }
  if (!trace_out.empty()) {
    obs::TraceRecorder::Global()->Disable();
    const Status s =
        obs::TraceRecorder::Global()->WriteChromeJson(trace_out);
    if (!s.ok()) {
      std::cerr << "error: writing --trace-out: " << s.ToString() << "\n";
      export_rc = 1;
    }
  }
  return rc != 0 ? rc : export_rc;
}

}  // namespace
}  // namespace zerotune

int main(int argc, char** argv) {
  using namespace zerotune;
  FlagParser flags(argc, argv);
  if (flags.positional().empty()) {
    PrintUsage();
    return 1;
  }
  const std::string& command = flags.positional()[0];
  if (command == "collect") return CmdCollect(flags);
  if (command == "train") return RunWithObs(flags, CmdTrain);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "compile") return CmdCompile(flags);
  if (command == "predict") return RunWithObs(flags, CmdPredict);
  if (command == "tune") return RunWithObs(flags, CmdTune);
  if (command == "simulate") return CmdSimulate(flags);
  if (command == "recover") return CmdRecover(flags);
  if (command == "explain") return CmdExplain(flags);
  if (command == "lint") return CmdLint(flags);
  if (command == "serve-sim") return RunWithObs(flags, CmdServeSim);
  if (command == "adapt") return CmdAdapt(flags);
  if (command == "dot") return CmdDot(flags);
  PrintUsage();
  return command == "help" ? 0 : 1;
}
