// End-to-end tests of the zerotune_cli binary: every subcommand is run as
// a real subprocess against temp files, covering the full workflow
// compile -> collect -> train -> evaluate -> tune -> predict -> simulate
// -> explain -> dot. The binary path is injected by CMake.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <string>

#ifndef ZT_CLI_PATH
#error "ZT_CLI_PATH must be defined by the build"
#endif

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult RunCli(const std::string& args) {
  const std::string cmd = std::string(ZT_CLI_PATH) + " " + args + " 2>&1";
  std::array<char, 4096> buffer{};
  CommandResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/zt_cli_" + name;
}

class CliWorkflowTest : public ::testing::Test {
 protected:
  // The heavy artifacts (corpus, model) are produced once per suite.
  static void SetUpTestSuite() {
    // DSL -> plan.
    const std::string dsl = TempPath("query.dsl");
    {
      std::ofstream f(dsl);
      f << "source(rate=150000, schema=ddi)\n"
           "  | filter(sel=0.6)\n"
           "  | aggregate(fn=avg, key=int, window=count:tumbling:50, "
           "sel=0.2)\n"
           "  | sink\n";
    }
    auto r = RunCli("compile --dsl " + dsl + " --out " + TempPath("q.plan"));
    ASSERT_EQ(r.exit_code, 0) << r.output;

    r = RunCli("collect --count 80 --seed 5 --out " + TempPath("corpus.txt"));
    ASSERT_EQ(r.exit_code, 0) << r.output;

    r = RunCli("train --corpus " + TempPath("corpus.txt") +
               " --model-out " + TempPath("model.txt") +
               " --epochs 6 --hidden 16");
    ASSERT_EQ(r.exit_code, 0) << r.output;
  }

  static void TearDownTestSuite() {
    for (const char* f : {"query.dsl", "q.plan", "corpus.txt", "model.txt",
                          "tuned.plan"}) {
      std::remove(TempPath(f).c_str());
    }
  }
};

TEST_F(CliWorkflowTest, HelpListsCommands) {
  const auto r = RunCli("help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("collect"), std::string::npos);
  EXPECT_NE(r.output.find("tune"), std::string::npos);
}

TEST_F(CliWorkflowTest, UnknownCommandFails) {
  EXPECT_NE(RunCli("frobnicate").exit_code, 0);
}

TEST_F(CliWorkflowTest, CompileRejectsBadDsl) {
  const std::string bad = TempPath("bad.dsl");
  {
    std::ofstream f(bad);
    f << "source(rate=1) | sink\n";  // missing schema
  }
  const auto r = RunCli("compile --dsl " + bad + " --out /tmp/x.plan");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("error"), std::string::npos);
  std::remove(bad.c_str());
}

TEST_F(CliWorkflowTest, EvaluateReportsQErrors) {
  const auto r = RunCli("evaluate --corpus " + TempPath("corpus.txt") +
                        " --model " + TempPath("model.txt"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("overall"), std::string::npos);
}

TEST_F(CliWorkflowTest, TunePredictSimulateExplainChain) {
  auto r = RunCli("tune --model " + TempPath("model.txt") + " --query " +
                  TempPath("q.plan") + " --cluster m510:4 --out " +
                  TempPath("tuned.plan"));
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("predicted latency"), std::string::npos);

  r = RunCli("predict --model " + TempPath("model.txt") + " --plan " +
             TempPath("tuned.plan"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("predicted throughput"), std::string::npos);

  r = RunCli("simulate --plan " + TempPath("tuned.plan"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("analytical"), std::string::npos);

  r = RunCli("explain --model " + TempPath("model.txt") + " --plan " +
             TempPath("tuned.plan") + " --top 3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("attributions"), std::string::npos);
}

TEST_F(CliWorkflowTest, PredictBatchScoresManyPlansAndEmitsJson) {
  // Produce two deployments of the same query, then score both in one
  // batched predict call.
  const std::string plan_a = TempPath("batch_a.plan");
  const std::string plan_b = TempPath("batch_b.plan");
  auto r = RunCli("tune --model " + TempPath("model.txt") + " --query " +
                  TempPath("q.plan") + " --cluster m510:4 --out " + plan_a);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  r = RunCli("tune --model " + TempPath("model.txt") + " --query " +
             TempPath("q.plan") + " --cluster m510:2 --out " + plan_b);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  const std::string list = TempPath("batch_list.txt");
  {
    std::ofstream f(list);
    f << plan_a << "\n" << plan_b << "\n";
  }
  // Human-readable table by default.
  r = RunCli("predict --model " + TempPath("model.txt") + " --batch " + list);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("Pred latency"), std::string::npos);

  // JSON mode: one prediction object per plan.
  r = RunCli("predict --model " + TempPath("model.txt") + " --batch " + list +
             " --format json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"predictions\""), std::string::npos);
  EXPECT_NE(r.output.find("\"latency_ms\""), std::string::npos);
  EXPECT_NE(r.output.find("\"throughput_tps\""), std::string::npos);

  // A dead path inside the list fails with the offending file named.
  {
    std::ofstream f(list);
    f << plan_a << "\n" << TempPath("no_such.plan") << "\n";
  }
  r = RunCli("predict --model " + TempPath("model.txt") + " --batch " + list);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("no_such.plan"), std::string::npos);

  // --plan and --batch are mutually exclusive.
  r = RunCli("predict --model " + TempPath("model.txt") + " --plan " + plan_a +
             " --batch " + list);
  EXPECT_NE(r.exit_code, 0);

  std::remove(plan_a.c_str());
  std::remove(plan_b.c_str());
  std::remove(list.c_str());
}

TEST_F(CliWorkflowTest, JsonFormatSharedByPredictTuneRecover) {
  const std::string plan = TempPath("json_chain.plan");
  auto r = RunCli("tune --model " + TempPath("model.txt") + " --query " +
                  TempPath("q.plan") + " --cluster m510:3 --out " + plan +
                  " --format json");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"operators\""), std::string::npos);
  EXPECT_NE(r.output.find("\"candidates_evaluated\""), std::string::npos);
  EXPECT_NE(r.output.find("\"candidates_rejected\""), std::string::npos);
  // Human chatter is suppressed in json mode.
  EXPECT_EQ(r.output.find("predicted latency"), std::string::npos);

  r = RunCli("predict --model " + TempPath("model.txt") + " --plan " + plan +
             " --format json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"latency_ms\""), std::string::npos);

  r = RunCli("recover --model " + TempPath("model.txt") + " --plan " + plan +
             " --failed-node 1 --format json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"failed_node\""), std::string::npos);
  EXPECT_NE(r.output.find("\"migration_pause_ms\""), std::string::npos);

  // Unknown formats are rejected.
  r = RunCli("predict --model " + TempPath("model.txt") + " --plan " + plan +
             " --format yaml");
  EXPECT_NE(r.exit_code, 0);

  std::remove(plan.c_str());
}

TEST_F(CliWorkflowTest, TunePrescreenReportsTierCounts) {
  const std::string plan = TempPath("prescreen.plan");
  auto r = RunCli("tune --model " + TempPath("model.txt") + " --query " +
                  TempPath("q.plan") + " --cluster m510:4 --prescreen"
                  " --out " + plan + " --format json");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"candidates_prescreened\""), std::string::npos);
  EXPECT_NE(r.output.find("\"prescreen_kept\""), std::string::npos);
  // And disabled, the counts are reported as zero.
  r = RunCli("tune --model " + TempPath("model.txt") + " --query " +
             TempPath("q.plan") + " --cluster m510:4 --format json");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"candidates_prescreened\": 0"),
            std::string::npos);
  // Human mode narrates the cut.
  r = RunCli("tune --model " + TempPath("model.txt") + " --query " +
             TempPath("q.plan") + " --cluster m510:4 --prescreen");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("analytical pre-screen"), std::string::npos);
  // Bad keep fractions are rejected loudly.
  r = RunCli("tune --model " + TempPath("model.txt") + " --query " +
             TempPath("q.plan") + " --cluster m510:4 --prescreen"
             " --prescreen-keep 2.0");
  EXPECT_NE(r.exit_code, 0);
  std::remove(plan.c_str());
}

TEST_F(CliWorkflowTest, ExplainSegmentsNarratesTheAnalyticalModel) {
  const std::string plan = TempPath("segments.plan");
  auto r = RunCli("tune --model " + TempPath("model.txt") + " --query " +
                  TempPath("q.plan") + " --cluster m510:4 --out " + plan);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  r = RunCli("explain --model " + TempPath("model.txt") + " --plan " + plan +
             " --segments");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("segment decomposition"), std::string::npos);
  EXPECT_NE(r.output.find("pipeline["), std::string::npos);
  EXPECT_NE(r.output.find("map-reduce["), std::string::npos);
  EXPECT_NE(r.output.find("closure"), std::string::npos);

  r = RunCli("explain --model " + TempPath("model.txt") + " --plan " + plan +
             " --segments --format json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"segments\""), std::string::npos);
  EXPECT_NE(r.output.find("\"kind\""), std::string::npos);
  EXPECT_NE(r.output.find("\"closure\""), std::string::npos);
  EXPECT_NE(r.output.find("\"latency_coefficient\""), std::string::npos);
  std::remove(plan.c_str());
}

TEST_F(CliWorkflowTest, DotRendersQueryAndDeployment) {
  auto r = RunCli("dot --query " + TempPath("q.plan"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("digraph query"), std::string::npos);
}

TEST_F(CliWorkflowTest, MissingFlagsProduceErrors) {
  EXPECT_NE(RunCli("train").exit_code, 0);
  EXPECT_NE(RunCli("predict --model /nonexistent").exit_code, 0);
  EXPECT_NE(RunCli("tune --model x").exit_code, 0);
}

TEST_F(CliWorkflowTest, SimulateWithFaultsAndRecover) {
  const std::string plan = TempPath("chaos.plan");
  auto r = RunCli("tune --model " + TempPath("model.txt") + " --query " +
                  TempPath("q.plan") + " --cluster m510:3 --out " + plan);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  // Chaos run: crash one node two simulated seconds in.
  r = RunCli("simulate --plan " + plan +
             " --inject-faults \"crash@2:node=1\"");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("injected 1 fault(s)"), std::string::npos);
  EXPECT_NE(r.output.find("tuples lost"), std::string::npos);

  // Malformed fault specs are rejected with a parse error.
  r = RunCli("simulate --plan " + plan + " --inject-faults \"boom@2\"");
  EXPECT_NE(r.exit_code, 0);

  // Failure-aware re-optimization onto the two survivors.
  const std::string recovered = TempPath("recovered.plan");
  r = RunCli("recover --model " + TempPath("model.txt") + " --plan " + plan +
             " --failed-node 1 --out " + recovered);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("migration pause"), std::string::npos);
  // The recovered plan is directly simulatable.
  r = RunCli("simulate --plan " + recovered);
  EXPECT_EQ(r.exit_code, 0) << r.output;

  r = RunCli("recover --model " + TempPath("model.txt") + " --plan " + plan +
             " --failed-node 9");
  EXPECT_NE(r.exit_code, 0);

  std::remove(plan.c_str());
  std::remove(recovered.c_str());
}

// `zerotune lint` exit-code contract: 0 clean, 1 warnings only,
// 2 errors (or any finding under --strict; usage/IO problems also 2).
// Plain TESTs: lint needs no model/corpus, so skip the heavy suite setup.
void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  f << content;
}

constexpr char kCleanPlan[] =
    "zerotune-plan-v1\n"
    "source id=0 rate=1000 schema=ddd\n"
    "filter id=1 in=0 fn=1 literal=2 sel=0.5\n"
    "sink id=2 in=1\n";

// Event rate above the trained envelope: a warning, not an error.
constexpr char kWarnPlan[] =
    "zerotune-plan-v1\n"
    "source id=0 rate=5000000 schema=ddd\n"
    "filter id=1 in=0 fn=1 literal=2 sel=0.5\n"
    "sink id=2 in=1\n";

// Cycle + over-parallelized + keyed aggregate on rebalance.
constexpr char kBrokenPlan[] =
    "zerotune-plan-v1\n"
    "source id=0 rate=1000 schema=ddd\n"
    "filter id=1 in=3 fn=1 literal=2 sel=0.5\n"
    "aggregate id=2 in=1 fn=2 agg_class=2 key_class=1 keyed=1"
    " wtype=0 wpolicy=0 wlen=10 wslide=10 sel=0.1\n"
    "filter id=3 in=2 fn=1 literal=2 sel=0.5\n"
    "sink id=4 in=0\n"
    "cluster node=m510 cores=4 ghz=2 mem=64 net=10\n"
    "deploy id=1 p=64 part=1\n"
    "deploy id=2 p=8 part=1\n";

TEST(CliLintTest, CleanPlanExitsZero) {
  const std::string plan = TempPath("lint_clean.plan");
  WriteFile(plan, kCleanPlan);
  const auto r = RunCli("lint " + plan);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 error(s), 0 warning(s)"), std::string::npos)
      << r.output;
  std::remove(plan.c_str());
}

TEST(CliLintTest, WarningsOnlyExitOneAndStrictExitTwo) {
  const std::string plan = TempPath("lint_warn.plan");
  WriteFile(plan, kWarnPlan);
  auto r = RunCli("lint " + plan);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("ZT-P014"), std::string::npos) << r.output;
  r = RunCli("lint " + plan + " --strict");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  std::remove(plan.c_str());
}

TEST(CliLintTest, BrokenPlanReportsEveryDefectAndExitsTwo) {
  const std::string plan = TempPath("lint_broken.plan");
  WriteFile(plan, kBrokenPlan);
  const auto r = RunCli("lint " + plan);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  // All defects surface in one pass.
  EXPECT_NE(r.output.find("ZT-P006"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("ZT-P016"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("ZT-P017"), std::string::npos) << r.output;
  std::remove(plan.c_str());
}

TEST(CliLintTest, JsonFormatEmitsStructuredFindings) {
  const std::string plan = TempPath("lint_json.plan");
  WriteFile(plan, kBrokenPlan);
  const auto r = RunCli("lint " + plan + " --format json");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("\"diagnostics\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"ZT-P016\""), std::string::npos) << r.output;
  std::remove(plan.c_str());
}

TEST(CliLintTest, DegenerateSegmentWarnsP026) {
  const std::string plan = TempPath("lint_degenerate.plan");
  WriteFile(plan,
            "zerotune-plan-v1\n"
            "source id=0 rate=1000 schema=dd\n"
            "sink id=1 in=0\n");
  const auto r = RunCli("lint " + plan);
  EXPECT_EQ(r.exit_code, 1) << r.output;  // warning, not an error
  EXPECT_NE(r.output.find("ZT-P026"), std::string::npos) << r.output;
  std::remove(plan.c_str());
}

TEST(CliLintTest, UsageAndIOErrorsExitTwo) {
  EXPECT_EQ(RunCli("lint").exit_code, 2);
  EXPECT_EQ(RunCli("lint /nonexistent/zt.plan").exit_code, 2);
  const std::string plan = TempPath("lint_fmt.plan");
  WriteFile(plan, kCleanPlan);
  EXPECT_EQ(RunCli("lint " + plan + " --format yaml").exit_code, 2);
  std::remove(plan.c_str());
}

TEST_F(CliWorkflowTest, ServeSimReplaysTraceAndReportsStats) {
  const std::string plan = TempPath("serve.plan");
  auto r = RunCli("tune --model " + TempPath("model.txt") + " --query " +
                  TempPath("q.plan") + " --cluster m510:3 --out " + plan);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  // Oracle-primary replay under 20% chaos: every request must be
  // answered and the counter report printed.
  r = RunCli("serve-sim --plan " + plan +
             " --requests 200 --threads 2 --fail-rate 0.2 --seed 9");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("replayed 200 request(s)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("received 200"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("breaker:"), std::string::npos) << r.output;

  // JSON stats snapshot; single attempt at 90% failure must trip the
  // breaker yet still answer every request via the fallback.
  r = RunCli("serve-sim --plan " + plan +
             " --requests 100 --threads 0 --fail-rate 0.9 --attempts 1"
             " --format json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"received\": 100"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"breaker_state\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"degraded\""), std::string::npos) << r.output;

  // A trained model can serve as the primary.
  r = RunCli("serve-sim --plan " + plan + " --model " + TempPath("model.txt") +
             " --requests 50 --threads 0 --fail-rate 0");
  EXPECT_EQ(r.exit_code, 0) << r.output;

  // The plan flag is mandatory.
  EXPECT_NE(RunCli("serve-sim").exit_code, 0);

  std::remove(plan.c_str());
}

TEST_F(CliWorkflowTest, ServeSimFleetModeIsSeededAndDeterministic) {
  const std::string plan = TempPath("fleet.plan");
  auto r = RunCli("tune --model " + TempPath("model.txt") + " --query " +
                  TempPath("q.plan") + " --cluster m510:3 --out " + plan);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  // Inline fleet chaos drill (--threads 0 = FakeClock): the whole run —
  // tenant assignment, chaos, kill schedule, hedging — derives from the
  // one root --seed, so identical invocations are byte-identical.
  const std::string cmd =
      "serve-sim --plan " + plan +
      " --requests 800 --threads 0 --replicas 4 --tenants 32"
      " --kill-replica-every 200 --fail-rate 0.05 --seed 11 --format json";
  r = RunCli(cmd);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"mode\": \"fleet\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"received\": 800"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"kills\""), std::string::npos) << r.output;
  const auto replay = RunCli(cmd);
  EXPECT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_EQ(r.output, replay.output) << "seeded fleet run is not replayable";

  // A different root seed must change the outcome.
  const auto other = RunCli(
      "serve-sim --plan " + plan +
      " --requests 800 --threads 0 --replicas 4 --tenants 32"
      " --kill-replica-every 200 --fail-rate 0.05 --seed 12 --format json");
  EXPECT_EQ(other.exit_code, 0) << other.output;
  EXPECT_NE(r.output, other.output);

  // Text mode prints the fleet summary; bad flag values are usage errors.
  r = RunCli("serve-sim --plan " + plan +
             " --requests 100 --threads 0 --replicas 2 --tenants 8");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("fleet replayed 100 request(s)"),
            std::string::npos)
      << r.output;
  EXPECT_NE(RunCli("serve-sim --plan " + plan + " --replicas -1").exit_code,
            0);
  EXPECT_NE(RunCli("serve-sim --plan " + plan +
                   " --replicas 2 --tenants 0").exit_code,
            0);

  std::remove(plan.c_str());
}

// Inline replays (--threads 0) run on a FakeClock: their elapsed time
// and request rate are virtual and carry virtual_* keys; pooled replays
// run on the system clock and keep wall_s / rps.
TEST_F(CliWorkflowTest, ServeSimLabelsVirtualTime) {
  const std::string plan = TempPath("virtual_time.plan");
  auto r = RunCli("tune --model " + TempPath("model.txt") + " --query " +
                  TempPath("q.plan") + " --cluster m510:3 --out " + plan);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const auto expect_keys = [](const CommandResult& run, bool is_virtual) {
    EXPECT_EQ(run.exit_code, 0) << run.output;
    const bool has_virtual =
        run.output.find("\"virtual_s\": ") != std::string::npos &&
        run.output.find("\"virtual_rps\": ") != std::string::npos;
    const bool has_wall =
        run.output.find("\"wall_s\": ") != std::string::npos ||
        run.output.find("\"rps\": ") != std::string::npos;
    EXPECT_EQ(has_virtual, is_virtual) << run.output;
    EXPECT_EQ(has_wall, !is_virtual) << run.output;
  };
  const std::string fleet =
      "serve-sim --plan " + plan + " --requests 200 --replicas 2 --seed 4";
  expect_keys(RunCli(fleet + " --threads 0 --format json"), true);
  expect_keys(RunCli(fleet + " --threads 2 --format json"), false);

  const std::string reg = TempPath("virtual_time_reg");
  std::filesystem::remove_all(reg);
  const std::string adapt = "serve-sim --plan " + plan + " --model " +
                            TempPath("model.txt") + " --adapt --registry " +
                            reg + " --requests 64 --replicas 2 --seed 4";
  expect_keys(RunCli(adapt + " --threads 0 --format json"), true);
  r = RunCli(adapt + " --threads 0");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("req/s, virtual time)"), std::string::npos)
      << r.output;
  expect_keys(RunCli(adapt + " --threads 2 --format json"), false);

  std::filesystem::remove_all(reg);
  std::remove(plan.c_str());
}

TEST_F(CliWorkflowTest, AdaptCommandManagesRegistryLifecycle) {
  const std::string reg = TempPath("adapt_cmd_reg");
  std::filesystem::remove_all(reg);

  auto r = RunCli("adapt --registry " + reg + " --init-from " +
                  TempPath("model.txt") + " --format json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"live_version\": 1"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"source\": \"initial\""), std::string::npos)
      << r.output;

  // Plain listing (human table) shows the live version.
  r = RunCli("adapt --registry " + reg);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("live"), std::string::npos) << r.output;

  // v1 was trained from scratch: there is no parent to roll back to.
  EXPECT_NE(RunCli("adapt --registry " + reg + " --rollback").exit_code, 0);
  // The live version is not a candidate and cannot be rejected.
  EXPECT_NE(RunCli("adapt --registry " + reg + " --reject 1").exit_code, 0);
  // --registry is mandatory.
  EXPECT_NE(RunCli("adapt").exit_code, 0);

  std::filesystem::remove_all(reg);
}

TEST_F(CliWorkflowTest, ServeSimAdaptDrillIsSeededAndDeterministic) {
  const std::string plan = TempPath("adapt.plan");
  auto r = RunCli("tune --model " + TempPath("model.txt") + " --query " +
                  TempPath("q.plan") + " --cluster m510:3 --out " + plan);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  const std::string reg1 = TempPath("adapt_reg1");
  const std::string reg2 = TempPath("adapt_reg2");
  std::filesystem::remove_all(reg1);
  std::filesystem::remove_all(reg2);

  // The full online-adaptation drill: ground truth drifts 3x at request
  // 100, the worker fine-tunes, shadow-scores, promotes, and rolls the
  // new version across the fleet — all on the FakeClock (--threads 0),
  // all derived from the one root --seed.
  const std::string args =
      " --requests 400 --threads 0 --replicas 2 --tenants 8"
      " --adapt-every 32 --drift-after 100 --drift-factor 3"
      " --seed 9 --format json";
  r = RunCli("serve-sim --plan " + plan + " --model " + TempPath("model.txt") +
             " --adapt --registry " + reg1 + args);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"mode\": \"adapt\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"initial_version\": 1"), std::string::npos)
      << r.output;
  // The drill adapted: at least one fine-tune ran and nothing errored.
  EXPECT_EQ(r.output.find("\"finetunes\": 0"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"tick_errors\": 0"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"availability\": 1"), std::string::npos)
      << r.output;

  // Byte-identical replay from the same seed — even into a different
  // (fresh) registry directory.
  const auto replay =
      RunCli("serve-sim --plan " + plan + " --model " + TempPath("model.txt") +
             " --adapt --registry " + reg2 + args);
  EXPECT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_EQ(r.output, replay.output) << "seeded adapt drill is not replayable";

  // The adapt command inspects what the drill left behind.
  r = RunCli("adapt --registry " + reg1 + " --format json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"state\": \"live\""), std::string::npos)
      << r.output;

  // --adapt needs both a model and a registry.
  EXPECT_NE(RunCli("serve-sim --plan " + plan + " --adapt --registry " +
                   reg1 + " --requests 10 --threads 0 --replicas 2")
                .exit_code,
            0);
  EXPECT_NE(RunCli("serve-sim --plan " + plan + " --model " +
                   TempPath("model.txt") + " --adapt --requests 10"
                   " --threads 0 --replicas 2")
                .exit_code,
            0);

  std::filesystem::remove_all(reg1);
  std::filesystem::remove_all(reg2);
  std::remove(plan.c_str());
}

TEST_F(CliWorkflowTest, DeadlineBudgetsExitThreeWithPartialJson) {
  const std::string plan = TempPath("deadline.plan");
  auto r = RunCli("tune --model " + TempPath("model.txt") + " --query " +
                  TempPath("q.plan") + " --cluster m510:3 --out " + plan);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  // A hopeless budget: partial JSON + exit code 3 on every command.
  r = RunCli("predict --model " + TempPath("model.txt") + " --plan " + plan +
             " --deadline-ms 0.0000001 --format json");
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("\"deadline_exceeded\": true"), std::string::npos)
      << r.output;

  r = RunCli("tune --model " + TempPath("model.txt") + " --query " +
             TempPath("q.plan") + " --cluster m510:3 --out " +
             TempPath("dl_tuned.plan") + " --deadline-ms 0.0000001"
             " --format json");
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("\"deadline_exceeded\": true"), std::string::npos)
      << r.output;

  r = RunCli("recover --model " + TempPath("model.txt") + " --plan " + plan +
             " --failed-node 1 --deadline-ms 0.0000001 --format json");
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("\"deadline_exceeded\": true"), std::string::npos)
      << r.output;

  // A generous budget completes normally.
  r = RunCli("predict --model " + TempPath("model.txt") + " --plan " + plan +
             " --deadline-ms 60000 --format json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"latency_ms\""), std::string::npos) << r.output;

  std::remove(plan.c_str());
  std::remove(TempPath("dl_tuned.plan").c_str());
}

TEST_F(CliWorkflowTest, TrainCheckpointsAndResumes) {
  const std::string ckpt = TempPath("cli.ckpt");
  const std::string model = TempPath("cli_resume_model.txt");
  auto r = RunCli("train --corpus " + TempPath("corpus.txt") +
                  " --model-out " + model + " --epochs 2 --hidden 8" +
                  " --checkpoint " + ckpt);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("wrote 2 checkpoint(s)"), std::string::npos)
      << r.output;

  r = RunCli("train --corpus " + TempPath("corpus.txt") + " --model-out " +
             model + " --epochs 4 --hidden 8 --checkpoint " + ckpt +
             " --resume");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("resumed from checkpoint at epoch 2"),
            std::string::npos)
      << r.output;

  std::remove(ckpt.c_str());
  std::remove(model.c_str());
}

TEST_F(CliWorkflowTest, MetricsAndTraceExports) {
  const std::string plan = TempPath("obs_tuned.plan");
  const std::string metrics = TempPath("obs_metrics.json");
  const std::string trace = TempPath("obs_trace.json");
  auto r = RunCli("tune --model " + TempPath("model.txt") + " --query " +
                  TempPath("q.plan") + " --cluster m510:3 --out " + plan +
                  " --metrics-out " + metrics + " --trace-out " + trace);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  std::ifstream mf(metrics);
  ASSERT_TRUE(mf.good()) << "metrics file missing";
  std::string mjson((std::istreambuf_iterator<char>(mf)),
                    std::istreambuf_iterator<char>());
  EXPECT_NE(mjson.find("\"counters\""), std::string::npos) << mjson;
  EXPECT_NE(mjson.find("optimizer.tunings_total"), std::string::npos);
  EXPECT_NE(mjson.find("batch_inference.batches_total"), std::string::npos);

  std::ifstream tf(trace);
  ASSERT_TRUE(tf.good()) << "trace file missing";
  std::string tjson((std::istreambuf_iterator<char>(tf)),
                    std::istreambuf_iterator<char>());
  EXPECT_NE(tjson.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(tjson.find("optimizer/tune"), std::string::npos);
  EXPECT_NE(tjson.find("\"ph\": \"X\""), std::string::npos);

  // serve-sim prints the registry dump on exit in human mode.
  r = RunCli("serve-sim --plan " + plan +
             " --requests 20 --threads 0 --fail-rate 0 --metrics-out " +
             metrics);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("metrics registry:"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("serve.received_total"), std::string::npos)
      << r.output;

  // An unwritable export path fails the command even though the work
  // itself succeeded.
  r = RunCli("predict --model " + TempPath("model.txt") + " --plan " + plan +
             " --metrics-out /nonexistent_dir/zt_m.json");
  EXPECT_NE(r.exit_code, 0);

  std::remove(plan.c_str());
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
}

TEST_F(CliWorkflowTest, CollectRandomStrategy) {
  const std::string out = TempPath("rand_corpus.txt");
  const auto r =
      RunCli("collect --count 10 --strategy random --out " + out);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream f(out);
  std::string header;
  std::getline(f, header);
  EXPECT_NE(header.find("zerotune-dataset-v1"), std::string::npos);
  std::remove(out.c_str());
}

}  // namespace
