// Malformed-input regression tests for every text deserializer: plan IO,
// dataset IO, and model/parameter loading. Corrupt, truncated, or absurd
// inputs must yield a descriptive non-OK Status — never a crash, an
// uncaught exception, or an unbounded allocation.

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>

#include "core/model.h"
#include "core/plan_graph.h"
#include "core/train_batch.h"
#include "dsp/plan_io.h"
#include "workload/dataset_io.h"

namespace zerotune {
namespace {

using dsp::Cluster;
using dsp::DataType;
using dsp::FilterProperties;
using dsp::ParallelQueryPlan;
using dsp::PlanIO;
using dsp::QueryPlan;
using dsp::SourceProperties;
using dsp::TupleSchema;

ParallelQueryPlan SmallPlan() {
  QueryPlan q;
  SourceProperties s;
  s.event_rate = 5000;
  s.schema = TupleSchema::Uniform(3, DataType::kDouble);
  const int src = q.AddSource(s);
  FilterProperties f;
  f.selectivity = 0.5;
  const int fid = q.AddFilter(src, f).value();
  ZT_CHECK_OK(q.AddSink(fid));
  ParallelQueryPlan p(q, Cluster::Homogeneous("m510", 2).value());
  EXPECT_TRUE(p.SetUniformParallelism(2, /*pin_endpoints=*/false).ok());
  EXPECT_TRUE(p.PlaceRoundRobin().ok());
  return p;
}

std::string SerializePlan(const ParallelQueryPlan& plan) {
  std::ostringstream os;
  EXPECT_TRUE(PlanIO::WriteParallelPlan(plan, os).ok());
  return os.str();
}

/// Temp path unique to the running test. ctest runs every TEST as its own
/// parallel process, so a fixture-constant file name would race.
std::string PerTestTempPath(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/zt_" + info->test_suite_name() + "_" +
         info->name() + "_" + suffix;
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  f << content;
}

std::string ReplaceOnce(std::string text, const std::string& from,
                        const std::string& to) {
  const size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "pattern not found: " << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

// ---------------------------------------------------------------------------
// Plan IO.
// ---------------------------------------------------------------------------

TEST(RobustPlanIOTest, TruncationAtEveryByteNeverCrashes) {
  const std::string full = SerializePlan(SmallPlan());
  ASSERT_GT(full.size(), 50u);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::istringstream is(full.substr(0, cut));
    const auto r = PlanIO::ReadParallelPlan(is);
    // A strict prefix may occasionally still form a self-consistent plan
    // (e.g. the cut removes only an optional trailing deploy line); the
    // robustness contract is: no crash, and anything accepted validates.
    if (r.ok()) {
      EXPECT_TRUE(r.value().Validate().ok()) << "cut at byte " << cut;
    }
  }
  std::istringstream is(full);
  EXPECT_TRUE(PlanIO::ReadParallelPlan(is).ok());
}

TEST(RobustPlanIOTest, TruncationBeforeClusterSectionFails) {
  const std::string full = SerializePlan(SmallPlan());
  const size_t cluster_at = full.find("cluster ");
  ASSERT_NE(cluster_at, std::string::npos);
  std::istringstream is(full.substr(0, cluster_at));
  const auto r = PlanIO::ReadParallelPlan(is);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("cluster"), std::string::npos);
}

TEST(RobustPlanIOTest, NonFiniteFieldsRejectedWithLineContext) {
  const std::string full = SerializePlan(SmallPlan());
  for (const char* bad : {"nan", "inf", "-inf", "1e999", "5000x"}) {
    const std::string corrupt = ReplaceOnce(full, "rate=5000",
                                            std::string("rate=") + bad);
    std::istringstream is(corrupt);
    const auto r = PlanIO::ReadParallelPlan(is);
    ASSERT_FALSE(r.ok()) << "accepted rate=" << bad;
    // Errors carry the failing line for debuggability.
    EXPECT_NE(r.status().ToString().find("line"), std::string::npos);
  }
}

TEST(RobustPlanIOTest, AbsurdParallelismCountRejected) {
  // A deploy line claiming two billion instances must be rejected by
  // consistency checks, not by attempting a two-billion-entry placement.
  const std::string corrupt =
      ReplaceOnce(SerializePlan(SmallPlan()), "p=2", "p=1999999999");
  std::istringstream is(corrupt);
  EXPECT_FALSE(PlanIO::ReadParallelPlan(is).ok());
}

TEST(RobustPlanIOTest, OverflowingIntegerRejected) {
  const std::string corrupt = ReplaceOnce(SerializePlan(SmallPlan()), "p=2",
                                          "p=99999999999999999999");
  std::istringstream is(corrupt);
  EXPECT_FALSE(PlanIO::ReadParallelPlan(is).ok());
}

TEST(RobustPlanIOTest, NonPositiveClusterResourcesRejected) {
  const std::string full = SerializePlan(SmallPlan());
  ASSERT_NE(full.find("cores="), std::string::npos);
  const size_t eq = full.find("cores=");
  const size_t sp = full.find(' ', eq);
  const std::string corrupt =
      full.substr(0, eq) + "cores=0" + full.substr(sp);
  std::istringstream is(corrupt);
  EXPECT_FALSE(PlanIO::ReadParallelPlan(is).ok());
}

// ---------------------------------------------------------------------------
// Dataset IO.
// ---------------------------------------------------------------------------

class RobustDatasetIOTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::Dataset ds;
    ds.Add(workload::LabeledQuery(SmallPlan(), 12.5, 4000.0,
                                  workload::QueryStructure::kLinear));
    ds.Add(workload::LabeledQuery(SmallPlan(), 8.0, 2500.0,
                                  workload::QueryStructure::kLinear));
    path_ = PerTestTempPath("dataset.txt");
    ASSERT_TRUE(workload::DatasetIO::Save(ds, path_).ok());
    text_ = ReadFile(path_);
    ASSERT_FALSE(text_.empty());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes `content` over the test file and loads it.
  Result<workload::Dataset> LoadText(const std::string& content) {
    WriteFile(path_, content);
    return workload::DatasetIO::Load(path_);
  }

  std::string path_;
  std::string text_;
};

TEST_F(RobustDatasetIOTest, RoundTripStillWorks) {
  const auto r = LoadText(text_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 2u);
}

TEST_F(RobustDatasetIOTest, ImplausibleSampleCountRejectedWithoutAllocation) {
  const auto r = LoadText(
      ReplaceOnce(text_, "zerotune-dataset-v1 2", "zerotune-dataset-v1 "
                                                  "99999999999"));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("count"), std::string::npos);
}

TEST_F(RobustDatasetIOTest, NonNumericCountRejected) {
  EXPECT_FALSE(LoadText(ReplaceOnce(text_, "zerotune-dataset-v1 2",
                                    "zerotune-dataset-v1 soon"))
                   .ok());
}

TEST_F(RobustDatasetIOTest, CountLargerThanFileDetected) {
  const auto r = LoadText(
      ReplaceOnce(text_, "zerotune-dataset-v1 2", "zerotune-dataset-v1 7"));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("truncated"), std::string::npos);
}

TEST_F(RobustDatasetIOTest, NonFiniteLabelsRejected) {
  EXPECT_FALSE(
      LoadText(ReplaceOnce(text_, "latency_ms=12.5", "latency_ms=nan")).ok());
  EXPECT_FALSE(
      LoadText(ReplaceOnce(text_, "throughput_tps=2500", "throughput_tps=inf"))
          .ok());
  EXPECT_FALSE(
      LoadText(ReplaceOnce(text_, "latency_ms=8", "latency_ms=1e999")).ok());
}

TEST_F(RobustDatasetIOTest, MissingEndMarkerRejected) {
  const size_t last_end = text_.rfind("end\n");
  ASSERT_NE(last_end, std::string::npos);
  const auto r = LoadText(text_.substr(0, last_end));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("end"), std::string::npos);
}

TEST_F(RobustDatasetIOTest, EmbeddedPlanCorruptionNamesTheSample) {
  const auto r =
      LoadText(ReplaceOnce(text_, "sel=0.5", "sel=nan"));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("sample 0"), std::string::npos);
}

TEST_F(RobustDatasetIOTest, TruncationAtEveryLineNeverCrashes) {
  std::vector<size_t> line_starts{0};
  for (size_t i = 0; i < text_.size(); ++i) {
    if (text_[i] == '\n') line_starts.push_back(i + 1);
  }
  for (size_t cut : line_starts) {
    if (cut >= text_.size()) continue;
    const auto r = LoadText(text_.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "accepted truncation at byte " << cut;
  }
}

// ---------------------------------------------------------------------------
// Model / parameter serialization.
// ---------------------------------------------------------------------------

class RobustModelIOTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::ModelConfig cfg;
    cfg.hidden_dim = 8;
    cfg.seed = 3;
    model_ = std::make_unique<core::ZeroTuneModel>(cfg);
    core::TargetStats stats;
    stats.latency_mean = 1.5;
    stats.throughput_mean = 6.0;
    model_->set_target_stats(stats);
    path_ = PerTestTempPath("model.txt");
    ASSERT_TRUE(model_->Save(path_).ok());
    text_ = ReadFile(path_);
    ASSERT_FALSE(text_.empty());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Loads `content` into a freshly initialized model (hidden_dim 8).
  Status LoadText(const std::string& content) {
    WriteFile(path_, content);
    core::ModelConfig cfg;
    cfg.hidden_dim = 8;
    core::ZeroTuneModel fresh(cfg);
    return fresh.Load(path_);
  }

  std::unique_ptr<core::ZeroTuneModel> model_;
  std::string path_;
  std::string text_;
};

TEST_F(RobustModelIOTest, TruncatedParameterStreamRejected) {
  const Status s = LoadText(text_.substr(0, text_.size() / 2));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("truncated"), std::string::npos);
}

TEST_F(RobustModelIOTest, TruncatedStatsLineRejected) {
  // Keep only the header + config lines.
  size_t nl = text_.find('\n');
  nl = text_.find('\n', nl + 1);
  ASSERT_NE(nl, std::string::npos);
  EXPECT_FALSE(LoadText(text_.substr(0, nl + 1)).ok());
}

TEST_F(RobustModelIOTest, NonFiniteStatsRejected) {
  // The stats line is the third line; poison its first value.
  size_t nl = text_.find('\n');
  nl = text_.find('\n', nl + 1);
  const size_t stats_end = text_.find('\n', nl + 1);
  ASSERT_NE(stats_end, std::string::npos);
  // Both a non-numeric token (istream extraction fails) and a negative
  // stddev (finite-stats check fails) must be rejected.
  EXPECT_FALSE(LoadText(text_.substr(0, nl + 1) + "nan 1 6 1\n" +
                        text_.substr(stats_end + 1))
                   .ok());
  const Status s = LoadText(text_.substr(0, nl + 1) + "1.5 -1 6 1\n" +
                            text_.substr(stats_end + 1));
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("finite"), std::string::npos);
}

TEST_F(RobustModelIOTest, NonFiniteParameterValueRejected) {
  // Poison the last parameter value in the file.
  const size_t last_space = text_.find_last_of(" \n", text_.size() - 2);
  ASSERT_NE(last_space, std::string::npos);
  const std::string corrupt = text_.substr(0, last_space + 1) + "nan\n";
  EXPECT_FALSE(LoadText(corrupt).ok());
}

TEST_F(RobustModelIOTest, FailedLoadLeavesModelParametersUntouched) {
  // Load is transactional: after a rejected file, the model must predict
  // exactly what it predicted before the attempt.
  const auto plan = SmallPlan();
  const core::PlanGraph g = core::BuildPlanGraph(plan);
  const double before = core::ForwardGraph(*model_, g)(0, 0);

  WriteFile(path_, text_.substr(0, text_.size() * 3 / 4));
  EXPECT_FALSE(model_->Load(path_).ok());
  EXPECT_DOUBLE_EQ(core::ForwardGraph(*model_, g)(0, 0), before);
}

TEST_F(RobustModelIOTest, AbsurdHiddenDimRejectedBeforeAllocation) {
  const std::string corrupt =
      ReplaceOnce(text_, "\n8 ", "\n4000000000 ");
  WriteFile(path_, corrupt);
  const auto r = core::ZeroTuneModel::LoadFromFile(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("hidden_dim"), std::string::npos);
}

TEST_F(RobustModelIOTest, BadMagicRejected) {
  EXPECT_FALSE(
      LoadText(ReplaceOnce(text_, "zerotune-model-v1", "zerotune-model-v9"))
          .ok());
}

}  // namespace
}  // namespace zerotune
