#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iterator>
#include <map>
#include <sstream>

#include "common/clock.h"
#include "common/statistics.h"
#include "core/dataset_builder.h"
#include "core/enumeration.h"
#include "core/trainer.h"
#include "serve/fleet/hash_ring.h"

namespace zerotune::e2e {

int64_t NowNanos() { return SystemClock::Default()->NowNanos(); }

double MsSince(int64_t start_nanos) {
  return static_cast<double>(NowNanos() - start_nanos) / 1e6;
}

void RunResult::Count(uint64_t ops, uint64_t failed_ops) {
  attempted += ops;
  failed += failed_ops;
  if (failed_ops > 0) correct = false;
}

std::string ResultJson(const RunResult& result) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    // JSON has no NaN or Inf: a non-finite value prints as 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

void OpSamples::Append(const OpSamples& other) {
  ms.insert(ms.end(), other.ms.begin(), other.ms.end());
  end_nanos.insert(end_nanos.end(), other.end_nanos.begin(),
                   other.end_nanos.end());
}

PhaseSummary Summarize(const OpSamples& samples, size_t callers,
                       const SpeedReference* speed) {
  constexpr size_t kWindows = 5;
  PhaseSummary s;
  if (samples.size() == 0) return s;
  const auto [lo, hi] =
      std::minmax_element(samples.end_nanos.begin(), samples.end_nanos.end());
  const double width = static_cast<double>(*hi - *lo + 1) / kWindows;
  std::vector<std::vector<double>> windows(kWindows);
  for (size_t i = 0; i < samples.size(); ++i) {
    const auto w = static_cast<size_t>(
        static_cast<double>(samples.end_nanos[i] - *lo) / width);
    windows[std::min(w, kWindows - 1)].push_back(samples.ms[i]);
  }
  std::vector<double> p50s, p95s, throughputs;
  for (size_t k = 0; k < kWindows; ++k) {
    const std::vector<double>& w = windows[k];
    if (w.empty()) continue;
    // The first and last windows also take the reference samples taken
    // before the first and after the last op.
    const int64_t from =
        k == 0 ? INT64_MIN : *lo + static_cast<int64_t>(width * k);
    const int64_t to = k + 1 == kWindows
                           ? INT64_MAX
                           : *lo + static_cast<int64_t>(width * (k + 1));
    const double scale = speed == nullptr ? 1.0 : speed->ScaleBetween(from, to);
    p50s.push_back(Median(w) * scale);
    p95s.push_back(Percentile(w, 95.0) * scale);
    throughputs.push_back(1e3 * static_cast<double>(callers) / Mean(w) /
                          scale);
  }
  s.p50 = Median(p50s);
  s.p95 = Median(p95s);
  s.ops_per_s = Median(throughputs);
  return s;
}

namespace {

// The reference's only memory: static, so its time does not depend on the
// heap the library allocates from.
struct ReferenceScratch {
  double rows[1024][48];
  uint64_t table[32768];  // open addressing, 0 = empty
  char text[32768];
  uint64_t sink = 0;  // the result, so the work is not optimized away
};
ReferenceScratch scratch;

void ReferenceWork() {
  ReferenceScratch& s = scratch;
  double dot = 0.0;
  for (size_t i = 0; i < 1024; ++i) {
    for (size_t k = 0; k < 48; ++k) {
      s.rows[i][k] = 1.0 / static_cast<double>(i + k + 1);
    }
  }
  for (int pass = 0; pass < 16; ++pass) {
    for (size_t i = 1; i < 1024; ++i) {
      for (size_t k = 0; k < 48; ++k) dot += s.rows[i][k] * s.rows[i - 1][k];
    }
  }
  uint64_t acc = 0;
  std::fill(std::begin(s.table), std::end(s.table), 0);
  constexpr uint64_t kMask = std::size(s.table) - 1;
  for (uint64_t i = 1; i <= 16384; ++i) {
    const uint64_t key = i * 0x9e3779b97f4a7c15ull;
    uint64_t slot = (key >> 17) & kMask;
    while (s.table[slot] != 0) slot = (slot + 1) & kMask;
    s.table[slot] = key;
  }
  for (uint64_t i = 1; i <= 16384; ++i) {
    const uint64_t key = i * 0x9e3779b97f4a7c15ull;
    uint64_t slot = (key >> 17) & kMask;
    while (s.table[slot] != key) slot = (slot + 1) & kMask;
    acc += slot;
  }
  size_t used = 0;
  for (int i = 0; i < 4096 && used + 24 < sizeof(s.text); ++i) {
    used += static_cast<size_t>(std::snprintf(s.text + used,
                                              sizeof(s.text) - used, "%d,",
                                              i * 7919));
  }
  volatile uint64_t* sink = &s.sink;
  *sink = acc + used + static_cast<uint64_t>(dot);
}

}  // namespace

void SpeedReference::Sample() {
  ReferenceWork();  // untimed: warms the caches the preceding op used
  for (int k = 0; k < 3; ++k) {
    const int64_t t0 = NowNanos();
    ReferenceWork();
    ms_.push_back(MsSince(t0));
    at_nanos_.push_back(NowNanos());
  }
}

void SpeedReference::CatchUp() {
  constexpr int64_t kPeriodNanos = 100'000'000;
  const int64_t due =
      at_nanos_.empty() ? 1 : (NowNanos() - at_nanos_.back()) / kPeriodNanos;
  for (int64_t k = 0; k < std::min<int64_t>(due, 10); ++k) Sample();
}

double SpeedReference::MedianMs() const { return Median(ms_); }

double SpeedReference::ScaleBetween(int64_t from, int64_t to) const {
  std::vector<double> near;
  for (size_t i = 0; i < ms_.size(); ++i) {
    if (at_nanos_[i] >= from && at_nanos_[i] <= to) near.push_back(ms_[i]);
  }
  return kNominalMs / (near.size() >= 6 ? Median(near) : MedianMs());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

bool NearlyEqual(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

// --- Watchdog --------------------------------------------------------

Watchdog::Watchdog(std::string context, double limit_s, size_t slots)
    : context_(std::move(context)),
      limit_nanos_(static_cast<int64_t>(limit_s * 1e9)) {
  for (size_t i = 0; i < slots; ++i) slots_.push_back(std::make_unique<Slot>());
  monitor_ = std::thread([this] { Monitor(); });
}

Watchdog::~Watchdog() {
  {
    MutexLock g(mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  monitor_.join();
}

void Watchdog::Begin(size_t slot, uint64_t index, const std::string& what) {
  Slot& s = *slots_[slot];
  {
    MutexLock g(s.mu);
    s.index = index;
    s.what = what;
  }
  s.start_nanos.store(NowNanos(), std::memory_order_release);
}

void Watchdog::End(size_t slot) {
  slots_[slot]->start_nanos.store(0, std::memory_order_release);
}

void Watchdog::Monitor() {
  const auto poll = std::chrono::milliseconds(
      std::clamp<int64_t>(limit_nanos_ / 4'000'000, 1, 100));
  MutexLock lock(mu_);
  while (!stop_) {
    stop_cv_.wait_for(lock.unique_lock(), poll);
    const int64_t now = NowNanos();
    for (const std::unique_ptr<Slot>& s : slots_) {
      const int64_t start = s->start_nanos.load(std::memory_order_acquire);
      if (start == 0 || now - start <= limit_nanos_) continue;
      MutexLock g(s->mu);
      std::fprintf(stderr,
                   "zt_bench: watchdog: %s: op %llu (%s) still running after "
                   "%.3g s (limit %.3g s); aborting\n",
                   context_.c_str(), static_cast<unsigned long long>(s->index),
                   s->what.c_str(), static_cast<double>(now - start) / 1e9,
                   static_cast<double>(limit_nanos_) / 1e9);
      std::fflush(stderr);
      std::_Exit(3);
    }
  }
}

// --- Base model -------------------------------------------------------

namespace {

// Fixed: the model under test is the same in every run (see BaseModel).
constexpr uint64_t kCorpusSeed = 2024;
constexpr uint64_t kModelSeed = 1;
constexpr size_t kCorpusQueries = 1000;
constexpr size_t kBaseEpochs = 4;
constexpr size_t kHiddenDim = 48;
// Set-ups per run; setup_s is their median.
constexpr size_t kSetupReps = 3;

Result<std::unique_ptr<core::ZeroTuneModel>> TrainOnce(ThreadPool* pool) {
  core::DatasetBuilderOptions dopts;
  dopts.count = kCorpusQueries;
  dopts.seed = kCorpusSeed;
  dopts.pool = pool;
  const int64_t t0 = NowNanos();
  ZT_ASSIGN_OR_RETURN(const workload::Dataset corpus,
                      core::BuildDataset(core::OptiSampleEnumerator(), dopts));
  const double corpus_s = MsSince(t0) / 1e3;
  core::ModelConfig config;
  config.hidden_dim = kHiddenDim;
  config.seed = kModelSeed;
  auto model = std::make_unique<core::ZeroTuneModel>(config);
  core::TrainOptions topts;
  topts.epochs = kBaseEpochs;
  topts.patience = 0;
  topts.pool = pool;
  ZT_RETURN_IF_ERROR(
      core::Trainer(model.get(), topts).Train(corpus, workload::Dataset())
          .status());
  std::fprintf(stderr, "zt_bench: set-up: corpus %.2f s, training %.2f s\n",
               corpus_s, MsSince(t0) / 1e3 - corpus_s);
  return model;
}

}  // namespace

Result<BaseModel> SetUpBaseModel(ThreadPool* pool) {
  BaseModel base;
  // Each set-up is scaled by the reference samples taken right before and
  // right after it.
  SpeedReference speed;
  const auto sample = [&speed] {
    for (int k = 0; k < 3; ++k) speed.Sample();
  };
  std::vector<double> seconds, scaled;
  uint64_t first_digest = 0;
  sample();
  for (size_t r = 0; r < kSetupReps; ++r) {
    const int64_t before = NowNanos();
    ZT_ASSIGN_OR_RETURN(base.model, TrainOnce(pool));
    seconds.push_back(MsSince(before) / 1e3);
    const uint64_t digest = WeightDigest(*base.model);
    if (r == 0) first_digest = digest;
    base.deterministic = base.deterministic && digest == first_digest;
    sample();
    const int64_t from = before - static_cast<int64_t>(100e6);
    scaled.push_back(seconds.back() * speed.ScaleBetween(from, NowNanos()));
  }
  base.setup.s = Median(scaled);
  base.setup.wall_s = Median(seconds);
  std::fprintf(stderr,
               "zt_bench: set-up median %.4f s as measured, reference %.4f "
               "ms\n",
               base.setup.wall_s, speed.MedianMs());
  return base;
}

uint64_t WeightDigest(const core::ZeroTuneModel& model) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  };
  for (const nn::NodePtr& p : model.params().parameters()) {
    mix(p->value.data(), p->value.size() * sizeof(double));
  }
  const core::TargetStats& s = model.target_stats();
  const double stats[] = {s.latency_mean, s.latency_std, s.throughput_mean,
                          s.throughput_std};
  mix(stats, sizeof(stats));
  return h;
}

Result<std::unique_ptr<core::ZeroTuneModel>> CloneModel(
    const core::ZeroTuneModel& model) {
  auto copy = std::make_unique<core::ZeroTuneModel>(model.config());
  ZT_RETURN_IF_ERROR(copy->mutable_params()->CopyFrom(model.params()));
  copy->set_target_stats(model.target_stats());
  return copy;
}

// --- Inputs -----------------------------------------------------------

const std::vector<workload::QueryStructure>& StreamStructures() {
  using workload::QueryStructure;
  static const std::vector<QueryStructure> kStructures = {
      QueryStructure::kLinear,       QueryStructure::kTwoWayJoin,
      QueryStructure::kThreeWayJoin, QueryStructure::kThreeChainedFilters,
      QueryStructure::kFourWayJoin,  QueryStructure::kFiveWayJoin};
  return kStructures;
}

Result<workload::GeneratedQuery> MakeQuery(uint64_t seed, uint64_t stream,
                                           uint64_t index) {
  using serve::fleet::DeriveSeed;
  const std::vector<workload::QueryStructure>& structures = StreamStructures();
  const std::vector<int>& workers =
      workload::ParameterSpace::SeenWorkerCounts();
  // Structure and worker count cycle with the index instead of being
  // drawn, so every seed offers the same mix of plan sizes and seeds move
  // the amount of work per op as little as possible. Seen ranges only:
  // the batch engine can hang on plans for wide clusters (README.md,
  // "Known hang").
  workload::QueryGenerator::Options options;
  options.overrides.num_workers =
      workers[(index / structures.size()) % workers.size()];
  workload::QueryGenerator gen(options,
                               DeriveSeed(DeriveSeed(seed, stream), index));
  return gen.Generate(structures[index % structures.size()]);
}

std::string Describe(const workload::GeneratedQuery& query) {
  std::map<std::string, int> types;
  for (const dsp::NodeResources& n : query.cluster.nodes()) {
    ++types[n.type_name];
  }
  std::string out = std::string(workload::ToString(query.structure)) + " on " +
                    std::to_string(query.cluster.num_nodes()) + " nodes (";
  bool first = true;
  for (const auto& [type, count] : types) {
    out += (first ? "" : ", ") + type + " x" + std::to_string(count);
    first = false;
  }
  return out + ")";
}

}  // namespace zerotune::e2e
