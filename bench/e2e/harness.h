#ifndef ZEROTUNE_BENCH_E2E_HARNESS_H_
#define ZEROTUNE_BENCH_E2E_HARNESS_H_

// Shared plumbing of the zt_bench harness: timing, result JSON, the
// per-op watchdog, base-model set-up and seeded input generation.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/model.h"
#include "workload/generator.h"

namespace zerotune::e2e {

/// Monotonic nanoseconds (common/clock.h SystemClock).
int64_t NowNanos();
double MsSince(int64_t start_nanos);

/// One reported number: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one zt_bench invocation prints as its last stdout line.
struct RunResult {
  /// False when any output check failed (the failures are in `failed`).
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Counts `ops` checked ops of which `failed_ops` failed.
  void Count(uint64_t ops, uint64_t failed_ops);
  void Count(bool ok) { Count(1, ok ? 0 : 1); }
};

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}},
/// every value printed with 17 significant digits.
std::string ResultJson(const RunResult& result);

/// Latency of every op of a phase and when it ended.
struct OpSamples {
  std::vector<double> ms;
  std::vector<int64_t> end_nanos;

  void Add(int64_t start, int64_t end) {
    end_nanos.push_back(end);
    ms.push_back(static_cast<double>(end - start) / 1e6);
  }
  void Append(const OpSamples& other);
  size_t size() const { return ms.size(); }
};

/// Machine-speed reference. A shared VM changes speed by a quarter or more
/// over minutes as other tenants come and go (README.md, "Times at
/// reference speed"), more than any bound a benchmark could hold. A fixed
/// piece of benchmark-owned work on static memory — 48-wide dot products,
/// open-addressing hashing, number formatting — is timed while the library
/// is quiescent (no library call in flight on any thread, thread pools
/// drained), and the bounded end-to-end times are reported at reference
/// speed:
///   reported = measured * kNominalMs / median(reference samples nearby).
/// The reference touches neither the heap nor any library thread, so a
/// library change can move it only through the machine. Raw times go to
/// stderr. Single-threaded: sample from one thread only.
class SpeedReference {
 public:
  /// About the reference's median on an idle 4-vCPU x86-64 VM, so that
  /// reported times stay close to wall-clock times on such a machine.
  static constexpr double kNominalMs = 1.0;

  /// Times the fixed work three times (after an untimed pass).
  void Sample();
  /// Samples once per 100 ms passed since the previous sample (at most
  /// 10 times), so that every stretch of a phase gets about as many
  /// samples whether its quiescent points are frequent (between Tune
  /// calls) or not (between fine-tune cycles).
  void CatchUp();
  double MedianMs() const;
  /// kNominalMs / the median of the samples taken in [from, to] (NowNanos
  /// times), or of all samples when fewer than 6 fall there: multiply
  /// times by it, divide rates by it.
  double ScaleBetween(int64_t from, int64_t to) const;

 private:
  std::vector<double> ms_;
  std::vector<int64_t> at_nanos_;  // when each sample ended
};

/// End-to-end view of a closed-loop phase. The phase is cut into 5 equal
/// windows by op end time; p50, p95 and ops_per_s (callers per mean op
/// time) are each the median of the per-window values, so interference
/// from other tenants of the machine that hits one window moves none.
/// With `speed`, each window's values are at the speed of the reference
/// samples taken during that window. The tail is p95, not p99: a
/// tune-grid window holds about 400 Tune calls, too few for a p99 to rest
/// on ten or more samples.
struct PhaseSummary {
  double p50 = 0.0;
  double p95 = 0.0;
  double ops_per_s = 0.0;
};
PhaseSummary Summarize(const OpSamples& samples, size_t callers,
                       const SpeedReference* speed);

/// Peak resident set of this process (getrusage ru_maxrss), MiB.
double PeakRssMb();
/// CPU time consumed by every thread of this process, seconds.
double ProcessCpuSeconds();

/// |a - b| <= rel * max(|a|, |b|).
bool NearlyEqual(double a, double b, double rel);

/// Aborts the process with exit code 3 when a single operation runs
/// longer than `limit_s`, naming the operation. A hang inside the library
/// then fails the benchmark loudly instead of stalling until the outer
/// timeout. Each concurrent caller owns one slot.
class Watchdog {
 public:
  /// `context` prefixes the abort message (workload and seed).
  Watchdog(std::string context, double limit_s, size_t slots);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Marks op `index` (described by `what`) as started on `slot`.
  void Begin(size_t slot, uint64_t index, const std::string& what);
  void End(size_t slot);

 private:
  struct Slot {
    std::atomic<int64_t> start_nanos{0};  // 0 = idle
    Mutex mu;
    uint64_t index ZT_GUARDED_BY(mu) = 0;
    std::string what ZT_GUARDED_BY(mu);
  };

  void Monitor();

  const std::string context_;
  const int64_t limit_nanos_;
  std::vector<std::unique_ptr<Slot>> slots_;
  Mutex mu_;
  std::condition_variable stop_cv_;
  bool stop_ ZT_GUARDED_BY(mu_) = false;
  std::thread monitor_;  // last: started after the members it reads
};

/// Median time of one base-model set-up (corpus + training) over 3.
struct SetupTime {
  /// At reference speed (SpeedReference sampled before and after each).
  double s = 0.0;
  /// As measured.
  double wall_s = 0.0;
};

/// The model every workload runs against: a 1,000-query seen-range
/// OptiSample corpus, trained for 4 epochs at hidden width 48. The
/// corpus and initialization use fixed seeds, so every run measures the
/// same model; --seed varies only the workload inputs.
struct BaseModel {
  std::unique_ptr<core::ZeroTuneModel> model;
  SetupTime setup;
  /// Weight digests of every repetition agreed (set-up is deterministic).
  bool deterministic = true;
};
Result<BaseModel> SetUpBaseModel(ThreadPool* pool);

/// FNV-1a over every parameter value's bytes and the target statistics.
uint64_t WeightDigest(const core::ZeroTuneModel& model);

/// Fresh model with `model`'s configuration, weights and target stats.
Result<std::unique_ptr<core::ZeroTuneModel>> CloneModel(
    const core::ZeroTuneModel& model);

/// Structures of the generated query streams, cycled by index: the three
/// training structures plus three the model never saw in training.
const std::vector<workload::QueryStructure>& StreamStructures();

/// Query `index` of input stream `stream`: structure
/// StreamStructures()[index % 6] on a seen-range cluster of 2, 4 or 6
/// workers ((index / 6) % 3), other parameters drawn from the seen ranges
/// with a seed derived from (seed, stream, index).
Result<workload::GeneratedQuery> MakeQuery(uint64_t seed, uint64_t stream,
                                           uint64_t index);

/// "3-way-join on 4 nodes (m510 x4)" — for watchdog and failure messages.
std::string Describe(const workload::GeneratedQuery& query);

}  // namespace zerotune::e2e

#endif  // ZEROTUNE_BENCH_E2E_HARNESS_H_
