#ifndef ZEROTUNE_BENCH_E2E_WORKLOADS_H_
#define ZEROTUNE_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness.h"

namespace zerotune::e2e {

/// One zt_bench invocation.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Measured time. With `trace`, the first third runs untraced (the
  /// tracing-overhead baseline) and the rest traced.
  double seconds = 10.0;
  /// false: end-to-end metrics; true: per-layer metrics.
  bool trace = false;
  /// Chrome trace_event JSON of the traced phase's first spans ("" = none).
  std::string trace_out;
  /// Per-op watchdog limit.
  double op_timeout_s = 30.0;
};

/// tune-grid, tune-prescreen, serve-closed, finetune.
const std::vector<std::string>& WorkloadNames();

/// Sets up the base model, generates the workload's inputs from
/// `config.seed`, warms up, measures and checks every output. Errors are
/// harness failures (bad inputs, I/O); failed output checks are counted
/// in the result instead.
Result<RunResult> RunWorkload(const RunConfig& config);

}  // namespace zerotune::e2e

#endif  // ZEROTUNE_BENCH_E2E_WORKLOADS_H_
