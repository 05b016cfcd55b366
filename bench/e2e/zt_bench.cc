// zt_bench: the end-to-end benchmark of record (see README.md).
//
//   zt_bench --workload tune-grid|tune-prescreen|serve-closed|finetune
//            --seed N --seconds S --trace 0|1
//            [--trace-out trace.json] [--op-timeout-s 30]
//
// Progress goes to stderr. The last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ...,
//    "metrics": {"<name>": {"value": ..., "unit": "..."}, ...}}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. Exit codes: 0 result printed (check "correct"), 1 the
// harness itself failed, 2 bad flags, 3 the per-op watchdog fired.
#include <cstdio>
#include <iostream>

#include "common/flags.h"
#include "workloads.h"

namespace zerotune::e2e {
namespace {

int Usage(const std::string& error) {
  std::cerr << "zt_bench: " << error
            << "\nusage: zt_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--op-timeout-s S]\n"
               "workloads:";
  for (const std::string& name : WorkloadNames()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

Result<RunConfig> ParseFlags(const FlagParser& flags) {
  ZT_RETURN_IF_ERROR(flags.CheckAllowed(
      {"workload", "seed", "seconds", "trace", "trace-out", "op-timeout-s"}));
  if (!flags.positional().empty()) {
    return Status::InvalidArgument("unexpected argument " +
                                   flags.positional().front());
  }
  RunConfig cfg;
  cfg.workload = flags.GetString("workload");
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == cfg.workload;
  if (!known) {
    return Status::InvalidArgument("unknown --workload '" + cfg.workload + "'");
  }
  ZT_ASSIGN_OR_RETURN(const int64_t seed, flags.GetInt("seed", 1));
  ZT_ASSIGN_OR_RETURN(cfg.seconds, flags.GetDouble("seconds", 10.0));
  ZT_ASSIGN_OR_RETURN(const int64_t trace, flags.GetInt("trace", 0));
  ZT_ASSIGN_OR_RETURN(cfg.op_timeout_s, flags.GetDouble("op-timeout-s", 30.0));
  if (seed < 0 || !(cfg.seconds > 0.0) || (trace != 0 && trace != 1) ||
      !(cfg.op_timeout_s > 0.0)) {
    return Status::InvalidArgument(
        "need --seed >= 0, --seconds > 0, --trace 0|1 and --op-timeout-s > 0");
  }
  cfg.seed = static_cast<uint64_t>(seed);
  cfg.trace = trace == 1;
  cfg.trace_out = flags.GetString("trace-out");
  return cfg;
}

int Main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  const Result<RunConfig> cfg = ParseFlags(flags);
  if (!cfg.ok()) return Usage(cfg.status().message());
  std::cerr << "zt_bench: " << cfg.value().workload << " seed "
            << cfg.value().seed << ", " << cfg.value().seconds << " s, trace "
            << (cfg.value().trace ? 1 : 0) << "\n";
  const int64_t t0 = NowNanos();
  const Result<RunResult> result = RunWorkload(cfg.value());
  if (!result.ok()) {
    std::cerr << "zt_bench: error: " << result.status().ToString() << "\n";
    return 1;
  }
  std::cerr << "zt_bench: done in " << MsSince(t0) / 1e3 << " s\n";
  std::cout << ResultJson(result.value()) << std::endl;
  return 0;
}

}  // namespace
}  // namespace zerotune::e2e

int main(int argc, char** argv) { return zerotune::e2e::Main(argc, argv); }
