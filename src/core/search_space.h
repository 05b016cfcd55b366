#ifndef ZEROTUNE_CORE_SEARCH_SPACE_H_
#define ZEROTUNE_CORE_SEARCH_SPACE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "dsp/cluster.h"
#include "dsp/query_plan.h"

namespace zerotune::core {

/// One point in the optimizer's candidate space. Today a candidate is a
/// parallelism assignment; the struct is deliberately opaque to scoring
/// code so a placement map (ROADMAP item 4: operator instance → node for
/// edge-cloud / geo-distributed clusters) can ride along without touching
/// the two-tier scoring pipeline.
struct PlanCandidate {
  /// Parallelism degree per operator, indexed by operator id.
  std::vector<int> degrees;
  /// Which generator produced the candidate ("opti-sample", "uniform",
  /// …) — for explain output and debugging; scoring ignores it.
  std::string origin;

  PlanCandidate() = default;
  explicit PlanCandidate(std::vector<int> d, std::string o = "")
      : degrees(std::move(d)), origin(std::move(o)) {}
};

/// Candidate generation strategy, decoupled from scoring. The optimizer
/// asks a SearchSpace for the full candidate set once per Tune() and owns
/// deduplication, the ParallelQueryPlan::Validate() check, prescreening
/// and GNN scoring of whatever comes back: a candidate of the wrong arity
/// or with a degree outside [1, total cores] is dropped and counted, not
/// scored. Implementations must be deterministic for a given
/// (plan, cluster).
class SearchSpace {
 public:
  virtual ~SearchSpace() = default;

  /// Enumerates candidates for `logical` on `cluster`, in a stable,
  /// implementation-defined order (the optimizer keeps first occurrences
  /// when deduplicating, so order is part of the contract).
  virtual Result<std::vector<PlanCandidate>> Enumerate(
      const dsp::QueryPlan& logical, const dsp::Cluster& cluster) const = 0;

  virtual std::string name() const = 0;
};

/// The optimizer's historical candidate space, now behind the SearchSpace
/// interface: OptiSample assignments over a log-spaced scaling-factor
/// grid (Algorithm 1 with exact selectivities) followed by uniform
/// degrees with sources/sinks pinned at 1. Candidate order matches the
/// pre-SearchSpace optimizer exactly, which is what keeps Tune()
/// bit-identical when no custom space is injected.
class GridSearchSpace : public SearchSpace {
 public:
  struct Options {
    int max_parallelism = 128;
    /// Number of log-spaced OptiSample scaling factors to enumerate.
    size_t num_scale_factors = 12;
    double min_scale_factor = 1e-6;
    double max_scale_factor = 1e-3;
    std::vector<int> uniform_degrees = {1, 2, 4, 8, 16, 32, 64};

    /// Rejects empty grids and out-of-range bounds; checked at
    /// construction and surfaced by Enumerate().
    Status Validate() const;
  };

  GridSearchSpace() : GridSearchSpace(Options()) {}
  explicit GridSearchSpace(Options options)
      : options_(options), options_status_(options.Validate()) {}

  Result<std::vector<PlanCandidate>> Enumerate(
      const dsp::QueryPlan& logical,
      const dsp::Cluster& cluster) const override;
  std::string name() const override { return "grid"; }

  const Options& options() const { return options_; }

 private:
  Options options_;
  Status options_status_;
};

}  // namespace zerotune::core

#endif  // ZEROTUNE_CORE_SEARCH_SPACE_H_
