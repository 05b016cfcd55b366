#ifndef ZEROTUNE_WORKLOAD_DATASET_H_
#define ZEROTUNE_WORKLOAD_DATASET_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "dsp/parallel_plan.h"
#include "workload/parameter_space.h"

namespace zerotune::workload {

/// One labeled training/evaluation example: a placed parallel query plan
/// and its measured costs.
struct LabeledQuery {
  dsp::ParallelQueryPlan plan;
  double latency_ms = 0.0;
  double throughput_tps = 0.0;
  QueryStructure structure = QueryStructure::kLinear;

  LabeledQuery(dsp::ParallelQueryPlan p, double lat, double tpt,
               QueryStructure s)
      : plan(std::move(p)), latency_ms(lat), throughput_tps(tpt),
        structure(s) {}

  /// Paper Exp. 2 parallelism bucket of this deployment (XS..XL).
  const char* ParallelismCategory() const {
    return dsp::ParallelQueryPlan::ParallelismCategory(
        plan.AvgParallelism());
  }
};

/// A corpus of labeled queries with train/val/test splitting.
class Dataset {
 public:
  Dataset() = default;

  void Add(LabeledQuery q) { samples_.push_back(std::move(q)); }
  void Append(const Dataset& other);

  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  const LabeledQuery& sample(size_t i) const { return samples_[i]; }
  const std::vector<LabeledQuery>& samples() const { return samples_; }

  /// Random split into train/val/test with the given fractions
  /// (test gets the remainder). Paper uses 80/10/10.
  Status Split(double train_frac, double val_frac, zerotune::Rng* rng,
               Dataset* train, Dataset* val, Dataset* test) const;

  /// Subset containing only the given structure.
  Dataset FilterStructure(QueryStructure structure) const;

  /// Subset containing only samples whose parallelism category matches.
  Dataset FilterCategory(const std::string& category) const;

  /// First n samples (or all when n >= size).
  Dataset Take(size_t n) const;

 private:
  std::vector<LabeledQuery> samples_;
};

/// InvalidArgument for the first sample of `set` whose latency or
/// throughput label is NaN or infinite, naming it as "<role> sample N"
/// with both labels; OK when every label is finite.
Status CheckLabels(const Dataset& set, std::string_view role);

/// What every learner's Fit checks first: InvalidArgument for an empty
/// set, then CheckLabels(train, "training").
Status CheckTrainingSet(const Dataset& train);

}  // namespace zerotune::workload

#endif  // ZEROTUNE_WORKLOAD_DATASET_H_
