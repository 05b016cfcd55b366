#include "workload/dataset.h"

#include <cmath>
#include <numeric>
#include <string>
#include <string_view>

namespace zerotune::workload {

void Dataset::Append(const Dataset& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
}

Status Dataset::Split(double train_frac, double val_frac, zerotune::Rng* rng,
                      Dataset* train, Dataset* val, Dataset* test) const {
  if (train_frac < 0.0 || val_frac < 0.0 || train_frac + val_frac > 1.0) {
    return Status::InvalidArgument("invalid split fractions");
  }
  std::vector<size_t> index(samples_.size());
  std::iota(index.begin(), index.end(), 0);
  rng->Shuffle(&index);
  const size_t n_train =
      static_cast<size_t>(train_frac * static_cast<double>(samples_.size()));
  const size_t n_val =
      static_cast<size_t>(val_frac * static_cast<double>(samples_.size()));
  train->samples_.clear();
  val->samples_.clear();
  test->samples_.clear();
  for (size_t i = 0; i < index.size(); ++i) {
    const LabeledQuery& q = samples_[index[i]];
    if (i < n_train) {
      train->samples_.push_back(q);
    } else if (i < n_train + n_val) {
      val->samples_.push_back(q);
    } else {
      test->samples_.push_back(q);
    }
  }
  return Status::OK();
}

Dataset Dataset::FilterStructure(QueryStructure structure) const {
  Dataset out;
  for (const LabeledQuery& q : samples_) {
    if (q.structure == structure) out.samples_.push_back(q);
  }
  return out;
}

Dataset Dataset::FilterCategory(const std::string& category) const {
  Dataset out;
  for (const LabeledQuery& q : samples_) {
    if (category == q.ParallelismCategory()) out.samples_.push_back(q);
  }
  return out;
}

Dataset Dataset::Take(size_t n) const {
  Dataset out;
  for (size_t i = 0; i < std::min(n, samples_.size()); ++i) {
    out.samples_.push_back(samples_[i]);
  }
  return out;
}

Status CheckLabels(const Dataset& set, std::string_view role) {
  for (size_t i = 0; i < set.size(); ++i) {
    const LabeledQuery& q = set.sample(i);
    if (!std::isfinite(q.latency_ms) || !std::isfinite(q.throughput_tps)) {
      return Status::InvalidArgument(
          std::string(role) + " sample " + std::to_string(i) +
          " has a non-finite label (latency_ms=" +
          std::to_string(q.latency_ms) + ", throughput_tps=" +
          std::to_string(q.throughput_tps) + ")");
    }
  }
  return Status::OK();
}

Status CheckTrainingSet(const Dataset& train) {
  if (train.empty()) return Status::InvalidArgument("empty training set");
  return CheckLabels(train, "training");
}

}  // namespace zerotune::workload
