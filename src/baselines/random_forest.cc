#include "baselines/random_forest.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "baselines/flat_vector.h"

namespace zerotune::baselines {

namespace {

/// Combined (latency + throughput) sum of squared deviations of a subset.
struct TargetStats {
  double sum_lat = 0.0, sum_sq_lat = 0.0;
  double sum_tpt = 0.0, sum_sq_tpt = 0.0;
  double count = 0.0;

  void Add(double lat, double tpt) {
    sum_lat += lat;
    sum_sq_lat += lat * lat;
    sum_tpt += tpt;
    sum_sq_tpt += tpt * tpt;
    count += 1.0;
  }
  void Remove(double lat, double tpt) {
    sum_lat -= lat;
    sum_sq_lat -= lat * lat;
    sum_tpt -= tpt;
    sum_sq_tpt -= tpt * tpt;
    count -= 1.0;
  }
  double Sse() const {
    if (count <= 0.0) return 0.0;
    const double sse_lat = sum_sq_lat - sum_lat * sum_lat / count;
    const double sse_tpt = sum_sq_tpt - sum_tpt * sum_tpt / count;
    return std::max(0.0, sse_lat) + std::max(0.0, sse_tpt);
  }
};

}  // namespace

int RandomForestModel::BuildNode(Tree* tree, const TrainData& data,
                                 std::vector<size_t>& indices, size_t begin,
                                 size_t end, size_t depth,
                                 zerotune::Rng* rng) const {
  const size_t count = end - begin;
  const int node_id = static_cast<int>(tree->size());
  tree->push_back(TreeNode{});

  TargetStats all;
  for (size_t i = begin; i < end; ++i) {
    all.Add(data.y_lat[indices[i]], data.y_tpt[indices[i]]);
  }

  auto make_leaf = [&]() {
    TreeNode& node = (*tree)[static_cast<size_t>(node_id)];
    node.feature = -1;
    node.leaf_latency = all.sum_lat / std::max(1.0, all.count);
    node.leaf_throughput = all.sum_tpt / std::max(1.0, all.count);
    return node_id;
  };

  if (depth >= options_.max_depth ||
      count < 2 * options_.min_samples_leaf || all.Sse() < 1e-9) {
    return make_leaf();
  }

  // Sample the candidate feature subset.
  const size_t dim = data.x[0].size();
  std::vector<size_t> features(dim);
  std::iota(features.begin(), features.end(), 0);
  rng->Shuffle(&features);
  const size_t n_feats = std::max<size_t>(
      1, static_cast<size_t>(options_.feature_fraction *
                             static_cast<double>(dim)));
  features.resize(n_feats);

  double best_gain = 0.0;
  int best_feature = -1;
  double best_threshold = 0.0;

  std::vector<size_t> sorted(indices.begin() + static_cast<long>(begin),
                             indices.begin() + static_cast<long>(end));
  for (size_t f : features) {
    std::sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
      return data.x[a][f] < data.x[b][f];
    });
    TargetStats left;
    TargetStats right = all;
    for (size_t k = 0; k + 1 < sorted.size(); ++k) {
      const size_t idx = sorted[k];
      left.Add(data.y_lat[idx], data.y_tpt[idx]);
      right.Remove(data.y_lat[idx], data.y_tpt[idx]);
      if (k + 1 < options_.min_samples_leaf ||
          sorted.size() - (k + 1) < options_.min_samples_leaf) {
        continue;
      }
      const double v = data.x[idx][f];
      const double v_next = data.x[sorted[k + 1]][f];
      if (v_next <= v) continue;  // cannot split between equal values
      const double gain = all.Sse() - left.Sse() - right.Sse();
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (v + v_next);
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  // Partition indices[begin, end) by the chosen split.
  auto mid_it = std::partition(
      indices.begin() + static_cast<long>(begin),
      indices.begin() + static_cast<long>(end), [&](size_t idx) {
        return data.x[idx][static_cast<size_t>(best_feature)] <=
               best_threshold;
      });
  const size_t mid =
      static_cast<size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return make_leaf();

  const int left_id =
      BuildNode(tree, data, indices, begin, mid, depth + 1, rng);
  const int right_id =
      BuildNode(tree, data, indices, mid, end, depth + 1, rng);
  TreeNode& node = (*tree)[static_cast<size_t>(node_id)];
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left_id;
  node.right = right_id;
  return node_id;
}

Status RandomForestModel::Fit(const workload::Dataset& train) {
  ZT_RETURN_IF_ERROR(workload::CheckTrainingSet(train));
  TrainData data;
  data.x.reserve(train.size());
  for (const auto& q : train.samples()) {
    data.x.push_back(FlatVectorEncoder::Encode(q.plan));
    data.y_lat.push_back(std::log1p(std::max(q.latency_ms, 0.0)));
    data.y_tpt.push_back(std::log1p(std::max(q.throughput_tps, 0.0)));
  }

  zerotune::Rng rng(options_.seed);
  trees_.clear();
  trees_.reserve(options_.num_trees);
  const size_t n = train.size();
  for (size_t t = 0; t < options_.num_trees; ++t) {
    // Bootstrap sample.
    std::vector<size_t> indices(n);
    for (size_t i = 0; i < n; ++i) {
      indices[i] = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    }
    Tree tree;
    zerotune::Rng tree_rng = rng.Fork();
    BuildNode(&tree, data, indices, 0, n, 0, &tree_rng);
    trees_.push_back(std::move(tree));
  }
  fitted_ = true;
  return Status::OK();
}

Result<core::CostPrediction> RandomForestModel::Predict(
    const dsp::ParallelQueryPlan& plan) const {
  if (!fitted_) {
    return Status::FailedPrecondition(
        name() + " predictor is not fitted (call Fit first); cannot "
        "score a " + std::to_string(plan.logical().num_operators()) +
        "-operator plan on " +
        std::to_string(plan.cluster().num_nodes()) + " nodes");
  }
  const std::vector<double> x = FlatVectorEncoder::Encode(plan);
  double lat = 0.0, tpt = 0.0;
  for (const Tree& tree : trees_) {
    int node = 0;
    while (tree[static_cast<size_t>(node)].feature >= 0) {
      const TreeNode& tn = tree[static_cast<size_t>(node)];
      node = x[static_cast<size_t>(tn.feature)] <= tn.threshold ? tn.left
                                                                : tn.right;
    }
    lat += tree[static_cast<size_t>(node)].leaf_latency;
    tpt += tree[static_cast<size_t>(node)].leaf_throughput;
  }
  const double inv = 1.0 / static_cast<double>(trees_.size());
  core::CostPrediction p;
  p.latency_ms = std::max(0.0, std::expm1(lat * inv));
  p.throughput_tps = std::max(0.0, std::expm1(tpt * inv));
  return p;
}

size_t RandomForestModel::num_nodes() const {
  size_t total = 0;
  for (const Tree& t : trees_) total += t.size();
  return total;
}

}  // namespace zerotune::baselines
