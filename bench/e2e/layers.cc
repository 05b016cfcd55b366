#include "layers.h"

#include <algorithm>

#include "core/batch_inference.h"
#include "harness.h"

namespace zerotune::e2e {

Result<core::CostPrediction> ProbedPredictor::Predict(
    const dsp::ParallelQueryPlan& plan) const {
  obs::Span span("bench/model_predict", "bench");
  const int64_t t0 = NowNanos();
  Result<core::CostPrediction> out = model_->Predict(plan);
  counters_->predict_nanos += NowNanos() - t0;
  ++counters_->predict_calls;
  return out;
}

Result<std::vector<core::CostPrediction>> ProbedPredictor::PredictBatch(
    std::span<const dsp::ParallelQueryPlan* const> plans) const {
  obs::Span span("bench/predict_batch", "bench");
  core::BatchInferenceStats stats;
  const int64_t t0 = NowNanos();
  Result<std::vector<core::CostPrediction>> out =
      core::BatchedPredict(*model_, plans, model_->thread_pool(), &stats);
  counters_->batch_nanos += NowNanos() - t0;
  ++counters_->batch_calls;
  counters_->batch_plans += stats.plans;
  counters_->unique_plans += stats.unique_plans;
  counters_->op_rows_encoded += stats.operator_rows_encoded;
  counters_->op_rows_total += stats.operator_rows_total;
  counters_->res_rows_encoded += stats.resource_rows_encoded;
  counters_->res_rows_total += stats.resource_rows_total;
  return out;
}

Result<std::vector<core::PlanCandidate>> TimedSearchSpace::Enumerate(
    const dsp::QueryPlan& logical, const dsp::Cluster& cluster) const {
  obs::Span span("bench/search_space_enumerate", "bench");
  const int64_t t0 = NowNanos();
  Result<std::vector<core::PlanCandidate>> out =
      inner_->Enumerate(logical, cluster);
  counters_->enumerate_nanos += NowNanos() - t0;
  if (out.ok()) counters_->enumerate_candidates += out.value().size();
  return out;
}

void SpanFolder::Drain(obs::TraceRecorder* recorder) {
  std::vector<obs::SpanRecord> records = recorder->Snapshot();
  dropped_ += recorder->dropped();
  recorder->Clear();
  spans_ += records.size();

  // Parent = innermost open span of the same thread at the child's start:
  // sort each thread's records by (start, depth) and keep a stack.
  std::vector<size_t> order(records.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const obs::SpanRecord& x = records[a];
    const obs::SpanRecord& y = records[b];
    if (x.thread_index != y.thread_index) {
      return x.thread_index < y.thread_index;
    }
    if (x.start_nanos != y.start_nanos) return x.start_nanos < y.start_nanos;
    return x.depth < y.depth;
  });
  std::vector<int64_t> child_nanos(records.size(), 0);
  std::vector<size_t> stack;
  uint32_t thread = UINT32_MAX;
  for (size_t i : order) {
    const obs::SpanRecord& r = records[i];
    if (r.thread_index != thread) {
      stack.clear();
      thread = r.thread_index;
    }
    while (!stack.empty() && records[stack.back()].depth >= r.depth) {
      stack.pop_back();
    }
    if (!stack.empty()) child_nanos[stack.back()] += r.duration_nanos;
    stack.push_back(i);
  }
  for (size_t i = 0; i < records.size(); ++i) {
    self_nanos_[records[i].name] +=
        records[i].duration_nanos - child_nanos[i];
  }
  for (obs::SpanRecord& r : records) {
    if (kept_.size() >= keep_) break;
    kept_.push_back(std::move(r));
  }
}

double SpanFolder::SelfMs(const std::string& name) const {
  const auto it = self_nanos_.find(name);
  return it == self_nanos_.end() ? 0.0
                                 : static_cast<double>(it->second) / 1e6;
}

Status SpanFolder::WriteChromeJson(const std::string& path) const {
  obs::TraceRecorder out;
  out.Enable(nullptr, kept_.size() + 1);
  for (const obs::SpanRecord& r : kept_) out.Append(r);
  return out.WriteChromeJson(path);
}

}  // namespace zerotune::e2e
