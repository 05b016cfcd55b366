#ifndef ZEROTUNE_BENCH_E2E_LAYERS_H_
#define ZEROTUNE_BENCH_E2E_LAYERS_H_

// Per-layer measurement from outside the library. The probes below are
// injected through seams the library already has — a CostPredictor handed
// to the optimizer or the fleet's PrimaryFactory, and a SearchSpace passed
// via ParallelismOptimizer::Options::search_space — and are used only in
// the traced phase. SpanFolder turns the recorded spans (the probes' own
// plus the library's batch_inference/*, optimizer/*, serve/execute and
// trainer/*) into per-span self time.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/cost_predictor.h"
#include "core/model.h"
#include "core/search_space.h"
#include "obs/trace.h"

namespace zerotune::e2e {

/// Time and work seen at the model and search-space seams. Atomic because
/// serve-closed calls the predictor from several pool threads; read only
/// once the phase is quiescent.
struct LayerCounters {
  std::atomic<int64_t> predict_nanos{0};
  std::atomic<uint64_t> predict_calls{0};
  std::atomic<int64_t> batch_nanos{0};
  std::atomic<uint64_t> batch_calls{0};
  std::atomic<uint64_t> batch_plans{0};
  std::atomic<uint64_t> unique_plans{0};
  std::atomic<uint64_t> op_rows_encoded{0};
  std::atomic<uint64_t> op_rows_total{0};
  std::atomic<uint64_t> res_rows_encoded{0};
  std::atomic<uint64_t> res_rows_total{0};
  std::atomic<int64_t> enumerate_nanos{0};
  std::atomic<uint64_t> enumerate_candidates{0};
};

/// CostPredictor over a ZeroTuneModel that times each call. Predict()
/// forwards to the model; PredictBatch() calls core::BatchedPredict with
/// the model's thread pool — what ZeroTuneModel::PredictBatch does — so
/// it can also collect BatchInferenceStats.
class ProbedPredictor : public core::CostPredictor {
 public:
  ProbedPredictor(const core::ZeroTuneModel* model, LayerCounters* counters)
      : model_(model), counters_(counters) {}

  Result<core::CostPrediction> Predict(
      const dsp::ParallelQueryPlan& plan) const override;
  Result<std::vector<core::CostPrediction>> PredictBatch(
      std::span<const dsp::ParallelQueryPlan* const> plans) const override;
  std::string name() const override { return model_->name(); }

 private:
  const core::ZeroTuneModel* model_;
  LayerCounters* counters_;
};

/// SearchSpace decorator timing Enumerate() and counting candidates.
class TimedSearchSpace : public core::SearchSpace {
 public:
  TimedSearchSpace(const core::SearchSpace* inner, LayerCounters* counters)
      : inner_(inner), counters_(counters) {}

  Result<std::vector<core::PlanCandidate>> Enumerate(
      const dsp::QueryPlan& logical,
      const dsp::Cluster& cluster) const override;
  std::string name() const override { return inner_->name(); }

 private:
  const core::SearchSpace* inner_;
  LayerCounters* counters_;
};

/// Per-span-name self time over drained trace records. A span's self time
/// is its duration minus the durations of its direct children on the same
/// thread (spans on one thread nest strictly, by RAII).
class SpanFolder {
 public:
  /// Keeps up to `keep` raw records for --trace-out.
  explicit SpanFolder(size_t keep) : keep_(keep) {}

  /// Folds and clears the recorder's spans. Call only while no span is
  /// open, or the open ones are lost.
  void Drain(obs::TraceRecorder* recorder);

  /// Total self time of the spans named `name`.
  double SelfMs(const std::string& name) const;
  uint64_t spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  /// Writes the kept records as Chrome trace_event JSON.
  Status WriteChromeJson(const std::string& path) const;

 private:
  std::map<std::string, int64_t> self_nanos_;
  std::vector<obs::SpanRecord> kept_;
  size_t keep_;
  uint64_t spans_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace zerotune::e2e

#endif  // ZEROTUNE_BENCH_E2E_LAYERS_H_
