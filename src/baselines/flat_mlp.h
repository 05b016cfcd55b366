#ifndef ZEROTUNE_BASELINES_FLAT_MLP_H_
#define ZEROTUNE_BASELINES_FLAT_MLP_H_

#include <memory>
#include <vector>

#include "core/cost_predictor.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "workload/dataset.h"

namespace zerotune::baselines {

/// "Flat Vector MLP" baseline of Fig. 5: a plain MLP trained on the
/// non-structural flat plan vector, predicting normalized log latency and
/// throughput. Shares the nn library with ZeroTune: it trains on
/// nn::MlpPass, the fp64 pass every block of the GNN runs on, one pass
/// per mini-batch. The only difference from the paper's model is the
/// representation — which is the point of the comparison.
class FlatMlpModel : public core::CostPredictor {
 public:
  struct Options {
    size_t hidden_dim = 64;
    size_t epochs = 120;
    size_t batch_size = 32;
    double learning_rate = 1e-3;
    double weight_decay = 1e-5;
    uint64_t seed = 17;
  };

  FlatMlpModel() : FlatMlpModel(Options()) {}
  explicit FlatMlpModel(Options options);

  /// Fits on `train`. Fails with Internal, naming the epoch and batch,
  /// when a mini-batch's loss or gradient is NaN or infinite; the model
  /// is then unfitted.
  Status Fit(const workload::Dataset& train);

  Result<core::CostPrediction> Predict(
      const dsp::ParallelQueryPlan& plan) const override;
  std::string name() const override { return "FlatVectorMLP"; }

 private:
  std::vector<double> Standardize(std::vector<double> x) const;

  Options options_;
  bool fitted_ = false;
  nn::ParameterStore params_;
  std::unique_ptr<nn::Mlp> mlp_;
  std::vector<double> mean_, std_;
  double lat_mean_ = 0.0, lat_std_ = 1.0;
  double tpt_mean_ = 0.0, tpt_std_ = 1.0;
};

}  // namespace zerotune::baselines

#endif  // ZEROTUNE_BASELINES_FLAT_MLP_H_
