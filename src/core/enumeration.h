#ifndef ZEROTUNE_CORE_ENUMERATION_H_
#define ZEROTUNE_CORE_ENUMERATION_H_

#include "common/rng.h"
#include "common/status.h"
#include "dsp/parallel_plan.h"

namespace zerotune::core {

/// Strategy that assigns parallelism degrees to a plan's operators when
/// collecting training data (paper Sec. IV). Implementations must also
/// re-derive partitioning and place instances, leaving the plan ready for
/// measurement.
///
/// Options carry a Validate() checked at construction; an invalid
/// configuration surfaces as the (unchanged) status from every subsequent
/// Assign() call instead of being silently clamped. The optimizer's
/// candidates come from a SearchSpace (core/search_space.h), not from
/// these training-corpus samplers.
class ParallelismEnumerator {
 public:
  virtual ~ParallelismEnumerator() = default;
  virtual Status Assign(dsp::ParallelQueryPlan* plan,
                        zerotune::Rng* rng) const = 0;
};

/// The paper's OptiSample strategy (Algorithm 1): traverse the operator
/// graph bottom-up, estimate each operator's selectivity (a noisy estimate
/// of the true value — Defs. 4–6 note estimates are deliberately
/// imperfect), propagate input/output rates (Def. 3), and set
/// P(ω) = sf · In_ER(ω) (Defs. 7–8), clamped to [1, min(max_parallelism,
/// cluster cores)]. The scaling factor sf is sampled per query from a
/// log-uniform range, mirroring the empirically-derived backpressure
/// thresholds of Dhalion/DS2-style controllers.
class OptiSampleEnumerator : public ParallelismEnumerator {
 public:
  struct Options {
    double min_scale_factor = 1e-5;
    double max_scale_factor = 2e-4;
    /// Lognormal sigma of the selectivity estimation error.
    double selectivity_noise_sigma = 0.25;
    int max_parallelism = 128;

    /// Rejects out-of-range settings (non-positive scale factors,
    /// inverted ranges, negative noise, max_parallelism < 1).
    Status Validate() const;
  };

  OptiSampleEnumerator() : OptiSampleEnumerator(Options()) {}
  explicit OptiSampleEnumerator(Options options)
      : options_(options), options_status_(options.Validate()) {}

  Status Assign(dsp::ParallelQueryPlan* plan,
                zerotune::Rng* rng) const override;

  /// Deterministic variant with a fixed scaling factor and exact
  /// selectivities — used by GridSearchSpace's candidate enumeration.
  static Status AssignWithScaleFactor(dsp::ParallelQueryPlan* plan,
                                      double scale_factor,
                                      int max_parallelism);

 private:
  Options options_;
  Status options_status_;
};

/// Baseline strategy: uniformly random degrees in [1, min(max_parallelism,
/// cluster cores)] per operator (paper's "random" / ZT-Random).
class RandomEnumerator : public ParallelismEnumerator {
 public:
  struct Options {
    int max_parallelism = 128;

    Status Validate() const;
  };

  RandomEnumerator() : RandomEnumerator(Options()) {}
  explicit RandomEnumerator(Options options)
      : options_(options), options_status_(options.Validate()) {}

  Status Assign(dsp::ParallelQueryPlan* plan,
                zerotune::Rng* rng) const override;

 private:
  Options options_;
  Status options_status_;
};

}  // namespace zerotune::core

#endif  // ZEROTUNE_CORE_ENUMERATION_H_
