#include "core/explain.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/train_batch.h"

namespace zerotune::core {

Result<std::vector<FeatureAttribution>> PredictionExplainer::Explain(
    const dsp::ParallelQueryPlan& plan) const {
  ZT_RETURN_IF_ERROR(plan.Validate());
  const FeatureConfig& config = model_->config().features;
  const PlanGraph graph = BuildPlanGraph(plan, config);
  const std::vector<std::string> names =
      FeatureEncoder::OperatorFeatureNames();

  // One occluded copy of the graph per non-zero operator-feature slot
  // (occluding a zero is a no-op). The copies are built and scored
  // kEvalChunk at a time, so a large plan never holds all of them and
  // their activations at once; a TrainBatch row does not depend on what
  // shares its chunk, so neither the base row nor any copy's row moves.
  struct Slot {
    size_t node;
    size_t slot;
  };
  std::vector<Slot> slots;
  for (size_t node = 0; node < graph.num_operators(); ++node) {
    for (size_t slot = 0; slot < graph.operator_features[node].size();
         ++slot) {
      if (graph.operator_features[node][slot] == 0.0) continue;
      slots.push_back({node, slot});
    }
  }
  // Normalized outputs are log-linear, so differences are relative-cost
  // shifts.
  const nn::Matrix base = ForwardGraph(*model_, graph);
  std::vector<FeatureAttribution> attrs;
  attrs.reserve(slots.size());
  std::vector<PlanGraph> occluded;
  std::vector<const PlanGraph*> chunk;
  for (size_t lo = 0; lo < slots.size(); lo += kEvalChunk) {
    const size_t hi = std::min(slots.size(), lo + kEvalChunk);
    occluded.assign(hi - lo, graph);
    chunk.clear();
    for (size_t i = lo; i < hi; ++i) {
      occluded[i - lo].operator_features[slots[i].node][slots[i].slot] = 0.0;
      chunk.push_back(&occluded[i - lo]);
    }
    const nn::Matrix out = TrainBatch(*model_, chunk).outputs();
    for (size_t i = lo; i < hi; ++i) {
      const Slot& s = slots[i];
      FeatureAttribution a;
      a.operator_id = static_cast<int>(s.node);
      a.feature_name = s.slot < names.size() ? names[s.slot] : "?";
      a.feature_value = graph.operator_features[s.node][s.slot];
      a.latency_impact = base(0, 0) - out(i - lo, 0);
      a.throughput_impact = base(0, 1) - out(i - lo, 1);
      attrs.push_back(std::move(a));
    }
  }

  std::sort(attrs.begin(), attrs.end(),
            [](const FeatureAttribution& a, const FeatureAttribution& b) {
              const double ma =
                  std::abs(a.latency_impact) + std::abs(a.throughput_impact);
              const double mb =
                  std::abs(b.latency_impact) + std::abs(b.throughput_impact);
              return ma > mb;
            });
  if (options_.top_k > 0 && attrs.size() > options_.top_k) {
    attrs.resize(options_.top_k);
  }
  return attrs;
}

std::string PredictionExplainer::ToText(
    const std::vector<FeatureAttribution>& attrs) {
  std::ostringstream os;
  os.precision(3);
  for (const FeatureAttribution& a : attrs) {
    os << "  op" << a.operator_id << " " << a.feature_name << " (value "
       << a.feature_value << "): latency " << std::showpos
       << a.latency_impact << ", throughput " << a.throughput_impact
       << std::noshowpos << "\n";
  }
  return os.str();
}

}  // namespace zerotune::core
