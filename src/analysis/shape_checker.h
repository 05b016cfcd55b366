#ifndef ZEROTUNE_ANALYSIS_SHAPE_CHECKER_H_
#define ZEROTUNE_ANALYSIS_SHAPE_CHECKER_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "nn/layers.h"

namespace zerotune::analysis {

/// Expected shape of one parameter tensor, with the layer it belongs to
/// spelled out ("op_encoder.linear0.weight") so a mismatch names the
/// offending block instead of failing deep inside a matmul.
struct LayerShape {
  std::string name;
  size_t rows = 0;
  size_t cols = 0;
};

/// The named parameter list of a model in ParameterStore creation order —
/// per Linear: weight (in×out) then bias (1×out); per Mlp: its Linears in
/// sequence. core::ZeroTuneModel::Load builds one from its own blocks and
/// verifies a model file against it before any tensor is materialized.
///
/// Diagnostic codes:
///   ZT-M001 parameter count mismatch      ZT-M003 layer shape mismatch
///   ZT-M002 truncated parameter stream    ZT-M004 bad parameter header
class GnnShapeSpec {
 public:
  /// Appends one Linear layer (weight then bias).
  void AddLinear(const std::string& name, size_t in, size_t out);
  /// Appends every Linear of `mlp` as name.linear0, name.linear1, ...
  void AddMlp(const std::string& name, const nn::Mlp& mlp);

  /// Verifies a "zerotune-params-v1" stream against the expected shapes
  /// without loading any values. Reports every shape mismatch it can reach
  /// (truncation necessarily stops the scan).
  DiagnosticReport VerifyParamStream(std::istream& is) const;

 private:
  std::vector<LayerShape> layers_;
};

}  // namespace zerotune::analysis

#endif  // ZEROTUNE_ANALYSIS_SHAPE_CHECKER_H_
