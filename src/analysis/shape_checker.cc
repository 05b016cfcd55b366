#include "analysis/shape_checker.h"

#include <algorithm>
#include <istream>

namespace zerotune::analysis {

namespace {

std::string Shape(size_t rows, size_t cols) {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

}  // namespace

void GnnShapeSpec::AddLinear(const std::string& name, size_t in, size_t out) {
  layers_.push_back({name + ".weight", in, out});
  layers_.push_back({name + ".bias", 1, out});
}

void GnnShapeSpec::AddMlp(const std::string& name, const nn::Mlp& mlp) {
  for (size_t i = 0; i < mlp.layers().size(); ++i) {
    const nn::Linear& layer = mlp.layers()[i];
    AddLinear(name + ".linear" + std::to_string(i), layer.in_features(),
              layer.out_features());
  }
}

DiagnosticReport GnnShapeSpec::VerifyParamStream(std::istream& is) const {
  DiagnosticReport report;
  std::string magic;
  size_t count = 0;
  is >> magic >> count;
  if (!is || magic != "zerotune-params-v1") {
    report.AddError("ZT-M004",
                    "bad parameter stream header (want zerotune-params-v1)",
                    -1, "", "the file is not a serialized parameter store");
    return report;
  }
  if (count != layers_.size()) {
    report.AddError(
        "ZT-M001",
        "parameter count mismatch: file has " + std::to_string(count) +
            " tensors, architecture expects " +
            std::to_string(layers_.size()),
        -1, "",
        "the file was saved by a different architecture or feature config");
  }
  const size_t check = std::min(count, layers_.size());
  for (size_t i = 0; i < check; ++i) {
    const LayerShape& want = layers_[i];
    size_t rows = 0, cols = 0;
    is >> rows >> cols;
    if (!is) {
      report.AddError("ZT-M002",
                      "parameter stream truncated at tensor " +
                          std::to_string(i) + " (" + want.name + ")",
                      -1, "", "the model file is incomplete or corrupt");
      return report;
    }
    if (rows != want.rows || cols != want.cols) {
      report.AddError("ZT-M003",
                      "layer " + want.name + " has shape " +
                          Shape(rows, cols) + ", architecture expects " +
                          Shape(want.rows, want.cols),
                      -1, "",
                      "hidden_dim or feature dimensions differ from the "
                      "saved model");
      // The declared shape is still used to skip to the next tensor
      // boundary, but only when it is small enough to trust; an absurd
      // declared size means the stream is garbage past this point.
      const bool plausible = rows > 0 && cols > 0 && rows * cols <= (1u << 26);
      if (!plausible) return report;
    }
    // Skip the declared number of values to reach the next tensor.
    double v = 0.0;
    for (size_t k = 0; k < rows * cols; ++k) {
      is >> v;
      if (!is) {
        report.AddError("ZT-M002",
                        "parameter stream truncated inside tensor " +
                            want.name,
                        -1, "", "the model file is incomplete or corrupt");
        return report;
      }
    }
  }
  return report;
}

}  // namespace zerotune::analysis
