#include "nn/autograd.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>

namespace zerotune::nn {

void GradStore::Accumulate(int param_id, Matrix g) {
  // try_emplace leaves g untouched when the key exists.
  auto [it, inserted] = grads_.try_emplace(param_id, std::move(g));
  if (!inserted) it->second.Add(g);
}

const Matrix* GradStore::Find(int param_id) const {
  auto it = grads_.find(param_id);
  return it == grads_.end() ? nullptr : &it->second;
}

NodePtr ParameterStore::CreateParameter(size_t rows, size_t cols,
                                        zerotune::Rng* rng, bool zero_init) {
  Matrix value(rows, cols);
  if (!zero_init) {
    const double fan_in = static_cast<double>(rows);
    const double bound = std::sqrt(6.0 / std::max(fan_in, 1.0));
    for (size_t i = 0; i < value.size(); ++i) {
      value.data()[i] = rng->Uniform(-bound, bound);
    }
  }
  auto n = std::make_shared<Node>();
  n->value = std::move(value);
  n->param_id = static_cast<int>(params_.size());
  params_.push_back(n);
  BumpGeneration();
  return n;
}

size_t ParameterStore::num_parameters() const {
  size_t total = 0;
  for (const auto& p : params_) total += p->value.size();
  return total;
}

zerotune::Status ParameterStore::SaveToStream(std::ostream& os) const {
  os.precision(17);
  os << "zerotune-params-v1 " << params_.size() << "\n";
  for (const auto& p : params_) {
    os << p->value.rows() << " " << p->value.cols();
    for (size_t i = 0; i < p->value.size(); ++i) {
      os << " " << p->value.data()[i];
    }
    os << "\n";
  }
  return os ? zerotune::Status::OK()
            : zerotune::Status::IOError("parameter stream write failed");
}

zerotune::Status ParameterStore::LoadFromStream(std::istream& is) {
  std::string magic;
  size_t count = 0;
  is >> magic >> count;
  if (magic != "zerotune-params-v1") {
    return zerotune::Status::InvalidArgument("bad parameter file header");
  }
  if (count != params_.size()) {
    return zerotune::Status::InvalidArgument(
        "parameter count mismatch: file has " + std::to_string(count) +
        ", store has " + std::to_string(params_.size()));
  }
  // Parse into scratch buffers and commit only after the whole stream
  // validated, so a failed load leaves the live parameters (and the
  // generation) untouched.
  std::vector<Matrix> loaded;
  loaded.reserve(params_.size());
  for (size_t pi = 0; pi < params_.size(); ++pi) {
    auto& p = params_[pi];
    size_t rows = 0, cols = 0;
    is >> rows >> cols;
    if (!is) {
      return zerotune::Status::IOError(
          "truncated parameter stream at parameter " + std::to_string(pi));
    }
    if (rows != p->value.rows() || cols != p->value.cols()) {
      return zerotune::Status::InvalidArgument(
          "parameter " + std::to_string(pi) + " shape mismatch: file has " +
          std::to_string(rows) + "x" + std::to_string(cols) +
          ", store expects " + std::to_string(p->value.rows()) + "x" +
          std::to_string(p->value.cols()));
    }
    Matrix scratch(rows, cols);
    for (size_t i = 0; i < scratch.size(); ++i) {
      is >> scratch.data()[i];
      if (!is) {
        return zerotune::Status::IOError(
            "truncated parameter stream at parameter " + std::to_string(pi) +
            ", element " + std::to_string(i));
      }
      if (!std::isfinite(scratch.data()[i])) {
        return zerotune::Status::InvalidArgument(
            "non-finite value in parameter " + std::to_string(pi) +
            ", element " + std::to_string(i));
      }
    }
    loaded.push_back(std::move(scratch));
  }
  if (!is) return zerotune::Status::IOError("truncated parameter stream");
  return Restore(std::move(loaded));
}

zerotune::Status ParameterStore::CopyFrom(const ParameterStore& other) {
  return Restore(other.Snapshot());
}

std::vector<Matrix> ParameterStore::Snapshot() const {
  std::vector<Matrix> values;
  values.reserve(params_.size());
  for (const NodePtr& p : params_) values.push_back(p->value);
  return values;
}

zerotune::Status ParameterStore::Restore(std::vector<Matrix> values) {
  if (values.size() != params_.size()) {
    return zerotune::Status::InvalidArgument(
        "parameter count mismatch: got " + std::to_string(values.size()) +
        ", store has " + std::to_string(params_.size()));
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    if (!params_[i]->value.SameShape(values[i])) {
      return zerotune::Status::InvalidArgument(
          "parameter " + std::to_string(i) + " shape mismatch");
    }
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    params_[i]->value = std::move(values[i]);
  }
  BumpGeneration();
  return zerotune::Status::OK();
}

}  // namespace zerotune::nn
