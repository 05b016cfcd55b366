#include "nn/autograd.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <fstream>
#include <unordered_set>

namespace zerotune::nn {

void GradStore::Accumulate(int param_id, const Matrix& g) {
  auto it = grads_.find(param_id);
  if (it == grads_.end()) {
    grads_.emplace(param_id, g);
  } else {
    it->second.Add(g);
  }
}

void GradStore::Merge(const GradStore& other) {
  for (const auto& [id, g] : other.grads_) Accumulate(id, g);
}

void GradStore::Scale(double factor) {
  for (auto& [id, g] : grads_) g.Scale(factor);
}

double GradStore::ClipGlobalNorm(double max_norm) {
  double sq = 0.0;
  for (const auto& [id, g] : grads_) sq += g.SquaredNorm();
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) Scale(max_norm / norm);
  return norm;
}

const Matrix* GradStore::Find(int param_id) const {
  auto it = grads_.find(param_id);
  return it == grads_.end() ? nullptr : &it->second;
}

bool GradStore::AllFinite() const {
  for (const auto& [id, g] : grads_) {
    for (size_t i = 0; i < g.size(); ++i) {
      if (!std::isfinite(g.data()[i])) return false;
    }
  }
  return true;
}

namespace {

NodePtr MakeNode(Matrix value, std::vector<NodePtr> parents,
                 Node::BackwardFn fn) {
  auto n = std::make_shared<Node>();
  n->value = std::move(value);
  n->parents = std::move(parents);
  n->backward_fn = std::move(fn);
  return n;
}

/// Applies an elementwise unary op with derivative expressed in terms of
/// input x and output y.
NodePtr ElementwiseUnary(const NodePtr& a,
                         const std::function<double(double)>& f,
                         const std::function<double(double, double)>& dfdx) {
  Matrix out = a->value;
  for (size_t i = 0; i < out.size(); ++i) out.data()[i] = f(out.data()[i]);
  return MakeNode(
      std::move(out), {a},
      [dfdx](const Matrix& og, const std::vector<Node*>& parents,
             const std::vector<Matrix*>& pg) {
        const Matrix& x = parents[0]->value;
        Matrix& g = *pg[0];
        for (size_t i = 0; i < x.size(); ++i) {
          // Recompute y = f(x) lazily via dfdx(x, y); callers pass dfdx that
          // only needs x where possible.
          g.data()[i] += og.data()[i] * dfdx(x.data()[i], 0.0);
        }
      });
}

}  // namespace

NodePtr Constant(Matrix value) {
  return MakeNode(std::move(value), {}, nullptr);
}

NodePtr MatMul(const NodePtr& a, const NodePtr& b) {
  Matrix out = Matrix::MatMul(a->value, b->value);
  return MakeNode(std::move(out), {a, b},
                  [](const Matrix& og, const std::vector<Node*>& parents,
                     const std::vector<Matrix*>& pg) {
                    // d/dA (A·B) = og·Bᵀ ;  d/dB = Aᵀ·og
                    pg[0]->Add(Matrix::MatMulTransB(og, parents[1]->value));
                    pg[1]->Add(Matrix::MatMulTransA(parents[0]->value, og));
                  });
}

NodePtr Add(const NodePtr& a, const NodePtr& b) {
  assert(a->value.SameShape(b->value));
  Matrix out = a->value;
  out.Add(b->value);
  return MakeNode(std::move(out), {a, b},
                  [](const Matrix& og, const std::vector<Node*>&,
                     const std::vector<Matrix*>& pg) {
                    pg[0]->Add(og);
                    pg[1]->Add(og);
                  });
}

NodePtr Sub(const NodePtr& a, const NodePtr& b) {
  assert(a->value.SameShape(b->value));
  Matrix out = a->value;
  out.AddScaled(b->value, -1.0);
  return MakeNode(std::move(out), {a, b},
                  [](const Matrix& og, const std::vector<Node*>&,
                     const std::vector<Matrix*>& pg) {
                    pg[0]->Add(og);
                    pg[1]->AddScaled(og, -1.0);
                  });
}

NodePtr AddRowBroadcast(const NodePtr& a, const NodePtr& bias) {
  assert(bias->value.rows() == 1 && bias->value.cols() == a->value.cols());
  Matrix out = a->value;
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) out(r, c) += bias->value(0, c);
  }
  return MakeNode(std::move(out), {a, bias},
                  [](const Matrix& og, const std::vector<Node*>&,
                     const std::vector<Matrix*>& pg) {
                    pg[0]->Add(og);
                    Matrix& gb = *pg[1];
                    for (size_t r = 0; r < og.rows(); ++r) {
                      for (size_t c = 0; c < og.cols(); ++c) {
                        gb(0, c) += og(r, c);
                      }
                    }
                  });
}

NodePtr Scale(const NodePtr& a, double factor) {
  Matrix out = a->value;
  out.Scale(factor);
  return MakeNode(std::move(out), {a},
                  [factor](const Matrix& og, const std::vector<Node*>&,
                           const std::vector<Matrix*>& pg) {
                    pg[0]->AddScaled(og, factor);
                  });
}

NodePtr Relu(const NodePtr& a) {
  return ElementwiseUnary(
      a, [](double x) { return x > 0.0 ? x : 0.0; },
      [](double x, double) { return x > 0.0 ? 1.0 : 0.0; });
}

NodePtr LeakyRelu(const NodePtr& a, double alpha) {
  return ElementwiseUnary(
      a, [alpha](double x) { return x > 0.0 ? x : alpha * x; },
      [alpha](double x, double) { return x > 0.0 ? 1.0 : alpha; });
}

NodePtr Tanh(const NodePtr& a) {
  return ElementwiseUnary(
      a, [](double x) { return std::tanh(x); },
      [](double x, double) {
        const double t = std::tanh(x);
        return 1.0 - t * t;
      });
}

NodePtr Sigmoid(const NodePtr& a) {
  return ElementwiseUnary(
      a, [](double x) { return 1.0 / (1.0 + std::exp(-x)); },
      [](double x, double) {
        const double s = 1.0 / (1.0 + std::exp(-x));
        return s * (1.0 - s);
      });
}

NodePtr ConcatCols(const std::vector<NodePtr>& parts) {
  assert(!parts.empty());
  const size_t rows = parts[0]->value.rows();
  size_t cols = 0;
  for (const auto& p : parts) {
    assert(p->value.rows() == rows);
    cols += p->value.cols();
  }
  Matrix out(rows, cols);
  size_t offset = 0;
  for (const auto& p : parts) {
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < p->value.cols(); ++c) {
        out(r, offset + c) = p->value(r, c);
      }
    }
    offset += p->value.cols();
  }
  return MakeNode(std::move(out), parts,
                  [](const Matrix& og, const std::vector<Node*>& parents,
                     const std::vector<Matrix*>& pg) {
                    size_t offset = 0;
                    for (size_t i = 0; i < parents.size(); ++i) {
                      Matrix& g = *pg[i];
                      for (size_t r = 0; r < g.rows(); ++r) {
                        for (size_t c = 0; c < g.cols(); ++c) {
                          g(r, c) += og(r, offset + c);
                        }
                      }
                      offset += g.cols();
                    }
                  });
}

NodePtr MeanAll(const std::vector<NodePtr>& parts) {
  assert(!parts.empty());
  Matrix out = parts[0]->value;
  for (size_t i = 1; i < parts.size(); ++i) out.Add(parts[i]->value);
  const double inv = 1.0 / static_cast<double>(parts.size());
  out.Scale(inv);
  return MakeNode(std::move(out), parts,
                  [inv](const Matrix& og, const std::vector<Node*>& parents,
                        const std::vector<Matrix*>& pg) {
                    for (size_t i = 0; i < parents.size(); ++i) {
                      pg[i]->AddScaled(og, inv);
                    }
                  });
}

NodePtr SumAll(const std::vector<NodePtr>& parts) {
  assert(!parts.empty());
  Matrix out = parts[0]->value;
  for (size_t i = 1; i < parts.size(); ++i) out.Add(parts[i]->value);
  return MakeNode(std::move(out), parts,
                  [](const Matrix& og, const std::vector<Node*>& parents,
                     const std::vector<Matrix*>& pg) {
                    for (size_t i = 0; i < parents.size(); ++i) {
                      pg[i]->Add(og);
                    }
                  });
}

NodePtr MseLoss(const NodePtr& prediction, const Matrix& target) {
  assert(prediction->value.SameShape(target));
  const size_t n = target.size();
  double loss = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = prediction->value.data()[i] - target.data()[i];
    loss += d * d;
  }
  Matrix out(1, 1, loss / static_cast<double>(n));
  Matrix target_copy = target;
  return MakeNode(
      std::move(out), {prediction},
      [target_copy, n](const Matrix& og, const std::vector<Node*>& parents,
                       const std::vector<Matrix*>& pg) {
        const double scale = og(0, 0) * 2.0 / static_cast<double>(n);
        const Matrix& pred = parents[0]->value;
        Matrix& g = *pg[0];
        for (size_t i = 0; i < n; ++i) {
          g.data()[i] += scale * (pred.data()[i] - target_copy.data()[i]);
        }
      });
}

NodePtr HuberLoss(const NodePtr& prediction, const Matrix& target,
                  double delta) {
  assert(prediction->value.SameShape(target));
  const size_t n = target.size();
  double loss = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = prediction->value.data()[i] - target.data()[i];
    const double ad = std::abs(d);
    loss += ad <= delta ? 0.5 * d * d : delta * (ad - 0.5 * delta);
  }
  Matrix out(1, 1, loss / static_cast<double>(n));
  Matrix target_copy = target;
  return MakeNode(
      std::move(out), {prediction},
      [target_copy, n, delta](const Matrix& og,
                              const std::vector<Node*>& parents,
                              const std::vector<Matrix*>& pg) {
        const double scale = og(0, 0) / static_cast<double>(n);
        const Matrix& pred = parents[0]->value;
        Matrix& g = *pg[0];
        for (size_t i = 0; i < n; ++i) {
          const double d = pred.data()[i] - target_copy.data()[i];
          const double dd = std::abs(d) <= delta
                                ? d
                                : (d > 0.0 ? delta : -delta);
          g.data()[i] += scale * dd;
        }
      });
}

void Backward(const NodePtr& loss, GradStore* grads) {
  assert(loss->value.rows() == 1 && loss->value.cols() == 1);

  // Reverse topological order via iterative DFS.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(loss.get(), 0);
  visited.insert(loss.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Node* child = node->parents[next_child].get();
      ++next_child;
      if (visited.insert(child).second) stack.emplace_back(child, 0);
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // `order` is now a topological order with parents (inputs) first; walk it
  // backwards so each node's output gradient is complete before use.

  std::unordered_map<Node*, Matrix> node_grads;
  node_grads.reserve(order.size());
  node_grads[loss.get()] = Matrix(1, 1, 1.0);

  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    auto git = node_grads.find(node);
    if (git == node_grads.end()) continue;  // unreachable from loss
    const Matrix& out_grad = git->second;
    if (node->is_parameter()) {
      grads->Accumulate(node->param_id, out_grad);
      continue;
    }
    if (!node->backward_fn) continue;  // constant leaf
    std::vector<Node*> parents;
    std::vector<Matrix*> parent_grads;
    parents.reserve(node->parents.size());
    parent_grads.reserve(node->parents.size());
    for (const NodePtr& p : node->parents) {
      parents.push_back(p.get());
      auto [pit, inserted] = node_grads.try_emplace(
          p.get(), Matrix(p->value.rows(), p->value.cols()));
      parent_grads.push_back(&pit->second);
    }
    node->backward_fn(out_grad, parents, parent_grads);
  }
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

zerotune::Status ParameterStore::Save(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return zerotune::Status::IOError("cannot open " + path);
  ZT_RETURN_IF_ERROR(SaveToStream(f));
  return f ? zerotune::Status::OK()
           : zerotune::Status::IOError("write failed for " + path);
}

zerotune::Status ParameterStore::Load(const std::string& path) {
  std::ifstream f(path);
  if (!f) return zerotune::Status::IOError("cannot open " + path);
  return LoadFromStream(f);
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
