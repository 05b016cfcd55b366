#include "support/autograd_oracle.h"

#include <cassert>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "nn/kernels.h"

namespace zerotune::nn::oracle {

namespace {

NodePtr MakeNode(Matrix value, std::vector<NodePtr> parents,
                 Node::BackwardFn fn) {
  auto n = std::make_shared<Node>();
  n->own = std::move(value);
  n->parents = std::move(parents);
  n->backward_fn = std::move(fn);
  return n;
}

/// a·b (a m×k, b k×n) on kernels::GemmRowMajorF64.
Matrix Product(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix out = Matrix::Uninitialized(a.rows(), b.cols());
  kernels::GemmRowMajorF64(a.data(), a.rows(), a.cols(), b.data(), b.cols(),
                           out.data());
  return out;
}

/// aᵀ·b (a m×n, b m×p) on kernels::GemmTransAF64.
Matrix ProductTransA(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix out = Matrix::Uninitialized(a.cols(), b.cols());
  kernels::GemmTransAF64(a.data(), a.rows(), a.cols(), b.data(), b.cols(),
                         out.data());
  return out;
}

/// a·bᵀ (a m×n, b p×n), each element summed in ascending order from 0.
Matrix ProductTransB(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  Matrix out(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data() + i * a.cols();
    for (size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.data() + j * b.cols();
      double s = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) s += arow[k] * brow[k];
      out(i, j) = s;
    }
  }
  return out;
}

}  // namespace

NodePtr Constant(Matrix value) {
  return MakeNode(std::move(value), {}, nullptr);
}

NodePtr Parameter(const Matrix& value, int param_id) {
  auto n = std::make_shared<Node>();
  n->param = &value;
  n->param_id = param_id;
  return n;
}

NodePtr Parameter(const nn::NodePtr& p) {
  return Parameter(p->value, p->param_id);
}

NodePtr MatMul(const NodePtr& a, const NodePtr& b) {
  Matrix out = Product(a->value(), b->value());
  return MakeNode(std::move(out), {a, b},
                  [](const Matrix& og, const std::vector<Node*>& parents,
                     const std::vector<Matrix*>& pg) {
                    // d/dA (A·B) = og·Bᵀ ;  d/dB = Aᵀ·og
                    pg[0]->Add(ProductTransB(og, parents[1]->value()));
                    pg[1]->Add(ProductTransA(parents[0]->value(), og));
                  });
}

NodePtr Add(const NodePtr& a, const NodePtr& b) {
  assert(a->value().SameShape(b->value()));
  Matrix out = a->value();
  out.Add(b->value());
  return MakeNode(std::move(out), {a, b},
                  [](const Matrix& og, const std::vector<Node*>&,
                     const std::vector<Matrix*>& pg) {
                    pg[0]->Add(og);
                    pg[1]->Add(og);
                  });
}

NodePtr AddRowBroadcast(const NodePtr& a, const NodePtr& bias) {
  const Matrix& b = bias->value();
  assert(b.rows() == 1 && b.cols() == a->value().cols());
  Matrix out = a->value();
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) out(r, c) += b(0, c);
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

NodePtr LeakyRelu(const NodePtr& a) {
  using kernels::kLeakyReluSlope;
  Matrix out = a->value();
  for (size_t i = 0; i < out.size(); ++i) {
    const double x = out.data()[i];
    out.data()[i] = x > 0.0 ? x : kLeakyReluSlope * x;
  }
  return MakeNode(
      std::move(out), {a},
      [](const Matrix& og, const std::vector<Node*>& parents,
         const std::vector<Matrix*>& pg) {
        const Matrix& x = parents[0]->value();
        Matrix& g = *pg[0];
        for (size_t i = 0; i < x.size(); ++i) {
          g.data()[i] +=
              og.data()[i] * (x.data()[i] > 0.0 ? 1.0 : kLeakyReluSlope);
        }
      });
}

NodePtr ConcatCols(const std::vector<NodePtr>& parts) {
  assert(!parts.empty());
  const size_t rows = parts[0]->value().rows();
  size_t cols = 0;
  for (const auto& p : parts) {
    assert(p->value().rows() == rows);
    cols += p->value().cols();
  }
  Matrix out(rows, cols);
  size_t offset = 0;
  for (const auto& p : parts) {
    const Matrix& v = p->value();
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < v.cols(); ++c) out(r, offset + c) = v(r, c);
    }
    offset += v.cols();
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
  Matrix out = parts[0]->value();
  for (size_t i = 1; i < parts.size(); ++i) out.Add(parts[i]->value());
  const double inv = 1.0 / static_cast<double>(parts.size());
  out.Scale(inv);
  return MakeNode(std::move(out), parts,
                  [inv](const Matrix& og, const std::vector<Node*>& parents,
                        const std::vector<Matrix*>& pg) {
                    for (size_t i = 0; i < parents.size(); ++i) {
                      double* g = pg[i]->data();
                      for (size_t k = 0; k < og.size(); ++k) {
                        g[k] += inv * og.data()[k];
                      }
                    }
                  });
}

NodePtr MseLoss(const NodePtr& prediction, const Matrix& target) {
  assert(prediction->value().SameShape(target));
  const size_t n = target.size();
  double loss = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = prediction->value().data()[i] - target.data()[i];
    loss += d * d;
  }
  Matrix out(1, 1, loss / static_cast<double>(n));
  Matrix target_copy = target;
  return MakeNode(
      std::move(out), {prediction},
      [target_copy, n](const Matrix& og, const std::vector<Node*>& parents,
                       const std::vector<Matrix*>& pg) {
        const double scale = og(0, 0) * 2.0 / static_cast<double>(n);
        const Matrix& pred = parents[0]->value();
        Matrix& g = *pg[0];
        for (size_t i = 0; i < n; ++i) {
          g.data()[i] += scale * (pred.data()[i] - target_copy.data()[i]);
        }
      });
}

void Backward(const NodePtr& loss, GradStore* grads) {
  assert(loss->value().rows() == 1 && loss->value().cols() == 1);

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
    if (node->param_id >= 0) {
      // A parameter is a leaf: nothing reads its gradient after this.
      grads->Accumulate(node->param_id, std::move(git->second));
      continue;
    }
    const Matrix& out_grad = git->second;
    if (!node->backward_fn) continue;  // constant leaf
    std::vector<Node*> parents;
    std::vector<Matrix*> parent_grads;
    parents.reserve(node->parents.size());
    parent_grads.reserve(node->parents.size());
    for (const NodePtr& p : node->parents) {
      parents.push_back(p.get());
      auto [pit, inserted] = node_grads.try_emplace(
          p.get(), Matrix(p->value().rows(), p->value().cols()));
      parent_grads.push_back(&pit->second);
    }
    node->backward_fn(out_grad, parents, parent_grads);
  }
}

NodePtr ParameterLeaves::Get(const Matrix& value, int param_id) {
  NodePtr& leaf = leaves_[param_id];
  if (leaf == nullptr) leaf = Parameter(value, param_id);
  return leaf;
}

NodePtr Forward(const Mlp& mlp, const NodePtr& x, ParameterLeaves* leaves) {
  assert(x->value().cols() == mlp.in_features());
  const std::vector<Linear>& layers = mlp.layers();
  NodePtr h = x;
  for (size_t i = 0; i < layers.size(); ++i) {
    const Linear& layer = layers[i];
    h = AddRowBroadcast(
        MatMul(h, leaves->Get(layer.weight_value(), layer.weight_id())),
        leaves->Get(layer.bias_value(), layer.bias_id()));
    const bool is_last = (i + 1 == layers.size());
    if (!is_last || mlp.options().activate_output) h = LeakyRelu(h);
  }
  return h;
}

}  // namespace zerotune::nn::oracle
