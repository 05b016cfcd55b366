#include "nn/optimizer.h"

#include <cassert>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/thread_pool.h"
#include "nn/kernels.h"

namespace zerotune::nn {

namespace {
constexpr char kAdamStateMagic[] = "zerotune-adam-v1";
}  // namespace

Adam::Adam(ParameterStore* store, Options options)
    : store_(store), options_(options) {
  Reset();
}

void Adam::Reset() {
  m_.clear();
  v_.clear();
  step_count_ = 0;
  for (const auto& p : store_->parameters()) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::Step(const GradStore& grads, double grad_scale,
                zerotune::ThreadPool* pool,
                const std::function<void(int param_id)>& updated) {
  ++step_count_;
  kernels::AdamStepF64Args args;
  args.learning_rate = options_.learning_rate;
  args.beta1 = options_.beta1;
  args.beta2 = options_.beta2;
  args.epsilon = options_.epsilon;
  args.weight_decay = options_.weight_decay;
  args.bias_correction1 = 1.0 - std::pow(options_.beta1, step_count_);
  args.bias_correction2 = 1.0 - std::pow(options_.beta2, step_count_);
  args.grad_scale = grad_scale;
  const auto& params = store_->parameters();
  // Parameters update independently, so any split over threads gives the
  // same bits.
  ParallelFor(pool, params.size(), [&](size_t i) {
    const Matrix* g = grads.Find(params[i]->param_id);
    if (g == nullptr) return;
    Matrix& value = params[i]->value;
    assert(g->SameShape(value));
    kernels::AdamStepF64(value.data(), m_[i].data(), v_[i].data(), g->data(),
                         value.size(), args);
    if (updated) updated(params[i]->param_id);
  });
  store_->BumpGeneration();
}

Status Adam::SaveState(std::ostream& os) const {
  os.precision(17);
  os << kAdamStateMagic << " " << m_.size() << " " << step_count_ << "\n";
  for (size_t i = 0; i < m_.size(); ++i) {
    os << m_[i].rows() << " " << m_[i].cols();
    for (size_t k = 0; k < m_[i].size(); ++k) os << " " << m_[i].data()[k];
    for (size_t k = 0; k < v_[i].size(); ++k) os << " " << v_[i].data()[k];
    os << "\n";
  }
  if (!os.good()) {
    return Status::IOError("failed writing Adam optimizer state");
  }
  return Status::OK();
}

Status Adam::LoadState(std::istream& is) {
  std::string magic;
  size_t count = 0;
  long steps = 0;
  if (!(is >> magic >> count >> steps) || magic != kAdamStateMagic) {
    return Status::IOError("bad Adam state header (want '" +
                              std::string(kAdamStateMagic) + "')");
  }
  const auto& params = store_->parameters();
  if (count != params.size()) {
    return Status::IOError(
        "Adam state has " + std::to_string(count) + " parameter(s), store has " +
        std::to_string(params.size()));
  }
  std::vector<Matrix> m, v;
  m.reserve(count);
  v.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t rows = 0, cols = 0;
    if (!(is >> rows >> cols)) {
      return Status::IOError("truncated Adam state at parameter " +
                                std::to_string(i));
    }
    if (rows != params[i]->value.rows() || cols != params[i]->value.cols()) {
      return Status::IOError(
          "Adam state shape mismatch at parameter " + std::to_string(i) +
          ": state " + std::to_string(rows) + "x" + std::to_string(cols) +
          ", store " + std::to_string(params[i]->value.rows()) + "x" +
          std::to_string(params[i]->value.cols()));
    }
    Matrix mi(rows, cols), vi(rows, cols);
    for (size_t k = 0; k < mi.size(); ++k) {
      if (!(is >> mi.data()[k])) {
        return Status::IOError("truncated Adam first moment at parameter " +
                                  std::to_string(i));
      }
    }
    for (size_t k = 0; k < vi.size(); ++k) {
      if (!(is >> vi.data()[k])) {
        return Status::IOError("truncated Adam second moment at parameter " +
                                  std::to_string(i));
      }
    }
    m.push_back(std::move(mi));
    v.push_back(std::move(vi));
  }
  m_ = std::move(m);
  v_ = std::move(v);
  step_count_ = steps;
  return Status::OK();
}

}  // namespace zerotune::nn
