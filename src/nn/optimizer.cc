#include "nn/optimizer.h"

#include <cmath>
#include <istream>
#include <ostream>

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

void Adam::Step(const GradStore& grads) {
  ++step_count_;
  const double bc1 = 1.0 - std::pow(options_.beta1, step_count_);
  const double bc2 = 1.0 - std::pow(options_.beta2, step_count_);
  const auto& params = store_->parameters();
  for (size_t i = 0; i < params.size(); ++i) {
    const Matrix* g = grads.Find(params[i]->param_id);
    if (g == nullptr) continue;
    Matrix& value = params[i]->value;
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    for (size_t k = 0; k < value.size(); ++k) {
      const double gk = g->data()[k];
      m.data()[k] = options_.beta1 * m.data()[k] + (1.0 - options_.beta1) * gk;
      v.data()[k] =
          options_.beta2 * v.data()[k] + (1.0 - options_.beta2) * gk * gk;
      const double mhat = m.data()[k] / bc1;
      const double vhat = v.data()[k] / bc2;
      double update = mhat / (std::sqrt(vhat) + options_.epsilon);
      if (options_.weight_decay > 0.0) {
        update += options_.weight_decay * value.data()[k];
      }
      value.data()[k] -= options_.learning_rate * update;
    }
  }
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

Sgd::Sgd(ParameterStore* store, Options options)
    : store_(store), options_(options) {
  for (const auto& p : store_->parameters()) {
    velocity_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Sgd::Step(const GradStore& grads) {
  const auto& params = store_->parameters();
  for (size_t i = 0; i < params.size(); ++i) {
    const Matrix* g = grads.Find(params[i]->param_id);
    if (g == nullptr) continue;
    Matrix& value = params[i]->value;
    if (options_.momentum > 0.0) {
      Matrix& vel = velocity_[i];
      for (size_t k = 0; k < value.size(); ++k) {
        vel.data()[k] =
            options_.momentum * vel.data()[k] - options_.learning_rate * g->data()[k];
        value.data()[k] += vel.data()[k];
      }
    } else {
      value.AddScaled(*g, -options_.learning_rate);
    }
  }
  store_->BumpGeneration();
}

}  // namespace zerotune::nn
