#include "nn/optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/thread_pool.h"
#include "nn/kernels.h"
#include "nn/mlp_pass.h"

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

Adam::StepResult Adam::Step(std::vector<GradStore> parts,
                            double batch_scale, double clip_norm,
                            zerotune::ThreadPool* pool,
                            TransposedWeights* weights_t) {
  // Stage 1. Entries enter `merged` serially, in the try_emplace sequence
  // accumulating every part in order would make, so the hash table (and
  // with it the order stage 2 sums in) follows only the parts. A
  // moved-in entry leaves its part; what stays behind is added below.
  GradStore::Map merged;
  for (GradStore& part : parts) {
    for (auto it = part.grads_.begin(); it != part.grads_.end();) {
      if (merged.try_emplace(it->first, std::move(it->second)).second) {
        it = part.grads_.erase(it);
      } else {
        ++it;
      }
    }
  }
  std::vector<std::pair<const int, Matrix>*> entries;
  entries.reserve(merged.size());
  for (auto& entry : merged) entries.push_back(&entry);
  std::vector<double> squared(entries.size(), 0.0);
  std::vector<char> finite(entries.size(), 1);
  ParallelFor(pool, entries.size(), [&](size_t e) {
    Matrix& g = entries[e]->second;
    for (const GradStore& part : parts) {
      if (const Matrix* more = part.Find(entries[e]->first)) g.Add(*more);
    }
    // The scale and the squared norm in one pass. A NaN or an infinity
    // makes the sum non-finite, so only then are the elements checked
    // one by one (finite elements can overflow the sum too).
    double sq = 0.0;
    double* x = g.data();
    for (size_t i = 0; i < g.size(); ++i) {
      x[i] *= batch_scale;
      sq += x[i] * x[i];
    }
    squared[e] = sq;
    finite[e] = std::isfinite(sq) ||
                std::all_of(x, x + g.size(),
                            [](double v) { return std::isfinite(v); });
  });

  // Stage 2.
  double sq = 0.0;
  bool all_finite = true;
  for (size_t e = 0; e < entries.size(); ++e) {
    sq += squared[e];
    all_finite = all_finite && finite[e] != 0;
  }
  StepResult result;
  result.grad_norm = std::sqrt(sq);
  if (!all_finite) return result;

  // Stage 3.
  ++step_count_;
  kernels::AdamStepF64Args args;
  args.learning_rate = options_.learning_rate;
  args.beta1 = options_.beta1;
  args.beta2 = options_.beta2;
  args.epsilon = options_.epsilon;
  args.weight_decay = options_.weight_decay;
  args.bias_correction1 = 1.0 - std::pow(options_.beta1, step_count_);
  args.bias_correction2 = 1.0 - std::pow(options_.beta2, step_count_);
  args.grad_scale = clip_norm > 0.0 && result.grad_norm > clip_norm
                        ? clip_norm / result.grad_norm
                        : 1.0;
  const auto& params = store_->parameters();
  // Parameters update independently, so any split over threads gives the
  // same bits.
  ParallelFor(pool, params.size(), [&](size_t i) {
    const auto it = merged.find(params[i]->param_id);
    if (it == merged.end()) return;
    const Matrix& g = it->second;
    Matrix& value = params[i]->value;
    assert(g.SameShape(value));
    kernels::AdamStepF64(value.data(), m_[i].data(), v_[i].data(), g.data(),
                         value.size(), args);
    if (weights_t != nullptr) weights_t->Refresh(params[i]->param_id);
  });
  store_->BumpGeneration();
  result.applied = true;
  return result;
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
