#include "nn/autograd.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "common/thread_pool.h"

namespace zerotune::nn {

void GradStore::Accumulate(int param_id, Matrix g) {
  // try_emplace leaves g untouched when the key exists.
  auto [it, inserted] = grads_.try_emplace(param_id, std::move(g));
  if (!inserted) it->second.Add(g);
}

void GradStore::Merge(GradStore other) {
  for (auto& [id, g] : other.grads_) Accumulate(id, std::move(g));
}

void GradStore::Scale(double factor) {
  for (auto& [id, g] : grads_) g.Scale(factor);
}

GradStore::MergeStats GradStore::MergeAndScale(std::vector<GradStore> parts,
                                               double factor,
                                               zerotune::ThreadPool* pool) {
  // Entries enter this store serially, in exactly the try_emplace
  // sequence Merge would make, so the hash table (and with it the
  // iteration order the norm is summed in) ends up the same. A moved-in
  // entry leaves its part; what stays behind in a part is added below.
  for (GradStore& part : parts) {
    for (auto it = part.grads_.begin(); it != part.grads_.end();) {
      if (grads_.try_emplace(it->first, std::move(it->second)).second) {
        it = part.grads_.erase(it);
      } else {
        ++it;
      }
    }
  }
  std::vector<std::pair<const int, Matrix>*> entries;
  entries.reserve(grads_.size());
  for (auto& entry : grads_) entries.push_back(&entry);
  std::vector<double> squared(entries.size(), 0.0);
  std::vector<char> finite(entries.size(), 1);
  ParallelFor(pool, entries.size(), [&](size_t e) {
    Matrix& g = entries[e]->second;
    for (const GradStore& part : parts) {
      if (const Matrix* more = part.Find(entries[e]->first)) g.Add(*more);
    }
    // Scale's multiply and SquaredNorm's sum in one pass. A NaN or an
    // infinity makes the sum non-finite, so only then are the entries
    // checked one by one (finite entries can overflow the sum too).
    double sq = 0.0;
    double* x = g.data();
    for (size_t i = 0; i < g.size(); ++i) {
      x[i] *= factor;
      sq += x[i] * x[i];
    }
    squared[e] = sq;
    finite[e] = std::isfinite(sq) ||
                std::all_of(x, x + g.size(),
                            [](double v) { return std::isfinite(v); });
  });
  MergeStats stats;
  for (size_t e = 0; e < entries.size(); ++e) {
    stats.squared_norm += squared[e];
    stats.all_finite = stats.all_finite && finite[e] != 0;
  }
  return stats;
}

double GradStore::ClipGlobalNorm(double max_norm) {
  double sq = 0.0;
  for (const auto& [id, g] : grads_) sq += g.SquaredNorm();
  const double norm = std::sqrt(sq);
  const double factor = ClipFactor(norm, max_norm);
  if (factor != 1.0) Scale(factor);
  return norm;
}

double GradStore::ClipFactor(double norm, double max_norm) {
  return norm > max_norm && norm > 0.0 ? max_norm / norm : 1.0;
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
