#include "core/prescreen/analytical.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <string>

namespace zerotune::core {

namespace {

using dsp::Operator;
using dsp::OperatorType;

constexpr double kLogFloor = 1e-6;

/// Solves the n×n system a·x = b in place by Gaussian elimination with
/// partial pivoting. `a` is row-major. Local to the prescreen on purpose:
/// the baselines' linear-algebra helpers live above core in the link
/// graph and cannot be reused here.
Status SolveDense(std::vector<double>& a, std::vector<double>& b, size_t n) {
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r * n + col]) > std::abs(a[pivot * n + col])) pivot = r;
    }
    if (std::abs(a[pivot * n + col]) < 1e-12) {
      return Status::Internal("singular system in prescreen calibration");
    }
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a[col * n + col];
    for (size_t r = col + 1; r < n; ++r) {
      const double f = a[r * n + col] * inv;
      if (f == 0.0) continue;
      for (size_t c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      b[r] -= f * b[col];
    }
  }
  for (size_t i = n; i-- > 0;) {
    double v = b[i];
    for (size_t c = i + 1; c < n; ++c) v -= a[i * n + c] * b[c];
    b[i] = v / a[i * n + i];
  }
  return Status::OK();
}

/// Ridge-regularized least squares: solves (XᵀX + λI)β = Xᵀy.
Result<std::vector<double>> RidgeFit(const std::vector<std::vector<double>>& x,
                                     const std::vector<double>& y,
                                     size_t cols, double ridge) {
  std::vector<double> ata(cols * cols, 0.0);
  std::vector<double> aty(cols, 0.0);
  for (size_t r = 0; r < x.size(); ++r) {
    for (size_t i = 0; i < cols; ++i) {
      aty[i] += x[r][i] * y[r];
      for (size_t j = 0; j < cols; ++j) ata[i * cols + j] += x[r][i] * x[r][j];
    }
  }
  for (size_t i = 0; i < cols; ++i) ata[i * cols + i] += ridge;
  ZT_RETURN_IF_ERROR(SolveDense(ata, aty, cols));
  return aty;
}

}  // namespace

Status AnalyticalPrescreen::Options::Validate() const {
  if (!(weight >= 0.0 && weight <= 1.0)) {
    return Status::InvalidArgument(
        "prescreen weight must lie in [0, 1], got " + std::to_string(weight));
  }
  if (!(ridge > 0.0)) {
    return Status::InvalidArgument("prescreen ridge must be positive, got " +
                                   std::to_string(ridge));
  }
  return Status::OK();
}

Result<std::vector<std::vector<int>>> AnalyticalPrescreen::ProbeLadder(
    const dsp::QueryPlan& logical, const dsp::Cluster& cluster,
    int max_parallelism, size_t max_probes) {
  ZT_RETURN_IF_ERROR(logical.Validate());
  if (max_probes < 2) {
    return Status::InvalidArgument("probe ladder needs at least 2 rungs");
  }
  const int cap =
      std::max(1, std::min(max_parallelism, cluster.TotalCores()));
  const size_t n = logical.num_operators();
  std::vector<std::vector<int>> probes;
  std::set<std::vector<int>> seen;
  auto add = [&](std::vector<int> degrees) {
    if (probes.size() < max_probes && seen.insert(degrees).second) {
      probes.push_back(std::move(degrees));
    }
  };
  // The ladder has to excite every fitted direction independently:
  // uniform rungs alone form a one-parameter family, leaving the
  // per-kind coefficients unidentifiable and source scaling (which the
  // OptiSample candidates rely on) invisible to the fit.
  std::vector<int> all_one(n, 1);
  std::vector<int> full_blast(n, 1);   // every non-sink op at the cap
  std::vector<int> processing_cap(n, 1);  // sources stay at 1
  for (const Operator& op : logical.operators()) {
    const size_t i = static_cast<size_t>(op.id);
    if (op.type != OperatorType::kSink) full_blast[i] = cap;
    if (op.type != OperatorType::kSink && op.type != OperatorType::kSource) {
      processing_cap[i] = cap;
    }
  }
  add(all_one);
  add(full_blast);
  add(processing_cap);
  // One probe per pattern kind present: only that kind's processing
  // operators at the cap, separating the kinds' closure columns.
  ZT_ASSIGN_OR_RETURN(const std::vector<analysis::PlanSegment> segments,
                      analysis::DecomposeSegments(logical));
  for (const analysis::SegmentKind kind :
       {analysis::SegmentKind::kPipeline, analysis::SegmentKind::kMapReduce,
        analysis::SegmentKind::kTaskPool}) {
    std::vector<int> degrees(n, 1);
    bool any = false;
    for (const analysis::PlanSegment& seg : segments) {
      if (seg.kind != kind) continue;
      for (int id : seg.operator_ids) {
        const OperatorType type = logical.op(id).type;
        if (type != OperatorType::kSource && type != OperatorType::kSink) {
          degrees[static_cast<size_t>(id)] = cap;
          any = true;
        }
      }
    }
    if (any) add(std::move(degrees));
  }
  // Fill the remaining budget with interior rungs of the uniform ladder
  // (all non-sink ops at a log-spaced mid degree).
  for (size_t i = 1; probes.size() < max_probes && i + 1 < max_probes; ++i) {
    const double t = static_cast<double>(i) /
                     static_cast<double>(max_probes - 1);
    const int d = std::clamp(
        static_cast<int>(std::lround(std::exp(t * std::log(cap)))), 1, cap);
    std::vector<int> degrees(n, 1);
    for (const Operator& op : logical.operators()) {
      if (op.type != OperatorType::kSink) {
        degrees[static_cast<size_t>(op.id)] = d;
      }
    }
    add(std::move(degrees));
  }
  return probes;
}

Result<AnalyticalPrescreen> AnalyticalPrescreen::Fit(
    const dsp::QueryPlan& logical, const dsp::Cluster& cluster,
    const std::vector<std::vector<int>>& probe_degrees,
    const std::vector<CostPrediction>& probe_costs, Options options) {
  (void)cluster;  // reserved for placement-aware closures (ROADMAP item 4)
  ZT_RETURN_IF_ERROR(options.Validate());
  ZT_RETURN_IF_ERROR(logical.Validate());
  if (probe_degrees.size() != probe_costs.size()) {
    return Status::InvalidArgument(
        "probe degrees/costs size mismatch: " +
        std::to_string(probe_degrees.size()) + " vs " +
        std::to_string(probe_costs.size()));
  }
  ZT_ASSIGN_OR_RETURN(std::vector<analysis::PlanSegment> segments,
                      analysis::DecomposeSegments(logical));
  size_t processing = 0;
  for (const analysis::PlanSegment& seg : segments) {
    processing += seg.processing_operators;
  }
  if (processing == 0) {
    return Status::InvalidArgument(
        "degenerate segment decomposition: no processing operators to "
        "model (lint code ZT-P026)");
  }
  if (probe_degrees.size() < 2) {
    return Status::InvalidArgument(
        "prescreen calibration needs at least 2 probes, got " +
        std::to_string(probe_degrees.size()));
  }

  AnalyticalPrescreen out;
  out.options_ = options;
  out.segments_ = std::move(segments);

  // One feature column per pattern kind present, in order of first
  // appearance, between the intercept and the overhead term.
  out.kind_column_.assign(3, -1);
  int next_col = 1;
  out.segment_kind_column_.reserve(out.segments_.size());
  for (const analysis::PlanSegment& seg : out.segments_) {
    int& col = out.kind_column_[static_cast<size_t>(seg.kind)];
    if (col < 0) col = next_col++;
    out.segment_kind_column_.push_back(col);
  }
  out.num_columns_ = static_cast<size_t>(next_col) + 1;  // + overhead term

  // Per-operator statistics the closures read.
  const size_t n = logical.num_operators();
  out.input_rates_ = logical.EstimatedInputRates();
  out.keyed_.assign(n, false);
  out.is_source_.assign(n, false);
  out.single_upstream_.assign(n, -1);
  for (const Operator& op : logical.operators()) {
    const size_t i = static_cast<size_t>(op.id);
    out.is_source_[i] = op.type == OperatorType::kSource;
    out.keyed_[i] =
        op.type == OperatorType::kWindowJoin ||
        (op.type == OperatorType::kWindowAggregate && op.aggregate.keyed);
    const std::vector<int>& ups = logical.upstreams(op.id);
    if (ups.size() == 1) out.single_upstream_[i] = ups[0];
  }

  std::vector<std::vector<double>> x;
  std::vector<double> y_lat, y_tpt;
  x.reserve(probe_degrees.size());
  for (size_t p = 0; p < probe_degrees.size(); ++p) {
    if (probe_degrees[p].size() != n) {
      return Status::InvalidArgument(
          "probe " + std::to_string(p) + " has " +
          std::to_string(probe_degrees[p].size()) + " degrees for a " +
          std::to_string(n) + "-operator plan");
    }
    x.push_back(out.FeatureRow(probe_degrees[p]));
    y_lat.push_back(
        std::log(std::max(probe_costs[p].latency_ms, kLogFloor)));
    y_tpt.push_back(
        std::log(std::max(probe_costs[p].throughput_tps, kLogFloor)));
  }
  ZT_ASSIGN_OR_RETURN(out.lat_beta_,
                      RidgeFit(x, y_lat, out.num_columns_, options.ridge));
  ZT_ASSIGN_OR_RETURN(out.tpt_beta_,
                      RidgeFit(x, y_tpt, out.num_columns_, options.ridge));
  return out;
}

double AnalyticalPrescreen::SegmentClosure(
    const analysis::PlanSegment& seg, const std::vector<int>& degrees) const {
  double load = 0.0;
  double shuffle = 0.0;
  for (int id : seg.operator_ids) {
    const size_t i = static_cast<size_t>(id);
    const double rate = input_rates_[i];
    load += rate / static_cast<double>(std::max(1, degrees[i]));
    if (is_source_[i]) continue;
    const int up = single_upstream_[i];
    // Keyed operators always repartition; a non-keyed operator forwards
    // (no shuffle) only along a single-upstream edge with equal degrees.
    if (keyed_[i] || up < 0 ||
        degrees[i] != degrees[static_cast<size_t>(up)]) {
      shuffle += rate;
    }
  }
  return std::log1p(load + shuffle);
}

std::vector<double> AnalyticalPrescreen::FeatureRow(
    const std::vector<int>& degrees) const {
  std::vector<double> row(num_columns_, 0.0);
  row[0] = 1.0;
  for (size_t s = 0; s < segments_.size(); ++s) {
    row[static_cast<size_t>(segment_kind_column_[s])] +=
        SegmentClosure(segments_[s], degrees);
  }
  double total_p = 0.0;
  for (int d : degrees) total_p += static_cast<double>(std::max(1, d));
  row[num_columns_ - 1] = std::log1p(total_p);
  return row;
}

double AnalyticalPrescreen::PredictLogLatency(
    const std::vector<int>& degrees) const {
  if (degrees.size() != input_rates_.size()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const std::vector<double> row = FeatureRow(degrees);
  return std::inner_product(row.begin(), row.end(), lat_beta_.begin(), 0.0);
}

double AnalyticalPrescreen::PredictLogThroughput(
    const std::vector<int>& degrees) const {
  if (degrees.size() != input_rates_.size()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const std::vector<double> row = FeatureRow(degrees);
  return std::inner_product(row.begin(), row.end(), tpt_beta_.begin(), 0.0);
}

Result<std::vector<double>> AnalyticalPrescreen::ScoreCandidates(
    const std::vector<PlanCandidate>& candidates) const {
  std::vector<double> scores;
  scores.reserve(candidates.size());
  for (const PlanCandidate& c : candidates) {
    if (c.degrees.size() != input_rates_.size()) {
      // Wrong arity can't be ranked; push it past every real candidate
      // so the optimizer's candidate check (which counts rejections)
      // sees it only if the keep budget is larger than the valid set.
      scores.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    const std::vector<double> row = FeatureRow(c.degrees);
    const double lat =
        std::inner_product(row.begin(), row.end(), lat_beta_.begin(), 0.0);
    const double tpt =
        std::inner_product(row.begin(), row.end(), tpt_beta_.begin(), 0.0);
    scores.push_back(options_.weight * lat - (1.0 - options_.weight) * tpt);
  }
  return scores;
}

std::vector<size_t> AnalyticalPrescreen::TopIndices(
    const std::vector<double>& scores, size_t keep) {
  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  keep = std::min(keep, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(keep),
                    order.end(), [&](size_t a, size_t b) {
                      if (scores[a] != scores[b]) return scores[a] < scores[b];
                      return a < b;
                    });
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<AnalyticalPrescreen::SegmentStory>
AnalyticalPrescreen::ExplainSegments(const std::vector<int>& degrees) const {
  std::vector<SegmentStory> stories;
  stories.reserve(segments_.size());
  for (size_t s = 0; s < segments_.size(); ++s) {
    SegmentStory story;
    story.segment = segments_[s];
    story.closure_value = degrees.size() == input_rates_.size()
                              ? SegmentClosure(segments_[s], degrees)
                              : std::numeric_limits<double>::quiet_NaN();
    const size_t col = static_cast<size_t>(segment_kind_column_[s]);
    story.latency_coefficient = lat_beta_[col];
    story.throughput_coefficient = tpt_beta_[col];
    stories.push_back(std::move(story));
  }
  return stories;
}

}  // namespace zerotune::core
