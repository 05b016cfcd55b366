#include "dsp/query_plan.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace zerotune::dsp {

namespace {

// NaN fails every comparison, so these ranges are written to reject it.
bool PositiveFinite(double v) { return v > 0.0 && std::isfinite(v); }
bool Fraction(double v) { return v >= 0.0 && v <= 1.0; }

bool ValidWindow(const WindowSpec& w) {
  return PositiveFinite(w.length) && PositiveFinite(w.slide);
}

}  // namespace

int QueryPlan::AddOperator(Operator op, const std::vector<int>& upstreams) {
  const int id = static_cast<int>(operators_.size());
  op.id = id;
  if (op.name.empty()) {
    op.name = std::string(ToString(op.type)) + "_" + std::to_string(id);
  }
  operators_.push_back(std::move(op));
  upstreams_.push_back(upstreams);
  downstreams_.emplace_back();
  for (int u : upstreams) {
    downstreams_[static_cast<size_t>(u)].push_back(id);
  }
  return id;
}

int QueryPlan::AddSource(SourceProperties props) {
  Operator op;
  op.type = OperatorType::kSource;
  op.source = props;
  op.output_schema = props.schema;
  return AddOperator(std::move(op), {});
}

Result<int> QueryPlan::AddFilter(int upstream, FilterProperties props) {
  if (upstream < 0 || upstream >= static_cast<int>(operators_.size())) {
    return Status::InvalidArgument("filter upstream id out of range");
  }
  if (operators_[static_cast<size_t>(upstream)].type == OperatorType::kSink) {
    return Status::InvalidArgument("cannot consume from a sink");
  }
  Operator op;
  op.type = OperatorType::kFilter;
  op.filter = props;
  op.output_schema = operators_[static_cast<size_t>(upstream)].output_schema;
  return AddOperator(std::move(op), {upstream});
}

Result<int> QueryPlan::AddWindowAggregate(int upstream,
                                          AggregateProperties props) {
  if (upstream < 0 || upstream >= static_cast<int>(operators_.size())) {
    return Status::InvalidArgument("aggregate upstream id out of range");
  }
  if (operators_[static_cast<size_t>(upstream)].type == OperatorType::kSink) {
    return Status::InvalidArgument("cannot consume from a sink");
  }
  Operator op;
  op.type = OperatorType::kWindowAggregate;
  op.aggregate = props;
  // Output: (group key, aggregate value, window count).
  op.output_schema.fields = {props.key_class, props.aggregate_class,
                             DataType::kInt};
  return AddOperator(std::move(op), {upstream});
}

Result<int> QueryPlan::AddWindowJoin(int left, int right,
                                     JoinProperties props) {
  const int n = static_cast<int>(operators_.size());
  if (left < 0 || left >= n || right < 0 || right >= n) {
    return Status::InvalidArgument("join input id out of range");
  }
  if (left == right) {
    return Status::InvalidArgument("join inputs must be distinct operators");
  }
  for (int in : {left, right}) {
    if (operators_[static_cast<size_t>(in)].type == OperatorType::kSink) {
      return Status::InvalidArgument("cannot consume from a sink");
    }
  }
  Operator op;
  op.type = OperatorType::kWindowJoin;
  op.join = props;
  // Output schema: concatenation of both sides.
  op.output_schema = operators_[static_cast<size_t>(left)].output_schema;
  const auto& right_schema =
      operators_[static_cast<size_t>(right)].output_schema.fields;
  op.output_schema.fields.insert(op.output_schema.fields.end(),
                                 right_schema.begin(), right_schema.end());
  return AddOperator(std::move(op), {left, right});
}

Result<int> QueryPlan::AddSink(int upstream) {
  if (upstream < 0 || upstream >= static_cast<int>(operators_.size())) {
    return Status::InvalidArgument("sink upstream id out of range");
  }
  if (sink_ >= 0) {
    return Status::FailedPrecondition("plan already has a sink");
  }
  Operator op;
  op.type = OperatorType::kSink;
  op.output_schema = operators_[static_cast<size_t>(upstream)].output_schema;
  sink_ = AddOperator(std::move(op), {upstream});
  return sink_;
}

std::vector<int> QueryPlan::Sources() const {
  std::vector<int> out;
  for (const Operator& op : operators_) {
    if (op.type == OperatorType::kSource) out.push_back(op.id);
  }
  return out;
}

std::vector<int> QueryPlan::TopologicalOrder() const {
  // Operators are appended after their upstreams, so insertion order is
  // already topological; keep the method for readability and future
  // mutation APIs.
  std::vector<int> order(operators_.size());
  for (size_t i = 0; i < operators_.size(); ++i) order[i] = static_cast<int>(i);
  return order;
}

Status QueryPlan::Validate() const {
  if (operators_.empty()) return Status::InvalidArgument("empty plan");
  if (Sources().empty()) return Status::InvalidArgument("plan has no source");
  if (sink_ < 0) return Status::InvalidArgument("plan has no sink");

  size_t sink_count = 0;
  for (const Operator& op : operators_) {
    const auto& ups = upstreams_[static_cast<size_t>(op.id)];
    switch (op.type) {
      case OperatorType::kSource:
        if (!ups.empty()) {
          return Status::InvalidArgument("source must have no upstream");
        }
        if (!PositiveFinite(op.source.event_rate)) {
          return Status::InvalidArgument(
              "source event rate must be positive and finite");
        }
        if (op.source.schema.width() == 0) {
          return Status::InvalidArgument("source schema must be non-empty");
        }
        break;
      case OperatorType::kFilter:
        if (ups.size() != 1) {
          return Status::InvalidArgument("filter must have one upstream");
        }
        if (!Fraction(op.filter.selectivity)) {
          return Status::InvalidArgument("filter selectivity outside [0,1]");
        }
        break;
      case OperatorType::kWindowAggregate:
        if (ups.size() != 1) {
          return Status::InvalidArgument("aggregate must have one upstream");
        }
        if (!Fraction(op.aggregate.selectivity)) {
          return Status::InvalidArgument("aggregate selectivity outside [0,1]");
        }
        if (!ValidWindow(op.aggregate.window)) {
          return Status::InvalidArgument(
              "window length/slide must be positive and finite");
        }
        break;
      case OperatorType::kWindowJoin:
        if (ups.size() != 2) {
          return Status::InvalidArgument("join must have two upstreams");
        }
        if (!Fraction(op.join.selectivity)) {
          return Status::InvalidArgument("join selectivity outside [0,1]");
        }
        if (!ValidWindow(op.join.window)) {
          return Status::InvalidArgument(
              "window length/slide must be positive and finite");
        }
        break;
      case OperatorType::kSink:
        ++sink_count;
        if (ups.size() != 1) {
          return Status::InvalidArgument("sink must have one upstream");
        }
        break;
    }
  }
  if (sink_count != 1) {
    return Status::InvalidArgument("plan must have exactly one sink");
  }

  // Every non-sink operator must eventually reach the sink: walk upstream
  // from the sink and check coverage.
  std::vector<bool> reaches(operators_.size(), false);
  std::vector<int> frontier = {sink_};
  reaches[static_cast<size_t>(sink_)] = true;
  while (!frontier.empty()) {
    const int id = frontier.back();
    frontier.pop_back();
    for (int u : upstreams_[static_cast<size_t>(id)]) {
      if (!reaches[static_cast<size_t>(u)]) {
        reaches[static_cast<size_t>(u)] = true;
        frontier.push_back(u);
      }
    }
  }
  for (const Operator& op : operators_) {
    if (!reaches[static_cast<size_t>(op.id)]) {
      return Status::InvalidArgument("operator " + op.name +
                                     " does not reach the sink");
    }
  }
  return Status::OK();
}

double QueryPlan::OperatorSelectivity(int id) const {
  const Operator& op = operators_[static_cast<size_t>(id)];
  switch (op.type) {
    case OperatorType::kFilter: return op.filter.selectivity;
    case OperatorType::kWindowAggregate: return op.aggregate.selectivity;
    case OperatorType::kWindowJoin: return op.join.selectivity;
    case OperatorType::kSource:
    case OperatorType::kSink:
      return 1.0;
  }
  return 1.0;
}

std::vector<double> QueryPlan::EstimatedInputRates() const {
  std::vector<double> in(operators_.size(), 0.0);
  std::vector<double> out(operators_.size(), 0.0);
  for (int id : TopologicalOrder()) {
    const Operator& op = operators_[static_cast<size_t>(id)];
    if (op.type == OperatorType::kSource) {
      in[static_cast<size_t>(id)] = op.source.event_rate;
      out[static_cast<size_t>(id)] = op.source.event_rate;
      continue;
    }
    double rate = 0.0;
    for (int u : upstreams_[static_cast<size_t>(id)]) {
      rate += out[static_cast<size_t>(u)];
    }
    in[static_cast<size_t>(id)] = rate;
    out[static_cast<size_t>(id)] = rate * OperatorSelectivity(id);
  }
  return in;
}

void QueryPlan::EstimatedRates(std::vector<double>* in,
                               std::vector<double>* out) const {
  in->assign(operators_.size(), 0.0);
  out->assign(operators_.size(), 0.0);
  // Insertion order is topological (see TopologicalOrder).
  for (const Operator& op : operators_) {
    const size_t id = static_cast<size_t>(op.id);
    if (op.type == OperatorType::kSource) {
      (*in)[id] = op.source.event_rate;
      (*out)[id] = op.source.event_rate;
      continue;
    }
    double rate = 0.0;
    for (int u : upstreams_[id]) rate += (*out)[static_cast<size_t>(u)];
    (*in)[id] = rate;
    (*out)[id] = rate * OperatorSelectivity(op.id);
  }
}

std::vector<double> QueryPlan::EstimatedOutputRates() const {
  std::vector<double> in = EstimatedInputRates();
  std::vector<double> out(operators_.size(), 0.0);
  for (size_t i = 0; i < operators_.size(); ++i) {
    out[i] = in[i] * OperatorSelectivity(static_cast<int>(i));
  }
  return out;
}

size_t QueryPlan::CountType(OperatorType type) const {
  size_t n = 0;
  for (const Operator& op : operators_) {
    if (op.type == type) ++n;
  }
  return n;
}

std::string QueryPlan::DebugString() const {
  std::ostringstream os;
  os << "QueryPlan{" << operators_.size() << " ops:\n";
  for (const Operator& op : operators_) {
    os << "  [" << op.id << "] " << op.name << " <- (";
    const auto& ups = upstreams_[static_cast<size_t>(op.id)];
    for (size_t i = 0; i < ups.size(); ++i) {
      if (i > 0) os << ",";
      os << ups[i];
    }
    os << ") width=" << op.output_schema.width() << "\n";
  }
  os << "}";
  return os.str();
}

}  // namespace zerotune::dsp
