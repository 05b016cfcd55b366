#ifndef ZEROTUNE_DSP_QUERY_PLAN_H_
#define ZEROTUNE_DSP_QUERY_PLAN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "dsp/types.h"

namespace zerotune::dsp {

/// One logical operator in a streaming query. Exactly one of the
/// per-kind property structs is meaningful depending on `type`.
struct Operator {
  int id = -1;
  OperatorType type = OperatorType::kSource;
  std::string name;

  SourceProperties source;        // type == kSource
  FilterProperties filter;        // type == kFilter
  AggregateProperties aggregate;  // type == kWindowAggregate
  JoinProperties join;            // type == kWindowJoin

  /// Schema of the stream this operator emits (derived when added).
  TupleSchema output_schema;

  bool IsWindowed() const {
    return type == OperatorType::kWindowAggregate ||
           type == OperatorType::kWindowJoin;
  }
};

/// A logical streaming query: a DAG of operators from sources to a single
/// sink. Mirrors the paper's operator graph G (Sec. IV). Plans are built
/// through the Add* methods, which derive output schemas as they go:
///
///   QueryPlan q;
///   int src = q.AddSource({.event_rate = 1e4, .schema = ...});
///   int f   = q.AddFilter(src, {.selectivity = 0.5}).value();
///   int agg = q.AddWindowAggregate(f, {...}).value();
///   q.AddSink(agg);
class QueryPlan {
 public:
  QueryPlan() = default;

  /// Adds a source; returns its operator id.
  int AddSource(SourceProperties props);
  /// Adds a filter consuming `upstream`.
  Result<int> AddFilter(int upstream, FilterProperties props);
  /// Adds a keyed window aggregation consuming `upstream`.
  Result<int> AddWindowAggregate(int upstream, AggregateProperties props);
  /// Adds a window join over `left` and `right`.
  Result<int> AddWindowJoin(int left, int right, JoinProperties props);
  /// Adds the sink; a plan must have exactly one.
  Result<int> AddSink(int upstream);

  size_t num_operators() const { return operators_.size(); }
  const Operator& op(int id) const { return operators_[static_cast<size_t>(id)]; }
  Operator& mutable_op(int id) { return operators_[static_cast<size_t>(id)]; }
  const std::vector<Operator>& operators() const { return operators_; }

  const std::vector<int>& upstreams(int id) const {
    return upstreams_[static_cast<size_t>(id)];
  }
  const std::vector<int>& downstreams(int id) const {
    return downstreams_[static_cast<size_t>(id)];
  }

  /// Ids of all source operators.
  std::vector<int> Sources() const;
  /// Id of the sink, or -1 if not added yet.
  int sink() const { return sink_; }

  /// Operator ids in an order where every upstream precedes its
  /// downstreams (sources first, sink last).
  std::vector<int> TopologicalOrder() const;

  /// Structural well-formedness: has >= 1 source, exactly one sink, all
  /// operators reachable, selectivities within [0, 1], event rates and
  /// window extents positive and finite (NaN fails every range).
  Status Validate() const;

  /// Selectivity of an operator per Defs. 4–6 (1.0 for source/sink).
  double OperatorSelectivity(int id) const;

  /// Estimated per-operator input rates (tuples/s) from propagating source
  /// event rates through selectivities (Def. 3). Join inputs sum both
  /// branches. Indexed by operator id.
  std::vector<double> EstimatedInputRates() const;

  /// One-pass variant filling both rate vectors (the graph builder calls
  /// this once per candidate; value-identical to the two getters).
  void EstimatedRates(std::vector<double>* in, std::vector<double>* out) const;
  /// Same propagation, output side: out = in · sel (Eq. 2). Note that the
  /// aggregate selectivity of Def. 6 (groups per window / window size)
  /// already folds the window-length reduction into sel.
  std::vector<double> EstimatedOutputRates() const;

  /// Number of operators of a given type (used by flat-vector baselines).
  size_t CountType(OperatorType type) const;

  std::string DebugString() const;

 private:
  int AddOperator(Operator op, const std::vector<int>& upstreams);

  std::vector<Operator> operators_;
  std::vector<std::vector<int>> upstreams_;
  std::vector<std::vector<int>> downstreams_;
  int sink_ = -1;
};

}  // namespace zerotune::dsp

#endif  // ZEROTUNE_DSP_QUERY_PLAN_H_
