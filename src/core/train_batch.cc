#include "core/train_batch.h"

#include <algorithm>
#include <cassert>

namespace zerotune::core {

namespace {

using nn::Matrix;

void AddTo(double* acc, const double* x, size_t n) {
  for (size_t j = 0; j < n; ++j) acc[j] += x[j];
}

void AddScaledTo(double* acc, const double* x, double scale, size_t n) {
  for (size_t j = 0; j < n; ++j) acc[j] += scale * x[j];
}

/// dst = (row(0) + row(1) + … + row(count − 1)) · (1/count), summed in
/// row order: the arithmetic of the per-node graph's MeanAll
/// (tests/support/autograd_oracle.h).
template <typename RowFn>
void MeanOfRows(double* dst, size_t count, size_t n, const RowFn& row) {
  const double* first = row(0);
  std::copy(first, first + n, dst);
  for (size_t i = 1; i < count; ++i) AddTo(dst, row(i), n);
  const double inv = 1.0 / static_cast<double>(count);
  for (size_t j = 0; j < n; ++j) dst[j] *= inv;
}

}  // namespace

TrainBatch::TrainBatch(const ZeroTuneModel& model,
                       std::span<const PlanGraph* const> graphs)
    : hidden_(model.config().hidden_dim) {
  assert(!graphs.empty());
  const size_t h = hidden_;

  // Index the disjoint union and give every operator its depth.
  size_t n_ops = 0;
  size_t n_edges = 0;
  for (const PlanGraph* g : graphs) {
    n_ops += g->num_operators();
    n_edges += g->mapping_edges.size();
  }
  std::vector<size_t> depth(n_ops, 0);
  std::vector<size_t> in_count(n_ops, 0);
  std::vector<size_t> edge_op;
  edge_op.reserve(n_edges);
  edge_res_.reserve(n_edges);
  ups_begin_.reserve(n_ops + 1);
  res_begin_.push_back(0);
  size_t max_depth = 0;
  size_t op0 = 0;
  for (const PlanGraph* g : graphs) {
    for (const std::vector<int>& ups : g->operator_upstreams) {
      ups_begin_.push_back(ups_.size());
      for (int u : ups) ups_.push_back(op0 + static_cast<size_t>(u));
    }
    for (int id : g->topo_order) {
      const size_t op = op0 + static_cast<size_t>(id);
      for (int u : g->operator_upstreams[static_cast<size_t>(id)]) {
        const size_t up = op0 + static_cast<size_t>(u);
        depth[op] = std::max(depth[op], depth[up] + 1);
      }
      max_depth = std::max(max_depth, depth[op]);
    }
    for (const PlanGraph::MappingEdge& e : g->mapping_edges) {
      edge_op.push_back(op0 + static_cast<size_t>(e.operator_index));
      edge_res_.push_back(res_begin_.back() +
                          static_cast<size_t>(e.resource_index));
      ++in_count[edge_op.back()];
    }
    sink_.push_back(op0 + static_cast<size_t>(g->sink_index));
    op0 += g->num_operators();
    res_begin_.push_back(res_begin_.back() + g->num_resources());
  }
  ups_begin_.push_back(ups_.size());
  const size_t n_res = res_begin_.back();

  // Mapping edges grouped by operator, each group in edge order.
  in_begin_.assign(n_ops + 1, 0);
  for (size_t op = 0; op < n_ops; ++op) {
    in_begin_[op + 1] = in_begin_[op] + in_count[op];
  }
  in_edges_.resize(n_edges);
  std::vector<size_t> fill(in_begin_.begin(), in_begin_.end() - 1);
  for (size_t e = 0; e < n_edges; ++e) in_edges_[fill[edge_op[e]]++] = e;

  // Stage-1/4 rows sorted by depth level, operator order within a level.
  level_begin_.assign(max_depth + 2, 0);
  for (size_t op = 0; op < n_ops; ++op) ++level_begin_[depth[op] + 1];
  for (size_t d = 0; d <= max_depth; ++d) {
    level_begin_[d + 1] += level_begin_[d];
  }
  row_op_.resize(n_ops);
  op_row_.resize(n_ops);
  fill.assign(level_begin_.begin(), level_begin_.end() - 1);
  for (size_t op = 0; op < n_ops; ++op) {
    const size_t r = fill[depth[op]]++;
    row_op_[r] = op;
    op_row_[op] = r;
  }

  const ZeroTuneModel::GnnBlocks blocks = model.blocks();

  // Node-type encoders.
  op_encoder_.Init(blocks.op_encoder, n_ops);
  res_encoder_.Init(blocks.res_encoder, n_res);
  size_t op = 0;
  size_t res = 0;
  for (const PlanGraph* g : graphs) {
    for (const std::vector<double>& f : g->operator_features) {
      assert(f.size() == blocks.op_encoder->in_features());
      std::copy(f.begin(), f.end(), op_encoder_.input(op++));
    }
    for (const std::vector<double>& f : g->resource_features) {
      assert(f.size() == blocks.res_encoder->in_features());
      std::copy(f.begin(), f.end(), res_encoder_.input(res++));
    }
  }
  op_encoder_.Forward(0, n_ops);
  res_encoder_.Forward(0, n_res);

  // Stage 1: bottom-up data flow, one depth level at a time. A source's
  // upstream half stays zero.
  flow_update_.Init(blocks.flow_update, n_ops);
  for (size_t d = 0; d < num_levels(); ++d) {
    for (size_t r = level_begin_[d]; r < level_begin_[d + 1]; ++r) {
      const size_t id = row_op_[r];
      double* x = flow_update_.input(r);
      std::copy(op_encoder_.output(id), op_encoder_.output(id) + h, x);
      const size_t* ups = ups_.data() + ups_begin_[id];
      const size_t n_ups = ups_begin_[id + 1] - ups_begin_[id];
      if (n_ups == 0) continue;
      MeanOfRows(x + h, n_ups, h, [&](size_t i) {
        return flow_update_.output(op_row_[ups[i]]);
      });
    }
    flow_update_.Forward(level_begin_[d], level_begin_[d + 1]);
  }

  // Stage 2: one exchange round among each graph's resources; the peer
  // mean runs over the others in index order (zero on a one-node
  // cluster).
  res_update_.Init(blocks.res_update, n_res);
  for (size_t g = 0; g < graphs.size(); ++g) {
    const size_t lo = res_begin_[g];
    const size_t hi = res_begin_[g + 1];
    for (size_t i = lo; i < hi; ++i) {
      double* x = res_update_.input(i);
      std::copy(res_encoder_.output(i), res_encoder_.output(i) + h, x);
      if (hi - lo <= 1) continue;
      MeanOfRows(x + h, hi - lo - 1, h, [&](size_t p) {
        return res_encoder_.output(lo + p < i ? lo + p : lo + p + 1);
      });
    }
  }
  res_update_.Forward(0, n_res);

  // Stage 3: operator←resource mapping messages, then a residual update
  // of every operator state.
  map_message_.Init(blocks.map_message, n_edges);
  size_t e = 0;
  for (const PlanGraph* g : graphs) {
    for (const PlanGraph::MappingEdge& edge : g->mapping_edges) {
      double* x = map_message_.input(e);
      const double* state = res_update_.output(edge_res_[e]);
      std::copy(state, state + h, x);
      std::copy(edge.features.begin(), edge.features.end(), x + h);
      ++e;
    }
  }
  map_message_.Forward(0, n_edges);
  map_update_.Init(blocks.map_update, n_ops);
  for (size_t id = 0; id < n_ops; ++id) {
    double* x = map_update_.input(id);
    const double* state = flow_update_.output(op_row_[id]);
    std::copy(state, state + h, x);
    const size_t* in = in_edges_.data() + in_begin_[id];
    const size_t n_in = in_begin_[id + 1] - in_begin_[id];
    if (n_in == 0) continue;
    MeanOfRows(x + h, n_in, h,
               [&](size_t i) { return map_message_.output(in[i]); });
  }
  map_update_.Forward(0, n_ops);
  mapped_ = Matrix::Uninitialized(n_ops, h);
  for (size_t id = 0; id < n_ops; ++id) {
    double* m = mapped_.data() + id * h;
    const double* state = flow_update_.output(op_row_[id]);
    std::copy(state, state + h, m);
    AddTo(m, map_update_.output(id), h);
  }

  // Stage 4: a second bottom-up pass over the resource-aware states, with
  // a residual like stage 3.
  flow_update2_.Init(blocks.flow_update2, n_ops);
  final_ = Matrix::Uninitialized(n_ops, h);
  for (size_t d = 0; d < num_levels(); ++d) {
    for (size_t r = level_begin_[d]; r < level_begin_[d + 1]; ++r) {
      const size_t id = row_op_[r];
      double* x = flow_update2_.input(r);
      std::copy(mapped_.data() + id * h, mapped_.data() + (id + 1) * h, x);
      const size_t* ups = ups_.data() + ups_begin_[id];
      const size_t n_ups = ups_begin_[id + 1] - ups_begin_[id];
      if (n_ups == 0) continue;
      MeanOfRows(x + h, n_ups, h,
                 [&](size_t i) { return final_.data() + ups[i] * h; });
    }
    flow_update2_.Forward(level_begin_[d], level_begin_[d + 1]);
    for (size_t r = level_begin_[d]; r < level_begin_[d + 1]; ++r) {
      const size_t id = row_op_[r];
      double* f = final_.data() + id * h;
      std::copy(mapped_.data() + id * h, mapped_.data() + (id + 1) * h, f);
      AddTo(f, flow_update2_.output(r), h);
    }
  }

  // Readout of each graph's sink state.
  readout_.Init(blocks.readout, graphs.size());
  for (size_t g = 0; g < graphs.size(); ++g) {
    const double* f = final_.data() + sink_[g] * h;
    std::copy(f, f + h, readout_.input(g));
  }
  readout_.Forward(0, graphs.size());
}

void TrainBatch::Backward(const Matrix& d_outputs,
                          const nn::TransposedWeights& weights_t,
                          nn::GradStore* grads) {
  assert(d_outputs.SameShape(outputs()));
  const size_t h = hidden_;
  const size_t n_ops = row_op_.size();
  const size_t n_res = res_begin_.back();
  const size_t n_edges = edge_res_.size();
  const size_t n_graphs = sink_.size();
  op_encoder_.StartBackward(false);
  res_encoder_.StartBackward(false);
  for (nn::MlpPass* b : {&flow_update_, &res_update_, &map_message_,
                         &map_update_, &flow_update2_, &readout_}) {
    b->StartBackward(true);
  }

  // Readout. A row's d(stage-4 state) accumulates in flow_update2_'s
  // output gradient: the state is mapped + that output.
  for (size_t g = 0; g < n_graphs; ++g) {
    std::copy(d_outputs.data() + g * 2, d_outputs.data() + (g + 1) * 2,
              readout_.output_grad(g));
  }
  readout_.Backward(0, n_graphs, weights_t);
  for (size_t g = 0; g < n_graphs; ++g) {
    AddTo(flow_update2_.output_grad(op_row_[sink_[g]]), readout_.input_grad(g),
          h);
  }

  // Stage 4, deepest level first: every downstream consumer of a state
  // has added its share before the state's own level runs. d(mapped)
  // accumulates in map_update_'s output gradient.
  for (size_t d = num_levels(); d-- > 0;) {
    const size_t lo = level_begin_[d];
    const size_t hi = level_begin_[d + 1];
    for (size_t r = lo; r < hi; ++r) {
      AddTo(map_update_.output_grad(row_op_[r]), flow_update2_.output_grad(r),
            h);
    }
    flow_update2_.Backward(lo, hi, weights_t);
    for (size_t r = lo; r < hi; ++r) {
      const size_t id = row_op_[r];
      const double* dx = flow_update2_.input_grad(r);
      AddTo(map_update_.output_grad(id), dx, h);
      const size_t n_ups = ups_begin_[id + 1] - ups_begin_[id];
      if (n_ups == 0) continue;
      const double inv = 1.0 / static_cast<double>(n_ups);
      for (size_t i = ups_begin_[id]; i < ups_begin_[id + 1]; ++i) {
        AddScaledTo(flow_update2_.output_grad(op_row_[ups_[i]]), dx + h, inv,
                    h);
      }
    }
  }

  // Stage 3. d(stage-1 state) accumulates in flow_update_'s output
  // gradient.
  for (size_t id = 0; id < n_ops; ++id) {
    AddTo(flow_update_.output_grad(op_row_[id]), map_update_.output_grad(id),
          h);
  }
  map_update_.Backward(0, n_ops, weights_t);
  for (size_t id = 0; id < n_ops; ++id) {
    const double* dx = map_update_.input_grad(id);
    AddTo(flow_update_.output_grad(op_row_[id]), dx, h);
    const size_t n_in = in_begin_[id + 1] - in_begin_[id];
    if (n_in == 0) continue;
    const double inv = 1.0 / static_cast<double>(n_in);
    for (size_t i = in_begin_[id]; i < in_begin_[id + 1]; ++i) {
      AddScaledTo(map_message_.output_grad(in_edges_[i]), dx + h, inv, h);
    }
  }
  map_message_.Backward(0, n_edges, weights_t);
  for (size_t e = 0; e < n_edges; ++e) {
    AddTo(res_update_.output_grad(edge_res_[e]), map_message_.input_grad(e),
          h);
  }

  // Stage 2.
  res_update_.Backward(0, n_res, weights_t);
  for (size_t g = 0; g < n_graphs; ++g) {
    const size_t lo = res_begin_[g];
    const size_t hi = res_begin_[g + 1];
    for (size_t i = lo; i < hi; ++i) {
      const double* dx = res_update_.input_grad(i);
      AddTo(res_encoder_.output_grad(i), dx, h);
      if (hi - lo <= 1) continue;
      const double inv = 1.0 / static_cast<double>(hi - lo - 1);
      for (size_t j = lo; j < hi; ++j) {
        if (j != i) AddScaledTo(res_encoder_.output_grad(j), dx + h, inv, h);
      }
    }
  }
  res_encoder_.Backward(0, n_res, weights_t);

  // Stage 1, deepest level first.
  for (size_t d = num_levels(); d-- > 0;) {
    const size_t lo = level_begin_[d];
    const size_t hi = level_begin_[d + 1];
    flow_update_.Backward(lo, hi, weights_t);
    for (size_t r = lo; r < hi; ++r) {
      const size_t id = row_op_[r];
      const double* dx = flow_update_.input_grad(r);
      AddTo(op_encoder_.output_grad(id), dx, h);
      const size_t n_ups = ups_begin_[id + 1] - ups_begin_[id];
      if (n_ups == 0) continue;
      const double inv = 1.0 / static_cast<double>(n_ups);
      for (size_t i = ups_begin_[id]; i < ups_begin_[id + 1]; ++i) {
        AddScaledTo(flow_update_.output_grad(op_row_[ups_[i]]), dx + h, inv,
                    h);
      }
    }
  }
  op_encoder_.Backward(0, n_ops, weights_t);

  for (const nn::MlpPass* b :
       {&op_encoder_, &res_encoder_, &flow_update_, &res_update_,
        &map_message_, &map_update_, &flow_update2_, &readout_}) {
    b->AccumulateParamGrads(grads);
  }
}

nn::Matrix ForwardGraph(const ZeroTuneModel& model, const PlanGraph& graph) {
  const PlanGraph* const one[] = {&graph};
  return TrainBatch(model, one).outputs();
}

}  // namespace zerotune::core
