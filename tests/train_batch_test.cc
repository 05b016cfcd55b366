// TrainBatch, the row-batched fp64 pass that trains and evaluates the GNN,
// against the per-node forward pass it replaced, built here on the autograd
// oracle (tests/support/autograd_oracle.h): each plan's output must equal
// (==) the oracle's whatever else shares the chunk, and the hand-written
// backward must match autograd's gradients up to fp64 reassociation.
#include "core/train_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/enumeration.h"
#include "nn/kernels.h"
#include "support/autograd_oracle.h"
#include "workload/generator.h"

namespace zerotune::core {
namespace {

using nn::Matrix;
using nn::oracle::ConcatCols;
using nn::oracle::Constant;
using nn::oracle::MeanAll;
using nn::oracle::NodePtr;
using workload::QueryStructure;

NodePtr ZeroState(size_t dim) { return Constant(Matrix(1, dim)); }

/// The per-node fp64 forward pass: one autograd node per operator,
/// resource and edge, one graph at a time. TrainBatch must reproduce its
/// outputs exactly; oracle::Backward through it gives the reference
/// gradients.
NodePtr ReferenceForward(const ZeroTuneModel& model, const PlanGraph& graph) {
  const ZeroTuneModel::GnnBlocks b = model.blocks();
  const size_t h = model.config().hidden_dim;
  const size_t n_ops = graph.num_operators();
  const size_t n_res = graph.num_resources();
  nn::oracle::ParameterLeaves leaves;
  const auto run = [&leaves](const nn::Mlp* mlp, const NodePtr& x) {
    return nn::oracle::Forward(*mlp, x, &leaves);
  };

  // Node-type encoders.
  std::vector<NodePtr> op_enc(n_ops);
  for (size_t i = 0; i < n_ops; ++i) {
    op_enc[i] = run(b.op_encoder,
                    Constant(Matrix::RowVector(graph.operator_features[i])));
  }
  std::vector<NodePtr> res_enc(n_res);
  for (size_t i = 0; i < n_res; ++i) {
    res_enc[i] = run(b.res_encoder,
                     Constant(Matrix::RowVector(graph.resource_features[i])));
  }

  // Stage 1: bottom-up data-flow message passing over operator nodes.
  std::vector<NodePtr> state(n_ops);
  for (int id : graph.topo_order) {
    const auto& ups = graph.operator_upstreams[static_cast<size_t>(id)];
    NodePtr up_msg;
    if (ups.empty()) {
      up_msg = ZeroState(h);
    } else {
      std::vector<NodePtr> msgs;
      for (int u : ups) msgs.push_back(state[static_cast<size_t>(u)]);
      up_msg = MeanAll(msgs);
    }
    state[static_cast<size_t>(id)] = run(
        b.flow_update, ConcatCols({op_enc[static_cast<size_t>(id)], up_msg}));
  }

  // Stage 2: one exchange round among physical resource nodes.
  std::vector<NodePtr> res_state(n_res);
  for (size_t i = 0; i < n_res; ++i) {
    NodePtr peer_msg;
    if (n_res <= 1) {
      peer_msg = ZeroState(h);
    } else {
      std::vector<NodePtr> peers;
      for (size_t j = 0; j < n_res; ++j) {
        if (j != i) peers.push_back(res_enc[j]);
      }
      peer_msg = MeanAll(peers);
    }
    res_state[i] = run(b.res_update, ConcatCols({res_enc[i], peer_msg}));
  }

  // Stage 3: operator←resource mapping messages, residual update.
  std::vector<std::vector<NodePtr>> incoming(n_ops);
  for (const PlanGraph::MappingEdge& e : graph.mapping_edges) {
    NodePtr msg = run(
        b.map_message,
        ConcatCols({res_state[static_cast<size_t>(e.resource_index)],
                    Constant(Matrix::RowVector(e.features.data(),
                                               e.features.size()))}));
    incoming[static_cast<size_t>(e.operator_index)].push_back(std::move(msg));
  }
  std::vector<NodePtr> mapped(n_ops);
  for (size_t i = 0; i < n_ops; ++i) {
    NodePtr m = incoming[i].empty() ? ZeroState(h) : MeanAll(incoming[i]);
    mapped[i] = nn::oracle::Add(
        state[i], run(b.map_update, ConcatCols({state[i], m})));
  }

  // Stage 4: second bottom-up pass, residual like stage 3.
  std::vector<NodePtr> final_state(n_ops);
  for (int id : graph.topo_order) {
    const auto& ups = graph.operator_upstreams[static_cast<size_t>(id)];
    NodePtr up_msg;
    if (ups.empty()) {
      up_msg = ZeroState(h);
    } else {
      std::vector<NodePtr> msgs;
      for (int u : ups) msgs.push_back(final_state[static_cast<size_t>(u)]);
      up_msg = MeanAll(msgs);
    }
    final_state[static_cast<size_t>(id)] = nn::oracle::Add(
        mapped[static_cast<size_t>(id)],
        run(b.flow_update2,
            ConcatCols({mapped[static_cast<size_t>(id)], up_msg})));
  }

  return run(b.readout, final_state[static_cast<size_t>(graph.sink_index)]);
}

// The nine structures the query generator builds.
const QueryStructure kGenerated[] = {
    QueryStructure::kLinear,           QueryStructure::kTwoWayJoin,
    QueryStructure::kThreeWayJoin,     QueryStructure::kTwoChainedFilters,
    QueryStructure::kThreeChainedFilters, QueryStructure::kFourChainedFilters,
    QueryStructure::kFourWayJoin,      QueryStructure::kFiveWayJoin,
    QueryStructure::kSixWayJoin};

/// `count` placed plans of `structure`, parallelism drawn by OptiSample.
std::vector<dsp::ParallelQueryPlan> MakePlans(
    QueryStructure structure, size_t count, uint64_t seed,
    workload::QueryGenerator::Options options = {}) {
  workload::QueryGenerator gen(options, seed);
  Rng rng(seed);
  OptiSampleEnumerator enumerator;
  std::vector<dsp::ParallelQueryPlan> plans;
  for (size_t i = 0; i < count; ++i) {
    workload::GeneratedQuery g = gen.Generate(structure).value();
    dsp::ParallelQueryPlan plan(std::move(g.plan), std::move(g.cluster));
    EXPECT_TRUE(enumerator.Assign(&plan, &rng).ok());
    plans.push_back(std::move(plan));
  }
  return plans;
}

/// Plans of every generated structure, interleaved.
std::vector<dsp::ParallelQueryPlan> MixedPlans(size_t per_structure,
                                               uint64_t seed) {
  std::vector<dsp::ParallelQueryPlan> plans;
  for (const QueryStructure s : kGenerated) {
    for (auto& p : MakePlans(s, per_structure, seed++)) {
      plans.push_back(std::move(p));
    }
  }
  return plans;
}

std::vector<PlanGraph> Graphs(const std::vector<dsp::ParallelQueryPlan>& plans,
                              const FeatureConfig& features) {
  std::vector<PlanGraph> graphs;
  for (const auto& p : plans) graphs.push_back(BuildPlanGraph(p, features));
  return graphs;
}

std::vector<const PlanGraph*> Pointers(const std::vector<PlanGraph>& graphs,
                                       size_t lo, size_t hi) {
  std::vector<const PlanGraph*> out;
  for (size_t i = lo; i < hi; ++i) out.push_back(&graphs[i]);
  return out;
}

/// Every graph's TrainBatch row equals the oracle's output, whether the
/// graph runs alone or in one chunk with all the others.
void ExpectOutputsMatchOracle(const ZeroTuneModel& model,
                              const std::vector<PlanGraph>& graphs) {
  const TrainBatch all(model, Pointers(graphs, 0, graphs.size()));
  for (size_t i = 0; i < graphs.size(); ++i) {
    const Matrix ref = ReferenceForward(model, graphs[i])->value();
    const Matrix alone = ForwardGraph(model, graphs[i]);
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(alone(0, j), ref(0, j)) << "graph " << i << " output " << j;
      EXPECT_EQ(all.outputs()(i, j), ref(0, j))
          << "graph " << i << " output " << j << " in the full chunk";
    }
  }
}

TEST(TrainBatchTest, OutputsEqualPerNodeForwardOnEveryStructure) {
  ModelConfig cfg;
  cfg.seed = 5;
  const ZeroTuneModel model(cfg);
  ExpectOutputsMatchOracle(model, Graphs(MixedPlans(100, 11), cfg.features));
}

TEST(TrainBatchTest, OutputsEqualPerNodeForwardOnPerInstanceGraphs) {
  ModelConfig cfg;
  cfg.hidden_dim = 16;
  cfg.features = FeatureConfig::PerInstance();
  const ZeroTuneModel model(cfg);
  ExpectOutputsMatchOracle(model, Graphs(MixedPlans(3, 21), cfg.features));
}

TEST(TrainBatchTest, OutputsEqualPerNodeForwardUnderMaskedFeatures) {
  for (const FeatureConfig& features :
       {FeatureConfig::OperatorOnly(),
        FeatureConfig::ParallelismAndResource()}) {
    ModelConfig cfg;
    cfg.hidden_dim = 24;
    cfg.features = features;
    const ZeroTuneModel model(cfg);
    ExpectOutputsMatchOracle(model, Graphs(MixedPlans(4, 31), features));
  }
}

TEST(TrainBatchTest, OutputsEqualPerNodeForwardOnSingleResourceClusters) {
  // One node: the resource exchange's peer message is the zero state.
  workload::QueryGenerator::Options options;
  options.overrides.num_workers = 1;
  std::vector<dsp::ParallelQueryPlan> plans;
  for (const QueryStructure s : kGenerated) {
    for (auto& p : MakePlans(s, 2, 41, options)) plans.push_back(std::move(p));
  }
  ASSERT_EQ(plans.front().cluster().num_nodes(), 1u);
  const ZeroTuneModel model;
  ExpectOutputsMatchOracle(model, Graphs(plans, FeatureConfig::All()));
}

TEST(TrainBatchTest, OutputsEqualPerNodeForwardWithSeveralUpstreams) {
  // Joins give operators two or more upstreams, whose mean runs in
  // upstream order.
  const std::vector<PlanGraph> graphs = Graphs(
      MakePlans(QueryStructure::kSixWayJoin, 8, 51), FeatureConfig::All());
  size_t widest = 0;
  for (const PlanGraph& g : graphs) {
    for (const auto& ups : g.operator_upstreams) {
      widest = std::max(widest, ups.size());
    }
  }
  ASSERT_GE(widest, 2u);
  const ZeroTuneModel model;
  ExpectOutputsMatchOracle(model, graphs);
}

/// Largest |a − b| over one parameter, relative to the reference's
/// largest entry.
double RelativeGap(const Matrix& got, const Matrix& want) {
  double gap = 0.0;
  double scale = 0.0;
  for (size_t i = 0; i < want.size(); ++i) {
    gap = std::max(gap, std::abs(got.data()[i] - want.data()[i]));
    scale = std::max(scale, std::abs(want.data()[i]));
  }
  return scale > 0.0 ? gap / scale : gap;
}

TEST(TrainBatchTest, GradientsMatchAutogradAtEveryChunkSize) {
  ModelConfig cfg;
  cfg.seed = 3;
  const ZeroTuneModel model(cfg);
  const std::vector<PlanGraph> graphs =
      Graphs(MixedPlans(2, 61), cfg.features);
  Rng rng(7);
  std::vector<Matrix> targets;
  for (size_t i = 0; i < 16; ++i) {
    Matrix t(1, 2);
    t(0, 0) = rng.Gaussian(0.0, 1.0);
    t(0, 1) = rng.Gaussian(0.0, 1.0);
    targets.push_back(t);
  }
  for (size_t chunk : {1, 4, 16}) {
    SCOPED_TRACE("chunk of " + std::to_string(chunk));
    nn::GradStore want;
    for (size_t i = 0; i < chunk; ++i) {
      nn::oracle::Backward(
          nn::oracle::MseLoss(ReferenceForward(model, graphs[i]), targets[i]),
          &want);
    }
    TrainBatch pass(model, Pointers(graphs, 0, chunk));
    Matrix d_outputs(chunk, 2);
    for (size_t i = 0; i < chunk; ++i) {
      for (size_t j = 0; j < 2; ++j) {
        d_outputs(i, j) = pass.outputs()(i, j) - targets[i](0, j);
      }
    }
    nn::GradStore got;
    pass.Backward(d_outputs, nn::TransposedWeights(model.params()), &got);
    ASSERT_EQ(got.size(), want.size());
    for (const nn::NodePtr& p : model.params().parameters()) {
      const Matrix* g = got.Find(p->param_id);
      const Matrix* w = want.Find(p->param_id);
      ASSERT_NE(g, nullptr) << "parameter " << p->param_id;
      ASSERT_NE(w, nullptr) << "parameter " << p->param_id;
      ASSERT_TRUE(g->SameShape(*w));
      EXPECT_LE(RelativeGap(*g, *w), 1e-12) << "parameter " << p->param_id;
    }
  }
}

TEST(TrainBatchTest, ScalarKernelsGiveBitIdenticalOutputsAndGradients) {
  // Every GEMM is bit-identical across ISAs, so the forced-scalar pass
  // reproduces the default one exactly.
  ModelConfig cfg;
  cfg.hidden_dim = 48;
  const ZeroTuneModel model(cfg);
  const std::vector<PlanGraph> graphs =
      Graphs(MixedPlans(2, 71), cfg.features);
  const auto run = [&](bool force_scalar, nn::GradStore* grads) {
    nn::kernels::ForceScalar(force_scalar);
    TrainBatch pass(model, Pointers(graphs, 0, graphs.size()));
    Matrix d_outputs(graphs.size(), 2, 0.5);
    pass.Backward(d_outputs, nn::TransposedWeights(model.params()), grads);
    nn::kernels::ForceScalar(false);
    return pass.outputs();
  };
  nn::GradStore scalar_grads, default_grads;
  const Matrix scalar_out = run(true, &scalar_grads);
  const Matrix default_out = run(false, &default_grads);
  for (size_t i = 0; i < scalar_out.size(); ++i) {
    EXPECT_EQ(scalar_out.data()[i], default_out.data()[i]) << i;
  }
  for (const nn::NodePtr& p : model.params().parameters()) {
    const Matrix& a = *scalar_grads.Find(p->param_id);
    const Matrix& b = *default_grads.Find(p->param_id);
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.data()[i], b.data()[i]) << "parameter " << p->param_id;
    }
  }
}

}  // namespace
}  // namespace zerotune::core
