#include "core/batch_inference.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "core/features.h"
#include "core/plan_graph.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "nn/quantized.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace zerotune::core {

namespace {

using nn::FloatBuffer;

// FNV-1a over the `len` 32-bit words at `key`, taken 64 bits at a time
// and run as four interleaved streams so the multiplies pipeline instead
// of forming one serial dependency chain (a feature-row key is ~100
// words, and the batch interns every row of every candidate). Only
// dispersion matters: the interner confirms every hash hit by comparing
// the full key. Reads go through memcpy, so `key` may be any trivially
// copyable data, e.g. a row of doubles.
uint64_t HashWords(const void* key, size_t len) {
  const auto* p = static_cast<const unsigned char*>(key);
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h0 = 1469598103934665603ull;
  uint64_t h1 = h0 ^ 0x9E3779B97F4A7C15ull;
  uint64_t h2 = h0 ^ 0xC2B2AE3D27D4EB4Full;
  uint64_t h3 = h0 ^ 0x165667B19E3779F9ull;
  uint64_t w[4];
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::memcpy(w, p + 4 * i, sizeof w);
    h0 = (h0 ^ w[0]) * kPrime;
    h1 = (h1 ^ w[1]) * kPrime;
    h2 = (h2 ^ w[2]) * kPrime;
    h3 = (h3 ^ w[3]) * kPrime;
  }
  for (; i < len; ++i) {
    uint32_t word;
    std::memcpy(&word, p + 4 * i, sizeof word);
    h0 = (h0 ^ word) * kPrime;
  }
  h0 = (h0 ^ h1) * kPrime;
  h0 = (h0 ^ h2) * kPrime;
  h0 = (h0 ^ h3) * kPrime;
  return h0;
}

// Interns variable-length uint32 keys: equal keys get equal ids, handed
// out densely in first-seen order. It decides every equality in a batch:
// feature rows (keyed on their raw fp64 bits), structure groups (keyed
// on integer signatures), and each message-passing stage of a group
// (keyed on content-unique ids of the stage's inputs). Equal keys
// therefore name bitwise-identical inputs, so dedup never merges rows
// that differ; distinct keys for coincidentally equal rows only cost a
// redundant MLP row.
class IntKeyInterner {
 public:
  /// Prepares the table for `expected` Intern() calls, discarding all
  /// previously interned keys. `expected` must bound the calls exactly:
  /// the linear probe only terminates while a free slot remains. Reuses
  /// the slot array across calls (a generation counter marks live
  /// slots), so a group's dozens of per-operator dedup rounds cost zero
  /// allocations after the first.
  void Reset(size_t expected) {
    size_t cap = 16;
    while (cap < 2 * expected) cap <<= 1;  // load factor ≤ 0.5
    if (slots_.size() < cap) slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    if (gen_ == UINT32_MAX) {  // wrap: wipe stale generations
      std::fill(slots_.begin(), slots_.end(), Slot{});
      gen_ = 0;
    }
    ++gen_;
    expected_ = expected;
    keys_.clear();
    spans_.clear();
  }

  uint32_t Intern(const std::vector<uint32_t>& key) {
    return Intern(key.data(), key.size());
  }

  /// Interns the `len` 32-bit words at `key` (see HashWords).
  uint32_t Intern(const void* key, size_t len) {
    const uint64_t hsh = HashWords(key, len);
    // FNV's low bits are weak for power-of-two tables; fold in the top.
    size_t idx = static_cast<size_t>(hsh ^ (hsh >> 32)) & mask_;
    for (;; idx = (idx + 1) & mask_) {
      Slot& s = slots_[idx];
      if (s.gen != gen_) {  // free slot: first time this key is seen
        assert(spans_.size() < expected_ &&
               "more distinct keys than Reset() was sized for");
        const auto uid = static_cast<uint32_t>(spans_.size());
        s.gen = gen_;
        s.hash = hsh;
        s.uid = uid;
        const size_t off = keys_.size();
        spans_.push_back(Span{static_cast<uint32_t>(off),
                              static_cast<uint32_t>(len)});
        keys_.resize(off + len);
        std::memcpy(keys_.data() + off, key, len * sizeof(uint32_t));
        return uid;
      }
      if (s.hash != hsh) continue;
      const Span sp = spans_[s.uid];
      if (sp.len == len &&
          std::memcmp(keys_.data() + sp.off, key,
                      len * sizeof(uint32_t)) == 0) {
        return s.uid;
      }
    }
  }

  size_t num_unique() const { return spans_.size(); }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t gen = 0;
    uint32_t uid = 0;
  };
  struct Span {
    uint32_t off, len;
  };
  std::vector<Slot> slots_;  // open addressing, linear probing
  size_t mask_ = 0;
  uint32_t gen_ = 0;
  size_t expected_ = 0;
  std::vector<uint32_t> keys_;  // interned keys back to back
  std::vector<Span> spans_;
};

// Appends the raw bits of `n` doubles to `key`, two words each.
void AppendBits(std::vector<uint32_t>& key, const double* v, size_t n) {
  const size_t at = key.size();
  key.resize(at + 2 * n);
  std::memcpy(key.data() + at, v, n * sizeof(double));
}

// Interns one feature kind's rows (operator or resource) across the whole
// batch on their raw fp64 bits: ids[i][j] is the id of graph i's row j.
// Bitwise equality is exactly what dedup needs: featurization is
// deterministic, and identical bits guarantee identical downstream
// arithmetic. Candidates enumerated for one query share most operator
// rows (only parallelism features vary) and all resource rows, so each
// distinct row goes through its encoder once. A first-seen row is
// narrowed to fp32 and appended to `stacked`, so row id u is stacked
// row u.
void InternRows(const std::vector<PlanGraph>& graphs,
                std::vector<std::vector<double>> PlanGraph::*rows,
                IntKeyInterner& keys, std::vector<std::vector<uint32_t>>& ids,
                FloatBuffer& stacked) {
  size_t total = 0;
  for (const PlanGraph& g : graphs) total += (g.*rows).size();
  keys.Reset(total);
  for (size_t i = 0; i < graphs.size(); ++i) {
    ids[i].reserve((graphs[i].*rows).size());
    for (const std::vector<double>& row : graphs[i].*rows) {
      const uint32_t id = keys.Intern(row.data(), 2 * row.size());
      if (stacked.size() == static_cast<size_t>(id) * row.size()) {
        for (double v : row) stacked.push_back(static_cast<float>(v));
      }
      ids[i].push_back(id);
    }
  }
}

// Forwards `rows` row-major rows of `in` through one block.
FloatBuffer Forward(const nn::QuantizedMlp& mlp, const FloatBuffer& in,
                    size_t rows) {
  FloatBuffer out;
  mlp.ForwardRows(in.data(), rows, &out);
  return out;
}

// `zero` marks buffers whose ZeroState half is read before being written;
// everything else is fully overwritten by the assembly loops, so
// FloatBuffer skips the fill.
FloatBuffer Alloc(size_t n, bool zero) {
  return zero ? FloatBuffer(n, 0.0f) : FloatBuffer(n);
}

// Plans whose graphs share topology (operator DAG + sink) and cluster
// encoding share the resource-exchange stage and are row-batched through
// every operator-side stage.
struct Group {
  std::vector<size_t> members;        // indices into `plans` / `graphs`
  std::vector<uint32_t> res_row_ids;  // interned resource rows
  const PlanGraph* shape = nullptr;   // representative graph (topology)
  FloatBuffer res_state;              // n_res × h exchange output
};

// Shared resource-node exchange (Forward() stage 2). Depends only on the
// cluster encoding, so it runs once per structure group regardless of how
// many candidates the group holds.
FloatBuffer ComputeResourceState(const nn::QuantizedMlp& res_update,
                                 const FloatBuffer& res_encoded,
                                 const std::vector<uint32_t>& res_row_ids,
                                 size_t h) {
  const size_t n_res = res_row_ids.size();
  // Explicitly zeroed: the peer half stays ZeroState when n_res == 1.
  FloatBuffer input(n_res * 2 * h, 0.0f);
  std::vector<const float*> peers;
  for (size_t i = 0; i < n_res; ++i) {
    const float* self = res_encoded.data() + res_row_ids[i] * h;
    std::memcpy(input.data() + i * 2 * h, self, h * sizeof(float));
    if (n_res > 1) {
      peers.clear();
      for (size_t j = 0; j < n_res; ++j) {
        if (j != i) peers.push_back(res_encoded.data() + res_row_ids[j] * h);
      }
      nn::kernels::MeanRowsF32(input.data() + i * 2 * h + h, peers.data(),
                               peers.size(), h);
    }
  }
  return Forward(res_update, input, n_res);
}

// One message-passing stage's dedup result for a group: candidate b's
// state is unique row remap[b], and unique row u was first produced by
// candidate uniq_rep[u] (whose inputs the executor reads to assemble it).
struct StageDedup {
  std::vector<uint32_t> remap;     // candidate -> unique row index
  std::vector<uint32_t> uniq_rep;  // unique row -> representative candidate
};

// The integer skeleton of one group's message passing: which rows are
// distinct at every stage and how candidates map onto them. Built once
// per group from interned ids only — no floating-point data is touched.
// Keys are content-unique ids, so equal keys guarantee identical stage
// inputs, and candidates with identical feature graphs share every row.
struct GroupPlan {
  size_t B = 0;
  std::vector<StageDedup> flow;    // stage 1, per operator
  std::vector<StageDedup> mapped;  // stage 3b, per operator
  std::vector<StageDedup> flow2;   // stage 4, per operator
  // Unique mapping edges across the group (stage 3a) and, per
  // (candidate, operator) in CSR layout, the incoming unique-message ids
  // in mapping-edge order — the order Forward() pushes them into the
  // mean.
  std::vector<const PlanGraph::MappingEdge*> uniq_edges;
  std::vector<uint32_t> inc_off;  // B*n_ops+1 offsets into inc_uids
  std::vector<uint32_t> inc_uids;
};

// Interns `key` as candidate b's key of one stage.
void InternStageKey(IntKeyInterner& keys, const std::vector<uint32_t>& key,
                    size_t b, StageDedup& sd) {
  const uint32_t uid = keys.Intern(key);
  if (uid == sd.uniq_rep.size()) {
    sd.uniq_rep.push_back(static_cast<uint32_t>(b));
  }
  sd.remap[b] = uid;
}

GroupPlan BuildGroupPlan(const Group& group,
                         const std::vector<PlanGraph>& graphs,
                         const std::vector<std::vector<uint32_t>>& op_row_ids) {
  const PlanGraph& shape = *group.shape;
  const size_t n_ops = shape.num_operators();
  const size_t B = group.members.size();
  GroupPlan plan;
  plan.B = B;
  plan.flow.resize(n_ops);
  plan.mapped.resize(n_ops);
  plan.flow2.resize(n_ops);

  std::vector<uint32_t> key;  // scratch: current candidate's key
  IntKeyInterner keys;        // reused across every dedup round below

  // Stage 1: bottom-up data-flow pass. A candidate's state row is
  // determined by its interned encoder row and its upstream state ids,
  // so that integer tuple is the dedup key.
  for (int id : shape.topo_order) {
    const auto& ups = shape.operator_upstreams[static_cast<size_t>(id)];
    keys.Reset(B);
    StageDedup& sd = plan.flow[static_cast<size_t>(id)];
    sd.remap.resize(B);
    for (size_t b = 0; b < B; ++b) {
      key.clear();
      key.push_back(op_row_ids[group.members[b]][static_cast<size_t>(id)]);
      for (int up : ups) {
        key.push_back(plan.flow[static_cast<size_t>(up)].remap[b]);
      }
      InternStageKey(keys, key, b, sd);
    }
  }

  // Stage 3a: mapping messages. A message row is determined by the
  // resource index (which names the shared res_state row) and the edge's
  // feature bits, so edges dedup on that pair across the whole group.
  std::vector<uint32_t> edge_uid;  // per (candidate, edge), in edge order
  std::vector<size_t> edge_off(B + 1, 0);
  {
    size_t n_edges = 0;
    for (size_t b = 0; b < B; ++b) {
      n_edges += graphs[group.members[b]].mapping_edges.size();
    }
    keys.Reset(n_edges);
    for (size_t b = 0; b < B; ++b) {
      edge_off[b] = edge_uid.size();
      const PlanGraph& g = graphs[group.members[b]];
      for (const PlanGraph::MappingEdge& e : g.mapping_edges) {
        key.assign(1, static_cast<uint32_t>(e.resource_index));
        AppendBits(key, e.features.data(), e.features.size());
        const uint32_t uid = keys.Intern(key);
        if (uid == plan.uniq_edges.size()) plan.uniq_edges.push_back(&e);
        edge_uid.push_back(uid);
      }
    }
    edge_off[B] = edge_uid.size();
  }

  // CSR of incoming unique-message ids per (candidate, operator).
  plan.inc_off.assign(B * n_ops + 1, 0);
  plan.inc_uids.resize(edge_uid.size());
  {
    for (size_t b = 0; b < B; ++b) {
      const PlanGraph& g = graphs[group.members[b]];
      for (const PlanGraph::MappingEdge& e : g.mapping_edges) {
        ++plan.inc_off[b * n_ops + static_cast<size_t>(e.operator_index) + 1];
      }
    }
    for (size_t i = 1; i <= B * n_ops; ++i) {
      plan.inc_off[i] += plan.inc_off[i - 1];
    }
    std::vector<uint32_t> cursor(plan.inc_off.begin(), plan.inc_off.end() - 1);
    for (size_t b = 0; b < B; ++b) {
      const PlanGraph& g = graphs[group.members[b]];
      size_t pos = edge_off[b];
      for (const PlanGraph::MappingEdge& e : g.mapping_edges) {
        plan.inc_uids[cursor[b * n_ops +
                             static_cast<size_t>(e.operator_index)]++] =
            edge_uid[pos++];
      }
    }
  }

  // Stage 3b: residual map_update per operator. Key = (state id,
  // incoming message ids in edge order); the residual sum shares the
  // update's remap because the key pins the state id.
  for (size_t i = 0; i < n_ops; ++i) {
    keys.Reset(B);
    StageDedup& sd = plan.mapped[i];
    sd.remap.resize(B);
    for (size_t b = 0; b < B; ++b) {
      const uint32_t lo = plan.inc_off[b * n_ops + i];
      const uint32_t hi = plan.inc_off[b * n_ops + i + 1];
      key.assign(1, plan.flow[i].remap[b]);
      key.insert(key.end(), plan.inc_uids.begin() + lo,
                 plan.inc_uids.begin() + hi);
      InternStageKey(keys, key, b, sd);
    }
  }

  // Stage 4: second bottom-up pass, same key shape as stage 1 with the
  // mapped ids in place of encoder rows.
  for (int id : shape.topo_order) {
    const auto& ups = shape.operator_upstreams[static_cast<size_t>(id)];
    keys.Reset(B);
    StageDedup& sd = plan.flow2[static_cast<size_t>(id)];
    sd.remap.resize(B);
    for (size_t b = 0; b < B; ++b) {
      key.assign(1, plan.mapped[static_cast<size_t>(id)].remap[b]);
      for (int up : ups) {
        key.push_back(plan.flow2[static_cast<size_t>(up)].remap[b]);
      }
      InternStageKey(keys, key, b, sd);
    }
  }

  return plan;
}

// Runs one group's message passing in fp32, assembling only the distinct
// rows the GroupPlan identified, and returns the sink's final state rows
// (one per distinct sink state). Per-row arithmetic never crosses rows,
// so results do not depend on which other plans share the batch. The
// intermediate state is released before the span ends.
FloatBuffer PassMessages(const QuantizedBlocks& blocks,
                         const FloatBuffer& op_encoded, const GroupPlan& plan,
                         const Group& group,
                         const std::vector<std::vector<uint32_t>>& op_row_ids,
                         size_t h) {
  obs::Span mp_span("batch_inference/message_passing");
  mp_span.AddArg("candidates", std::to_string(plan.B));
  const PlanGraph& shape = *group.shape;
  const size_t n_ops = shape.num_operators();
  // Row r of an h-wide state buffer.
  const auto row = [h](const FloatBuffer& buf, size_t r) {
    return buf.data() + r * h;
  };
  std::optional<obs::Span> stage_span;
  std::vector<const float*> rows;  // scratch: mean inputs

  // Stage 1: bottom-up data-flow pass over the distinct rows.
  stage_span.emplace("batch_inference/mp_flow");
  std::vector<FloatBuffer> state(n_ops);
  for (int id : shape.topo_order) {
    const auto& ups = shape.operator_upstreams[static_cast<size_t>(id)];
    const StageDedup& sd = plan.flow[static_cast<size_t>(id)];
    const size_t uniq = sd.uniq_rep.size();
    // Sources keep the zero-filled upstream half (ZeroState).
    FloatBuffer input = Alloc(uniq * 2 * h, ups.empty());
    for (size_t u = 0; u < uniq; ++u) {
      const size_t b = sd.uniq_rep[u];
      float* dst = input.data() + u * 2 * h;
      std::memcpy(dst,
                  row(op_encoded,
                      op_row_ids[group.members[b]][static_cast<size_t>(id)]),
                  h * sizeof(float));
      if (!ups.empty()) {
        rows.clear();
        for (int up : ups) {
          rows.push_back(row(state[static_cast<size_t>(up)],
                             plan.flow[static_cast<size_t>(up)].remap[b]));
        }
        nn::kernels::MeanRowsF32(dst + h, rows.data(), rows.size(), h);
      }
    }
    obs::Span mlp_span("batch_inference/mp_mlp");
    state[static_cast<size_t>(id)] = Forward(blocks.flow_update, input, uniq);
  }

  // Stage 3a: forward each distinct mapping message once.
  stage_span.emplace("batch_inference/mp_map_message");
  FloatBuffer messages;
  if (!plan.uniq_edges.empty()) {
    const size_t width = h + FeatureEncoder::MappingDim();
    FloatBuffer edge_in(plan.uniq_edges.size() * width);
    for (size_t u = 0; u < plan.uniq_edges.size(); ++u) {
      const PlanGraph::MappingEdge& e = *plan.uniq_edges[u];
      float* dst = edge_in.data() + u * width;
      std::memcpy(dst,
                  row(group.res_state, static_cast<size_t>(e.resource_index)),
                  h * sizeof(float));
      for (size_t f = 0; f < e.features.size(); ++f) {
        dst[h + f] = static_cast<float>(e.features[f]);
      }
    }
    obs::Span mlp_span("batch_inference/mp_mlp");
    messages = Forward(blocks.map_message, edge_in, plan.uniq_edges.size());
  }

  // Stage 3b: residual map_update per operator. The residual adds the
  // state row into the update in place (fp addition commutes exactly).
  stage_span.emplace("batch_inference/mp_map_update");
  std::vector<FloatBuffer> mapped(n_ops);
  for (size_t i = 0; i < n_ops; ++i) {
    const StageDedup& sd = plan.mapped[i];
    const size_t uniq = sd.uniq_rep.size();
    // Zero message half when no incoming edges.
    FloatBuffer input(uniq * 2 * h, 0.0f);
    for (size_t u = 0; u < uniq; ++u) {
      const size_t b = sd.uniq_rep[u];
      float* dst = input.data() + u * 2 * h;
      std::memcpy(dst, row(state[i], plan.flow[i].remap[b]),
                  h * sizeof(float));
      const uint32_t lo = plan.inc_off[b * n_ops + i];
      const uint32_t hi = plan.inc_off[b * n_ops + i + 1];
      if (lo != hi) {
        rows.clear();
        for (uint32_t e = lo; e < hi; ++e) {
          rows.push_back(row(messages, plan.inc_uids[e]));
        }
        nn::kernels::MeanRowsF32(dst + h, rows.data(), rows.size(), h);
      }
    }
    {
      obs::Span mlp_span("batch_inference/mp_mlp");
      mapped[i] = Forward(blocks.map_update, input, uniq);
    }
    for (size_t u = 0; u < uniq; ++u) {
      nn::kernels::AddF32(mapped[i].data() + u * h,
                          row(state[i], plan.flow[i].remap[sd.uniq_rep[u]]),
                          h);
    }
  }

  // Stage 4: second bottom-up pass over the resource-aware states.
  stage_span.emplace("batch_inference/mp_flow2");
  std::vector<FloatBuffer> final_state(n_ops);
  for (int id : shape.topo_order) {
    const auto& ups = shape.operator_upstreams[static_cast<size_t>(id)];
    const StageDedup& sd = plan.flow2[static_cast<size_t>(id)];
    const size_t uniq = sd.uniq_rep.size();
    const FloatBuffer& base = mapped[static_cast<size_t>(id)];
    const std::vector<uint32_t>& base_remap =
        plan.mapped[static_cast<size_t>(id)].remap;
    FloatBuffer input = Alloc(uniq * 2 * h, ups.empty());
    for (size_t u = 0; u < uniq; ++u) {
      const size_t b = sd.uniq_rep[u];
      float* dst = input.data() + u * 2 * h;
      std::memcpy(dst, row(base, base_remap[b]), h * sizeof(float));
      if (!ups.empty()) {
        rows.clear();
        for (int up : ups) {
          rows.push_back(row(final_state[static_cast<size_t>(up)],
                             plan.flow2[static_cast<size_t>(up)].remap[b]));
        }
        nn::kernels::MeanRowsF32(dst + h, rows.data(), rows.size(), h);
      }
    }
    FloatBuffer& res = final_state[static_cast<size_t>(id)];
    {
      obs::Span mlp_span("batch_inference/mp_mlp");
      res = Forward(blocks.flow_update2, input, uniq);
    }
    for (size_t u = 0; u < uniq; ++u) {
      nn::kernels::AddF32(res.data() + u * h,
                          row(base, base_remap[sd.uniq_rep[u]]), h);
    }
  }

  stage_span.reset();
  return std::move(final_state[static_cast<size_t>(shape.sink_index)]);
}

// Readout at the sink: forwards and decodes each distinct sink state once
// (the only fp64 work of a group), then fans the decoded predictions out
// to the group's candidates.
void Readout(const QuantizedBlocks& blocks, const FloatBuffer& sink_state,
             const StageDedup& sink, const ZeroTuneModel& model,
             const Group& group, std::vector<CostPrediction>& out) {
  obs::Span readout_span("batch_inference/readout");
  readout_span.AddArg("candidates", std::to_string(sink.remap.size()));
  const FloatBuffer readout =
      Forward(blocks.readout, sink_state, sink.uniq_rep.size());
  const size_t out_dim = blocks.readout.out_features();
  nn::Matrix widened = nn::Matrix::Uninitialized(1, out_dim);
  std::vector<CostPrediction> decoded(sink.uniq_rep.size());
  for (size_t u = 0; u < decoded.size(); ++u) {
    for (size_t c = 0; c < out_dim; ++c) {
      widened.data()[c] = static_cast<double>(readout[u * out_dim + c]);
    }
    decoded[u] = model.DecodeOutput(widened);
  }
  for (size_t b = 0; b < sink.remap.size(); ++b) {
    out[group.members[b]] = decoded[sink.remap[b]];
  }
}

}  // namespace

QuantizedBlocks QuantizedBlocks::From(const ZeroTuneModel::GnnBlocks& b) {
  return QuantizedBlocks{
      nn::QuantizedMlp::FromMlp(*b.op_encoder),
      nn::QuantizedMlp::FromMlp(*b.res_encoder),
      nn::QuantizedMlp::FromMlp(*b.flow_update),
      nn::QuantizedMlp::FromMlp(*b.res_update),
      nn::QuantizedMlp::FromMlp(*b.map_message),
      nn::QuantizedMlp::FromMlp(*b.map_update),
      nn::QuantizedMlp::FromMlp(*b.flow_update2),
      nn::QuantizedMlp::FromMlp(*b.readout),
  };
}

Result<std::vector<CostPrediction>> BatchedPredict(
    const ZeroTuneModel& model,
    std::span<const dsp::ParallelQueryPlan* const> plans,
    zerotune::ThreadPool* pool, BatchInferenceStats* stats) {
  if (stats) *stats = BatchInferenceStats{};
  const size_t n = plans.size();
  std::vector<CostPrediction> out(n);
  if (n == 0) return out;

  obs::Span batch_span("batch_inference/predict");
  batch_span.AddArg("plans", std::to_string(n));
  batch_span.AddArg("isa", nn::kernels::IsaName(nn::kernels::ActiveIsa()));
  auto* metrics = obs::MetricsRegistry::Global();
  metrics->GetCounter("batch_inference.batches_total")->Increment();
  metrics->GetCounter("batch_inference.plans_total")->Increment(n);
  metrics->GetHistogram("batch_inference.batch_size", {}, 1.0, 1e6)
      ->Record(static_cast<double>(n));

  // Validation stays sequential so the reported failing index is the
  // first bad plan, matching the per-plan fallback path.
  {
    obs::Span span("batch_inference/validate");
    for (size_t i = 0; i < n; ++i) {
      if (plans[i] == nullptr) {
        return Status::InvalidArgument("PredictBatch: plan #" +
                                       std::to_string(i) + " is null");
      }
      Status s = plans[i]->Validate();
      if (!s.ok()) {
        return s.Annotated("PredictBatch: plan #" + std::to_string(i) +
                           " of " + std::to_string(n) + " failed");
      }
    }
  }

  // Featurization (EstimatedInputRates et al.) dominates graph building
  // and is independent per plan — shard it over the pool.
  std::vector<PlanGraph> graphs(n);
  const FeatureConfig& features = model.config().features;
  {
    obs::Span span("batch_inference/featurize");
    ParallelFor(pool, n, [&](size_t i) {
      graphs[i] = BuildPlanGraph(*plans[i], features);
    });
  }

  // Intern encoder inputs across the whole batch; each unique row is
  // stacked once, in fp32, for the encoders below.
  IntKeyInterner keys;  // reused by every batch-level dedup below
  std::vector<std::vector<uint32_t>> op_row_ids(n), res_row_ids(n);
  FloatBuffer op_rows, res_rows;
  size_t op_unique = 0, res_unique = 0;
  {
    obs::Span span("batch_inference/intern");
    InternRows(graphs, &PlanGraph::operator_features, keys, op_row_ids,
               op_rows);
    op_unique = keys.num_unique();
    InternRows(graphs, &PlanGraph::resource_features, keys, res_row_ids,
               res_rows);
    res_unique = keys.num_unique();
  }

  // Take the model's fp32 snapshot (rebuilt only after a weight write;
  // this reference keeps it alive to the end of the batch) and encode
  // each unique row in one row-batched call per encoder.
  std::shared_ptr<const QuantizedBlocks> snapshot;
  FloatBuffer op_encoded, res_encoded;
  {
    obs::Span span("batch_inference/encode");
    snapshot = model.InferenceBlocks();
    op_encoded = Forward(snapshot->op_encoder, op_rows, op_unique);
    res_encoded = Forward(snapshot->res_encoder, res_rows, res_unique);
  }
  const QuantizedBlocks& blocks = *snapshot;

  // Group plans by structure so each group shares one resource-exchange
  // pass and row-batches the operator stages. The key is the topology
  // (sink, topological order, upstream lists, each length-prefixed) plus
  // the interned resource rows. Members join their group in input order.
  std::vector<uint32_t> key;  // scratch
  std::vector<Group> groups;
  {
    obs::Span span("batch_inference/group");
    keys.Reset(n);
    for (size_t i = 0; i < n; ++i) {
      const PlanGraph& g = graphs[i];
      key.clear();
      key.push_back(static_cast<uint32_t>(g.sink_index));
      key.push_back(static_cast<uint32_t>(g.topo_order.size()));
      key.insert(key.end(), g.topo_order.begin(), g.topo_order.end());
      key.push_back(static_cast<uint32_t>(g.operator_upstreams.size()));
      for (const std::vector<int>& ups : g.operator_upstreams) {
        key.push_back(static_cast<uint32_t>(ups.size()));
        key.insert(key.end(), ups.begin(), ups.end());
      }
      key.insert(key.end(), res_row_ids[i].begin(), res_row_ids[i].end());
      const uint32_t gid = keys.Intern(key);
      if (gid == groups.size()) {
        Group grp;
        grp.res_row_ids = res_row_ids[i];
        grp.shape = &g;
        groups.push_back(std::move(grp));
      }
      groups[gid].members.push_back(i);
    }
  }

  const size_t h = model.config().hidden_dim;
  {
    obs::Span span("batch_inference/resource_state");
    for (Group& g : groups) {
      if (g.res_row_ids.empty()) continue;
      g.res_state =
          ComputeResourceState(blocks.res_update, res_encoded, g.res_row_ids, h);
    }
  }

  // Each group's message passing runs as one row batch, independent
  // groups in parallel. Its GroupPlan's stage dedup collapses duplicate
  // candidates, so a candidate repeated in the batch reaches the readout
  // as one distinct sink state.
  std::vector<size_t> sink_states(groups.size());
  ParallelFor(pool, groups.size(), [&](size_t gi) {
    const Group& group = groups[gi];
    GroupPlan plan;
    {
      obs::Span span("batch_inference/mp_plan");
      plan = BuildGroupPlan(group, graphs, op_row_ids);
    }
    const FloatBuffer sink_state =
        PassMessages(blocks, op_encoded, plan, group, op_row_ids, h);
    const StageDedup& sink =
        plan.flow2[static_cast<size_t>(group.shape->sink_index)];
    Readout(blocks, sink_state, sink, model, group, out);
    sink_states[gi] = sink.uniq_rep.size();
  });

  size_t unique = 0;
  for (size_t count : sink_states) unique += count;
  metrics->GetCounter("batch_inference.unique_plans_total")->Increment(unique);
  metrics->GetCounter("batch_inference.dedup_hits_total")
      ->Increment(n - unique);
  batch_span.AddArg("unique_plans", std::to_string(unique));
  batch_span.AddArg("structure_groups", std::to_string(groups.size()));

  if (stats) {
    stats->plans = n;
    stats->unique_plans = unique;
    stats->structure_groups = groups.size();
    stats->operator_rows_encoded = op_unique;
    stats->resource_rows_encoded = res_unique;
    for (size_t i = 0; i < n; ++i) {
      stats->operator_rows_total += op_row_ids[i].size();
      stats->resource_rows_total += res_row_ids[i].size();
    }
  }

  return out;
}

}  // namespace zerotune::core
