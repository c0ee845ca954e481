// End-to-end transformer inference model (Figures 1a, 1c, 6, 7a).
//
// Composes the linear-layer roofline (QKV/O projections, gated FFN) with
// the per-method attention models, tracks HBM occupancy (weights + KV cache
// + activation working set) for OOM detection, and derives maximum
// throughput as a function of batch size the way the paper's Figure 7a
// sweep does.
#pragma once

#include <cstddef>
#include <string>

#include "sim/attention_model.h"
#include "sim/device.h"

namespace turbo::sim {

// Transformer geometry. Matches the public configs of the evaluated
// models; `kv_heads < heads` models grouped-query attention.
struct ModelGeometry {
  std::string name;
  std::size_t layers = 0;
  std::size_t heads = 0;
  std::size_t kv_heads = 0;
  std::size_t head_dim = 0;
  std::size_t d_model = 0;
  std::size_t d_ffn = 0;
  std::size_t vocab = 32064;

  // Parameter count of the decoder stack + embeddings (gated FFN = 3
  // projection matrices, attention = Q/O at d_model x d_model and K/V at
  // d_model x kv_dim).
  double params() const;
  double weight_bytes_fp16() const { return params() * 2.0; }
};

ModelGeometry phi3_mini_geometry();    // 3.8B
ModelGeometry phi3_medium_geometry();  // 14B
ModelGeometry llama3_8b_geometry();
ModelGeometry qwen2_7b_geometry();

struct InferenceConfig {
  AttnMethod method = AttnMethod::kFlashFp16;
  AttnCostConfig attention;  // kv_bits etc.
  std::size_t batch = 1;
  std::size_t prompt = 1024;
  std::size_t generate = 128;
};

// Latency decomposition of one model pass (all layers), seconds.
struct E2EBreakdown {
  double linear = 0;        // projections + FFN + LM head
  double attn_matmul = 0;   // QK + PV inside attention
  double attn_softmax = 0;
  double attn_dequant = 0;  // decompression (arithmetic + serialized pass)
  double attn_kv_io = 0;    // KV-cache traffic
  double attn_other = 0;    // quantize + launch overheads

  double attention() const {
    return attn_matmul + attn_softmax + attn_dequant + attn_kv_io +
           attn_other;
  }
  double total() const { return linear + attention(); }
};

// One full prefill pass over `cfg.prompt` tokens.
E2EBreakdown prefill_breakdown(const DeviceSpec& dev,
                               const ModelGeometry& geom,
                               const InferenceConfig& cfg);

// One chunked-prefill pass: the linear stack (GEMMs) runs over the
// `cfg.prompt` *new* tokens only, while attention spans the `cached`
// tokens already resident in the KV cache plus the chunk. With
// cached == 0 this is exactly prefill_breakdown, so a monolithic prefill
// and a one-chunk "chunked" prefill cost the same.
E2EBreakdown chunk_prefill_breakdown(const DeviceSpec& dev,
                                     const ModelGeometry& geom,
                                     const InferenceConfig& cfg,
                                     std::size_t cached);

// One decode step at the given context length.
E2EBreakdown decode_step_breakdown(const DeviceSpec& dev,
                                   const ModelGeometry& geom,
                                   const InferenceConfig& cfg,
                                   std::size_t context);

// Whole-generation latency: prefill + `generate` decode steps with the
// context growing each step.
double generation_latency(const DeviceSpec& dev, const ModelGeometry& geom,
                          const InferenceConfig& cfg);

// HBM occupancy at peak context (prompt + generate tokens cached).
struct MemoryUse {
  double weights = 0;
  double kv_cache = 0;
  double activations = 0;
  double total() const { return weights + kv_cache + activations; }
  bool fits = true;
};

MemoryUse memory_use(const DeviceSpec& dev, const ModelGeometry& geom,
                     const InferenceConfig& cfg);

// Largest batch that still fits in HBM for this workload (0 if even batch
// 1 does not fit).
std::size_t max_batch(const DeviceSpec& dev, const ModelGeometry& geom,
                      InferenceConfig cfg);

// Decode-phase throughput: generated tokens per second over the decoding
// steps only (0 when OOM). This is the Figure 7a quantity — with an 8:1
// prompt:output ratio, including prefill would let the (method-agnostic)
// linear prefill FLOPs mask the attention effect entirely.
double throughput_tokens_per_second(const DeviceSpec& dev,
                                    const ModelGeometry& geom,
                                    const InferenceConfig& cfg);

}  // namespace turbo::sim
