// TurboAttention kernels: FlashQ + SAS fused into the FlashAttention
// schedule (Algorithms 1 and 2 of the paper).
//
// Prefill quantizes every Q/K/V tile to INT8 symmetrically (per-block scale
// max|x|/119), runs QK^T and P~V as integer matmuls with INT32
// accumulation (P~V adds each tile's scaled int32 sum to the FP32 output
// once), computes the exponentials with SAS instead of FP32 exp, and
// writes the K/V tiles through the second (channel-wise, integer)
// quantization stage into the packed KV cache. Decode reverses only the
// second stage (INT4/2 -> INT8, integer arithmetic) and attends the query
// against the INT8 payloads plus the INT8 decode buffer.
#pragma once

#include <span>
#include <vector>

#include "attention/config.h"
#include "common/matrix.h"
#include "kvcache/quantized_kv_cache.h"
#include "softmax/sas.h"

namespace turbo {

struct TurboPrefillResult {
  MatrixF o;               // [n_q x d]
  std::vector<float> lse;  // per-query log-sum-exp
};

// Algorithm 1. Q/K/V are one head's [tokens x head_dim] tensors. When
// `cache` is non-null, the K/V tiles are progressively compressed into it
// (its block_tokens() must equal cfg.block_cols).
TurboPrefillResult turbo_attention_prefill(const MatrixF& q, const MatrixF& k,
                                           const MatrixF& v,
                                           const AttentionConfig& cfg,
                                           const Sas& sas,
                                           QuantizedKvCache* cache);

// Algorithm 2. One decode query against the compressed cache (packed
// blocks + INT8 buffer). The new token's k/v must already have been
// appended by the caller.
std::vector<float> turbo_attention_decode(std::span<const float> q,
                                          const QuantizedKvCache& cache,
                                          const AttentionConfig& cfg,
                                          const Sas& sas);

// Same kernel over an arbitrary block view — the entry point the paged
// multi-sequence cache uses (`PagedKvCache::blocks(seq)` + its buffers).
std::vector<float> turbo_attention_decode(
    std::span<const float> q, std::span<const KvBlock* const> blocks,
    const DecodeBuffer& key_buffer, const DecodeBuffer& value_buffer,
    const AttentionConfig& cfg, const Sas& sas);

}  // namespace turbo
