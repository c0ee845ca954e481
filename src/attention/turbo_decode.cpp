#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "attention/turbo.h"
#include "common/check.h"
#include "quant/symmetric.h"

namespace turbo {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// Online-softmax state for the single decode query.
struct DecodeState {
  float m = kNegInf;
  float l = 0.0f;
  std::vector<float> o;  // unnormalized output accumulator

  explicit DecodeState(std::size_t d) : o(d, 0.0f) {}
};

// Absorb one INT8 KV chunk: K_q1/V_q1 are [tokens x d] INT8 with symmetric
// scales k_scale/v_scale. Implements the body of Algorithm 2's loop.
// `mask_before` excludes the chunk's first tokens (sliding-window start
// falling inside this chunk).
void absorb_chunk(DecodeState& state, std::span<const std::int8_t> q_q1,
                  float q_scale, const MatrixI8& k_q1, float k_scale,
                  const MatrixI8& v_q1, float v_scale, float attn_scale,
                  const Sas& sas, std::size_t mask_before = 0) {
  const std::size_t tokens = k_q1.rows();
  if (tokens == 0) return;
  const std::size_t d = k_q1.cols();
  TURBO_DCHECK(q_q1.size() == d);

  // S_j = s_q * s_k * q^q1 (K^q1)^T * attn_scale.
  std::vector<float> s(tokens);
  const float s_scale = q_scale * k_scale * attn_scale;
  for (std::size_t t = 0; t < tokens; ++t) {
    if (t < mask_before) {
      s[t] = kNegInf;  // outside the sliding window
      continue;
    }
    auto kr = k_q1.row(t);
    std::int32_t acc = 0;
    for (std::size_t x = 0; x < d; ++x) {
      acc += static_cast<std::int32_t>(q_q1[x]) *
             static_cast<std::int32_t>(kr[x]);
    }
    s[t] = static_cast<float>(acc) * s_scale;
  }

  float block_max = kNegInf;
  for (float v : s) block_max = std::max(block_max, v);
  const float m_new = std::max(state.m, block_max);
  const float alpha = state.m == kNegInf ? 0.0f : sas.exp_neg(state.m - m_new);

  // P~ via SAS; track the max for the per-chunk symmetric scale.
  float p_max = 0.0f;
  float row_sum = 0.0f;
  std::vector<float> p(tokens);
  for (std::size_t t = 0; t < tokens; ++t) {
    p[t] = sas.exp_neg(s[t] - m_new);
    row_sum += p[t];
    p_max = std::max(p_max, p[t]);
  }

  if (alpha != 1.0f) {
    for (float& v : state.o) v *= alpha;
  }
  state.l = state.l * alpha + row_sum;
  state.m = m_new;

  // Quantize P~ to INT8 and run the integer P~V product: each channel sums
  // exactly in int32 over the chunk, and O takes float(acc) * o_scale once,
  // only when some code is not 0.
  const float p_scale = p_max > 0.0f ? p_max / kSymmetricHeadroom : 1.0f;
  const float inv_p = 1.0f / p_scale;
  const float o_scale = p_scale * v_scale;
  std::vector<std::int32_t> acc(d, 0);
  bool live = false;
  for (std::size_t t = 0; t < tokens; ++t) {
    const float scaled = std::nearbyint(p[t] * inv_p);
    const std::int32_t pq =
        static_cast<std::int32_t>(std::clamp(scaled, 0.0f, 127.0f));
    if (pq == 0) continue;
    live = true;
    auto vr = v_q1.row(t);
    for (std::size_t x = 0; x < d; ++x) {
      acc[x] += pq * static_cast<std::int32_t>(vr[x]);
    }
  }
  if (!live) return;
  for (std::size_t x = 0; x < d; ++x) {
    state.o[x] += static_cast<float>(acc[x]) * o_scale;
  }
}

}  // namespace

std::vector<float> turbo_attention_decode(
    std::span<const float> q, std::span<const KvBlock* const> blocks,
    const DecodeBuffer& key_buffer, const DecodeBuffer& value_buffer,
    const AttentionConfig& cfg, const Sas& sas) {
  const std::size_t d = key_buffer.dim();
  TURBO_CHECK(q.size() == d);
  TURBO_CHECK_MSG(!blocks.empty() || !key_buffer.empty(),
                  "decode against an empty cache");
  const float attn_scale = cfg.effective_scale(d);

  // Stage-1 quantization of the query (Step 1 of the decode flow).
  const float q_scale = symmetric_scale_int8(q);
  std::vector<std::int8_t> q_q1(d);
  quantize_symmetric_int8(q, q_scale, q_q1);

  DecodeState state(d);

  // Sliding window: only the last cfg.window cached tokens participate.
  std::size_t total = key_buffer.size();
  for (const KvBlock* block : blocks) total += block->tokens();
  const std::size_t win_start =
      cfg.window > 0 && total > cfg.window ? total - cfg.window : 0;

  // Packed blocks: reverse only the second stage (INT -> INT8), then run
  // the integer attention chunk. Blocks fully outside the window are
  // skipped without touching their payload.
  std::size_t pos = 0;
  for (const KvBlock* block : blocks) {
    const std::size_t end = pos + block->tokens();
    if (end <= win_start) {
      pos = end;
      continue;
    }
    const MatrixI8 k_q1 = progressive_decompress_int8(block->k);
    const MatrixI8 v_q1 = progressive_decompress_int8(block->v);
    const std::size_t mask = win_start > pos ? win_start - pos : 0;
    absorb_chunk(state, q_q1, q_scale, k_q1, block->k.fp_scale, v_q1,
                 block->v.fp_scale, attn_scale, sas, mask);
    pos = end;
  }

  // Buffered tail: already INT8 under the universal scales.
  if (!key_buffer.empty()) {
    const std::size_t mask = win_start > pos ? win_start - pos : 0;
    absorb_chunk(state, q_q1, q_scale, key_buffer.tokens(),
                 key_buffer.scale(), value_buffer.tokens(),
                 value_buffer.scale(), attn_scale, sas, mask);
  }

  TURBO_CHECK_MSG(state.l > 0.0f, "decode query attended no keys");
  const float inv = 1.0f / state.l;
  for (float& v : state.o) v *= inv;
  return std::move(state.o);
}

std::vector<float> turbo_attention_decode(std::span<const float> q,
                                          const QuantizedKvCache& cache,
                                          const AttentionConfig& cfg,
                                          const Sas& sas) {
  TURBO_CHECK_MSG(cache.token_count() > 0, "decode against an empty cache");
  std::vector<const KvBlock*> blocks;
  blocks.reserve(cache.block_count());
  for (std::size_t j = 0; j < cache.block_count(); ++j) {
    blocks.push_back(&cache.block(j));
  }
  return turbo_attention_decode(q, blocks, cache.key_buffer(),
                                cache.value_buffer(), cfg, sas);
}

}  // namespace turbo
