// KIVI baseline (Liu et al. 2024): asymmetric KV-cache quantization with
// per-channel keys, per-token values, and a full-precision residual window.
//
// Keys are quantized per channel in groups of g tokens (a group is one
// channel's slice of a g-token chunk); values per token in groups of g
// channels. The most recent n_b tokens stay in FP16 ("residual") and
// tokens are quantized in g-sized chunks as they age out of the window.
// Attention itself is *not* quantized: the cache is dequantized back to
// FP16 and fed through FlashAttention — the decompression overhead the
// paper's latency figures charge KIVI for.
//
// Implementation note: the tokens live in one Fp16KvRows
// (attention/flash.h). Quantized chunks are immutable, so their FP16
// dequantization is computed once and written over the chunk's rows of
// that store, which the attention kernel reads; kv_cache_bytes() is
// accounted from the quantized representation the real system would hold.
#pragma once

#include <vector>

#include "attention/config.h"
#include "attention/flash.h"
#include "attention/method.h"
#include "quant/asymmetric.h"

namespace turbo {

struct KiviConfig {
  AttentionConfig attention;
  BitWidth bits = BitWidth::kInt4;
  std::size_t group = 64;     // g: quantization group size
  std::size_t residual = 64;  // n_b: FP16 residual window (token count)
};

class KiviAttention final : public KvAttention {
 public:
  KiviAttention(std::size_t head_dim, KiviConfig config);

  std::string_view name() const override { return "KIVI"; }
  MatrixF prefill(const MatrixF& q, const MatrixF& k,
                  const MatrixF& v) override;
  std::vector<float> decode(std::span<const float> q,
                            std::span<const float> k,
                            std::span<const float> v) override;
  std::vector<float> attend(std::span<const float> q) override;
  std::size_t kv_cache_bytes() const override;
  std::size_t token_count() const override { return kv_.rows(); }

  std::size_t residual_tokens() const { return kv_.rows() - quantized_rows_; }
  std::size_t quantized_chunk_count() const { return k_chunks_.size(); }

 private:
  // Quantize g-token chunks as they age out of the residual window.
  void compact();

  KiviConfig config_;

  // What the attention kernel reads: rows [0, quantized_rows_) hold the
  // dequantized reconstruction, the tail holds FP16 residuals.
  Fp16KvRows kv_;
  std::size_t quantized_rows_ = 0;

  // The authoritative quantized storage (memory accounting + tests).
  std::vector<GroupQuantized> k_chunks_;
  std::vector<GroupQuantized> v_chunks_;
};

KvAttentionFactory make_kivi_factory(KiviConfig config);

}  // namespace turbo
