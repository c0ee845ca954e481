// KvAttention adapter over the TurboAttention kernels. The SAS-only
// ablation (use_flashq = false) attends through an Fp16KvRows
// (attention/flash.h) with the SAS exponential instead of the quantized
// cache.
#pragma once

#include "attention/flash.h"
#include "attention/method.h"
#include "attention/turbo.h"
#include "kvcache/quantized_kv_cache.h"
#include "quant/types.h"
#include "softmax/sas.h"

namespace turbo {

struct TurboMethodConfig {
  AttentionConfig attention;
  SasConfig sas;
  BitWidth kv_bits = BitWidth::kInt4;
  std::size_t buffer_capacity = 64;  // n_b
  // When false, softmax runs exact FP32 exp instead of SAS — the
  // "FlashQ only" ablation row of Table 4.
  bool use_sas = true;
  // When false, Q/K/V matmuls run in FP16 (no stage-1 INT8) — the
  // "SAS only" ablation row of Table 4.
  bool use_flashq = true;
};

class TurboKvAttention final : public KvAttention {
 public:
  TurboKvAttention(std::size_t head_dim, TurboMethodConfig config);

  std::string_view name() const override { return "TurboAttention"; }
  MatrixF prefill(const MatrixF& q, const MatrixF& k,
                  const MatrixF& v) override;
  std::vector<float> decode(std::span<const float> q,
                            std::span<const float> k,
                            std::span<const float> v) override;
  std::vector<float> attend(std::span<const float> q) override;
  std::size_t kv_cache_bytes() const override;
  std::size_t token_count() const override;

  const QuantizedKvCache& cache() const { return cache_; }

 private:
  TurboMethodConfig config_;
  Sas sas_;
  QuantizedKvCache cache_;
  // SAS-only ablation keeps an FP16 cache instead of the quantized one.
  Fp16KvRows fp16_kv_;
};

// Factory helper for the pipeline/tasks harness.
KvAttentionFactory make_turbo_factory(TurboMethodConfig config);

// Per-head factory where head h gets bits[h] (head-wise mixed precision).
// Consumes one entry per construction, cycling back to head 0 after the
// last entry — callers that rebuild the head set per task case get the
// same assignment every round.
KvAttentionFactory make_turbo_mixed_factory(TurboMethodConfig config,
                                            std::vector<BitWidth> head_bits);

}  // namespace turbo
