// GEAR-L baseline (Kang et al. 2024): per-token KV quantization with a
// low-rank compensation of the quantization residual.
//
// Each chunk of tokens aging out of the FP16 residual window is quantized
// per token (uniform asymmetric), the quantization residual R = X - X^ is
// approximated with rank-r factors (r = 4 in the paper's GEAR-L setting),
// and the cache stores codes + factors. Reconstruction is X^ + L R^T,
// followed by FP16 FlashAttention — like KIVI, GEAR pays a decompression
// cost before attention, plus the extra low-rank matmul. As in KIVI, the
// tokens live in one Fp16KvRows (attention/flash.h), and a compressed
// chunk's rows are overwritten with its rounded reconstruction.
#pragma once

#include <vector>

#include "attention/config.h"
#include "attention/flash.h"
#include "attention/method.h"
#include "baselines/lowrank.h"
#include "quant/asymmetric.h"

namespace turbo {

struct GearConfig {
  AttentionConfig attention;
  BitWidth bits = BitWidth::kInt4;
  std::size_t rank = 4;          // low-rank compensation rank
  std::size_t residual = 64;     // n_b FP16 window
  std::size_t chunk = 64;        // tokens quantized per flush
};

class GearAttention final : public KvAttention {
 public:
  GearAttention(std::size_t head_dim, GearConfig config);

  std::string_view name() const override { return "GEAR-L"; }
  MatrixF prefill(const MatrixF& q, const MatrixF& k,
                  const MatrixF& v) override;
  std::vector<float> decode(std::span<const float> q,
                            std::span<const float> k,
                            std::span<const float> v) override;
  std::vector<float> attend(std::span<const float> q) override;
  std::size_t kv_cache_bytes() const override;
  std::size_t token_count() const override { return kv_.rows(); }

  std::size_t residual_tokens() const { return kv_.rows() - quantized_rows_; }

 private:
  void compact();

  GearConfig config_;

  Fp16KvRows kv_;  // reconstruction for [0, quantized_rows_), FP16 tail
  std::size_t quantized_rows_ = 0;

  std::vector<GroupQuantized> k_chunks_;
  std::vector<GroupQuantized> v_chunks_;
  std::vector<LowRankFactors> k_factors_;
  std::vector<LowRankFactors> v_factors_;
};

KvAttentionFactory make_gear_factory(GearConfig config);

}  // namespace turbo
