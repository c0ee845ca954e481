// Dense (uncompressed) attention baselines.
//
// Fp16FlashAttention is the paper's "FlashAttention" baseline: exact
// attention with FP16 storage/matmuls and FP32 exponentiation — the method
// every speedup/accuracy number is measured against. It is an Fp16KvRows
// (attention/flash.h) and the shape checks. ExactAttention is the all-FP32
// ground truth used to score approximation error.
#pragma once

#include "attention/config.h"
#include "attention/flash.h"
#include "attention/method.h"

namespace turbo {

class Fp16FlashAttention final : public KvAttention {
 public:
  Fp16FlashAttention(std::size_t head_dim, AttentionConfig config);

  std::string_view name() const override { return "FlashAttention-FP16"; }
  MatrixF prefill(const MatrixF& q, const MatrixF& k,
                  const MatrixF& v) override;
  std::vector<float> decode(std::span<const float> q,
                            std::span<const float> k,
                            std::span<const float> v) override;
  std::vector<float> attend(std::span<const float> q) override;
  std::size_t kv_cache_bytes() const override;
  std::size_t token_count() const override { return kv_.rows(); }

 private:
  AttentionConfig config_;
  Fp16KvRows kv_;
};

class ExactAttention final : public KvAttention {
 public:
  ExactAttention(std::size_t head_dim, AttentionConfig config);

  std::string_view name() const override { return "Exact-FP32"; }
  MatrixF prefill(const MatrixF& q, const MatrixF& k,
                  const MatrixF& v) override;
  std::vector<float> decode(std::span<const float> q,
                            std::span<const float> k,
                            std::span<const float> v) override;
  std::vector<float> attend(std::span<const float> q) override;
  std::size_t kv_cache_bytes() const override;
  std::size_t token_count() const override { return k_.rows(); }

 private:
  AttentionConfig config_;
  MatrixF k_;
  MatrixF v_;
};

KvAttentionFactory make_fp16_factory(AttentionConfig config);
KvAttentionFactory make_exact_factory(AttentionConfig config);

}  // namespace turbo
