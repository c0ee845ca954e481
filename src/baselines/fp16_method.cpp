#include "baselines/fp16_method.h"

#include "attention/reference.h"
#include "common/check.h"

namespace turbo {

Fp16FlashAttention::Fp16FlashAttention(std::size_t head_dim,
                                       AttentionConfig config)
    : config_(config), kv_(head_dim) {}

MatrixF Fp16FlashAttention::prefill(const MatrixF& q, const MatrixF& k,
                                    const MatrixF& v) {
  const std::size_t d = kv_.head_dim();
  TURBO_CHECK(q.cols() == d && k.cols() == d && v.cols() == d);
  TURBO_CHECK(k.rows() == v.rows());
  return kv_.prefill(q, k, v, config_);
}

std::vector<float> Fp16FlashAttention::decode(std::span<const float> q,
                                              std::span<const float> k,
                                              std::span<const float> v) {
  const std::size_t d = kv_.head_dim();
  TURBO_CHECK(q.size() == d && k.size() == d && v.size() == d);
  kv_.append(k, v);
  return kv_.attend(q, config_);
}

std::vector<float> Fp16FlashAttention::attend(std::span<const float> q) {
  TURBO_CHECK(q.size() == kv_.head_dim());
  return kv_.attend(q, config_);
}

std::size_t Fp16FlashAttention::kv_cache_bytes() const {
  return kv_.fp16_bytes(0);
}

ExactAttention::ExactAttention(std::size_t head_dim, AttentionConfig config)
    : config_(config), k_(0, head_dim), v_(0, head_dim) {}

MatrixF ExactAttention::prefill(const MatrixF& q, const MatrixF& k,
                                const MatrixF& v) {
  TURBO_CHECK_MSG(k_.rows() == 0, "prefill must be the first call");
  TURBO_CHECK(q.cols() == k_.cols() && k.cols() == k_.cols() &&
              v.cols() == k_.cols());
  TURBO_CHECK(k.rows() == v.rows());
  k_ = k;
  v_ = v;
  return reference_attention(q, k, v, config_);
}

std::vector<float> ExactAttention::decode(std::span<const float> q,
                                          std::span<const float> k,
                                          std::span<const float> v) {
  TURBO_CHECK(q.size() == k_.cols() && k.size() == k_.cols() &&
              v.size() == k_.cols());
  k_.append_row(k);
  v_.append_row(v);
  return reference_decode(q, k_, v_, config_);
}

std::vector<float> ExactAttention::attend(std::span<const float> q) {
  TURBO_CHECK(q.size() == k_.cols());
  return reference_decode(q, k_, v_, config_);
}

std::size_t ExactAttention::kv_cache_bytes() const {
  return (k_.size() + v_.size()) * 4;
}

KvAttentionFactory make_fp16_factory(AttentionConfig config) {
  return [config](std::size_t head_dim) {
    return std::make_unique<Fp16FlashAttention>(head_dim, config);
  };
}

KvAttentionFactory make_exact_factory(AttentionConfig config) {
  return [config](std::size_t head_dim) {
    return std::make_unique<ExactAttention>(head_dim, config);
  };
}

}  // namespace turbo
