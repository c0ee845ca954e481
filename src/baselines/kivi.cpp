#include "baselines/kivi.h"

#include "common/check.h"

namespace turbo {

KiviAttention::KiviAttention(std::size_t head_dim, KiviConfig config)
    : config_(config), kv_(head_dim) {
  TURBO_CHECK(config_.group > 0);
}

MatrixF KiviAttention::prefill(const MatrixF& q, const MatrixF& k,
                               const MatrixF& v) {
  const std::size_t d = kv_.head_dim();
  TURBO_CHECK(q.cols() == d && k.cols() == d && v.cols() == d);
  TURBO_CHECK(k.rows() == v.rows());
  // Prefill attention runs on the uncompressed K/V (the prompt is present
  // in full precision at prefill time); compression happens afterwards.
  MatrixF o = kv_.prefill(q, k, v, config_.attention);
  compact();
  return o;
}

std::vector<float> KiviAttention::decode(std::span<const float> q,
                                         std::span<const float> k,
                                         std::span<const float> v) {
  const std::size_t d = kv_.head_dim();
  TURBO_CHECK(q.size() == d && k.size() == d && v.size() == d);
  kv_.append(k, v);
  compact();
  return kv_.attend(q, config_.attention);
}

std::vector<float> KiviAttention::attend(std::span<const float> q) {
  TURBO_CHECK(q.size() == kv_.head_dim());
  return kv_.attend(q, config_.attention);
}

void KiviAttention::compact() {
  // A chunk leaves the window only when the n_b most recent tokens can
  // remain resident afterwards.
  while (kv_.rows() - quantized_rows_ >= config_.residual + config_.group) {
    const std::size_t begin = quantized_rows_;
    // Keys per-channel: one group spans the chunk's g tokens of a channel.
    GroupQuantized kq =
        quantize_grouped(kv_.k().block_rows(begin, config_.group),
                         config_.bits, config_.group, QuantAxis::kChannel);
    // Values per-token: groups of g channels within each token row.
    GroupQuantized vq =
        quantize_grouped(kv_.v().block_rows(begin, config_.group),
                         config_.bits, config_.group, QuantAxis::kToken);
    // The attention kernel sees the reconstruction, rounded to FP16 as the
    // dequant kernel materializes FP16 tiles.
    kv_.replace(begin, dequantize_grouped(kq), dequantize_grouped(vq));
    k_chunks_.push_back(std::move(kq));
    v_chunks_.push_back(std::move(vq));
    quantized_rows_ += config_.group;
  }
}

std::size_t KiviAttention::kv_cache_bytes() const {
  std::size_t bytes = 0;
  for (const GroupQuantized& g : k_chunks_) bytes += g.memory_bytes();
  for (const GroupQuantized& g : v_chunks_) bytes += g.memory_bytes();
  return bytes + kv_.fp16_bytes(quantized_rows_);  // FP16 residual window
}

KvAttentionFactory make_kivi_factory(KiviConfig config) {
  return [config](std::size_t head_dim) {
    return std::make_unique<KiviAttention>(head_dim, config);
  };
}

}  // namespace turbo
