#include "baselines/gear.h"

#include <cstdint>

#include "common/check.h"

namespace turbo {

namespace {

// Subspace-iteration sweeps and seed of the rank-r compensation.
constexpr std::size_t kLowRankIters = 3;
constexpr std::uint64_t kLowRankSeed = 0x6ea21e5;

}  // namespace

GearAttention::GearAttention(std::size_t head_dim, GearConfig config)
    : config_(config), kv_(head_dim) {
  TURBO_CHECK(config_.chunk > 0);
  TURBO_CHECK(config_.rank > 0);
}

MatrixF GearAttention::prefill(const MatrixF& q, const MatrixF& k,
                               const MatrixF& v) {
  const std::size_t d = kv_.head_dim();
  TURBO_CHECK(q.cols() == d && k.cols() == d && v.cols() == d);
  TURBO_CHECK(k.rows() == v.rows());
  MatrixF o = kv_.prefill(q, k, v, config_.attention);
  compact();
  return o;
}

std::vector<float> GearAttention::decode(std::span<const float> q,
                                         std::span<const float> k,
                                         std::span<const float> v) {
  const std::size_t d = kv_.head_dim();
  TURBO_CHECK(q.size() == d && k.size() == d && v.size() == d);
  kv_.append(k, v);
  compact();
  return kv_.attend(q, config_.attention);
}

std::vector<float> GearAttention::attend(std::span<const float> q) {
  TURBO_CHECK(q.size() == kv_.head_dim());
  return kv_.attend(q, config_.attention);
}

void GearAttention::compact() {
  const std::size_t d = kv_.head_dim();
  while (kv_.rows() - quantized_rows_ >= config_.residual + config_.chunk) {
    const std::size_t begin = quantized_rows_;
    const MatrixF k_chunk = kv_.k().block_rows(begin, config_.chunk);
    const MatrixF v_chunk = kv_.v().block_rows(begin, config_.chunk);

    // Per-token quantization: one asymmetric group per token row.
    GroupQuantized kq =
        quantize_grouped(k_chunk, config_.bits, d, QuantAxis::kToken);
    GroupQuantized vq =
        quantize_grouped(v_chunk, config_.bits, d, QuantAxis::kToken);
    MatrixF k_back = dequantize_grouped(kq);
    MatrixF v_back = dequantize_grouped(vq);

    // Rank-r compensation of the quantization residual.
    MatrixF k_res(config_.chunk, d);
    MatrixF v_res(config_.chunk, d);
    for (std::size_t i = 0; i < k_res.size(); ++i) {
      k_res.flat()[i] = k_chunk.flat()[i] - k_back.flat()[i];
      v_res.flat()[i] = v_chunk.flat()[i] - v_back.flat()[i];
    }
    const std::uint64_t chunk_seed = kLowRankSeed + k_chunks_.size();
    LowRankFactors kf =
        low_rank_approximate(k_res, config_.rank, kLowRankIters, chunk_seed);
    LowRankFactors vf = low_rank_approximate(v_res, config_.rank,
                                             kLowRankIters, chunk_seed + 1);
    low_rank_add_to(kf, k_back);
    low_rank_add_to(vf, v_back);

    kv_.replace(begin, k_back, v_back);
    k_chunks_.push_back(std::move(kq));
    v_chunks_.push_back(std::move(vq));
    k_factors_.push_back(std::move(kf));
    v_factors_.push_back(std::move(vf));
    quantized_rows_ += config_.chunk;
  }
}

std::size_t GearAttention::kv_cache_bytes() const {
  std::size_t bytes = 0;
  for (const GroupQuantized& g : k_chunks_) bytes += g.memory_bytes();
  for (const GroupQuantized& g : v_chunks_) bytes += g.memory_bytes();
  for (const LowRankFactors& f : k_factors_) bytes += f.memory_bytes();
  for (const LowRankFactors& f : v_factors_) bytes += f.memory_bytes();
  return bytes + kv_.fp16_bytes(quantized_rows_);
}

KvAttentionFactory make_gear_factory(GearConfig config) {
  return [config](std::size_t head_dim) {
    return std::make_unique<GearAttention>(head_dim, config);
  };
}

}  // namespace turbo
