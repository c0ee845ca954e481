#include "attention/turbo_method.h"

#include <utility>

#include "common/check.h"
#include "kernels/fused_decode.h"
#include "kernels/fused_prefill.h"

namespace turbo {

namespace {

SasConfig effective_sas(const TurboMethodConfig& config) {
  SasConfig sas = config.sas;
  if (!config.use_sas) sas.exact_exp = true;
  return sas;
}

// The SAS-only ablation: FP16 FlashAttention with the SAS exponential.
FlashOptions sas_exp(const Sas& sas) {
  FlashOptions options;
  options.exp_fn = [&sas](float x) { return sas.exp_neg(x); };
  return options;
}

}  // namespace

TurboKvAttention::TurboKvAttention(std::size_t head_dim,
                                   TurboMethodConfig config)
    : config_(config),
      sas_(effective_sas(config)),
      cache_(head_dim, config.kv_bits, config.attention.block_cols,
             config.buffer_capacity),
      fp16_kv_(head_dim) {}

MatrixF TurboKvAttention::prefill(const MatrixF& q, const MatrixF& k,
                                  const MatrixF& v) {
  TURBO_CHECK_MSG(token_count() == 0, "prefill must be the first call");
  TURBO_CHECK(q.cols() == cache_.head_dim() && k.cols() == cache_.head_dim() &&
              v.cols() == cache_.head_dim());
  TURBO_CHECK(k.rows() == v.rows());
  if (!config_.use_flashq) {
    return fp16_kv_.prefill(q, k, v, config_.attention, sas_exp(sas_));
  }
  TurboPrefillResult r =
      fused_turbo_prefill(q, k, v, config_.attention, sas_, &cache_);
  return std::move(r.o);
}

std::vector<float> TurboKvAttention::decode(std::span<const float> q,
                                            std::span<const float> k,
                                            std::span<const float> v) {
  TURBO_CHECK(q.size() == cache_.head_dim() && k.size() == cache_.head_dim() &&
              v.size() == cache_.head_dim());
  if (!config_.use_flashq) {
    fp16_kv_.append(k, v);
    return fp16_kv_.attend(q, config_.attention, sas_exp(sas_));
  }
  cache_.append_token(k, v);
  return fused_turbo_decode(q, cache_, config_.attention, sas_);
}

std::vector<float> TurboKvAttention::attend(std::span<const float> q) {
  TURBO_CHECK(q.size() == cache_.head_dim());
  if (!config_.use_flashq) {
    return fp16_kv_.attend(q, config_.attention, sas_exp(sas_));
  }
  return fused_turbo_decode(q, cache_, config_.attention, sas_);
}

std::size_t TurboKvAttention::kv_cache_bytes() const {
  if (!config_.use_flashq) return fp16_kv_.fp16_bytes(0);
  return cache_.memory_bytes();
}

std::size_t TurboKvAttention::token_count() const {
  if (!config_.use_flashq) return fp16_kv_.rows();
  return cache_.token_count();
}

KvAttentionFactory make_turbo_factory(TurboMethodConfig config) {
  return [config](std::size_t head_dim) {
    return std::make_unique<TurboKvAttention>(head_dim, config);
  };
}

KvAttentionFactory make_turbo_mixed_factory(TurboMethodConfig config,
                                            std::vector<BitWidth> head_bits) {
  TURBO_CHECK(!head_bits.empty());
  auto next = std::make_shared<std::size_t>(0);
  auto bits = std::make_shared<std::vector<BitWidth>>(std::move(head_bits));
  return [config, next, bits](std::size_t head_dim) {
    TurboMethodConfig c = config;
    c.kv_bits = (*bits)[*next % bits->size()];
    ++*next;
    return std::make_unique<TurboKvAttention>(head_dim, c);
  };
}

}  // namespace turbo
