#include "attention/turbo_method.h"

#include <utility>

#include "attention/flash.h"
#include "common/check.h"
#include "common/fp16.h"
#include "kernels/fused_decode.h"
#include "kernels/fused_prefill.h"

namespace turbo {

namespace {

SasConfig effective_sas(const TurboMethodConfig& config) {
  SasConfig sas = config.sas;
  if (!config.use_sas) sas.exact_exp = true;
  return sas;
}

}  // namespace

TurboKvAttention::TurboKvAttention(std::size_t head_dim,
                                   TurboMethodConfig config)
    : config_(config),
      sas_(effective_sas(config)),
      cache_(head_dim, config.kv_bits, config.attention.block_cols,
             config.buffer_capacity) {}

MatrixF TurboKvAttention::prefill(const MatrixF& q, const MatrixF& k,
                                  const MatrixF& v) {
  TURBO_CHECK_MSG(token_count() == 0, "prefill must be the first call");
  TURBO_CHECK(q.cols() == cache_.head_dim() && k.cols() == cache_.head_dim() &&
              v.cols() == cache_.head_dim());
  TURBO_CHECK(k.rows() == v.rows());
  if (!config_.use_flashq) {
    // SAS-only ablation: FP16 FlashAttention with the SAS exponential and
    // an FP16 (uncompressed) cache.
    FlashOptions options;
    options.exp_fn = [this](float x) { return sas_.exp_neg(x); };
    const FlashResult r = flash_attention(q, k, v, config_.attention, options);
    k_fp16_ = k;
    v_fp16_ = v;
    round_span_to_fp16(k_fp16_.flat());
    round_span_to_fp16(v_fp16_.flat());
    return r.o;
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
    std::vector<float> k16(k.begin(), k.end());
    std::vector<float> v16(v.begin(), v.end());
    round_span_to_fp16(k16);
    round_span_to_fp16(v16);
    k_fp16_.append_row(std::span<const float>(k16));
    v_fp16_.append_row(std::span<const float>(v16));
    FlashOptions options;
    options.exp_fn = [this](float x) { return sas_.exp_neg(x); };
    options.kv_prerounded = true;  // rows were rounded on insertion
    return flash_decode(q, k_fp16_, v_fp16_, config_.attention, options);
  }
  cache_.append_token(k, v);
  return fused_turbo_decode(q, cache_, config_.attention, sas_);
}

std::vector<float> TurboKvAttention::attend(std::span<const float> q) {
  TURBO_CHECK(q.size() == cache_.head_dim());
  if (!config_.use_flashq) {
    FlashOptions options;
    options.exp_fn = [this](float x) { return sas_.exp_neg(x); };
    options.kv_prerounded = true;
    return flash_decode(q, k_fp16_, v_fp16_, config_.attention, options);
  }
  return fused_turbo_decode(q, cache_, config_.attention, sas_);
}

std::size_t TurboKvAttention::kv_cache_bytes() const {
  if (!config_.use_flashq) {
    return (k_fp16_.size() + v_fp16_.size()) * 2;  // FP16 payload
  }
  return cache_.memory_bytes();
}

std::size_t TurboKvAttention::token_count() const {
  if (!config_.use_flashq) return k_fp16_.rows();
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
