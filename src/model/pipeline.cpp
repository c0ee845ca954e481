#include "model/pipeline.h"

#include "baselines/fp16_method.h"
#include "common/rng.h"
#include "common/stats.h"

namespace turbo::model {

namespace {

void add_noise(MatrixF& m, Rng& rng, double stddev) {
  if (stddev <= 0.0) return;
  for (float& v : m.flat()) {
    v += static_cast<float>(rng.normal(0.0, stddev));
  }
}

}  // namespace

MethodFidelity measure_fidelity(const QkvGenerator& generator,
                                const KvAttentionFactory& factory,
                                const PipelineConfig& config) {
  const ModelProfile& profile = generator.profile();
  AttentionConfig exact_cfg;  // defaults: causal, 64x64

  MethodFidelity out;
  double prefill_err_sum = 0.0;
  double decode_err_sum = 0.0;
  std::size_t decode_count = 0;
  double bytes_sum = 0.0;

  for (std::size_t h = 0; h < profile.heads; ++h) {
    HeadTensors t =
        generator.generate_head(h, config.prefill_tokens + config.decode_steps);
    Rng noise_rng(config.seed + h * 77);
    add_noise(t.q, noise_rng, config.input_noise);
    add_noise(t.k, noise_rng, config.input_noise);
    add_noise(t.v, noise_rng, config.input_noise);

    const MatrixF q_pre = t.q.block_rows(0, config.prefill_tokens);
    const MatrixF k_pre = t.k.block_rows(0, config.prefill_tokens);
    const MatrixF v_pre = t.v.block_rows(0, config.prefill_tokens);

    auto method = factory(profile.head_dim);
    ExactAttention exact(profile.head_dim, exact_cfg);

    const MatrixF o = method->prefill(q_pre, k_pre, v_pre);
    const MatrixF o_ref = exact.prefill(q_pre, k_pre, v_pre);
    prefill_err_sum += relative_error(o, o_ref);

    for (std::size_t s = 0; s < config.decode_steps; ++s) {
      const std::size_t row = config.prefill_tokens + s;
      const auto od = method->decode(t.q.row(row), t.k.row(row), t.v.row(row));
      const auto od_ref =
          exact.decode(t.q.row(row), t.k.row(row), t.v.row(row));
      decode_err_sum += relative_error(od, od_ref);
      ++decode_count;
    }
    bytes_sum += static_cast<double>(method->kv_cache_bytes()) /
                 static_cast<double>(method->token_count());
  }

  out.prefill_rel_err = prefill_err_sum / static_cast<double>(profile.heads);
  out.decode_rel_err =
      decode_count == 0
          ? 0.0
          : decode_err_sum / static_cast<double>(decode_count);
  out.bytes_per_token = bytes_sum / static_cast<double>(profile.heads);
  return out;
}

}  // namespace turbo::model
