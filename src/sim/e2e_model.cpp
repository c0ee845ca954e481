#include "sim/e2e_model.h"

#include <algorithm>

#include "common/check.h"
#include "sim/kernel_model.h"

namespace turbo::sim {

namespace {

constexpr double kFp16Bytes = 2.0;

// Linear-stack latency for processing `tokens` positions in one pass:
// roofline of (weight traffic, activation traffic) vs tensor-core FLOPs.
double linear_time(const DeviceSpec& dev, const ModelGeometry& g,
                   double batch, double tokens) {
  const double kv_dim =
      static_cast<double>(g.kv_heads) * static_cast<double>(g.head_dim);
  const double dm = static_cast<double>(g.d_model);
  const double per_layer_params =
      2.0 * dm * dm            // Q and O projections
      + 2.0 * dm * kv_dim      // K and V projections
      + 3.0 * dm * static_cast<double>(g.d_ffn);  // gated FFN
  const double layer_flops = 2.0 * batch * tokens * per_layer_params;
  const double lm_head_flops =
      2.0 * batch * dm * static_cast<double>(g.vocab);  // last token only

  const double flops =
      layer_flops * static_cast<double>(g.layers) + lm_head_flops;
  const double weight_bytes = g.weight_bytes_fp16();
  const double act_bytes = batch * tokens * dm * kFp16Bytes *
                           static_cast<double>(g.layers) * 4.0;
  const double compute = flops / dev.eff_fp16_tensor();
  const double memory = memory_time(dev, weight_bytes + act_bytes);
  const double launches = static_cast<double>(g.layers) * 7.0 *
                          dev.kernel_launch_overhead;
  return std::max(compute, memory) + launches;
}

E2EBreakdown combine(const DeviceSpec& dev, const ModelGeometry& g,
                     double linear, const PhaseBreakdown& attn) {
  E2EBreakdown b;
  const double layers = static_cast<double>(g.layers);
  b.linear = linear;
  b.attn_matmul = (attn.qk_matmul + attn.pv_matmul) * layers;
  b.attn_softmax = attn.softmax * layers;
  b.attn_dequant = (attn.dequant + attn.serialized) * layers;
  b.attn_kv_io = attn.kv_io * layers;
  b.attn_other = (attn.quantize + attn.launch) * layers;
  (void)dev;
  return b;
}

AttnShape shape_for(const ModelGeometry& g, const InferenceConfig& cfg,
                    std::size_t q_len, std::size_t kv_len) {
  AttnShape s;
  s.batch = cfg.batch;
  s.heads = g.heads;
  s.kv_heads = g.kv_heads;
  s.q_len = q_len;
  s.kv_len = kv_len;
  s.head_dim = g.head_dim;
  return s;
}

}  // namespace

double ModelGeometry::params() const {
  const double dm = static_cast<double>(d_model);
  const double kv_dim =
      static_cast<double>(kv_heads) * static_cast<double>(head_dim);
  const double per_layer = 2.0 * dm * dm + 2.0 * dm * kv_dim +
                           3.0 * dm * static_cast<double>(d_ffn);
  return per_layer * static_cast<double>(layers) +
         2.0 * dm * static_cast<double>(vocab);  // embed + head
}

ModelGeometry phi3_mini_geometry() {
  ModelGeometry g;
  g.name = "Phi3-mini-3.8B";
  g.layers = 32;
  g.heads = 32;
  g.kv_heads = 32;
  g.head_dim = 96;
  g.d_model = 3072;
  g.d_ffn = 8192;
  g.vocab = 32064;
  return g;
}

ModelGeometry phi3_medium_geometry() {
  ModelGeometry g;
  g.name = "Phi3-medium-14B";
  g.layers = 40;
  g.heads = 40;
  // The checkpoint uses 10-way GQA, but the paper's Figure 6/7a OOM points
  // (FP16 out of memory at 32k x batch-4 and before batch 64 at 1k) are
  // only consistent with a full MHA-width KV cache — the HuggingFace-based
  // harness they benchmark stores all 40 heads. We model what they
  // measured.
  g.kv_heads = 40;
  g.head_dim = 128;
  g.d_model = 5120;
  g.d_ffn = 17920;
  g.vocab = 32064;
  return g;
}

ModelGeometry llama3_8b_geometry() {
  ModelGeometry g;
  g.name = "LLaMA3-8B";
  g.layers = 32;
  g.heads = 32;
  g.kv_heads = 8;
  g.head_dim = 128;
  g.d_model = 4096;
  g.d_ffn = 14336;
  g.vocab = 128256;
  return g;
}

ModelGeometry qwen2_7b_geometry() {
  ModelGeometry g;
  g.name = "Qwen2-7B";
  g.layers = 28;
  g.heads = 28;
  g.kv_heads = 4;
  g.head_dim = 128;
  g.d_model = 3584;
  g.d_ffn = 18944;
  g.vocab = 152064;
  return g;
}

E2EBreakdown prefill_breakdown(const DeviceSpec& dev,
                               const ModelGeometry& geom,
                               const InferenceConfig& cfg) {
  const double linear =
      linear_time(dev, geom, static_cast<double>(cfg.batch),
                  static_cast<double>(cfg.prompt));
  const PhaseBreakdown attn = attention_prefill_cost(
      dev, cfg.method, shape_for(geom, cfg, cfg.prompt, cfg.prompt),
      cfg.attention);
  return combine(dev, geom, linear, attn);
}

E2EBreakdown chunk_prefill_breakdown(const DeviceSpec& dev,
                                     const ModelGeometry& geom,
                                     const InferenceConfig& cfg,
                                     std::size_t cached) {
  const double linear =
      linear_time(dev, geom, static_cast<double>(cfg.batch),
                  static_cast<double>(cfg.prompt));
  const PhaseBreakdown attn = attention_chunk_prefill_cost(
      dev, cfg.method,
      shape_for(geom, cfg, cfg.prompt, cached + cfg.prompt), cfg.attention);
  return combine(dev, geom, linear, attn);
}

E2EBreakdown decode_step_breakdown(const DeviceSpec& dev,
                                   const ModelGeometry& geom,
                                   const InferenceConfig& cfg,
                                   std::size_t context) {
  const double linear =
      linear_time(dev, geom, static_cast<double>(cfg.batch), 1.0);
  const PhaseBreakdown attn = attention_decode_cost(
      dev, cfg.method, shape_for(geom, cfg, 1, context), cfg.attention);
  return combine(dev, geom, linear, attn);
}

double generation_latency(const DeviceSpec& dev, const ModelGeometry& geom,
                          const InferenceConfig& cfg) {
  double t = prefill_breakdown(dev, geom, cfg).total();
  // Sample the decode sweep at a handful of context lengths (latency is
  // affine in context, so trapezoidal sampling is exact enough and keeps
  // 10k-step generations cheap to evaluate).
  const std::size_t steps = cfg.generate;
  if (steps == 0) return t;
  const std::size_t samples = std::min<std::size_t>(steps, 8);
  double decode_sum = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const std::size_t step = steps < 2 ? 0 : i * (steps - 1) / (samples - 1);
    decode_sum +=
        decode_step_breakdown(dev, geom, cfg, cfg.prompt + step + 1).total();
  }
  t += decode_sum / static_cast<double>(samples) *
       static_cast<double>(steps);
  return t;
}

MemoryUse memory_use(const DeviceSpec& dev, const ModelGeometry& geom,
                     const InferenceConfig& cfg) {
  MemoryUse m;
  m.weights = geom.weight_bytes_fp16();
  const double tokens =
      static_cast<double>(cfg.prompt + cfg.generate) *
      static_cast<double>(cfg.batch);
  m.kv_cache = tokens *
               kv_cache_bytes_per_token(cfg.method, cfg.attention,
                                        geom.kv_heads, geom.head_dim) *
               static_cast<double>(geom.layers);
  // Activation working set: a few token-level buffers per layer pipeline
  // stage plus the prompt-length logits/hidden states during prefill.
  m.activations = static_cast<double>(cfg.batch) *
                  static_cast<double>(cfg.prompt + cfg.generate) *
                  static_cast<double>(geom.d_model) * kFp16Bytes * 6.0;
  m.fits = m.total() <= dev.hbm_capacity;
  return m;
}

std::size_t max_batch(const DeviceSpec& dev, const ModelGeometry& geom,
                      InferenceConfig cfg) {
  std::size_t lo = 0;
  std::size_t hi = 1;
  // Exponential probe then binary search on the memory fit.
  auto fits = [&](std::size_t b) {
    if (b == 0) return true;
    cfg.batch = b;
    return memory_use(dev, geom, cfg).fits;
  };
  if (!fits(1)) return 0;
  while (fits(hi)) {
    lo = hi;
    hi *= 2;
    if (hi > (1u << 20)) break;
  }
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (fits(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double throughput_tokens_per_second(const DeviceSpec& dev,
                                    const ModelGeometry& geom,
                                    const InferenceConfig& cfg) {
  if (!memory_use(dev, geom, cfg).fits) return 0.0;
  const double prefill = prefill_breakdown(dev, geom, cfg).total();
  const double decode = generation_latency(dev, geom, cfg) - prefill;
  if (decode <= 0.0) return 0.0;
  return static_cast<double>(cfg.batch) *
         static_cast<double>(cfg.generate) / decode;
}

}  // namespace turbo::sim
