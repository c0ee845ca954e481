#include "sim/parallel.h"

#include <algorithm>

#include "common/check.h"

namespace turbo::sim {

namespace {

// Per-GPU shard of the model: heads, KV heads and FFN divide by G;
// d_model (the replicated hidden dimension) does not.
ModelGeometry shard_geometry(const ModelGeometry& geom,
                             const TensorParallelConfig& tp) {
  TURBO_CHECK(tp.gpus >= 1);
  TURBO_CHECK_MSG(geom.heads % tp.gpus == 0,
                  "head count must divide across " << tp.gpus << " GPUs");
  ModelGeometry s = geom;
  s.heads = geom.heads / tp.gpus;
  s.kv_heads = std::max<std::size_t>(1, geom.kv_heads / tp.gpus);
  s.d_ffn = geom.d_ffn / tp.gpus;
  // The LM head and embeddings shard by vocab.
  s.vocab = geom.vocab / tp.gpus;
  // d_model stays replicated: projections consume the full hidden state.
  return s;
}

E2EBreakdown add_collectives(E2EBreakdown b, double collective_s) {
  // Account the all-reduce under "linear" (it serializes with the
  // projection outputs it follows).
  b.linear += collective_s;
  return b;
}

}  // namespace

double allreduce_time(const DeviceSpec& dev, const ModelGeometry& geom,
                      const TensorParallelConfig& tp, double batch,
                      double tokens) {
  if (tp.gpus <= 1) return 0.0;
  (void)dev;
  const double payload =
      batch * tokens * static_cast<double>(geom.d_model) * 2.0;  // FP16
  const double g = static_cast<double>(tp.gpus);
  // Ring all-reduce: each GPU sends/receives 2 * (G-1)/G of the payload.
  const double per_collective =
      2.0 * (g - 1.0) / g * payload / tp.interconnect_bandwidth +
      tp.collective_latency;
  // Two collectives per layer (post-attention, post-FFN).
  return 2.0 * per_collective * static_cast<double>(geom.layers);
}

E2EBreakdown prefill_breakdown_tp(const DeviceSpec& dev,
                                  const ModelGeometry& geom,
                                  const InferenceConfig& cfg,
                                  const TensorParallelConfig& tp) {
  const ModelGeometry shard = shard_geometry(geom, tp);
  const E2EBreakdown b = prefill_breakdown(dev, shard, cfg);
  return add_collectives(
      b, allreduce_time(dev, geom, tp, static_cast<double>(cfg.batch),
                        static_cast<double>(cfg.prompt)));
}

E2EBreakdown decode_step_breakdown_tp(const DeviceSpec& dev,
                                      const ModelGeometry& geom,
                                      const InferenceConfig& cfg,
                                      std::size_t context,
                                      const TensorParallelConfig& tp) {
  const ModelGeometry shard = shard_geometry(geom, tp);
  const E2EBreakdown b = decode_step_breakdown(dev, shard, cfg, context);
  return add_collectives(
      b, allreduce_time(dev, geom, tp, static_cast<double>(cfg.batch),
                        1.0));
}

MemoryUse memory_use_tp(const DeviceSpec& dev, const ModelGeometry& geom,
                        const InferenceConfig& cfg,
                        const TensorParallelConfig& tp) {
  const ModelGeometry shard = shard_geometry(geom, tp);
  return memory_use(dev, shard, cfg);
}

}  // namespace turbo::sim
