// Tensor-parallel extension of the inference model.
//
// Megatron-style sharding: attention heads and FFN columns split across G
// GPUs, with two all-reduces of the hidden states per layer (after the
// attention output projection and after the FFN). Weights and KV cache
// divide by G; the all-reduce traffic is new. Lets the model answer the
// deployment question the paper's single-GPU evaluation stops short of:
// does TurboAttention's advantage survive tensor parallelism, where
// per-GPU attention shrinks but the all-reduce does not?
#pragma once

#include "sim/e2e_model.h"

namespace turbo::sim {

struct TensorParallelConfig {
  std::size_t gpus = 1;
  // Per-GPU interconnect bandwidth available to collectives (NVLink3 on an
  // A100 HGX: ~300 GB/s effective per direction).
  double interconnect_bandwidth = 300e9;
  // Per-collective launch/synchronization latency.
  double collective_latency = 15e-6;
};

// Time of the per-layer collectives for processing `tokens` positions at
// the given batch (2 all-reduces of batch x tokens x d_model FP16, ring
// all-reduce moving 2 * (G-1)/G of the payload per GPU).
double allreduce_time(const DeviceSpec& dev, const ModelGeometry& geom,
                      const TensorParallelConfig& tp, double batch,
                      double tokens);

// Sharded counterparts of the e2e estimators. All return *wall-clock*
// times (the slowest shard; shards are symmetric here).
E2EBreakdown prefill_breakdown_tp(const DeviceSpec& dev,
                                  const ModelGeometry& geom,
                                  const InferenceConfig& cfg,
                                  const TensorParallelConfig& tp);

E2EBreakdown decode_step_breakdown_tp(const DeviceSpec& dev,
                                      const ModelGeometry& geom,
                                      const InferenceConfig& cfg,
                                      std::size_t context,
                                      const TensorParallelConfig& tp);

// Peak memory per GPU.
MemoryUse memory_use_tp(const DeviceSpec& dev, const ModelGeometry& geom,
                        const InferenceConfig& cfg,
                        const TensorParallelConfig& tp);

}  // namespace turbo::sim
