#include "sim/parallel.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace turbo::sim {
namespace {

InferenceConfig config(AttnMethod m, double bits, std::size_t batch,
                       std::size_t prompt, std::size_t gen) {
  InferenceConfig c;
  c.method = m;
  c.attention.kv_bits = bits;
  c.batch = batch;
  c.prompt = prompt;
  c.generate = gen;
  return c;
}

TensorParallelConfig tp(std::size_t gpus) {
  TensorParallelConfig t;
  t.gpus = gpus;
  return t;
}

TEST(ParallelTest, SingleGpuMatchesBaseModel) {
  const DeviceSpec dev = a100_sxm_80gb();
  const ModelGeometry g = llama3_8b_geometry();
  const InferenceConfig cfg = config(AttnMethod::kTurbo, 4, 4, 2048, 64);
  EXPECT_DOUBLE_EQ(prefill_breakdown_tp(dev, g, cfg, tp(1)).total(),
                   prefill_breakdown(dev, g, cfg).total());
  EXPECT_DOUBLE_EQ(
      decode_step_breakdown_tp(dev, g, cfg, 2048, tp(1)).total(),
      decode_step_breakdown(dev, g, cfg, 2048).total());
  EXPECT_DOUBLE_EQ(allreduce_time(dev, g, tp(1), 4, 2048), 0.0);
}

TEST(ParallelTest, AllreduceScalesWithPayloadAndLayers) {
  const DeviceSpec dev = a100_sxm_80gb();
  const ModelGeometry g = llama3_8b_geometry();
  const double t2 = allreduce_time(dev, g, tp(2), 4, 1024);
  const double t2_bigger = allreduce_time(dev, g, tp(2), 8, 1024);
  EXPECT_GT(t2, 0.0);
  EXPECT_GT(t2_bigger, t2);
  // Ring all-reduce payload factor grows toward 2x as G grows, but
  // per-collective latency adds linearly: 8 GPUs cost more than 2.
  EXPECT_GT(allreduce_time(dev, g, tp(8), 4, 1024), t2);
}

TEST(ParallelTest, ShardingReducesPerGpuMemory) {
  const DeviceSpec dev = a100_sxm_80gb();
  const ModelGeometry g = phi3_medium_geometry();
  const InferenceConfig cfg =
      config(AttnMethod::kFlashFp16, 16, 4, 8192, 128);
  const MemoryUse m1 = memory_use_tp(dev, g, cfg, tp(1));
  const MemoryUse m4 = memory_use_tp(dev, g, cfg, tp(4));
  EXPECT_LT(m4.weights, m1.weights);
  EXPECT_LT(m4.kv_cache, m1.kv_cache);
}

TEST(ParallelTest, PrefillSpeedsUpWithGpus) {
  // Prefill is compute-dominated: sharding 4 ways must cut latency
  // substantially even after paying the all-reduces.
  const DeviceSpec dev = a100_sxm_80gb();
  const ModelGeometry g = phi3_medium_geometry();
  const InferenceConfig cfg = config(AttnMethod::kTurbo, 4, 4, 8192, 1);
  const double t1 = prefill_breakdown_tp(dev, g, cfg, tp(1)).total();
  const double t4 = prefill_breakdown_tp(dev, g, cfg, tp(4)).total();
  EXPECT_LT(t4, t1);
  EXPECT_GT(t4, t1 / 4.0);  // collectives keep it sublinear
}

TEST(ParallelTest, TurboAdvantageSurvivesTensorParallelism) {
  const DeviceSpec dev = a100_sxm_80gb();
  const ModelGeometry g = phi3_medium_geometry();
  for (std::size_t gpus : {1u, 2u, 4u}) {
    const InferenceConfig fp16 =
        config(AttnMethod::kFlashFp16, 16, 8, 8192, 1);
    const InferenceConfig turbo = config(AttnMethod::kTurbo, 3, 8, 8192, 1);
    const double t_fp16 =
        decode_step_breakdown_tp(dev, g, fp16, 8192, tp(gpus)).total();
    const double t_turbo =
        decode_step_breakdown_tp(dev, g, turbo, 8192, tp(gpus)).total();
    EXPECT_LT(t_turbo, t_fp16) << gpus << " GPUs";
  }
}

TEST(ParallelTest, IndivisibleHeadsThrow) {
  const DeviceSpec dev = a100_sxm_80gb();
  const ModelGeometry g = phi3_medium_geometry();  // 40 heads
  const InferenceConfig cfg = config(AttnMethod::kTurbo, 4, 1, 1024, 1);
  EXPECT_THROW(prefill_breakdown_tp(dev, g, cfg, tp(3)), CheckError);
}

}  // namespace
}  // namespace turbo::sim
