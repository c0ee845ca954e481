#include "kvcache/quantized_kv_cache.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/stats.h"
#include "tests/test_util.h"

namespace turbo {
namespace {

Int8Tile make_tile(const MatrixF& m) { return quantize_tile_int8(m); }

TEST(KvCacheTest, PrefillBlocksStored) {
  QuantizedKvCache cache(16, BitWidth::kInt4, 64, 64);
  const MatrixF k = test::random_matrix(64, 16, 1);
  const MatrixF v = test::random_matrix(64, 16, 2);
  cache.append_prefill_block(make_tile(k), make_tile(v));
  EXPECT_EQ(cache.token_count(), 64u);
  EXPECT_EQ(cache.block_count(), 1u);
  EXPECT_EQ(cache.block(0).tokens(), 64u);
}

TEST(KvCacheTest, PrefillSeedsBufferScales) {
  QuantizedKvCache cache(8, BitWidth::kInt4, 32, 16);
  MatrixF k(32, 8, 0.0f);
  k(0, 0) = 11.9f;  // max-abs 11.9 -> tile scale 0.1
  MatrixF v(32, 8, 0.0f);
  v(0, 0) = 23.8f;
  cache.append_prefill_block(make_tile(k), make_tile(v));
  EXPECT_NEAR(cache.key_buffer().scale(), 0.1f, 1e-6f);
  EXPECT_NEAR(cache.value_buffer().scale(), 0.2f, 1e-6f);
}

TEST(KvCacheTest, DecodeTokensBufferThenFlush) {
  QuantizedKvCache cache(8, BitWidth::kInt4, 64, 4);
  Rng rng(3);
  std::vector<float> k(8);
  std::vector<float> v(8);
  for (int t = 0; t < 3; ++t) {
    rng.fill_normal(k, 0.0, 1.0);
    rng.fill_normal(v, 0.0, 1.0);
    cache.append_token(k, v);
  }
  EXPECT_EQ(cache.block_count(), 0u);
  EXPECT_EQ(cache.token_count(), 3u);
  rng.fill_normal(k, 0.0, 1.0);
  rng.fill_normal(v, 0.0, 1.0);
  cache.append_token(k, v);  // 4th token fills the buffer
  EXPECT_EQ(cache.block_count(), 1u);
  EXPECT_EQ(cache.key_buffer().size(), 0u);
  EXPECT_EQ(cache.token_count(), 4u);
}

TEST(KvCacheTest, ReconstructionAccuracy) {
  QuantizedKvCache cache(16, BitWidth::kInt4, 64, 8);
  const MatrixF k = test::random_matrix(64, 16, 5);
  const MatrixF v = test::random_matrix(64, 16, 6);
  cache.append_prefill_block(make_tile(k), make_tile(v));

  MatrixF k_all = k;
  MatrixF v_all = v;
  Rng rng(7);
  for (int t = 0; t < 5; ++t) {
    std::vector<float> kt(16);
    std::vector<float> vt(16);
    rng.fill_normal(kt, 0.0, 1.0);
    rng.fill_normal(vt, 0.0, 1.0);
    cache.append_token(kt, vt);
    k_all.append_row(std::span<const float>(kt));
    v_all.append_row(std::span<const float>(vt));
  }
  EXPECT_EQ(cache.token_count(), 69u);
  EXPECT_LT(relative_error(cache.reconstruct_keys(), k_all), 0.13);
  EXPECT_LT(relative_error(cache.reconstruct_values(), v_all), 0.13);
}

TEST(KvCacheTest, MemoryFootprintBeatsFp16By4x) {
  // The paper's headline: >4.4x KV-cache reduction at 4-bit.
  QuantizedKvCache cache(128, BitWidth::kInt4, 64, 64);
  const MatrixF k = test::random_matrix(64, 128, 8);
  const MatrixF v = test::random_matrix(64, 128, 9);
  for (int b = 0; b < 16; ++b) {
    cache.append_prefill_block(make_tile(k), make_tile(v));
  }
  const std::size_t fp16_bytes = 16 * 2 * 64 * 128 * 2;
  EXPECT_LT(cache.memory_bytes(),
            static_cast<std::size_t>(fp16_bytes / 3.5));
}

TEST(KvCacheTest, Int2HalvesInt4Footprint) {
  const MatrixF k = test::random_matrix(64, 64, 10);
  QuantizedKvCache c4(64, BitWidth::kInt4, 64, 64);
  QuantizedKvCache c2(64, BitWidth::kInt2, 64, 64);
  c4.append_prefill_block(make_tile(k), make_tile(k));
  c2.append_prefill_block(make_tile(k), make_tile(k));
  EXPECT_LT(c2.memory_bytes(), c4.memory_bytes() * 0.65);
}

TEST(KvCacheTest, PrefillAfterDecodeThrows) {
  QuantizedKvCache cache(4, BitWidth::kInt4, 8, 8);
  std::vector<float> t{1.0f, 2.0f, 3.0f, 4.0f};
  cache.append_token(t, t);
  const MatrixF k = test::random_matrix(8, 4, 11);
  EXPECT_THROW(cache.append_prefill_block(make_tile(k), make_tile(k)),
               CheckError);
}

TEST(KvCacheTest, BlockIndexOutOfRangeThrows) {
  QuantizedKvCache cache(4, BitWidth::kInt4, 8, 8);
  EXPECT_THROW(cache.block(0), CheckError);
}

TEST(KvCacheTest, UniversalScaleSurvivesFlushes) {
  QuantizedKvCache cache(4, BitWidth::kInt4, 64, 2);
  std::vector<float> t{1.0f, -1.0f, 0.5f, -0.5f};
  cache.append_token(t, t);
  const float scale = cache.key_buffer().scale();
  cache.append_token(t, t);  // triggers flush
  EXPECT_EQ(cache.key_buffer().size(), 0u);
  EXPECT_FLOAT_EQ(cache.key_buffer().scale(), scale);
  cache.append_token(t, t);
  EXPECT_FLOAT_EQ(cache.key_buffer().scale(), scale);
}

}  // namespace
}  // namespace turbo
