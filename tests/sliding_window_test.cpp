// Sliding-window attention across every kernel.
#include <gtest/gtest.h>

#include "attention/flash.h"
#include "attention/reference.h"
#include "attention/turbo.h"
#include "common/stats.h"
#include "kernels/fused_decode.h"
#include "tests/test_util.h"

namespace turbo {
namespace {

AttentionConfig windowed(std::size_t window, bool causal = true) {
  AttentionConfig cfg;
  cfg.window = window;
  cfg.causal = causal;
  cfg.block_rows = 16;
  cfg.block_cols = 16;
  return cfg;
}

TEST(SlidingWindowTest, HugeWindowEqualsUnlimited) {
  const MatrixF q = test::random_matrix(40, 8, 1);
  const MatrixF k = test::random_matrix(40, 8, 2);
  const MatrixF v = test::random_matrix(40, 8, 3);
  const MatrixF a = reference_attention(q, k, v, windowed(0));
  const MatrixF b = reference_attention(q, k, v, windowed(1000));
  EXPECT_EQ(a, b);
}

TEST(SlidingWindowTest, ReferenceMasksOldKeys) {
  // With window 1, each query sees only its own key: output = own value.
  const std::size_t n = 6;
  MatrixF q(n, 4, 1.0f);
  MatrixF k(n, 4, 1.0f);
  MatrixF v(n, 4);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      v(r, c) = static_cast<float>(r);
    }
  }
  const MatrixF o = reference_attention(q, k, v, windowed(1));
  for (std::size_t r = 0; r < n; ++r) {
    EXPECT_FLOAT_EQ(o(r, 0), static_cast<float>(r));
  }
}

TEST(SlidingWindowTest, FlashMatchesReference) {
  const MatrixF q = test::random_matrix(50, 16, 4);
  const MatrixF k = test::random_matrix(50, 16, 5);
  const MatrixF v = test::random_matrix(50, 16, 6);
  for (std::size_t window : {1u, 7u, 16u, 33u}) {
    AttentionConfig cfg = windowed(window);
    FlashOptions options;
    options.emulate_fp16 = false;
    const FlashResult r = flash_attention(q, k, v, cfg, options);
    const MatrixF ref = reference_attention(q, k, v, cfg);
    EXPECT_LT(max_abs_error(r.o, ref), 1e-4) << "window " << window;
  }
}

TEST(SlidingWindowTest, TurboPrefillMatchesReference) {
  const MatrixF q = test::random_matrix(64, 16, 7);
  const MatrixF k = test::random_matrix(64, 16, 8);
  const MatrixF v = test::random_matrix(64, 16, 9);
  const Sas sas;
  for (std::size_t window : {8u, 24u}) {
    const AttentionConfig cfg = windowed(window);
    const TurboPrefillResult r =
        turbo_attention_prefill(q, k, v, cfg, sas, nullptr);
    const MatrixF ref = reference_attention(q, k, v, cfg);
    EXPECT_LT(relative_error(r.o, ref), 0.05) << "window " << window;
  }
}

TEST(SlidingWindowTest, TurboDecodeWindowed) {
  const std::size_t d = 16;
  const AttentionConfig cfg = windowed(20);
  const Sas sas;
  QuantizedKvCache cache(d, BitWidth::kInt4, 16, 16);
  MatrixF k_all(0, d);
  MatrixF v_all(0, d);
  Rng rng(10);
  for (int t = 0; t < 57; ++t) {
    std::vector<float> kt(d);
    std::vector<float> vt(d);
    rng.fill_normal(kt, 0.0, 1.0);
    rng.fill_normal(vt, 0.0, 1.0);
    cache.append_token(kt, vt);
    k_all.append_row(std::span<const float>(kt));
    v_all.append_row(std::span<const float>(vt));
  }
  std::vector<float> q(d);
  rng.fill_normal(q, 0.0, 1.0);
  const auto o = turbo_attention_decode(q, cache, cfg, sas);
  // Reference: only the last 20 tokens.
  const MatrixF k_win = k_all.block_rows(37, 20);
  const MatrixF v_win = v_all.block_rows(37, 20);
  const auto ref = reference_decode(q, k_win, v_win, cfg);
  EXPECT_LT(relative_error(o, ref), 0.1);
  // And the fused kernel agrees bit-exactly with the reference kernel.
  EXPECT_EQ(o, fused_turbo_decode(q, cache, cfg, sas));
}

TEST(SlidingWindowTest, NonCausalWindow) {
  // Non-causal with window: every query sees the last `window` keys.
  const MatrixF q = test::random_matrix(4, 8, 13);
  const MatrixF k = test::random_matrix(30, 8, 14);
  const MatrixF v = test::random_matrix(30, 8, 15);
  AttentionConfig cfg = windowed(5, /*causal=*/false);
  const MatrixF o = reference_attention(q, k, v, cfg);
  AttentionConfig plain = windowed(0, false);
  const MatrixF o_tail = reference_attention(q, k.block_rows(25, 5),
                                             v.block_rows(25, 5), plain);
  EXPECT_LT(max_abs_error(o, o_tail), 1e-5);
}

}  // namespace
}  // namespace turbo
