#include "attention/flash.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "attention/reference.h"
#include "common/check.h"
#include "common/fp16.h"
#include "common/stats.h"
#include "softmax/sas.h"
#include "tests/test_util.h"

namespace turbo {
namespace {

AttentionConfig config(std::size_t br, std::size_t bc, bool causal) {
  AttentionConfig cfg;
  cfg.block_rows = br;
  cfg.block_cols = bc;
  cfg.causal = causal;
  return cfg;
}

TEST(FlashAttentionTest, ExactModeMatchesReferenceTightly) {
  const MatrixF q = test::random_matrix(37, 16, 1);
  const MatrixF k = test::random_matrix(53, 16, 2);
  const MatrixF v = test::random_matrix(53, 16, 3);
  const AttentionConfig cfg = config(16, 16, false);
  FlashOptions options;
  options.emulate_fp16 = false;
  const FlashResult r = flash_attention(q, k, v, cfg, options);
  const MatrixF ref = reference_attention(q, k, v, cfg);
  EXPECT_LT(max_abs_error(r.o, ref), 1e-5);
}

TEST(FlashAttentionTest, Fp16ModeCloseToReference) {
  const MatrixF q = test::random_matrix(64, 32, 4);
  const MatrixF k = test::random_matrix(64, 32, 5);
  const MatrixF v = test::random_matrix(64, 32, 6);
  const AttentionConfig cfg = config(32, 32, false);
  const FlashResult r = flash_attention(q, k, v, cfg);
  const MatrixF ref = reference_attention(q, k, v, cfg);
  EXPECT_LT(relative_error(r.o, ref), 5e-3);
}

TEST(FlashAttentionTest, LseMatchesReference) {
  const MatrixF q = test::random_matrix(16, 8, 7);
  const MatrixF k = test::random_matrix(48, 8, 8);
  const MatrixF v = test::random_matrix(48, 8, 9);
  const AttentionConfig cfg = config(8, 16, false);
  FlashOptions options;
  options.emulate_fp16 = false;
  const FlashResult r = flash_attention(q, k, v, cfg, options);
  std::vector<float> ref_lse(16);
  reference_attention_with_lse(q, k, v, cfg, ref_lse);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(r.lse[i], ref_lse[i], 1e-4f);
  }
}

// Tiling must not change the result: sweep (Br, Bc) including ragged tiles.
class FlashTileSweep : public ::testing::TestWithParam<
                           std::tuple<std::size_t, std::size_t, bool>> {};

TEST_P(FlashTileSweep, TileSizeInvariant) {
  const auto [br, bc, causal] = GetParam();
  const MatrixF q = test::random_matrix(70, 16, 10);
  const MatrixF k = test::random_matrix(70, 16, 11);
  const MatrixF v = test::random_matrix(70, 16, 12);
  const AttentionConfig cfg = config(br, bc, causal);
  FlashOptions options;
  options.emulate_fp16 = false;
  const FlashResult r = flash_attention(q, k, v, cfg, options);
  const MatrixF ref = reference_attention(q, k, v, cfg);
  EXPECT_LT(max_abs_error(r.o, ref), 1e-4)
      << "Br=" << br << " Bc=" << bc << " causal=" << causal;
}

INSTANTIATE_TEST_SUITE_P(
    Tiles, FlashTileSweep,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{13},
                                         std::size_t{32}, std::size_t{70},
                                         std::size_t{128}),
                       ::testing::Values(std::size_t{1}, std::size_t{17},
                                         std::size_t{64}, std::size_t{128}),
                       ::testing::Bool()));

TEST(FlashAttentionTest, CausalMatchesReference) {
  const MatrixF q = test::random_matrix(33, 8, 13);
  const MatrixF k = test::random_matrix(47, 8, 14);
  const MatrixF v = test::random_matrix(47, 8, 15);
  const AttentionConfig cfg = config(16, 16, true);
  FlashOptions options;
  options.emulate_fp16 = false;
  const FlashResult r = flash_attention(q, k, v, cfg, options);
  const MatrixF ref = reference_attention(q, k, v, cfg);
  EXPECT_LT(max_abs_error(r.o, ref), 1e-4);
}

TEST(FlashAttentionTest, DecodeMatchesReferenceDecode) {
  const MatrixF k = test::random_matrix(100, 16, 16);
  const MatrixF v = test::random_matrix(100, 16, 17);
  const MatrixF q = test::random_matrix(1, 16, 18);
  AttentionConfig cfg = config(64, 64, true);
  FlashOptions options;
  options.emulate_fp16 = false;
  const auto o = flash_decode(q.row(0), k, v, cfg, options);
  const auto ref = reference_decode(q.row(0), k, v, cfg);
  for (std::size_t c = 0; c < 16; ++c) {
    EXPECT_NEAR(o[c], ref[c], 1e-5f);
  }
}

TEST(FlashAttentionTest, CustomExpFnIsUsed) {
  // With the SAS exponential plugged in, results match SAS-softmax
  // attention within its error band but differ (slightly) from exact.
  const MatrixF q = test::random_matrix(16, 16, 22);
  const MatrixF k = test::random_matrix(32, 16, 23);
  const MatrixF v = test::random_matrix(32, 16, 24);
  const AttentionConfig cfg = config(16, 16, false);
  const Sas sas;
  FlashOptions options;
  options.emulate_fp16 = false;
  options.exp_fn = [&sas](float x) { return sas.exp_neg(x); };
  const FlashResult with_sas = flash_attention(q, k, v, cfg, options);
  const MatrixF ref = reference_attention(q, k, v, cfg);
  EXPECT_LT(relative_error(with_sas.o, ref), 2e-2);
  EXPECT_GT(max_abs_error(with_sas.o, ref), 0.0);
}

TEST(FlashAttentionTest, LongContextNumericallyStable) {
  const MatrixF q = test::random_matrix(4, 32, 25);
  const MatrixF k = test::random_matrix(2048, 32, 26);
  const MatrixF v = test::random_matrix(2048, 32, 27);
  const AttentionConfig cfg = config(4, 64, false);
  const FlashResult r = flash_attention(q, k, v, cfg);
  for (float x : r.o.flat()) {
    EXPECT_FALSE(std::isnan(x));
    EXPECT_FALSE(std::isinf(x));
  }
  const MatrixF ref = reference_attention(q, k, v, cfg);
  EXPECT_LT(relative_error(r.o, ref), 1e-2);
}

// --- Fp16KvRows: the FP16 K/V store ----------------------------------------

MatrixF rounded(MatrixF m) {
  round_span_to_fp16(m.flat());
  return m;
}

bool all_binary16(const MatrixF& m) {
  for (const float x : m.flat()) {
    if (std::bit_cast<std::uint32_t>(round_to_fp16(x)) !=
        std::bit_cast<std::uint32_t>(x)) {
      return false;
    }
  }
  return true;
}

TEST(Fp16KvRowsTest, StoredRowsAreBinary16) {
  const std::size_t d = 16;
  const MatrixF k = test::random_matrix(40, d, 30, 3.0);
  const MatrixF v = test::random_matrix(40, d, 31, 3.0);
  Fp16KvRows kv(d);
  kv.prefill(test::random_matrix(40, d, 32), k, v, config(16, 16, true));
  ASSERT_FALSE(all_binary16(k));
  EXPECT_EQ(kv.k(), rounded(k));
  EXPECT_EQ(kv.v(), rounded(v));

  const MatrixF kt = test::random_matrix(1, d, 33, 3.0);
  const MatrixF vt = test::random_matrix(1, d, 34, 3.0);
  kv.append(kt.row(0), vt.row(0));
  ASSERT_EQ(kv.rows(), 41u);
  EXPECT_EQ(kv.k().block_rows(40, 1), rounded(kt));
  EXPECT_EQ(kv.v().block_rows(40, 1), rounded(vt));

  const MatrixF kr = test::random_matrix(8, d, 35, 3.0);
  const MatrixF vr = test::random_matrix(8, d, 36, 3.0);
  kv.replace(16, kr, vr);
  EXPECT_EQ(kv.k().block_rows(16, 8), rounded(kr));
  EXPECT_EQ(kv.v().block_rows(16, 8), rounded(vr));
  EXPECT_EQ(kv.k().block_rows(0, 16), rounded(k).block_rows(0, 16));
  EXPECT_EQ(kv.k().block_rows(24, 16), rounded(k).block_rows(24, 16));
  EXPECT_TRUE(all_binary16(kv.k()));
  EXPECT_TRUE(all_binary16(kv.v()));
  EXPECT_THROW(kv.replace(34, kr, vr), CheckError);
}

TEST(Fp16KvRowsTest, PrefillAndAttendMatchTheKernelsOverRoundedRows) {
  const std::size_t d = 16;
  const MatrixF q = test::random_matrix(48, d, 40);
  const MatrixF k = test::random_matrix(48, d, 41);
  const MatrixF v = test::random_matrix(48, d, 42);
  AttentionConfig cfg = config(16, 16, true);
  cfg.window = 20;
  const Sas sas;
  FlashOptions options;
  options.exp_fn = [&sas](float x) { return sas.exp_neg(x); };
  for (const FlashOptions& opt : {FlashOptions{}, options}) {
    Fp16KvRows kv(d);
    MatrixF k16 = rounded(k);
    MatrixF v16 = rounded(v);
    EXPECT_EQ(kv.prefill(q, k, v, cfg, opt),
              flash_attention(q, k16, v16, cfg, opt).o);
    EXPECT_THROW(kv.prefill(q, k, v, cfg, opt), CheckError);

    const MatrixF kt = test::random_matrix(1, d, 43);
    const MatrixF vt = test::random_matrix(1, d, 44);
    kv.append(kt.row(0), vt.row(0));
    k16.append_rows(rounded(kt));
    v16.append_rows(rounded(vt));
    const MatrixF qt = test::random_matrix(1, d, 45);
    EXPECT_EQ(kv.attend(qt.row(0), cfg, opt),
              flash_decode(qt.row(0), k16, v16, cfg, opt));
  }
}

TEST(Fp16KvRowsTest, BytesCountFromAnyRow) {
  const std::size_t d = 24;
  Fp16KvRows kv(d);
  EXPECT_EQ(kv.fp16_bytes(0), 0u);
  const MatrixF m = test::random_matrix(10, d, 50);
  kv.prefill(m, m, m, config(4, 4, true));
  for (std::size_t from = 0; from <= 10; ++from) {
    EXPECT_EQ(kv.fp16_bytes(from), (10 - from) * d * 2 * 2) << from;
  }
  EXPECT_THROW(kv.fp16_bytes(11), CheckError);
}

}  // namespace
}  // namespace turbo
