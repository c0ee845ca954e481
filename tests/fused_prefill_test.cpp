#include "kernels/fused_prefill.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "attention/turbo.h"
#include "attention/turbo_method.h"
#include "common/check.h"
#include "common/cpu.h"
#include "common/numeric.h"
#include "kernels/dispatch.h"
#include "quant/symmetric.h"
#include "softmax/sas.h"
#include "tests/test_util.h"

namespace turbo {
namespace {

// fused_turbo_prefill runs one entry (the widest this CPU supports); the
// detail seam reaches every entry, so an AVX2 host checks the baseline
// build too. Each entry must return the oracle's o, lse and cache bit for
// bit.

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_block(const ProgressiveBlock& a, const ProgressiveBlock& b,
                       const std::string& what) {
  EXPECT_EQ(a.rows, b.rows) << what;
  EXPECT_EQ(a.cols, b.cols) << what;
  EXPECT_EQ(a.bits, b.bits) << what;
  EXPECT_EQ(a.packed, b.packed) << what;
  ASSERT_EQ(a.channels.size(), b.channels.size()) << what;
  for (std::size_t c = 0; c < a.channels.size(); ++c) {
    EXPECT_EQ(a.channels[c].s_int, b.channels[c].s_int) << what << " c=" << c;
    EXPECT_EQ(a.channels[c].z_int, b.channels[c].z_int) << what << " c=" << c;
  }
  EXPECT_TRUE(same_bits(a.fp_scale, b.fp_scale)) << what;
}

void expect_same_cache(const QuantizedKvCache& a, const QuantizedKvCache& b,
                       const std::string& what) {
  ASSERT_EQ(a.block_count(), b.block_count()) << what;
  for (std::size_t j = 0; j < a.block_count(); ++j) {
    const std::string block = what + " block " + std::to_string(j);
    expect_same_block(a.block(j).k, b.block(j).k, block + " k");
    expect_same_block(a.block(j).v, b.block(j).v, block + " v");
  }
  EXPECT_TRUE(same_bits(a.key_buffer().scale(), b.key_buffer().scale()))
      << what;
  EXPECT_TRUE(same_bits(a.value_buffer().scale(), b.value_buffer().scale()))
      << what;
}

void expect_same_result(const TurboPrefillResult& ref,
                        const TurboPrefillResult& got,
                        const std::string& what) {
  EXPECT_TRUE(same_bits(ref.o.flat(), got.o.flat())) << what << " o";
  EXPECT_TRUE(same_bits(ref.lse, got.lse)) << what << " lse";
}

// Every compiled entry, and the dispatched kernel, against the oracle.
void expect_entries_match(const MatrixF& q, const MatrixF& k,
                          const MatrixF& v, const AttentionConfig& cfg,
                          const SasConfig& sas_config,
                          const std::string& what) {
  const Sas sas(sas_config);
  const std::size_t d = q.cols();
  QuantizedKvCache ref_cache(d, BitWidth::kInt4, cfg.block_cols, 64);
  const TurboPrefillResult ref =
      turbo_attention_prefill(q, k, v, cfg, sas, &ref_cache);
  for (const detail::FusedEntry& e : detail::fused_entries()) {
    if (!e.supported) continue;
    QuantizedKvCache cache(d, BitWidth::kInt4, cfg.block_cols, 64);
    const std::string entry = what + " entry=" + e.name;
    expect_same_result(ref, e.prefill(q, k, v, cfg, sas, &cache), entry);
    expect_same_cache(ref_cache, cache, entry);
    // No cache: the same o and lse.
    expect_same_result(ref, e.prefill(q, k, v, cfg, sas, nullptr),
                       entry + " no cache");
  }
  QuantizedKvCache cache(d, BitWidth::kInt4, cfg.block_cols, 64);
  expect_same_result(ref, fused_turbo_prefill(q, k, v, cfg, sas, &cache),
                     what + " dispatched");
  expect_same_cache(ref_cache, cache, what + " dispatched");
}

struct Inputs {
  MatrixF q;
  MatrixF k;
  MatrixF v;
};

// Outlier channels in Q and K, as in the model profiles.
Inputs make_inputs(std::size_t n_q, std::size_t n_k, std::size_t d,
                   std::uint64_t seed) {
  return {test::random_outlier_matrix(n_q, d, seed, 6.0),
          test::random_outlier_matrix(n_k, d, seed + 1, 6.0),
          test::random_matrix(n_k, d, seed + 2)};
}

AttentionConfig tiles(std::size_t br, std::size_t bc, bool causal = true,
                      std::size_t window = 0) {
  AttentionConfig cfg;
  cfg.block_rows = br;
  cfg.block_cols = bc;
  cfg.causal = causal;
  cfg.window = window;
  return cfg;
}

TEST(FusedPrefillEntries, PicksAmxWhenTheCpuHasIt) {
  if (cpu_has_amx_int8()) {
    EXPECT_STREQ(detail::fused_entry().name, "amx");
  } else if (cpu_has_avx512vnni()) {
    EXPECT_STREQ(detail::fused_entry().name, "avx512vnni");
  } else if (cpu_has_avx2_f16c()) {
    EXPECT_STREQ(detail::fused_entry().name, "avx2");
  }
  test::record_fused_entries();
}

// head_dim 128 (the benchmark's); 44, which is not a multiple of 8 or 32
// and so leaves every SIMD loop a scalar tail; and 96 and 64, one
// 64-column VNNI step with and without a 32-column tail. Each test records
// the entries it runs.
class FusedPrefillParity : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { test::record_fused_entries(); }
};

TEST_P(FusedPrefillParity, PromptLengths) {
  const std::size_t d = GetParam();
  // 1, 33 and 63 keys leave one ragged KV tile; 1,001 leaves a 41-key one
  // after 15 full tiles. 15 and 17 rows leave a Q tile under 16 rows and
  // one 16-row block plus a 1-row one in the AMX products.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{15}, std::size_t{17}, std::size_t{33},
        std::size_t{37}, std::size_t{63}, std::size_t{1000},
        std::size_t{1001}}) {
    const Inputs in = make_inputs(n, n, d, 100 + n);
    expect_entries_match(in.q, in.k, in.v, tiles(64, 64), SasConfig{},
                         "causal n=" + std::to_string(n));
  }
  const Inputs in = make_inputs(37, 37, d, 7);
  expect_entries_match(in.q, in.k, in.v, tiles(64, 64, false), SasConfig{},
                       "non-causal n=37");
}

TEST_P(FusedPrefillParity, FewerQueriesThanKeys) {
  const std::size_t d = GetParam();
  const Inputs in = make_inputs(50, 170, d, 11);
  expect_entries_match(in.q, in.k, in.v, tiles(64, 64), SasConfig{},
                       "causal 50x170");
  expect_entries_match(in.q, in.k, in.v, tiles(32, 64, false), SasConfig{},
                       "non-causal 50x170");
}

TEST_P(FusedPrefillParity, TileSizes) {
  const std::size_t d = GetParam();
  const Inputs in = make_inputs(200, 200, d, 13);
  // 16 and 48 rows or keys: one AMX tile block, and an odd number of them.
  // 80 rows: five 16-row lane groups in the AMX entry's key-major step, an
  // odd count past one 2 x 2 block of its products.
  for (const auto& [br, bc] :
       {std::pair<std::size_t, std::size_t>{32, 32}, {64, 64}, {128, 128},
        {32, 128}, {128, 32}, {64, 32}, {16, 16}, {48, 48}, {16, 48},
        {48, 16}, {80, 80}, {80, 16}}) {
    const std::string what =
        "Br=" + std::to_string(br) + " Bc=" + std::to_string(bc);
    expect_entries_match(in.q, in.k, in.v, tiles(br, bc), SasConfig{},
                         what + " causal");
    expect_entries_match(in.q, in.k, in.v, tiles(br, bc, false), SasConfig{},
                         what + " non-causal");
  }
}

TEST(FusedPrefillParity, RowWithNoCodeWhileOtherRowsAreLive) {
  // A row whose P~ codes of a KV tile are all 0, while the tile's other
  // rows have codes, keeps its O as it is, -0 included: the AMX entry's
  // key-major step masks its O update in that lane. Row 5's query is
  // 3 k_70, so its running max jumps far past -n_r in KV tile 1: alpha = 0
  // turns its negative O values into -0. V's tile 1 is so small that
  // o_scale underflows to 0, so P~V adds a zero of each sum's sign there,
  // and some -0s stay. Every score of row 5 in tile 2 is then sparsified
  // to 0: the row is live (its block max is finite) but has no code.
  test::record_fused_entries();
  for (const std::size_t d : {std::size_t{128}, std::size_t{44}}) {
    MatrixF q = test::random_matrix(64, d, 41, 0.5);
    const MatrixF k = test::random_matrix(192, d, 42);
    MatrixF v = test::random_matrix(192, d, 43);
    for (std::size_t c = 0; c < d; ++c) q(5, c) = 3.0f * k(70, c);
    for (std::size_t r = 64; r < 128; ++r) {
      for (float& x : v.row(r)) x *= 1e-42f;
    }
    for (const bool causal : {false, true}) {
      const AttentionConfig cfg = tiles(64, 64, causal);
      const std::string what = "d=" + std::to_string(d) +
                               (causal ? " causal" : " non-causal");
      // The case is there: the oracle's row 5 holds -0s.
      const TurboPrefillResult ref =
          turbo_attention_prefill(q, k, v, cfg, Sas{}, nullptr);
      std::size_t negative_zeros = 0;
      for (const float x : ref.o.row(5)) {
        if (x == 0.0f && std::signbit(x)) ++negative_zeros;
      }
      ASSERT_GT(negative_zeros, 0u) << what;
      expect_entries_match(q, k, v, cfg, SasConfig{}, what);
    }
  }
}

TEST_P(FusedPrefillParity, SlidingWindowStartingInsideATile) {
  const std::size_t d = GetParam();
  const Inputs in = make_inputs(300, 300, d, 17);
  // Windows of 70 and 5 keys start inside a 64-key tile, and leave whole
  // KV tiles that no row of a Q tile sees.
  expect_entries_match(in.q, in.k, in.v, tiles(64, 64, true, 70),
                       SasConfig{}, "window 70");
  expect_entries_match(in.q, in.k, in.v, tiles(32, 64, true, 5), SasConfig{},
                       "window 5");
  expect_entries_match(in.q, in.k, in.v, tiles(64, 64, false, 100),
                       SasConfig{}, "non-causal window 100");
}

TEST_P(FusedPrefillParity, SasConfigurationsOnTheScalarFallback) {
  const std::size_t d = GetParam();
  const Inputs in = make_inputs(150, 150, d, 19);
  SasConfig exact;
  exact.exact_exp = true;
  SasConfig deep;
  deep.threshold = -9;
  SasConfig fp32;
  fp32.fp16_arithmetic = false;
  expect_entries_match(in.q, in.k, in.v, tiles(64, 64), exact, "exact exp");
  expect_entries_match(in.q, in.k, in.v, tiles(64, 64), deep,
                       "threshold -9");
  expect_entries_match(in.q, in.k, in.v, tiles(64, 64), fp32,
                       "fp32 arithmetic");
}

TEST_P(FusedPrefillParity, NanInEachInput) {
  // Stage 1 leaves NaN out of the tile max and quantizes it to 0.
  const std::size_t d = GetParam();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Inputs in = make_inputs(150, 150, d, 23);
  in.q(40, 3) = nan;
  in.k(70, d - 1) = nan;
  in.v(100, d / 2) = nan;
  expect_entries_match(in.q, in.k, in.v, tiles(64, 64), SasConfig{},
                       "one NaN in each of Q, K and V");
}

TEST_P(FusedPrefillParity, AllZeroKeyTile) {
  // The zero tile's scale is 1 and every score in it is 0.
  const std::size_t d = GetParam();
  Inputs in = make_inputs(200, 200, d, 29);
  for (std::size_t r = 64; r < 128; ++r) {
    for (float& x : in.k.row(r)) x = 0.0f;
  }
  expect_entries_match(in.q, in.k, in.v, tiles(64, 64), SasConfig{},
                       "zero K tile");
  expect_entries_match(in.q, in.k, in.v, tiles(64, 64, false), SasConfig{},
                       "zero K tile non-causal");
}

TEST_P(FusedPrefillParity, InfiniteInputThrowsLikeTheOracle) {
  const std::size_t d = GetParam();
  Inputs in = make_inputs(40, 40, d, 31);
  in.k(5, 1) = std::numeric_limits<float>::infinity();
  const Sas sas;
  EXPECT_THROW(
      turbo_attention_prefill(in.q, in.k, in.v, AttentionConfig{}, sas,
                              nullptr),
      CheckError);
  for (const detail::FusedEntry& e : detail::fused_entries()) {
    if (!e.supported) continue;
    EXPECT_THROW(e.prefill(in.q, in.k, in.v, AttentionConfig{}, sas, nullptr),
                 CheckError)
        << e.name;
  }
}

INSTANTIATE_TEST_SUITE_P(HeadDims, FusedPrefillParity,
                         ::testing::Values(std::size_t{128}, std::size_t{44},
                                           std::size_t{96}, std::size_t{64}));

TEST(FusedPrefillParity, TurboKvAttentionPrefillMatchesOracleOnItsCache) {
  test::record_fused_entries();
  const std::size_t d = 128;
  const Inputs in = make_inputs(200, 200, d, 37);
  for (const bool use_sas : {true, false}) {
    TurboMethodConfig config;
    config.use_sas = use_sas;
    TurboKvAttention attn(d, config);
    const MatrixF o = attn.prefill(in.q, in.k, in.v);

    SasConfig sas_config = config.sas;
    sas_config.exact_exp = !use_sas;
    QuantizedKvCache ref_cache(d, config.kv_bits,
                               config.attention.block_cols,
                               config.buffer_capacity);
    const TurboPrefillResult ref =
        turbo_attention_prefill(in.q, in.k, in.v, config.attention,
                                Sas(sas_config), &ref_cache);
    const std::string what = use_sas ? "sas" : "exact exp";
    EXPECT_TRUE(same_bits(ref.o.flat(), o.flat())) << what;
    expect_same_cache(ref_cache, attn.cache(), what);
  }
}

// --- The integer P~V --------------------------------------------------------
//
// P~V sums p_q * v exactly in int32 per (row, KV tile), then adds
// float(sum) * o_scale to O once. These tests pin the sum's extremes and
// the rounding it replaced.

// V of n rows of d at +1 (pattern 0), -1 (1), signs alternating by channel
// (2) or by key and channel (3): stage 1 maps each to the codes +-127.
MatrixF sign_pattern(std::size_t n, std::size_t d, int pattern) {
  MatrixF v(n, d);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      const bool negative = pattern == 1 || (pattern == 2 && c % 2 == 1) ||
                            (pattern == 3 && (r + c) % 2 == 1);
      v(r, c) = negative ? -1.0f : 1.0f;
    }
  }
  return v;
}

TEST(FusedPrefillExtremes, EveryCodeAt127AgainstFullScaleV) {
  // Q = 0 makes every score 0, so every P~ equals the tile max and every
  // code is 127. Against V at +-127, a pair of keys sums 2 * 127^2 =
  // 32,258 in the AVX2 entry's int16 step, its largest value, and a
  // 128-key row sums 128 * 127^2 in int32.
  test::record_fused_entries();
  const std::size_t n = 200;
  for (const std::size_t d : {std::size_t{128}, std::size_t{44}}) {
    const MatrixF q(n, d, 0.0f);
    const MatrixF k = test::random_matrix(n, d, 61);
    for (const int pattern : {0, 1, 2, 3}) {
      const MatrixF v = sign_pattern(n, d, pattern);
      for (const std::size_t bc : {std::size_t{64}, std::size_t{128}}) {
        for (const bool causal : {true, false}) {
          const AttentionConfig cfg = tiles(64, bc, causal);
          const std::string what =
              "d=" + std::to_string(d) + " pattern=" +
              std::to_string(pattern) + " Bc=" + std::to_string(bc) +
              (causal ? " causal" : " non-causal");
          expect_entries_match(q, k, v, cfg, SasConfig{}, what);
          if (pattern == 3) continue;
          // Every key weighs the same and each channel holds one value,
          // so O is that value, to rounding.
          const TurboPrefillResult r =
              fused_turbo_prefill(q, k, v, cfg, Sas{}, nullptr);
          for (std::size_t i = 0; i < n; i += 37) {
            for (std::size_t c = 0; c < d; ++c) {
              ASSERT_NEAR(r.o(i, c), v(i, c), 1e-5) << what << " row " << i;
            }
          }
        }
      }
    }
  }
}

// The P~V of the oracle before the integer sum: each channel adds
// float(p_q * v) * o_scale over the nonzero codes, one key at a time in
// key order.
void per_key_pv(std::span<float> o, std::span<const std::int8_t> codes,
                const MatrixI8& v, float o_scale) {
  for (std::size_t t = 0; t < codes.size(); ++t) {
    const std::int32_t pv = codes[t];
    if (pv == 0) continue;
    auto vr = v.row(t);
    for (std::size_t x = 0; x < o.size(); ++x) {
      o[x] += static_cast<float>(pv * vr[x]) * o_scale;
    }
  }
}

TEST(FusedPrefillOracle, AddsTheExactIntegerSumOnce) {
  // One Q tile against one KV tile, non-causal: the oracle's O row is
  // (0 + float(sum) * o_scale) / l. The test forms the tile's P~ codes,
  // o_scale and l from the public quantizers and Sas::exp_neg the way the
  // oracle does, and checks its O bit for bit. Against an FP64 P~V of the
  // same codes, the integer sum's RMS error must be no larger than the
  // per-key float sum's.
  const std::size_t d = 128;
  const std::size_t n_q = 48;
  const std::size_t n_k = 64;
  const AttentionConfig cfg = tiles(64, 64, false);
  const Sas sas;
  double err_int = 0.0;
  double err_per_key = 0.0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Inputs in = make_inputs(n_q, n_k, d, 300 + seed);
    const TurboPrefillResult res =
        turbo_attention_prefill(in.q, in.k, in.v, cfg, sas, nullptr);
    const Int8Tile qt = quantize_tile_int8(in.q);
    const Int8Tile kt = quantize_tile_int8(in.k);
    const Int8Tile vt = quantize_tile_int8(in.v);
    const float s_scale = qt.scale * kt.scale * cfg.effective_scale(d);

    MatrixF p(n_q, n_k);
    std::vector<float> l(n_q, 0.0f);
    float p_max = 0.0f;
    for (std::size_t r = 0; r < n_q; ++r) {
      std::vector<float> s(n_k);
      float m = -std::numeric_limits<float>::infinity();
      for (std::size_t t = 0; t < n_k; ++t) {
        std::int32_t dot = 0;
        for (std::size_t x = 0; x < d; ++x) dot += qt.q(r, x) * kt.q(t, x);
        s[t] = static_cast<float>(dot) * s_scale;
        m = std::max(m, s[t]);
      }
      for (std::size_t t = 0; t < n_k; ++t) {
        p(r, t) = sas.exp_neg(s[t] - m);
        l[r] += p(r, t);
        p_max = std::max(p_max, p(r, t));
      }
    }
    const float p_scale = p_max > 0.0f ? p_max / kSymmetricHeadroom : 1.0f;
    const float inv_p = 1.0f / p_scale;
    const float o_scale = p_scale * vt.scale;

    for (std::size_t r = 0; r < n_q; ++r) {
      std::vector<std::int8_t> codes(n_k);
      std::vector<std::int32_t> sum(d, 0);
      bool live = false;
      for (std::size_t t = 0; t < n_k; ++t) {
        codes[t] = clamp_to_i8(p(r, t) * inv_p, 0, 127);
        live = live || codes[t] != 0;
        for (std::size_t x = 0; x < d; ++x) sum[x] += codes[t] * vt.q(t, x);
      }
      std::vector<float> per_key(d, 0.0f);
      per_key_pv(per_key, codes, vt.q, o_scale);
      const float inv_l = 1.0f / l[r];
      for (std::size_t x = 0; x < d; ++x) {
        const float once =
            live ? 0.0f + static_cast<float>(sum[x]) * o_scale : 0.0f;
        ASSERT_TRUE(same_bits(res.o(r, x), once * inv_l))
            << "seed " << seed << " row " << r << " channel " << x;
        const double exact =
            static_cast<double>(sum[x]) * static_cast<double>(o_scale);
        err_int += (once - exact) * (once - exact);
        err_per_key += (per_key[x] - exact) * (per_key[x] - exact);
      }
    }
  }
  const double count = 8.0 * n_q * d;
  for (const auto& [name, err] : {std::pair{"rms_int_sum", err_int},
                                  std::pair{"rms_per_key", err_per_key}}) {
    std::ostringstream rms;
    rms << std::scientific << std::setprecision(3) << std::sqrt(err / count);
    RecordProperty(name, rms.str());
  }
  EXPECT_LE(err_int, err_per_key);
  EXPECT_GT(err_per_key, 0.0);
}

}  // namespace
}  // namespace turbo
