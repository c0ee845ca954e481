#include "kernels/fused_decode.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "attention/turbo.h"
#include "attention/turbo_method.h"
#include "common/check.h"
#include "common/cpu.h"
#include "common/numeric.h"
#include "kernels/dispatch.h"
#include "kvcache/paged_cache.h"
#include "quant/progressive.h"
#include "quant/symmetric.h"
#include "tests/test_util.h"

namespace turbo {
namespace {

// Build a cache with prefill blocks (of every supported width) plus a
// buffered tail, and check the fused kernel against the reference kernel.
class FusedDecodeTest : public ::testing::TestWithParam<BitWidth> {};

TEST_P(FusedDecodeTest, BitIdenticalToReference) {
  const BitWidth bits = GetParam();
  const std::size_t d = 32;
  QuantizedKvCache cache(d, bits, 64, 64);
  const MatrixF k = test::random_matrix(200, d, 1);
  const MatrixF v = test::random_matrix(200, d, 2);
  const MatrixF qp = test::random_matrix(200, d, 3);
  const AttentionConfig cfg;
  const Sas sas;
  turbo_attention_prefill(qp, k, v, cfg, sas, &cache);

  // Add buffered decode tokens (tail not a multiple of the block size).
  Rng rng(4);
  for (int t = 0; t < 13; ++t) {
    std::vector<float> kt(d);
    std::vector<float> vt(d);
    rng.fill_normal(kt, 0.0, 1.0);
    rng.fill_normal(vt, 0.0, 1.0);
    cache.append_token(kt, vt);
  }

  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> q(d);
    rng.fill_normal(q, 0.0, 1.0);
    const auto reference = turbo_attention_decode(q, cache, cfg, sas);
    const auto fused = fused_turbo_decode(q, cache, cfg, sas);
    ASSERT_EQ(reference.size(), fused.size());
    for (std::size_t c = 0; c < d; ++c) {
      EXPECT_EQ(reference[c], fused[c])
          << "bits=" << bit_count(bits) << " trial=" << trial << " c=" << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, FusedDecodeTest,
                         ::testing::Values(BitWidth::kInt2, BitWidth::kInt3,
                                           BitWidth::kInt4));

TEST(FusedDecodeTest, RaggedFinalBlock) {
  // 100 tokens at Bc=64: one full block + one 36-row block — exercises
  // non-multiple-of-8 code counts in the packed layout.
  const std::size_t d = 16;
  QuantizedKvCache cache(d, BitWidth::kInt3, 64, 64);
  const MatrixF k = test::random_matrix(100, d, 5);
  const MatrixF v = test::random_matrix(100, d, 6);
  const MatrixF qp = test::random_matrix(100, d, 7);
  const AttentionConfig cfg;
  const Sas sas;
  turbo_attention_prefill(qp, k, v, cfg, sas, &cache);
  std::vector<float> q(d, 0.3f);
  EXPECT_EQ(turbo_attention_decode(q, cache, cfg, sas),
            fused_turbo_decode(q, cache, cfg, sas));
}

TEST(FusedDecodeTest, WorksOnPagedCache) {
  const std::size_t d = 16;
  PagedKvCache paged(d, BitWidth::kInt4, 16, 8);
  const auto seq = paged.create_sequence();
  Rng rng(8);
  for (int t = 0; t < 40; ++t) {
    std::vector<float> kt(d);
    std::vector<float> vt(d);
    rng.fill_normal(kt, 0.0, 1.0);
    rng.fill_normal(vt, 0.0, 1.0);
    ASSERT_TRUE(paged.append_token(seq, kt, vt));
  }
  std::vector<float> q(d, -0.2f);
  const AttentionConfig cfg;
  const Sas sas;
  const auto reference = turbo_attention_decode(
      q, paged.blocks(seq), paged.key_buffer(seq), paged.value_buffer(seq),
      cfg, sas);
  const auto fused = fused_turbo_decode(
      q, paged.blocks(seq), paged.key_buffer(seq), paged.value_buffer(seq),
      cfg, sas);
  EXPECT_EQ(reference, fused);
}

// --- Every compiled entry against the reference, bit for bit -------------
//
// fused_turbo_decode runs one entry (the widest this CPU supports); the
// detail seam reaches every entry, so an AVX2 host checks the baseline
// build too.

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Blocks built straight from INT8 tiles, so a test controls the second
// stage's inputs, plus a buffered tail.
struct Blocks {
  std::vector<std::unique_ptr<KvBlock>> owned;
  std::vector<const KvBlock*> view;
  DecodeBuffer keys;
  DecodeBuffer values;

  Blocks(std::size_t d, std::size_t buffer_capacity)
      : keys(buffer_capacity, d), values(buffer_capacity, d) {}
};

MatrixI8 random_i8(std::size_t rows, std::size_t cols, Rng& rng) {
  MatrixI8 m(rows, cols);
  for (std::int8_t& x : m.flat()) {
    x = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(255)) -
                                 127);
  }
  return m;
}

// Channel c spans [101, 127]. The gap of 26 gets s_int 9 / 4 / 2 at
// INT2 / INT3 / INT4, so the top code maps to 128 / 129 / 131 and the
// second stage clamps it to 127.
void make_clamping(MatrixI8& m, std::size_t c, Rng& rng) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    m(r, c) = static_cast<std::int8_t>(101 + rng.uniform_index(27));
  }
  m(0, c) = 101;
  m(m.rows() - 1, c) = 127;
}

// `tail` random normal tokens pushed into b's buffers.
void push_tail(Blocks& b, std::size_t tail, Rng& rng) {
  const std::size_t d = b.keys.dim();
  for (std::size_t t = 0; t < tail; ++t) {
    std::vector<float> kt(d);
    std::vector<float> vt(d);
    rng.fill_normal(kt, 0.0, 1.0);
    rng.fill_normal(vt, 0.0, 1.0);
    b.keys.push(kt);
    b.values.push(vt);
  }
}

Blocks make_blocks(std::size_t d, BitWidth bits,
                   const std::vector<std::size_t>& block_rows,
                   std::size_t tail, std::uint64_t seed) {
  Rng rng(seed);
  Blocks b(d, 64);
  for (const std::size_t rows : block_rows) {
    MatrixI8 k = random_i8(rows, d, rng);
    MatrixI8 v = random_i8(rows, d, rng);
    make_clamping(k, 1, rng);
    make_clamping(v, d - 1, rng);
    auto block = std::make_unique<KvBlock>();
    block->k = progressive_compress(k, 0.02f, bits);
    block->v = progressive_compress(v, 0.03f, bits);
    b.view.push_back(block.get());
    b.owned.push_back(std::move(block));
  }
  push_tail(b, tail, rng);
  return b;
}

void expect_entries_match(std::span<const KvBlock* const> view,
                          const DecodeBuffer& keys,
                          const DecodeBuffer& values,
                          const AttentionConfig& cfg, std::uint64_t seed,
                          const std::string& what) {
  const Sas sas;
  const std::size_t d = keys.dim();
  Rng rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<float> q(d);
    rng.fill_normal(q, 0.0, 2.0);
    q[d / 2] = 0.0f;  // a zero INT8 query channel
    const std::vector<float> ref =
        turbo_attention_decode(q, view, keys, values, cfg, sas);
    for (const auto& e : detail::fused_entries()) {
      if (!e.supported) continue;
      EXPECT_TRUE(same_bits(ref, e.decode(q, view, keys, values, cfg, sas)))
          << what << " entry=" << e.name << " trial=" << trial;
    }
    EXPECT_TRUE(
        same_bits(ref, fused_turbo_decode(q, view, keys, values, cfg, sas)))
        << what << " trial=" << trial;
  }
}

void expect_entries_match(const Blocks& b, const AttentionConfig& cfg,
                          std::uint64_t seed, const std::string& what) {
  expect_entries_match(b.view, b.keys, b.values, cfg, seed, what);
}

TEST(FusedDecodeEntries, PicksAmxWhenTheCpuHasIt) {
  if (cpu_has_amx_int8()) {
    EXPECT_STREQ(detail::fused_entry().name, "amx");
  } else if (cpu_has_avx512vnni()) {
    EXPECT_STREQ(detail::fused_entry().name, "avx512vnni");
  } else if (cpu_has_avx2_f16c()) {
    EXPECT_STREQ(detail::fused_entry().name, "avx2");
  }
  test::record_fused_entries();
}

TEST(FusedDecodeEntries, BaselineIsAlwaysCompiledAndSupported) {
  const auto entries = detail::fused_entries();
  ASSERT_FALSE(entries.empty());
  EXPECT_STREQ(entries[0].name, "baseline");
  EXPECT_TRUE(entries[0].supported);
  // Both kernels run the last supported entry.
  EXPECT_TRUE(detail::fused_entry().supported);
  for (const detail::FusedEntry& e : entries) {
    if (e.supported) {
      EXPECT_LE(&e, &detail::fused_entry());
    }
  }
}

class FusedDecodeParity
    : public ::testing::TestWithParam<std::tuple<std::size_t, BitWidth>> {};

TEST_P(FusedDecodeParity, EveryEntryBitIdenticalToReference) {
  test::record_fused_entries();
  const auto [d, bits] = GetParam();
  const std::string what =
      "d=" + std::to_string(d) + " bits=" + std::to_string(bit_count(bits));
  // Full blocks, a ragged final block (36 rows: not a multiple of the
  // 32-token SIMD chunk) and a buffered tail of 13.
  const Blocks b = make_blocks(d, bits, {64, 64, 36}, 13, 17 + d);
  expect_entries_match(b, AttentionConfig{}, 5, what + " full");

  // Blocks of 1, 33 and 63 tokens: the 64-token VNNI step reads past each
  // into the code buffer's slack.
  const Blocks ragged = make_blocks(d, bits, {1, 33, 63}, 3, 19 + d);
  expect_entries_match(ragged, AttentionConfig{}, 4, what + " ragged");

  // Sliding window starting inside the second block, then inside the
  // buffered tail.
  AttentionConfig window;
  window.window = 100;
  expect_entries_match(b, window, 6, what + " window in block");
  window.window = 5;
  expect_entries_match(b, window, 7, what + " window in tail");

  // Packed blocks only, and the buffered tail only.
  const Blocks packed_only = make_blocks(d, bits, {64, 40}, 0, 23 + d);
  expect_entries_match(packed_only, AttentionConfig{}, 8, what + " no tail");
  const Blocks tail_only = make_blocks(d, bits, {}, 50, 29 + d);
  expect_entries_match(tail_only, AttentionConfig{}, 9, what + " tail only");
}

// head_dim 128 (the benchmark's); 44, which is not a multiple of 8 and so
// leaves every SIMD loop a scalar tail and the VNNI q.K a partial group of
// four channels; and 96 and 64, one 64-column VNNI step with and without
// a 32-column tail.
INSTANTIATE_TEST_SUITE_P(
    HeadDimsAndWidths, FusedDecodeParity,
    ::testing::Combine(::testing::Values(std::size_t{128}, std::size_t{44},
                                         std::size_t{96}, std::size_t{64}),
                       ::testing::Values(BitWidth::kInt2, BitWidth::kInt3,
                                         BitWidth::kInt4)));

TEST(FusedDecodeParity, BufferedRowsHoldingMinus128) {
  // Restored buffers take raw INT8 rows, -128 included; the reference
  // multiplies it like any other value.
  test::record_fused_entries();
  const std::size_t d = 64;
  Blocks b = make_blocks(d, BitWidth::kInt4, {64}, 0, 31);
  b.keys.restore_scale(0.05f);
  b.values.restore_scale(0.04f);
  Rng rng(32);
  for (int t = 0; t < 20; ++t) {
    MatrixI8 rows = random_i8(2, d, rng);
    rows(0, static_cast<std::size_t>(t) % d) = -128;
    rows(1, (static_cast<std::size_t>(t) * 7) % d) = -128;
    b.keys.push_quantized(rows.row(0));
    b.values.push_quantized(rows.row(1));
  }
  expect_entries_match(b, AttentionConfig{}, 33, "minus128");
}

TEST(FusedDecodeParity, TurboKvAttentionDecodeMatchesReferenceOnItsCache) {
  test::record_fused_entries();
  const std::size_t d = 128;
  TurboMethodConfig config;
  TurboKvAttention attn(d, config);
  const MatrixF k = test::random_outlier_matrix(150, d, 41);
  const MatrixF v = test::random_matrix(150, d, 42);
  const MatrixF q = test::random_outlier_matrix(150, d, 43);
  attn.prefill(q.block_rows(0, 100), k.block_rows(0, 100),
               v.block_rows(0, 100));
  const Sas sas(config.sas);
  for (std::size_t t = 100; t < 150; ++t) {
    const std::vector<float> out = attn.decode(q.row(t), k.row(t), v.row(t));
    EXPECT_TRUE(same_bits(
        out, turbo_attention_decode(q.row(t), attn.cache(), config.attention,
                                    sas)))
        << "step " << t;
  }
  EXPECT_TRUE(same_bits(
      attn.attend(q.row(0)),
      turbo_attention_decode(q.row(0), attn.cache(), config.attention, sas)));
}

TEST(FusedDecodeParity, ThousandAndOneTokenPrompt) {
  // A 1,001-token prefill leaves 15 full blocks and a ragged 41-token one;
  // every entry decodes over it, then over a buffered tail as well.
  test::record_fused_entries();
  const std::size_t d = 128;
  TurboKvAttention attn(d, TurboMethodConfig{});
  const MatrixF q = test::random_outlier_matrix(1010, d, 51);
  const MatrixF k = test::random_outlier_matrix(1010, d, 52);
  const MatrixF v = test::random_matrix(1010, d, 53);
  attn.prefill(q.block_rows(0, 1001), k.block_rows(0, 1001),
               v.block_rows(0, 1001));
  const auto check = [&](std::uint64_t seed, const std::string& what) {
    const QuantizedKvCache& cache = attn.cache();
    std::vector<const KvBlock*> view;
    for (std::size_t j = 0; j < cache.block_count(); ++j) {
      view.push_back(&cache.block(j));
    }
    ASSERT_EQ(view.size(), 16u) << what;
    EXPECT_EQ(view.back()->tokens(), 41u) << what;
    expect_entries_match(view, cache.key_buffer(), cache.value_buffer(),
                         AttentionConfig{}, seed, what);
  };
  check(54, "1001 prompt");
  for (std::size_t t = 1001; t < 1010; ++t) {
    attn.decode(q.row(t), k.row(t), v.row(t));
  }
  check(55, "1001 prompt + 9 buffered");
}

TEST(FusedDecodeParity, Int4BlocksReadInPlaceOrUnpacked) {
  // The AVX-512 entry reads an INT4 block whose row count is a multiple of
  // 64 in place, two codes per packed byte, for q.K and for P~V; INT2 and
  // INT3 blocks and ragged INT4 blocks (1, 33 and 63 rows) are unpacked
  // first. Both ways must give the reference's bits, on their own and
  // mixed in one call. The 64-byte reads past a ragged block's codes land
  // in the code buffer's slack, which the sanitizer lane checks.
  test::record_fused_entries();
  for (const std::size_t d : {std::size_t{128}, std::size_t{44}}) {
    const std::string what = "d=" + std::to_string(d);
    const Blocks in_place = make_blocks(d, BitWidth::kInt4, {64, 128}, 5, 71);
    expect_entries_match(in_place, AttentionConfig{}, 72, what + " in place");
    const Blocks ragged = make_blocks(d, BitWidth::kInt4, {1, 33, 63}, 0, 73);
    expect_entries_match(ragged, AttentionConfig{}, 74, what + " ragged");
    const Blocks int2 = make_blocks(d, BitWidth::kInt2, {64, 128}, 0, 75);
    expect_entries_match(int2, AttentionConfig{}, 76, what + " int2");
    const Blocks mixed =
        make_blocks(d, BitWidth::kInt4, {64, 33, 128, 1, 63, 64}, 7, 77);
    expect_entries_match(mixed, AttentionConfig{}, 78, what + " mixed");
    AttentionConfig window;
    window.window = 150;  // starts inside the 128-row block
    expect_entries_match(mixed, window, 79, what + " mixed, window");
  }
}

// --- K's and V's second stage folded into q.K and P~V --------------------
//
// Over a packed block every entry sums raw codes wherever a channel's
// table is linear: q.k takes the weights q_c * s_int and adds sum q_c *
// z_int once, and P~V takes s_int * sum(p * code) + z_int * sum(p). A
// channel whose table clamps a code goes through the table. The cases
// below mix both kinds in K and in V, with the clamped codes in use, and
// check the reference's bits.

// Channel c spans [86, 127]: the gap of 41 gets s_int 14 / 6 / 3 at INT2
// / INT3 / INT4, under which 127 takes the code that maps to 128, so the
// second stage clamps a code in use at every width (top * s_int + z_int
// > 127).
void make_top_clamping(MatrixI8& m, std::size_t c, Rng& rng) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    m(r, c) = static_cast<std::int8_t>(
        r % 3 == 0 ? 127 : 86 + static_cast<int>(rng.uniform_index(42)));
  }
  m(1, c) = 86;
}

// Rows of d values in [-100, 100], which no width's second stage clamps.
MatrixI8 linear_i8(std::size_t rows, std::size_t d, Rng& rng) {
  MatrixI8 m(rows, d);
  for (std::int8_t& x : m.flat()) {
    x = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(201)) -
                                 100);
  }
  return m;
}

// Whether channel c of a block clamps in mixed_kv_blocks: in V channels
// 0, 5, 6 and 11 of every 16; in K channels 1 and 2 (inside one quad of
// four channels), 7 (a quad's last) and 15 (a group of sixteen's last);
// and the last channel in both.
bool v_clamping(std::size_t c, std::size_t d) {
  const std::size_t j = c % 16;
  return j == 0 || j == 5 || j == 6 || j == 11 || c == d - 1;
}
bool k_clamping(std::size_t c, std::size_t d) {
  const std::size_t j = c % 16;
  return j == 1 || j == 2 || j == 7 || j == 15 || c == d - 1;
}

// Packed blocks of the given row counts whose K and V mix linear channels
// with top-clamping ones, plus a buffered tail.
Blocks mixed_kv_blocks(std::size_t d, BitWidth bits,
                       const std::vector<std::size_t>& block_rows,
                       std::size_t tail, std::uint64_t seed) {
  Rng rng(seed);
  Blocks b(d, 64);
  const int top = max_code(bits);
  for (const std::size_t rows : block_rows) {
    MatrixI8 k = linear_i8(rows, d, rng);
    MatrixI8 v = linear_i8(rows, d, rng);
    for (std::size_t c = 0; c < d; ++c) {
      if (k_clamping(c, d)) make_top_clamping(k, c, rng);
      if (v_clamping(c, d)) make_top_clamping(v, c, rng);
    }
    auto block = std::make_unique<KvBlock>();
    block->k = progressive_compress(k, 0.02f, bits);
    block->v = progressive_compress(v, 0.03f, bits);
    for (std::size_t c = 0; c < d; ++c) {
      const ChannelParams kp = block->k.channels[c];
      const ChannelParams vp = block->v.channels[c];
      EXPECT_EQ(top * kp.s_int + kp.z_int > 127, k_clamping(c, d))
          << "K c=" << c;
      EXPECT_EQ(top * vp.s_int + vp.z_int > 127, v_clamping(c, d))
          << "V c=" << c;
      EXPECT_GE(kp.z_int, -127) << "K c=" << c;
      EXPECT_GE(vp.z_int, -127) << "V c=" << c;
    }
    b.view.push_back(block.get());
    b.owned.push_back(std::move(block));
  }
  push_tail(b, tail, rng);
  return b;
}

TEST(FusedDecodeFoldedPv, ClampingAndLinearChannelsInOneGroup) {
  // 64-row blocks (the AVX-512 entry reads INT4 ones in place, a 64-row
  // block's channels back to back), a 128-row one (one read per channel)
  // and a ragged 33-row one (unpacked codes). d = 72 ends in a group of
  // eight channels, d = 44 in one of twelve, so that a group's last
  // channel and the last quad's are both the block's last.
  test::record_fused_entries();
  for (const std::size_t d :
       {std::size_t{128}, std::size_t{72}, std::size_t{44}}) {
    for (const BitWidth bits :
         {BitWidth::kInt2, BitWidth::kInt3, BitWidth::kInt4}) {
      const std::string what =
          "d=" + std::to_string(d) + " bits=" + std::to_string(bit_count(bits));
      const Blocks b =
          mixed_kv_blocks(d, bits, {64, 128, 64, 33}, 5, 111 + d);
      expect_entries_match(b, AttentionConfig{}, 112, what);
    }
  }
}

TEST(FusedDecodeFoldedPv, FlushedRowsHoldingMinus128) {
  // A restored buffer takes raw INT8 rows, -128 included, and flushes them
  // into a block like any other. A channel whose minimum is -128 gets
  // z_int = -128, and its table lifts code 0 to -127: no top code clamps
  // (the channel spans [-128, 100]), so only the z_int half of the test
  // sends it through the table. V holds -128 in every third channel from
  // 0, K in every third from 1.
  test::record_fused_entries();
  for (const std::size_t d : {std::size_t{128}, std::size_t{72}}) {
    for (const BitWidth bits :
         {BitWidth::kInt2, BitWidth::kInt3, BitWidth::kInt4}) {
      const std::string what =
          "d=" + std::to_string(d) + " bits=" + std::to_string(bit_count(bits));
      Rng rng(121 + d);
      Blocks b(d, 64);
      for (const std::size_t rows : {64, 128, 40}) {
        DecodeBuffer keys(rows, d);
        DecodeBuffer values(rows, d);
        keys.restore_scale(0.05f);
        values.restore_scale(0.04f);
        MatrixI8 k = linear_i8(rows, d, rng);
        MatrixI8 v = linear_i8(rows, d, rng);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t c = 0; c < d; ++c) {
            if ((r + c) % 4 != 0) continue;
            if (c % 3 == 0) v(r, c) = -128;
            if (c % 3 == 1) k(r, c) = -128;
          }
          keys.push_quantized(k.row(r));
          values.push_quantized(v.row(r));
        }
        auto block = std::make_unique<KvBlock>();
        block->k = progressive_compress(keys.take(), keys.scale(), bits);
        block->v = progressive_compress(values.take(), values.scale(), bits);
        for (std::size_t c = 0; c < d; ++c) {
          const ChannelParams kp = block->k.channels[c];
          const ChannelParams vp = block->v.channels[c];
          EXPECT_EQ(kp.z_int == -128, c % 3 == 1) << what << " K c=" << c;
          EXPECT_EQ(vp.z_int == -128, c % 3 == 0) << what << " V c=" << c;
          EXPECT_LE(max_code(bits) * kp.s_int + kp.z_int, 127)
              << what << " K c=" << c;
          EXPECT_LE(max_code(bits) * vp.s_int + vp.z_int, 127)
              << what << " V c=" << c;
        }
        b.view.push_back(block.get());
        b.owned.push_back(std::move(block));
      }
      expect_entries_match(b, AttentionConfig{}, 122, what);
    }
  }
}

TEST(FusedDecodeFoldedPv, WindowStartsInsideAPairedBlock) {
  // The in-place INT4 read takes a 64-row block's even tokens apart from
  // its odd ones, in K and in V; a sliding window that starts inside such
  // a block, at an odd and at an even row, masks tokens of both.
  test::record_fused_entries();
  for (const std::size_t d : {std::size_t{128}, std::size_t{72}}) {
    const Blocks b =
        mixed_kv_blocks(d, BitWidth::kInt4, {64, 64, 64}, 5, 131 + d);
    // 197 tokens: the window starts at row 37, 20 or 13 of a block.
    for (const std::size_t window :
         {std::size_t{96}, std::size_t{113}, std::size_t{184}}) {
      AttentionConfig cfg;
      cfg.window = window;
      expect_entries_match(b, cfg, 132,
                           "d=" + std::to_string(d) +
                               " window=" + std::to_string(window));
    }
  }
}

TEST(FusedDecodeFoldedPv, LargestClampFreeKScaleAgainstFullScaleQ) {
  // q.K's AVX-512 fold splits each weight q_c * s_int into int8 halves,
  // 128 h + l. Its largest magnitudes come from the largest s_int whose
  // table stays linear, 84 / 36 / 16 at INT2 / INT3 / INT4 (channel gaps
  // of 252 / 252 / 240, z_int from -127 up to -125 / -125 / -113), against
  // a q whose stage-1 codes are all +-119, the largest stage 1 gives
  // (every |q_c| is the maximum). The signs run all +, all -, alternating
  // by channel and by pairs of channels.
  test::record_fused_entries();
  const Sas sas;
  for (const std::size_t d : {std::size_t{128}, std::size_t{44}}) {
    for (const BitWidth bits :
         {BitWidth::kInt2, BitWidth::kInt3, BitWidth::kInt4}) {
      const int top = max_code(bits);
      const int s_max = bits == BitWidth::kInt2   ? 84
                        : bits == BitWidth::kInt3 ? 36
                                                  : 16;
      const std::string what =
          "d=" + std::to_string(d) + " bits=" + std::to_string(bit_count(bits));
      Rng rng(141 + d);
      Blocks b(d, 64);
      for (const std::size_t rows : {64, 128, 33}) {
        MatrixI8 k(rows, d);
        const int gap = bits == BitWidth::kInt4 ? 240 : 252;
        for (std::size_t c = 0; c < d; ++c) {
          // z_int from -127 up to 127 - top * s_max, the largest that
          // keeps the table linear.
          const int lo = -127 + static_cast<int>(
                                    c % static_cast<std::size_t>(
                                            255 - top * s_max));
          for (std::size_t r = 0; r < rows; ++r) {
            k(r, c) = static_cast<std::int8_t>(
                lo + static_cast<int>(rng.uniform_index(
                         static_cast<std::size_t>(gap) + 1)));
          }
          k(0, c) = static_cast<std::int8_t>(lo);
          k(1, c) = static_cast<std::int8_t>(lo + gap);
        }
        auto block = std::make_unique<KvBlock>();
        block->k = progressive_compress(k, 0.02f, bits);
        block->v = progressive_compress(linear_i8(rows, d, rng), 0.03f, bits);
        for (std::size_t c = 0; c < d; ++c) {
          const ChannelParams kp = block->k.channels[c];
          EXPECT_EQ(kp.s_int, s_max) << what << " c=" << c;
          EXPECT_LE(top * kp.s_int + kp.z_int, 127) << what << " c=" << c;
          EXPECT_GE(kp.z_int, -127) << what << " c=" << c;
        }
        b.view.push_back(block.get());
        b.owned.push_back(std::move(block));
      }
      push_tail(b, 7, rng);
      for (int pattern = 0; pattern < 4; ++pattern) {
        std::vector<float> q(d);
        for (std::size_t c = 0; c < d; ++c) {
          const bool negative = pattern == 1 || (pattern == 2 && c % 2 == 1) ||
                                (pattern == 3 && c / 2 % 2 == 1);
          q[c] = negative ? -1.5f : 1.5f;
        }
        std::vector<std::int8_t> codes(d);
        quantize_symmetric_int8(q, symmetric_scale_int8(q), codes);
        for (const std::int8_t x : codes) ASSERT_EQ(std::abs(x), 119) << what;
        const std::vector<float> ref =
            turbo_attention_decode(q, b.view, b.keys, b.values,
                                   AttentionConfig{}, sas);
        for (const auto& e : detail::fused_entries()) {
          if (!e.supported) continue;
          EXPECT_TRUE(same_bits(ref, e.decode(q, b.view, b.keys, b.values,
                                              AttentionConfig{}, sas)))
              << what << " entry=" << e.name << " pattern=" << pattern;
        }
      }
    }
  }
}

// A block whose V channels all hold +-127: +127 (pattern 0), -127 (1),
// signs alternating by channel (2) or by token and channel (3); K random.
// Its first-stage scale is 1/127, so V reads +-1, as in the tail.
std::unique_ptr<KvBlock> sign_block(std::size_t rows, std::size_t d,
                                    BitWidth bits, int pattern, Rng& rng) {
  MatrixI8 v(rows, d);
  for (std::size_t t = 0; t < rows; ++t) {
    for (std::size_t c = 0; c < d; ++c) {
      const bool negative = pattern == 1 || (pattern == 2 && c % 2 == 1) ||
                            (pattern == 3 && (t + c) % 2 == 1);
      v(t, c) = static_cast<std::int8_t>(negative ? -127 : 127);
    }
  }
  auto block = std::make_unique<KvBlock>();
  block->k = progressive_compress(random_i8(rows, d, rng), 0.02f, bits);
  block->v = progressive_compress(v, 1.0f / 127.0f, bits);
  return block;
}

TEST(FusedDecodeParity, EveryCodeAt127AgainstFullScaleV) {
  // q = 0 makes every score 0, so every P~ equals the chunk max and every
  // code is 127. Against V at +-127 a pair of tokens sums 2 * 127^2 =
  // 32,258 in the AVX2 entry's int16 step, its largest value.
  test::record_fused_entries();
  const Sas sas;
  for (const std::size_t d : {std::size_t{128}, std::size_t{44}}) {
    for (const BitWidth bits : {BitWidth::kInt4, BitWidth::kInt2}) {
      for (const int pattern : {0, 1, 2, 3}) {
        Rng rng(81);
        Blocks b(d, 64);
        for (const std::size_t rows : {64, 128, 64}) {
          b.owned.push_back(sign_block(rows, d, bits, pattern, rng));
          b.view.push_back(b.owned.back().get());
        }
        for (std::size_t t = 0; t < 40; ++t) {
          std::vector<float> kt(d);
          std::vector<float> vt(d);
          rng.fill_normal(kt, 0.0, 1.0);
          for (std::size_t c = 0; c < d; ++c) {
            const bool negative = pattern == 1 ||
                                  (pattern == 2 && c % 2 == 1) ||
                                  (pattern == 3 && (t + c) % 2 == 1);
            vt[c] = negative ? -1.0f : 1.0f;
          }
          b.keys.push(kt);
          b.values.push(vt);
        }
        const std::string what = "d=" + std::to_string(d) +
                                 " bits=" + std::to_string(bit_count(bits)) +
                                 " pattern=" + std::to_string(pattern);
        const std::vector<float> q(d, 0.0f);
        const std::vector<float> ref = turbo_attention_decode(
            q, b.view, b.keys, b.values, AttentionConfig{}, sas);
        for (const auto& e : detail::fused_entries()) {
          if (!e.supported) continue;
          EXPECT_TRUE(same_bits(ref, e.decode(q, b.view, b.keys, b.values,
                                              AttentionConfig{}, sas)))
              << what << " entry=" << e.name;
        }
        if (pattern == 3) continue;
        // Every token weighs the same and each channel holds one value,
        // so O is that value, to rounding.
        for (std::size_t c = 0; c < d; ++c) {
          const float expected = pattern == 1 || (pattern == 2 && c % 2 == 1)
                                     ? -1.0f
                                     : 1.0f;
          ASSERT_NEAR(ref[c], expected, 1e-5) << what << " c=" << c;
        }
      }
    }
  }
}

TEST(FusedDecodeParity, ReferenceAddsTheExactIntegerSumOnce) {
  // A buffered tail only, one chunk: the reference's O is
  // (0 + float(sum) * o_scale) / l. The test forms the chunk's P~ codes,
  // o_scale and l from the public quantizers and Sas::exp_neg the way the
  // reference does, and checks its O bit for bit.
  const std::size_t d = 96;
  const Sas sas;
  const AttentionConfig cfg;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Blocks b = make_blocks(d, BitWidth::kInt4, {}, 50, 90 + seed);
    Rng rng(100 + seed);
    std::vector<float> q(d);
    rng.fill_normal(q, 0.0, 2.0);
    const std::vector<float> ref =
        turbo_attention_decode(q, b.view, b.keys, b.values, cfg, sas);

    const float q_scale = symmetric_scale_int8(q);
    std::vector<std::int8_t> q8(d);
    quantize_symmetric_int8(q, q_scale, q8);
    const MatrixI8& k = b.keys.tokens();
    const MatrixI8& v = b.values.tokens();
    const float s_scale =
        q_scale * b.keys.scale() * cfg.effective_scale(d);
    std::vector<float> s(k.rows());
    float m = -std::numeric_limits<float>::infinity();
    for (std::size_t t = 0; t < k.rows(); ++t) {
      std::int32_t dot = 0;
      for (std::size_t x = 0; x < d; ++x) dot += q8[x] * k(t, x);
      s[t] = static_cast<float>(dot) * s_scale;
      m = std::max(m, s[t]);
    }
    float l = 0.0f;
    float p_max = 0.0f;
    for (float& x : s) {
      x = sas.exp_neg(x - m);
      l += x;
      p_max = std::max(p_max, x);
    }
    const float p_scale = p_max > 0.0f ? p_max / kSymmetricHeadroom : 1.0f;
    const float inv_p = 1.0f / p_scale;
    const float o_scale = p_scale * b.values.scale();
    std::vector<std::int32_t> sum(d, 0);
    for (std::size_t t = 0; t < v.rows(); ++t) {
      const std::int32_t code = clamp_to_i8(s[t] * inv_p, 0, 127);
      for (std::size_t x = 0; x < d; ++x) sum[x] += code * v(t, x);
    }
    const float inv_l = 1.0f / l;
    for (std::size_t x = 0; x < d; ++x) {
      const float once = 0.0f + static_cast<float>(sum[x]) * o_scale;
      ASSERT_TRUE(same_bits(ref[x], once * inv_l))
          << "seed " << seed << " channel " << x;
    }
  }
}

TEST(FusedDecodeTest, EmptyCacheThrows) {
  QuantizedKvCache cache(8, BitWidth::kInt4, 64, 64);
  std::vector<float> q(8, 1.0f);
  EXPECT_THROW(fused_turbo_decode(q, cache, AttentionConfig{}, Sas{}),
               CheckError);
}

}  // namespace
}  // namespace turbo
