#include "quant/progressive.h"

#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "quant/error.h"
#include "quant/progressive_paths.h"
#include "tests/test_util.h"

namespace turbo {
namespace {

MatrixI8 random_int8(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  MatrixI8 m(rows, cols);
  Rng rng(seed);
  for (auto& v : m.flat()) {
    v = static_cast<std::int8_t>(
        static_cast<int>(rng.uniform_index(239)) - 119);
  }
  return m;
}

TEST(ProgressiveQuantTest, IntegerScaleAtLeastOne) {
  const MatrixI8 q1 = random_int8(64, 32, 1);
  const ProgressiveBlock b = progressive_compress(q1, 0.01f, BitWidth::kInt4);
  for (const ChannelParams& c : b.channels) {
    EXPECT_GE(c.s_int, 1);
  }
}

TEST(ProgressiveQuantTest, ConstantChannelIsExact) {
  MatrixI8 q1(16, 2, 0);
  for (std::size_t r = 0; r < 16; ++r) {
    q1(r, 0) = 42;
    q1(r, 1) = -77;
  }
  const ProgressiveBlock b = progressive_compress(q1, 1.0f, BitWidth::kInt2);
  const MatrixI8 back = progressive_decompress_int8(b);
  for (std::size_t r = 0; r < 16; ++r) {
    EXPECT_EQ(back(r, 0), 42);
    EXPECT_EQ(back(r, 1), -77);
  }
}

TEST(ProgressiveQuantTest, ReconstructionErrorBoundedByHalfScale) {
  const MatrixI8 q1 = random_int8(64, 16, 5);
  for (BitWidth bits :
       {BitWidth::kInt2, BitWidth::kInt3, BitWidth::kInt4}) {
    const ProgressiveBlock b = progressive_compress(q1, 1.0f, bits);
    const MatrixI8 back = progressive_decompress_int8(b);
    for (std::size_t c = 0; c < q1.cols(); ++c) {
      // Integer rounding gives |q1 - q1^| <= ceil(s/2); a round-to-nearest
      // scale additionally clips the channel extreme by up to
      // gap - max_code * s.
      int lo = 127;
      int hi = -127;
      for (std::size_t r = 0; r < q1.rows(); ++r) {
        lo = std::min<int>(lo, q1(r, c));
        hi = std::max<int>(hi, q1(r, c));
      }
      const int s = b.channels[c].s_int;
      const int clip = std::max(0, (hi - lo) - max_code(bits) * s);
      const int bound = (s + 1) / 2 + clip;
      for (std::size_t r = 0; r < q1.rows(); ++r) {
        EXPECT_LE(std::abs(q1(r, c) - back(r, c)), bound)
            << "bits=" << bit_count(bits) << " r=" << r << " c=" << c;
      }
    }
  }
}

TEST(ProgressiveQuantTest, DecompressFloatAppliesFpScale) {
  MatrixI8 q1(2, 1, 0);
  q1(0, 0) = 100;
  q1(1, 0) = -100;
  const ProgressiveBlock b = progressive_compress(q1, 0.25f, BitWidth::kInt4);
  const MatrixF back = progressive_decompress_float(b);
  const MatrixI8 back_i8 = progressive_decompress_int8(b);
  EXPECT_FLOAT_EQ(back(0, 0), static_cast<float>(back_i8(0, 0)) * 0.25f);
  EXPECT_FLOAT_EQ(back(1, 0), static_cast<float>(back_i8(1, 0)) * 0.25f);
}

TEST(ProgressiveQuantTest, MemoryFootprintShrinks) {
  const MatrixI8 q1 = random_int8(64, 128, 9);
  const ProgressiveBlock b4 = progressive_compress(q1, 1.0f, BitWidth::kInt4);
  const ProgressiveBlock b2 = progressive_compress(q1, 1.0f, BitWidth::kInt2);
  EXPECT_EQ(b4.payload_bytes(), 64u * 128u / 2);
  EXPECT_EQ(b2.payload_bytes(), 64u * 128u / 4);
  // Including metadata, INT4 must beat INT8 by close to 2x and INT2 by 4x.
  EXPECT_LT(b4.memory_bytes(), 64u * 128u * 0.6);
  EXPECT_LT(b2.memory_bytes(), 64u * 128u * 0.35);
}

TEST(ProgressiveQuantTest, FullPipelineFromFloat) {
  const MatrixF tile = test::random_matrix(64, 64, 13);
  const ProgressiveBlock b =
      progressive_compress_from_float(tile, BitWidth::kInt4);
  const MatrixF back = progressive_decompress_float(b);
  EXPECT_LT(relative_error(tile, back), 0.12);
}

TEST(ProgressiveQuantTest, ChannelOutliersHandledByChannelwiseStage) {
  // A channel with large magnitude gets its own (s_int, z_int); the other
  // channels must not lose precision because of it.
  MatrixF tile = test::random_matrix(64, 8, 17);
  for (std::size_t r = 0; r < 64; ++r) tile(r, 3) *= 50.0f;
  const ProgressiveBlock b =
      progressive_compress_from_float(tile, BitWidth::kInt4);
  const MatrixF back = progressive_decompress_float(b);
  // Error of the non-outlier channels only.
  double err = 0.0;
  double norm = 0.0;
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      if (c == 3) continue;
      const double d = tile(r, c) - back(r, c);
      err += d * d;
      norm += tile(r, c) * tile(r, c);
    }
  }
  EXPECT_LT(std::sqrt(err / norm), 0.4);
}

class ProgressiveBitsSweep : public ::testing::TestWithParam<BitWidth> {};

TEST_P(ProgressiveBitsSweep, RoundTripWithinBitDependentBound) {
  const BitWidth bits = GetParam();
  const MatrixF tile = test::random_matrix(64, 64, 19);
  const double err = progressive_quant_rmse(tile, bits, 64);
  // Looser bound for coarser codes.
  const double bound =
      bits == BitWidth::kInt4 ? 0.12 : (bits == BitWidth::kInt3 ? 0.25 : 0.55);
  EXPECT_LT(err, bound);
  // And the two-stage error can never beat the stage-1 error.
  EXPECT_GE(err, symmetric_int8_rmse(tile, 64) * 0.999);
}

INSTANTIATE_TEST_SUITE_P(Widths, ProgressiveBitsSweep,
                         ::testing::Values(BitWidth::kInt2, BitWidth::kInt3,
                                           BitWidth::kInt4));

// --- Stage 2 against a division per element ------------------------------

TEST(ProgressiveQuantTest, ScaleReciprocalDividesExactly) {
  for (int s = 1; s <= 127; ++s) {
    const std::uint32_t recip = scale_reciprocal(s);
    for (std::uint32_t n = 0; n <= 318; ++n) {
      ASSERT_EQ((n * recip) >> 16, n / static_cast<std::uint32_t>(s))
          << "s=" << s << " n=" << n;
    }
  }
}

// The reference second stage: channel extremes column by column, one
// division per element and the bitwise pack.
ProgressiveBlock compress_by_division(const MatrixI8& q1, float fp_scale,
                                      BitWidth bits) {
  ProgressiveBlock block;
  block.rows = q1.rows();
  block.cols = q1.cols();
  block.bits = bits;
  block.fp_scale = fp_scale;
  block.channels.resize(q1.cols());
  const int codes_hi = max_code(bits);
  std::vector<std::uint8_t> codes(q1.rows() * q1.cols());
  for (std::size_t c = 0; c < q1.cols(); ++c) {
    int lo = 127;
    int hi = -127;
    for (std::size_t r = 0; r < q1.rows(); ++r) {
      lo = std::min<int>(lo, q1(r, c));
      hi = std::max<int>(hi, q1(r, c));
    }
    const int s_int = std::max(1, (2 * (hi - lo) + codes_hi) / (2 * codes_hi));
    block.channels[c].s_int = static_cast<std::int8_t>(s_int);
    block.channels[c].z_int = static_cast<std::int8_t>(lo);
    for (std::size_t r = 0; r < q1.rows(); ++r) {
      const int num = q1(r, c) - lo;
      codes[c * q1.rows() + r] = static_cast<std::uint8_t>(
          std::clamp((num + s_int / 2) / s_int, 0, codes_hi));
    }
  }
  block.packed = test::pack_codes_bitwise(codes, bits);
  return block;
}

class ProgressiveOracle : public ::testing::TestWithParam<BitWidth> {};

TEST_P(ProgressiveOracle, MatchesTheDivisionLoop) {
  const BitWidth bits = GetParam();
  Rng rng(static_cast<std::uint64_t>(bit_count(bits)) * 977);
  const auto value = [&](int lo, int hi) {
    return static_cast<std::int8_t>(
        lo + static_cast<int>(rng.uniform_index(
                 static_cast<std::size_t>(hi - lo + 1))));
  };
  for (const std::size_t rows : {1, 2, 3, 5, 17, 63, 64, 65}) {
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t cols = 24 + static_cast<std::size_t>(trial % 9);
      MatrixI8 q1(rows, cols);
      for (std::size_t c = 0; c < cols; ++c) {
        // A random range per channel, so every scale turns up.
        int lo = value(-128, 127);
        int hi = value(lo, 127);
        if (c == 0) hi = lo;  // a constant channel
        if (c == 1) lo = -128;  // the full range
        if (c == 2) lo = -127;  // the stage-1 lattice
        if (c == 1 || c == 2) hi = 127;
        for (std::size_t r = 0; r < rows; ++r) q1(r, c) = value(lo, hi);
        // Both extremes present, -128 among them when in range.
        q1(0, c) = static_cast<std::int8_t>(lo);
        q1(rows - 1, c) = static_cast<std::int8_t>(hi);
      }
      const ProgressiveBlock want = compress_by_division(q1, 0.5f, bits);
      const ProgressiveBlock got = progressive_compress(q1, 0.5f, bits);
      ASSERT_EQ(got.packed, want.packed)
          << "rows=" << rows << " trial=" << trial;
      ASSERT_EQ(got.channels.size(), want.channels.size());
      for (std::size_t c = 0; c < cols; ++c) {
        ASSERT_EQ(got.channels[c].s_int, want.channels[c].s_int) << c;
        ASSERT_EQ(got.channels[c].z_int, want.channels[c].z_int) << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ProgressiveOracle,
                         ::testing::Values(BitWidth::kInt2, BitWidth::kInt3,
                                           BitWidth::kInt4));

// Every field of two blocks, byte for byte.
::testing::AssertionResult same_block(const ProgressiveBlock& got,
                                      const ProgressiveBlock& want) {
  if (got.rows != want.rows || got.cols != want.cols ||
      got.bits != want.bits || got.fp_scale != want.fp_scale) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows << "x" << got.cols << " bits "
           << bit_count(got.bits) << " fp_scale " << got.fp_scale
           << ", want " << want.rows << "x" << want.cols << " bits "
           << bit_count(want.bits) << " fp_scale " << want.fp_scale;
  }
  if (got.channels.size() != want.channels.size()) {
    return ::testing::AssertionFailure() << "channel count";
  }
  for (std::size_t c = 0; c < got.channels.size(); ++c) {
    if (got.channels[c].s_int != want.channels[c].s_int ||
        got.channels[c].z_int != want.channels[c].z_int) {
      return ::testing::AssertionFailure()
             << "channel " << c << ": (s_int, z_int) = ("
             << int{got.channels[c].s_int} << ", "
             << int{got.channels[c].z_int} << "), want ("
             << int{want.channels[c].s_int} << ", "
             << int{want.channels[c].z_int} << ")";
    }
  }
  if (got.packed.size() != want.packed.size()) {
    return ::testing::AssertionFailure()
           << got.packed.size() << " packed bytes, want "
           << want.packed.size();
  }
  for (std::size_t i = 0; i < got.packed.size(); ++i) {
    if (got.packed[i] != want.packed[i]) {
      return ::testing::AssertionFailure()
             << "packed byte " << i << " = " << int{got.packed[i]}
             << ", want " << int{want.packed[i]};
    }
  }
  return ::testing::AssertionSuccess();
}

// Every compiled path of progressive_compress (quant/progressive_paths.h)
// against the scalar path and the division loop, and the public function
// through the path it picks, over shapes that put channel and 64-row
// chunk edges everywhere: channel and row counts around 64, odd row
// counts (INT4 and INT2 codes off a byte boundary) and rows past one
// chunk. Channel kinds rotate so that a one-channel tile meets each:
// constant, all -128 (z_int = -128 under a -127 maximum, as decode-buffer
// flushes give), the full -128 .. 127 range (each width's largest s_int),
// gaps one below and at the smallest gap whose s_int is 2, a range from
// -128, and a random range.
class ProgressiveCompressParity : public ::testing::TestWithParam<BitWidth> {
};

TEST_P(ProgressiveCompressParity, EveryPathMatchesTheScalarLoop) {
  test::record_fused_entries();
  const BitWidth bits = GetParam();
  const int top = max_code(bits);
  int edge = 1;  // the smallest gap whose s_int is 2
  while ((2 * edge + top) / (2 * top) < 2) ++edge;
  Rng rng(static_cast<std::uint64_t>(bit_count(bits)) * 7919);
  const auto value = [&](int lo, int hi) {
    return static_cast<std::int8_t>(
        lo + static_cast<int>(rng.uniform_index(
                 static_cast<std::size_t>(hi - lo + 1))));
  };
  constexpr int kKinds = 7;
  const auto paths = detail::progressive_paths();
  ASSERT_STREQ(paths[0].name, "scalar");
  for (const std::size_t rows :
       {1, 2, 3, 4, 5, 17, 63, 64, 65, 128, 200}) {
    for (const std::size_t cols : {1, 44, 64, 65, 100, 128, 130, 256}) {
      const int trials = cols < kKinds ? kKinds : 2;
      for (int trial = 0; trial < trials; ++trial) {
        MatrixI8 q1(rows, cols);
        for (std::size_t c = 0; c < cols; ++c) {
          int lo = value(-128, 127);
          int hi = value(lo, 127);
          switch ((static_cast<int>(c) + trial) % kKinds) {
            case 0:
              hi = lo;
              break;
            case 1:
              lo = hi = -128;
              break;
            case 2:
              lo = -128;
              hi = 127;
              break;
            case 3:
            case 4:
              lo = value(-128, 127 - edge);
              hi = lo + edge - ((static_cast<int>(c) + trial) % kKinds == 3);
              break;
            case 5:
              lo = -128;
              break;
            default:
              break;
          }
          for (std::size_t r = 0; r < rows; ++r) q1(r, c) = value(lo, hi);
          q1(rng.uniform_index(rows), c) = static_cast<std::int8_t>(lo);
          q1(rng.uniform_index(rows), c) = static_cast<std::int8_t>(hi);
        }
        const std::string where = "rows=" + std::to_string(rows) +
                                  " cols=" + std::to_string(cols) +
                                  " trial=" + std::to_string(trial);
        const ProgressiveBlock want = compress_by_division(q1, 0.5f, bits);
        ASSERT_TRUE(same_block(progressive_compress(q1, 0.5f, bits), want))
            << where;
        const ProgressiveBlock scalar = paths[0].compress(q1, bits);
        for (const detail::ProgressivePath& path : paths) {
          if (!path.supported) continue;
          ProgressiveBlock got = path.compress(q1, bits);
          ASSERT_TRUE(same_block(got, scalar)) << path.name << ' ' << where;
          got.fp_scale = 0.5f;
          ASSERT_TRUE(same_block(got, want)) << path.name << ' ' << where;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ProgressiveCompressParity,
                         ::testing::Values(BitWidth::kInt2, BitWidth::kInt3,
                                           BitWidth::kInt4));

TEST(ProgressiveQuantTest, RejectsInt8SecondStage) {
  const MatrixI8 q1 = random_int8(8, 8, 21);
  EXPECT_THROW(progressive_compress(q1, 1.0f, BitWidth::kInt8), CheckError);
}

}  // namespace
}  // namespace turbo
