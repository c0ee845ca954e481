#include "common/fp16.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace turbo {
namespace {

TEST(Fp16Test, ExactSmallIntegers) {
  for (int i = -2048; i <= 2048; ++i) {
    const float f = static_cast<float>(i);
    EXPECT_EQ(round_to_fp16(f), f) << "integer " << i;
  }
}

TEST(Fp16Test, KnownBitPatterns) {
  EXPECT_EQ(float_to_half_bits(0.0f), 0x0000);
  EXPECT_EQ(float_to_half_bits(-0.0f), 0x8000);
  EXPECT_EQ(float_to_half_bits(1.0f), 0x3c00);
  EXPECT_EQ(float_to_half_bits(-1.0f), 0xbc00);
  EXPECT_EQ(float_to_half_bits(2.0f), 0x4000);
  EXPECT_EQ(float_to_half_bits(0.5f), 0x3800);
  EXPECT_EQ(float_to_half_bits(65504.0f), 0x7bff);  // max finite half
}

TEST(Fp16Test, RoundTripHalfBits) {
  // Every finite half value must round-trip exactly through float.
  for (std::uint32_t bits = 0; bits < 0x10000; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const float f = half_bits_to_float(h);
    if (std::isnan(f)) continue;  // NaN payloads need not be preserved
    EXPECT_EQ(float_to_half_bits(f), h) << "bits 0x" << std::hex << bits;
  }
}

TEST(Fp16Test, OverflowToInfinity) {
  EXPECT_TRUE(std::isinf(round_to_fp16(1.0e6f)));
  EXPECT_TRUE(std::isinf(round_to_fp16(-1.0e6f)));
  EXPECT_LT(round_to_fp16(-1.0e6f), 0.0f);
  // 65520 is the rounding boundary: everything >= it overflows.
  EXPECT_TRUE(std::isinf(round_to_fp16(65520.0f)));
  EXPECT_EQ(round_to_fp16(65519.0f), 65504.0f);
}

TEST(Fp16Test, UnderflowToZero) {
  EXPECT_EQ(round_to_fp16(1.0e-10f), 0.0f);
  // Smallest subnormal half is 2^-24 ~= 5.96e-8.
  EXPECT_GT(round_to_fp16(6.0e-8f), 0.0f);
}

TEST(Fp16Test, SubnormalValues) {
  const float tiny = std::ldexp(1.0f, -24);  // smallest subnormal
  EXPECT_EQ(round_to_fp16(tiny), tiny);
  const float sub = std::ldexp(3.0f, -24);
  EXPECT_EQ(round_to_fp16(sub), sub);
}

TEST(Fp16Test, RoundToNearestEven) {
  // 2049 is halfway between 2048 and 2050 in half precision; RNE picks
  // the even mantissa (2048).
  EXPECT_EQ(round_to_fp16(2049.0f), 2048.0f);
  EXPECT_EQ(round_to_fp16(2051.0f), 2052.0f);
}

TEST(Fp16Test, RelativeErrorBound) {
  // Max relative rounding error of binary16 normals is 2^-11.
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const float x =
        static_cast<float>(rng.normal(0.0, 100.0));
    if (x == 0.0f) continue;
    const float r = round_to_fp16(x);
    EXPECT_LE(std::abs(r - x) / std::abs(x), 1.0 / 2048.0 + 1e-7)
        << "value " << x;
  }
}

TEST(Fp16Test, NanPropagates) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(round_to_fp16(nan)));
}

TEST(Fp16Test, InfinityPropagates) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(std::isinf(round_to_fp16(inf)));
  EXPECT_TRUE(std::isinf(round_to_fp16(-inf)));
  EXPECT_LT(round_to_fp16(-inf), 0.0f);
}

TEST(Fp16Test, RoundSpanInPlace) {
  std::vector<float> v{1.0f, 1.0005f, -3.14159f, 65519.0f};
  round_span_to_fp16(v);
  for (float x : v) {
    EXPECT_EQ(x, round_to_fp16(x));  // idempotent
  }
}

}  // namespace
}  // namespace turbo
