#include "softmax/sas.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/fp16.h"
#include "common/stats.h"
#include "softmax/sas_paths.h"
#include "softmax/softmax.h"
#include "tests/test_util.h"

namespace turbo {
namespace {

TEST(SasTest, PolyApproximatesExpOnUnitInterval) {
  // Figure 5's claim: the degree-3 fit tracks e^{-t} closely on [0, 1].
  double max_err = 0.0;
  for (int i = 0; i <= 1000; ++i) {
    const float t = static_cast<float>(i) / 1000.0f;
    const double err = std::abs(Sas::poly(t) - std::exp(-t));
    max_err = std::max(max_err, err);
  }
  EXPECT_LT(max_err, 5e-4);
}

TEST(SasTest, PolyFp16CloseToPolyFp32) {
  for (int i = 0; i <= 100; ++i) {
    const float t = static_cast<float>(i) / 100.0f;
    EXPECT_NEAR(Sas::poly_fp16(t), Sas::poly(t), 3e-3f) << "t=" << t;
  }
}

TEST(SasTest, LutHoldsNegativePowersOfE) {
  const Sas sas(SasConfig{.threshold = -6, .fp16_arithmetic = false});
  const auto lut = sas.lut();
  ASSERT_EQ(lut.size(), 8u);  // e^0..e^-6 plus the zero sentinel
  for (int i = 0; i <= 6; ++i) {
    EXPECT_NEAR(lut[static_cast<std::size_t>(i)],
                std::exp(static_cast<float>(-i)), 1e-6f);
  }
  EXPECT_EQ(lut.back(), 0.0f);
}

TEST(SasTest, SparsificationBelowThreshold) {
  const Sas sas;
  EXPECT_EQ(sas.exp_neg(-6.5f), 0.0f);
  EXPECT_EQ(sas.exp_neg(-100.0f), 0.0f);
  EXPECT_EQ(sas.exp_neg(-std::numeric_limits<float>::infinity()), 0.0f);
  EXPECT_GT(sas.exp_neg(-5.9f), 0.0f);
}

TEST(SasTest, ExactThresholdIsNotSparsified) {
  // Sparsification is x < threshold, strictly: the boundary score itself
  // still contributes e^{threshold} (Algorithm 3 keeps X >= n_r). A
  // regression here silently widens the sparsified tail by one LUT bucket.
  for (const int threshold : {-4, -6, -8}) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    const Sas sas(SasConfig{.threshold = threshold,
                            .fp16_arithmetic = false});
    const float x = static_cast<float>(threshold);
    EXPECT_GT(sas.exp_neg(x), 0.0f);
    // y_dec == 0 at the boundary, so the result is LUT[|threshold|] times
    // poly(0) = c0 — within the polynomial's fit error of e^{threshold}.
    EXPECT_NEAR(sas.exp_neg(x), std::exp(x), 5e-4f * std::exp(x) + 1e-6f);
    // One ULP below the boundary is sparsified to exactly zero.
    const float below =
        std::nextafter(x, -std::numeric_limits<float>::infinity());
    EXPECT_EQ(sas.exp_neg(below), 0.0f);
  }
}

TEST(SasTest, SentinelBucketYieldsExactZero) {
  // The LUT carries |threshold| + 2 entries: e^0 .. e^{threshold} plus one
  // zero sentinel so the branch-free indexed path (Algorithm 3 rewrites
  // X[X < n_r] to bucket n_r + 1) needs no comparison. The sentinel must
  // be exactly 0.0 — any epsilon leaks mass into the sparsified tail and
  // breaks the softmax normalization accounting.
  for (const int threshold : {-4, -6, -8}) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    const Sas sas(SasConfig{.threshold = threshold});
    const auto lut = sas.lut();
    const std::size_t n = static_cast<std::size_t>(-threshold);
    ASSERT_EQ(lut.size(), n + 2);
    EXPECT_EQ(lut[n + 1], 0.0f);
    // The sentinel annihilates whatever the polynomial produces, exactly:
    // T[n_r + 1] * poly(t) == 0 for any fractional part t.
    for (const float t : {0.0f, 0.25f, 0.5f, 0.999f}) {
      EXPECT_EQ(lut[n + 1] * Sas::poly(t), 0.0f);
      EXPECT_EQ(lut[n + 1] * Sas::poly_fp16(t), 0.0f);
    }
    // All real buckets are strictly positive, so zero uniquely marks the
    // sparsified bucket.
    for (std::size_t i = 0; i <= n; ++i) {
      EXPECT_GT(lut[i], 0.0f);
    }
  }
}

TEST(SasTest, ApproximationErrorWithinRange) {
  const Sas sas;
  for (int i = 0; i <= 600; ++i) {
    const float x = -static_cast<float>(i) / 100.0f;  // [-6, 0]
    const float approx = sas.exp_neg(x);
    const float exact = std::exp(x);
    // Absolute error: POLY error (~5e-4) + FP16 rounding of values <= 1.
    EXPECT_NEAR(approx, exact, 2.5e-3f) << "x=" << x;
  }
}

TEST(SasTest, PositiveInputsClampToOne) {
  const Sas sas;
  // Rounding noise can push shifted scores slightly above 0.
  EXPECT_NEAR(sas.exp_neg(0.001f), 1.0f, 2e-3f);
  EXPECT_NEAR(sas.exp_neg(0.0f), 1.0f, 2e-3f);
}

TEST(SasTest, ExactModeBypassesApproximation) {
  const Sas sas(SasConfig{.exact_exp = true});
  for (float x : {-0.3f, -2.7f, -10.0f, -50.0f}) {
    EXPECT_FLOAT_EQ(sas.exp_neg(x), std::exp(x));
  }
}

TEST(SasTest, SoftmaxSumsToOne) {
  const Sas sas;
  const MatrixF scores = test::random_matrix(8, 64, 3, 2.0);
  const MatrixF p = sas.softmax(scores);
  for (std::size_t r = 0; r < p.rows(); ++r) {
    float sum = 0.0f;
    for (float v : p.row(r)) {
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SasTest, SoftmaxCloseToExact) {
  const Sas sas;
  const MatrixF scores = test::random_matrix(16, 128, 7, 3.0);
  const MatrixF approx = sas.softmax(scores);
  const MatrixF exact = softmax_rows(scores);
  EXPECT_LT(max_abs_error(approx, exact), 0.03);
}

TEST(SasTest, SoftmaxSparsifiesTail) {
  const Sas sas;
  MatrixF scores(1, 4);
  scores(0, 0) = 0.0f;
  scores(0, 1) = -1.0f;
  scores(0, 2) = -20.0f;  // far below threshold after shift
  scores(0, 3) = -30.0f;
  const MatrixF p = sas.softmax(scores);
  EXPECT_EQ(p(0, 2), 0.0f);
  EXPECT_EQ(p(0, 3), 0.0f);
  EXPECT_GT(p(0, 0), p(0, 1));
}

TEST(SasTest, ArgmaxPreserved) {
  // SAS must never flip the ranking of well separated scores.
  const Sas sas;
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    MatrixF scores(1, 16);
    for (float& v : scores.flat()) {
      v = static_cast<float>(rng.normal(0.0, 2.0));
    }
    // Skip near-ties: SAS's ~2e-3 absolute error can legitimately flip
    // scores separated by less than its error band.
    float top = -1e30f;
    float second = -1e30f;
    for (float v : scores.flat()) {
      if (v > top) {
        second = top;
        top = v;
      } else if (v > second) {
        second = v;
      }
    }
    if (top - second < 0.05f) continue;

    const MatrixF pa = sas.softmax(scores);
    const MatrixF pe = softmax_rows(scores);
    std::size_t arg_a = 0;
    std::size_t arg_e = 0;
    for (std::size_t c = 1; c < 16; ++c) {
      if (pa(0, c) > pa(0, arg_a)) arg_a = c;
      if (pe(0, c) > pe(0, arg_e)) arg_e = c;
    }
    EXPECT_EQ(arg_a, arg_e) << "trial " << trial;
  }
}

class SasThresholdSweep : public ::testing::TestWithParam<int> {};

TEST_P(SasThresholdSweep, TighterThresholdLargerError) {
  const int threshold = GetParam();
  const Sas sas(SasConfig{.threshold = threshold});
  // Total probability mass wrongly zeroed is bounded by
  // n * e^{threshold} after normalization.
  const MatrixF scores = test::random_matrix(4, 256, 13, 3.0);
  const MatrixF approx = sas.softmax(scores);
  const MatrixF exact = softmax_rows(scores);
  const double bound =
      256.0 * std::exp(static_cast<double>(threshold)) + 6e-3;
  EXPECT_LT(max_abs_error(approx, exact), bound) << "n_r=" << threshold;
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SasThresholdSweep,
                         ::testing::Values(-4, -6, -8, -12));

TEST(SasTest, NanPropagatesInsteadOfIndexingTheLut) {
  // exp_neg(NaN) used to cast -NaN to int (undefined behaviour, reported by
  // UBSan's float-cast-overflow); it now returns the NaN, as the exact_exp
  // path and std::exp do.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const bool fp16 : {true, false}) {
    const Sas sas(SasConfig{.fp16_arithmetic = fp16});
    EXPECT_TRUE(std::isnan(sas.exp_neg(nan)));
    EXPECT_TRUE(std::isnan(sas.exp_neg(-nan)));
  }
  EXPECT_TRUE(std::isnan(Sas(SasConfig{.exact_exp = true}).exp_neg(nan)));
}

// --- Sas::apply (the batch path the kernels run) == exp_neg --------------

std::vector<float> sas_inputs(int threshold) {
  std::vector<float> xs;
  // Every binary16 value in [n_r - 1, 0]: the inputs an FP16 score takes.
  for (std::uint32_t h = 0; h <= 0xFFFFu; ++h) {
    const float v = half_bits_to_float(static_cast<std::uint16_t>(h));
    if (v <= 0.0f && v >= static_cast<float>(threshold - 1)) xs.push_back(v);
  }
  // A dense float sweep over [n_r - 1.5, 0].
  const float span = 1.5f - static_cast<float>(threshold);
  for (int i = 0; i <= 200000; ++i) {
    xs.push_back(-span * static_cast<float>(i) / 200000.0f);
  }
  const float inf = std::numeric_limits<float>::infinity();
  // Each value and its FP32 neighbours, 1 and 2 ulps either side.
  const auto with_neighbours = [&](float v) {
    const float down = std::nextafter(v, -inf);
    const float up = std::nextafter(v, inf);
    for (const float x : {std::nextafter(down, -inf), down, v, up,
                          std::nextafter(up, inf)}) {
      xs.push_back(x);
    }
  };
  // Around every integer in [n_r - 1, 0], where the integer/fraction split
  // changes: it must run on the FP32 input (-2.9999 rounds to binary16
  // -3.0).
  for (int i = threshold - 1; i <= 0; ++i) {
    with_neighbours(static_cast<float>(i));
  }
  // Around -(a + b) / 2 for every two adjacent binary16 values a < b in
  // [0, 1): the fraction's rounding to binary16 breaks a tie there.
  for (std::uint32_t h = 0; h < 0x3BFFu; ++h) {
    const float a = half_bits_to_float(static_cast<std::uint16_t>(h));
    const float b = half_bits_to_float(static_cast<std::uint16_t>(h + 1));
    with_neighbours(-(a + (b - a) / 2.0f));
  }
  // Specials, and positive inputs (clamped to 0).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const float v :
       {0.0f, -0.0f, -inf, nan, -nan, inf, 1.0f, 1e-30f, 3.5f,
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        static_cast<float>(threshold),
        std::nextafter(static_cast<float>(threshold), -inf)}) {
    xs.push_back(v);
  }
  // A length that is not a multiple of the SIMD width, so the tail runs.
  xs.push_back(-0.5f);
  return xs;
}

// Sas::apply, and every compiled path this CPU supports
// (softmax/sas_paths.h), against exp_neg. Each test records the paths it
// runs.
class SasApplyParity
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {
 protected:
  void SetUp() override { test::record_fused_entries(); }

  // Every supported path's apply, then the dispatched Sas::apply.
  static std::vector<std::pair<std::string, std::function<void(
                                                std::span<float>)>>>
  appliers(const Sas& sas) {
    std::vector<std::pair<std::string, std::function<void(std::span<float>)>>>
        out;
    for (const detail::SasPath& p : detail::sas_paths()) {
      if (!p.supported) continue;
      out.emplace_back(p.name, [&sas, fn = p.apply](std::span<float> v) {
        fn(sas, v);
      });
    }
    out.emplace_back("dispatched",
                     [&sas](std::span<float> v) { sas.apply(v); });
    return out;
  }
};

TEST_P(SasApplyParity, ApplyEqualsExpNegBitForBit) {
  const auto [threshold, fp16, exact] = GetParam();
  const Sas sas(SasConfig{
      .threshold = threshold, .fp16_arithmetic = fp16, .exact_exp = exact});
  const std::vector<float> xs = sas_inputs(threshold);
  for (const auto& [name, apply] : appliers(sas)) {
    std::vector<float> ys = xs;
    apply(ys);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const auto want = std::bit_cast<std::uint32_t>(sas.exp_neg(xs[i]));
      const auto got = std::bit_cast<std::uint32_t>(ys[i]);
      if (want != got && ++mismatches <= 5) {
        ADD_FAILURE() << name << ": x=" << xs[i] << " apply=" << ys[i]
                      << " exp_neg=" << sas.exp_neg(xs[i]);
      }
    }
    EXPECT_EQ(mismatches, 0u) << name;
  }
}

TEST_P(SasApplyParity, EveryLengthUpTo40) {
  // Lengths 1-40 run the 32-lane body zero or one time and the 16-lane
  // body zero to two times, then their masked final vectors (or the 8-lane
  // body and the scalar tail), over windows of the inputs at a few offsets.
  const auto [threshold, fp16, exact] = GetParam();
  const Sas sas(SasConfig{
      .threshold = threshold, .fp16_arithmetic = fp16, .exact_exp = exact});
  const std::vector<float> xs = sas_inputs(threshold);
  for (const auto& [name, apply] : appliers(sas)) {
    std::size_t mismatches = 0;
    for (std::size_t n = 1; n <= 40; ++n) {
      for (const std::size_t offset :
           {std::size_t{0}, xs.size() / 3, xs.size() - 40}) {
        std::vector<float> ys(
            xs.begin() + static_cast<std::ptrdiff_t>(offset),
            xs.begin() + static_cast<std::ptrdiff_t>(offset + n));
        apply(ys);
        for (std::size_t i = 0; i < n; ++i) {
          const float x = xs[offset + i];
          if (std::bit_cast<std::uint32_t>(ys[i]) !=
                  std::bit_cast<std::uint32_t>(sas.exp_neg(x)) &&
              ++mismatches <= 5) {
            ADD_FAILURE() << name << ": n=" << n << " i=" << i << " x=" << x
                          << " apply=" << ys[i]
                          << " exp_neg=" << sas.exp_neg(x);
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << name;
  }
}

// The 16- and 32-lane paths take LUTs of up to 16 entries (n_r >= -14),
// the 8-lane path up to 8 (n_r >= -6), so n_r = -9 and -14 run the scalar
// loop there, and n_r = -15 on every path. Without fp16 arithmetic, or
// with exact_exp, every path is the scalar loop.
INSTANTIATE_TEST_SUITE_P(
    ThresholdsAndModes, SasApplyParity,
    ::testing::Combine(::testing::Values(-4, -6, -9, -14, -15),
                       ::testing::Bool(),    // fp16_arithmetic
                       ::testing::Bool()));  // exact_exp

TEST(SasTest, InvalidThresholdThrows) {
  EXPECT_THROW(Sas(SasConfig{.threshold = 0}), CheckError);
  EXPECT_THROW(Sas(SasConfig{.threshold = 3}), CheckError);
}

}  // namespace
}  // namespace turbo
