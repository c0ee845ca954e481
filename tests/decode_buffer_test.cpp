#include "kvcache/decode_buffer.h"

#include <cfenv>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/numeric.h"
#include "common/rng.h"
#include "quant/symmetric.h"

namespace turbo {
namespace {

std::vector<float> token(std::initializer_list<float> vals) { return vals; }

TEST(DecodeBufferTest, StartsEmpty) {
  DecodeBuffer buf(4, 2);
  EXPECT_TRUE(buf.empty());
  EXPECT_FALSE(buf.full());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_FALSE(buf.has_scale());
}

TEST(DecodeBufferTest, SeedScaleFixesUniversalScale) {
  DecodeBuffer buf(4, 2);
  buf.seed_scale(119.0f);
  EXPECT_FLOAT_EQ(buf.scale(), 1.0f);
  // Second seed is a no-op: the scale is universal.
  buf.seed_scale(1000.0f);
  EXPECT_FLOAT_EQ(buf.scale(), 1.0f);
}

TEST(DecodeBufferTest, FirstPushSeedsScaleWhenUnseeded) {
  DecodeBuffer buf(4, 2);
  buf.push(token({119.0f, -59.5f}));
  EXPECT_TRUE(buf.has_scale());
  EXPECT_FLOAT_EQ(buf.scale(), 1.0f);
  EXPECT_EQ(buf.tokens()(0, 0), 119);
  EXPECT_EQ(buf.tokens()(0, 1), -60);  // nearbyint(-59.5) == -60
}

TEST(DecodeBufferTest, OutliersClampWithoutRecompression) {
  DecodeBuffer buf(4, 2);
  buf.seed_scale(119.0f);  // scale 1.0, representable range [-127, 127]
  buf.push(token({100.0f, -100.0f}));
  buf.push(token({500.0f, -500.0f}));  // outlier: clamps, not re-scales
  EXPECT_FLOAT_EQ(buf.scale(), 1.0f);  // unchanged
  EXPECT_EQ(buf.tokens()(0, 0), 100);  // earlier token untouched
  EXPECT_EQ(buf.tokens()(1, 0), 127);
  EXPECT_EQ(buf.tokens()(1, 1), -127);
  EXPECT_EQ(buf.clamped_token_count(), 1u);
}

TEST(DecodeBufferTest, FullAfterCapacityPushes) {
  DecodeBuffer buf(3, 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(buf.full());
    buf.push(token({1.0f}));
  }
  EXPECT_TRUE(buf.full());
  EXPECT_THROW(buf.push(token({1.0f})), CheckError);
}

TEST(DecodeBufferTest, TakeDrainsButKeepsScale) {
  DecodeBuffer buf(4, 2);
  buf.push(token({10.0f, 20.0f}));
  buf.push(token({30.0f, 40.0f}));
  const float scale = buf.scale();
  const MatrixI8 out = buf.take();
  EXPECT_EQ(out.rows(), 2u);
  EXPECT_TRUE(buf.empty());
  EXPECT_FLOAT_EQ(buf.scale(), scale);  // universal across flushes
  // Post-take pushes still work with the retained scale.
  buf.push(token({5.0f, 5.0f}));
  EXPECT_EQ(buf.size(), 1u);
}

TEST(DecodeBufferTest, TakeResetsClampCounter) {
  // take() flushes tokens AND the clamp counter; callers accounting
  // clamped tokens (e.g. quality ablations) must read it before take().
  DecodeBuffer buf(4, 2);
  buf.seed_scale(1.0f);
  buf.push(token({500.0f, -500.0f}));  // clamps under the 1.0 scale
  buf.push(token({0.5f, -0.5f}));      // in range
  buf.push(token({300.0f, 0.0f}));     // clamps
  EXPECT_EQ(buf.clamped_token_count(), 2u);
  (void)buf.take();
  EXPECT_EQ(buf.clamped_token_count(), 0u);
  // The retained universal scale still clamps fresh outliers, counted
  // from zero for the new flush window.
  buf.push(token({-700.0f, 700.0f}));
  EXPECT_EQ(buf.clamped_token_count(), 1u);
}

// Sets the rounding direction for one scope and restores the old one.
class RoundingDirection {
 public:
  explicit RoundingDirection(int mode) : saved_(std::fegetround()) {
    std::fesetround(mode);
  }
  ~RoundingDirection() { std::fesetround(saved_); }
  RoundingDirection(const RoundingDirection&) = delete;
  RoundingDirection& operator=(const RoundingDirection&) = delete;

 private:
  int saved_;
};

TEST(DecodeBufferTest, PushMatchesRoundingTwiceAtTheEdges) {
  // push rounds each element once; it used to round twice, through
  // std::nearbyint and again inside clamp_to_i8(float), and to count a
  // token clamped when the first rounding passed +-127. Codes and count
  // must match that arithmetic, one value per token and all in one, in
  // every rounding direction: x86-64 rounds eight elements at a time
  // (_mm_cvtps_epi32) and the rest through std::nearbyint. Widths 11 and
  // 131 end in a scalar tail, 128 does not; the edge values spread over
  // the row, the first at column 0 and the last at column n - 1.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> values = {126.5f, -126.5f, 127.5f, -127.5f,
                                     128.0f, -128.0f, nan,    inf,
                                     -inf,   1e30f,   -0.0f};
  const auto twice = [](float x) { return clamp_to_i8(std::nearbyint(x)); };
  const auto clamped = [](float x) {
    const float r = std::nearbyint(x);
    return r > 127.0f || r < -127.0f;
  };
  const std::size_t m = values.size();
  for (const int mode : {FE_TONEAREST, FE_UPWARD, FE_DOWNWARD, FE_TOWARDZERO}) {
    const RoundingDirection direction(mode);
    for (const std::size_t n : {std::size_t{11}, std::size_t{128},
                                std::size_t{131}}) {
      const std::string what =
          "mode " + std::to_string(mode) + " width " + std::to_string(n);
      const auto column = [&](std::size_t j) { return j * (n - 1) / (m - 1); };
      DecodeBuffer buf(m + 1, n);
      buf.seed_scale(kSymmetricHeadroom);  // scale 1
      std::size_t expected = 0;
      for (std::size_t i = 0; i < m; ++i) {
        std::vector<float> t(n, 0.0f);
        t[column(i)] = values[i];
        buf.push(t);
        if (clamped(values[i])) ++expected;
        EXPECT_EQ(buf.clamped_token_count(), expected)
            << what << " value " << values[i];
        for (std::size_t c = 0; c < n; ++c) {
          EXPECT_EQ(buf.tokens()(i, c), twice(t[c]))
              << what << " value " << values[i] << " column " << c;
        }
      }
      std::vector<float> all(n, 0.0f);
      for (std::size_t j = 0; j < m; ++j) all[column(j)] = values[j];
      buf.push(all);
      EXPECT_EQ(buf.clamped_token_count(), expected + 1) << what;
      for (std::size_t c = 0; c < n; ++c) {
        EXPECT_EQ(buf.tokens()(m, c), twice(all[c])) << what << " column " << c;
      }
      if (mode == FE_TONEAREST) {
        const std::vector<int> codes = {126, -126, 127, -127, 127, -127,
                                        0,   127,  -127, 127, 0};
        for (std::size_t j = 0; j < m; ++j) {
          EXPECT_EQ(buf.tokens()(m, column(j)), codes[j])
              << what << " value " << values[j];
        }
        EXPECT_EQ(expected, 7u) << what;  // all but +-126.5, NaN and -0
      }
    }
  }
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(DecodeBufferTest, RoundTripErrorWithinHalfScale) {
  DecodeBuffer buf(16, 8);
  Rng rng(1);
  std::vector<std::vector<float>> originals;
  buf.seed_scale(4.0f);  // generous range so nothing clamps
  for (int t = 0; t < 16; ++t) {
    std::vector<float> v(8);
    rng.fill_normal(v, 0.0, 1.0);
    buf.push(v);
    originals.push_back(std::move(v));
  }
  for (int t = 0; t < 16; ++t) {
    for (std::size_t c = 0; c < 8; ++c) {
      const float back =
          static_cast<float>(buf.tokens()(static_cast<std::size_t>(t), c)) *
          buf.scale();
      EXPECT_NEAR(back, originals[static_cast<std::size_t>(t)][c],
                  buf.scale() / 2.0f + 1e-6f);
    }
  }
}

TEST(DecodeBufferTest, DimensionMismatchThrows) {
  DecodeBuffer buf(4, 3);
  EXPECT_THROW(buf.push(token({1.0f, 2.0f})), CheckError);
}

TEST(DecodeBufferTest, ZeroCapacityThrows) {
  EXPECT_THROW(DecodeBuffer(0, 4), CheckError);
  EXPECT_THROW(DecodeBuffer(4, 0), CheckError);
}

TEST(DecodeBufferTest, MemoryBytesCountsInt8Payload) {
  DecodeBuffer buf(8, 4);
  buf.push(token({1.0f, 2.0f, 3.0f, 4.0f}));
  buf.push(token({1.0f, 2.0f, 3.0f, 4.0f}));
  EXPECT_EQ(buf.memory_bytes(), 8u + 2u);  // 2 tokens x 4 dims + fp16 scale
}

}  // namespace
}  // namespace turbo
