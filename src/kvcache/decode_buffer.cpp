#include "kvcache/decode_buffer.h"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__)
#include <emmintrin.h>
#endif

#include "common/check.h"
#include "common/numeric.h"

namespace turbo {

namespace {

#if defined(__x86_64__)
// Codes for x[i] * inv, i < n (n a multiple of 8), eight per step with
// SSE2, part of the x86-64 baseline: the value of push's scalar loop.
// NaN lanes become 0; the float clamp to +-128 commutes with the rounding
// (its bounds are integers), which _mm_cvtps_epi32 does in the current
// direction, as std::nearbyint does. A lane past +-127 is clamped, and
// the int16 clamp and saturating pack make it +-127. Returns whether any
// lane was clamped.
bool quantize8_sse2(const float* x, std::size_t n, float inv,
                    std::int8_t* out) {
  const __m128 vinv = _mm_set1_ps(inv);
  const __m128 lo = _mm_set1_ps(-128.0f);
  const __m128 hi = _mm_set1_ps(128.0f);
  const __m128i lo16 = _mm_set1_epi16(-127);
  const __m128i hi16 = _mm_set1_epi16(127);
  const auto quarter = [&](const float* p) {
    const __m128 y = _mm_mul_ps(_mm_loadu_ps(p), vinv);
    const __m128 r = _mm_and_ps(y, _mm_cmpord_ps(y, y));
    return _mm_cvtps_epi32(_mm_min_ps(_mm_max_ps(r, lo), hi));
  };
  __m128i clamped = _mm_setzero_si128();
  for (std::size_t i = 0; i < n; i += 8) {
    const __m128i w = _mm_packs_epi32(quarter(x + i), quarter(x + i + 4));
    clamped = _mm_or_si128(
        clamped, _mm_or_si128(_mm_cmpgt_epi16(w, hi16),
                              _mm_cmplt_epi16(w, lo16)));
    const __m128i codes = _mm_min_epi16(_mm_max_epi16(w, lo16), hi16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i),
                     _mm_packs_epi16(codes, codes));
  }
  return _mm_movemask_epi8(clamped) != 0;
}
#endif

}  // namespace

DecodeBuffer::DecodeBuffer(std::size_t capacity, std::size_t dim)
    : capacity_(capacity), dim_(dim) {
  TURBO_CHECK(capacity_ > 0);
  TURBO_CHECK(dim_ > 0);
}

void DecodeBuffer::seed_scale(float max_abs) {
  if (has_scale()) return;
  TURBO_CHECK(max_abs >= 0.0f);
  scale_ = max_abs > 0.0f ? max_abs / kSymmetricHeadroom : 1.0f;
}

void DecodeBuffer::push(std::span<const float> token) {
  TURBO_CHECK(token.size() == dim_);
  TURBO_CHECK_MSG(!full(), "DecodeBuffer overflow: flush before pushing");
  if (!has_scale()) {
    float max_abs = 0.0f;
    for (float v : token) max_abs = std::max(max_abs, std::abs(v));
    seed_scale(max_abs);
  }
  // Straight into the new row, one rounding per element: a value that
  // rounds past +-127 clamps to it and marks the token clamped; NaN is 0.
  const std::span<std::int8_t> q = tokens_.append_zero_row(dim_, capacity_);
  bool clamped = false;
  const float inv = 1.0f / scale_;
  std::size_t i0 = 0;
#if defined(__x86_64__)
  i0 = dim_ - dim_ % 8;
  clamped = quantize8_sse2(token.data(), i0, inv, q.data());
#endif
  for (std::size_t i = i0; i < dim_; ++i) {
    const float scaled = std::nearbyint(token[i] * inv);
    if (scaled > 127.0f || scaled < -127.0f) {
      clamped = true;
      q[i] = clamp_to_i8(scaled > 0.0f ? 127 : -127);
    } else {
      q[i] = saturate_cast<std::int8_t>(scaled);
    }
  }
  if (clamped) ++clamped_tokens_;
}

void DecodeBuffer::restore_scale(float scale) {
  TURBO_CHECK_MSG(!has_scale(), "restore_scale on a seeded buffer");
  TURBO_CHECK(scale > 0.0f);
  scale_ = scale;
}

void DecodeBuffer::push_quantized(std::span<const std::int8_t> row) {
  TURBO_CHECK(row.size() == dim_);
  TURBO_CHECK_MSG(!full(), "DecodeBuffer overflow: flush before pushing");
  TURBO_CHECK_MSG(has_scale(), "push_quantized requires a restored scale");
  tokens_.append_row(row);
}

MatrixI8 DecodeBuffer::take() {
  MatrixI8 out = std::move(tokens_);
  tokens_ = MatrixI8(0, dim_);
  // A 0-row matrix has no column count until the first append; re-anchor it.
  clamped_tokens_ = 0;
  return out;
}

}  // namespace turbo
