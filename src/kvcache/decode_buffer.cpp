#include "kvcache/decode_buffer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/numeric.h"

namespace turbo {

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
  for (std::size_t i = 0; i < dim_; ++i) {
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
