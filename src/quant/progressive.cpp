#include "quant/progressive.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/numeric.h"

namespace turbo {

ProgressiveBlock progressive_compress(const MatrixI8& q1, float fp_scale,
                                      BitWidth bits) {
  TURBO_CHECK(bits == BitWidth::kInt2 || bits == BitWidth::kInt3 ||
              bits == BitWidth::kInt4);
  TURBO_CHECK(q1.rows() > 0 && q1.cols() > 0);
  TURBO_CHECK_FINITE(fp_scale);

  const std::size_t rows = q1.rows();
  const std::size_t cols = q1.cols();
  ProgressiveBlock block;
  block.rows = rows;
  block.cols = cols;
  block.bits = bits;
  block.fp_scale = fp_scale;
  block.channels.resize(cols);

  // Channel extremes, row by row so the inner loop runs along memory.
  std::vector<std::int8_t> lo(cols, 127);
  std::vector<std::int8_t> hi(cols, -127);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int8_t* row = q1.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      lo[c] = std::min(lo[c], row[c]);
      hi[c] = std::max(hi[c], row[c]);
    }
  }

  const int codes_hi = max_code(bits);
  std::vector<std::uint8_t> codes(rows * cols);
  for (std::size_t c = 0; c < cols; ++c) {
    const int gap = hi[c] - lo[c];
    // Algorithm 1 rounds the integer scale to nearest; values past
    // max_code * s_int clip into the top code (rare, only the channel's
    // extreme when the gap isn't divisible), which beats the systematic
    // precision loss a ceil() scale would impose on every element.
    const int s_int = std::max(1, (2 * gap + codes_hi) / (2 * codes_hi));
    TURBO_DCHECK(s_int <= 127);
    block.channels[c].s_int = clamp_to_i8(s_int);
    block.channels[c].z_int = lo[c];

    // Integer round-to-nearest of (q1 - z) / s: add s/2, then divide, by
    // the exact reciprocal multiply (q1 - z <= 255, s/2 <= 63).
    const std::uint32_t recip = scale_reciprocal(s_int);
    const int bias = s_int / 2 - lo[c];
    std::uint8_t* out = codes.data() + c * rows;
    for (std::size_t r = 0; r < rows; ++r) {
      const auto num = static_cast<std::uint32_t>(q1(r, c) + bias);
      out[r] = saturate_cast<std::uint8_t>(
          std::min((num * recip) >> 16, static_cast<std::uint32_t>(codes_hi)));
    }
  }
  block.packed = pack_codes(codes, bits);
  return block;
}

// progressive_decompress_int8 lives in int_decode.cpp (tagged
// `integer-kernel` so turbo_lint keeps the decode path float-free).

MatrixF progressive_decompress_float(const ProgressiveBlock& block) {
  const MatrixI8 q1 = progressive_decompress_int8(block);
  MatrixF out(block.rows, block.cols);
  for (std::size_t i = 0; i < q1.size(); ++i) {
    out.flat()[i] = static_cast<float>(q1.flat()[i]) * block.fp_scale;
  }
  return out;
}

ProgressiveBlock progressive_compress_from_float(const MatrixF& tile,
                                                 BitWidth bits) {
  const Int8Tile stage1 = quantize_tile_int8(tile);
  return progressive_compress(stage1.q, stage1.scale, bits);
}

FloatScaleBlock float_scale_compress(const MatrixI8& q1, float fp_scale,
                                     BitWidth bits) {
  TURBO_CHECK(bits == BitWidth::kInt2 || bits == BitWidth::kInt3 ||
              bits == BitWidth::kInt4);
  TURBO_CHECK(q1.rows() > 0 && q1.cols() > 0);

  FloatScaleBlock block;
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
    FloatScaleChannel& ch = block.channels[c];
    ch.zero = static_cast<float>(lo);
    ch.scale = hi > lo
                   ? static_cast<float>(hi - lo) / static_cast<float>(codes_hi)
                   : 1.0f;
    for (std::size_t r = 0; r < q1.rows(); ++r) {
      const float q = std::nearbyint(
          (static_cast<float>(q1(r, c)) - ch.zero) / ch.scale);
      codes[c * q1.rows() + r] = saturate_cast<std::uint8_t>(
          std::clamp(q, 0.0f, static_cast<float>(codes_hi)));
    }
  }
  block.packed = pack_codes(codes, bits);
  return block;
}

MatrixF float_scale_decompress_float(const FloatScaleBlock& block) {
  MatrixF out(block.rows, block.cols);
  const std::vector<std::uint8_t> codes =
      unpack_codes(block.packed, block.bits, block.rows * block.cols);
  for (std::size_t c = 0; c < block.cols; ++c) {
    const FloatScaleChannel& ch = block.channels[c];
    for (std::size_t r = 0; r < block.rows; ++r) {
      const float q1 =
          static_cast<float>(codes[c * block.rows + r]) * ch.scale + ch.zero;
      out(r, c) = q1 * block.fp_scale;
    }
  }
  return out;
}

}  // namespace turbo
