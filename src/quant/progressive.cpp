#include "quant/progressive.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/numeric.h"
#include "quant/progressive_paths.h"

namespace turbo {

ProgressiveBlock progressive_compress(const MatrixI8& q1, float fp_scale,
                                      BitWidth bits) {
  TURBO_CHECK(bits == BitWidth::kInt2 || bits == BitWidth::kInt3 ||
              bits == BitWidth::kInt4);
  TURBO_CHECK(q1.rows() > 0 && q1.cols() > 0);
  TURBO_CHECK_FINITE(fp_scale);
  ProgressiveBlock block = detail::progressive_path().compress(q1, bits);
  block.fp_scale = fp_scale;
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
