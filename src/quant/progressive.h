// Second-stage (progressive) quantization: INT8 -> INT4/INT2, channel-wise,
// asymmetric, with *integer* scales and zero-points (Eq. 10 / Algorithm 1).
//
// This is what distinguishes FlashQ from float-domain KV quantizers: the
// payload stays in the integer domain end to end, so decode-time
// decompression is q1 = q2 * s_int + z_int — pure INT arithmetic that maps
// onto cheap integer instructions instead of the FP16 dequant kernels KIVI
// and GEAR require.
//
// Conventions (documented in DESIGN.md §6): per channel of an INT8 tile,
//   s_int = max(1, round((max - min) / (2^bits - 1)))  stored as int8
//   z_int = min                                        stored as int8
//   q2    = clamp(round((q1 - z_int) / s_int), 0, 2^bits - 1)
//   q1^   = clamp(q2 * s_int + z_int, -127, 127)
// When the gap is not divisible the channel's extreme values clip into the
// top code — cheaper on average than the uniform precision loss of a
// ceil() scale.
// The first-stage FP scale (s = max|x|/119) rides along so the block can be
// dequantized all the way to float when a reference value is needed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "quant/packing.h"
#include "quant/symmetric.h"
#include "quant/types.h"

namespace turbo {

// Integer quantization parameters for one channel of a block.
struct ChannelParams {
  std::int8_t s_int = 1;  // integer scale, >= 1
  std::int8_t z_int = 0;  // integer zero point (channel minimum)
};

// One KV tile compressed through both stages. `rows` is the token count of
// the tile (<= block size Bc), `cols` the head dimension.
struct ProgressiveBlock {
  std::size_t rows = 0;
  std::size_t cols = 0;
  BitWidth bits = BitWidth::kInt4;
  std::vector<std::uint8_t> packed;   // q2 codes, column-major per channel
  std::vector<ChannelParams> channels;  // one per column
  float fp_scale = 1.0f;              // first-stage symmetric scale

  std::size_t payload_bytes() const { return packed.size(); }
  // Per-channel (s_int, z_int) int8 pairs + one FP16 first-stage scale.
  std::size_t metadata_bytes() const { return channels.size() * 2 + 2; }
  std::size_t memory_bytes() const {
    return payload_bytes() + metadata_bytes();
  }
};

// Compress an INT8 tile (first-stage output) to the packed second-stage
// representation. Channel-wise: each column gets its own (s_int, z_int).
// The per-element division by s_int is a multiply by
// scale_reciprocal(s_int) and a shift; codes pack a whole byte at a time.
ProgressiveBlock progressive_compress(const MatrixI8& q1, float fp_scale,
                                      BitWidth bits);

// ceil(2^16 / s_int): (n * scale_reciprocal(s)) >> 16 == n / s for every
// s in [1, 127] and n in [0, 318]. The second stage divides n = q1 - z +
// s/2 <= 255 + 63 by such an s; progressive_quant_test checks every pair.
constexpr std::uint32_t scale_reciprocal(int s_int) {
  return static_cast<std::uint32_t>((65536 + s_int - 1) / s_int);
}

// Decompress back to INT8 using integer arithmetic only. This is the decode
// path of Algorithm 2 (Step 2 in Figure 3's decode flow).
MatrixI8 progressive_decompress_int8(const ProgressiveBlock& block);

// Decompress all the way to float: (q2 * s_int + z_int) * fp_scale.
MatrixF progressive_decompress_float(const ProgressiveBlock& block);

// Convenience: both stages at once. Quantizes `tile` symmetrically to INT8
// (per-block scale) then progressively to `bits`.
ProgressiveBlock progressive_compress_from_float(const MatrixF& tile,
                                                 BitWidth bits);

// --- Ablation variant: float second-stage scales ------------------------
//
// The design alternative FlashQ rejects: keep the channel-wise second
// stage but store *float* scales/zero-points (like KIVI), so decode must
// dequantize INT4/2 -> FP16 instead of INT -> INT8. Slightly lower
// quantization error (no integer rounding of the scale), but it forfeits
// the integer decode path. Used by bench_ablation_design to quantify the
// accuracy price of integer scales.
struct FloatScaleChannel {
  float scale = 1.0f;
  float zero = 0.0f;
};

struct FloatScaleBlock {
  std::size_t rows = 0;
  std::size_t cols = 0;
  BitWidth bits = BitWidth::kInt4;
  std::vector<std::uint8_t> packed;  // column-major codes
  std::vector<FloatScaleChannel> channels;
  float fp_scale = 1.0f;

  // Payload + per-channel (scale, zero) as FP16 pairs + the block scale.
  std::size_t memory_bytes() const {
    return packed.size() + channels.size() * 4 + 2;
  }
};

FloatScaleBlock float_scale_compress(const MatrixI8& q1, float fp_scale,
                                     BitWidth bits);

MatrixF float_scale_decompress_float(const FloatScaleBlock& block);

}  // namespace turbo
