// Software emulation of IEEE-754 binary16 ("half", FP16).
//
// TurboAttention's GPU kernels run matmuls in FP16 on tensor cores and, in
// the FlashAttention baseline, exponentiation in FP32 on CUDA cores. On a
// CPU-only substrate we reproduce the *numerics* of those choices by
// rounding values through binary16 at exactly the points where the GPU
// kernels would hold them in half precision. There is no half value type:
// the functions below round a float, or a buffer of them, through binary16
// and the arithmetic around them stays in FP32.
#pragma once

#include <cstdint>
#include <span>

namespace turbo {

// Convert a float to the nearest binary16 bit pattern (round-to-nearest-even,
// with overflow to infinity and gradual underflow to subnormals).
std::uint16_t float_to_half_bits(float f);

// Convert a binary16 bit pattern back to float (exact).
float half_bits_to_float(std::uint16_t h);

// Round a float through binary16 precision: encode then decode.
inline float round_to_fp16(float f) {
  return half_bits_to_float(float_to_half_bits(f));
}

// Round every element of a buffer through binary16 in place. Used to model
// tensors that a GPU kernel would store in half precision (e.g. Q/K/V tiles
// loaded into shared memory as FP16).
void round_span_to_fp16(std::span<float> values);

// Largest finite binary16 value.
inline constexpr float kFp16Max = 65504.0f;

}  // namespace turbo
