#include "common/fp16.h"

#include <bit>
#include <cstring>

namespace turbo {

std::uint16_t float_to_half_bits(float f) {
  const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t abs = x & 0x7fffffffu;

  if (abs >= 0x7f800000u) {
    // Inf or NaN. Preserve NaN-ness by setting a mantissa bit.
    const std::uint32_t mantissa = (abs > 0x7f800000u) ? 0x0200u : 0u;
    return static_cast<std::uint16_t>(sign | 0x7c00u | mantissa);
  }
  if (abs >= 0x477ff000u) {
    // Rounds to a value >= 2^16 - 2^4: overflow to infinity.
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  if (abs < 0x38800000u) {
    // Subnormal half (or zero). Shift the implicit bit into the mantissa.
    if (abs < 0x33000000u) {
      // Smaller than half the smallest subnormal: rounds to zero.
      return static_cast<std::uint16_t>(sign);
    }
    const std::uint32_t exp = abs >> 23;
    std::uint32_t mantissa = (abs & 0x007fffffu) | 0x00800000u;
    // The target subnormal code is round(value / 2^-24) = round(M * 2^(e-126))
    // with M the 24-bit mantissa, so drop (126 - e) bits, in [14, 24].
    const std::uint32_t dropped = 126u - exp;
    const std::uint32_t half_ulp = 1u << (dropped - 1);
    const std::uint32_t rem = mantissa & ((1u << dropped) - 1u);
    mantissa >>= dropped;
    if (rem > half_ulp || (rem == half_ulp && (mantissa & 1u))) {
      ++mantissa;
    }
    return static_cast<std::uint16_t>(sign | mantissa);
  }
  // Normal half. Re-bias the exponent (127 -> 15) and round the mantissa.
  std::uint32_t half = ((abs >> 13) & 0x3ffu) | (((abs >> 23) - 112u) << 10);
  const std::uint32_t rem = abs & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) {
    ++half;  // May carry into the exponent; that is correct rounding.
  }
  return static_cast<std::uint16_t>(sign | half);
}

float half_bits_to_float(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mantissa = h & 0x3ffu;

  std::uint32_t out;
  if (exp == 0) {
    if (mantissa == 0) {
      out = sign;  // +-0
    } else {
      // Subnormal: normalize into a float.
      int e = -1;
      std::uint32_t m = mantissa;
      while ((m & 0x400u) == 0) {
        m <<= 1;
        ++e;
      }
      m &= 0x3ffu;
      out = sign | ((112u - static_cast<std::uint32_t>(e)) << 23) | (m << 13);
    }
  } else if (exp == 0x1fu) {
    out = sign | 0x7f800000u | (mantissa << 13);  // Inf / NaN
  } else {
    out = sign | ((exp + 112u) << 23) | (mantissa << 13);
  }
  return std::bit_cast<float>(out);
}

void round_span_to_fp16(std::span<float> values) {
  for (float& v : values) {
    v = round_to_fp16(v);
  }
}

}  // namespace turbo
