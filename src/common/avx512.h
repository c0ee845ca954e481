// AVX-512 helpers shared by the second stage's vector path
// (quant/progressive_paths.cpp) and the fused kernels' AVX-512 builds
// (kernels/fused_decode_body.h, kernels/fused_prefill_body.h).
//
// A helper that uses intrinsics carries the narrowest target it needs, so
// it inlines into any caller built for a wider one: the second stage's
// target attributes and the kernels' target pragma alike. Include this
// header before a target pragma, as every other header.
#pragma once

#if defined(__x86_64__)

#include <cstddef>

// GCC 12's AVX-512 headers trip -Wmaybe-uninitialized and -Wuninitialized
// inside their own inline functions. The warning is located in the
// header, so only a pragma around the include silences it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

namespace turbo {

// All ones in the bytes [0, n) of a 64-byte vector.
inline __mmask64 byte_mask(std::size_t n) {
  return n >= 64 ? ~__mmask64{0} : (__mmask64{1} << n) - 1u;
}

// The 16 x 16 dword matrix r[0 .. 15] (row i is r[i]), transposed in
// place: dwords interleave within each 128-bit block, then qwords, which
// leaves r[4 b + j] with column 4 L + j of rows 4 b .. 4 b + 3 in block L;
// a 4 x 4 transpose of blocks across r[j], r[4 + j], r[8 + j], r[12 + j]
// finishes each column.
__attribute__((target("avx512f"))) inline void transpose16x16_epi32(
    __m512i* r) {
  __m512i t[16];
  for (std::size_t i = 0; i < 16; i += 2) {
    t[i] = _mm512_unpacklo_epi32(r[i], r[i + 1]);
    t[i + 1] = _mm512_unpackhi_epi32(r[i], r[i + 1]);
  }
  for (std::size_t i = 0; i < 16; i += 4) {
    r[i] = _mm512_unpacklo_epi64(t[i], t[i + 2]);
    r[i + 1] = _mm512_unpackhi_epi64(t[i], t[i + 2]);
    r[i + 2] = _mm512_unpacklo_epi64(t[i + 1], t[i + 3]);
    r[i + 3] = _mm512_unpackhi_epi64(t[i + 1], t[i + 3]);
  }
  for (std::size_t j = 0; j < 4; ++j) {
    const __m512i lo01 = _mm512_shuffle_i32x4(r[j], r[4 + j], 0x44);
    const __m512i hi01 = _mm512_shuffle_i32x4(r[j], r[4 + j], 0xEE);
    const __m512i lo23 = _mm512_shuffle_i32x4(r[8 + j], r[12 + j], 0x44);
    const __m512i hi23 = _mm512_shuffle_i32x4(r[8 + j], r[12 + j], 0xEE);
    r[j] = _mm512_shuffle_i32x4(lo01, lo23, 0x88);
    r[4 + j] = _mm512_shuffle_i32x4(lo01, lo23, 0xDD);
    r[8 + j] = _mm512_shuffle_i32x4(hi01, hi23, 0x88);
    r[12 + j] = _mm512_shuffle_i32x4(hi01, hi23, 0xDD);
  }
}

}  // namespace turbo

#endif  // __x86_64__
