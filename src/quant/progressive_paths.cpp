// turbo-lint: integer-kernel
//
// The compiled paths of progressive_compress (quant/progressive_paths.h):
// the scalar channel loop and, on x86-64, its AVX-512 counterpart. Both
// are integer work end to end; progressive.cpp keeps the float scale.
#include "quant/progressive_paths.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/avx512.h"
#include "common/check.h"
#include "common/cpu.h"
#include "common/dispatch_table.h"
#include "common/numeric.h"
#include "quant/packing.h"

namespace turbo {

namespace {

ProgressiveBlock compress_scalar(const MatrixI8& q1, BitWidth bits) {
  const std::size_t rows = q1.rows();
  const std::size_t cols = q1.cols();
  ProgressiveBlock block;
  block.rows = rows;
  block.cols = cols;
  block.bits = bits;
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

#if defined(__x86_64__)

// scale_reciprocal(s) for s in [2, 127], each below 2^16. An s of 1 needs
// 2^16, one past a word; its code is n itself, so it needs no reciprocal.
constexpr std::array<std::uint16_t, 128> kReciprocals = [] {
  std::array<std::uint16_t, 128> t{};
  for (std::size_t s = 2; s < t.size(); ++s) {
    t[s] = static_cast<std::uint16_t>(scale_reciprocal(static_cast<int>(s)));
  }
  return t;
}();

// Thirty-two codes from the words n = q1 - z_int: min((n + s/2) * recip
// >> 16, top), by one vpmulhuw, which is that shift exactly for s >= 2;
// the lanes of ident (all of them when s = 1) keep n + s/2 itself.
__attribute__((target("avx2,f16c,avx512f,avx512bw,avx512vl,avx512vnni")))
inline __m512i code_words(__m512i n, __m512i half, __m512i recip,
                          __mmask32 ident, __m512i top) {
  const __m512i num = _mm512_add_epi16(n, half);
  return _mm512_min_epu16(
      _mm512_mask_mov_epi16(_mm512_mulhi_epu16(num, recip), ident, num), top);
}

// The codes of every channel of q1, packed into block.packed straight
// from registers, 64 columns and 64 rows at a time: kBits is 4 over an
// even row count or 2 over a multiple of four, so each channel's codes
// start on a byte. block.channels is written on the way. Per 64 columns:
//  - the extremes, a vertical byte min and max over every row, from 127
//    and -127 as the scalar loop starts;
//  - then per 64 rows, the rows' quads: four rows interleave by bytes,
//    then by words, so quads[k][q] holds rows 4q .. 4q + 3 of channel
//    16 L + 4 k + j in dword 4 L + j; a 16 x 16 dword transpose of
//    quads[k] leaves channel rows, 64 rows of one channel per register;
//  - per channel row, q1 - z_int in bytes (0 .. 255, so it cannot wrap),
//    widened to words, code_words, and the codes' bytes.
template <int kBits>
__attribute__((target("avx2,f16c,avx512f,avx512bw,avx512vl,avx512vnni")))
void compress_avx512(const MatrixI8& q1, ProgressiveBlock& block) {
  static_assert(kBits == 4 || kBits == 2);
  constexpr int kTop = (1 << kBits) - 1;
  const std::size_t rows = q1.rows();
  const std::size_t cols = q1.cols();
  const __m512i zero = _mm512_setzero_si512();
  const __m512i top = _mm512_set1_epi16(kTop);
  for (std::size_t c0 = 0; c0 < cols; c0 += 64) {
    const std::size_t width = std::min<std::size_t>(64, cols - c0);
    const __mmask64 in_chunk = byte_mask(width);
    const std::int8_t* src = q1.data() + c0;

    __m512i lo = _mm512_set1_epi8(127);
    __m512i hi = _mm512_set1_epi8(-127);
    for (std::size_t r = 0; r < rows; ++r) {
      const __m512i x = _mm512_maskz_loadu_epi8(in_chunk, src + r * cols);
      lo = _mm512_min_epi8(lo, x);
      hi = _mm512_max_epi8(hi, x);
    }
    alignas(64) std::int8_t lo8[64];
    alignas(64) std::int8_t hi8[64];
    _mm512_store_si512(lo8, lo);
    _mm512_store_si512(hi8, hi);
    for (std::size_t i = 0; i < width; ++i) {
      const int s_int =
          std::max(1, (2 * (hi8[i] - lo8[i]) + kTop) / (2 * kTop));
      block.channels[c0 + i].s_int = clamp_to_i8(s_int);
      block.channels[c0 + i].z_int = lo8[i];
    }

    for (std::size_t r0 = 0; r0 < rows; r0 += 64) {
      const std::size_t n = std::min<std::size_t>(64, rows - r0);
      const std::size_t n_quads = (n + 3) / 4;
      alignas(64) std::uint32_t quads[4][16][16];
      for (std::size_t q = 0; q < n_quads; ++q) {
        __m512i x[4] = {};
        for (std::size_t j = 0; j < 4 && 4 * q + j < n; ++j) {
          x[j] = _mm512_maskz_loadu_epi8(in_chunk,
                                         src + (r0 + 4 * q + j) * cols);
        }
        const __m512i lo01 = _mm512_unpacklo_epi8(x[0], x[1]);
        const __m512i hi01 = _mm512_unpackhi_epi8(x[0], x[1]);
        const __m512i lo23 = _mm512_unpacklo_epi8(x[2], x[3]);
        const __m512i hi23 = _mm512_unpackhi_epi8(x[2], x[3]);
        _mm512_store_si512(quads[0][q], _mm512_unpacklo_epi16(lo01, lo23));
        _mm512_store_si512(quads[1][q], _mm512_unpackhi_epi16(lo01, lo23));
        _mm512_store_si512(quads[2][q], _mm512_unpacklo_epi16(hi01, hi23));
        _mm512_store_si512(quads[3][q], _mm512_unpackhi_epi16(hi01, hi23));
      }
      for (std::size_t k = 0; k < 4 && 4 * k < width; ++k) {
        __m512i x[16];
        for (std::size_t q = 0; q < 16; ++q) {
          x[q] = q < n_quads ? _mm512_load_si512(quads[k][q]) : zero;
        }
        transpose16x16_epi32(x);
        for (std::size_t p = 0; p < 16; ++p) {
          const std::size_t i = 16 * (p / 4) + 4 * k + p % 4;
          if (i >= width) continue;
          const std::size_t c = c0 + i;
          const int s_int = block.channels[c].s_int;
          const __m512i n8 =
              _mm512_sub_epi8(x[p], _mm512_set1_epi8(block.channels[c].z_int));
          const __m512i half =
              _mm512_set1_epi16(static_cast<short>(s_int / 2));
          const __m512i recip = _mm512_set1_epi16(static_cast<short>(
              kReciprocals[static_cast<std::size_t>(s_int)]));
          const __mmask32 ident = s_int == 1 ? ~__mmask32{0} : __mmask32{0};
          // Bytes in row order again: packus undoes the unpacks' order.
          const __m512i code8 = _mm512_packus_epi16(
              code_words(_mm512_unpacklo_epi8(n8, zero), half, recip, ident,
                         top),
              code_words(_mm512_unpackhi_epi8(n8, zero), half, recip, ident,
                         top));
          const std::size_t at = c * rows + r0;
          if constexpr (kBits == 4) {
            // Byte j = code 2j | code 2j+1 << 4.
            const __m256i packed = _mm512_cvtepi16_epi8(
                _mm512_maddubs_epi16(code8, _mm512_set1_epi16(0x1001)));
            _mm256_mask_storeu_epi8(
                block.packed.data() + at / 2,
                static_cast<__mmask32>(byte_mask(n / 2)), packed);
          } else {
            // Byte j = codes 4j .. 4j+3 at bits 0, 2, 4 and 6.
            const __m128i packed = _mm512_cvtepi32_epi8(_mm512_madd_epi16(
                _mm512_maddubs_epi16(code8, _mm512_set1_epi16(0x0401)),
                _mm512_set1_epi32(0x00100001)));
            _mm_mask_storeu_epi8(block.packed.data() + at / 4,
                                 static_cast<__mmask16>(byte_mask(n / 4)),
                                 packed);
          }
        }
      }
    }
  }
}

// The vector loop where every channel's codes start on a byte, INT4 over
// an even row count or INT2 over a multiple of four, as every prefill
// block and decode-buffer flush is; the scalar loop for INT3 and for the
// odd tiles that leave a channel's codes off a byte.
ProgressiveBlock compress_avx512_path(const MatrixI8& q1, BitWidth bits) {
  const std::size_t rows = q1.rows();
  const bool int4 = bits == BitWidth::kInt4 && rows % 2 == 0;
  const bool int2 = bits == BitWidth::kInt2 && rows % 4 == 0;
  if (!int4 && !int2) return compress_scalar(q1, bits);
  ProgressiveBlock block;
  block.rows = rows;
  block.cols = q1.cols();
  block.bits = bits;
  block.channels.resize(q1.cols());
  block.packed.resize(packed_byte_count(rows * q1.cols(), bits));
  if (int4) {
    compress_avx512<4>(q1, block);
  } else {
    compress_avx512<2>(q1, block);
  }
  return block;
}

#endif  // __x86_64__

}  // namespace

namespace detail {

std::span<const ProgressivePath> progressive_paths() {
  static const std::array kPaths = {
      ProgressivePath{"scalar", &compress_scalar, true},
#if defined(__x86_64__)
      ProgressivePath{"avx512", &compress_avx512_path, cpu_has_avx512vnni()},
#endif
  };
  return kPaths;
}

const ProgressivePath& progressive_path() {
  static const ProgressivePath& kPicked = last_supported(progressive_paths());
  return kPicked;
}

}  // namespace detail

}  // namespace turbo
