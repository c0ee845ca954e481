// Body of the fused TurboAttention decode kernel, compiled once per
// instruction set.
//
// It has no include guard: kernels/fused_kernels.cpp includes it in
// namespace detail::baseline_isa (kSimd = false, kAvx512 = false) and in
// detail::avx2_isa (kSimd = true) under `#pragma GCC target("avx2,f16c")`,
// and kernels/fused_kernels_avx512.cpp in detail::avx512vnni_isa (both
// true) under the AVX-512 VNNI target. Those files include every header
// this body uses before the pragma, so no standard-library code is
// compiled for a wider instruction set. Helpers that use intrinsics take
// only pointers, scalars and masks, so a narrower copy never emits them.
//
// The result is bit-identical to turbo_attention_decode, the reference in
// attention/turbo_decode.cpp. Every build runs the reference's arithmetic:
//
//   * the second stage is reversed through a per-channel table of
//     clamp(code * s_int + z_int, -127, 127), the values
//     progressive_decompress_int8 produces (the AVX2 build expands 32
//     codes per shuffle);
//   * q.k is an exact int32 dot product, so its order is free: K is read
//     channel by channel (four at a time on vpdpbusd), the buffered tail
//     row by row;
//   * V tiles become token-major INT8 rows like the reference's matrix
//     (the AVX2 build transposes 16x32 tiles in registers);
//   * the scores, SAS (Sas::apply, bit-identical to exp_neg), the running
//     sum and the P~ quantization follow the reference token by token;
//   * each output channel adds float(p_q * v) * o_scale over the tokens
//     with p_q != 0 in token order; SIMD lanes are channels, never tokens,
//     and float(p_q) * float(v) is that integer product exactly.
//
// The stage-1 quantizer (stage1), row_dots, live_codes and pv also serve
// the prefill body (kernels/fused_prefill_body.h), included after this
// one.
//
// The enclosing namespace provides `constexpr bool kSimd` and `kAvx512`.

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// Codes one table shuffle expands, and the token granularity of a tile's
// expanded rows.
constexpr std::size_t kChunk = 32;
// Tokens per step of tile_dots_vnni, whose 64-byte code reads run up to
// 63 bytes past the last channel: the slack after Scratch::codes.
constexpr std::size_t kVnniChunk = 64;
// Entries per channel table (codes are at most 4 bits).
constexpr std::size_t kTable = 16;

struct DecodeState {
  float m = kNegInf;
  float l = 0.0f;
  std::vector<float> o;  // unnormalized output
};

// Buffers reused by every chunk of one call.
struct Scratch {
  std::vector<std::uint8_t> codes;   // one tile's codes, channel-major
  std::vector<std::int8_t> tables;   // [channel][kTable] code -> INT8
  std::vector<std::int8_t> v_rows;   // expanded V tile, token-major
  std::vector<std::int32_t> dots;    // q.k per token
  std::vector<float> p;              // scores, then P~
  std::vector<std::uint32_t> live;   // tokens whose quantized P~ is not 0
  std::vector<std::int32_t> p_q;     // their quantized P~
};

inline std::int32_t q_sum(const std::int8_t* q, std::size_t n) {
  std::int32_t sum = 0;
  for (std::size_t c = 0; c < n; ++c) sum += q[c];
  return sum;
}

#if defined(__x86_64__)

// Token order of the transposed registers: after four interleave rounds
// register r holds token kBitReverse[r] (bits of r reversed).
constexpr std::array<std::size_t, 16> kBitReverse = {
    0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15};

// Expand 16 channels x 32 tokens: channel j's codes start at
// codes + j * code_stride, its table at tables + j * kTable. Token t's 16
// values go to rows + t * row_stride.
inline void expand_transpose_avx2(const std::uint8_t* codes,
                                  std::size_t code_stride,
                                  const std::int8_t* tables,
                                  std::int8_t* rows, std::size_t row_stride) {
  __m256i a[16] = {};
  __m256i b[16] = {};
  for (std::size_t j = 0; j < 16; ++j) {
    const __m256i table = _mm256_broadcastsi128_si256(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(tables + j * kTable)));
    const __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(codes + j * code_stride));
    a[j] = _mm256_shuffle_epi8(table, idx);
  }
  // Each 128-bit lane holds a 16x16 byte matrix (channels x tokens 0-15,
  // tokens 16-31 in the upper lane); four interleave rounds transpose it.
  for (std::size_t j = 0; j < 8; ++j) {
    b[j] = _mm256_unpacklo_epi8(a[2 * j], a[2 * j + 1]);
    b[j + 8] = _mm256_unpackhi_epi8(a[2 * j], a[2 * j + 1]);
  }
  for (std::size_t j = 0; j < 8; ++j) {
    a[j] = _mm256_unpacklo_epi16(b[2 * j], b[2 * j + 1]);
    a[j + 8] = _mm256_unpackhi_epi16(b[2 * j], b[2 * j + 1]);
  }
  for (std::size_t j = 0; j < 8; ++j) {
    b[j] = _mm256_unpacklo_epi32(a[2 * j], a[2 * j + 1]);
    b[j + 8] = _mm256_unpackhi_epi32(a[2 * j], a[2 * j + 1]);
  }
  for (std::size_t j = 0; j < 8; ++j) {
    a[j] = _mm256_unpacklo_epi64(b[2 * j], b[2 * j + 1]);
    a[j + 8] = _mm256_unpackhi_epi64(b[2 * j], b[2 * j + 1]);
  }
  for (std::size_t r = 0; r < 16; ++r) {
    const std::size_t t = kBitReverse[r];
    _mm_storeu_si128(reinterpret_cast<__m128i*>(rows + t * row_stride),
                     _mm256_castsi256_si128(a[r]));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(rows + (t + 16) * row_stride),
        _mm256_extracti128_si256(a[r], 1));
  }
}

// tables[c * kTable + i] = clamp(i * s_int + z_int, -127, 127) for every
// channel: exact in int16 (|i * s + z| <= 2048), then saturated to int8
// and raised to -127.
inline void tables_avx2(const ChannelParams* channels, std::size_t d,
                        std::int8_t* tables) {
  const __m128i lo = _mm_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7);
  const __m128i hi = _mm_setr_epi16(8, 9, 10, 11, 12, 13, 14, 15);
  const __m128i floor = _mm_set1_epi8(-127);
  for (std::size_t c = 0; c < d; ++c) {
    const __m128i s = _mm_set1_epi16(channels[c].s_int);
    const __m128i z = _mm_set1_epi16(channels[c].z_int);
    const __m128i v =
        _mm_packs_epi16(_mm_add_epi16(_mm_mullo_epi16(lo, s), z),
                        _mm_add_epi16(_mm_mullo_epi16(hi, s), z));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(tables + c * kTable),
                     _mm_max_epi8(v, floor));
  }
}

// dots[t] = q . K[t] for t < padded (a multiple of 32), K read channel
// by channel: 32 codes through the channel's table, their int8 values
// split into even and odd tokens' int16, and multiplied by q (q_pairs
// holds q in the low, then the high, half of a 32-bit lane). Accumulator
// r, lane i collects token 4i + r of the chunk.
inline void tile_dots_avx2(const std::int32_t* q_pairs,
                           const std::uint8_t* codes, std::size_t stride,
                           std::size_t d, const std::int8_t* tables,
                           std::int32_t* dots, std::size_t padded) {
  alignas(32) std::int32_t lanes[4][8] = {};
  for (std::size_t t0 = 0; t0 < padded; t0 += kChunk) {
    __m256i acc[4] = {};
    for (std::size_t c = 0; c < d; ++c) {
      const __m256i table = _mm256_broadcastsi128_si256(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(tables + c * kTable)));
      const __m256i k8 = _mm256_shuffle_epi8(
          table, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                     codes + c * stride + t0)));
      const __m256i even = _mm256_srai_epi16(_mm256_slli_epi16(k8, 8), 8);
      const __m256i odd = _mm256_srai_epi16(k8, 8);
      const __m256i q_lo = _mm256_set1_epi32(q_pairs[2 * c]);
      const __m256i q_hi = _mm256_set1_epi32(q_pairs[2 * c + 1]);
      acc[0] = _mm256_add_epi32(acc[0], _mm256_madd_epi16(even, q_lo));
      acc[1] = _mm256_add_epi32(acc[1], _mm256_madd_epi16(odd, q_lo));
      acc[2] = _mm256_add_epi32(acc[2], _mm256_madd_epi16(even, q_hi));
      acc[3] = _mm256_add_epi32(acc[3], _mm256_madd_epi16(odd, q_hi));
    }
    for (std::size_t r = 0; r < 4; ++r) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[r]), acc[r]);
    }
    for (std::size_t i = 0; i < 8; ++i) {
      for (std::size_t r = 0; r < 4; ++r) dots[t0 + 4 * i + r] = lanes[r][i];
    }
  }
}

// dots[t] = q . rows[t] over columns [0, cols), cols a multiple of 32.
// |k| times q with k's sign keeps every byte product in range (k may be
// -128, q never is) and every pair sum below 2^15.
inline void dots_avx2(const std::int8_t* q, const std::int8_t* rows,
                      std::size_t stride, std::size_t cols,
                      std::size_t tokens, std::int32_t* dots) {
  const __m256i ones = _mm256_set1_epi16(1);
  for (std::size_t t = 0; t < tokens; ++t) {
    const std::int8_t* row = rows + t * stride;
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t c = 0; c < cols; c += 32) {
      const __m256i k =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + c));
      const __m256i qv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + c));
      const __m256i pairs =
          _mm256_maddubs_epi16(_mm256_abs_epi8(k), _mm256_sign_epi8(qv, k));
      acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
    }
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4E));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xB1));
    dots[t] = _mm_cvtsi128_si32(s);
  }
}

// dots_avx2 for four rows at a time: the four accumulators share one
// horizontal reduction.
inline void dots4_avx2(const std::int8_t* q, const std::int8_t* rows,
                       std::size_t stride, std::size_t cols,
                       std::size_t tokens, std::int32_t* dots) {
  const __m256i ones = _mm256_set1_epi16(1);
  std::size_t t = 0;
  for (; t + 4 <= tokens; t += 4) {
    __m256i acc[4] = {};
    for (std::size_t c = 0; c < cols; c += 32) {
      const __m256i qv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + c));
      for (std::size_t r = 0; r < 4; ++r) {
        const __m256i k = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(rows + (t + r) * stride + c));
        const __m256i pairs = _mm256_maddubs_epi16(_mm256_abs_epi8(k),
                                                   _mm256_sign_epi8(qv, k));
        acc[r] = _mm256_add_epi32(acc[r], _mm256_madd_epi16(pairs, ones));
      }
    }
    // Lane i of each 128-bit half ends up holding part of row t + i.
    const __m256i h = _mm256_hadd_epi32(_mm256_hadd_epi32(acc[0], acc[1]),
                                        _mm256_hadd_epi32(acc[2], acc[3]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dots + t),
                     _mm_add_epi32(_mm256_castsi256_si128(h),
                                   _mm256_extracti128_si256(h, 1)));
  }
  dots_avx2(q, rows + t * stride, stride, cols, tokens - t, dots + t);
}

// std::max(init, x[i]) over i < n (of |x[i]| when `abs`), n a multiple
// of 8. _mm256_max_ps returns its second operand when either is NaN, so a
// NaN x[i] leaves the running max alone, as std::max(m, NaN) does.
inline float max_avx2(const float* x, std::size_t n, float init, bool abs) {
  const __m256 keep =
      _mm256_castsi256_ps(_mm256_set1_epi32(abs ? 0x7FFFFFFF : -1));
  __m256 acc = _mm256_set1_ps(init);
  for (std::size_t i = 0; i < n; i += 8) {
    acc = _mm256_max_ps(_mm256_and_ps(_mm256_loadu_ps(x + i), keep), acc);
  }
  alignas(32) float lanes[8] = {};
  _mm256_store_ps(lanes, acc);
  float m = init;
  for (const float v : lanes) m = std::max(m, v);
  return m;
}

// out[i] = clamp(round(x[i] * inv), lo, hi) for i < n, n a multiple of 8,
// as int32: the value clamp_to_i8(x[i] * inv, lo, hi) returns. Rounding
// follows the current direction, like std::nearbyint. NaN lanes become 0
// before the clamp, since _mm256_max_ps would return the bound for them.
inline void round_clamp_avx2(const float* x, std::size_t n, float inv,
                             float lo, float hi, std::int32_t* out) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vhi = _mm256_set1_ps(hi);
  for (std::size_t i = 0; i < n; i += 8) {
    const __m256 y = _mm256_mul_ps(_mm256_loadu_ps(x + i), vinv);
    const __m256 r = _mm256_and_ps(
        _mm256_round_ps(y, _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC),
        _mm256_cmp_ps(y, y, _CMP_ORD_Q));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_cvtps_epi32(_mm256_min_ps(_mm256_max_ps(r, vlo), vhi)));
  }
}

// Stage-1 codes, clamp_to_i8(x[i] * inv) for i < n (n a multiple of 32),
// 32 per step: four rounded int32 vectors packed to bytes.
inline void stage1_codes_avx2(const float* x, std::size_t n, float inv,
                              std::int8_t* out) {
  alignas(32) std::int32_t c[32] = {};
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  for (std::size_t i = 0; i < n; i += 32) {
    round_clamp_avx2(x + i, 32, inv, -127.0f, 127.0f, c);
    __m256i g[4] = {};
    for (std::size_t j = 0; j < 4; ++j) {
      g[j] = _mm256_load_si256(reinterpret_cast<const __m256i*>(c + 8 * j));
    }
    // packs works within 128-bit halves; the permute restores the order.
    const __m256i bytes = _mm256_packs_epi16(_mm256_packs_epi32(g[0], g[1]),
                                             _mm256_packs_epi32(g[2], g[3]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_permutevar8x32_epi32(bytes, order));
  }
}

// o[c] += float(p_q * rows[t][c]) * o_scale over the live tokens, in
// token order, for columns [0, cols), cols a multiple of 8. Four column
// groups run side by side so their add chains overlap.
inline void pv_avx2(float* o, const std::int8_t* rows, std::size_t stride,
                    std::size_t cols, const std::uint32_t* live,
                    const std::int32_t* p_q, std::size_t n_live,
                    float o_scale) {
  const __m256 os = _mm256_set1_ps(o_scale);
  std::size_t c = 0;
  for (; c + 32 <= cols; c += 32) {
    __m256 acc[4] = {};
    for (std::size_t g = 0; g < 4; ++g) acc[g] = _mm256_loadu_ps(o + c + 8 * g);
    for (std::size_t i = 0; i < n_live; ++i) {
      const std::int8_t* v = rows + live[i] * stride + c;
      const __m256 pv = _mm256_set1_ps(static_cast<float>(p_q[i]));
      for (std::size_t g = 0; g < 4; ++g) {
        const __m256 vf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(v + 8 * g))));
        acc[g] = _mm256_add_ps(acc[g],
                               _mm256_mul_ps(_mm256_mul_ps(vf, pv), os));
      }
    }
    for (std::size_t g = 0; g < 4; ++g) _mm256_storeu_ps(o + c + 8 * g, acc[g]);
  }
  for (; c < cols; c += 8) {
    __m256 acc = _mm256_loadu_ps(o + c);
    for (std::size_t i = 0; i < n_live; ++i) {
      const __m256 vf = _mm256_cvtepi32_ps(
          _mm256_cvtepi8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(
              rows + live[i] * stride + c))));
      const __m256 pv = _mm256_set1_ps(static_cast<float>(p_q[i]));
      acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_mul_ps(vf, pv), os));
    }
    _mm256_storeu_ps(o + c, acc);
  }
}

// --- AVX-512 VNNI (the kAvx512 build) ----------------------------------
//
// vpdpbusd multiplies the unsigned bytes of one operand by the signed
// bytes of the other and adds each lane's four products into its int32,
// with no int16 saturation on the way (maddubs has one). K goes in as the
// unsigned operand, k ^ 0x80 = k + 128 (exact for k = -128 too), q as the
// signed one; a dot is then sum((k + 128) * q) - 128 * sum(q), exact in
// int32.

// All ones in the lanes [0, n) of a 16-lane vector.
inline __mmask16 lane_mask(std::size_t n) {
  return n >= 16 ? __mmask16{0xFFFF}
                 : static_cast<__mmask16>((1u << n) - 1u);
}

// dots[t] = q . K[lo + t] for t < n from a K tile in quad-major layout:
// quads[c4 * stride + t] holds key t's channels 4 c4 .. 4 c4 + 3, each
// as k + 128 (see k_quads in the prefill body). One vpdpbusd covers four
// channels of sixteen keys against q's four bytes there (q4[c4]), so the
// lanes are keys and nothing needs a horizontal sum. Reads run up to 63
// keys past lo + n, which stride must hold.
inline void quad_dots_vnni(const std::int32_t* q4, std::int32_t q_total,
                           const std::uint32_t* quads, std::size_t stride,
                           std::size_t d4, std::size_t lo, std::size_t n,
                           std::int32_t* dots) {
  const __m512i offset = _mm512_set1_epi32(128 * q_total);
  for (std::size_t t0 = 0; t0 < n; t0 += 64) {
    __m512i acc[4] = {};
    for (std::size_t c4 = 0; c4 < d4; ++c4) {
      const __m512i qv = _mm512_set1_epi32(q4[c4]);
      const std::uint32_t* keys = quads + c4 * stride + lo + t0;
      for (std::size_t j = 0; j < 4; ++j) {
        acc[j] = _mm512_dpbusd_epi32(acc[j], _mm512_loadu_si512(keys + 16 * j),
                                     qv);
      }
    }
    for (std::size_t j = 0; j < 4 && t0 + 16 * j < n; ++j) {
      _mm512_mask_storeu_epi32(dots + t0 + 16 * j, lane_mask(n - t0 - 16 * j),
                               _mm512_sub_epi32(acc[j], offset));
    }
  }
}

// tile_dots_avx2 with vpdpbusd: dots[t] = q . K[t] for t < padded (a
// multiple of 64), K read four channels at a time. Each channel's 64
// codes go through its table and become k + 128; interleaving bytes, then
// words, leaves one token's four channels in each 32-bit lane, against
// those channels' q bytes (q_quads holds them, zero past d). Accumulator
// j, lane (L, i) then holds token 16L + 4j + i, and four 128-bit block
// shuffles put the tokens in order. A group past d repeats channel d - 1
// under a zero q byte.
inline void tile_dots_vnni(const std::int32_t* q_quads, std::int32_t q_total,
                           const std::uint8_t* codes, std::size_t stride,
                           std::size_t d, const std::int8_t* tables,
                           std::int32_t* dots, std::size_t padded) {
  const __m512i flip = _mm512_set1_epi8(-128);
  const __m512i offset = _mm512_set1_epi32(128 * q_total);
  for (std::size_t t0 = 0; t0 < padded; t0 += 64) {
    __m512i acc[4] = {};
    for (std::size_t c = 0; c < d; c += 4) {
      __m512i k[4] = {};
      for (std::size_t j = 0; j < 4; ++j) {
        const std::size_t ch = std::min(c + j, d - 1);
        const __m512i table = _mm512_broadcast_i32x4(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(tables + ch * kTable)));
        k[j] = _mm512_xor_si512(
            _mm512_shuffle_epi8(table, _mm512_loadu_si512(
                                           codes + ch * stride + t0)),
            flip);
      }
      const __m512i qv = _mm512_set1_epi32(q_quads[c / 4]);
      const __m512i lo01 = _mm512_unpacklo_epi8(k[0], k[1]);
      const __m512i hi01 = _mm512_unpackhi_epi8(k[0], k[1]);
      const __m512i lo23 = _mm512_unpacklo_epi8(k[2], k[3]);
      const __m512i hi23 = _mm512_unpackhi_epi8(k[2], k[3]);
      acc[0] = _mm512_dpbusd_epi32(acc[0], _mm512_unpacklo_epi16(lo01, lo23),
                                   qv);
      acc[1] = _mm512_dpbusd_epi32(acc[1], _mm512_unpackhi_epi16(lo01, lo23),
                                   qv);
      acc[2] = _mm512_dpbusd_epi32(acc[2], _mm512_unpacklo_epi16(hi01, hi23),
                                   qv);
      acc[3] = _mm512_dpbusd_epi32(acc[3], _mm512_unpackhi_epi16(hi01, hi23),
                                   qv);
    }
    const __m512i t01a = _mm512_shuffle_i32x4(acc[0], acc[1], 0x44);
    const __m512i t01b = _mm512_shuffle_i32x4(acc[0], acc[1], 0xEE);
    const __m512i t23a = _mm512_shuffle_i32x4(acc[2], acc[3], 0x44);
    const __m512i t23b = _mm512_shuffle_i32x4(acc[2], acc[3], 0xEE);
    const __m512i ordered[4] = {_mm512_shuffle_i32x4(t01a, t23a, 0x88),
                                _mm512_shuffle_i32x4(t01a, t23a, 0xDD),
                                _mm512_shuffle_i32x4(t01b, t23b, 0x88),
                                _mm512_shuffle_i32x4(t01b, t23b, 0xDD)};
    for (std::size_t L = 0; L < 4; ++L) {
      _mm512_storeu_si512(dots + t0 + 16 * L,
                          _mm512_sub_epi32(ordered[L], offset));
    }
  }
}

// N vectors of pv_avx512's columns [c, c + 16 N); the last one takes only
// the lanes in `last`.
template <std::size_t N>
inline void pv_vectors_avx512(float* o, const std::int8_t* rows,
                              std::size_t stride, std::size_t c,
                              const std::uint32_t* live,
                              const std::int32_t* p_q, std::size_t n_live,
                              float o_scale, __mmask16 last) {
  const __m512 os = _mm512_set1_ps(o_scale);
  __m512 acc[N] = {};
  for (std::size_t g = 0; g < N; ++g) {
    acc[g] = _mm512_maskz_loadu_ps(g + 1 < N ? __mmask16{0xFFFF} : last,
                                   o + c + 16 * g);
  }
  for (std::size_t i = 0; i < n_live; ++i) {
    const std::int8_t* v = rows + live[i] * stride + c;
    const __m512 pv = _mm512_set1_ps(static_cast<float>(p_q[i]));
    for (std::size_t g = 0; g < N; ++g) {
      const __m512 vf = _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(
          _mm_maskz_loadu_epi8(g + 1 < N ? __mmask16{0xFFFF} : last,
                               v + 16 * g)));
      acc[g] = _mm512_add_ps(acc[g], _mm512_mul_ps(_mm512_mul_ps(vf, pv), os));
    }
  }
  for (std::size_t g = 0; g < N; ++g) {
    _mm512_mask_storeu_ps(o + c + 16 * g,
                          g + 1 < N ? __mmask16{0xFFFF} : last, acc[g]);
  }
}

// pv_avx2 on sixteen columns per vector, for every column: 128 columns
// (eight add chains) per pass, then 64, then 16 at a time, the last
// partial vector masked.
inline void pv_avx512(float* o, const std::int8_t* rows, std::size_t stride,
                      std::size_t cols, const std::uint32_t* live,
                      const std::int32_t* p_q, std::size_t n_live,
                      float o_scale) {
  std::size_t c = 0;
  for (; c + 128 <= cols; c += 128) {
    pv_vectors_avx512<8>(o, rows, stride, c, live, p_q, n_live, o_scale,
                         0xFFFF);
  }
  for (; c + 64 <= cols; c += 64) {
    pv_vectors_avx512<4>(o, rows, stride, c, live, p_q, n_live, o_scale,
                         0xFFFF);
  }
  for (; c < cols; c += 16) {
    pv_vectors_avx512<1>(o, rows, stride, c, live, p_q, n_live, o_scale,
                         lane_mask(cols - c));
  }
}

// live_codes on sixteen keys per step: clamp_to_i8(p * inv_p, 0, 127),
// then compress the nonzero lanes' key indices and codes (vpcompressd) to
// the front of live and p_q. The clamp runs before the rounding: its
// bounds are integers, so the two commute in any rounding direction, and
// _mm512_max_ps returns its second operand, 0, for a NaN lane. Each step
// stores a whole vector, so live and p_q hold n + 16 entries.
inline std::size_t live_codes_avx512(const float* p, std::size_t n,
                                     float inv_p, std::size_t first,
                                     std::uint32_t* live,
                                     std::int32_t* p_q) {
  const __m512 vinv = _mm512_set1_ps(inv_p);
  const __m512 hi = _mm512_set1_ps(127.0f);
  const __m512 zero = _mm512_setzero_ps();
  __m512i key = _mm512_add_epi32(
      _mm512_set1_epi32(static_cast<std::int32_t>(first)),
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                        15));
  std::size_t n_live = 0;
  for (std::size_t t = 0; t < n; t += 16) {
    const __mmask16 lanes = lane_mask(n - t);
    const __m512 y = _mm512_mul_ps(_mm512_maskz_loadu_ps(lanes, p + t), vinv);
    const __m512i code =
        _mm512_cvtps_epi32(_mm512_min_ps(_mm512_max_ps(y, zero), hi));
    const __mmask16 keep =
        _mm512_mask_cmpneq_epi32_mask(lanes, code, _mm512_setzero_si512());
    _mm512_storeu_si512(live + n_live, _mm512_maskz_compress_epi32(keep, key));
    _mm512_storeu_si512(p_q + n_live, _mm512_maskz_compress_epi32(keep, code));
    n_live += static_cast<std::size_t>(std::popcount(keep));
    key = _mm512_add_epi32(key, _mm512_set1_epi32(16));
  }
  return n_live;
}

#endif  // __x86_64__

// Stage-1 symmetric INT8 quantization of x into out, returning the scale:
// the scale and codes symmetric_scale_int8 + quantize_symmetric_int8
// produce (quantize_tile_int8 on a whole tile), bit for bit. The max is
// order-free (every |x| is +0 or more, and NaN is skipped either way).
inline float stage1(std::span<const float> x, std::span<std::int8_t> out) {
  const std::size_t n = x.size();
  float amax = 0.0f;
  std::size_t i0 = 0;
#if defined(__x86_64__)
  if constexpr (kSimd) {
    i0 = n - n % 8;
    amax = max_avx2(x.data(), i0, 0.0f, true);
  }
#endif
  for (std::size_t i = i0; i < n; ++i) amax = std::max(amax, std::abs(x[i]));
  TURBO_CHECK_FINITE(amax);
  const float scale = amax == 0.0f ? 1.0f : amax / kSymmetricHeadroom;
  TURBO_CHECK(scale > 0.0f);
  const float inv = 1.0f / scale;
  i0 = 0;
#if defined(__x86_64__)
  if constexpr (kSimd) {
    i0 = n - n % 32;
    stage1_codes_avx2(x.data(), i0, inv, out.data());
  }
#endif
  for (std::size_t i = i0; i < n; ++i) out[i] = clamp_to_i8(x[i] * inv);
  return scale;
}

// Unpack one tile's codes (channel-major) and build each channel's table
// of second-stage values, clamp(code * s_int + z_int, -127, 127): the
// values progressive_decompress_int8 produces.
inline void load_tile(const ProgressiveBlock& block, Scratch& w) {
  const std::size_t n = block.rows * block.cols;
  // Slack for the last channel's final 64-code read.
  w.codes.resize(n + kVnniChunk);
  unpack_codes(block.packed, block.bits, n, w.codes);
  w.tables.resize(block.cols * kTable);
  std::size_t c0 = 0;
#if defined(__x86_64__)
  if constexpr (kSimd) {
    c0 = block.cols;
    tables_avx2(block.channels.data(), block.cols, w.tables.data());
  }
#endif
  for (std::size_t c = c0; c < block.cols; ++c) {
    const std::int32_t s = block.channels[c].s_int;
    const std::int32_t z = block.channels[c].z_int;
    for (std::size_t i = 0; i < kTable; ++i) {
      w.tables[c * kTable + i] =
          clamp_to_i8(static_cast<std::int32_t>(i) * s + z);
    }
  }
}

// w.dots[t] = q . K[t] for the tile load_tile loaded, read channel by
// channel. q_lanes holds the SIMD build's broadcast operands (see
// fused_decode).
inline void tile_dots(std::span<const std::int8_t> q_q1,
                      std::span<const std::int32_t> q_lanes,
                      std::int32_t q_total, std::size_t tokens,
                      std::size_t d, Scratch& w) {
  const std::size_t step = kAvx512 ? kVnniChunk : kChunk;
  w.dots.assign((tokens + step - 1) / step * step, 0);
#if defined(__x86_64__)
  if constexpr (kAvx512) {
    tile_dots_vnni(q_lanes.data(), q_total, w.codes.data(), tokens, d,
                   w.tables.data(), w.dots.data(), w.dots.size());
    return;
  } else if constexpr (kSimd) {
    tile_dots_avx2(q_lanes.data(), w.codes.data(), tokens, d,
                   w.tables.data(), w.dots.data(), w.dots.size());
    return;
  }
#endif
  for (std::size_t c = 0; c < d; ++c) {
    const std::int32_t qx = q_q1[c];
    if (qx == 0) continue;
    const std::int8_t* table = w.tables.data() + c * kTable;
    const std::uint8_t* codes = w.codes.data() + c * tokens;
    for (std::size_t t = 0; t < tokens; ++t) {
      w.dots[t] += qx * static_cast<std::int32_t>(table[codes[t]]);
    }
  }
}

// dots[t] = q . rows[t] for token-major INT8 rows of d.
inline void row_dots(const std::int8_t* q, const std::int8_t* rows,
                     std::size_t tokens, std::size_t d, std::int32_t* dots) {
  std::size_t c0 = 0;
#if defined(__x86_64__)
  if constexpr (kSimd) {
    c0 = d - d % 32;
    dots4_avx2(q, rows, d, c0, tokens, dots);
  }
#endif
  if (c0 == 0) std::fill_n(dots, tokens, 0);
  for (std::size_t t = 0; t < tokens; ++t) {
    const std::int8_t* row = rows + t * d;
    for (std::size_t c = c0; c < d; ++c) {
      dots[t] += static_cast<std::int32_t>(q[c]) *
                 static_cast<std::int32_t>(row[c]);
    }
  }
}

// Expand the tile load_tile loaded into token-major INT8 rows,
// rows[t * d + c] (progressive_decompress_int8's matrix). The AVX2 build
// leaves junk in rows past `tokens`; nothing reads them.
inline void tile_rows(std::size_t tokens, std::size_t d, Scratch& w,
                      std::vector<std::int8_t>& rows) {
  const std::size_t padded = (tokens + kChunk - 1) / kChunk * kChunk;
  rows.resize(padded * d);
  std::size_t c0 = 0;
#if defined(__x86_64__)
  if constexpr (kSimd) {
    for (; c0 + 16 <= d; c0 += 16) {
      for (std::size_t t0 = 0; t0 < tokens; t0 += kChunk) {
        expand_transpose_avx2(w.codes.data() + c0 * tokens + t0, tokens,
                              w.tables.data() + c0 * kTable,
                              rows.data() + t0 * d + c0, d);
      }
    }
  }
#endif
  for (std::size_t c = c0; c < d; ++c) {
    const std::int8_t* table = w.tables.data() + c * kTable;
    const std::uint8_t* codes = w.codes.data() + c * tokens;
    for (std::size_t t = 0; t < tokens; ++t) {
      rows[t * d + c] = table[codes[t]];
    }
  }
}

// Quantize n values of P~ with inv_p and keep the nonzero codes, with
// their key index (first + t), at the front of live and p_q (n + 16
// entries each). Returns the count.
inline std::size_t live_codes(const float* p, std::size_t n, float inv_p,
                              std::size_t first, std::uint32_t* live,
                              std::int32_t* p_q) {
  std::size_t t0 = 0;
#if defined(__x86_64__)
  if constexpr (kAvx512) {
    return live_codes_avx512(p, n, inv_p, first, live, p_q);
  } else if constexpr (kSimd) {
    t0 = n - n % 8;
    round_clamp_avx2(p, t0, inv_p, 0.0f, 127.0f, p_q);
  }
#endif
  for (std::size_t t = t0; t < n; ++t) {
    p_q[t] = clamp_to_i8(p[t] * inv_p, 0, 127);
  }
  // Compact in place without a branch: always write, keep only nonzero
  // codes (n_live <= t, so code t is read before anything overwrites it).
  std::size_t n_live = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const std::int32_t code = p_q[t];
    live[n_live] = static_cast<std::uint32_t>(first + t);
    p_q[n_live] = code;
    n_live += static_cast<std::size_t>(code != 0);
  }
  return n_live;
}

// o[c] += float(p_q * rows[t][c]) * o_scale over the n_live live tokens,
// in token order, for every column c < d.
inline void pv(float* o, const std::int8_t* rows, std::size_t d,
               const std::uint32_t* live, const std::int32_t* p_q,
               std::size_t n_live, float o_scale) {
  std::size_t c0 = 0;
#if defined(__x86_64__)
  if constexpr (kAvx512) {
    pv_avx512(o, rows, d, d, live, p_q, n_live, o_scale);
    return;
  } else if constexpr (kSimd) {
    c0 = d - d % 8;
    pv_avx2(o, rows, d, c0, live, p_q, n_live, o_scale);
  }
#endif
  for (std::size_t i = 0; i < n_live; ++i) {
    const std::int32_t pq = p_q[i];
    const std::int8_t* row = rows + live[i] * d;
    for (std::size_t c = c0; c < d; ++c) {
      o[c] += static_cast<float>(pq * static_cast<std::int32_t>(row[c])) *
              o_scale;
    }
  }
}

// V rows of one chunk: INT8 rows ready to read, or a packed tile that is
// expanded only when some quantized P~ of the chunk is nonzero.
struct VSource {
  const std::int8_t* rows = nullptr;
  const ProgressiveBlock* packed = nullptr;
  float scale = 1.0f;
};

// One chunk of Algorithm 2's loop, its q.k already in w.dots: scores, SAS,
// the online-softmax update and P~V. The first `mask_before` tokens lie
// outside the sliding window.
inline void absorb_chunk(DecodeState& st, float q_scale, float k_scale,
                         const VSource& vs, std::size_t tokens, std::size_t d,
                         float attn_scale, const Sas& sas,
                         std::size_t mask_before, Scratch& w) {
  const float s_scale = q_scale * k_scale * attn_scale;
  w.p.resize(tokens);
  for (std::size_t t = 0; t < tokens; ++t) {
    w.p[t] = t < mask_before ? kNegInf
                             : static_cast<float>(w.dots[t]) * s_scale;
  }

  // Online-softmax update with SAS.
  float block_max = kNegInf;
  for (const float v : w.p) block_max = std::max(block_max, v);
  const float m_new = std::max(st.m, block_max);
  const float alpha = st.m == kNegInf ? 0.0f : sas.exp_neg(st.m - m_new);
  for (float& v : w.p) v -= m_new;
  sas.apply(w.p);
  float p_max = 0.0f;
  float row_sum = 0.0f;
  for (const float v : w.p) {
    row_sum += v;
    p_max = std::max(p_max, v);
  }
  if (alpha != 1.0f) {
    for (float& v : st.o) v *= alpha;
  }
  st.l = st.l * alpha + row_sum;
  st.m = m_new;

  // Quantize P~ to INT8; only its nonzero tokens reach P~V.
  const float p_scale = p_max > 0.0f ? p_max / kSymmetricHeadroom : 1.0f;
  const float inv_p = 1.0f / p_scale;
  const float o_scale = p_scale * vs.scale;
  w.live.resize(tokens + 16);
  w.p_q.resize(tokens + 16);
  const std::size_t n_live =
      live_codes(w.p.data(), tokens, inv_p, 0, w.live.data(), w.p_q.data());
  if (n_live == 0) return;

  // O += o_scale * P~ V.
  const std::int8_t* v = vs.rows;
  if (vs.packed != nullptr) {
    load_tile(*vs.packed, w);
    tile_rows(tokens, d, w, w.v_rows);
    v = w.v_rows.data();
  }
  pv(st.o.data(), v, d, w.live.data(), w.p_q.data(), n_live, o_scale);
}

std::vector<float> fused_decode(std::span<const float> q,
                                std::span<const KvBlock* const> blocks,
                                const DecodeBuffer& key_buffer,
                                const DecodeBuffer& value_buffer,
                                const AttentionConfig& cfg, const Sas& sas) {
  const std::size_t d = key_buffer.dim();
  TURBO_CHECK(q.size() == d);
  TURBO_CHECK_MSG(!blocks.empty() || !key_buffer.empty(),
                  "decode against an empty cache");
  const float attn_scale = cfg.effective_scale(d);

  std::vector<std::int8_t> q_q1(d);
  const float q_scale = stage1(q, q_q1);
  std::vector<std::int32_t> q_lanes;
  std::int32_t q_total = 0;
  if constexpr (kAvx512) {
    // Per group of four channels, their q bytes in one 32-bit lane (zero
    // past d), and the sum tile_dots_vnni's +128 offset takes back.
    // (x86-64 is little-endian: byte j of a lane is channel 4i + j.)
    q_lanes.assign((d + 3) / 4, 0);
    std::memcpy(q_lanes.data(), q_q1.data(), d);
    q_total = q_sum(q_q1.data(), d);
  } else {
    // Per channel, q in the low (then the high) 16 bits of a 32-bit lane:
    // multiplier pairs that pick even (odd) tokens' int16 values.
    q_lanes.resize(2 * d);
    for (std::size_t c = 0; c < d; ++c) {
      q_lanes[2 * c] = static_cast<std::uint16_t>(q_q1[c]);
      q_lanes[2 * c + 1] = static_cast<std::int32_t>(q_q1[c]) * 65536;
    }
  }

  DecodeState st;
  st.o.assign(d, 0.0f);
  Scratch w;

  // Sliding window: skip blocks fully outside, mask the boundary block.
  std::size_t total = key_buffer.size();
  for (const KvBlock* block : blocks) total += block->tokens();
  const std::size_t win_start =
      cfg.window > 0 && total > cfg.window ? total - cfg.window : 0;

  std::size_t pos = 0;
  for (const KvBlock* block : blocks) {
    const std::size_t end = pos + block->tokens();
    if (end <= win_start) {
      pos = end;
      continue;
    }
    TURBO_CHECK(block->k.cols == d && block->v.cols == d &&
                block->v.rows == block->k.rows);
    const std::size_t mask = win_start > pos ? win_start - pos : 0;
    load_tile(block->k, w);
    tile_dots(q_q1, q_lanes, q_total, block->tokens(), d, w);
    absorb_chunk(st, q_scale, block->k.fp_scale,
                 VSource{nullptr, &block->v, block->v.fp_scale},
                 block->tokens(), d, attn_scale, sas, mask, w);
    pos = end;
  }

  // Buffered tail: INT8 rows under the universal scales, token-major
  // already.
  if (!key_buffer.empty()) {
    const std::size_t mask = win_start > pos ? win_start - pos : 0;
    w.dots.resize(key_buffer.size());
    row_dots(q_q1.data(), key_buffer.tokens().data(), key_buffer.size(), d,
             w.dots.data());
    absorb_chunk(st, q_scale, key_buffer.scale(),
                 VSource{value_buffer.tokens().data(), nullptr,
                         value_buffer.scale()},
                 key_buffer.size(), d, attn_scale, sas, mask, w);
  }

  TURBO_CHECK_MSG(st.l > 0.0f, "decode query attended no keys");
  const float inv = 1.0f / st.l;
  for (float& v : st.o) v *= inv;
  return std::move(st.o);
}
