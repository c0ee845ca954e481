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
//   * q.k is an exact int32 dot product, so its order is free, and K's
//     second stage folds into it. The reference reverses that stage
//     through each channel's table clamp(code * s_int + z_int, -127, 127),
//     the values progressive_decompress_int8 produces. Where the table is
//     linear (it clamps no code), q_c times it is w_c * code + q_c * z_int
//     with w_c = q_c * s_int, so q.k_t = sum_c w_c * code_tc + sum_c q_c *
//     z_int: the raw codes against per-block weights, plus one constant
//     (k_weights). The AVX-512 build splits each weight into two int8
//     halves, w_c = 128 h_c + l_c, and runs one vpdpbusd against each per
//     four channels and sixteen tokens; it reads an INT4 block whose row
//     count is a multiple of 64 in place, even tokens from the low
//     nibbles and odd ones from the high. The few channels that clamp
//     get weight 0 and are added through their table (table_dots). The
//     buffered tail is read row by row;
//   * the scores, SAS (Sas::apply, bit-identical to exp_neg), the running
//     sum and the P~ quantization follow the reference token by token. The
//     rescale factor alpha = exp_neg(m_old - m_new) goes through the same
//     Sas::apply call, in front of the scores;
//   * P~V is an exact int32 sum too, so its order and lanes are free: each
//     channel sums p_q * v over the chunk, then adds float(sum) * o_scale
//     once, when some p_q is not 0. Over a packed block, V's second stage
//     folds into that sum: where a channel's table is linear (it clamps
//     no code), sum p_q * (s_int * code + z_int) is s_int * sum p_q * code
//     + z_int * sum p_q, so each channel sums its raw codes (one vpdpbusd
//     per channel and 64 tokens, then a reduction tree over 16 channels)
//     and one affine step per 16 channels gives the sums. The few channels
//     that clamp are redone through their table (table_pv). K and V find
//     those channels with one vector compare per 8 or 16 channels, and
//     build their tables with one helper (channel_table). The buffered
//     tail is read through a quad-major copy.
//
// The stage-1 quantizer (stage1), row_dots, p_codes, v_quads and pv_rows
// also serve the prefill body (kernels/fused_prefill_body.h), included
// after this one.
//
// The enclosing namespace provides `constexpr bool kSimd` and `kAvx512`.

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

// Tokens per step of the AVX2 passes over a tile (one 32-byte code read).
constexpr std::size_t kChunk = 32;
// Tokens per step of the AVX-512 passes, whose 64-byte code reads run up
// to 63 bytes past the last channel: the slack after Scratch::codes.
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
  std::vector<std::uint8_t> codes;     // one tile's codes, channel-major
  // One K block's folded weights, in the layout the build's q.K reads
  // (k_weights), and its channels that clamp.
  std::vector<std::int32_t> weights;
  std::vector<std::size_t> clamped;
  std::vector<std::int32_t> dots;      // q.k per token
  // The rescale argument m_old - m_new, then the scores, then P~ (one
  // Sas::apply turns the first two into alpha and P~).
  std::vector<float> p;
  // The chunk's P~ codes, four bytes per dword (the quad P~V reads a
  // dword at a time), zero past its last token.
  std::vector<std::uint32_t> p_q;
  // The AVX-512 in-place INT4 P~V's copy of p_q: per 64 tokens, the 32
  // even tokens' codes, then the 32 odd tokens'.
  std::vector<std::uint8_t> p_split;
  std::vector<std::uint32_t> v_quads;  // the buffered V rows, quad-major
  std::vector<std::int32_t> sums;      // per channel: the scalar P~V sums
};

// One tile's codes, channel-major: channel c's token t is
// codes[c * stride + t], or, when `nibbles`, the low (t even) or high
// (t odd) nibble of codes[(c * stride + t) / 2], an INT4 block's packed
// bytes read in place.
struct TileCodes {
  const std::uint8_t* codes = nullptr;
  std::size_t stride = 0;
  bool nibbles = false;
};

inline std::int32_t q_sum(const std::int8_t* q, std::size_t n) {
  std::int32_t sum = 0;
  for (std::size_t c = 0; c < n; ++c) sum += q[c];
  return sum;
}

// Channel ch's code of token t.
inline std::int32_t tile_code(const TileCodes& tc, std::size_t ch,
                              std::size_t t) {
  const std::size_t i = ch * tc.stride + t;
  if (!tc.nibbles) return tc.codes[i];
  return (tc.codes[i / 2] >> (i % 2 * 4)) & 0x0F;
}

// Whether a channel's table clamp(i * s_int + z_int, -127, 127) differs
// from i * s_int + z_int for some code i <= top (the width's largest):
// z_int = -128 (a restored buffer's -128 flushed into a block) lifts code
// 0, and top * s_int + z_int > 127 cuts the top codes. The SIMD builds
// test max(top * s_int + z_int, -z_int) > 127, the same condition.
inline bool clamps(ChannelParams cp, std::int32_t top) {
  return cp.z_int < -127 || top * cp.s_int + cp.z_int > 127;
}

// A channel's table of second-stage values: clamp(i * s_int + z_int, -127,
// 127) for every code i, the values progressive_decompress_int8 produces.
// K and V read the few channels that clamp through it.
inline void channel_table(ChannelParams cp, std::int32_t* table) {
  for (std::size_t i = 0; i < kTable; ++i) {
    table[i] =
        clamp_to_i8(static_cast<std::int32_t>(i) * cp.s_int + cp.z_int);
  }
}

// P~V of a channel that clamps: sum over t < tokens of p_q[t] times the
// channel's table entry for its code, the reference's value.
inline std::int32_t table_pv(const std::uint8_t* p_q, const TileCodes& tc,
                             std::size_t ch, std::size_t tokens,
                             ChannelParams cp) {
  std::int32_t table[kTable] = {};
  channel_table(cp, table);
  std::int32_t sum = 0;
  for (std::size_t t = 0; t < tokens; ++t) {
    sum += p_q[t] * table[tile_code(tc, ch, t)];
  }
  return sum;
}

// q.K's share of a K channel that clamps: dots[t] += q_c times the
// channel's table entry for its code, for t < tokens.
inline void table_dots(std::int32_t q_c, const TileCodes& tc, std::size_t ch,
                       std::size_t tokens, ChannelParams cp,
                       std::int32_t* dots) {
  std::int32_t table[kTable] = {};
  channel_table(cp, table);
  for (std::size_t t = 0; t < tokens; ++t) {
    dots[t] += q_c * table[tile_code(tc, ch, t)];
  }
}

// Every lane j < 16 of sums whose bit is set in `clamped` (channel c0 + j
// clamps) redone through table_pv.
inline void redo_clamped(std::uint32_t clamped, std::int32_t* sums,
                         const std::uint8_t* p_q, const TileCodes& tc,
                         const ChannelParams* channels, std::size_t c0,
                         std::size_t tokens) {
  for (std::size_t j = 0; j < 16; ++j) {
    if ((clamped >> j & 1u) != 0) {
      sums[j] = table_pv(p_q, tc, c0 + j, tokens, channels[c0 + j]);
    }
  }
}

#if defined(__x86_64__)

// Eight channels [c0, c0 + 8)'s s_int and z_int as int32 lanes, and all
// ones in the lanes of *clamp whose table clamps; returns those lanes'
// bits. The (s_int, z_int) pairs, read as int16 words, sign-extend to
// int32 lanes; one compare of max(top * s_int + z_int, -z_int) against
// 127 finds the clamping channels. Lanes past d read the default pair
// (1, 0), which never clamps.
inline std::uint32_t channel_pairs_avx2(const ChannelParams* channels,
                                        std::size_t c0, std::size_t d,
                                        std::int32_t top, __m256i* s,
                                        __m256i* z, __m256i* clamp) {
  ChannelParams tail[8] = {};
  const ChannelParams* cp = channels + c0;
  if (c0 + 8 > d) {
    std::copy(channels + c0, channels + d, tail);
    cp = tail;
  }
  const __m256i w = _mm256_cvtepi16_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(cp)));
  *s = _mm256_srai_epi32(_mm256_slli_epi32(w, 24), 24);
  *z = _mm256_srai_epi32(w, 8);
  const __m256i high = _mm256_max_epi32(
      _mm256_add_epi32(_mm256_mullo_epi32(*s, _mm256_set1_epi32(top)), *z),
      _mm256_sub_epi32(_mm256_setzero_si256(), *z));
  *clamp = _mm256_cmpgt_epi32(high, _mm256_set1_epi32(127));
  return static_cast<std::uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(*clamp)));
}

// k_weights for the AVX2 build: eight channels' weights per step, 0 past
// d (q holds zeros there). Returns sum q_c * z_int over the linear
// channels.
inline std::int32_t k_weights_avx2(const ChannelParams* channels,
                                   const std::int8_t* q, std::size_t d,
                                   std::int32_t top, std::int32_t* weights,
                                   std::vector<std::size_t>& clamped) {
  __m256i q_z = _mm256_setzero_si256();
  for (std::size_t c0 = 0; c0 < d; c0 += 8) {
    __m256i s = _mm256_setzero_si256();
    __m256i z = _mm256_setzero_si256();
    __m256i clamp = _mm256_setzero_si256();
    const std::uint32_t bits =
        channel_pairs_avx2(channels, c0, d, top, &s, &z, &clamp);
    const __m256i qv = _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + c0)));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(weights + c0),
        _mm256_andnot_si256(clamp, _mm256_mullo_epi32(qv, s)));
    q_z = _mm256_add_epi32(
        q_z, _mm256_andnot_si256(clamp, _mm256_mullo_epi32(qv, z)));
    for (std::uint32_t m = bits; m != 0; m &= m - 1) {
      clamped.push_back(c0 + static_cast<std::size_t>(__builtin_ctz(m)));
    }
  }
  alignas(32) std::int32_t lanes[8] = {};
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), q_z);
  std::int32_t sum = 0;
  for (const std::int32_t v : lanes) sum += v;
  return sum;
}

// dots[t] = q_z + sum_c w_c * K's code for t < padded (a multiple of 32),
// read channel by channel: 32 raw codes zero-extended into even and odd
// tokens' int16 and multiplied by the channel's weight (from
// k_weights_avx2, |w_c| < 2^15) in the low, then the high, half of a
// 32-bit lane. Accumulator r, lane i collects token 4i + r of the chunk.
inline void tile_dots_avx2(const std::int32_t* weights, std::int32_t q_z,
                           const std::uint8_t* codes, std::size_t stride,
                           std::size_t d, std::int32_t* dots,
                           std::size_t padded) {
  const __m256i low8 = _mm256_set1_epi16(0x00FF);
  alignas(32) std::int32_t lanes[4][8] = {};
  for (std::size_t t0 = 0; t0 < padded; t0 += kChunk) {
    __m256i acc[4] = {};
    for (std::size_t c = 0; c < d; ++c) {
      const __m256i k8 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(codes + c * stride + t0));
      const __m256i even = _mm256_and_si256(k8, low8);
      const __m256i odd = _mm256_srli_epi16(k8, 8);
      const __m256i w_lo = _mm256_set1_epi32(weights[c] & 0xFFFF);
      const __m256i w_hi = _mm256_set1_epi32(weights[c] * 65536);
      acc[0] = _mm256_add_epi32(acc[0], _mm256_madd_epi16(even, w_lo));
      acc[1] = _mm256_add_epi32(acc[1], _mm256_madd_epi16(odd, w_lo));
      acc[2] = _mm256_add_epi32(acc[2], _mm256_madd_epi16(even, w_hi));
      acc[3] = _mm256_add_epi32(acc[3], _mm256_madd_epi16(odd, w_hi));
    }
    for (std::size_t r = 0; r < 4; ++r) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[r]), acc[r]);
    }
    for (std::size_t i = 0; i < 8; ++i) {
      for (std::size_t r = 0; r < 4; ++r) {
        dots[t0 + 4 * i + r] = lanes[r][i] + q_z;
      }
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

// Codes clamp_to_i8(x[i] * inv, lo, 127) for i < n (n a multiple of 32),
// 32 per step: four rounded int32 vectors packed to bytes. Stage 1 takes
// lo = -127, P~ lo = 0.
inline void codes_avx2(const float* x, std::size_t n, float inv, float lo,
                       std::int8_t* out) {
  alignas(32) std::int32_t c[32] = {};
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  for (std::size_t i = 0; i < n; i += 32) {
    round_clamp_avx2(x + i, 32, inv, lo, 127.0f, c);
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

// Eight channels' eight-lane int32 sums (a[j] for channel j), reduced
// into *out in channel order: pairs of channels interleave dwords and
// add, then qwords, which leaves each 128-bit half with four channels'
// partial sums; the halves then add across.
inline void reduce8_avx2(const __m256i* a, __m256i* out) {
  __m256i b[4] = {};
  for (std::size_t k = 0; k < 4; ++k) {
    b[k] = _mm256_add_epi32(_mm256_unpacklo_epi32(a[2 * k], a[2 * k + 1]),
                            _mm256_unpackhi_epi32(a[2 * k], a[2 * k + 1]));
  }
  const __m256i c0 = _mm256_add_epi32(_mm256_unpacklo_epi64(b[0], b[1]),
                                      _mm256_unpackhi_epi64(b[0], b[1]));
  const __m256i c1 = _mm256_add_epi32(_mm256_unpacklo_epi64(b[2], b[3]),
                                      _mm256_unpackhi_epi64(b[2], b[3]));
  *out = _mm256_add_epi32(_mm256_permute2x128_si256(c0, c1, 0x20),
                          _mm256_permute2x128_si256(c0, c1, 0x31));
}

// *sums: eight channels [c0, c0 + 8)'s codes' sums, sum p_q * code, in;
// their exact P~V sums out: s_int * raw + z_int * p_total where the
// channel's table is linear, table_pv where it clamps.
inline void fold_pv_avx2(__m256i* sums, const ChannelParams* channels,
                         std::size_t c0, std::size_t d, std::int32_t top,
                         std::int32_t p_total, const std::uint8_t* p_q,
                         const TileCodes& tc, std::size_t tokens) {
  __m256i s = _mm256_setzero_si256();
  __m256i z = _mm256_setzero_si256();
  __m256i clamp = _mm256_setzero_si256();
  const std::uint32_t clamped =
      channel_pairs_avx2(channels, c0, d, top, &s, &z, &clamp);
  *sums = _mm256_add_epi32(
      _mm256_mullo_epi32(s, *sums),
      _mm256_mullo_epi32(z, _mm256_set1_epi32(p_total)));
  if (clamped != 0) {
    alignas(32) std::int32_t lanes[16] = {};
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), *sums);
    redo_clamped(clamped, lanes, p_q, tc, channels, c0, tokens);
    *sums = _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes));
  }
}

// P~V over a packed tile, channel-major: o[c] += float(sum) * o_scale,
// sum over tokens t < padded (a multiple of 32) of p_q[t] * V[t][c]. Per
// channel, maddubs multiplies 32 raw codes (at most 15) by the 32 P~
// codes (at most 127), and madd by ones widens the pairs to int32;
// fold_pv_avx2 turns each eight channels' code sums into V's.
inline void tile_pv_avx2(const std::uint8_t* p_q, const TileCodes& tc,
                         const ChannelParams* channels, std::size_t d,
                         std::int32_t top, std::int32_t p_total,
                         std::size_t tokens, std::size_t padded,
                         float o_scale, float* o) {
  const __m256i ones = _mm256_set1_epi16(1);
  const __m256 os = _mm256_set1_ps(o_scale);
  for (std::size_t c0 = 0; c0 < d; c0 += 8) {
    __m256i acc[8] = {};
    for (std::size_t t0 = 0; t0 < padded; t0 += kChunk) {
      const __m256i p =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p_q + t0));
      for (std::size_t j = 0; j < 8; ++j) {
        // A group past d repeats channel d - 1; its lanes are dropped.
        const std::size_t ch = std::min(c0 + j, d - 1);
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(tc.codes + ch * tc.stride + t0));
        acc[j] = _mm256_add_epi32(
            acc[j], _mm256_madd_epi16(_mm256_maddubs_epi16(v, p), ones));
      }
    }
    __m256i sum = _mm256_setzero_si256();
    reduce8_avx2(acc, &sum);
    fold_pv_avx2(&sum, channels, c0, d, top, p_total, p_q, tc, tokens);
    const __m256 sums = _mm256_cvtepi32_ps(sum);
    if (c0 + 8 <= d) {
      _mm256_storeu_ps(o + c0, _mm256_add_ps(_mm256_loadu_ps(o + c0),
                                             _mm256_mul_ps(sums, os)));
    } else {
      alignas(32) float lanes[8] = {};
      _mm256_store_ps(lanes, sums);
      for (std::size_t c = c0; c < d; ++c) o[c] += lanes[c - c0] * o_scale;
    }
  }
}

// N vectors of pv_rows' channels [c, c + 8 N): per quad of P~ codes that
// is not 0, maddubs against the four V rows of eight channels. A pair sum
// is at most 2 * 127 * 128 in magnitude (a restored buffer row may hold
// -128), so the int16 step never saturates.
template <std::size_t N>
inline void quad_pv_vectors_avx2(float* o, const std::uint32_t* p4,
                                 std::size_t q0, std::size_t q1,
                                 const std::uint32_t* v_quads, std::size_t d,
                                 std::size_t c, float o_scale) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc[N] = {};
  for (std::size_t t4 = q0; t4 < q1; ++t4) {
    if (p4[t4] == 0) continue;
    const __m256i p = _mm256_set1_epi32(static_cast<std::int32_t>(p4[t4]));
    const std::uint32_t* v = v_quads + t4 * d + c;
    for (std::size_t g = 0; g < N; ++g) {
      const __m256i vq =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + 8 * g));
      acc[g] = _mm256_add_epi32(
          acc[g], _mm256_madd_epi16(_mm256_maddubs_epi16(p, vq), ones));
    }
  }
  const __m256 os = _mm256_set1_ps(o_scale);
  for (std::size_t g = 0; g < N; ++g) {
    float* out = o + c + 8 * g;
    _mm256_storeu_ps(out, _mm256_add_ps(_mm256_loadu_ps(out),
                                        _mm256_mul_ps(
                                            _mm256_cvtepi32_ps(acc[g]), os)));
  }
}

// --- AVX-512 VNNI (the kAvx512 build) ----------------------------------
//
// vpdpbusd multiplies the unsigned bytes of one operand by the signed
// bytes of the other and adds each lane's four products into its int32,
// with no int16 saturation on the way (maddubs has one). For q.K, K goes
// in as the unsigned operand, k ^ 0x80 = k + 128 (exact for k = -128
// too), q as the signed one; a dot is then sum((k + 128) * q) -
// 128 * sum(q), exact in int32. For P~V the P~ codes (0 .. 127) are the
// unsigned operand and V the signed one.

// All ones in the lanes [0, n) of a 16-lane vector.
inline __mmask16 lane_mask(std::size_t n) {
  return n >= 16 ? __mmask16{0xFFFF}
                 : static_cast<__mmask16>((1u << n) - 1u);
}

// The 4 x 16 dword matrix x[0 .. 3] (row j is x[j]), transposed: taken as
// one 64-dword array, the result holds input row j, column i at dword
// 4 i + j, so x[k] holds columns 4k .. 4k + 3, four dwords each. Dwords
// interleave within each 128-bit block, then the blocks transpose across
// the four registers. The prefill's K copy (k_quads) and the V copies
// (v_quads) both run on it.
inline void transpose4x16_epi32(__m512i* x) {
  const __m512i a0 = _mm512_unpacklo_epi32(x[0], x[1]);
  const __m512i a1 = _mm512_unpackhi_epi32(x[0], x[1]);
  const __m512i a2 = _mm512_unpacklo_epi32(x[2], x[3]);
  const __m512i a3 = _mm512_unpackhi_epi32(x[2], x[3]);
  // b[m], block L: column 4L + m of the four rows.
  const __m512i b0 = _mm512_unpacklo_epi64(a0, a2);
  const __m512i b1 = _mm512_unpackhi_epi64(a0, a2);
  const __m512i b2 = _mm512_unpacklo_epi64(a1, a3);
  const __m512i b3 = _mm512_unpackhi_epi64(a1, a3);
  const __m512i c0 = _mm512_shuffle_i32x4(b0, b1, 0x44);
  const __m512i c1 = _mm512_shuffle_i32x4(b0, b1, 0xEE);
  const __m512i c2 = _mm512_shuffle_i32x4(b2, b3, 0x44);
  const __m512i c3 = _mm512_shuffle_i32x4(b2, b3, 0xEE);
  x[0] = _mm512_shuffle_i32x4(c0, c2, 0x88);
  x[1] = _mm512_shuffle_i32x4(c0, c2, 0xDD);
  x[2] = _mm512_shuffle_i32x4(c1, c3, 0x88);
  x[3] = _mm512_shuffle_i32x4(c1, c3, 0xDD);
}

// The quad-major copy of n_rows token-major INT8 rows of d, stride dwords
// per quad row: for each four rows and 64 channels, the 4 x 16 dword
// transpose leaves each channel quad's 4 x 4 bytes row by row, and one byte
// shuffle per 128-bit block turns them channel by channel. Rows past n_rows
// read as zero.
inline void v_quads_avx512(const std::int8_t* rows, std::size_t n_rows,
                           std::size_t d, std::size_t stride,
                           std::uint32_t* out) {
  const __m512i order = _mm512_broadcast_i32x4(
      _mm_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15));
  for (std::size_t t = 0; t < n_rows; t += 4) {
    std::uint32_t* dst = out + t / 4 * stride;
    for (std::size_t c0 = 0; c0 < d; c0 += 64) {
      const __mmask64 cols = byte_mask(d - c0);
      __m512i x[4] = {};
      for (std::size_t j = 0; j < 4 && t + j < n_rows; ++j) {
        x[j] = _mm512_maskz_loadu_epi8(cols, rows + (t + j) * d + c0);
      }
      transpose4x16_epi32(x);
      for (std::size_t k = 0; k < 4 && c0 + 16 * k < d; ++k) {
        _mm512_mask_storeu_epi32(dst + c0 + 16 * k,
                                 lane_mask(d - c0 - 16 * k),
                                 _mm512_shuffle_epi8(x[k], order));
      }
    }
  }
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

// Sixteen channels [c0, c0 + 16)'s s_int and z_int as int32 lanes (the
// pairs loaded masked at d, so 0 past it), and the mask of those whose
// table clamps: channel_pairs_avx2's compare on sixteen lanes.
inline __mmask16 channel_pairs_vnni(const ChannelParams* channels,
                                    std::size_t c0, std::size_t d,
                                    std::int32_t top, __m512i* s,
                                    __m512i* z) {
  const __mmask16 lanes = lane_mask(d - c0);
  const __m512i w = _mm512_cvtepi16_epi32(
      _mm256_maskz_loadu_epi16(lanes, channels + c0));
  *s = _mm512_srai_epi32(_mm512_slli_epi32(w, 24), 24);
  *z = _mm512_srai_epi32(w, 8);
  const __m512i high = _mm512_max_epi32(
      _mm512_add_epi32(_mm512_mullo_epi32(*s, _mm512_set1_epi32(top)), *z),
      _mm512_sub_epi32(_mm512_setzero_si512(), *z));
  return _mm512_mask_cmpgt_epi32_mask(lanes, high, _mm512_set1_epi32(127));
}

// k_weights for the AVX-512 build. A linear channel's weight w_c = q_c *
// s_int lies within +-127 * 84 (s_int is at most 84 where top * s_int +
// z_int <= 127 and z_int >= -127), so it splits into two int8 halves,
// w_c = 128 h_c + l_c with h_c = w_c >> 7 (at least -84) and l_c = w_c &
// 127. h holds the h bytes of each channel quad as one dword, in the
// order (c, c + 2, c + 1, c + 3) of quad_codes' bytes, l the l bytes;
// both are 0 for a channel that clamps and past d. Returns sum q_c *
// z_int over the linear channels.
inline std::int32_t k_weights_vnni(const ChannelParams* channels,
                                   const std::int8_t* q, std::size_t d,
                                   std::int32_t top, std::uint32_t* h,
                                   std::uint32_t* l,
                                   std::vector<std::size_t>& clamped) {
  const __m512i order = _mm512_setr_epi32(0, 2, 1, 3, 4, 6, 5, 7, 8, 10, 9,
                                          11, 12, 14, 13, 15);
  __m512i q_z = _mm512_setzero_si512();
  for (std::size_t c0 = 0; c0 < d; c0 += 16) {
    __m512i s = _mm512_setzero_si512();
    __m512i z = _mm512_setzero_si512();
    const __mmask16 clamp = channel_pairs_vnni(channels, c0, d, top, &s, &z);
    const auto linear = static_cast<__mmask16>(lane_mask(d - c0) & ~clamp);
    const __m512i qv = _mm512_cvtepi8_epi32(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(q + c0)));
    const __m512i w = _mm512_permutexvar_epi32(
        order, _mm512_maskz_mullo_epi32(linear, qv, s));
    q_z = _mm512_mask_add_epi32(q_z, linear, q_z, _mm512_mullo_epi32(qv, z));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(h + c0 / 4),
                     _mm512_cvtepi32_epi8(_mm512_srai_epi32(w, 7)));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(l + c0 / 4),
        _mm512_cvtepi32_epi8(_mm512_and_si512(w, _mm512_set1_epi32(127))));
    for (std::uint32_t bits = clamp; bits != 0; bits &= bits - 1) {
      clamped.push_back(c0 + static_cast<std::size_t>(__builtin_ctz(bits)));
    }
  }
  return _mm512_reduce_add_epi32(q_z);
}

// *out = channels ch and ch2's packed INT4 bytes for tokens [t0, t0 +
// 64), 32 each, in the low and high halves.
inline void code_pair(const TileCodes& tc, std::size_t ch, std::size_t ch2,
                      std::size_t t0, __m512i* out) {
  const std::uint8_t* a = tc.codes + (ch * tc.stride + t0) / 2;
  const std::uint8_t* b = tc.codes + (ch2 * tc.stride + t0) / 2;
  *out = _mm512_inserti64x4(
      _mm512_castsi256_si512(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a))),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b)), 1);
}

// Channels c .. c + 3's codes for tokens [t0, t0 + 64), byte-transposed:
// each dword of x[0 .. 3] holds one token's four codes in the order (c,
// c + 2, c + 1, c + 3). Channels past d repeat channel d - 1, whose
// weight bytes are 0.
//
// Unpacked codes: bytes of (c, c + 2) and of (c + 1, c + 3) interleave,
// then words of the two, which leaves tokens 16 L + 4 k .. + 3 in lane L
// of x[k].
//
// In place (kNibbles, an INT4 block read two codes per packed byte): the
// same two interleaves run on the four channels' packed bytes i = 0 ..
// 31, with two block shuffles between them that line up a byte's (c, c +
// 2) word with its (c + 1, c + 3) word. Lane L of the two transposed
// vectors then holds bytes b + 0 .. 3 and b + 4 .. 7, b = 0, 16, 8, 24
// for L = 0 .. 3. Their low nibbles (tokens 2 i) go to x[0] and x[1],
// their high nibbles (tokens 2 i + 1) to x[2] and x[3].
template <bool kNibbles>
inline void quad_codes(const TileCodes& tc, std::size_t c, std::size_t d,
                       std::size_t t0, __m512i* x) {
  const auto ch = [&](std::size_t j) { return std::min(c + j, d - 1); };
  if constexpr (kNibbles) {
    __m512i x01 = _mm512_setzero_si512();
    __m512i x23 = _mm512_setzero_si512();
    if (tc.stride == kVnniChunk && c + 4 <= d) {
      // A 64-row block's channels lie back to back, 32 bytes each.
      x01 = _mm512_loadu_si512(tc.codes + c * kVnniChunk / 2);
      x23 = _mm512_loadu_si512(tc.codes + (c + 2) * kVnniChunk / 2);
    } else {
      code_pair(tc, ch(0), ch(1), t0, &x01);
      code_pair(tc, ch(2), ch(3), t0, &x23);
    }
    // Blocks of lo: (c, c + 2) bytes 0 .. 7, then 16 .. 23, then (c + 1,
    // c + 3) bytes 0 .. 7 and 16 .. 23; hi holds bytes 8 .. 15 and 24 ..
    // 31 likewise.
    const __m512i lo = _mm512_unpacklo_epi8(x01, x23);
    const __m512i hi = _mm512_unpackhi_epi8(x01, x23);
    const __m512i c02 = _mm512_shuffle_i64x2(lo, hi, 0x44);
    const __m512i c13 = _mm512_shuffle_i64x2(lo, hi, 0xEE);
    const __m512i p0 = _mm512_unpacklo_epi16(c02, c13);
    const __m512i p1 = _mm512_unpackhi_epi16(c02, c13);
    const __m512i low4 = _mm512_set1_epi8(0x0F);
    x[0] = _mm512_and_si512(p0, low4);
    x[1] = _mm512_and_si512(p1, low4);
    x[2] = _mm512_and_si512(_mm512_srli_epi16(p0, 4), low4);
    x[3] = _mm512_and_si512(_mm512_srli_epi16(p1, 4), low4);
  } else {
    const auto load = [&](std::size_t j) {
      return _mm512_loadu_si512(tc.codes + ch(j) * tc.stride + t0);
    };
    const __m512i k0 = load(0);
    const __m512i k1 = load(1);
    const __m512i k2 = load(2);
    const __m512i k3 = load(3);
    const __m512i lo02 = _mm512_unpacklo_epi8(k0, k2);
    const __m512i hi02 = _mm512_unpackhi_epi8(k0, k2);
    const __m512i lo13 = _mm512_unpacklo_epi8(k1, k3);
    const __m512i hi13 = _mm512_unpackhi_epi8(k1, k3);
    x[0] = _mm512_unpacklo_epi16(lo02, lo13);
    x[1] = _mm512_unpackhi_epi16(lo02, lo13);
    x[2] = _mm512_unpacklo_epi16(hi02, hi13);
    x[3] = _mm512_unpackhi_epi16(hi02, hi13);
  }
}

// tile_dots_avx2 on vpdpbusd: dots[t] = q_z + sum_c w_c * K's code for t
// < padded (a multiple of 64), K read four channels at a time. Each
// quad's byte-transposed codes (quad_codes, at most 15: the unsigned
// operand) go into one vpdpbusd against the quad's h bytes and one
// against its l bytes (the signed operand, from k_weights_vnni); then
// 128 * sum(code * h) + sum(code * l) + q_z is the exact dot. In place,
// dwords of the even and odd tokens' sums interleave first. Lane L of
// y[k] then holds tokens start + 4 k, and a 4 x 4 transpose of 128-bit
// blocks puts each lane's sixteen tokens in one vector.
template <bool kNibbles>
inline void tile_dots_vnni(const std::uint32_t* h, const std::uint32_t* l,
                           std::int32_t q_z, const TileCodes& tc,
                           std::size_t d, std::int32_t* dots,
                           std::size_t padded) {
  // Lane L's first token: 16 L, or in place 2 i for its first byte i.
  constexpr std::size_t kStart[4] = {0, kNibbles ? 32u : 16u,
                                     kNibbles ? 16u : 32u, 48};
  const __m512i offset = _mm512_set1_epi32(q_z);
  for (std::size_t t0 = 0; t0 < padded; t0 += kVnniChunk) {
    __m512i acc_h[4] = {};
    __m512i acc_l[4] = {};
    for (std::size_t c = 0; c < d; c += 4) {
      __m512i x[4] = {};
      quad_codes<kNibbles>(tc, c, d, t0, x);
      const __m512i hv = _mm512_set1_epi32(static_cast<std::int32_t>(h[c / 4]));
      const __m512i lv = _mm512_set1_epi32(static_cast<std::int32_t>(l[c / 4]));
      for (std::size_t k = 0; k < 4; ++k) {
        acc_h[k] = _mm512_dpbusd_epi32(acc_h[k], x[k], hv);
        acc_l[k] = _mm512_dpbusd_epi32(acc_l[k], x[k], lv);
      }
    }
    __m512i y[4] = {};
    for (std::size_t k = 0; k < 4; ++k) {
      y[k] = _mm512_add_epi32(
          _mm512_add_epi32(_mm512_slli_epi32(acc_h[k], 7), acc_l[k]), offset);
    }
    if constexpr (kNibbles) {
      // Tokens 2i (y[0], y[1]) and 2i + 1 (y[2], y[3]) side by side.
      const __m512i e0 = y[0];
      const __m512i e1 = y[1];
      y[0] = _mm512_unpacklo_epi32(e0, y[2]);
      y[1] = _mm512_unpackhi_epi32(e0, y[2]);
      y[2] = _mm512_unpacklo_epi32(e1, y[3]);
      y[3] = _mm512_unpackhi_epi32(e1, y[3]);
    }
    const __m512i t01a = _mm512_shuffle_i32x4(y[0], y[1], 0x44);
    const __m512i t01b = _mm512_shuffle_i32x4(y[0], y[1], 0xEE);
    const __m512i t23a = _mm512_shuffle_i32x4(y[2], y[3], 0x44);
    const __m512i t23b = _mm512_shuffle_i32x4(y[2], y[3], 0xEE);
    const __m512i ordered[4] = {_mm512_shuffle_i32x4(t01a, t23a, 0x88),
                                _mm512_shuffle_i32x4(t01a, t23a, 0xDD),
                                _mm512_shuffle_i32x4(t01b, t23b, 0x88),
                                _mm512_shuffle_i32x4(t01b, t23b, 0xDD)};
    for (std::size_t L = 0; L < 4; ++L) {
      _mm512_storeu_si512(dots + t0 + kStart[L], ordered[L]);
    }
  }
}

// Sixteen channels' sixteen-lane int32 sums (a[j] for channel j), reduced
// into *out in channel order. Pairs of channels interleave dwords and
// add, then qwords: each 128-bit block L of c[m] then holds channels
// 4m .. 4m + 3's partial sums from block L. Two rounds of 128-bit block
// shuffles (0x88 takes blocks 0 and 2 of each operand, 0xDD blocks 1 and
// 3) add the four blocks, leaving channels 4m .. 4m + 3 in block m.
inline void reduce16_vnni(const __m512i* a, __m512i* out) {
  __m512i b[8] = {};
  for (std::size_t k = 0; k < 8; ++k) {
    b[k] = _mm512_add_epi32(_mm512_unpacklo_epi32(a[2 * k], a[2 * k + 1]),
                            _mm512_unpackhi_epi32(a[2 * k], a[2 * k + 1]));
  }
  __m512i c[4] = {};
  for (std::size_t m = 0; m < 4; ++m) {
    c[m] = _mm512_add_epi32(_mm512_unpacklo_epi64(b[2 * m], b[2 * m + 1]),
                            _mm512_unpackhi_epi64(b[2 * m], b[2 * m + 1]));
  }
  const __m512i e0 = _mm512_add_epi32(_mm512_shuffle_i32x4(c[0], c[1], 0x88),
                                      _mm512_shuffle_i32x4(c[0], c[1], 0xDD));
  const __m512i e1 = _mm512_add_epi32(_mm512_shuffle_i32x4(c[2], c[3], 0x88),
                                      _mm512_shuffle_i32x4(c[2], c[3], 0xDD));
  *out = _mm512_add_epi32(_mm512_shuffle_i32x4(e0, e1, 0x88),
                          _mm512_shuffle_i32x4(e0, e1, 0xDD));
}

// Eight vectors that each hold two channels' partial sums, channel 2k in
// the low eight lanes of a[k] and 2k + 1 in the high eight, reduced into
// *out in channel order. Block shuffles of each pair of vectors (0x88
// takes blocks 0 and 2 of each operand, 0xDD blocks 1 and 3) add the two
// blocks of each channel, leaving channels 4m .. 4m + 3 in blocks 0 .. 3
// of b[m]; interleaving dwords, then qwords, adds within blocks and
// leaves channel 4m + L in lane 4L + m, which one permute puts in order.
inline void reduce_pairs_vnni(const __m512i* a, __m512i* out) {
  __m512i b[4] = {};
  for (std::size_t m = 0; m < 4; ++m) {
    b[m] = _mm512_add_epi32(_mm512_shuffle_i32x4(a[2 * m], a[2 * m + 1], 0x88),
                            _mm512_shuffle_i32x4(a[2 * m], a[2 * m + 1], 0xDD));
  }
  const __m512i c0 = _mm512_add_epi32(_mm512_unpacklo_epi32(b[0], b[1]),
                                      _mm512_unpackhi_epi32(b[0], b[1]));
  const __m512i c1 = _mm512_add_epi32(_mm512_unpacklo_epi32(b[2], b[3]),
                                      _mm512_unpackhi_epi32(b[2], b[3]));
  const __m512i e = _mm512_add_epi32(_mm512_unpacklo_epi64(c0, c1),
                                     _mm512_unpackhi_epi64(c0, c1));
  *out = _mm512_permutexvar_epi32(
      _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15),
      e);
}

// fold_pv_avx2 for sixteen channels [c0, c0 + 16).
inline void fold_pv_vnni(__m512i* sums, const ChannelParams* channels,
                         std::size_t c0, std::size_t d, std::int32_t top,
                         std::int32_t p_total, const std::uint8_t* p_q,
                         const TileCodes& tc, std::size_t tokens) {
  __m512i s = _mm512_setzero_si512();
  __m512i z = _mm512_setzero_si512();
  const __mmask16 clamped = channel_pairs_vnni(channels, c0, d, top, &s, &z);
  *sums = _mm512_add_epi32(
      _mm512_mullo_epi32(s, *sums),
      _mm512_mullo_epi32(z, _mm512_set1_epi32(p_total)));
  if (clamped != 0) {
    alignas(64) std::int32_t lanes16[16] = {};
    _mm512_store_si512(lanes16, *sums);
    redo_clamped(clamped, lanes16, p_q, tc, channels, c0, tokens);
    *sums = _mm512_load_si512(lanes16);
  }
}

// o[c0 + j] += float(sums[j]) * o_scale for the lanes j with c0 + j < d.
inline void add_pv_vnni(const __m512i* sums, std::size_t c0, std::size_t d,
                        float o_scale, float* o) {
  const __mmask16 lanes = lane_mask(d - c0);
  _mm512_mask_storeu_ps(
      o + c0, lanes,
      _mm512_add_ps(_mm512_maskz_loadu_ps(lanes, o + c0),
                    _mm512_mul_ps(_mm512_cvtepi32_ps(*sums),
                                  _mm512_set1_ps(o_scale))));
}

// tile_pv_avx2 on vpdpbusd over unpacked codes: per channel, one vpdpbusd
// of its 64 raw codes against the 64 P~ codes leaves sixteen partial
// sums; sixteen channels at a time reduce in one tree, then fold. padded
// is a multiple of 64.
inline void tile_pv_vnni(const std::uint8_t* p_q, const TileCodes& tc,
                         const ChannelParams* channels, std::size_t d,
                         std::int32_t top, std::int32_t p_total,
                         std::size_t tokens, std::size_t padded,
                         float o_scale, float* o) {
  for (std::size_t c0 = 0; c0 < d; c0 += 16) {
    __m512i acc[16] = {};
    for (std::size_t t0 = 0; t0 < padded; t0 += kVnniChunk) {
      const __m512i p = _mm512_loadu_si512(p_q + t0);
      for (std::size_t j = 0; j < 16; ++j) {
        // A group past d repeats channel d - 1; its lanes are dropped.
        const std::size_t ch = std::min(c0 + j, d - 1);
        acc[j] = _mm512_dpbusd_epi32(
            acc[j], _mm512_loadu_si512(tc.codes + ch * tc.stride + t0), p);
      }
    }
    __m512i sums = _mm512_setzero_si512();
    reduce16_vnni(acc, &sums);
    fold_pv_vnni(&sums, channels, c0, d, top, p_total, p_q, tc, tokens);
    add_pv_vnni(&sums, c0, d, o_scale, o);
  }
}

// p_split for n P~ codes (a multiple of 64): per 64, the even tokens'
// codes, then the odd tokens'. Words keep their low byte (even) or shift
// down their high byte (odd); packus interleaves the two eight bytes at a
// time, and a qword permute gathers each half.
inline void split_p_vnni(const std::uint8_t* p_q, std::size_t n,
                         std::uint8_t* out) {
  const __m512i low8 = _mm512_set1_epi16(0x00FF);
  const __m512i order = _mm512_setr_epi64(0, 2, 4, 6, 1, 3, 5, 7);
  for (std::size_t t0 = 0; t0 < n; t0 += kVnniChunk) {
    const __m512i p = _mm512_loadu_si512(p_q + t0);
    const __m512i packed = _mm512_packus_epi16(_mm512_and_si512(p, low8),
                                               _mm512_srli_epi16(p, 8));
    _mm512_storeu_si512(out + t0, _mm512_permutexvar_epi64(order, packed));
  }
}

// tile_pv_vnni over an INT4 block read in place (rows a multiple of 64).
// The sum over a channel's tokens takes them in any order, so no nibble
// is put back in token order: each 64-byte read holds two channels'
// packed bytes (one load where a 64-row block's channels lie back to
// back, else code_pair's two), their low nibbles (even tokens) go in one
// vpdpbusd against the even tokens' P~ codes and their high nibbles (odd
// tokens) in another against the odd tokens', each half broadcast from
// p_split. Accumulator k then holds channel 2k's partial sums in its low
// lanes and 2k + 1's in its high ones.
inline void tile_pv_nibbles_vnni(const std::uint8_t* p_split,
                                 const std::uint8_t* p_q, const TileCodes& tc,
                                 const ChannelParams* channels, std::size_t d,
                                 std::int32_t top, std::int32_t p_total,
                                 std::size_t tokens, float o_scale, float* o) {
  const __m512i low4 = _mm512_set1_epi8(0x0F);
  for (std::size_t c0 = 0; c0 < d; c0 += 16) {
    // In a 64-row block a whole group's codes lie back to back, 64 bytes
    // per pair of channels.
    const bool back_to_back = tc.stride == kVnniChunk && c0 + 16 <= d;
    __m512i acc[8] = {};
    for (std::size_t t0 = 0; t0 < tokens; t0 += kVnniChunk) {
      const __m512i even = _mm512_broadcast_i64x4(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p_split + t0)));
      const __m512i odd = _mm512_broadcast_i64x4(_mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(p_split + t0 + 32)));
      for (std::size_t k = 0; k < 8; ++k) {
        __m512i x = _mm512_setzero_si512();
        if (back_to_back) {
          x = _mm512_loadu_si512(tc.codes + c0 * kVnniChunk / 2 + 64 * k);
        } else {
          // Channels past d repeat channel d - 1; their lanes are dropped.
          code_pair(tc, std::min(c0 + 2 * k, d - 1),
                    std::min(c0 + 2 * k + 1, d - 1), t0, &x);
        }
        acc[k] = _mm512_dpbusd_epi32(acc[k], _mm512_and_si512(x, low4), even);
        acc[k] = _mm512_dpbusd_epi32(
            acc[k], _mm512_and_si512(_mm512_srli_epi16(x, 4), low4), odd);
      }
    }
    __m512i sums = _mm512_setzero_si512();
    reduce_pairs_vnni(acc, &sums);
    fold_pv_vnni(&sums, channels, c0, d, top, p_total, p_q, tc, tokens);
    add_pv_vnni(&sums, c0, d, o_scale, o);
  }
}

// N vectors of pv_rows' channels [c, c + 16 N); the last one takes
// only the lanes in `last`. Per quad of P~ codes that is not 0, one
// vpdpbusd per vector against the four V rows of sixteen channels.
template <std::size_t N>
inline void quad_pv_vectors_vnni(float* o, const std::uint32_t* p4,
                                 std::size_t q0, std::size_t q1,
                                 const std::uint32_t* v_quads, std::size_t d,
                                 std::size_t c, float o_scale,
                                 __mmask16 last) {
  __m512i acc[N] = {};
  for (std::size_t t4 = q0; t4 < q1; ++t4) {
    if (p4[t4] == 0) continue;
    const __m512i p = _mm512_set1_epi32(static_cast<std::int32_t>(p4[t4]));
    const std::uint32_t* v = v_quads + t4 * d + c;
    for (std::size_t g = 0; g < N; ++g) {
      acc[g] = _mm512_dpbusd_epi32(
          acc[g], p,
          _mm512_maskz_loadu_epi32(g + 1 < N ? __mmask16{0xFFFF} : last,
                                   v + 16 * g));
    }
  }
  const __m512 os = _mm512_set1_ps(o_scale);
  for (std::size_t g = 0; g < N; ++g) {
    const __mmask16 lanes = g + 1 < N ? __mmask16{0xFFFF} : last;
    float* out = o + c + 16 * g;
    _mm512_mask_storeu_ps(
        out, lanes,
        _mm512_add_ps(_mm512_maskz_loadu_ps(lanes, out),
                      _mm512_mul_ps(_mm512_cvtepi32_ps(acc[g]), os)));
  }
}

// P~ codes on sixteen lanes per step: clamp_to_i8(p * inv_p, 0, 127),
// stored as bytes (vpmovdb). The clamp runs before the rounding: its
// bounds are integers, so the two commute in any rounding direction, and
// _mm512_max_ps returns its second operand, 0, for a NaN lane. Returns
// whether any code is not 0.
inline bool p_codes_avx512(const float* p, std::size_t n, float inv_p,
                           std::uint8_t* out) {
  const __m512 vinv = _mm512_set1_ps(inv_p);
  const __m512 hi = _mm512_set1_ps(127.0f);
  const __m512 zero = _mm512_setzero_ps();
  __mmask16 live = 0;
  for (std::size_t t = 0; t < n; t += 16) {
    const __mmask16 lanes = lane_mask(n - t);
    const __m512 y = _mm512_mul_ps(_mm512_maskz_loadu_ps(lanes, p + t), vinv);
    const __m512i code =
        _mm512_cvtps_epi32(_mm512_min_ps(_mm512_max_ps(y, zero), hi));
    _mm512_mask_cvtepi32_storeu_epi8(out + t, lanes, code);
    live = static_cast<__mmask16>(live | _mm512_test_epi32_mask(code, code));
  }
  return live != 0;
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
    codes_avx2(x.data(), i0, inv, -127.0f, out.data());
  }
#endif
  for (std::size_t i = i0; i < n; ++i) out[i] = clamp_to_i8(x[i] * inv);
  return scale;
}

// The tile's codes: the packed bytes themselves for an INT4 block the
// AVX-512 build reads in place (a multiple of 64 rows, so every 64-token
// step starts on a byte and ends inside the channel), else the codes
// unpacked into w.codes.
inline TileCodes load_codes(const ProgressiveBlock& block, Scratch& w) {
  if (kAvx512 && block.bits == BitWidth::kInt4 &&
      block.rows % kVnniChunk == 0) {
    return {block.packed.data(), block.rows, true};
  }
  const std::size_t n = block.rows * block.cols;
  // Slack for the last channel's final 64-code read.
  w.codes.resize(n + kVnniChunk);
  unpack_codes(block.packed, block.bits, n, w.codes);
  return {w.codes.data(), block.rows, false};
}

// K's second stage folded into q.k for one block: w.weights gets each
// channel's weight w_c = q_c * s_int where its table is linear, 0 where
// it clamps (w.clamped lists those channels), in the layout the build's
// tile_dots reads. Returns the constant sum q_c * z_int over the linear
// channels. q holds zeros from d up to a multiple of 16.
inline std::int32_t k_weights(const ProgressiveBlock& k, const std::int8_t* q,
                              Scratch& w) {
  const std::size_t d = k.cols;
  const std::int32_t top = max_code(k.bits);
  w.clamped.clear();
#if defined(__x86_64__)
  if constexpr (kAvx512) {
    // The h dwords of each quad, then the l dwords.
    const std::size_t quads = (d + 15) / 16 * 4;
    w.weights.resize(2 * quads);
    auto* h = reinterpret_cast<std::uint32_t*>(w.weights.data());
    return k_weights_vnni(k.channels.data(), q, d, top, h, h + quads,
                          w.clamped);
  } else if constexpr (kSimd) {
    w.weights.resize((d + 7) / 8 * 8);
    return k_weights_avx2(k.channels.data(), q, d, top, w.weights.data(),
                          w.clamped);
  }
#endif
  w.weights.assign(d, 0);
  std::int32_t q_z = 0;
  for (std::size_t c = 0; c < d; ++c) {
    const ChannelParams cp = k.channels[c];
    if (clamps(cp, top)) {
      w.clamped.push_back(c);
    } else {
      w.weights[c] = q[c] * cp.s_int;
      q_z += q[c] * cp.z_int;
    }
  }
  return q_z;
}

// w.dots[t] = q . K[t] for the packed block k, whose codes load_codes
// loaded: the folded weights against the raw codes, channel by channel,
// plus the constant (k_weights), then each channel that clamps through
// its table.
inline void tile_dots(const ProgressiveBlock& k, const TileCodes& tc,
                      const std::int8_t* q, Scratch& w) {
  const std::size_t d = k.cols;
  const std::size_t tokens = k.rows;
  const std::size_t step = kAvx512 ? kVnniChunk : kChunk;
  w.dots.resize((tokens + step - 1) / step * step);
  const std::int32_t q_z = k_weights(k, q, w);
#if defined(__x86_64__)
  if constexpr (kAvx512) {
    const auto* h = reinterpret_cast<const std::uint32_t*>(w.weights.data());
    const std::uint32_t* l = h + w.weights.size() / 2;
    if (tc.nibbles) {
      tile_dots_vnni<true>(h, l, q_z, tc, d, w.dots.data(), w.dots.size());
    } else {
      tile_dots_vnni<false>(h, l, q_z, tc, d, w.dots.data(), w.dots.size());
    }
  } else if constexpr (kSimd) {
    tile_dots_avx2(w.weights.data(), q_z, tc.codes, tc.stride, d,
                   w.dots.data(), w.dots.size());
  }
#endif
  if constexpr (!kSimd) {
    std::fill(w.dots.begin(), w.dots.end(), q_z);
    for (std::size_t c = 0; c < d; ++c) {
      const std::int32_t wc = w.weights[c];
      if (wc == 0) continue;
      const std::uint8_t* codes = tc.codes + c * tc.stride;
      for (std::size_t t = 0; t < tokens; ++t) w.dots[t] += wc * codes[t];
    }
  }
  for (const std::size_t c : w.clamped) {
    if (q[c] != 0) {
      table_dots(q[c], tc, c, tokens, k.channels[c], w.dots.data());
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

// P~ codes clamp_to_i8(p[t] * inv_p, 0, 127) for t < n, as bytes.
// Returns whether any is not 0.
inline bool p_codes(const float* p, std::size_t n, float inv_p,
                    std::uint8_t* out) {
  std::size_t t0 = 0;
#if defined(__x86_64__)
  if constexpr (kAvx512) {
    return p_codes_avx512(p, n, inv_p, out);
  } else if constexpr (kSimd) {
    t0 = n - n % 32;
    codes_avx2(p, t0, inv_p, 0.0f, reinterpret_cast<std::int8_t*>(out));
  }
#endif
  for (std::size_t t = t0; t < n; ++t) {
    out[t] = trunc_to_u8(clamp_to_i8(p[t] * inv_p, 0, 127));
  }
  std::uint8_t live = 0;
  for (std::size_t t = 0; t < n; ++t) live |= out[t];
  return live != 0;
}

// The quad-major copy of n_rows token-major INT8 rows of d, the layout
// the SIMD P~V reads: out[t4 * stride + c] holds rows 4 t4 .. 4 t4 + 3 of
// channel c, one byte each from the low one up, zero past the last row.
// stride is d, or more where a reader wants whole blocks of channels (the
// AMX prefill); the dwords past d are left as they are.
inline void v_quads(const std::int8_t* rows, std::size_t n_rows,
                    std::size_t d, std::size_t stride, std::uint32_t* out) {
#if defined(__x86_64__)
  if constexpr (kAvx512) {
    v_quads_avx512(rows, n_rows, d, stride, out);
    return;
  }
#endif
  const auto byte = [&](std::size_t t, std::size_t c) {
    return t < n_rows ? std::uint32_t{trunc_to_u8(rows[t * d + c])} : 0u;
  };
  for (std::size_t t = 0; t < n_rows; t += 4) {
    std::uint32_t* dst = out + t / 4 * stride;
    for (std::size_t c = 0; c < d; ++c) {
      dst[c] = byte(t, c) | byte(t + 1, c) << 8 | byte(t + 2, c) << 16 |
               byte(t + 3, c) << 24;
    }
  }
}

// o[c] += float(sum) * o_scale for every channel c < d, sum the exact
// int32 sum of p_q[t] * V[t][c] over t in [lo, hi). The SIMD builds read
// V from its quad-major copy (v_quads), four P~ codes per dword of p4,
// whose bytes outside [lo, hi) must be 0; the baseline build reads the
// token-major rows.
inline void pv_rows(float* o, const std::uint32_t* p4, std::size_t lo,
                    std::size_t hi, const std::int8_t* rows,
                    const std::uint32_t* quads, std::size_t d,
                    float o_scale, std::vector<std::int32_t>& sums) {
  const std::size_t q0 = lo / 4;
  const std::size_t q1 = (hi + 3) / 4;
#if defined(__x86_64__)
  if constexpr (kAvx512) {
    std::size_t c = 0;
    for (; c + 128 <= d; c += 128) {
      quad_pv_vectors_vnni<8>(o, p4, q0, q1, quads, d, c, o_scale, 0xFFFF);
    }
    for (; c + 64 <= d; c += 64) {
      quad_pv_vectors_vnni<4>(o, p4, q0, q1, quads, d, c, o_scale, 0xFFFF);
    }
    for (; c < d; c += 16) {
      quad_pv_vectors_vnni<1>(o, p4, q0, q1, quads, d, c, o_scale,
                              lane_mask(d - c));
    }
    return;
  } else if constexpr (kSimd) {
    std::size_t c = 0;
    for (; c + 64 <= d; c += 64) {
      quad_pv_vectors_avx2<8>(o, p4, q0, q1, quads, d, c, o_scale);
    }
    for (; c + 8 <= d; c += 8) {
      quad_pv_vectors_avx2<1>(o, p4, q0, q1, quads, d, c, o_scale);
    }
    for (; c < d; ++c) {
      std::int32_t sum = 0;
      for (std::size_t t4 = q0; t4 < q1; ++t4) {
        const std::uint32_t p = p4[t4];
        const std::uint32_t v = quads[t4 * d + c];
        // Byte j / 8 of each: P~ unsigned, V signed.
        for (unsigned j = 0; j < 32; j += 8) {
          sum += static_cast<std::int32_t>((p >> j) & 0xFFu) *
                 (static_cast<std::int32_t>(v << (24 - j)) >> 24);
        }
      }
      o[c] += static_cast<float>(sum) * o_scale;
    }
    return;
  }
#endif
  const auto* codes = reinterpret_cast<const std::uint8_t*>(p4);
  sums.assign(d, 0);
  for (std::size_t t = lo; t < hi; ++t) {
    const std::int32_t pq = codes[t];
    if (pq == 0) continue;
    const std::int8_t* row = rows + t * d;
    for (std::size_t c = 0; c < d; ++c) sums[c] += pq * row[c];
  }
  for (std::size_t c = 0; c < d; ++c) {
    o[c] += static_cast<float>(sums[c]) * o_scale;
  }
}

// o[c] += float(sum) * o_scale for every channel c < d, sum the exact
// int32 sum of p_q[t] * V[t][c] over the packed block `v`, whose codes
// load_codes loaded, read channel by channel; p_q holds `padded` codes,
// zero past the tile. V's second stage folds into the sum: a channel
// whose table is linear sums its raw codes, then takes s_int * that +
// z_int * sum p_q; one that clamps goes through table_pv.
inline void tile_pv(const ProgressiveBlock& v, const TileCodes& tc,
                    const std::uint8_t* p_q, std::size_t tokens,
                    std::size_t padded, float o_scale, float* o,
                    Scratch& w) {
  const std::size_t d = v.cols;
  const ChannelParams* channels = v.channels.data();
  const std::int32_t top = max_code(v.bits);
  std::int32_t p_total = 0;
  for (std::size_t t = 0; t < tokens; ++t) p_total += p_q[t];
#if defined(__x86_64__)
  if constexpr (kAvx512) {
    if (tc.nibbles) {
      w.p_split.resize(tokens);
      split_p_vnni(p_q, tokens, w.p_split.data());
      tile_pv_nibbles_vnni(w.p_split.data(), p_q, tc, channels, d, top,
                           p_total, tokens, o_scale, o);
    } else {
      tile_pv_vnni(p_q, tc, channels, d, top, p_total, tokens, padded,
                   o_scale, o);
    }
    return;
  } else if constexpr (kSimd) {
    tile_pv_avx2(p_q, tc, channels, d, top, p_total, tokens, padded, o_scale,
                 o);
    return;
  }
#endif
  (void)padded, (void)w;
  for (std::size_t c = 0; c < d; ++c) {
    const ChannelParams cp = channels[c];
    std::int32_t sum = 0;
    if (clamps(cp, top)) {
      sum = table_pv(p_q, tc, c, tokens, cp);
    } else {
      // A dot product the compiler vectorizes, then the affine step in 64
      // bits: s_int * raw alone may reach twice the largest sum.
      const std::uint8_t* codes = tc.codes + c * tc.stride;
      std::int32_t raw = 0;
      for (std::size_t t = 0; t < tokens; ++t) raw += p_q[t] * codes[t];
      sum = saturate_cast<std::int32_t>(std::int64_t{cp.s_int} * raw +
                                        std::int64_t{cp.z_int} * p_total);
    }
    o[c] += static_cast<float>(sum) * o_scale;
  }
}

// V of one chunk: INT8 rows ready to read, or a packed tile that is read
// only when some quantized P~ of the chunk is nonzero.
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
  // w.p[0] holds the rescale argument, first so that it takes a vector
  // lane of Sas::apply (the AVX2 path runs its n % 8 tail scalar); the
  // scores follow.
  w.p.resize(tokens + 1);
  const std::span<float> p(w.p.data() + 1, tokens);
  for (std::size_t t = 0; t < tokens; ++t) {
    p[t] = t < mask_before ? kNegInf
                           : static_cast<float>(w.dots[t]) * s_scale;
  }

  // Online-softmax update with SAS.
  float block_max = kNegInf;
  for (const float v : p) block_max = std::max(block_max, v);
  const float m_new = std::max(st.m, block_max);
  w.p[0] = st.m - m_new;
  for (float& v : p) v -= m_new;
  sas.apply(w.p);
  const float alpha = st.m == kNegInf ? 0.0f : w.p[0];
  float p_max = 0.0f;
  float row_sum = 0.0f;
  for (const float v : p) {
    row_sum += v;
    p_max = std::max(p_max, v);
  }
  if (alpha != 1.0f) {
    for (float& v : st.o) v *= alpha;
  }
  st.l = st.l * alpha + row_sum;
  st.m = m_new;

  // Quantize P~ to INT8 codes, zero past the chunk up to a whole SIMD
  // step; a chunk whose codes are all 0 adds nothing to O.
  const float p_scale = p_max > 0.0f ? p_max / kSymmetricHeadroom : 1.0f;
  const float inv_p = 1.0f / p_scale;
  const float o_scale = p_scale * vs.scale;
  const std::size_t step = kAvx512 ? kVnniChunk : kChunk;
  const std::size_t padded = (tokens + step - 1) / step * step;
  w.p_q.assign(padded / 4, 0);
  auto* codes = reinterpret_cast<std::uint8_t*>(w.p_q.data());
  if (!p_codes(p.data(), tokens, inv_p, codes)) return;

  // O += o_scale * P~ V, summed in int32.
  if (vs.packed != nullptr) {
    const TileCodes tc = load_codes(*vs.packed, w);
    tile_pv(*vs.packed, tc, codes, tokens, padded, o_scale, st.o.data(), w);
    return;
  }
  if constexpr (kSimd) {
    w.v_quads.resize((tokens + 3) / 4 * d);
    v_quads(vs.rows, tokens, d, d, w.v_quads.data());
  }
  pv_rows(st.o.data(), w.p_q.data(), 0, tokens, vs.rows, w.v_quads.data(), d,
          o_scale, w.sums);
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

  // Zero past d up to a whole group of sixteen channels, which the SIMD
  // k_weights read.
  std::vector<std::int8_t> q_q1((d + 15) / 16 * 16, 0);
  const float q_scale = stage1(q, std::span(q_q1).first(d));

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
    tile_dots(block->k, load_codes(block->k, w), q_q1.data(), w);
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
