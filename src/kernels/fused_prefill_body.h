// Body of the fused TurboAttention prefill kernel, compiled once per
// instruction set, and in the AVX-512 build twice: without AMX and with.
//
// kernels/fused_kernels.cpp includes this file right after
// fused_decode_body.h, in every ISA namespace, so it has no include guard
// and reuses that body's helpers: stage1 (stage-1 quantization), row_dots
// (exact int32 q.k, four keys per reduction) or, in the AVX-512 build,
// quad_dots_vnni over a per-tile copy of K, max_avx2, p_codes (P~ codes
// as bytes), v_quads (the SIMD builds' per-tile copy of V) and pv_rows
// (P~V).
//
// The body is fused_prefill<kAmx>. Every build instantiates it without
// AMX; fused_kernels_avx512.cpp also instantiates it with kAmx, the "amx"
// entry, whose QK^T and P~V run as AMX-INT8 tile products (amx_product)
// over the same quad copies of K and V, all rows of the Q tile at once.
// Between the two products it runs the per-row code of the other builds.
//
// The result (o, lse and the cache) is bit-identical to
// turbo_attention_prefill, the oracle in attention/turbo_prefill.cpp.
// Every build runs the oracle's arithmetic:
//
//   * stage 1 gives the oracle's scales and codes, read straight from the
//     input rows instead of from tile copies;
//   * QK^T is exact int32, so its order is free. Keys outside a row's
//     visible range are not kept: in the oracle their -inf scores give
//     P~ = 0, which adds +0 to the row sum and leaves it unchanged. A KV
//     tile no row of the Q tile sees changes nothing and is skipped whole;
//   * a row's block max is order-free. NaN is skipped either way, and the
//     only tie it can break is -0 against +0, a sign no exponential, sum
//     or lse value can see;
//   * the shifted scores s - m_new and the rescale arguments m - m_new go
//     through Sas::apply, which is exp_neg bit for bit;
//   * each row's sum and its l update run in key order, scalar; SIMD
//     lanes are rows' elements only where the operation is element-wise;
//   * P~ codes are clamp_to_i8(p * inv_p, 0, 127), and P~V is exact in
//     int32, so its order and lanes are free: each output channel sums
//     p_q * v over the row's keys of the tile, then adds float(sum) *
//     o_scale once, after that row's alpha rescale, when some code is not
//     0.
//
// The enclosing namespace provides `constexpr bool kSimd` and `kAvx512`.

inline std::size_t round_up(std::size_t n, std::size_t m) {
  return (n + m - 1) / m * m;
}

// Buffers reused by every tile of one call; each holds at most one tile.
struct PrefillScratch {
  std::vector<std::int8_t> q8;      // the Q tile's stage-1 codes
  std::vector<float> m;             // per row: running max
  std::vector<float> l;             // per row: running sum
  std::vector<float> m_new;         // per row: max after this KV tile
  std::vector<std::size_t> lo;      // per row: first visible key of the tile
  std::vector<std::size_t> len;     // per row: keys it takes from the tile
  // Sas::apply's input, then output: each row's m - m_new, then the
  // shifted scores of every row with len > 0, back to back in row order.
  std::vector<float> x;
  // One row's q.k; with kAmx, the QK^T product: every row's, over every
  // key of the tile, dots_cols apart.
  std::vector<std::int32_t> dots;
  std::size_t dots_cols = 0;
  // One row's P~ codes over the tile, four bytes per dword, zero outside
  // the row's visible keys (pv_rows reads whole dwords); with kAmx, every
  // row's, p_cols bytes apart (P~V's A operand).
  std::vector<std::uint32_t> p4;
  std::size_t p_cols = 0;
  // The baseline P~V's per-channel sums; with kAmx, the P~V product: every
  // row's, v_stride apart.
  std::vector<std::int32_t> sums;
  // The AVX-512 QK^T's operands: every K tile in k_quads' layout,
  // k_tile_quads dwords apart (quad_stride keys per row of four channels),
  // and per row of the Q tile its codes as four-byte quads, q4_cols apart
  // and zero past d, and their sum.
  std::vector<std::uint32_t> k_quads;
  std::size_t k_tile_quads = 0;
  std::size_t quad_stride = 0;
  std::vector<std::int32_t> q4;
  std::size_t q4_cols = 0;
  std::vector<std::int32_t> q_total;
  // The SIMD P~V's operand: every V tile in v_quads' layout, v_tile_quads
  // dwords apart (v_stride channels per row of four keys).
  std::vector<std::uint32_t> v_quads;
  std::size_t v_tile_quads = 0;
  std::size_t v_stride = 0;
};

// A K tile in quad_dots_vnni's layout: row c4 of d4 = ceil(d / 4) holds,
// for each key t, its channels 4 c4 .. 4 c4 + 3 in one little-endian
// dword, each byte k ^ 0x80 = k + 128 (past d, 0x80: q's zero bytes there
// cancel it). Per four keys and 64 channels, the 4 x 16 dword transpose
// leaves each channel quad's four keys in one 128-bit block. Key slots
// past the tile, up to the next multiple of 4, hold junk the dots never
// keep.
inline void k_quads(const MatrixI8& k, std::size_t d4, std::size_t stride,
                    std::uint32_t* out) {
#if defined(__x86_64__)
  const std::size_t d = k.cols();
  const std::size_t n = k.rows();
  const __m512i flip = _mm512_set1_epi8(-128);
  for (std::size_t t = 0; t < n; t += 4) {
    for (std::size_t c0 = 0; c0 < d; c0 += 64) {
      __m512i x[4] = {};
      for (std::size_t j = 0; j < 4 && t + j < n; ++j) {
        x[j] = _mm512_maskz_loadu_epi8(byte_mask(d - c0),
                                       k.data() + (t + j) * d + c0);
      }
      transpose4x16_epi32(x);
      const std::size_t c4 = c0 / 4;
      for (std::size_t g = 0; g < 4; ++g) {
        const __m512i y = _mm512_xor_si512(x[g], flip);
        const __m128i blocks[4] = {_mm512_castsi512_si128(y),
                                   _mm512_extracti32x4_epi32(y, 1),
                                   _mm512_extracti32x4_epi32(y, 2),
                                   _mm512_extracti32x4_epi32(y, 3)};
        for (std::size_t m = 0; m < 4 && c4 + 4 * g + m < d4; ++m) {
          _mm_storeu_si128(
              reinterpret_cast<__m128i*>(out + (c4 + 4 * g + m) * stride + t),
              blocks[m]);
        }
      }
    }
  }
#else
  (void)k, (void)d4, (void)stride, (void)out;
#endif
}

// --- AMX-INT8 (the kAmx build) -------------------------------------------
//
// TileState configures all eight tiles as 16 rows of 64 bytes. A tile
// product C += A B takes A as 16 rows of 64 bytes and B as 16 rows of
// sixteen dwords, and adds to C's int32 (r, n) the products of A's row r,
// bytes 4 k4 .. 4 k4 + 3, with the four bytes of B's row k4, dword n, for
// every k4: B's rows step through the depth four bytes at a time, its
// dwords are C's columns. The quad copies already have that layout:
//
//   * QK^T: row c4 of a K tile's k_quads holds each key's channels
//     4 c4 .. 4 c4 + 3 as k + 128. With the channels as depth, A is the Q
//     tile's codes, one row of channels per query, and C's (r, t) is
//     sum_c q (k + 128): tdpbsud takes A signed and B unsigned, and less
//     128 sum_c q, as quad_dots_vnni does, that is q.k;
//   * P~V: row t4 of a V tile's v_quads holds each channel's keys
//     4 t4 .. 4 t4 + 3. With the keys as depth, A is the tile's P~ codes,
//     one row of keys per query, and C's (r, c) is sum_t p_q v: tdpbusd
//     takes A unsigned and B signed.
//
// Every operand is padded with zero bytes to whole tiles: the Q codes and
// the P~ codes to 16-row blocks of 64-byte rows, K's quad rows to a
// multiple of 16 (64 channels) with 16-key blocks, V's quad rows to 16 per
// 64 keys with 16-channel blocks. A zero byte of A meets whatever B holds
// there and adds 0; products are exact in int32.
//
// GCC 12's _tile_loadd (and _tile_loadconfig, which names 8 of its 64
// bytes) is an asm statement that declares no memory input, so the
// compiler may sink, or drop as dead, the stores that fill an operand
// just before the load: operand_barrier goes in front of the loads. And no
// sanitizer sees a tile load or store, so every operand buffer is sized
// to its padded shape and amx_product TURBO_DCHECKs that the last byte
// each load reads, and each store writes, lies inside its buffer.

// A compiler barrier for the memory p points into: every store before it
// is done before any statement after it.
inline void operand_barrier(const void* p) {
  asm volatile("" : : "r"(p) : "memory");
}

// The tile configuration of one kAmx prefill call: loaded on
// construction, before the first product, and released (tilerelease) by
// the destructor, on every exit from the call, a throw included.
class TileState {
 public:
  TileState() {
#if defined(__x86_64__)
    alignas(64) std::uint8_t config[64] = {};
    config[0] = 1;  // palette 1
    for (std::size_t t = 0; t < 8; ++t) {
      config[16 + 2 * t] = 64;  // bytes per row, a little-endian uint16
      config[48 + t] = 16;      // rows
    }
    operand_barrier(config);
    _tile_loadconfig(config);
#endif
  }
  ~TileState() {
#if defined(__x86_64__)
    _tile_release();
#endif
  }
  TileState(const TileState&) = delete;
  TileState& operator=(const TileState&) = delete;
};

// Stands in for TileState in the builds without AMX.
struct NoTiles {};

#if defined(__x86_64__)
// One block of amx_product: C tiles 0 (and 1, 2, 3 for kTwoCols and
// kTwoRows) over the k bytes of depth, each 64 of them one load of A into
// tiles 4 (and 5) and of B into tiles 6 (and 7), and one tile product per
// C tile. The tile numbers are part of each instruction.
template <bool kSignedA, bool kTwoRows, bool kTwoCols>
inline void amx_block(const std::uint8_t* a, std::size_t a_stride,
                      const std::uint8_t* b, std::size_t b_stride,
                      std::size_t k, std::int32_t* c, std::size_t c_cols) {
  _tile_zero(0);
  if constexpr (kTwoCols) _tile_zero(1);
  if constexpr (kTwoRows) _tile_zero(2);
  if constexpr (kTwoRows && kTwoCols) _tile_zero(3);
  for (std::size_t k0 = 0; k0 < k; k0 += 64) {
    const std::uint8_t* bk = b + k0 / 4 * b_stride;
    _tile_loadd(4, a + k0, a_stride);
    _tile_loadd(6, bk, b_stride);
    if constexpr (kTwoRows) _tile_loadd(5, a + 16 * a_stride + k0, a_stride);
    if constexpr (kTwoCols) _tile_loadd(7, bk + 64, b_stride);
    if constexpr (kSignedA) {
      _tile_dpbsud(0, 4, 6);
      if constexpr (kTwoCols) _tile_dpbsud(1, 4, 7);
      if constexpr (kTwoRows) _tile_dpbsud(2, 5, 6);
      if constexpr (kTwoRows && kTwoCols) _tile_dpbsud(3, 5, 7);
    } else {
      _tile_dpbusd(0, 4, 6);
      if constexpr (kTwoCols) _tile_dpbusd(1, 4, 7);
      if constexpr (kTwoRows) _tile_dpbusd(2, 5, 6);
      if constexpr (kTwoRows && kTwoCols) _tile_dpbusd(3, 5, 7);
    }
  }
  const std::size_t stride = c_cols * sizeof(std::int32_t);
  _tile_stored(0, c, stride);
  if constexpr (kTwoCols) _tile_stored(1, c + 16, stride);
  if constexpr (kTwoRows) _tile_stored(2, c + 16 * c_cols, stride);
  if constexpr (kTwoRows && kTwoCols) {
    _tile_stored(3, c + 16 * c_cols + 16, stride);
  }
}
#endif

// c = a b as AMX tile products, in the layout above, with m and n
// multiples of 16 and k of 64: a holds m rows of k bytes, a_stride bytes
// apart, b k / 4 rows of n dwords, b_stride bytes apart, and c gets m rows
// of n int32, c_cols apart. kSignedA: a's bytes are signed and b's
// unsigned (tdpbsud), else the other way round (tdpbusd). C runs in
// blocks of 2 x 2 tiles that share two A and two B loads per 64 bytes of
// depth; an odd last row or column of tiles runs on its own.
template <bool kSignedA>
inline void amx_product(std::span<const std::uint8_t> a, std::size_t a_stride,
                        std::span<const std::uint8_t> b, std::size_t b_stride,
                        std::size_t m, std::size_t n, std::size_t k,
                        std::span<std::int32_t> c, std::size_t c_cols) {
#if defined(__x86_64__)
  TURBO_DCHECK(m > 0 && n > 0 && k > 0);
  TURBO_DCHECK(m % 16 == 0 && n % 16 == 0 && k % 64 == 0 && n <= c_cols);
  TURBO_DCHECK((m - 1) * a_stride + k <= a.size());
  TURBO_DCHECK((k / 4 - 1) * b_stride + n * 4 <= b.size());
  TURBO_DCHECK((m - 1) * c_cols + n <= c.size());
  operand_barrier(a.data());
  operand_barrier(b.data());
  for (std::size_t i = 0; i < m; i += 32) {
    const std::uint8_t* ai = a.data() + i * a_stride;
    for (std::size_t j = 0; j < n; j += 32) {
      const std::uint8_t* bj = b.data() + j * 4;
      std::int32_t* cij = c.data() + i * c_cols + j;
      const bool two_rows = i + 16 < m;
      const bool two_cols = j + 16 < n;
      if (two_rows && two_cols) {
        amx_block<kSignedA, true, true>(ai, a_stride, bj, b_stride, k, cij,
                                        c_cols);
      } else if (two_rows) {
        amx_block<kSignedA, true, false>(ai, a_stride, bj, b_stride, k, cij,
                                         c_cols);
      } else if (two_cols) {
        amx_block<kSignedA, false, true>(ai, a_stride, bj, b_stride, k, cij,
                                         c_cols);
      } else {
        amx_block<kSignedA, false, false>(ai, a_stride, bj, b_stride, k, cij,
                                          c_cols);
      }
    }
  }
#else
  (void)a, (void)a_stride, (void)b, (void)b_stride, (void)m, (void)n,
      (void)k, (void)c, (void)c_cols;
#endif
}

// The bytes of v from p to its end: a tile operand that starts inside v.
template <class T>
std::span<const std::uint8_t> bytes_from(const T* p, const std::vector<T>& v) {
  return {reinterpret_cast<const std::uint8_t*>(p),
          static_cast<std::size_t>(v.data() + v.size() - p) * sizeof(T)};
}

// One (Q tile, KV tile) step of Algorithm 1 for the rows whose visible
// range w.lo / w.len the caller set: scores, SAS, the online-softmax
// update and P~V into o (rows of the Q tile, stride d). The AVX-512 build
// reads K from quads, the tile's block of w.k_quads, and the SIMD builds
// read V from vq, the tile's block of w.v_quads. kAmx runs QK^T for every
// row and key of the tile first, and P~V for every row last, each as one
// tile product.
template <bool kAmx>
inline void absorb_kv_tile(const Int8Tile& k_tile,
                           const std::uint32_t* quads,
                           const Int8Tile& v_tile,
                           const std::uint32_t* vq, std::size_t q_rows,
                           std::size_t d, float q_scale, float attn_scale,
                           const Sas& sas, float* o, PrefillScratch& w) {
  const float s_scale = q_scale * k_tile.scale * attn_scale;
  const std::size_t k_rows = k_tile.q.rows();
  if constexpr (kAmx) {
    amx_product<true>(bytes_from(w.q4.data(), w.q4), w.q4_cols * 4,
                      bytes_from(quads, w.k_quads), w.quad_stride * 4,
                      round_up(q_rows, 16), round_up(k_rows, 16),
                      w.q4_cols * 4, w.dots, w.dots_cols);
  }

  // Scores over each row's visible keys, shifted by the row's new max.
  std::size_t n_x = q_rows;  // the rescale arguments come first
  for (std::size_t r = 0; r < q_rows; ++r) {
    const std::size_t n = w.len[r];
    if (n == 0) continue;
    float* s = w.x.data() + n_x;
    const std::int32_t* dots = w.dots.data();
    std::int32_t offset = 0;  // what dots[t] holds on top of q.k
#if defined(__x86_64__)
    if constexpr (kAmx) {
      dots += r * w.dots_cols + w.lo[r];
      offset = 128 * w.q_total[r];
    } else if constexpr (kAvx512) {
      quad_dots_vnni(w.q4.data() + r * w.q4_cols, w.q_total[r], quads,
                     w.quad_stride, w.q4_cols, w.lo[r], n, w.dots.data());
    } else
#endif
    {
      row_dots(w.q8.data() + r * d, k_tile.q.data() + w.lo[r] * d, n, d,
               w.dots.data());
    }
    for (std::size_t t = 0; t < n; ++t) {
      s[t] = static_cast<float>(dots[t] - offset) * s_scale;
    }
    float block_max = kNegInf;
    std::size_t t0 = 0;
#if defined(__x86_64__)
    if constexpr (kSimd) {
      t0 = n - n % 8;
      block_max = max_avx2(s, t0, kNegInf, false);
    }
#endif
    for (std::size_t t = t0; t < n; ++t) block_max = std::max(block_max, s[t]);
    if (block_max == kNegInf) {
      // Every visible score is -inf or NaN: the oracle's row contributes
      // nothing from this tile.
      w.len[r] = 0;
      continue;
    }
    const float m_new = std::max(w.m[r], block_max);
    for (std::size_t t = 0; t < n; ++t) s[t] -= m_new;
    w.x[r] = w.m[r] - m_new;
    w.m_new[r] = m_new;
    n_x += n;
  }
  if (n_x == q_rows) return;  // no row saw a key
  sas.apply(std::span<float>(w.x.data(), n_x));

  // Online-softmax update, each row's sum in key order.
  const float* p = w.x.data() + q_rows;
  for (std::size_t r = 0; r < q_rows; ++r) {
    const std::size_t n = w.len[r];
    if (n == 0) continue;
    const float alpha = w.m[r] == kNegInf ? 0.0f : w.x[r];
    float row_sum = 0.0f;
    for (std::size_t t = 0; t < n; ++t) row_sum += p[t];
    w.l[r] = w.l[r] * alpha + row_sum;
    w.m[r] = w.m_new[r];
    if (alpha != 1.0f) {
      float* orow = o + r * d;
      for (std::size_t c = 0; c < d; ++c) orow[c] *= alpha;
    }
    p += n;
  }
  float p_max = 0.0f;
  std::size_t i0 = q_rows;
#if defined(__x86_64__)
  if constexpr (kSimd) {
    i0 = n_x - (n_x - q_rows) % 8;
    p_max = max_avx2(w.x.data() + q_rows, i0 - q_rows, 0.0f, false);
  }
#endif
  for (std::size_t i = i0; i < n_x; ++i) p_max = std::max(p_max, w.x[i]);

  // Quantize P~ with one per-tile scale; O += o_scale * P~ V, each row's
  // sums exact in int32.
  const float p_scale = p_max > 0.0f ? p_max / kSymmetricHeadroom : 1.0f;
  const float inv_p = 1.0f / p_scale;
  const float o_scale = p_scale * v_tile.scale;
  auto* codes = reinterpret_cast<std::uint8_t*>(w.p4.data());
  p = w.x.data() + q_rows;
  if constexpr (kAmx) {
    // Every row's codes in its own row of w.p4, zero outside its visible
    // keys, then one product for every row's sums. A row whose codes are
    // all 0 adds nothing; its len, which the next tile sets afresh, drops
    // to 0.
    bool live = false;
    for (std::size_t r = 0; r < q_rows; ++r) {
      const std::size_t n = w.len[r];
      if (n == 0) continue;
      std::uint8_t* row = codes + r * w.p_cols;
      std::memset(row, 0, w.p_cols);
      if (p_codes(p, n, inv_p, row + w.lo[r])) {
        live = true;
      } else {
        w.len[r] = 0;
      }
      p += n;
    }
    if (!live) return;
    amx_product<false>(bytes_from(w.p4.data(), w.p4), w.p_cols,
                       bytes_from(vq, w.v_quads), w.v_stride * 4,
                       round_up(q_rows, 16), w.v_stride, round_up(k_rows, 64),
                       w.sums, w.v_stride);
    for (std::size_t r = 0; r < q_rows; ++r) {
      if (w.len[r] == 0) continue;
      float* orow = o + r * d;
      const std::int32_t* sums = w.sums.data() + r * w.v_stride;
      for (std::size_t c = 0; c < d; ++c) {
        orow[c] += static_cast<float>(sums[c]) * o_scale;
      }
    }
    return;
  }
  for (std::size_t r = 0; r < q_rows; ++r) {
    const std::size_t n = w.len[r];
    if (n == 0) continue;
    const std::size_t lo = w.lo[r];
    // The codes overwrite [lo, lo + n); the rest of the edge quads is 0.
    w.p4[lo / 4] = 0;
    w.p4[(lo + n - 1) / 4] = 0;
    const bool live = p_codes(p, n, inv_p, codes + lo);
    p += n;
    if (live) {
      pv_rows(o + r * d, w.p4.data(), lo, lo + n, v_tile.q.data(), vq, d,
              o_scale, w.sums);
    }
  }
}

// Stage-1 quantization of rows [begin, begin + rows) of m.
inline Int8Tile stage1_tile(const MatrixF& m, std::size_t begin,
                            std::size_t rows) {
  Int8Tile tile;
  tile.q = MatrixI8(rows, m.cols());
  tile.scale = stage1(
      std::span<const float>(m.data() + begin * m.cols(), rows * m.cols()),
      tile.q.flat());
  return tile;
}

template <bool kAmx>
TurboPrefillResult fused_prefill(const MatrixF& q, const MatrixF& k,
                                 const MatrixF& v, const AttentionConfig& cfg,
                                 const Sas& sas, QuantizedKvCache* cache) {
  static_assert(!kAmx || kAvx512, "the AMX products extend the AVX-512 build");
  TURBO_CHECK(q.cols() == k.cols());
  TURBO_CHECK(k.rows() == v.rows());
  TURBO_CHECK(k.cols() == v.cols());
  TURBO_CHECK(!cfg.causal || q.rows() <= k.rows());
  TURBO_CHECK(cfg.block_rows > 0 && cfg.block_cols > 0);
  if (cache != nullptr) {
    TURBO_CHECK_MSG(cache->block_tokens() == cfg.block_cols,
                    "cache block size must match Bc");
    TURBO_CHECK(cache->head_dim() == k.cols());
  }

  const std::size_t n_q = q.rows();
  const std::size_t n_k = k.rows();
  const std::size_t d = q.cols();
  const float attn_scale = cfg.effective_scale(d);
  const std::size_t q_offset = n_k - (cfg.causal ? n_q : n_k);
  const std::size_t br = cfg.block_rows;
  const std::size_t bc = cfg.block_cols;

  // Stage 1 of every K/V tile, once: every Q tile reads them, and the
  // cache's second stage takes them at the end.
  const std::size_t n_kv_tiles = (n_k + bc - 1) / bc;
  std::vector<Int8Tile> k_tiles(n_kv_tiles);
  std::vector<Int8Tile> v_tiles(n_kv_tiles);
  for (std::size_t j = 0; j < n_kv_tiles; ++j) {
    const std::size_t kb = j * bc;
    const std::size_t rows = std::min(bc, n_k - kb);
    k_tiles[j] = stage1_tile(k, kb, rows);
    v_tiles[j] = stage1_tile(v, kb, rows);
  }

  PrefillScratch w;
  const std::size_t d4 = (d + 3) / 4;
  if constexpr (kAvx512) {
    // The AVX-512 QK^T's K layout, once per K tile like stage 1. With
    // kAmx, whole tiles: the quad rows up to a multiple of 16, 16-key
    // blocks. Else quad_dots_vnni's reads, up to 63 keys past the tile.
    const std::size_t quad_rows = kAmx ? round_up(d4, 16) : d4;
    w.quad_stride = kAmx ? round_up(bc, 16) : bc + 64;
    w.k_tile_quads = quad_rows * w.quad_stride;
    w.k_quads.resize(n_kv_tiles * w.k_tile_quads);
    for (std::size_t j = 0; j < n_kv_tiles; ++j) {
      k_quads(k_tiles[j].q, d4, w.quad_stride,
              w.k_quads.data() + j * w.k_tile_quads);
    }
  }
  if constexpr (kSimd) {
    // The SIMD P~V's V layout, likewise once per V tile. With kAmx, whole
    // tiles: 16 quad rows per 64 keys, 16-channel blocks.
    w.v_stride = kAmx ? round_up(d, 16) : d;
    w.v_tile_quads = (kAmx ? round_up(bc, 64) / 4 : (bc + 3) / 4) * w.v_stride;
    w.v_quads.resize(n_kv_tiles * w.v_tile_quads);
    for (std::size_t j = 0; j < n_kv_tiles; ++j) {
      v_quads(v_tiles[j].q.data(), v_tiles[j].q.rows(), d, w.v_stride,
              w.v_quads.data() + j * w.v_tile_quads);
    }
  }

  TurboPrefillResult result;
  result.o = MatrixF(n_q, d, 0.0f);
  result.lse.assign(n_q, 0.0f);

  const std::size_t tile_rows = std::min(br, n_q);
  const std::size_t tile_cols = std::min(bc, n_k);
  w.q8.resize(tile_rows * d);
  w.m.resize(tile_rows);
  w.l.resize(tile_rows);
  w.m_new.resize(tile_rows);
  w.lo.resize(tile_rows);
  w.len.resize(tile_rows);
  w.x.resize(tile_rows + tile_rows * tile_cols);
  if constexpr (kAmx) {
    // The products' operands and results, whole 16-row tiles: the Q codes
    // in 64-byte rows, every row's dots and P~ codes over the tile's keys
    // (16 and 64 of them at a time), and its P~V sums.
    const std::size_t rows = round_up(tile_rows, 16);
    w.q4_cols = round_up(d4, 16);
    w.q4.resize(rows * w.q4_cols);
    w.dots_cols = round_up(tile_cols, 16);
    w.dots.resize(rows * w.dots_cols);
    w.p_cols = round_up(tile_cols, 64);
    w.p4.resize(rows * w.p_cols / 4);
    w.sums.resize(rows * w.v_stride);
  } else {
    w.dots.resize(tile_cols);
    w.p4.resize((tile_cols + 3) / 4);
    if constexpr (kAvx512) {
      w.q4_cols = d4;
      w.q4.resize(tile_rows * d4);
    }
  }
  if constexpr (kAvx512) w.q_total.resize(tile_rows);

  // With kAmx, the tile configuration for the whole call; its destructor
  // releases the tiles however the call ends, a throw from a Q tile's
  // stage 1 included.
  [[maybe_unused]] const std::conditional_t<kAmx, TileState, NoTiles> tiles{};

  for (std::size_t qb = 0; qb < n_q; qb += br) {
    const std::size_t q_rows = std::min(br, n_q - qb);
    const float q_scale =
        stage1(std::span<const float>(q.data() + qb * d, q_rows * d),
               std::span<std::int8_t>(w.q8.data(), q_rows * d));
    if constexpr (kAvx512) {
      // Each row's codes as four-byte quads, zero past d (and, with kAmx,
      // in the rows past q_rows).
      std::fill(w.q4.begin(), w.q4.end(), 0);
      for (std::size_t r = 0; r < q_rows; ++r) {
        std::memcpy(w.q4.data() + r * w.q4_cols, w.q8.data() + r * d, d);
        w.q_total[r] = q_sum(w.q8.data() + r * d, d);
      }
    }
    std::fill_n(w.m.begin(), q_rows, kNegInf);
    std::fill_n(w.l.begin(), q_rows, 0.0f);
    float* o = result.o.data() + qb * d;

    for (std::size_t j = 0; j < n_kv_tiles; ++j) {
      const std::size_t kb = j * bc;
      const std::size_t k_rows = std::min(bc, n_k - kb);
      if (cfg.causal) {
        const std::size_t last_visible = q_offset + qb + q_rows - 1;
        if (kb > last_visible) break;
      }
      // Each row's visible keys of this tile: [lo, lo + len).
      bool seen = false;
      for (std::size_t r = 0; r < q_rows; ++r) {
        const std::size_t visible = cfg.causal ? q_offset + qb + r + 1 : n_k;
        const std::size_t win_start =
            cfg.window > 0 && visible > cfg.window ? visible - cfg.window
                                                   : 0;
        const std::size_t lo = std::clamp(win_start, kb, kb + k_rows) - kb;
        const std::size_t hi = std::clamp(visible, kb, kb + k_rows) - kb;
        w.lo[r] = lo;
        w.len[r] = hi > lo ? hi - lo : 0;
        seen = seen || w.len[r] > 0;
      }
      if (!seen) continue;
      const std::uint32_t* quads =
          kAvx512 ? w.k_quads.data() + j * w.k_tile_quads : nullptr;
      const std::uint32_t* vq =
          kSimd ? w.v_quads.data() + j * w.v_tile_quads : nullptr;
      absorb_kv_tile<kAmx>(k_tiles[j], quads, v_tiles[j], vq, q_rows, d,
                           q_scale, attn_scale, sas, o, w);
    }

    for (std::size_t r = 0; r < q_rows; ++r) {
      TURBO_CHECK_MSG(w.l[r] > 0.0f,
                      "query row " << qb + r << " attended no keys");
      const float inv = 1.0f / w.l[r];
      auto orow = result.o.row(qb + r);
      for (std::size_t c = 0; c < d; ++c) orow[c] *= inv;
      result.lse[qb + r] = w.m[r] + std::log(w.l[r]);
    }
  }

  // Second-stage compression of the K/V tiles into the cache.
  if (cache != nullptr) {
    for (std::size_t j = 0; j < n_kv_tiles; ++j) {
      cache->append_prefill_block(k_tiles[j], v_tiles[j]);
    }
  }
  return result;
}
