// Body of the fused TurboAttention prefill kernel, compiled once per
// instruction set.
//
// kernels/fused_kernels.cpp includes this file right after
// fused_decode_body.h, in every ISA namespace, so it has no include guard
// and reuses that body's helpers: stage1 (stage-1 quantization), row_dots
// (exact int32 q.k, four keys per reduction) or, in the AVX-512 build,
// quad_dots_vnni over a per-tile copy of K, max_avx2, p_codes (P~ codes
// as bytes), v_quads (the SIMD builds' per-tile copy of V) and pv_rows
// (P~V).
//
// The result (o, lse and the cache) is bit-identical to
// turbo_attention_prefill, the oracle in attention/turbo_prefill.cpp.
// Every build runs the oracle's arithmetic:
//
//   * stage 1 gives the oracle's scales and codes, read straight from the
//     input rows instead of from tile copies;
//   * QK^T is exact int32, so its order is free. Keys outside a row's
//     visible range are not computed: in the oracle their -inf scores give
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
  std::vector<std::int32_t> dots;   // one row's q.k
  // One row's P~ codes over the tile, four bytes per dword, zero outside
  // the row's visible keys (pv_rows reads whole dwords).
  std::vector<std::uint32_t> p4;
  std::vector<std::int32_t> sums;   // the baseline P~V's per-channel sums
  // The AVX-512 QK^T's operands: every K tile in quad_dots_vnni's layout
  // (quad_stride keys per row of four channels), and per row of the Q
  // tile its codes as four-byte quads and their sum.
  std::vector<std::uint32_t> k_quads;
  std::size_t quad_stride = 0;
  std::vector<std::int32_t> q4;
  std::vector<std::int32_t> q_total;
  // The SIMD P~V's operand: every V tile in v_quads' layout, v_tile_quads
  // dwords apart.
  std::vector<std::uint32_t> v_quads;
  std::size_t v_tile_quads = 0;
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

// One (Q tile, KV tile) step of Algorithm 1 for the rows whose visible
// range w.lo / w.len the caller set: scores, SAS, the online-softmax
// update and P~V into o (rows of the Q tile, stride d). The AVX-512 build
// reads K from quads, the tile's block of w.k_quads, and the SIMD builds
// read V from vq, the tile's block of w.v_quads.
inline void absorb_kv_tile(const Int8Tile& k_tile,
                           const std::uint32_t* quads,
                           const Int8Tile& v_tile,
                           const std::uint32_t* vq, std::size_t q_rows,
                           std::size_t d, float q_scale, float attn_scale,
                           const Sas& sas, float* o, PrefillScratch& w) {
  const float s_scale = q_scale * k_tile.scale * attn_scale;

  // Scores over each row's visible keys, shifted by the row's new max.
  std::size_t n_x = q_rows;  // the rescale arguments come first
  for (std::size_t r = 0; r < q_rows; ++r) {
    const std::size_t n = w.len[r];
    if (n == 0) continue;
    float* s = w.x.data() + n_x;
#if defined(__x86_64__)
    if constexpr (kAvx512) {
      const std::size_t d4 = (d + 3) / 4;
      quad_dots_vnni(w.q4.data() + r * d4, w.q_total[r], quads,
                     w.quad_stride, d4, w.lo[r], n, w.dots.data());
    } else
#endif
    {
      row_dots(w.q8.data() + r * d, k_tile.q.data() + w.lo[r] * d, n, d,
               w.dots.data());
    }
    for (std::size_t t = 0; t < n; ++t) {
      s[t] = static_cast<float>(w.dots[t]) * s_scale;
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

TurboPrefillResult fused_prefill(const MatrixF& q, const MatrixF& k,
                                 const MatrixF& v, const AttentionConfig& cfg,
                                 const Sas& sas, QuantizedKvCache* cache) {
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
    // The AVX-512 QK^T's K layout, once per K tile like stage 1.
    w.quad_stride = bc + 64;
    w.k_quads.resize(n_kv_tiles * d4 * w.quad_stride);
    for (std::size_t j = 0; j < n_kv_tiles; ++j) {
      k_quads(k_tiles[j].q, d4, w.quad_stride,
              w.k_quads.data() + j * d4 * w.quad_stride);
    }
  }
  if constexpr (kSimd) {
    // The SIMD P~V's V layout, likewise once per V tile.
    w.v_tile_quads = (bc + 3) / 4 * d;
    w.v_quads.resize(n_kv_tiles * w.v_tile_quads);
    for (std::size_t j = 0; j < n_kv_tiles; ++j) {
      v_quads(v_tiles[j].q.data(), v_tiles[j].q.rows(), d,
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
  w.dots.resize(tile_cols);
  w.p4.resize((tile_cols + 3) / 4);
  if constexpr (kAvx512) {
    w.q4.resize(tile_rows * d4);
    w.q_total.resize(tile_rows);
  }

  for (std::size_t qb = 0; qb < n_q; qb += br) {
    const std::size_t q_rows = std::min(br, n_q - qb);
    const float q_scale =
        stage1(std::span<const float>(q.data() + qb * d, q_rows * d),
               std::span<std::int8_t>(w.q8.data(), q_rows * d));
    if constexpr (kAvx512) {
      // Each row's codes as four-byte quads, zero past d.
      std::fill(w.q4.begin(), w.q4.end(), 0);
      for (std::size_t r = 0; r < q_rows; ++r) {
        std::memcpy(w.q4.data() + r * d4, w.q8.data() + r * d, d);
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
          kAvx512 ? w.k_quads.data() + j * d4 * w.quad_stride : nullptr;
      const std::uint32_t* vq =
          kSimd ? w.v_quads.data() + j * w.v_tile_quads : nullptr;
      absorb_kv_tile(k_tiles[j], quads, v_tiles[j], vq, q_rows, d, q_scale,
                     attn_scale, sas, o, w);
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
