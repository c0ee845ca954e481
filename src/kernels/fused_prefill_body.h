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
// AMX, and runs each (Q tile, KV tile) step row-major (absorb_kv_tile):
// one query row at a time, its scores, max and sum along the row.
// fused_kernels_avx512.cpp also instantiates it with kAmx, the "amx"
// entry, whose step is key-major (absorb_kv_lanes): it computes K Q^T and
// O^T = V^T P~^T as AMX-INT8 tile products (amx_product), so that each
// query row of the Q tile is one lane of a 16-lane vector, and runs every
// per-row step of the online softmax as vertical vector ops between them.
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
//   * each row's sum and its l update run in key order. The row-major
//     step sums a row as a scalar; the key-major one holds one row per
//     lane and adds key after key, the same order;
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
// The row-major step indexes the per-row ones by row; the key-major step
// (kAmx) indexes them by lane, `lanes` of them: the Q tile's rows up to a
// multiple of 16, the rows past it dead.
struct PrefillScratch {
  std::vector<std::int8_t> q8;      // the Q tile's stage-1 codes
  std::vector<float> m;             // per row: running max
  std::vector<float> l;             // per row: running sum
  // Per row: max after this KV tile; with kAmx, the tile's block max, then
  // what the scores are shifted by (m_new, or 0 in a dead lane).
  std::vector<float> m_new;
  std::vector<std::size_t> lo;      // per row: first visible key of the tile
  std::vector<std::size_t> len;     // per row: keys it takes from the tile
  // Sas::apply's input, then output: each row's m - m_new, then the
  // shifted scores of every row with len > 0, back to back in row order;
  // with kAmx, every key's scores over the lanes, key after key.
  std::vector<float> x;
  std::vector<std::int32_t> dots;  // one row's q.k
  // One row's P~ codes over the tile, four bytes per dword, zero outside
  // the row's visible keys (pv_rows reads whole dwords); with kAmx, P~^T
  // as quads (V^T P~^T's B operand): row t4, lane r holds row r's codes of
  // keys 4 t4 .. 4 t4 + 3.
  std::vector<std::uint32_t> p4;
  std::vector<std::int32_t> sums;  // the baseline P~V's per-channel sums
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
  // The kAmx step's operands and state (see absorb_kv_lanes):
  std::size_t lanes = 0;
  // Two 32 x 32 blocks of a tile product, 32 int32 per row.
  std::vector<std::int32_t> blocks;
  // K Q^T's A: every K tile's codes, k_tile_bytes apart, as
  // round_up(Bc, 16) rows of k_row_bytes = round_up(d, 64), zero-padded.
  std::vector<std::int8_t> k_rows;
  std::size_t k_tile_bytes = 0;
  std::size_t k_row_bytes = 0;
  // K Q^T's B: the Q tile as channel quads, row c4 of k_row_bytes / 4,
  // lane r holding q_r[4 c4 .. 4 c4 + 3], zero past d and past the rows.
  std::vector<std::uint32_t> q_quads;
  // V^T P~^T's A: every V tile transposed, v_tile_bytes apart, as
  // round_up(d, 16) channel rows of v_row_bytes = round_up(Bc, 64) keys,
  // zero-padded.
  std::vector<std::int8_t> v_cols;
  std::size_t v_tile_bytes = 0;
  std::size_t v_row_bytes = 0;
  // The Q tile's O, transposed: round_up(d, 16) channel rows of lanes.
  std::vector<float> o_t;
  // Per lane: the first visible key of the tile and the one past the last
  // (equal in a lane with none), and the tile's O rescale factor (1 in a
  // dead lane).
  std::vector<std::int32_t> lane_lo;
  std::vector<std::int32_t> lane_hi;
  std::vector<float> alpha;
  // Per 16 lanes: the live ones (a block max above -inf), those of them
  // that see a key for the first time (alpha is 0), and those with a P~
  // code that is not 0.
  std::vector<std::uint16_t> live;
  std::vector<std::uint16_t> first;
  std::vector<std::uint16_t> coded;
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
// dwords are C's columns. The key-major step puts the keys, then the
// channels, in C's rows and the query rows in its columns:
//
//   * K Q^T: A is the K tile's stage-1 codes, one row of channels per key
//     (k_rows), and B the Q tile's codes as channel quads (q_quads), one
//     query row per dword. C's (t, r) is q_r . k_t: tdpbssd takes both
//     signed;
//   * O^T = V^T P~^T: A is the V tile transposed, one row of keys per
//     channel (v_cols), and B the tile's P~ codes as key quads (p4), one
//     query row per dword. C's (c, r) is sum_t p_q v: tdpbsud takes A
//     signed and B unsigned.
//
// Every operand is padded with zero bytes to whole tiles: K's rows to a
// multiple of 16 keys of 64-byte rows, the Q quads to 16 rows (64
// channels) per block, V^T to 16-channel blocks of 64-byte rows, P~'s key
// quads to 16 rows (64 keys) per block, both B operands to whole 16-lane
// groups. A zero byte of A meets whatever B holds there and adds 0;
// products are exact in int32.
//
// GCC 12's _tile_loadd (and _tile_loadconfig) declares no memory input,
// and _tile_stored no memory output, so the compiler may sink or drop the
// stores that fill an operand, or hoist the reads of a stored block:
// operand_barrier goes in front of the loads and after the stores. No
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
template <bool kSignedB, bool kTwoRows, bool kTwoCols>
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
    if constexpr (kSignedB) {
      _tile_dpbssd(0, 4, 6);
      if constexpr (kTwoCols) _tile_dpbssd(1, 4, 7);
      if constexpr (kTwoRows) _tile_dpbssd(2, 5, 6);
      if constexpr (kTwoRows && kTwoCols) _tile_dpbssd(3, 5, 7);
    } else {
      _tile_dpbsud(0, 4, 6);
      if constexpr (kTwoCols) _tile_dpbsud(1, 4, 7);
      if constexpr (kTwoRows) _tile_dpbsud(2, 5, 6);
      if constexpr (kTwoRows && kTwoCols) _tile_dpbsud(3, 5, 7);
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

// C = a b as AMX tile products, in the layout above, with m and n
// multiples of 16 and k of 64: a holds m rows of k signed bytes, a_stride
// bytes apart, b k / 4 rows of n dwords, b_stride bytes apart. kSignedB:
// b's bytes are signed (tdpbssd), else unsigned (tdpbsud). C runs in
// blocks of 2 x 2 tiles that share two A and two B loads per 64 bytes of
// depth; an odd last row or column of tiles runs on its own. Each block
// goes to one half of `blocks`, 32 int32 per row, the halves taking turns,
// and consume(c, i, j, rows, cols) takes C's rows [i, i + rows) and
// columns [j, j + cols) from it, c, while they are in L1: a block is
// consumed after the tile products of the next one are issued, so the
// two overlap.
template <bool kSignedB, class Consume>
inline void amx_product(std::span<const std::uint8_t> a, std::size_t a_stride,
                        std::span<const std::uint8_t> b, std::size_t b_stride,
                        std::size_t m, std::size_t n, std::size_t k,
                        std::span<std::int32_t> blocks,
                        const Consume& consume) {
#if defined(__x86_64__)
  TURBO_DCHECK(m > 0 && n > 0 && k > 0);
  TURBO_DCHECK(m % 16 == 0 && n % 16 == 0 && k % 64 == 0);
  TURBO_DCHECK((m - 1) * a_stride + k <= a.size());
  TURBO_DCHECK((k / 4 - 1) * b_stride + n * 4 <= b.size());
  TURBO_DCHECK(blocks.size() >= 2 * 32 * 32);
  operand_barrier(a.data());
  operand_barrier(b.data());
  struct Landed {
    const std::int32_t* c;
    std::size_t i, j, rows, cols;
  };
  Landed last{nullptr, 0, 0, 0, 0};
  std::int32_t* c = blocks.data();
  for (std::size_t i = 0; i < m; i += 32) {
    const std::uint8_t* ai = a.data() + i * a_stride;
    const bool two_rows = i + 16 < m;
    for (std::size_t j = 0; j < n; j += 32) {
      const std::uint8_t* bj = b.data() + j * 4;
      const bool two_cols = j + 16 < n;
      if (two_rows && two_cols) {
        amx_block<kSignedB, true, true>(ai, a_stride, bj, b_stride, k, c, 32);
      } else if (two_rows) {
        amx_block<kSignedB, true, false>(ai, a_stride, bj, b_stride, k, c, 32);
      } else if (two_cols) {
        amx_block<kSignedB, false, true>(ai, a_stride, bj, b_stride, k, c, 32);
      } else {
        amx_block<kSignedB, false, false>(ai, a_stride, bj, b_stride, k, c,
                                          32);
      }
      operand_barrier(c);
      if (last.c != nullptr) {
        consume(last.c, last.i, last.j, last.rows, last.cols);
      }
      last = {c, i, j, two_rows ? std::size_t{32} : std::size_t{16},
              two_cols ? std::size_t{32} : std::size_t{16}};
      c = c == blocks.data() ? blocks.data() + 32 * 32 : blocks.data();
    }
  }
  consume(last.c, last.i, last.j, last.rows, last.cols);
#else
  (void)a, (void)a_stride, (void)b, (void)b_stride, (void)m, (void)n,
      (void)k, (void)blocks, (void)consume;
#endif
}

// The bytes of v from p to its end: a tile operand that starts inside v.
template <class T>
std::span<const std::uint8_t> bytes_from(const T* p, const std::vector<T>& v) {
  return {reinterpret_cast<const std::uint8_t*>(p),
          static_cast<std::size_t>(v.data() + v.size() - p) * sizeof(T)};
}

#if defined(__x86_64__)
// The Q tile's codes (q_rows rows of d) as K Q^T's B operand, w.q_quads:
// per 16 rows and 64 channels, the rows' bytes as a 16 x 16 dword block,
// transposed. Channels past d and rows past q_rows read as zero.
inline void q_channel_quads(const std::int8_t* q8, std::size_t q_rows,
                            std::size_t d, PrefillScratch& w) {
  for (std::size_t r0 = 0; r0 < w.lanes; r0 += 16) {
    for (std::size_t c0 = 0; c0 < w.k_row_bytes; c0 += 64) {
      __m512i x[16] = {};
      for (std::size_t i = 0; i < 16 && r0 + i < q_rows; ++i) {
        x[i] = _mm512_maskz_loadu_epi8(byte_mask(d - c0),
                                       q8 + (r0 + i) * d + c0);
      }
      transpose16x16_epi32(x);
      for (std::size_t i = 0; i < 16; ++i) {
        _mm512_storeu_si512(w.q_quads.data() + (c0 / 4 + i) * w.lanes + r0,
                            x[i]);
      }
    }
  }
}

// A V tile transposed into V^T P~^T's A operand, out (w.v_row_bytes per
// channel row): its quad-major copy (v_quads, in quads: round_up(Bc, 64) /
// 4 rows of round_up(d, 16) dwords) holds each channel's four keys per
// dword, so per 64 keys and 16 channels a 16 x 16 dword transpose gives 16
// channel rows of 64 keys.
inline void v_channel_rows(const MatrixI8& v, std::vector<std::uint32_t>& quads,
                           std::size_t d16, std::size_t row_bytes,
                           std::int8_t* out) {
  std::fill(quads.begin(), quads.end(), 0u);
  v_quads(v.data(), v.rows(), v.cols(), d16, quads.data());
  for (std::size_t t0 = 0; t0 < v.rows(); t0 += 64) {
    for (std::size_t c0 = 0; c0 < d16; c0 += 16) {
      __m512i x[16];
      for (std::size_t i = 0; i < 16; ++i) {
        x[i] = _mm512_loadu_si512(quads.data() + (t0 / 4 + i) * d16 + c0);
      }
      transpose16x16_epi32(x);
      for (std::size_t i = 0; i < 16; ++i) {
        _mm512_storeu_si512(out + (c0 + i) * row_bytes + t0, x[i]);
      }
    }
  }
}

// f(g, integral_constant<N>) over the lane groups [0, groups): blocks of
// four groups, then one of the rest, so each block's per-group registers
// are a fixed-size array.
template <class F>
inline void lane_blocks(std::size_t groups, const F& f) {
  std::size_t g = 0;
  for (; g + 4 <= groups; g += 4) f(g, std::integral_constant<std::size_t, 4>{});
  switch (groups - g) {
    case 3:
      f(g, std::integral_constant<std::size_t, 3>{});
      break;
    case 2:
      f(g, std::integral_constant<std::size_t, 2>{});
      break;
    case 1:
      f(g, std::integral_constant<std::size_t, 1>{});
      break;
    default:
      break;
  }
}

// One (Q tile, KV tile) step of Algorithm 1, key-major: w.lanes query rows,
// one per lane, against the tile's k_rows keys, whose visible range per
// lane is w.lane_lo / w.lane_hi. ka and va are the tile's blocks of
// w.k_rows and w.v_cols. `masked` is false when every lane sees every key
// of the tile, and k_rows is a multiple of 4. Each key's scores over the
// lanes are w.lanes / 16 vectors:
//
//   * K Q^T, and as each block of it lands, the scores float(dot) *
//     s_scale, -inf outside their lane's visible keys (SAS then gives
//     exactly 0, which adds +0 to the sums), and the block max, a
//     vertical max. A lane whose block max is -inf is dead for this tile:
//     its m, l and O stay as they are, its scores are shifted by 0 (they
//     stay -inf) and its codes are 0;
//   * m_new, the rescale arguments m - m_new and the shift, then one
//     Sas::apply over the arguments and every score;
//   * each lane's sum, key after key from +0 (the scalar order), l = l *
//     alpha + sum, and the P~ max over every lane;
//   * the P~ codes, straight into w.p4's quads;
//   * O^T = O^T * alpha (1 in a dead lane), then, in the lanes with a code
//     that is not 0 only, + float(sum) * o_scale, as each block of
//     O^T = V^T P~^T lands: a +0 add would turn a -0 into +0.
inline void absorb_kv_lanes(const std::int8_t* ka, const std::int8_t* va,
                            std::size_t k_rows, float k_scale, float v_scale,
                            std::size_t d, float q_scale, float attn_scale,
                            bool masked, const Sas& sas, PrefillScratch& w) {
  const std::size_t lanes = w.lanes;
  const std::size_t groups = lanes / 16;
  const std::size_t keys = round_up(k_rows, 4);  // codes run in quads
  float* x = w.x.data();
  float* s = x + lanes;  // the rescale arguments come first
  const __m512 neg_inf = _mm512_set1_ps(kNegInf);
  const __m512 one = _mm512_set1_ps(1.0f);

  // Scores and each lane's block max (two maxima per lane, even and odd
  // keys, then their max: the max is order-free).
  std::fill(w.m_new.begin(), w.m_new.end(), kNegInf);
  const __m512 ss = _mm512_set1_ps(q_scale * k_scale * attn_scale);
  const auto scores = [&](const std::int32_t* block, std::size_t i,
                          std::size_t j, std::size_t rows, std::size_t cols) {
    const std::size_t t_end = std::min(i + rows, keys);
    const auto run = [&](auto groups_of_block) {
      constexpr std::size_t G = decltype(groups_of_block)::value;
      __m512 bmax[G][2];
      __m512i lo[G];
      __m512i hi[G];
      for (std::size_t c = 0; c < G; ++c) {
        bmax[c][0] = _mm512_loadu_ps(w.m_new.data() + j + 16 * c);
        bmax[c][1] = neg_inf;
        lo[c] = _mm512_loadu_si512(w.lane_lo.data() + j + 16 * c);
        hi[c] = _mm512_loadu_si512(w.lane_hi.data() + j + 16 * c);
      }
      // Key t's scores into bmax[c][b].
      const auto key_scores = [&](std::size_t t, std::size_t b) {
        const __m512i key = _mm512_set1_epi32(static_cast<std::int32_t>(t));
        for (std::size_t c = 0; c < G; ++c) {
          __m512 sc = _mm512_mul_ps(
              _mm512_cvtepi32_ps(
                  _mm512_loadu_si512(block + (t - i) * 32 + 16 * c)),
              ss);
          if (masked) {
            const __mmask16 visible = _mm512_mask_cmplt_epi32_mask(
                _mm512_cmpge_epi32_mask(key, lo[c]), key, hi[c]);
            sc = _mm512_mask_mov_ps(neg_inf, visible, sc);
          }
          _mm512_storeu_ps(s + t * lanes + j + 16 * c, sc);
          bmax[c][b] = _mm512_max_ps(sc, bmax[c][b]);
        }
      };
      std::size_t t = i;
      for (; t + 2 <= t_end; t += 2) {
        key_scores(t, 0);
        key_scores(t + 1, 1);
      }
      if (t < t_end) key_scores(t, 0);
      for (std::size_t c = 0; c < G; ++c) {
        _mm512_storeu_ps(w.m_new.data() + j + 16 * c,
                         _mm512_max_ps(bmax[c][1], bmax[c][0]));
      }
    };
    if (cols == 32) {
      run(std::integral_constant<std::size_t, 2>{});
    } else {
      run(std::integral_constant<std::size_t, 1>{});
    }
  };
  amx_product<true>(bytes_from(ka, w.k_rows), w.k_row_bytes,
                    bytes_from(w.q_quads.data(), w.q_quads), lanes * 4,
                    round_up(k_rows, 16), lanes, w.k_row_bytes, w.blocks,
                    scores);

  // m_new = max(m, block max) (std::max's operand order), the rescale
  // arguments and the shift, lane by lane.
  bool any_live = false;
  for (std::size_t g = 0; g < groups; ++g) {
    const __m512 bmax = _mm512_loadu_ps(w.m_new.data() + 16 * g);
    const __m512 m = _mm512_loadu_ps(w.m.data() + 16 * g);
    const __mmask16 live = _mm512_cmp_ps_mask(bmax, neg_inf, _CMP_NEQ_OQ);
    const __m512 m_new = _mm512_max_ps(bmax, m);
    w.live[g] = live;
    w.first[g] = _mm512_mask_cmp_ps_mask(live, m, neg_inf, _CMP_EQ_OQ);
    _mm512_storeu_ps(x + 16 * g, _mm512_maskz_sub_ps(live, m, m_new));
    _mm512_storeu_ps(w.m_new.data() + 16 * g, _mm512_maskz_mov_ps(live, m_new));
    _mm512_storeu_ps(w.m.data() + 16 * g, _mm512_mask_mov_ps(m, live, m_new));
    any_live = any_live || live != 0;
  }
  if (!any_live) return;  // no lane saw a key
  lane_blocks(groups, [&](std::size_t g, auto block) {
    constexpr std::size_t N = decltype(block)::value;
    __m512 shift[N];
    for (std::size_t j = 0; j < N; ++j) {
      shift[j] = _mm512_loadu_ps(w.m_new.data() + 16 * (g + j));
    }
    for (std::size_t t = 0; t < keys; ++t) {
      for (std::size_t j = 0; j < N; ++j) {
        float* p = s + t * lanes + 16 * (g + j);
        _mm512_storeu_ps(p, _mm512_sub_ps(_mm512_loadu_ps(p), shift[j]));
      }
    }
  });
  sas.apply(std::span<float>(x, lanes + keys * lanes));

  // alpha (0 in a lane's first tile, 1 in a dead lane), each lane's sum
  // and l update, and the P~ max.
  for (std::size_t g = 0; g < groups; ++g) {
    const __m512 a = _mm512_maskz_mov_ps(
        static_cast<__mmask16>(w.live[g] & ~w.first[g]),
        _mm512_loadu_ps(x + 16 * g));
    _mm512_storeu_ps(w.alpha.data() + 16 * g,
                     _mm512_mask_mov_ps(one, w.live[g], a));
  }
  float p_max = 0.0f;
  lane_blocks(groups, [&](std::size_t g, auto block) {
    constexpr std::size_t N = decltype(block)::value;
    __m512 sum[N];
    __m512 top[N];
    for (std::size_t j = 0; j < N; ++j) {
      sum[j] = _mm512_setzero_ps();
      top[j] = _mm512_setzero_ps();
    }
    for (std::size_t t = 0; t < keys; ++t) {
      for (std::size_t j = 0; j < N; ++j) {
        const __m512 p = _mm512_loadu_ps(s + t * lanes + 16 * (g + j));
        sum[j] = _mm512_add_ps(sum[j], p);
        top[j] = _mm512_max_ps(p, top[j]);
      }
    }
    for (std::size_t j = 0; j < N; ++j) {
      float* l = w.l.data() + 16 * (g + j);
      const __m512 lv = _mm512_loadu_ps(l);
      const __m512 a = _mm512_loadu_ps(w.alpha.data() + 16 * (g + j));
      _mm512_storeu_ps(
          l, _mm512_mask_mov_ps(lv, w.live[g + j],
                                _mm512_add_ps(_mm512_mul_ps(lv, a), sum[j])));
      p_max = std::max(p_max, _mm512_reduce_max_ps(top[j]));
    }
  });

  // Quantize P~ with one per-tile scale, each lane's codes of four keys
  // in one dword.
  const float p_scale = p_max > 0.0f ? p_max / kSymmetricHeadroom : 1.0f;
  const __m512 inv_p = _mm512_set1_ps(1.0f / p_scale);
  const __m512 zero = _mm512_setzero_ps();
  const __m512 top_code = _mm512_set1_ps(127.0f);
  bool any_coded = false;
  lane_blocks(groups, [&](std::size_t g, auto block) {
    constexpr std::size_t N = decltype(block)::value;
    __m512i nonzero[N];
    for (std::size_t j = 0; j < N; ++j) nonzero[j] = _mm512_setzero_si512();
    for (std::size_t t = 0; t < keys; t += 4) {
      for (std::size_t j = 0; j < N; ++j) {
        const float* p = s + t * lanes + 16 * (g + j);
        __m512i code[4];
        for (std::size_t b = 0; b < 4; ++b) {
          const __m512 y = _mm512_mul_ps(_mm512_loadu_ps(p + b * lanes), inv_p);
          code[b] = _mm512_cvtps_epi32(
              _mm512_min_ps(_mm512_max_ps(y, zero), top_code));
        }
        const __m512i quad = _mm512_or_si512(
            _mm512_or_si512(code[0], _mm512_slli_epi32(code[1], 8)),
            _mm512_or_si512(_mm512_slli_epi32(code[2], 16),
                            _mm512_slli_epi32(code[3], 24)));
        _mm512_storeu_si512(w.p4.data() + t / 4 * lanes + 16 * (g + j), quad);
        nonzero[j] = _mm512_or_si512(nonzero[j], quad);
      }
    }
    for (std::size_t j = 0; j < N; ++j) {
      w.coded[g + j] = _mm512_test_epi32_mask(nonzero[j], nonzero[j]);
      any_coded = any_coded || w.coded[g + j] != 0;
    }
  });

  // O^T = O^T * alpha, + float(sum) * o_scale in the lanes with a code:
  // with no code at all, alpha alone.
  const __m512 o_scale = _mm512_set1_ps(p_scale * v_scale);
  const auto update = [&](const std::int32_t* block, std::size_t i,
                          std::size_t j, std::size_t rows, std::size_t cols) {
    const std::size_t c_end = std::min(i + rows, d);
    for (std::size_t c = 0; c < cols; c += 16) {
      const std::size_t lane = j + c;
      const __m512 a = _mm512_loadu_ps(w.alpha.data() + lane);
      const __mmask16 coded = w.coded[lane / 16];
      if (coded == 0 && _mm512_cmp_ps_mask(a, one, _CMP_NEQ_UQ) == 0) {
        continue;
      }
      for (std::size_t ch = i; ch < c_end; ++ch) {
        float* o = w.o_t.data() + ch * lanes + lane;
        __m512 ov = _mm512_mul_ps(_mm512_loadu_ps(o), a);
        if (block != nullptr && coded != 0) {
          const __m512 add = _mm512_mul_ps(
              _mm512_cvtepi32_ps(
                  _mm512_loadu_si512(block + (ch - i) * 32 + c)),
              o_scale);
          ov = _mm512_mask_add_ps(ov, coded, ov, add);
        }
        _mm512_storeu_ps(o, ov);
      }
    }
  };
  if (!any_coded) {
    for (std::size_t j = 0; j < lanes; j += 16) update(nullptr, 0, j, d, 16);
    return;
  }
  amx_product<false>(
      bytes_from(va, w.v_cols), w.v_row_bytes,
      bytes_from(w.p4.data(), w.p4), lanes * 4, round_up(d, 16), lanes,
      round_up(k_rows, 64), w.blocks, update);
}

// The end of a Q tile for the key-major step: each lane's O^T column
// scaled by 1 / l, then per 16 lanes and 16 channels a 16 x 16 transpose
// back to the rows of o (q_rows rows, stride d).
inline void write_rows(std::size_t q_rows, std::size_t d, PrefillScratch& w,
                       float* o) {
  const std::size_t lanes = w.lanes;
  for (std::size_t r0 = 0; r0 < q_rows; r0 += 16) {
    const __m512 inv =
        _mm512_div_ps(_mm512_set1_ps(1.0f), _mm512_loadu_ps(w.l.data() + r0));
    for (std::size_t c0 = 0; c0 < d; c0 += 16) {
      __m512i x[16];
      for (std::size_t i = 0; i < 16; ++i) {
        x[i] = _mm512_castps_si512(_mm512_mul_ps(
            _mm512_loadu_ps(w.o_t.data() + (c0 + i) * lanes + r0), inv));
      }
      transpose16x16_epi32(x);
      for (std::size_t i = 0; i < 16 && r0 + i < q_rows; ++i) {
        _mm512_mask_storeu_ps(o + (r0 + i) * d + c0, lane_mask(d - c0),
                              _mm512_castsi512_ps(x[i]));
      }
    }
  }
}
#endif  // __x86_64__

// One (Q tile, KV tile) step of Algorithm 1, row-major, for the rows
// whose visible range w.lo / w.len the caller set: scores, SAS, the
// online-softmax update and P~V into o (rows of the Q tile, stride d). The
// AVX-512 build reads K from quads, the tile's block of w.k_quads, and the
// SIMD builds read V from vq, the tile's block of w.v_quads.
inline void absorb_kv_tile(const Int8Tile& k_tile, const std::uint32_t* quads,
                           const Int8Tile& v_tile, const std::uint32_t* vq,
                           std::size_t q_rows, std::size_t d, float q_scale,
                           float attn_scale, const Sas& sas, float* o,
                           PrefillScratch& w) {
  const float s_scale = q_scale * k_tile.scale * attn_scale;

  // Scores over each row's visible keys, shifted by the row's new max.
  std::size_t n_x = q_rows;  // the rescale arguments come first
  for (std::size_t r = 0; r < q_rows; ++r) {
    const std::size_t n = w.len[r];
    if (n == 0) continue;
    float* s = w.x.data() + n_x;
#if defined(__x86_64__)
    if constexpr (kAvx512) {
      quad_dots_vnni(w.q4.data() + r * w.q4_cols, w.q_total[r], quads,
                     w.quad_stride, w.q4_cols, w.lo[r], n, w.dots.data());
    } else
#endif
    {
      (void)quads;
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
  const std::size_t d16 = round_up(d, 16);
#if defined(__x86_64__)
  if constexpr (kAmx) {
    // The key-major step's K and V operands, once per tile like stage 1:
    // K's codes zero-padded to whole tiles, V transposed.
    w.k_row_bytes = round_up(d, 64);
    w.k_tile_bytes = round_up(bc, 16) * w.k_row_bytes;
    w.k_rows.assign(n_kv_tiles * w.k_tile_bytes, 0);
    w.v_row_bytes = round_up(bc, 64);
    w.v_tile_bytes = d16 * w.v_row_bytes;
    w.v_cols.resize(n_kv_tiles * w.v_tile_bytes);
    std::vector<std::uint32_t> quads(w.v_row_bytes / 4 * d16);
    for (std::size_t j = 0; j < n_kv_tiles; ++j) {
      const MatrixI8& kq = k_tiles[j].q;
      for (std::size_t t = 0; t < kq.rows(); ++t) {
        std::memcpy(w.k_rows.data() + j * w.k_tile_bytes + t * w.k_row_bytes,
                    kq.data() + t * d, d);
      }
      v_channel_rows(v_tiles[j].q, quads, d16, w.v_row_bytes,
                     w.v_cols.data() + j * w.v_tile_bytes);
    }
  } else
#endif
  {
    if constexpr (kAvx512) {
      // The AVX-512 QK^T's K layout, once per K tile like stage 1, with
      // room for quad_dots_vnni's reads, up to 63 keys past the tile.
      w.quad_stride = bc + 64;
      w.k_tile_quads = d4 * w.quad_stride;
      w.k_quads.resize(n_kv_tiles * w.k_tile_quads);
      for (std::size_t j = 0; j < n_kv_tiles; ++j) {
        k_quads(k_tiles[j].q, d4, w.quad_stride,
                w.k_quads.data() + j * w.k_tile_quads);
      }
    }
    if constexpr (kSimd) {
      // The SIMD P~V's V layout, likewise once per V tile.
      w.v_stride = d;
      w.v_tile_quads = (bc + 3) / 4 * w.v_stride;
      w.v_quads.resize(n_kv_tiles * w.v_tile_quads);
      for (std::size_t j = 0; j < n_kv_tiles; ++j) {
        v_quads(v_tiles[j].q.data(), v_tiles[j].q.rows(), d, w.v_stride,
                w.v_quads.data() + j * w.v_tile_quads);
      }
    }
  }

  TurboPrefillResult result;
  result.o = MatrixF(n_q, d, 0.0f);
  result.lse.assign(n_q, 0.0f);

  const std::size_t tile_rows = std::min(br, n_q);
  const std::size_t tile_cols = std::min(bc, n_k);
  w.q8.resize(tile_rows * d);
  if constexpr (kAmx) {
    // Per lane, and the products' operands and results, whole 16-lane
    // groups: the Q quads, every key's scores, P~'s key quads (64 keys at
    // a time) and O^T; and one block of a product.
    w.lanes = round_up(tile_rows, 16);
    const std::size_t lanes = w.lanes;
    w.m.resize(lanes);
    w.l.resize(lanes);
    w.m_new.resize(lanes);
    w.alpha.resize(lanes);
    w.lane_lo.resize(lanes);
    w.lane_hi.resize(lanes);
    w.live.resize(lanes / 16);
    w.first.resize(lanes / 16);
    w.coded.resize(lanes / 16);
    w.q_quads.resize(w.k_row_bytes / 4 * lanes);
    w.blocks.resize(2 * 32 * 32);
    w.x.resize(lanes + round_up(tile_cols, 4) * lanes);
    w.p4.resize(round_up(tile_cols, 64) / 4 * lanes);
    w.o_t.resize(d16 * lanes);
  } else {
    w.m.resize(tile_rows);
    w.l.resize(tile_rows);
    w.m_new.resize(tile_rows);
    w.lo.resize(tile_rows);
    w.len.resize(tile_rows);
    w.x.resize(tile_rows + tile_rows * tile_cols);
    w.dots.resize(tile_cols);
    w.p4.resize((tile_cols + 3) / 4);
    if constexpr (kAvx512) {
      w.q4_cols = d4;
      w.q4.resize(tile_rows * d4);
      w.q_total.resize(tile_rows);
    }
  }

  // With kAmx, the tile configuration for the whole call; its destructor
  // releases the tiles however the call ends, a throw from a Q tile's
  // stage 1 included.
  [[maybe_unused]] const std::conditional_t<kAmx, TileState, NoTiles> tiles{};

  for (std::size_t qb = 0; qb < n_q; qb += br) {
    const std::size_t q_rows = std::min(br, n_q - qb);
    const float q_scale =
        stage1(std::span<const float>(q.data() + qb * d, q_rows * d),
               std::span<std::int8_t>(w.q8.data(), q_rows * d));
    float* o = result.o.data() + qb * d;
#if defined(__x86_64__)
    if constexpr (kAmx) {
      q_channel_quads(w.q8.data(), q_rows, d, w);
      std::fill(w.m.begin(), w.m.end(), kNegInf);
      std::fill(w.l.begin(), w.l.end(), 0.0f);
      std::fill(w.o_t.begin(), w.o_t.end(), 0.0f);
      std::fill(w.lane_lo.begin(), w.lane_lo.end(), 0);
      std::fill(w.lane_hi.begin(), w.lane_hi.end(), 0);
    } else
#endif
    {
      if constexpr (kAvx512) {
        // Each row's codes as four-byte quads, zero past d.
        std::fill(w.q4.begin(), w.q4.end(), 0);
        for (std::size_t r = 0; r < q_rows; ++r) {
          std::memcpy(w.q4.data() + r * w.q4_cols, w.q8.data() + r * d, d);
          w.q_total[r] = q_sum(w.q8.data() + r * d, d);
        }
      }
      std::fill_n(w.m.begin(), q_rows, kNegInf);
      std::fill_n(w.l.begin(), q_rows, 0.0f);
    }

    for (std::size_t j = 0; j < n_kv_tiles; ++j) {
      const std::size_t kb = j * bc;
      const std::size_t k_rows = std::min(bc, n_k - kb);
      if (cfg.causal) {
        const std::size_t last_visible = q_offset + qb + q_rows - 1;
        if (kb > last_visible) break;
      }
      // Each row's visible keys of this tile: [lo, hi).
      bool seen = false;
      bool whole = true;  // every row sees every key
      for (std::size_t r = 0; r < q_rows; ++r) {
        const std::size_t visible = cfg.causal ? q_offset + qb + r + 1 : n_k;
        const std::size_t win_start =
            cfg.window > 0 && visible > cfg.window ? visible - cfg.window
                                                   : 0;
        const std::size_t lo = std::clamp(win_start, kb, kb + k_rows) - kb;
        const std::size_t hi = std::max(
            lo, std::clamp(visible, kb, kb + k_rows) - kb);
        seen = seen || hi > lo;
        whole = whole && lo == 0 && hi == k_rows;
        if constexpr (kAmx) {
          w.lane_lo[r] = static_cast<std::int32_t>(lo);
          w.lane_hi[r] = static_cast<std::int32_t>(hi);
        } else {
          w.lo[r] = lo;
          w.len[r] = hi - lo;
        }
      }
      if (!seen) continue;
#if defined(__x86_64__)
      if constexpr (kAmx) {
        const bool masked = !whole || q_rows % 16 != 0 || k_rows % 4 != 0;
        absorb_kv_lanes(w.k_rows.data() + j * w.k_tile_bytes,
                        w.v_cols.data() + j * w.v_tile_bytes, k_rows,
                        k_tiles[j].scale, v_tiles[j].scale, d, q_scale,
                        attn_scale, masked, sas, w);
        continue;
      }
#endif
      const std::uint32_t* quads =
          kAvx512 ? w.k_quads.data() + j * w.k_tile_quads : nullptr;
      const std::uint32_t* vq =
          kSimd ? w.v_quads.data() + j * w.v_tile_quads : nullptr;
      absorb_kv_tile(k_tiles[j], quads, v_tiles[j], vq, q_rows, d, q_scale,
                     attn_scale, sas, o, w);
    }

    for (std::size_t r = 0; r < q_rows; ++r) {
      TURBO_CHECK_MSG(w.l[r] > 0.0f,
                      "query row " << qb + r << " attended no keys");
      result.lse[qb + r] = w.m[r] + std::log(w.l[r]);
    }
#if defined(__x86_64__)
    if constexpr (kAmx) {
      write_rows(q_rows, d, w, o);
      continue;
    }
#endif
    for (std::size_t r = 0; r < q_rows; ++r) {
      const float inv = 1.0f / w.l[r];
      float* orow = o + r * d;
      for (std::size_t c = 0; c < d; ++c) orow[c] *= inv;
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
