#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "attention/turbo.h"
#include "common/check.h"
#include "common/numeric.h"
#include "quant/symmetric.h"

namespace turbo {

namespace {
constexpr float kNegInf = -std::numeric_limits<float>::infinity();
}  // namespace

TurboPrefillResult turbo_attention_prefill(const MatrixF& q, const MatrixF& k,
                                           const MatrixF& v,
                                           const AttentionConfig& cfg,
                                           const Sas& sas,
                                           QuantizedKvCache* cache) {
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

  // Stage-1 quantization of all K/V tiles (per-block symmetric INT8).
  // Algorithm 1 performs this inside the (i, j) loop; the result depends
  // only on j, so we hoist it — identical numerics, one pass.
  const std::size_t n_kv_tiles = (n_k + bc - 1) / bc;
  std::vector<Int8Tile> k_tiles(n_kv_tiles);
  std::vector<Int8Tile> v_tiles(n_kv_tiles);
  for (std::size_t j = 0; j < n_kv_tiles; ++j) {
    const std::size_t kb = j * bc;
    const std::size_t rows = std::min(bc, n_k - kb);
    k_tiles[j] = quantize_tile_int8(k.block_rows(kb, rows));
    v_tiles[j] = quantize_tile_int8(v.block_rows(kb, rows));
  }

  TurboPrefillResult result;
  result.o = MatrixF(n_q, d, 0.0f);
  result.lse.assign(n_q, 0.0f);

  std::vector<float> m_run(br);
  std::vector<float> l_run(br);
  MatrixF s_tile(br, bc);
  MatrixF p_tile(br, bc);
  MatrixI8 p_q(br, bc);
  std::vector<std::int32_t> pv_acc(d);

  for (std::size_t qb = 0; qb < n_q; qb += br) {
    const std::size_t q_rows = std::min(br, n_q - qb);
    // Stage-1 quantization of the Q tile.
    const Int8Tile q_tile = quantize_tile_int8(q.block_rows(qb, q_rows));

    std::fill_n(m_run.begin(), q_rows, kNegInf);
    std::fill_n(l_run.begin(), q_rows, 0.0f);

    for (std::size_t j = 0; j < n_kv_tiles; ++j) {
      const std::size_t kb = j * bc;
      const std::size_t k_rows = std::min(bc, n_k - kb);
      if (cfg.causal) {
        const std::size_t last_visible = q_offset + qb + q_rows - 1;
        if (kb > last_visible) break;
      }

      // S = (s_q * s_k) * Q^q1 (K^q1)^T * attn_scale — integer matmul with
      // INT32 accumulation, one FP rescale per element.
      const float s_scale = q_tile.scale * k_tiles[j].scale * attn_scale;
      for (std::size_t r = 0; r < q_rows; ++r) {
        auto qr = q_tile.q.row(r);
        const std::size_t visible =
            cfg.causal ? q_offset + qb + r + 1 : n_k;
        const std::size_t win_start =
            cfg.window > 0 && visible > cfg.window ? visible - cfg.window
                                                   : 0;
        for (std::size_t c = 0; c < k_rows; ++c) {
          if (kb + c >= visible || kb + c < win_start) {
            s_tile(r, c) = kNegInf;
            continue;
          }
          auto kr = k_tiles[j].q.row(c);
          std::int32_t acc = 0;
          for (std::size_t x = 0; x < d; ++x) {
            acc += static_cast<std::int32_t>(qr[x]) *
                   static_cast<std::int32_t>(kr[x]);
          }
          s_tile(r, c) = static_cast<float>(acc) * s_scale;
        }
      }

      // Online softmax with SAS exponentials; P~ collected per row, then
      // the whole tile is symmetrically quantized to INT8 for the P~V
      // integer matmul.
      float p_max = 0.0f;
      for (std::size_t r = 0; r < q_rows; ++r) {
        float block_max = kNegInf;
        for (std::size_t c = 0; c < k_rows; ++c) {
          block_max = std::max(block_max, s_tile(r, c));
        }
        if (block_max == kNegInf) {
          // Fully masked row within this tile: contributes nothing.
          for (std::size_t c = 0; c < k_rows; ++c) p_tile(r, c) = 0.0f;
          continue;
        }
        const float m_new = std::max(m_run[r], block_max);
        const float alpha =
            m_run[r] == kNegInf ? 0.0f : sas.exp_neg(m_run[r] - m_new);

        float row_sum = 0.0f;
        for (std::size_t c = 0; c < k_rows; ++c) {
          const float s = s_tile(r, c);
          const float p = s == kNegInf ? 0.0f : sas.exp_neg(s - m_new);
          p_tile(r, c) = p;
          row_sum += p;
          p_max = std::max(p_max, p);
        }
        l_run[r] = l_run[r] * alpha + row_sum;
        m_run[r] = m_new;

        if (alpha != 1.0f) {
          auto orow = result.o.row(qb + r);
          for (std::size_t x = 0; x < d; ++x) orow[x] *= alpha;
        }
      }

      // Quantize P~ (values in [0, 1]) with one per-tile scale and run the
      // INT8 P~V matmul with INT32 accumulation.
      const float p_scale =
          p_max > 0.0f ? p_max / kSymmetricHeadroom : 1.0f;
      const float inv_p_scale = 1.0f / p_scale;
      for (std::size_t r = 0; r < q_rows; ++r) {
        for (std::size_t c = 0; c < k_rows; ++c) {
          p_q(r, c) = clamp_to_i8(p_tile(r, c) * inv_p_scale, 0, 127);
        }
      }
      // Each row's products sum exactly in int32 over the tile (|v| <= 127,
      // so |acc| <= Bc * 127^2, exact as a float up to Bc = 1,040), and O
      // takes float(acc) * o_scale once. A row whose codes are all 0 adds
      // nothing, not even +0.
      const float o_scale = p_scale * v_tiles[j].scale;
      for (std::size_t r = 0; r < q_rows; ++r) {
        std::fill(pv_acc.begin(), pv_acc.end(), 0);
        bool live = false;
        for (std::size_t c = 0; c < k_rows; ++c) {
          const std::int32_t pv = p_q(r, c);
          if (pv == 0) continue;
          live = true;
          auto vr = v_tiles[j].q.row(c);
          for (std::size_t x = 0; x < d; ++x) pv_acc[x] += pv * vr[x];
        }
        if (!live) continue;
        auto orow = result.o.row(qb + r);
        for (std::size_t x = 0; x < d; ++x) {
          orow[x] += static_cast<float>(pv_acc[x]) * o_scale;
        }
      }
    }

    for (std::size_t r = 0; r < q_rows; ++r) {
      TURBO_CHECK_MSG(l_run[r] > 0.0f,
                      "query row " << qb + r << " attended no keys");
      const float inv = 1.0f / l_run[r];
      auto orow = result.o.row(qb + r);
      for (std::size_t x = 0; x < d; ++x) orow[x] *= inv;
      result.lse[qb + r] = m_run[r] + std::log(l_run[r]);
    }
  }

  // Second-stage compression of the K/V tiles into the cache (Step 3 of
  // Figure 3's prefill flow).
  if (cache != nullptr) {
    for (std::size_t j = 0; j < n_kv_tiles; ++j) {
      cache->append_prefill_block(k_tiles[j], v_tiles[j]);
    }
  }
  return result;
}

}  // namespace turbo
