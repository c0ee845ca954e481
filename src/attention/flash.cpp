#include "attention/flash.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/fp16.h"

namespace turbo {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

}  // namespace

FlashResult flash_attention(const MatrixF& q, const MatrixF& k,
                            const MatrixF& v, const AttentionConfig& cfg,
                            const FlashOptions& options) {
  TURBO_CHECK(q.cols() == k.cols());
  TURBO_CHECK(k.rows() == v.rows());
  TURBO_CHECK(k.cols() == v.cols());
  TURBO_CHECK(!cfg.causal || q.rows() <= k.rows());
  TURBO_CHECK(cfg.block_rows > 0 && cfg.block_cols > 0);

  const std::size_t n_q = q.rows();
  const std::size_t n_k = k.rows();
  const std::size_t d = q.cols();
  const float scale = cfg.effective_scale(d);
  // Absolute position offset of query row 0 under causal alignment.
  const std::size_t q_offset = n_k - (cfg.causal ? n_q : n_k);

  const auto exp_fn = [&options](float x) {
    return options.exp_fn ? options.exp_fn(x) : std::exp(x);
  };

  MatrixF qh = q;
  if (options.emulate_fp16) round_span_to_fp16(qh.flat());

  FlashResult result;
  result.o = MatrixF(n_q, d, 0.0f);
  result.lse.assign(n_q, 0.0f);

  const std::size_t br = cfg.block_rows;
  const std::size_t bc = cfg.block_cols;

  // A Q tile has at most min(br, n_q) rows: one for a decode step.
  const std::size_t tile_rows = std::min(br, n_q);
  std::vector<float> m_run(tile_rows);
  std::vector<float> l_run(tile_rows);
  MatrixF s_tile(tile_rows, bc);

  for (std::size_t qb = 0; qb < n_q; qb += br) {
    const std::size_t q_rows = std::min(br, n_q - qb);
    std::fill_n(m_run.begin(), q_rows, kNegInf);
    std::fill_n(l_run.begin(), q_rows, 0.0f);

    for (std::size_t kb = 0; kb < n_k; kb += bc) {
      const std::size_t k_rows = std::min(bc, n_k - kb);
      if (cfg.causal) {
        // Last query row of this tile sees keys up to its own position.
        const std::size_t last_visible = q_offset + qb + q_rows - 1;
        if (kb > last_visible) break;
      }

      // S = Q_i K_j^T * scale (FP16 operands, FP32 accumulate).
      for (std::size_t r = 0; r < q_rows; ++r) {
        auto qr = qh.row(qb + r);
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
          auto kr = k.row(kb + c);
          float acc = 0.0f;
          for (std::size_t x = 0; x < d; ++x) acc += qr[x] * kr[x];
          s_tile(r, c) = acc * scale;
        }
      }

      // Online-softmax update + output accumulation, FP32 exp.
      for (std::size_t r = 0; r < q_rows; ++r) {
        float block_max = kNegInf;
        for (std::size_t c = 0; c < k_rows; ++c) {
          block_max = std::max(block_max, s_tile(r, c));
        }
        if (block_max == kNegInf) continue;  // fully masked row in tile

        const float m_new = std::max(m_run[r], block_max);
        const float alpha =
            m_run[r] == kNegInf ? 0.0f : exp_fn(m_run[r] - m_new);

        float row_sum = 0.0f;
        auto orow = result.o.row(qb + r);
        if (alpha != 1.0f) {
          for (std::size_t x = 0; x < d; ++x) orow[x] *= alpha;
        }
        for (std::size_t c = 0; c < k_rows; ++c) {
          const float s = s_tile(r, c);
          if (s == kNegInf) continue;
          float p = exp_fn(s - m_new);
          row_sum += p;
          // P is cast to FP16 before the tensor-core P*V matmul.
          if (options.emulate_fp16) p = round_to_fp16(p);
          auto vr = v.row(kb + c);
          for (std::size_t x = 0; x < d; ++x) orow[x] += p * vr[x];
        }
        l_run[r] = l_run[r] * alpha + row_sum;
        m_run[r] = m_new;
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
  return result;
}

std::vector<float> flash_decode(std::span<const float> q, const MatrixF& k,
                                const MatrixF& v, const AttentionConfig& cfg,
                                const FlashOptions& options) {
  MatrixF qm(1, q.size());
  for (std::size_t i = 0; i < q.size(); ++i) qm(0, i) = q[i];
  AttentionConfig decode_cfg = cfg;
  decode_cfg.causal = false;
  const FlashResult r = flash_attention(qm, k, v, decode_cfg, options);
  return {r.o.row(0).begin(), r.o.row(0).end()};
}

Fp16KvRows::Fp16KvRows(std::size_t head_dim)
    : k_(0, head_dim), v_(0, head_dim) {}

MatrixF Fp16KvRows::prefill(const MatrixF& q, const MatrixF& k,
                            const MatrixF& v, const AttentionConfig& cfg,
                            const FlashOptions& options) {
  TURBO_CHECK_MSG(rows() == 0, "prefill must be the first call");
  MatrixF k16 = k;
  MatrixF v16 = v;
  round_span_to_fp16(k16.flat());
  round_span_to_fp16(v16.flat());
  FlashResult r = flash_attention(q, k16, v16, cfg, options);
  k_ = std::move(k16);
  v_ = std::move(v16);
  return std::move(r.o);
}

void Fp16KvRows::append(std::span<const float> k, std::span<const float> v) {
  TURBO_CHECK(k.size() == head_dim() && v.size() == head_dim());
  k_.append_row(k);
  v_.append_row(v);
  round_span_to_fp16(k_.row(rows() - 1));
  round_span_to_fp16(v_.row(rows() - 1));
}

std::vector<float> Fp16KvRows::attend(std::span<const float> q,
                                      const AttentionConfig& cfg,
                                      const FlashOptions& options) const {
  return flash_decode(q, k_, v_, cfg, options);
}

void Fp16KvRows::replace(std::size_t begin, const MatrixF& k,
                         const MatrixF& v) {
  TURBO_CHECK(k.cols() == head_dim() && v.cols() == head_dim());
  TURBO_CHECK(k.rows() == v.rows() && begin <= rows() &&
              k.rows() <= rows() - begin);
  const std::span<float> kd = k_.flat().subspan(begin * head_dim(), k.size());
  const std::span<float> vd = v_.flat().subspan(begin * head_dim(), v.size());
  std::copy(k.flat().begin(), k.flat().end(), kd.begin());
  std::copy(v.flat().begin(), v.flat().end(), vd.begin());
  round_span_to_fp16(kd);
  round_span_to_fp16(vd);
}

std::size_t Fp16KvRows::fp16_bytes(std::size_t from) const {
  TURBO_CHECK(from <= rows());
  return (rows() - from) * head_dim() * 2 * 2;
}

}  // namespace turbo
