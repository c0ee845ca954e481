// FlashAttention baseline (Dao et al. 2022) on the CPU substrate.
//
// Numerics follow the GPU kernel: Q and the probability tile P are held
// in FP16 (emulated by rounding through binary16), matmuls accumulate in
// FP32, and exponentiation runs in FP32 — exactly the FP16/FP32 mix whose
// cost TurboAttention attacks. K/V are read as given: an FP16 cache holds
// them already rounded, and Fp16KvRows below is that cache. Tiling
// follows the standard Br x Bc online-softmax schedule, so outputs are
// bitwise-independent of tile size up to FP associativity.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "attention/config.h"
#include "common/matrix.h"

namespace turbo {

struct FlashOptions {
  // Round Q and P through binary16 as the GPU kernel would (K/V arrive
  // rounded from an Fp16KvRows). Disable to get an FP32-exact tiled
  // kernel (used by equivalence tests).
  bool emulate_fp16 = true;

  // Replacement exponential for the online softmax (must approximate e^x
  // for x <= 0). Empty means FP32 std::exp — the FlashAttention baseline.
  // Used by the "SAS only" ablation (Table 4), which keeps FP16 matmuls but
  // swaps the exponentiation for SAS.
  std::function<float(float)> exp_fn;
};

struct FlashResult {
  MatrixF o;               // [n_q x d]
  std::vector<float> lse;  // per-query log-sum-exp
};

// Tiled causal/non-causal attention. Q [n_q x d], K/V [n_k x d].
FlashResult flash_attention(const MatrixF& q, const MatrixF& k,
                            const MatrixF& v, const AttentionConfig& cfg,
                            const FlashOptions& options = {});

// Single-query decode step over a full cache (no mask).
std::vector<float> flash_decode(std::span<const float> q, const MatrixF& k,
                                const MatrixF& v, const AttentionConfig& cfg,
                                const FlashOptions& options = {});

// One head's FP16 K/V cache: every row is rounded through binary16 once,
// on the way in, and the kernels above read the rows as stored. The
// FlashAttention-FP16 baseline, KIVI's and GEAR's residual windows (their
// aged chunks overwritten by the reconstruction the dequant kernel would
// materialize) and Table 4's SAS-only ablation each attend through one.
class Fp16KvRows {
 public:
  explicit Fp16KvRows(std::size_t head_dim);

  std::size_t rows() const { return k_.rows(); }
  std::size_t head_dim() const { return k_.cols(); }
  const MatrixF& k() const { return k_; }
  const MatrixF& v() const { return v_; }

  // Stores the prompt's rows in an empty store and returns the causal
  // flash_attention output of q over them.
  MatrixF prefill(const MatrixF& q, const MatrixF& k, const MatrixF& v,
                  const AttentionConfig& cfg,
                  const FlashOptions& options = {});
  void append(std::span<const float> k, std::span<const float> v);
  // flash_decode of q over every stored row.
  std::vector<float> attend(std::span<const float> q,
                            const AttentionConfig& cfg,
                            const FlashOptions& options = {}) const;
  // Overwrites rows [begin, begin + k.rows()) with k and v, rounded.
  void replace(std::size_t begin, const MatrixF& k, const MatrixF& v);
  // FP16 payload of rows [from, rows()), K and V.
  std::size_t fp16_bytes(std::size_t from) const;

 private:
  MatrixF k_;
  MatrixF v_;
};

}  // namespace turbo
