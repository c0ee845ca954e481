// SAS — Sparse Activated Softmax (section 4 / Algorithm 3).
//
// FlashAttention performs exponentiation in FP32 because GPU tensor cores
// have no exp and FP16 exp overflows easily; SAS removes that FP32
// dependency. For x <= 0 (scores are always shifted by the row max first):
//
//   e^x = e^{-(x_int + x_dec)} ~= LUT[x_int] * POLY(x_dec)
//
// where x_int = floor(-x) indexes a tiny lookup table of e^{-n} and
// x_dec in [0,1) is handled by the degree-3 least-squares polynomial from
// the paper (Eq. 15):
//
//   POLY(t) = -0.1025 t^3 + 0.4626 t^2 - 0.9922 t + 0.9996
//
// Sparsification: inputs below the threshold n_r (default -6) return
// exactly 0, which keeps the LUT at |n_r|+1 entries and zeroes the long
// tail of attention scores (their true value is < e^-6 ~= 0.0025).
// All arithmetic optionally rounds through FP16 to model tensor-core
// execution; on a CPU with AVX-512 FP16, Sas::apply runs it as native
// binary16 arithmetic.
#pragma once

#include <span>
#include <vector>

#include "common/matrix.h"

namespace turbo {

struct SasConfig {
  // Sparsification threshold n_r: x < n_r maps to 0. Paper default -6.
  int threshold = -6;
  // Round POLY/LUT arithmetic through binary16, modeling FP16 tensor-core
  // execution (true in the paper's kernels). Setting false isolates the
  // approximation error from the precision error in ablations.
  bool fp16_arithmetic = true;
  // Bypass the approximation entirely: exp_neg computes FP32 std::exp with
  // no sparsification. Lets the TurboAttention kernels run the "FlashQ
  // only" ablation of Table 4 without a separate code path.
  bool exact_exp = false;
};

class Sas {
 public:
  explicit Sas(SasConfig config = {});

  const SasConfig& config() const { return config_; }

  // Degree-3 polynomial approximation of e^{-t} for t in [0, 1).
  static float poly(float t);

  // Same, with every intermediate rounded through FP16 (Horner's scheme as
  // an FP16 MAC chain).
  static float poly_fp16(float t);

  // Approximate e^x for x <= 0. Values below the threshold return 0.
  // (Inputs slightly above 0 can occur from FP16 rounding of the shifted
  // scores; they are clamped to 0.) NaN returns NaN.
  float exp_neg(float x) const;

  // Apply exp_neg element-wise in place, bit for bit. With binary16
  // arithmetic and no exact exp, the CPU (checked once, from CPUID; see
  // softmax/sas_paths.h and common/cpu.h) picks a vector path: 32 values
  // per step on native binary16 arithmetic with AVX-512 FP16, else
  // sixteen on AVX-512 with VNNI (both threshold >= -14, a masked final
  // vector), else eight on AVX2 + F16C (threshold >= -6), where F16C
  // conversions do the binary16 rounding. Other configurations and CPUs,
  // and the oracle the vector paths are tested against, are exp_neg.
  void apply(std::span<float> values) const;

  // Full Algorithm 3: row-shift by max, sparsify, LUT x POLY, renormalize.
  MatrixF softmax(const MatrixF& scores) const;

  // LUT entry i holds e^{-i}; entries past the threshold are 0.
  std::span<const float> lut() const { return lut_; }

 private:
  SasConfig config_;
  std::vector<float> lut_;
};

}  // namespace turbo
