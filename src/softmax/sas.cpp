#include "softmax/sas.h"

#include <array>
#include <cmath>

#if defined(__x86_64__)
// GCC 12's AVX-512 headers trip -Wmaybe-uninitialized inside their own
// inline functions (_mm512_cvtps_ph among them). The warning is located in
// the header, so only a pragma around the include silences it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

#include "common/check.h"
#include "common/cpu.h"
#include "common/fp16.h"

namespace turbo {

namespace {
// Least-squares coefficients from Eq. 15 (highest degree first).
constexpr float kC3 = -0.1025f;
constexpr float kC2 = 0.4626f;
constexpr float kC1 = -0.9922f;
constexpr float kC0 = 0.9996f;

#if defined(__x86_64__)

// Round eight floats through binary16 the way round_to_fp16 does: F16C
// converts with round-to-nearest-even, gradual underflow and overflow to
// infinity, so the two agree on every non-NaN float.
__attribute__((target("avx2,f16c"))) __m256 round_fp16(__m256 v) {
  return _mm256_cvtph_ps(
      _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
}

// exp_neg on eight lanes per step for the configuration the kernels run:
// binary16 arithmetic and a LUT of at most 8 entries (threshold >= -6),
// held in one register. Same operations in the same order (no FMA: the
// target leaves it out, so nothing contracts). Lanes exp_neg maps to 0
// (below the threshold) read LUT entry 0, and NaN lanes pass their input
// through, so the LUT read never leaves the table. Returns how many
// leading values it handled.
__attribute__((target("avx2,f16c"))) std::size_t apply_avx2(
    const SasConfig& config, std::span<const float> lut,
    std::span<float> values) {
  const std::size_t n = values.size() - values.size() % 8;
  const __m256 c3 = _mm256_set1_ps(round_to_fp16(kC3));
  const __m256 c2 = _mm256_set1_ps(round_to_fp16(kC2));
  const __m256 c1 = _mm256_set1_ps(round_to_fp16(kC1));
  const __m256 c0 = _mm256_set1_ps(round_to_fp16(kC0));
  const __m256 zero = _mm256_setzero_ps();
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 threshold =
      _mm256_set1_ps(static_cast<float>(config.threshold));
  std::array<float, 8> lut8{};
  for (std::size_t i = 0; i < lut.size(); ++i) lut8[i] = lut[i];
  const __m256 table = _mm256_loadu_ps(lut8.data());
  for (std::size_t i = 0; i < n; i += 8) {
    const __m256 in = _mm256_loadu_ps(values.data() + i);
    const __m256 nan = _mm256_cmp_ps(in, in, _CMP_UNORD_Q);
    const __m256 x =
        _mm256_blendv_ps(in, zero, _mm256_cmp_ps(in, zero, _CMP_GT_OQ));
    const __m256 keep = _mm256_cmp_ps(x, threshold, _CMP_GE_OQ);
    const __m256 y = _mm256_and_ps(_mm256_xor_ps(x, sign), keep);
    const __m256i y_int = _mm256_cvttps_epi32(y);
    const __m256 y_dec = _mm256_sub_ps(y, _mm256_cvtepi32_ps(y_int));
    const __m256 lut_v = _mm256_permutevar8x32_ps(table, y_int);
    const __m256 t = round_fp16(y_dec);
    __m256 acc = round_fp16(_mm256_mul_ps(c3, t));
    acc = round_fp16(_mm256_add_ps(acc, c2));
    acc = round_fp16(_mm256_mul_ps(acc, t));
    acc = round_fp16(_mm256_add_ps(acc, c1));
    acc = round_fp16(_mm256_mul_ps(acc, t));
    acc = round_fp16(_mm256_add_ps(acc, c0));
    const __m256 prod = round_fp16(_mm256_mul_ps(lut_v, acc));
    const __m256 out = _mm256_blendv_ps(_mm256_and_ps(prod, keep), in, nan);
    _mm256_storeu_ps(values.data() + i, out);
  }
  return n;
}

// round_fp16 on sixteen lanes. (The all-lanes mask form: unoptimized
// builds expand _mm512_cvtps_ph to a macro whose implicit -1 mask trips
// -Wsign-conversion.)
__attribute__((target("avx2,f16c,avx512f,avx512bw,avx512vl,avx512vnni")))
__m512 round_fp16_x16(__m512 v) {
  return _mm512_cvtph_ps(_mm512_maskz_cvtps_ph(
      __mmask16{0xFFFF}, v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
}

// apply_avx2 on sixteen lanes, for a LUT of at most 16 entries (threshold
// >= -14) held in one register, with mask registers in place of the
// blends. The final partial vector runs masked, so this handles every
// value.
__attribute__((target("avx2,f16c,avx512f,avx512bw,avx512vl,avx512vnni")))
void apply_avx512(const SasConfig& config, std::span<const float> lut,
                  std::span<float> values) {
  const __m512 c3 = _mm512_set1_ps(round_to_fp16(kC3));
  const __m512 c2 = _mm512_set1_ps(round_to_fp16(kC2));
  const __m512 c1 = _mm512_set1_ps(round_to_fp16(kC1));
  const __m512 c0 = _mm512_set1_ps(round_to_fp16(kC0));
  const __m512 zero = _mm512_setzero_ps();
  const __m512i sign = _mm512_castps_si512(_mm512_set1_ps(-0.0f));
  const __m512 threshold =
      _mm512_set1_ps(static_cast<float>(config.threshold));
  std::array<float, 16> lut16{};
  for (std::size_t i = 0; i < lut.size(); ++i) lut16[i] = lut[i];
  const __m512 table = _mm512_loadu_ps(lut16.data());
  const std::size_t n = values.size();
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 lanes =
        n - i >= 16 ? __mmask16{0xFFFF}
                    : static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 in = _mm512_maskz_loadu_ps(lanes, values.data() + i);
    const __mmask16 nan = _mm512_cmp_ps_mask(in, in, _CMP_UNORD_Q);
    const __m512 x = _mm512_mask_blend_ps(
        _mm512_cmp_ps_mask(in, zero, _CMP_GT_OQ), in, zero);
    const __mmask16 keep = _mm512_cmp_ps_mask(x, threshold, _CMP_GE_OQ);
    const __m512 y = _mm512_maskz_mov_ps(
        keep, _mm512_castsi512_ps(
                  _mm512_xor_si512(_mm512_castps_si512(x), sign)));
    const __m512i y_int = _mm512_cvttps_epi32(y);
    const __m512 y_dec = _mm512_sub_ps(y, _mm512_cvtepi32_ps(y_int));
    const __m512 lut_v = _mm512_permutexvar_ps(y_int, table);
    const __m512 t = round_fp16_x16(y_dec);
    __m512 acc = round_fp16_x16(_mm512_mul_ps(c3, t));
    acc = round_fp16_x16(_mm512_add_ps(acc, c2));
    acc = round_fp16_x16(_mm512_mul_ps(acc, t));
    acc = round_fp16_x16(_mm512_add_ps(acc, c1));
    acc = round_fp16_x16(_mm512_mul_ps(acc, t));
    acc = round_fp16_x16(_mm512_add_ps(acc, c0));
    const __m512 prod = round_fp16_x16(_mm512_mul_ps(lut_v, acc));
    const __m512 out =
        _mm512_mask_blend_ps(nan, _mm512_maskz_mov_ps(keep, prod), in);
    _mm512_mask_storeu_ps(values.data() + i, lanes, out);
  }
}

#endif  // __x86_64__

}  // namespace

Sas::Sas(SasConfig config) : config_(config) {
  TURBO_CHECK_MSG(config_.threshold < 0,
                  "SAS threshold must be negative, got "
                      << config_.threshold);
  // LUT[i] = e^{-i} for i = 0 .. |threshold|; one sentinel 0 entry past the
  // end so the sparsified bucket (Algorithm 3 sets X[X < n_r] = n_r + 1,
  // i.e. T[n_r + 1] = 0) needs no branch in the indexed path.
  const int n = -config_.threshold;
  lut_.resize(static_cast<std::size_t>(n) + 2);
  for (int i = 0; i <= n; ++i) {
    float v = std::exp(static_cast<float>(-i));
    if (config_.fp16_arithmetic) v = round_to_fp16(v);
    lut_[static_cast<std::size_t>(i)] = v;
  }
  lut_.back() = 0.0f;
}

float Sas::poly(float t) {
  // Horner's scheme.
  return ((kC3 * t + kC2) * t + kC1) * t + kC0;
}

float Sas::poly_fp16(float t) {
  // Each multiply-accumulate rounds through binary16, as an FP16 tensor-core
  // MAC chain would.
  const float t16 = round_to_fp16(t);
  float acc = round_to_fp16(kC3);
  acc = round_to_fp16(acc * t16);
  acc = round_to_fp16(acc + round_to_fp16(kC2));
  acc = round_to_fp16(acc * t16);
  acc = round_to_fp16(acc + round_to_fp16(kC1));
  acc = round_to_fp16(acc * t16);
  acc = round_to_fp16(acc + round_to_fp16(kC0));
  return acc;
}

float Sas::exp_neg(float x) const {
  if (x > 0.0f) x = 0.0f;  // FP16 rounding noise can push shifted scores > 0
  if (config_.exact_exp) return std::exp(x);
  if (std::isnan(x)) return x;  // the int cast below is undefined for NaN
  if (x < static_cast<float>(config_.threshold)) return 0.0f;

  const float y = -x;  // y in (0, |threshold|]
  const int y_int = static_cast<int>(y);
  const float y_dec = y - static_cast<float>(y_int);

  const float lut_v = lut_[static_cast<std::size_t>(y_int)];
  const float poly_v =
      config_.fp16_arithmetic ? poly_fp16(y_dec) : poly(y_dec);
  const float prod = lut_v * poly_v;
  return config_.fp16_arithmetic ? round_to_fp16(prod) : prod;
}

void Sas::apply(std::span<float> values) const {
  std::size_t done = 0;
#if defined(__x86_64__)
  static const bool kAvx512 = cpu_has_avx512vnni();
  static const bool kAvx2 = cpu_has_avx2_f16c();
  // Other configurations (exact exp, FP32 arithmetic, a LUT wider than
  // the register) take the scalar loop.
  if (config_.fp16_arithmetic && !config_.exact_exp) {
    if (kAvx512 && lut_.size() <= 16) {
      apply_avx512(config_, lut_, values);
      return;
    }
    if (kAvx2 && lut_.size() <= 8) done = apply_avx2(config_, lut_, values);
  }
#endif
  for (float& v : values.subspan(done)) v = exp_neg(v);
}

MatrixF Sas::softmax(const MatrixF& scores) const {
  MatrixF out(scores.rows(), scores.cols());
  for (std::size_t r = 0; r < scores.rows(); ++r) {
    auto x = scores.row(r);
    auto o = out.row(r);
    float m = x[0];
    for (float v : x) m = std::max(m, v);
    float sum = 0.0f;
    for (std::size_t i = 0; i < x.size(); ++i) {
      o[i] = exp_neg(x[i] - m);
      sum += o[i];
    }
    // The row maximum itself always contributes ~1, so sum > 0.
    const float inv = 1.0f / sum;
    for (float& v : o) v *= inv;
  }
  return out;
}

}  // namespace turbo
