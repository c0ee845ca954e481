#include "softmax/sas.h"

#include <array>
#include <cmath>

#if defined(__x86_64__)
// GCC 12's AVX-512 headers trip -Wmaybe-uninitialized and -Wuninitialized
// inside their own inline functions (_mm512_cvtps_ph, and
// _mm512_inserti64x4 through _mm512_undefined_epi32). The warning is
// located in the header, so only a pragma around the include silences it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

#include "common/check.h"
#include "common/cpu.h"
#include "common/dispatch_table.h"
#include "common/fp16.h"
#include "softmax/sas_paths.h"

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

// One half of apply_avx512fp16's 32-lane step: sixteen inputs through
// apply_avx512's FP32 prologue, whose integer/fraction split is exact only
// on the FP32 input, then the LUT index as words and the fraction rounded
// to binary16 (t of poly_fp16).
struct SasHalf {
  __m512 in;
  __mmask16 nan;
  __mmask16 keep;
  __m256i index;  // y_int, one word per lane
  __m256i t;      // round16(y_dec), binary16 bits
};

__attribute__((target(
    "avx2,f16c,avx512f,avx512bw,avx512vl,avx512vnni,avx512fp16"))) inline SasHalf
sas_half(const float* values, __mmask16 lanes, __m512 threshold) {
  const __m512 zero = _mm512_setzero_ps();
  const __m512i sign = _mm512_castps_si512(_mm512_set1_ps(-0.0f));
  SasHalf h;
  h.in = _mm512_maskz_loadu_ps(lanes, values);
  h.nan = _mm512_cmp_ps_mask(h.in, h.in, _CMP_UNORD_Q);
  const __m512 x = _mm512_mask_blend_ps(
      _mm512_cmp_ps_mask(h.in, zero, _CMP_GT_OQ), h.in, zero);
  h.keep = _mm512_cmp_ps_mask(x, threshold, _CMP_GE_OQ);
  const __m512 y = _mm512_maskz_mov_ps(
      h.keep,
      _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(x), sign)));
  const __m512i y_int = _mm512_cvttps_epi32(y);
  const __m512 y_dec = _mm512_sub_ps(y, _mm512_cvtepi32_ps(y_int));
  h.index = _mm512_cvtepi32_epi16(y_int);
  h.t = _mm512_maskz_cvtps_ph(__mmask16{0xFFFF}, y_dec,
                              _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  return h;
}

// Two 16-word halves as one 32-word register, lo in words 0-15.
__attribute__((target(
    "avx2,f16c,avx512f,avx512bw,avx512vl,avx512vnni,avx512fp16"))) inline __m512i
join_words(__m256i lo, __m256i hi) {
  return _mm512_inserti64x4(_mm512_zextsi256_si512(lo), hi, 1);
}

// apply_avx512 on 32 lanes per step, for a LUT of at most 16 entries
// (threshold >= -14), with its binary16 arithmetic on AVX-512 FP16: after
// the FP32 prologue, the Horner chain and the LUT product run as vmulph and
// vaddph, 32 binary16 lanes to a register, rounded to nearest even whatever
// the rounding direction. Each equals the FP32 operation of its two
// binary16 operands rounded once more to binary16, poly_fp16's round trip,
// because FP32's 24 bits are at least 2 * 11 + 2: the double rounding is
// innocuous. The keep and NaN blends run in FP32 again. The LUT, whose
// entries are binary16 values already, and the coefficients, which round
// as round_to_fp16 rounds them, are converted once per call.
__attribute__((target(
    "avx2,f16c,avx512f,avx512bw,avx512vl,avx512vnni,avx512fp16"))) void
apply_avx512fp16(const SasConfig& config, std::span<const float> lut,
                 std::span<float> values) {
  constexpr int kNearest = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
  // Words 0-15: the LUT; words 16-19: c3, c2, c1, c0.
  const __m512h table = _mm512_castsi512_ph(join_words(
      _mm512_maskz_cvtps_ph(
          __mmask16{0xFFFF},
          _mm512_maskz_loadu_ps(
              static_cast<__mmask16>((1u << lut.size()) - 1u), lut.data()),
          kNearest),
      _mm512_maskz_cvtps_ph(__mmask16{0xFFFF},
                            _mm512_setr_ps(kC3, kC2, kC1, kC0, 0.0f, 0.0f,
                                           0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f,
                                           0.0f, 0.0f, 0.0f, 0.0f),
                            kNearest)));
  const __m512h c3 = _mm512_permutexvar_ph(_mm512_set1_epi16(16), table);
  const __m512h c2 = _mm512_permutexvar_ph(_mm512_set1_epi16(17), table);
  const __m512h c1 = _mm512_permutexvar_ph(_mm512_set1_epi16(18), table);
  const __m512h c0 = _mm512_permutexvar_ph(_mm512_set1_epi16(19), table);
  const __m512 threshold =
      _mm512_set1_ps(static_cast<float>(config.threshold));
  const std::size_t n = values.size();
  for (std::size_t i = 0; i < n; i += 32) {
    const std::size_t left = n - i;
    const __mmask16 lanes_lo =
        left >= 16 ? __mmask16{0xFFFF}
                   : static_cast<__mmask16>((1u << left) - 1u);
    const __mmask16 lanes_hi =
        left >= 32 ? __mmask16{0xFFFF}
        : left > 16 ? static_cast<__mmask16>((1u << (left - 16)) - 1u)
                    : __mmask16{0};
    const SasHalf lo = sas_half(values.data() + i, lanes_lo, threshold);
    const SasHalf hi = sas_half(values.data() + i + 16, lanes_hi, threshold);
    const __m512h t = _mm512_castsi512_ph(join_words(lo.t, hi.t));
    __m512h acc = _mm512_mul_round_ph(c3, t, kNearest);
    acc = _mm512_add_round_ph(acc, c2, kNearest);
    acc = _mm512_mul_round_ph(acc, t, kNearest);
    acc = _mm512_add_round_ph(acc, c1, kNearest);
    acc = _mm512_mul_round_ph(acc, t, kNearest);
    acc = _mm512_add_round_ph(acc, c0, kNearest);
    const __m512h lut_v =
        _mm512_permutexvar_ph(join_words(lo.index, hi.index), table);
    const __m512i prod =
        _mm512_castph_si512(_mm512_mul_round_ph(lut_v, acc, kNearest));
    const __m512 prod_lo = _mm512_cvtph_ps(_mm512_castsi512_si256(prod));
    const __m512 prod_hi = _mm512_cvtph_ps(_mm512_extracti64x4_epi64(prod, 1));
    _mm512_mask_storeu_ps(
        values.data() + i, lanes_lo,
        _mm512_mask_blend_ps(lo.nan, _mm512_maskz_mov_ps(lo.keep, prod_lo),
                             lo.in));
    _mm512_mask_storeu_ps(
        values.data() + i + 16, lanes_hi,
        _mm512_mask_blend_ps(hi.nan, _mm512_maskz_mov_ps(hi.keep, prod_hi),
                             hi.in));
  }
}

#endif  // __x86_64__

void apply_scalar(const Sas& sas, std::span<float> values) {
  for (float& v : values) v = sas.exp_neg(v);
}

#if defined(__x86_64__)

// The vector paths take the configuration the kernels run, binary16
// arithmetic and no exact exp, with a LUT of at most lut_max entries; the
// rest is exp_neg.
bool vector_config(const Sas& sas, std::size_t lut_max) {
  return sas.config().fp16_arithmetic && !sas.config().exact_exp &&
         sas.lut().size() <= lut_max;
}

void apply_avx2_path(const Sas& sas, std::span<float> values) {
  std::size_t done = 0;
  if (vector_config(sas, 8)) done = apply_avx2(sas.config(), sas.lut(), values);
  apply_scalar(sas, values.subspan(done));
}

void apply_avx512_path(const Sas& sas, std::span<float> values) {
  if (!vector_config(sas, 16)) return apply_scalar(sas, values);
  apply_avx512(sas.config(), sas.lut(), values);
}

void apply_avx512fp16_path(const Sas& sas, std::span<float> values) {
  if (!vector_config(sas, 16)) return apply_scalar(sas, values);
  apply_avx512fp16(sas.config(), sas.lut(), values);
}

#endif  // __x86_64__

}  // namespace

namespace detail {

std::span<const SasPath> sas_paths() {
  static const std::array kPaths = {
      SasPath{"scalar", &apply_scalar, true},
#if defined(__x86_64__)
      SasPath{"avx2", &apply_avx2_path, cpu_has_avx2_f16c()},
      SasPath{"avx512", &apply_avx512_path, cpu_has_avx512vnni()},
      SasPath{"avx512fp16", &apply_avx512fp16_path, cpu_has_avx512fp16()},
#endif
  };
  return kPaths;
}

const SasPath& sas_path() {
  static const SasPath& kPicked = last_supported(sas_paths());
  return kPicked;
}

}  // namespace detail

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
  detail::sas_path().apply(*this, values);
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
