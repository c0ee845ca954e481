// Cross-module integration: every KvAttention method driven through the
// same prefill + decode workload, scored against the FP32 exact method,
// and golden digests of every method's outputs.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "attention/turbo_method.h"
#include "baselines/fp16_method.h"
#include "baselines/gear.h"
#include "baselines/kivi.h"
#include "common/stats.h"
#include "tests/test_util.h"

namespace turbo {
namespace {

struct Workload {
  MatrixF q;
  MatrixF k;
  MatrixF v;
  std::vector<std::vector<float>> decode_q;
  std::vector<std::vector<float>> decode_k;
  std::vector<std::vector<float>> decode_v;
};

Workload make_workload(std::size_t prompt, std::size_t steps, std::size_t d,
                       std::uint64_t seed) {
  Workload w;
  w.q = test::random_matrix(prompt, d, seed);
  w.k = test::random_matrix(prompt, d, seed + 1);
  w.v = test::random_matrix(prompt, d, seed + 2);
  Rng rng(seed + 3);
  for (std::size_t t = 0; t < steps; ++t) {
    std::vector<float> q(d);
    std::vector<float> k(d);
    std::vector<float> v(d);
    rng.fill_normal(q, 0.0, 1.0);
    rng.fill_normal(k, 0.0, 1.0);
    rng.fill_normal(v, 0.0, 1.0);
    w.decode_q.push_back(std::move(q));
    w.decode_k.push_back(std::move(k));
    w.decode_v.push_back(std::move(v));
  }
  return w;
}

AttentionConfig test_attention_config() {
  AttentionConfig cfg;
  cfg.block_rows = 32;
  cfg.block_cols = 32;
  return cfg;
}

// Drive a method through the workload; returns max relative decode error
// vs the exact method.
double run_and_score(KvAttention& method, KvAttention& exact,
                     const Workload& w) {
  method.prefill(w.q, w.k, w.v);
  exact.prefill(w.q, w.k, w.v);
  double worst = 0.0;
  for (std::size_t t = 0; t < w.decode_q.size(); ++t) {
    const auto o = method.decode(w.decode_q[t], w.decode_k[t], w.decode_v[t]);
    const auto ref = exact.decode(w.decode_q[t], w.decode_k[t], w.decode_v[t]);
    worst = std::max(worst, relative_error(o, ref));
  }
  return worst;
}

TurboMethodConfig turbo_config() {
  TurboMethodConfig cfg;
  cfg.attention = test_attention_config();
  cfg.buffer_capacity = 16;
  return cfg;
}

KiviConfig kivi_config() {
  KiviConfig cfg;
  cfg.attention = test_attention_config();
  cfg.group = 16;
  cfg.residual = 16;
  return cfg;
}

GearConfig gear_config() {
  GearConfig cfg;
  cfg.attention = test_attention_config();
  cfg.chunk = 16;
  cfg.residual = 16;
  return cfg;
}

TEST(MethodIntegrationTest, AllMethodsTrackExactWithinBudget) {
  const std::size_t d = 32;
  const Workload w = make_workload(96, 24, d, 100);
  ExactAttention exact_a(d, test_attention_config());
  ExactAttention exact_b(d, test_attention_config());
  ExactAttention exact_c(d, test_attention_config());
  ExactAttention exact_d(d, test_attention_config());

  Fp16FlashAttention fp16(d, test_attention_config());
  EXPECT_LT(run_and_score(fp16, exact_a, w), 0.01);

  TurboKvAttention turbo(d, turbo_config());
  EXPECT_LT(run_and_score(turbo, exact_b, w), 0.25);

  KiviAttention kivi(d, kivi_config());
  EXPECT_LT(run_and_score(kivi, exact_c, w), 0.20);

  GearAttention gear(d, gear_config());
  EXPECT_LT(run_and_score(gear, exact_d, w), 0.20);
}

TEST(MethodIntegrationTest, MemoryOrdering) {
  const std::size_t d = 64;
  const Workload w = make_workload(256, 8, d, 200);

  ExactAttention exact(d, test_attention_config());
  Fp16FlashAttention fp16(d, test_attention_config());
  TurboKvAttention turbo4(d, turbo_config());
  TurboMethodConfig t2 = turbo_config();
  t2.kv_bits = BitWidth::kInt2;
  TurboKvAttention turbo2(d, t2);
  KiviAttention kivi(d, kivi_config());
  GearAttention gear(d, gear_config());

  for (KvAttention* m : std::initializer_list<KvAttention*>{
           &exact, &fp16, &turbo4, &turbo2, &kivi, &gear}) {
    m->prefill(w.q, w.k, w.v);
    for (std::size_t t = 0; t < w.decode_q.size(); ++t) {
      m->decode(w.decode_q[t], w.decode_k[t], w.decode_v[t]);
    }
    EXPECT_EQ(m->token_count(), 264u) << m->name();
  }

  // FP32 > FP16 > {KIVI, GEAR} > Turbo-4 > Turbo-2 (Turbo has no FP16
  // residual window, so it undercuts the float-residual baselines).
  EXPECT_GT(exact.kv_cache_bytes(), fp16.kv_cache_bytes());
  EXPECT_GT(fp16.kv_cache_bytes(), kivi.kv_cache_bytes());
  EXPECT_GT(fp16.kv_cache_bytes(), gear.kv_cache_bytes());
  EXPECT_GT(kivi.kv_cache_bytes(), turbo4.kv_cache_bytes());
  EXPECT_GT(turbo4.kv_cache_bytes(), turbo2.kv_cache_bytes());

  // Paper headline: >4.4x compression vs FP16 for Turbo.
  EXPECT_GT(static_cast<double>(fp16.kv_cache_bytes()) /
                static_cast<double>(turbo4.kv_cache_bytes()),
            3.3);
}

TEST(MethodIntegrationTest, TurboAblationsRun) {
  const std::size_t d = 16;
  const Workload w = make_workload(48, 8, d, 300);

  TurboMethodConfig flashq_only = turbo_config();
  flashq_only.use_sas = false;
  TurboMethodConfig sas_only = turbo_config();
  sas_only.use_flashq = false;

  ExactAttention exact_a(d, test_attention_config());
  ExactAttention exact_b(d, test_attention_config());
  TurboKvAttention fq(d, flashq_only);
  TurboKvAttention so(d, sas_only);
  EXPECT_LT(run_and_score(fq, exact_a, w), 0.25);
  // SAS-only is nearly exact (no quantization at all).
  EXPECT_LT(run_and_score(so, exact_b, w), 0.02);
}

TEST(MethodIntegrationTest, MixedFactoryAssignsPerHeadBits) {
  TurboMethodConfig cfg = turbo_config();
  auto factory = make_turbo_mixed_factory(
      cfg, {BitWidth::kInt2, BitWidth::kInt4});
  auto h0 = factory(16);
  auto h1 = factory(16);
  const MatrixF m = test::random_matrix(32, 16, 400);
  h0->prefill(m, m, m);
  h1->prefill(m, m, m);
  EXPECT_LT(h0->kv_cache_bytes(), h1->kv_cache_bytes());
  // The assignment cycles: heads 2 and 3 repeat the 2-bit / 4-bit pattern,
  // so per-case rebuilds of the head set get identical precision layouts.
  auto h2 = factory(16);
  auto h3 = factory(16);
  h2->prefill(m, m, m);
  h3->prefill(m, m, m);
  EXPECT_EQ(h2->kv_cache_bytes(), h0->kv_cache_bytes());
  EXPECT_EQ(h3->kv_cache_bytes(), h1->kv_cache_bytes());
  EXPECT_THROW(make_turbo_mixed_factory(cfg, {}), CheckError);
}

TEST(MethodIntegrationTest, PrefillTwiceThrows) {
  const std::size_t d = 16;
  const MatrixF m = test::random_matrix(16, d, 500);
  TurboKvAttention turbo(d, turbo_config());
  turbo.prefill(m, m, m);
  EXPECT_THROW(turbo.prefill(m, m, m), CheckError);
  Fp16FlashAttention fp16(d, test_attention_config());
  fp16.prefill(m, m, m);
  EXPECT_THROW(fp16.prefill(m, m, m), CheckError);
}

// --- Golden output digests ---------------------------------------------------
//
// One digest per method over the bits of every float it returns, plus its
// kv_cache_bytes() and token_count() after each call: a 200-token prefill,
// then 150 decode steps with one attend() each, at head dims 64 and 128.
// The tolerance tests above pass for any output close enough to exact; a
// refactor that must not move a single bit fails here. The pins hold in
// the Release, ASan+UBSan and TSan lanes. A deliberate numeric change
// re-records them and says why.

class OutputDigest {
 public:
  void mix(std::uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ull;  // FNV-1a
  }
  void mix(std::span<const float> xs) {
    for (const float x : xs) mix(std::bit_cast<std::uint32_t>(x));
  }
  void mix_cache(const KvAttention& m) {
    mix(m.kv_cache_bytes());
    mix(m.token_count());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t golden_digest(const KvAttentionFactory& factory) {
  OutputDigest h;
  for (const std::size_t d : {std::size_t{64}, std::size_t{128}}) {
    const Workload w = make_workload(200, 150, d, 700 + d);
    Rng rng(900 + d);
    std::vector<float> q(d);
    const std::unique_ptr<KvAttention> m = factory(d);
    h.mix(m->prefill(w.q, w.k, w.v).flat());
    h.mix_cache(*m);
    for (std::size_t t = 0; t < w.decode_q.size(); ++t) {
      h.mix(m->decode(w.decode_q[t], w.decode_k[t], w.decode_v[t]));
      h.mix_cache(*m);
      rng.fill_normal(q, 0.0, 1.0);
      h.mix(m->attend(q));
      h.mix_cache(*m);
    }
  }
  return h.value();
}

KiviConfig golden_kivi(BitWidth bits) {
  KiviConfig cfg;
  cfg.bits = bits;
  cfg.group = 32;
  cfg.residual = 32;
  return cfg;
}

GearConfig golden_gear(BitWidth bits) {
  GearConfig cfg;
  cfg.bits = bits;
  cfg.chunk = 32;
  cfg.residual = 32;
  return cfg;
}

TEST(MethodGoldenTest, Fp16) {
  EXPECT_EQ(golden_digest(make_fp16_factory(AttentionConfig{})),
            0x22aae69d238c832eull);
}

TEST(MethodGoldenTest, Fp16Window100) {
  AttentionConfig cfg;
  cfg.window = 100;
  EXPECT_EQ(golden_digest(make_fp16_factory(cfg)), 0xf7aeae666276c79aull);
}

TEST(MethodGoldenTest, KiviInt2) {
  EXPECT_EQ(golden_digest(make_kivi_factory(golden_kivi(BitWidth::kInt2))),
            0x7d0a1fbd06ee2f08ull);
}

TEST(MethodGoldenTest, KiviInt4) {
  EXPECT_EQ(golden_digest(make_kivi_factory(golden_kivi(BitWidth::kInt4))),
            0xf12e655947403d7bull);
}

TEST(MethodGoldenTest, GearInt2) {
  EXPECT_EQ(golden_digest(make_gear_factory(golden_gear(BitWidth::kInt2))),
            0xcba0c756a250ca42ull);
}

TEST(MethodGoldenTest, GearInt4) {
  EXPECT_EQ(golden_digest(make_gear_factory(golden_gear(BitWidth::kInt4))),
            0xab62d099a660980bull);
}

TEST(MethodGoldenTest, Turbo) {
  EXPECT_EQ(golden_digest(make_turbo_factory(TurboMethodConfig{})),
            0x315e40bb9e54962full);
}

// Table 4's "SAS only" row: FP16 matmuls and cache, SAS exponential.
TEST(MethodGoldenTest, TurboSasOnly) {
  TurboMethodConfig cfg;
  cfg.use_flashq = false;
  EXPECT_EQ(golden_digest(make_turbo_factory(cfg)), 0x9210becc801cb5d7ull);
}

// Table 4's "FlashQ only" row: the quantized cache with exact exp.
TEST(MethodGoldenTest, TurboFlashqOnly) {
  TurboMethodConfig cfg;
  cfg.use_sas = false;
  EXPECT_EQ(golden_digest(make_turbo_factory(cfg)), 0x53922b0bbbad34edull);
}

}  // namespace
}  // namespace turbo
