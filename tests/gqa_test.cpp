// Grouped-query attention: the attend() contract.
#include <gtest/gtest.h>

#include "attention/turbo_method.h"
#include "baselines/fp16_method.h"
#include "baselines/gear.h"
#include "baselines/kivi.h"
#include "tests/test_util.h"

namespace turbo {
namespace {

// attend(q) must return exactly what decode(q, k, v) would have returned
// on an identical cache state — i.e. decoding is append + attend.
template <typename Method, typename Config>
void check_attend_contract(Config config) {
  const std::size_t d = 16;
  const MatrixF prompt_q = test::random_matrix(48, d, 1);
  const MatrixF prompt_k = test::random_matrix(48, d, 2);
  const MatrixF prompt_v = test::random_matrix(48, d, 3);

  Method a(d, config);
  Method b(d, config);
  a.prefill(prompt_q, prompt_k, prompt_v);
  b.prefill(prompt_q, prompt_k, prompt_v);

  Rng rng(4);
  for (int t = 0; t < 12; ++t) {
    std::vector<float> q(d);
    std::vector<float> k(d);
    std::vector<float> v(d);
    rng.fill_normal(q, 0.0, 1.0);
    rng.fill_normal(k, 0.0, 1.0);
    rng.fill_normal(v, 0.0, 1.0);
    const auto via_decode = a.decode(q, k, v);
    b.decode(q, k, v);  // same append
    const auto via_attend = b.attend(q);
    ASSERT_EQ(via_decode, via_attend) << "step " << t;
    // attend() must not change cache state.
    ASSERT_EQ(a.token_count(), b.token_count());
    ASSERT_EQ(a.kv_cache_bytes(), b.kv_cache_bytes());
  }
}

TEST(GqaTest, AttendContractFp16) {
  check_attend_contract<Fp16FlashAttention>(AttentionConfig{});
}

TEST(GqaTest, AttendContractExact) {
  check_attend_contract<ExactAttention>(AttentionConfig{});
}

TEST(GqaTest, AttendContractTurbo) {
  TurboMethodConfig cfg;
  cfg.buffer_capacity = 16;
  check_attend_contract<TurboKvAttention>(cfg);
}

TEST(GqaTest, AttendContractTurboSasOnly) {
  TurboMethodConfig cfg;
  cfg.use_flashq = false;
  check_attend_contract<TurboKvAttention>(cfg);
}

TEST(GqaTest, AttendContractKivi) {
  KiviConfig cfg;
  cfg.group = 16;
  cfg.residual = 16;
  check_attend_contract<KiviAttention>(cfg);
}

TEST(GqaTest, AttendContractGear) {
  GearConfig cfg;
  cfg.chunk = 16;
  cfg.residual = 16;
  check_attend_contract<GearAttention>(cfg);
}

}  // namespace
}  // namespace turbo
