#include <gtest/gtest.h>

#include "attention/turbo_method.h"
#include "baselines/fp16_method.h"
#include "model/profile.h"
#include "tasks/codebook.h"
#include "tasks/retrieval.h"

namespace turbo::tasks {
namespace {

TEST(CodebookTest, EmbeddingsAreUnit) {
  Codebook cb(16, 32, 1);
  for (std::size_t s = 0; s < cb.size(); ++s) {
    double norm = 0.0;
    for (float v : cb.embedding(s)) norm += v * v;
    EXPECT_NEAR(norm, 1.0, 1e-5);
  }
}

TEST(CodebookTest, ScaledDistance) {
  Codebook cb(4, 8, 5);
  std::vector<float> scale(8, 2.0f);
  std::vector<float> v(8);
  for (std::size_t c = 0; c < 8; ++c) v[c] = cb.embedding(1)[c] * 2.0f;
  EXPECT_NEAR(cb.distance_sq(v, 1, scale), 0.0, 1e-6);
  EXPECT_GT(cb.distance_sq(v, 0, scale), 0.5);
}

RetrievalConfig tiny_task(std::size_t hops) {
  RetrievalConfig c;
  c.profile = model::llama3_8b_profile();
  c.profile.heads = 4;  // keep CPU cost down
  c.n_pairs = 12;
  c.hard_negatives = 2;
  c.negative_similarity = 0.75;
  c.hops = hops;
  c.filler_per_hop = 4;
  c.n_cases = 10;
  c.seed = 99;
  return c;
}

TEST(RetrievalTest, ExactMethodSolvesEasyTask) {
  const RetrievalConfig cfg = tiny_task(1);
  const TaskResult r = run_retrieval(cfg, make_exact_factory({}));
  EXPECT_GE(r.accuracy, 0.9);
  EXPECT_EQ(r.cases, 10u);
}

TEST(RetrievalTest, Fp16CloseToExact) {
  const RetrievalConfig cfg = tiny_task(2);
  const TaskResult exact = run_retrieval(cfg, make_exact_factory({}));
  const TaskResult fp16 = run_retrieval(cfg, make_fp16_factory({}));
  EXPECT_NEAR(fp16.accuracy, exact.accuracy, 0.15);
}

TEST(RetrievalTest, DeterministicAcrossRuns) {
  const RetrievalConfig cfg = tiny_task(2);
  const TaskResult a = run_retrieval(cfg, make_fp16_factory({}));
  const TaskResult b = run_retrieval(cfg, make_fp16_factory({}));
  EXPECT_EQ(a.accuracy, b.accuracy);
}

TEST(RetrievalTest, Int2WorseThanInt4) {
  RetrievalConfig cfg = tiny_task(2);
  cfg.n_cases = 16;
  TurboMethodConfig t4;
  TurboMethodConfig t2;
  t2.kv_bits = BitWidth::kInt2;
  const TaskResult r4 = run_retrieval(cfg, make_turbo_factory(t4));
  const TaskResult r2 = run_retrieval(cfg, make_turbo_factory(t2));
  EXPECT_LE(r2.accuracy, r4.accuracy + 1e-9);
  EXPECT_LT(r2.kv_bytes_per_token, r4.kv_bytes_per_token);
}

TEST(RetrievalTest, KvBytesReported) {
  const RetrievalConfig cfg = tiny_task(1);
  const TaskResult fp16 = run_retrieval(cfg, make_fp16_factory({}));
  // 2 tensors x head_dim x 2 bytes.
  EXPECT_NEAR(fp16.kv_bytes_per_token, 2.0 * 32 * 2, 1.0);
}

TEST(RetrievalTest, HeadStatsMatchProfileStructure) {
  RetrievalConfig cfg = tiny_task(1);
  cfg.profile = model::phi3_mini_profile();
  const auto stats = retrieval_head_stats(cfg);
  ASSERT_EQ(stats.size(), cfg.profile.heads);
  EXPECT_GT(stats.back().priority(), stats.front().priority());
}

TEST(RetrievalTest, ProxyPresetsConfigured) {
  const auto gsm = gsm8k_proxy(model::llama3_8b_profile());
  const auto aqua = aqua_proxy(model::llama3_8b_profile());
  const auto bbh = bbh_proxy(model::llama3_8b_profile());
  EXPECT_GT(gsm.hops, aqua.hops);
  EXPECT_EQ(bbh.hops, 1u);
  EXPECT_GT(bbh.hard_negatives, gsm.hard_negatives);
  EXPECT_NE(gsm.name, aqua.name);
}

TEST(RetrievalTest, MoreHopsHarder) {
  RetrievalConfig easy = tiny_task(1);
  RetrievalConfig hard = tiny_task(4);
  easy.query_noise = 0.3;  // make single hops fallible so compounding shows
  hard.query_noise = 0.3;
  easy.n_cases = 20;
  hard.n_cases = 20;
  const TaskResult e = run_retrieval(easy, make_fp16_factory({}));
  const TaskResult h = run_retrieval(hard, make_fp16_factory({}));
  EXPECT_LE(h.accuracy, e.accuracy + 0.1);
}

}  // namespace
}  // namespace turbo::tasks
