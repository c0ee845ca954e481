// Deterministic fault-injection suite (ctest label: fault).
//
// Drives the robustness contract end to end (docs/ROBUSTNESS.md):
//  - under injected page-allocation failures, swap-stream corruption and
//    PCIe latency spikes, the serving engine still terminates with every
//    request either completed or explicitly rejected — no hang, no silent
//    loss;
//  - corrupted swap-ins are detected by checksum and recovered by
//    recomputation;
//  - identical fault seeds give bit-identical results (the suite runs
//    under both Release and ASan+UBSan in CI, so this is a cross-build
//    determinism check, not just a same-process one);
//  - the real byte-level swap path (PagedKvCache -> serialize -> a
//    one-tier TieredSwapStore -> deserialize/adopt) survives corruption
//    with all-or-nothing semantics. Its round trip and out-of-pages retry
//    are TieredSwapPathTest cases (tiered_swap_test.cpp).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "common/rng.h"
#include "kvcache/page_allocator.h"
#include "kvcache/paged_cache.h"
#include "kvcache/serialization.h"
#include "serving/engine.h"
#include "serving/metrics.h"
#include "serving/swap.h"
#include "serving/trace.h"

namespace turbo {
namespace {

// ---- Bit-exact digest over an engine result ------------------------------

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t digest(const serving::EngineResult& r) {
  std::uint64_t h = 0;
  auto mix_d = [&](double d) {
    h = mix(h, std::bit_cast<std::uint64_t>(d));
  };
  for (const serving::Request& q : r.requests) {
    mix_d(q.prefill_start_s);
    mix_d(q.first_token_s);
    mix_d(q.finish_s);
    h = mix(h, q.generated);
    h = mix(h, q.preemptions);
    h = mix(h, q.recomputed_tokens);
  }
  mix_d(r.makespan_s);
  mix_d(r.busy_s);
  mix_d(r.swap_out_bytes);
  mix_d(r.swap_in_bytes);
  mix_d(r.swap_stall_s);
  h = mix(h, r.preemptions);
  h = mix(h, r.swap_ins);
  h = mix(h, r.checksum_failures);
  h = mix(h, r.recoveries);
  h = mix(h, r.degraded_steps);
  h = mix(h, r.injected_alloc_failures);
  h = mix(h, r.recomputed_tokens);
  h = mix(h, r.timed_out);
  h = mix(h, r.shed);
  h = mix(h, static_cast<std::uint64_t>(r.hit_time_limit));
  mix_d(r.tier_retry_stall_s);
  h = mix(h, r.tier_demotions);
  h = mix(h, r.tier_promotions);
  h = mix(h, r.tier_failovers);
  h = mix(h, r.tier_blacklists);
  h = mix(h, r.tier_fetch_retries);
  h = mix(h, r.swap_unavailable_recomputes);
  h = mix(h, r.swap_overflow_recomputes);
  return h;
}

// A trace and engine sized so KV pressure is real: Phi3-mini on a 40 GB
// card with low headroom leaves a page pool far smaller than the trace's
// aggregate working set, so preemption must carry the overload.
std::vector<serving::Request> overload_trace() {
  serving::TraceConfig t;
  t.arrival_rate = 24.0;
  t.duration_s = 15.0;
  t.prompt_log_mean = 5.5;  // median ~245 tokens
  t.prompt_log_std = 0.5;
  t.gen_log_mean = 5.5;     // long generations grow the KV during decode
  t.gen_log_std = 0.5;
  t.seed = 11;
  return serving::generate_trace(t);
}

serving::EngineConfig pressured_engine(std::uint64_t fault_seed) {
  serving::EngineConfig c;
  c.device = sim::a100_pcie_40gb();
  c.geometry = sim::phi3_mini_geometry();
  c.method = sim::AttnMethod::kTurbo;
  c.attention.kv_bits = 3.0;
  c.memory_headroom = 0.25;  // ~2.4 GB of KV: forces heavy preemption
  c.faults.seed = fault_seed;
  c.faults.page_alloc_failure_prob = 0.05;
  c.faults.stream_corruption_prob = 0.05;
  c.faults.swap_spike_prob = 0.05;
  return c;
}

void expect_full_accounting(const serving::EngineResult& r,
                            std::size_t trace_size) {
  EXPECT_FALSE(r.hit_time_limit);
  const serving::ServingMetrics m = serving::summarize(r);
  EXPECT_EQ(m.completed + m.rejected, trace_size);
  for (const serving::Request& q : r.requests) {
    ASSERT_TRUE(q.finished());
    if (q.started()) {
      EXPECT_EQ(q.generated, q.max_new_tokens);
      EXPECT_GE(q.first_token_s, q.arrival_s);
      EXPECT_GE(q.finish_s, q.first_token_s);
    } else {
      EXPECT_EQ(q.generated, 0u);  // rejected, and explicitly so
    }
  }
}

TEST(FaultMatrixTest, EngineSurvivesFaultsAcrossSeeds) {
  const auto trace = overload_trace();
  bool saw_checksum_failure = false;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    const serving::EngineResult r =
        run_engine(pressured_engine(seed), trace);
    expect_full_accounting(r, trace.size());
    // The plan must have actually been exercised.
    EXPECT_GT(r.preemptions, 0u);
    EXPECT_GT(r.preempted_swap, 0u);
    EXPECT_GT(r.swap_ins, 0u);
    EXPECT_GT(r.injected_alloc_failures, 0u);
    EXPECT_GT(r.degraded_steps, 0u);
    EXPECT_GT(r.swap_out_bytes, 0.0);
    EXPECT_GT(r.swap_stall_s, 0.0);
    // Every detected corruption was recovered, never dropped.
    EXPECT_EQ(r.checksum_failures, r.recoveries);
    saw_checksum_failure |= r.checksum_failures > 0;
  }
  EXPECT_TRUE(saw_checksum_failure);
}

TEST(FaultMatrixTest, IdenticalSeedsBitIdenticalResults) {
  const auto trace = overload_trace();
  const serving::EngineConfig cfg = pressured_engine(2);
  const serving::EngineResult a = run_engine(cfg, trace);
  const serving::EngineResult b = run_engine(cfg, trace);
  EXPECT_EQ(digest(a), digest(b));
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.checksum_failures, b.checksum_failures);
}

TEST(FaultMatrixTest, ChunkedPrefillBitIdenticalUnderFaults) {
  // Chunked prefill interacts with every pressure path (mid-prompt
  // eviction, partial-page allocation, swap of partially-prefilled KV);
  // the result must stay bit-reproducible per seed, and the chunk size
  // must actually change the schedule.
  const auto trace = overload_trace();
  serving::EngineConfig cfg = pressured_engine(3);
  cfg.prefill_chunk_tokens = 128;
  const serving::EngineResult a = run_engine(cfg, trace);
  const serving::EngineResult b = run_engine(cfg, trace);
  EXPECT_EQ(digest(a), digest(b));
  expect_full_accounting(a, trace.size());

  serving::EngineConfig monolithic = pressured_engine(3);
  monolithic.prefill_chunk_tokens = 0;
  const serving::EngineResult c = run_engine(monolithic, trace);
  expect_full_accounting(c, trace.size());
  EXPECT_NE(digest(a), digest(c));
}

TEST(FaultMatrixTest, DifferentSeedsDifferentFaultStreams) {
  const auto trace = overload_trace();
  const serving::EngineResult a = run_engine(pressured_engine(1), trace);
  const serving::EngineResult b = run_engine(pressured_engine(2), trace);
  EXPECT_NE(digest(a), digest(b));
}

TEST(FaultMatrixTest, BackoffJitterDeterministicAndSeedSensitive) {
  // Re-admission jitter is keyed by (jitter_seed, request id, eviction
  // count), never by a shared RNG stream: same seed must be bit-identical
  // run to run, a different seed must change the schedule, and disabling
  // jitter must be its own (deterministic) schedule. None of this may
  // touch the fault stream's determinism.
  const auto trace = overload_trace();
  const serving::EngineConfig base = pressured_engine(2);
  const serving::EngineResult a = run_engine(base, trace);
  const serving::EngineResult b = run_engine(base, trace);
  EXPECT_EQ(digest(a), digest(b));

  serving::EngineConfig reseeded = pressured_engine(2);
  reseeded.jitter_seed = 0xFEED;
  const serving::EngineResult c = run_engine(reseeded, trace);
  const serving::EngineResult d = run_engine(reseeded, trace);
  EXPECT_EQ(digest(c), digest(d));
  ASSERT_GT(a.preemptions, 0u);  // jitter can only matter under eviction
  EXPECT_NE(digest(a), digest(c));

  serving::EngineConfig no_jitter = pressured_engine(2);
  no_jitter.backoff_jitter = 0.0;
  const serving::EngineResult e = run_engine(no_jitter, trace);
  const serving::EngineResult f = run_engine(no_jitter, trace);
  EXPECT_EQ(digest(e), digest(f));
  EXPECT_NE(digest(a), digest(e));
  expect_full_accounting(e, trace.size());
}

TEST(FaultMatrixTest, ZeroProbabilityPlanIsInert) {
  // A plan with a seed but all-zero probabilities must behave exactly
  // like no plan at all (probes consume no randomness).
  const auto trace = overload_trace();
  serving::EngineConfig with_seed = pressured_engine(5);
  with_seed.faults = FaultPlan{};
  with_seed.faults.seed = 5;
  serving::EngineConfig no_plan = pressured_engine(5);
  no_plan.faults = FaultPlan{};
  const serving::EngineResult a = run_engine(with_seed, trace);
  const serving::EngineResult b = run_engine(no_plan, trace);
  EXPECT_EQ(digest(a), digest(b));
  EXPECT_EQ(a.injected_alloc_failures, 0u);
  EXPECT_EQ(a.checksum_failures, 0u);
}

TEST(FaultMatrixTest, TierFaultSeedsBitIdentical) {
  // Per-tier faults (unavailability, media corruption, latency spikes)
  // ride the same deterministic Bernoulli stream as every other fault:
  // a seeded plan must replay bit-identically, and the digest — which
  // folds in every tier counter — must agree across build flavors (this
  // test runs under both the Release and ASan+UBSan CI matrices).
  const auto trace = overload_trace();
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("tier fault seed " + std::to_string(seed));
    serving::EngineConfig cfg = pressured_engine(seed);
    cfg.swap.host_capacity_bytes = 64ull << 20;  // keep the disk tier hot
    for (std::size_t t = 0; t < 2; ++t) {
      cfg.faults.tiers[t].unavailable_prob = 0.05;
      cfg.faults.tiers[t].corruption_prob = 0.02;
      cfg.faults.tiers[t].spike_prob = 0.05;
    }
    const serving::EngineResult a = run_engine(cfg, trace);
    const serving::EngineResult b = run_engine(cfg, trace);
    EXPECT_EQ(digest(a), digest(b));
    expect_full_accounting(a, trace.size());
    EXPECT_EQ(a.checksum_failures, a.recoveries);
  }
}

TEST(FaultMatrixTest, AllTiersDeadRecomputeStorm) {
  // Both tiers permanently unavailable: every swap-out attempt is
  // refused and every victim must fall back to recompute. The engine
  // must absorb the storm — full accounting, no swap traffic, nothing
  // parked — and stay bit-reproducible.
  const auto trace = overload_trace();
  serving::EngineConfig cfg = pressured_engine(7);
  cfg.faults.tiers[0].unavailable_prob = 1.0;
  cfg.faults.tiers[1].unavailable_prob = 1.0;
  const serving::EngineResult r = run_engine(cfg, trace);
  expect_full_accounting(r, trace.size());
  EXPECT_GT(r.preemptions, 0u);
  EXPECT_GT(r.swap_overflow_recomputes, 0u);  // refused stores recomputed
  EXPECT_EQ(r.swap_ins, 0u);                  // nothing ever parked...
  EXPECT_EQ(r.swap_out_bytes, 0.0);           // ...so no bytes moved
  EXPECT_EQ(r.swap_in_bytes, 0.0);
  EXPECT_GT(r.tier_blacklists, 0u);  // the health tracker saw the storm
  const serving::EngineResult again = run_engine(cfg, trace);
  EXPECT_EQ(digest(r), digest(again));
}

// ---- PageAllocator injection ---------------------------------------------

TEST(FaultInjectionTest, PageAllocatorInjectedFailuresAreDeterministic) {
  FaultPlan plan;
  plan.seed = 42;
  plan.page_alloc_failure_prob = 0.3;
  std::vector<bool> first_run;
  for (int run = 0; run < 2; ++run) {
    FaultInjector injector(plan);
    PageAllocator alloc(256);
    alloc.set_fault_injector(&injector);
    std::vector<bool> outcomes;
    std::size_t failures = 0;
    for (int i = 0; i < 128; ++i) {
      const bool ok = alloc.allocate() != kInvalidPage;
      outcomes.push_back(ok);
      if (!ok) ++failures;
    }
    EXPECT_EQ(failures, alloc.injected_failures());
    EXPECT_EQ(failures, injector.injected_alloc_failures());
    EXPECT_GT(failures, 0u);
    EXPECT_LT(failures, 128u);
    if (run == 0) {
      first_run = outcomes;
    } else {
      EXPECT_EQ(outcomes, first_run);
    }
  }
}

// ---- Real byte-level swap path -------------------------------------------

constexpr std::size_t kDim = 16;
constexpr std::size_t kPageTokens = 8;

std::vector<float> random_vec(Rng& rng) {
  std::vector<float> v(kDim);
  rng.fill_normal(v, 0.0, 1.0);
  return v;
}

PagedKvCache::SeqId fill_sequence(PagedKvCache& cache, std::size_t tokens,
                                  std::uint64_t seed) {
  const auto seq = cache.create_sequence();
  Rng rng(seed);
  for (std::size_t t = 0; t < tokens; ++t) {
    const auto k = random_vec(rng);
    const auto v = random_vec(rng);
    TURBO_CHECK(cache.append_token(seq, k, v));
  }
  return seq;
}

// A host-only store: one unbounded tier.
serving::TieredSwapStore host_store() {
  return serving::TieredSwapStore({serving::SwapTier{"host", 0, 100.0}});
}

TEST(SwapStoreTest, SwapOutOfForkLeavesParentIntact) {
  // Shared (refcounted) pages are serialized by value; swapping the fork
  // out and back must neither disturb the parent nor share pages with it
  // afterwards.
  PagedKvCache cache(kDim, BitWidth::kInt4, kPageTokens, 32);
  const auto parent = fill_sequence(cache, kPageTokens * 2 + 2, 13);
  const auto fork = cache.fork_sequence(parent);
  EXPECT_EQ(cache.shared_pages(), 2u);
  const std::size_t parent_tokens = cache.token_count(parent);
  const std::size_t fork_tokens = cache.token_count(fork);

  serving::TieredSwapStore store = host_store();
  EXPECT_GT(serving::swap_out(cache, fork, 1, store, 1, 0.0, nullptr), 0u);
  EXPECT_EQ(cache.shared_pages(), 0u);
  EXPECT_EQ(cache.token_count(parent), parent_tokens);

  const auto in = serving::swap_in(cache, 1, store, 2, 0.0, nullptr);
  ASSERT_EQ(in.status, serving::SwapInStatus::kOk);
  EXPECT_EQ(cache.token_count(in.seq), fork_tokens);
  EXPECT_EQ(cache.shared_pages(), 0u);  // restored pages are private
  EXPECT_EQ(cache.token_count(parent), parent_tokens);
}

TEST(SwapStoreTest, CorruptedStreamDetectedAndDropped) {
  PagedKvCache cache(kDim, BitWidth::kInt4, kPageTokens, 32);
  const auto seq = fill_sequence(cache, kPageTokens * 3, 21);
  serving::TieredSwapStore store = host_store();
  const std::size_t bytes =
      serving::swap_out(cache, seq, 5, store, 1, 0.0, nullptr);

  ASSERT_NE(store.stream_of(5), nullptr);
  std::vector<std::uint8_t> stream = *store.stream_of(5);
  stream[bytes / 2] ^= 0x10;  // flip one payload bit in the parked copy
  ASSERT_TRUE(store.store(5, std::move(stream), 2, 0.0, nullptr).stored);

  const std::size_t used_before = cache.used_pages();
  const auto in = serving::swap_in(cache, 5, store, 3, 0.0, nullptr);
  EXPECT_EQ(in.status, serving::SwapInStatus::kChecksumMismatch);
  EXPECT_FALSE(store.contains(5));             // corrupt stream is dropped
  EXPECT_EQ(cache.used_pages(), used_before);  // nothing adopted
}

TEST(SwapStoreTest, InjectedCorruptionTriggersChecksumPath) {
  PagedKvCache cache(kDim, BitWidth::kInt4, kPageTokens, 32);
  const auto seq = fill_sequence(cache, kPageTokens * 2, 33);
  serving::TieredSwapStore store = host_store();
  serving::swap_out(cache, seq, 8, store, 1, 0.0, nullptr);

  // Stream corruption on the deserialize path, not the tier's media.
  FaultPlan plan;
  plan.seed = 3;
  plan.stream_corruption_prob = 1.0;  // always corrupt
  FaultInjector injector(plan);
  const auto in = serving::swap_in(cache, 8, store, 2, 0.0, &injector);
  EXPECT_EQ(in.status, serving::SwapInStatus::kChecksumMismatch);
  EXPECT_EQ(injector.injected_corruptions(), 1u);
  EXPECT_EQ(injector.injected_tier_corruptions(), 0u);
  EXPECT_FALSE(store.contains(8));
}

TEST(SwapStoreTest, MissingKeyReported) {
  PagedKvCache cache(kDim, BitWidth::kInt4, kPageTokens, 4);
  serving::TieredSwapStore store = host_store();
  EXPECT_EQ(serving::swap_in(cache, 99, store, 1, 0.0, nullptr).status,
            serving::SwapInStatus::kMissing);
}

}  // namespace
}  // namespace turbo
