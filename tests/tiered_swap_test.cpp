// Tiered swap store suite (ctest label: tier).
//
// Covers the multi-tier KV swap hierarchy (serving/swap.h) at three
// levels:
//  - store mechanics: placement fastest-first, same-key overwrite byte
//    accounting, LRU demotion under capacity pressure, promotion, and
//    conservation of stored bytes across demote/promote round trips;
//  - fault tolerance: per-tier unavailability (probabilistic and
//    deterministic outage windows), retry/backoff budgets,
//    consecutive-failure blacklisting with probing re-admission after
//    cooloff, and failover to slower tiers;
//  - the engine contract: with a tier forced unavailable mid-run the
//    engine still terminally resolves every request (failover, then
//    recompute), never hangs, and never leaks parked streams (the
//    engine asserts store emptiness at exit).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "common/rng.h"
#include "kvcache/paged_cache.h"
#include "kvcache/serialization.h"
#include "serving/engine.h"
#include "serving/metrics.h"
#include "serving/swap.h"
#include "serving/trace.h"

namespace turbo {
namespace {

using serving::SwapTier;
using serving::TieredSwapStore;
using serving::TierHealthPolicy;
using FetchStatus = TieredSwapStore::FetchStatus;

// Two-tier store with explicit capacities/bandwidths (0 = unbounded).
TieredSwapStore make_store(std::size_t host_cap, std::size_t disk_cap,
                           TierHealthPolicy health = {}) {
  return TieredSwapStore(
      {SwapTier{"host", host_cap, 100.0}, SwapTier{"disk", disk_cap, 10.0}},
      health);
}

std::vector<std::uint8_t> bytes_of(std::size_t n, std::uint8_t fill) {
  return std::vector<std::uint8_t>(n, fill);
}

// ---- Placement and byte accounting ---------------------------------------

TEST(TieredStoreTest, StoreLandsInFastestTier) {
  TieredSwapStore store = make_store(0, 0);
  const auto out = store.store(1, bytes_of(100, 0xAB), 1, 0.0, nullptr);
  ASSERT_TRUE(out.stored);
  EXPECT_EQ(out.tier, 0u);
  EXPECT_EQ(out.demotions, 0u);
  EXPECT_DOUBLE_EQ(out.transfer_s, 100.0 / 100.0);  // host bandwidth
  EXPECT_EQ(store.tier_of(1), std::size_t{0});
  EXPECT_EQ(store.tier_stored_bytes(0), 100u);
  EXPECT_EQ(store.tier_stored_bytes(1), 0u);
  EXPECT_EQ(store.counters(0).stores, 1u);
}

TEST(TieredStoreTest, EmptyStoreHasZeroBytes) {
  TieredSwapStore store = make_store(0, 0);
  EXPECT_EQ(store.stored_bytes(), 0u);
  EXPECT_EQ(store.count(), 0u);
  EXPECT_FALSE(store.tier_of(7).has_value());
}

TEST(TieredStoreTest, SameKeyOverwriteConservesBytes) {
  TieredSwapStore store = make_store(0, 0);
  store.store(1, bytes_of(100, 0x01), 1, 0.0, nullptr);
  store.store(1, bytes_of(40, 0x02), 2, 0.0, nullptr);
  EXPECT_EQ(store.count(), 1u);
  EXPECT_EQ(store.stored_bytes(), 40u);
  ASSERT_NE(store.stream_of(1), nullptr);
  EXPECT_EQ((*store.stream_of(1))[0], 0x02);
}

TEST(TieredStoreTest, FetchOfMissingKeyIsFreeAndDrawless) {
  TieredSwapStore store = make_store(0, 0);
  FaultPlan plan;
  plan.seed = 7;
  plan.tiers[0].unavailable_prob = 1.0;  // would fire on any probe
  FaultInjector injector(plan);
  const auto out = store.fetch(42, 1, 0.0, &injector);
  EXPECT_EQ(out.status, FetchStatus::kMissing);
  EXPECT_EQ(out.retries, 0u);
  EXPECT_EQ(out.failovers, 0u);
  EXPECT_DOUBLE_EQ(out.stall_s, 0.0);
  // Short-circuited before any tier probe: nothing was injected.
  EXPECT_EQ(injector.injected_tier_unavailable(), 0u);
}

TEST(TieredStoreTest, FetchIsNonConsuming) {
  TieredSwapStore store = make_store(0, 0);
  store.store(3, bytes_of(64, 0x33), 1, 0.0, nullptr);
  const auto first = store.fetch(3, 2, 0.0, nullptr);
  EXPECT_EQ(first.status, FetchStatus::kHit);
  EXPECT_TRUE(store.contains(3));  // caller erases after adoption
  const auto second = store.fetch(3, 3, 0.0, nullptr);
  EXPECT_EQ(second.status, FetchStatus::kHit);
  EXPECT_TRUE(store.erase(3));
  EXPECT_EQ(store.fetch(3, 4, 0.0, nullptr).status, FetchStatus::kMissing);
}

TEST(TieredStoreTest, CapacityPressureDemotesLruToDisk) {
  TieredSwapStore store = make_store(200, 0);  // host fits two entries
  store.store(1, bytes_of(100, 0x01), 1, 0.0, nullptr);
  store.store(2, bytes_of(100, 0x02), 2, 0.0, nullptr);
  // Touch key 1 so key 2 becomes the LRU victim.
  store.fetch(1, 3, 0.0, nullptr);
  const auto out = store.store(3, bytes_of(100, 0x03), 4, 0.0, nullptr);
  ASSERT_TRUE(out.stored);
  EXPECT_EQ(out.tier, 0u);
  EXPECT_EQ(out.demotions, 1u);
  EXPECT_EQ(store.tier_of(1), std::size_t{0});
  EXPECT_EQ(store.tier_of(2), std::size_t{1});  // cold entry demoted
  EXPECT_EQ(store.tier_of(3), std::size_t{0});
  EXPECT_EQ(store.counters(1).demotions_in, 1u);
  // Conservation: every byte is still resident somewhere.
  EXPECT_EQ(store.stored_bytes(), 300u);
  EXPECT_EQ(store.tier_stored_bytes(0), 200u);
  EXPECT_EQ(store.tier_stored_bytes(1), 100u);
  // The demotion was charged at the destination (disk) bandwidth on top
  // of the store's own host-speed transfer.
  EXPECT_DOUBLE_EQ(out.transfer_s, 100.0 / 10.0 + 100.0 / 100.0);
}

// Regression (turbo_lint rule `nondeterministic-iteration`): the LRU
// victim scan iterates an unordered_map, so an equal-last-touch tie must
// be broken by stream id, not by whatever order the stdlib's hash layout
// happens to enumerate — demotion order is part of the bit-identical
// seeded-run contract. Two equal-touch streams, room for exactly one on
// disk: the smaller stream id must be the one demoted, regardless of
// insertion order.
TEST(TieredStoreTest, EqualTouchDemotionTieBreaksByStreamId) {
  for (const bool reversed : {false, true}) {
    TieredSwapStore store = make_store(200, 100);  // disk fits one entry
    const std::uint64_t first = reversed ? 7 : 3;
    const std::uint64_t second = reversed ? 3 : 7;
    store.store(first, bytes_of(100, 0x01), 1, 0.0, nullptr);
    store.store(second, bytes_of(100, 0x02), 1, 0.0, nullptr);
    // Needs the whole host tier: demotion frees one slot (stream 3, the
    // smaller id), then stalls — stream 7 cannot fit on the full disk.
    const auto out = store.store(9, bytes_of(200, 0x03), 2, 0.0, nullptr);
    EXPECT_FALSE(out.stored) << "reversed=" << reversed;
    EXPECT_EQ(out.demotions, 1u) << "reversed=" << reversed;
    EXPECT_EQ(store.tier_of(3), std::size_t{1}) << "reversed=" << reversed;
    EXPECT_EQ(store.tier_of(7), std::size_t{0}) << "reversed=" << reversed;
  }
}

TEST(TieredStoreTest, DemotePromoteRoundTripConservesBytes) {
  TieredSwapStore store = make_store(200, 0);
  store.store(1, bytes_of(100, 0x01), 1, 0.0, nullptr);
  store.store(2, bytes_of(100, 0x02), 2, 0.0, nullptr);
  store.store(3, bytes_of(100, 0x03), 3, 0.0, nullptr);  // demotes key 1
  EXPECT_EQ(store.tier_of(1), std::size_t{1});
  // Host is full: promotion must refuse rather than demote someone else.
  double transfer = 0.0;
  EXPECT_FALSE(store.promote(1, 4, 0.0, nullptr, &transfer));
  EXPECT_DOUBLE_EQ(transfer, 0.0);
  // Free a host slot; now the promotion goes through, charged at the
  // source (disk) bandwidth, and every byte stays accounted.
  EXPECT_TRUE(store.erase(2));
  EXPECT_TRUE(store.promote(1, 5, 0.0, nullptr, &transfer));
  EXPECT_DOUBLE_EQ(transfer, 100.0 / 10.0);
  EXPECT_EQ(store.tier_of(1), std::size_t{0});
  EXPECT_EQ(store.counters(1).promotions_out, 1u);
  EXPECT_EQ(store.stored_bytes(), 200u);
  EXPECT_EQ(store.tier_stored_bytes(1), 0u);
  // Promoting an entry already in tier 0 is a free no-op.
  EXPECT_FALSE(store.promote(1, 6, 0.0, nullptr, &transfer));
}

TEST(TieredStoreTest, OverflowRefusedWhenNoTierFits) {
  TieredSwapStore store = make_store(50, 100);
  const auto out = store.store(1, bytes_of(150, 0x01), 1, 0.0, nullptr);
  EXPECT_FALSE(out.stored);
  EXPECT_EQ(store.count(), 0u);
  EXPECT_EQ(store.stored_bytes(), 0u);
  // A stream too big for host but fine for disk lands on disk directly.
  const auto disk = store.store(2, bytes_of(100, 0x02), 2, 0.0, nullptr);
  ASSERT_TRUE(disk.stored);
  EXPECT_EQ(disk.tier, 1u);
  EXPECT_DOUBLE_EQ(disk.transfer_s, 100.0 / 10.0);  // disk bandwidth
}

// ---- Fault tolerance ------------------------------------------------------

TEST(TieredStoreTest, HostOutageFailsOverToDiskOnFetch) {
  TierHealthPolicy health;
  health.retry_budget = 2;
  health.retry_backoff_s = 0.5;
  health.blacklist_after = 100;  // keep blacklisting out of this test
  TieredSwapStore store = make_store(50, 0, health);
  // Entry too big for host: parked on disk.
  store.store(1, bytes_of(100, 0x01), 1, 0.0, nullptr);
  ASSERT_EQ(store.tier_of(1), std::size_t{1});

  FaultPlan plan;
  plan.tiers[0].outage_start_s = 0.0;
  plan.tiers[0].outage_end_s = 100.0;
  FaultInjector injector(plan);
  const auto out = store.fetch(1, 2, 5.0, &injector);
  ASSERT_EQ(out.status, FetchStatus::kHit);
  EXPECT_EQ(out.tier, 1u);
  EXPECT_EQ(out.retries, 2u);               // host retried to budget...
  EXPECT_EQ(out.failovers, 1u);             // ...then failed over
  EXPECT_DOUBLE_EQ(out.stall_s, 2 * 0.5);   // backoff per failed attempt
  EXPECT_DOUBLE_EQ(out.transfer_s, 100.0 / 10.0);
  EXPECT_EQ(store.counters(0).failures, 2u);
  EXPECT_EQ(store.counters(1).hits, 1u);
}

TEST(TieredStoreTest, HolderUnavailableRetainsEntry) {
  TierHealthPolicy health;
  health.blacklist_after = 100;
  TieredSwapStore store = make_store(0, 0, health);
  store.store(1, bytes_of(100, 0x01), 1, 0.0, nullptr);
  ASSERT_EQ(store.tier_of(1), std::size_t{0});

  FaultPlan plan;
  plan.tiers[0].outage_start_s = 0.0;
  plan.tiers[0].outage_end_s = 100.0;
  FaultInjector injector(plan);
  const auto out = store.fetch(1, 2, 5.0, &injector);
  EXPECT_EQ(out.status, FetchStatus::kUnavailable);
  EXPECT_GT(out.retries, 0u);
  // The entry survives for a retry once the tier comes back.
  EXPECT_TRUE(store.contains(1));
  const auto later = store.fetch(1, 3, 200.0, &injector);  // outage over
  EXPECT_EQ(later.status, FetchStatus::kHit);
}

TEST(TieredStoreTest, ConsecutiveFailuresBlacklistThenCooloffReadmits) {
  TierHealthPolicy health;
  health.retry_budget = 1;
  health.blacklist_after = 1;  // first failure blacklists
  health.cooloff_s = 5.0;
  TieredSwapStore store = make_store(0, 0, health);
  store.store(1, bytes_of(100, 0x01), 1, 0.0, nullptr);

  FaultPlan plan;
  plan.tiers[0].outage_start_s = 0.0;
  plan.tiers[0].outage_end_s = 2.0;
  FaultInjector injector(plan);

  // Inside the outage: one failed probe blacklists the tier.
  EXPECT_EQ(store.fetch(1, 2, 1.0, &injector).status,
            FetchStatus::kUnavailable);
  EXPECT_TRUE(store.blacklisted(0, 1.0));
  EXPECT_EQ(store.counters(0).blacklists, 1u);

  // Outage is over at t=3 but the cooloff runs to t=6: the tier is
  // skipped without a probe (no stall, a failover).
  const auto skipped = store.fetch(1, 3, 3.0, &injector);
  EXPECT_EQ(skipped.status, FetchStatus::kUnavailable);
  EXPECT_EQ(skipped.retries, 0u);
  EXPECT_EQ(skipped.failovers, 1u);
  EXPECT_DOUBLE_EQ(skipped.stall_s, 0.0);

  // Past the cooloff the tier is probed again and re-admitted.
  const auto readmitted = store.fetch(1, 4, 7.0, &injector);
  EXPECT_EQ(readmitted.status, FetchStatus::kHit);
  EXPECT_FALSE(store.blacklisted(0, 7.0));
  EXPECT_EQ(store.counters(0).blacklists, 1u);
}

TEST(TieredStoreTest, PostCooloffProbeFailureReblacklistsImmediately) {
  TierHealthPolicy health;
  health.retry_budget = 1;
  health.blacklist_after = 3;
  health.cooloff_s = 5.0;
  TieredSwapStore store = make_store(0, 0, health);
  store.store(1, bytes_of(100, 0x01), 1, 0.0, nullptr);

  FaultPlan plan;
  plan.tiers[0].outage_start_s = 0.0;
  plan.tiers[0].outage_end_s = 1000.0;  // tier stays dead throughout
  FaultInjector injector(plan);

  // Three failed probes blacklist the tier (cooloff until t ~ 8).
  store.fetch(1, 2, 1.0, &injector);
  store.fetch(1, 3, 2.0, &injector);
  store.fetch(1, 4, 3.0, &injector);
  EXPECT_EQ(store.counters(0).blacklists, 1u);
  ASSERT_TRUE(store.blacklisted(0, 4.0));

  // Probing re-admission: after the cooloff a single failed probe is
  // enough to re-blacklist — the tier does not get three fresh strikes.
  const auto probe = store.fetch(1, 5, 9.0, &injector);
  EXPECT_EQ(probe.status, FetchStatus::kUnavailable);
  EXPECT_EQ(probe.retries, 1u);
  EXPECT_EQ(store.counters(0).blacklists, 2u);
  EXPECT_TRUE(store.blacklisted(0, 9.5));
}

TEST(TieredStoreTest, StoreFailsOverToDiskWhenHostUnavailable) {
  TierHealthPolicy health;
  health.blacklist_after = 100;
  TieredSwapStore store = make_store(0, 0, health);
  FaultPlan plan;
  plan.tiers[0].outage_start_s = 0.0;
  plan.tiers[0].outage_end_s = 100.0;
  FaultInjector injector(plan);
  const auto out = store.store(1, bytes_of(100, 0x01), 1, 5.0, &injector);
  ASSERT_TRUE(out.stored);
  EXPECT_EQ(out.tier, 1u);  // host down: landed on disk
  EXPECT_EQ(store.counters(0).failures, 1u);
  // With every tier down the store refuses and the caller recomputes.
  plan.tiers[1].outage_start_s = 0.0;
  plan.tiers[1].outage_end_s = 100.0;
  FaultInjector all_dead(plan);
  const auto refused = store.store(2, bytes_of(50, 0x02), 2, 5.0, &all_dead);
  EXPECT_FALSE(refused.stored);
  EXPECT_FALSE(store.contains(2));
}

TEST(TieredStoreTest, OutageWindowConsumesNoRngDraw) {
  // The deterministic outage window must not perturb the Bernoulli draw
  // sequence: an injector that answered a windowed probe and one that
  // never probed must produce identical subsequent draws.
  FaultPlan windowed;
  windowed.seed = 99;
  windowed.tiers[0].outage_start_s = 0.0;
  windowed.tiers[0].outage_end_s = 10.0;
  FaultInjector a(windowed);
  EXPECT_TRUE(a.tier_unavailable(0, 5.0));   // window hit: no draw
  EXPECT_FALSE(a.tier_unavailable(0, 50.0));  // prob 0: no draw either

  FaultPlan plain;
  plain.seed = 99;
  FaultInjector b(plain);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.corruption_offset(1 << 20), b.corruption_offset(1 << 20));
  }
}

// ---- Real byte-level tiered swap path ------------------------------------

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

TEST(TieredSwapPathTest, RoundTripRestoresSequenceBitExact) {
  PagedKvCache cache(kDim, BitWidth::kInt4, kPageTokens, 32);
  const auto seq = fill_sequence(cache, kPageTokens * 2 + 3, 9);
  std::vector<std::vector<std::uint8_t>> k_payloads;
  for (const KvBlock* b : cache.blocks(seq)) {
    k_payloads.push_back(b->k.packed);
  }
  const std::size_t tokens = cache.token_count(seq);

  TieredSwapStore store = make_store(0, 0);
  const std::size_t bytes =
      serving::swap_out(cache, seq, 77, store, 1, 0.0, nullptr, nullptr);
  EXPECT_GT(bytes, 0u);
  EXPECT_TRUE(store.contains(77));
  EXPECT_EQ(store.stored_bytes(), bytes);
  EXPECT_FALSE(cache.has_sequence(seq));
  EXPECT_EQ(cache.used_pages(), 0u);

  const auto in = serving::swap_in(cache, 77, store, 2, 0.0, nullptr);
  ASSERT_EQ(in.status, serving::SwapInStatus::kOk);
  EXPECT_FALSE(store.contains(77));  // adopted: entry erased
  EXPECT_EQ(store.stored_bytes(), 0u);
  EXPECT_EQ(cache.token_count(in.seq), tokens);
  const auto blocks_after = cache.blocks(in.seq);
  ASSERT_EQ(blocks_after.size(), k_payloads.size());
  for (std::size_t i = 0; i < blocks_after.size(); ++i) {
    EXPECT_EQ(blocks_after[i]->k.packed, k_payloads[i]);
  }
}

TEST(TieredSwapPathTest, OutOfPagesKeepsPristineEntryForRetry) {
  PagedKvCache cache(kDim, BitWidth::kInt4, kPageTokens, 4);
  const auto seq = fill_sequence(cache, kPageTokens * 3 + 1, 17);
  TieredSwapStore store = make_store(0, 0);
  serving::swap_out(cache, seq, 2, store, 1, 0.0, nullptr, nullptr);
  ASSERT_NE(store.stream_of(2), nullptr);
  const std::vector<std::uint8_t> original = *store.stream_of(2);

  // Occupy the pool, then attempt the swap-in with a live injector whose
  // probabilities are zero: the failed adoption must leave the parked
  // bytes untouched (deserialization runs on a scratch copy).
  const auto hog = fill_sequence(cache, kPageTokens * 2 + 1, 18);
  FaultPlan plan;
  plan.seed = 4;
  FaultInjector injector(plan);
  const auto blocked = serving::swap_in(cache, 2, store, 2, 0.0, &injector);
  EXPECT_EQ(blocked.status, serving::SwapInStatus::kOutOfPages);
  ASSERT_TRUE(store.contains(2));
  EXPECT_EQ(*store.stream_of(2), original);  // pristine, bit for bit

  cache.release_sequence(hog);
  const auto retry = serving::swap_in(cache, 2, store, 3, 0.0, &injector);
  ASSERT_EQ(retry.status, serving::SwapInStatus::kOk);
  EXPECT_EQ(cache.token_count(retry.seq), kPageTokens * 3 + 1);
}

TEST(TieredSwapPathTest, TierCorruptionDetectedByChecksum) {
  PagedKvCache cache(kDim, BitWidth::kInt4, kPageTokens, 32);
  const auto seq = fill_sequence(cache, kPageTokens * 2, 33);
  TieredSwapStore store = make_store(0, 0);
  serving::swap_out(cache, seq, 8, store, 1, 0.0, nullptr, nullptr);

  FaultPlan plan;
  plan.seed = 3;
  plan.tiers[0].corruption_prob = 1.0;  // the media always corrupts
  FaultInjector injector(plan);
  const std::size_t used_before = cache.used_pages();
  const auto in = serving::swap_in(cache, 8, store, 2, 0.0, &injector);
  EXPECT_EQ(in.status, serving::SwapInStatus::kChecksumMismatch);
  EXPECT_EQ(injector.injected_tier_corruptions(), 1u);
  EXPECT_FALSE(store.contains(8));  // proven corrupt: dropped
  EXPECT_EQ(cache.used_pages(), used_before);
}

// ---- Engine integration ---------------------------------------------------

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t engine_digest(const serving::EngineResult& r) {
  std::uint64_t h = 0;
  auto mix_d = [&](double d) { h = mix(h, std::bit_cast<std::uint64_t>(d)); };
  for (const serving::Request& q : r.requests) {
    mix_d(q.finish_s);
    h = mix(h, q.generated);
    h = mix(h, q.preemptions);
    h = mix(h, q.tier_failovers);
  }
  mix_d(r.makespan_s);
  mix_d(r.tier_retry_stall_s);
  h = mix(h, r.tier_demotions);
  h = mix(h, r.tier_promotions);
  h = mix(h, r.tier_failovers);
  h = mix(h, r.tier_blacklists);
  h = mix(h, r.swap_unavailable_recomputes);
  h = mix(h, r.swap_overflow_recomputes);
  return h;
}

std::vector<serving::Request> pressure_trace() {
  serving::TraceConfig t;
  t.arrival_rate = 24.0;
  t.duration_s = 10.0;
  t.prompt_log_mean = 5.5;
  t.prompt_log_std = 0.5;
  t.gen_log_mean = 5.5;
  t.gen_log_std = 0.5;
  t.seed = 11;
  return serving::generate_trace(t);
}

serving::EngineConfig tiered_engine(std::uint64_t fault_seed) {
  serving::EngineConfig c;
  c.device = sim::a100_pcie_40gb();
  c.geometry = sim::phi3_mini_geometry();
  c.method = sim::AttnMethod::kTurbo;
  c.attention.kv_bits = 3.0;
  c.memory_headroom = 0.25;  // small page pool: heavy preemption
  c.faults.seed = fault_seed;
  c.faults.page_alloc_failure_prob = 0.05;  // keeps the swap path hot
  c.faults.swap_spike_prob = 0.05;
  return c;
}

void expect_all_terminal(const serving::EngineResult& r) {
  EXPECT_FALSE(r.hit_time_limit);
  for (const serving::Request& q : r.requests) {
    EXPECT_NE(q.outcome, serving::Outcome::kPending);
    EXPECT_TRUE(q.finished());
  }
}

TEST(TieredEngineTest, HostOnlyAndUnboundedTwoTierAreEquivalent) {
  // With unbounded capacities and inert tier faults, the disk tier is
  // pure potential: every stream lands in and returns from the host
  // tier, so a 1-tier and a 2-tier engine must be bit-identical.
  const auto trace = pressure_trace();
  serving::EngineConfig one = tiered_engine(2);
  one.swap.tiers = 1;
  serving::EngineConfig two = tiered_engine(2);
  two.swap.tiers = 2;
  const auto a = run_engine(one, trace);
  const auto b = run_engine(two, trace);
  EXPECT_EQ(engine_digest(a), engine_digest(b));
  EXPECT_GT(a.preempted_swap, 0u);
  EXPECT_EQ(a.tier_demotions, 0u);
  EXPECT_EQ(a.swap_tiers_used, 1u);
  EXPECT_EQ(b.swap_tiers_used, 1u);  // disk never touched
}

TEST(TieredEngineTest, HostPressureDemotesToDiskAndSurfacesCounters) {
  const auto trace = pressure_trace();
  serving::EngineConfig cfg = tiered_engine(2);
  cfg.swap.host_capacity_bytes = 64ull << 20;  // 64 MB: a few streams
  const auto r = run_engine(cfg, trace);
  expect_all_terminal(r);
  EXPECT_GT(r.tier_demotions, 0u);
  EXPECT_EQ(r.swap_tiers_used, 2u);
  EXPECT_GT(r.tier_stats[1].demotions_in, 0u);
  EXPECT_EQ(r.tier_stats[1].demotions_in, r.tier_demotions);

  // Metrics must mirror every tier counter verbatim.
  const serving::ServingMetrics m = serving::summarize(r);
  EXPECT_EQ(m.tier_demotions, r.tier_demotions);
  EXPECT_EQ(m.tier_promotions, r.tier_promotions);
  EXPECT_EQ(m.tier_failovers, r.tier_failovers);
  EXPECT_EQ(m.tier_blacklists, r.tier_blacklists);
  EXPECT_EQ(m.tier_fetch_retries, r.tier_fetch_retries);
  EXPECT_EQ(m.swap_unavailable_recomputes, r.swap_unavailable_recomputes);
  EXPECT_EQ(m.swap_overflow_recomputes, r.swap_overflow_recomputes);
  EXPECT_EQ(m.swap_tiers_used, r.swap_tiers_used);
  EXPECT_EQ(m.tier_retry_stall_s, r.tier_retry_stall_s);
  EXPECT_EQ(m.tier_stats[1].demotions_in, r.tier_stats[1].demotions_in);
}

TEST(TieredEngineTest, DiskOutageMidRunStillResolvesEveryRequest) {
  // The acceptance scenario: the host tier is small enough that streams
  // routinely live on disk, and the disk dies at t=2s and never comes
  // back. The engine must fail over (host hits), then degrade to
  // recompute (unavailable / overflow), and still terminally resolve
  // every request — no hang, no leaked pages, no parked streams (the
  // engine TURBO_CHECKs store emptiness at exit).
  const auto trace = pressure_trace();
  serving::EngineConfig cfg = tiered_engine(2);
  cfg.swap.host_capacity_bytes = 64ull << 20;
  cfg.faults.tiers[1].outage_start_s = 2.0;
  cfg.faults.tiers[1].outage_end_s = 1e9;
  const auto r = run_engine(cfg, trace);
  expect_all_terminal(r);
  // The dead tier was actually exercised and the fallbacks fired.
  EXPECT_GT(r.swap_unavailable_recomputes + r.swap_overflow_recomputes, 0u);
  EXPECT_GT(r.tier_blacklists, 0u);
  EXPECT_GT(r.tier_stats[1].failures, 0u);
  // Unavailable-recomputes are not checksum recoveries.
  EXPECT_EQ(r.checksum_failures, r.recoveries);
  // Determinism: the outage window draws no RNG, so the run replays.
  const auto again = run_engine(cfg, trace);
  EXPECT_EQ(engine_digest(r), engine_digest(again));
}

TEST(TieredEngineTest, PromotionFiresWhenReadmissionIsPageBlocked) {
  // Tiny host + long outage-free run: swapped victims whose streams got
  // demoted to disk and whose re-admission is page-blocked get promoted
  // back toward host while they wait.
  const auto trace = pressure_trace();
  serving::EngineConfig cfg = tiered_engine(3);
  cfg.swap.host_capacity_bytes = 32ull << 20;
  const auto r = run_engine(cfg, trace);
  expect_all_terminal(r);
  EXPECT_GT(r.tier_demotions, 0u);
  // Promotion is opportunistic; assert the accounting is consistent
  // rather than a specific count, then check it replays bit-exact.
  EXPECT_EQ(r.tier_stats[1].promotions_out, r.tier_promotions);
  const auto again = run_engine(cfg, trace);
  EXPECT_EQ(engine_digest(r), engine_digest(again));
}

}  // namespace
}  // namespace turbo
