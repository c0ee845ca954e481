// Fleet serving: health-checked routing over replicated engines, outage
// drain and KV-migration failover (src/fleet/router.h).
//
// The contracts under test: a 1-replica fleet is bit-identical to the
// standalone engine; seeded fleet runs (outage windows included) are
// bit-identical run to run; killing a replica mid-run still leaves every
// request in exactly one terminal state with zero leaked pages or parked
// streams; corrupt migrations are CRC-detected and recovered by
// recompute; the failover budget bounds interconnect traffic; routing
// policies measurably shape tail latency; the per-replica metric rollup
// reconciles with the fleet union; and every entry of the engine and
// router counter lists reaches the summaries by its merge rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.h"
#include "fleet/metrics.h"
#include "fleet/router.h"
#include "serving/metrics.h"
#include "serving/swap.h"
#include "serving/trace.h"
#include "sim/attention_model.h"

namespace turbo::fleet {
namespace {

using serving::EngineConfig;
using serving::EngineResult;
using serving::Outcome;
using serving::Request;
using serving::ServiceClass;
using serving::TraceConfig;

// Mixed-class trace spread over a small fleet: 30% interactive with a
// tight TTFT SLO, 50% standard with a loose one, 20% batch.
TraceConfig fleet_trace() {
  TraceConfig t;
  t.arrival_rate = 24.0;
  t.duration_s = 15.0;
  t.prompt_log_mean = 5.5;
  t.prompt_log_std = 0.5;
  t.gen_log_mean = 5.0;
  t.gen_log_std = 0.5;
  t.seed = 29;
  t.class_mix = {0.3, 0.5, 0.2};
  t.ttft_deadline_s = {2.5, 20.0, 0.0};
  return t;
}

// Per-replica engine with a squeezed KV pool, so preemption and swap
// traffic exist for the drain path to migrate.
EngineConfig fleet_engine() {
  EngineConfig c;
  c.device = sim::a100_pcie_40gb();
  c.geometry = sim::phi3_mini_geometry();
  c.method = sim::AttnMethod::kTurbo;
  c.attention.kv_bits = 4.0;
  c.memory_headroom = 0.35;
  return c;
}

FleetConfig base_fleet(std::size_t replicas) {
  FleetConfig f;
  f.engine = fleet_engine();
  f.replicas = replicas;
  return f;
}

// Kill replica 1 for a window that starts while the trace is in full
// flight, so the drain lifts running, paused and waiting requests alike.
FleetConfig outage_fleet(std::size_t replicas) {
  FleetConfig f = base_fleet(replicas);
  f.engine.faults.replicas[1].add_outage(2.0, 8.0);
  return f;
}

std::size_t terminal_count(const serving::ServingMetrics& m) {
  return m.completed + m.rejected + m.timed_out + m.shed;
}

// Order-independent digest over everything a request carries out of the
// run, plus the fleet counters — two runs compare in full.
std::uint64_t digest(const FleetResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  auto mixd = [&](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  std::vector<Request> reqs = r.requests;
  std::sort(reqs.begin(), reqs.end(),
            [](const Request& a, const Request& b) { return a.id < b.id; });
  for (const Request& req : reqs) {
    mix(req.id);
    mixd(req.prefill_start_s);
    mixd(req.first_token_s);
    mixd(req.finish_s);
    mixd(req.kv_bits_used);
    mix(req.generated);
    mix(req.preemptions);
    mix(req.recomputed_tokens);
    mix(req.replica_failovers);
    mix(static_cast<std::uint64_t>(req.outcome));
  }
  mixd(r.makespan_s);
  mixd(r.migrated_bytes);
  mixd(r.migration_stall_s);
  mixd(r.handoff_bytes);
  mixd(r.handoff_stall_s);
  mix(r.routed);
  mix(r.replica_outages);
  mix(r.failover_drains);
  mix(r.migrations);
  mix(r.migration_corruptions);
  mix(r.migration_recomputes);
  mix(r.migration_budget_exhausted);
  mix(r.handoffs);
  mix(r.handoff_corruptions);
  mix(r.handoff_retries);
  mix(r.handoff_budget_exhausted);
  mix(r.handoff_recomputes);
  mix(r.role_fallback_prefills);
  mix(r.backpressure_deferrals);
  mix(r.affinity_hits);
  mix(r.affinity_misses);
  mix(static_cast<std::uint64_t>(r.hit_time_limit));
  return h;
}

std::uint64_t engine_digest(const EngineResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  auto mixd = [&](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  for (const Request& req : r.requests) {
    mix(req.id);
    mixd(req.prefill_start_s);
    mixd(req.first_token_s);
    mixd(req.finish_s);
    mixd(req.kv_bits_used);
    mix(req.generated);
    mix(req.preemptions);
    mix(req.recomputed_tokens);
    mix(static_cast<std::uint64_t>(req.outcome));
  }
  mixd(r.makespan_s);
  mixd(r.busy_s);
  mixd(r.swap_stall_s);
  mix(r.preemptions);
  mix(r.timed_out);
  mix(r.shed);
  mix(static_cast<std::uint64_t>(r.hit_time_limit));
  return h;
}

// --- Bit-identity -----------------------------------------------------------

// A 1-replica fleet is the standalone engine: same clock, same idle
// jumps, same fault draws, bit-identical result.
TEST(FleetIdentityTest, SingleReplicaFleetMatchesRunEngine) {
  const std::vector<Request> trace = serving::generate_trace(fleet_trace());
  const EngineConfig cfg = fleet_engine();
  const EngineResult solo = serving::run_engine(cfg, trace);
  FleetResult fleet = run_fleet(base_fleet(1), trace);
  ASSERT_EQ(fleet.replica_results.size(), 1u);
  EXPECT_EQ(engine_digest(solo), engine_digest(fleet.replica_results[0]));
  EXPECT_EQ(solo.makespan_s, fleet.makespan_s);
  EXPECT_EQ(fleet.routed, trace.size());
  EXPECT_EQ(fleet.replica_outages, 0u);
  EXPECT_EQ(fleet.migrations, 0u);
}

// Seeded fleet runs — outage window, drain, migration and all — are
// bit-identical across repeats (and, via CI, across sanitizer lanes).
TEST(FleetIdentityTest, SeededOutageRunsAreBitIdentical) {
  const std::vector<Request> trace = serving::generate_trace(fleet_trace());
  const FleetConfig cfg = outage_fleet(4);
  const std::uint64_t a = digest(run_fleet(cfg, trace));
  const std::uint64_t b = digest(run_fleet(cfg, trace));
  EXPECT_EQ(a, b);
}

// --- Outage drain and failover ---------------------------------------------

// One of four replicas dies mid-run: the fleet drains it, fails its
// requests over, and every trace request still reaches exactly one
// terminal state with nothing leaked (the router asserts zero pages and
// zero parked streams at drain internally).
TEST(FleetOutageTest, ReplicaOutageMidRunLeavesEveryRequestTerminal) {
  const std::vector<Request> trace = serving::generate_trace(fleet_trace());
  const FleetResult r = run_fleet(outage_fleet(4), trace);
  EXPECT_FALSE(r.hit_time_limit);
  EXPECT_EQ(r.replica_outages, 1u);
  EXPECT_GT(r.failover_drains, 0u);
  ASSERT_EQ(r.requests.size(), trace.size());
  for (const Request& req : r.requests) {
    EXPECT_NE(req.outcome, Outcome::kPending);
  }
  const FleetMetrics m = summarize_fleet(r);
  EXPECT_EQ(terminal_count(m.fleet), trace.size());
  EXPECT_EQ(m.fleet.unfinished, 0u);
  // The drained replica accepted work again after its window: the run
  // routed every arrival somewhere.
  EXPECT_EQ(r.routed, trace.size());
}

// Every migrated stream is corrupted in transit: the CRC layer detects
// each one and the destination recomputes — the faults cost latency,
// never a lost request.
TEST(FleetOutageTest, CorruptMigrationsAreDetectedAndRecomputed) {
  const std::vector<Request> trace = serving::generate_trace(fleet_trace());
  FleetConfig cfg = outage_fleet(4);
  cfg.engine.faults.migration_corruption_prob = 1.0;
  const FleetResult r = run_fleet(cfg, trace);
  EXPECT_GT(r.migrations, 0u);
  EXPECT_EQ(r.migration_corruptions, r.migrations);
  EXPECT_GE(r.migration_recomputes, r.migration_corruptions);
  EXPECT_FALSE(r.hit_time_limit);
  for (const Request& req : r.requests) {
    EXPECT_NE(req.outcome, Outcome::kPending);
  }
}

// A zero failover budget forbids migration outright: drained KV is
// dropped and recomputed, and not a byte crosses the interconnect.
TEST(FleetOutageTest, FailoverBudgetZeroForcesRecompute) {
  const std::vector<Request> trace = serving::generate_trace(fleet_trace());
  FleetConfig cfg = outage_fleet(4);
  cfg.failover_budget = 0;
  const FleetResult r = run_fleet(cfg, trace);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_EQ(r.migrated_bytes, 0.0);
  EXPECT_GT(r.failover_drains, 0u);
  EXPECT_GT(r.migration_budget_exhausted + r.migration_recomputes, 0u);
  for (const Request& req : r.requests) {
    EXPECT_NE(req.outcome, Outcome::kPending);
  }
  // Same outage, budget allowed: streams do migrate — the knob is live.
  const FleetResult with_budget = run_fleet(outage_fleet(4), trace);
  EXPECT_GT(with_budget.migrations, 0u);
  EXPECT_GT(with_budget.migrated_bytes, 0.0);
}

// --- Routing policy A/B -----------------------------------------------------

// Alternating huge and tiny prompts defeat round-robin (one replica
// collects every huge prompt); least-outstanding-pages reads the actual
// memory pressure and balances, cutting the TTFT tail.
TEST(FleetPolicyTest, LeastPagesBeatsRoundRobinOnSkewedPrompts) {
  std::vector<Request> trace;
  for (std::size_t i = 0; i < 24; ++i) {
    Request r;
    r.id = i;
    r.arrival_s = 0.05 * static_cast<double>(i);
    r.prompt_tokens = (i % 2 == 0) ? 6000 : 64;
    r.max_new_tokens = 32;
    r.service_class = ServiceClass::kInteractive;
    trace.push_back(r);
  }
  FleetConfig rr = base_fleet(2);
  rr.engine.memory_headroom = 0.5;
  rr.route = RoutePolicy::kRoundRobin;
  FleetConfig lop = rr;
  lop.route = RoutePolicy::kLeastOutstandingPages;
  const FleetMetrics m_rr = summarize_fleet(run_fleet(rr, trace));
  const FleetMetrics m_lop = summarize_fleet(run_fleet(lop, trace));
  EXPECT_EQ(m_rr.fleet.completed, trace.size());
  EXPECT_EQ(m_lop.fleet.completed, trace.size());
  EXPECT_LE(m_lop.fleet.ttft_p99, m_rr.fleet.ttft_p99);
}

// --- Affinity routing -------------------------------------------------------

// A request with explicit prompt ids [first_id, first_id + prompt).
Request ids_request(std::uint64_t id, double arrival, std::int32_t first_id,
                    std::size_t prompt, std::size_t gen) {
  Request r;
  r.id = id;
  r.arrival_s = arrival;
  r.prompt_tokens = prompt;
  r.max_new_tokens = gen;
  r.service_class = ServiceClass::kInteractive;
  r.prompt_ids.resize(prompt);
  for (std::size_t i = 0; i < prompt; ++i) {
    r.prompt_ids[i] = first_id + static_cast<std::int32_t>(i);
  }
  return r;
}

// Two sessions, two replicas: turn 1 of each session seeds a different
// replica's radix index (affinity miss -> least-pages); each follow-up
// turn extends its own session's prompt and must land where that history
// is resident — pure least-pages would have been indifferent.
TEST(FleetAffinityTest, FollowUpTurnLandsOnPrefixHoldingReplica) {
  std::vector<Request> trace;
  trace.push_back(ids_request(0, 0.00, 0, 1024, 16));      // A, turn 1
  trace.push_back(ids_request(1, 0.05, 50000, 1024, 16));  // B, turn 1
  trace.push_back(ids_request(2, 5.00, 0, 1536, 16));      // A, turn 2
  trace.push_back(ids_request(3, 5.05, 50000, 1536, 16));  // B, turn 2
  FleetConfig cfg = base_fleet(2);
  cfg.route = RoutePolicy::kAffinity;
  const FleetResult r = run_fleet(cfg, trace);
  EXPECT_FALSE(r.hit_time_limit);
  ASSERT_EQ(r.replica_results.size(), 2u);
  auto finished_on = [&r](std::size_t replica, std::uint64_t id) {
    for (const Request& req : r.replica_results[replica].requests) {
      if (req.id == id) return true;
    }
    return false;
  };
  EXPECT_TRUE(finished_on(0, 0));
  EXPECT_TRUE(finished_on(1, 1));
  // The follow-up turns chased their history.
  EXPECT_TRUE(finished_on(0, 2));
  EXPECT_TRUE(finished_on(1, 3));
  EXPECT_EQ(r.affinity_hits, 2u);
  EXPECT_EQ(r.affinity_misses, 2u);
  // And the landing replicas actually served the resident prefix.
  const FleetMetrics m = summarize_fleet(r);
  EXPECT_GT(m.fleet.prefix_hit_tokens, 0u);
  EXPECT_EQ(m.affinity_hits, r.affinity_hits);
  EXPECT_EQ(m.affinity_misses, r.affinity_misses);
}

// The prefix holder is inside an outage window when the follow-up turn
// arrives: affinity must fall back to a healthy replica — the dead
// target costs the cache hit, never the request.
TEST(FleetAffinityTest, FallsBackWhenPrefixHolderInOutage) {
  std::vector<Request> trace;
  trace.push_back(ids_request(0, 0.00, 0, 1024, 16));
  trace.push_back(ids_request(1, 0.05, 50000, 1024, 16));
  trace.push_back(ids_request(2, 5.00, 0, 1536, 16));  // holder is down
  FleetConfig cfg = base_fleet(2);
  cfg.route = RoutePolicy::kAffinity;
  cfg.engine.faults.replicas[0].add_outage(3.0, 30.0);
  const FleetResult r = run_fleet(cfg, trace);
  EXPECT_FALSE(r.hit_time_limit);
  for (const Request& req : r.requests) {
    EXPECT_NE(req.outcome, Outcome::kPending);
  }
  bool on_healthy = false;
  for (const Request& req : r.replica_results[1].requests) {
    if (req.id == 2) on_healthy = true;
  }
  EXPECT_TRUE(on_healthy);
}

// Generated multi-turn session workload under affinity routing: the
// per-request prefix hits roll up through the replica metrics into the
// fleet union (the counter list's sum rule, exercised end to end).
TEST(FleetAffinityTest, PrefixHitTokensRollUpIntoFleetMetrics) {
  TraceConfig t;
  t.arrival_rate = 2.0;
  t.duration_s = 10.0;
  t.seed = 23;
  t.class_mix = {1.0, 0.0, 0.0};
  t.ttft_deadline_s = {2.5, 0.0, 0.0};
  t.session_turns = 3;
  t.shared_prefix_tokens = 512;
  t.shared_prefix_fraction = 0.9;
  t.session_gap_s = 1.0;
  const std::vector<Request> trace = serving::generate_trace(t);
  FleetConfig cfg = base_fleet(3);
  cfg.route = RoutePolicy::kAffinity;
  const FleetMetrics m = summarize_fleet(run_fleet(cfg, trace));
  EXPECT_GT(m.affinity_hits, 0u);
  EXPECT_GT(m.fleet.prefix_hit_tokens, 0u);
  std::size_t per_replica = 0;
  for (const serving::ServingMetrics& rm : m.replicas) {
    per_replica += rm.prefix_hit_tokens;
  }
  EXPECT_EQ(per_replica, m.fleet.prefix_hit_tokens);
}

// --- Rollup reconciliation --------------------------------------------------

// The fleet rollup is exactly the sum of its replicas: requests count
// once (where they terminated), and every mirrored counter reconciles.
TEST(FleetMetricsTest, ReplicaRollupReconcilesWithFleetUnion) {
  const std::vector<Request> trace = serving::generate_trace(fleet_trace());
  const FleetResult r = run_fleet(outage_fleet(4), trace);
  const FleetMetrics m = summarize_fleet(r);
  ASSERT_EQ(m.replicas.size(), 4u);
  std::size_t completed = 0, timed_out = 0, shed = 0, rejected = 0;
  std::size_t preemptions = 0, swap_ins = 0, terminals = 0;
  for (const serving::ServingMetrics& rm : m.replicas) {
    completed += rm.completed;
    timed_out += rm.timed_out;
    shed += rm.shed;
    rejected += rm.rejected;
    preemptions += rm.preemptions;
    swap_ins += rm.swap_ins;
    terminals += terminal_count(rm);
  }
  EXPECT_EQ(completed, m.fleet.completed);
  EXPECT_EQ(timed_out, m.fleet.timed_out);
  EXPECT_EQ(shed, m.fleet.shed);
  EXPECT_EQ(rejected, m.fleet.rejected);
  EXPECT_EQ(preemptions, m.fleet.preemptions);
  EXPECT_EQ(swap_ins, m.fleet.swap_ins);
  EXPECT_EQ(terminals, trace.size());
  // Router counters carry over into the metrics struct.
  EXPECT_EQ(m.replica_count, r.replica_count);
  EXPECT_EQ(m.routed, r.routed);
  EXPECT_EQ(m.replica_outages, r.replica_outages);
  EXPECT_EQ(m.failover_drains, r.failover_drains);
  EXPECT_EQ(m.migrations, r.migrations);
  EXPECT_EQ(m.hit_time_limit, r.hit_time_limit);
}

// --- Counter-list completeness ----------------------------------------------
//
// The counter lists (TURBO_ENGINE_COUNTERS, TURBO_FLEET_COUNTERS) are the
// whole contract between the engine, the router and their summaries, so
// these tests expand the lists rather than name counters.

void set_counter(std::size_t& c, std::size_t v) { c = v; }
void set_counter(double& c, std::size_t v) { c = static_cast<double>(v); }
void set_counter(bool& c, std::size_t /*v*/) { c = true; }
// Field k of the per-tier block gets v * (k + 1): distinct fields, and
// the field-wise sum of two blocks is the block of the summed values.
void set_counter(serving::TierStats& c, std::size_t v) {
  std::size_t k = 0;
  for (serving::TieredSwapStore::TierCounters& tc : c) {
    tc.stores = v * ++k;
    tc.hits = v * ++k;
    tc.demotions_in = v * ++k;
    tc.promotions_out = v * ++k;
    tc.failures = v * ++k;
    tc.blacklists = v * ++k;
  }
}

// The values entry i takes on the first and the second replica, and the
// one the fleet must then hold. The second replica holds the value the
// rule picks, so a merge that skips the entry (and keeps the first
// replica's) fails, as does a merge by any other rule.
struct MergeCase {
  std::size_t first;
  std::size_t second;
  std::size_t merged;
};
MergeCase sum_case(std::size_t i) { return {2 * i + 1, 3 * i + 2, 5 * i + 3}; }
MergeCase max_case(std::size_t i) { return {2 * i + 1, 3 * i + 2, 3 * i + 2}; }
MergeCase min_case(std::size_t i) { return {3 * i + 2, 2 * i + 1, 2 * i + 1}; }

// Each engine counter merges into the fleet union by its entry's rule,
// each replica's ServingMetrics carries its source's counters, and
// FleetMetrics carries every router counter.
TEST(CounterListTest, EveryCounterReachesTheSummaries) {
  FleetResult r;
  r.replica_results.resize(2);
  EngineResult& a = r.replica_results[0];
  EngineResult& b = r.replica_results[1];
  std::size_t i = 0;
#define SET_ENGINE_COUNTER(type, name, rule)  \
  set_counter(a.name, rule##_case(i).first);  \
  set_counter(b.name, rule##_case(i).second); \
  ++i;
  TURBO_ENGINE_COUNTERS(SET_ENGINE_COUNTER)
#undef SET_ENGINE_COUNTER
  i = 0;
#define SET_FLEET_COUNTER(type, name) set_counter(r.name, 7 * i++ + 1);
  TURBO_FLEET_COUNTERS(SET_FLEET_COUNTER)
#undef SET_FLEET_COUNTER
  // hit_time_limit is set, so the union needs a request left pending.
  r.requests.emplace_back();

  const FleetMetrics m = summarize_fleet(r);
  ASSERT_EQ(m.replicas.size(), 2u);
  i = 0;
#define CHECK_ENGINE_COUNTER(type, name, rule)        \
  {                                                   \
    decltype(a.name) merged{};                        \
    set_counter(merged, rule##_case(i++).merged);     \
    EXPECT_EQ(m.fleet.name, merged) << #name;         \
    EXPECT_EQ(m.replicas[0].name, a.name) << #name;   \
    EXPECT_EQ(m.replicas[1].name, b.name) << #name;   \
  }
  TURBO_ENGINE_COUNTERS(CHECK_ENGINE_COUNTER)
#undef CHECK_ENGINE_COUNTER
#define CHECK_FLEET_COUNTER(type, name) EXPECT_EQ(m.name, r.name) << #name;
  TURBO_FLEET_COUNTERS(CHECK_FLEET_COUNTER)
#undef CHECK_FLEET_COUNTER
}

// The rules themselves: every engine counter sums across replicas except
// the precision floor and two worst cases. A rule edited in the list
// changes what the fleet reports, so it fails here first.
TEST(CounterListTest, OnlyThePrecisionFloorAndWorstCasesSkipTheSum) {
  std::string not_summed;
#define NOTE_RULE(type, name, rule) \
  if (std::string(#rule) != "sum") not_summed += #name ":" #rule " ";
  TURBO_ENGINE_COUNTERS(NOTE_RULE)
#undef NOTE_RULE
  EXPECT_EQ(not_summed,
            "min_kv_bits:min degrade_rmse_proxy:max "
            "max_preemptions_single_request:max ");
}

// --- Swap-stream key namespacing (regression) -------------------------------

// Two replicas parking the same request-local id must not alias in a
// shared store namespace. Before keys were namespaced by replica id, the
// second store_phantom overwrote the first stream (count() == 1) — the
// classic cross-replica collision this guards against.
TEST(FleetStreamKeyTest, ReplicaNamespacedKeysDoNotCollide) {
  EXPECT_NE(serving::swap_stream_key(0, 7), serving::swap_stream_key(1, 7));
  EXPECT_EQ(serving::swap_stream_key(0, 7), 7u);  // replica 0: identity

  std::vector<serving::SwapTier> tiers;
  tiers.push_back({"host", 1ull << 30, 16.0 * 1024 * 1024 * 1024});
  serving::TieredSwapStore store(std::move(tiers));
  FaultPlan plan;
  FaultInjector fault(plan);
  ASSERT_TRUE(store
                  .store_phantom(serving::swap_stream_key(0, 7), 4096, 1,
                                 0.0, &fault)
                  .stored);
  ASSERT_TRUE(store
                  .store_phantom(serving::swap_stream_key(1, 7), 4096, 1,
                                 0.0, &fault)
                  .stored);
  EXPECT_EQ(store.count(), 2u);
  EXPECT_EQ(store.fetch(serving::swap_stream_key(0, 7), 2, 0.0, &fault)
                .status,
            serving::TieredSwapStore::FetchStatus::kHit);
  EXPECT_EQ(store.fetch(serving::swap_stream_key(1, 7), 2, 0.0, &fault)
                .status,
            serving::TieredSwapStore::FetchStatus::kHit);
}

}  // namespace
}  // namespace turbo::fleet
