// Schedule pins and deadline-expiry edge cases for the serving engine
// (serving/engine.h).
//
// The golden digests pin full-result digests (tests/serving_fixtures.h)
// of seeded runs. The determinism tests elsewhere compare two runs of one
// build, so a schedule change that is consistent from run to run passes
// them; it fails here. A deliberate schedule change re-records the pins
// and says why. The metrics pins do the same for the summaries that
// summarize() and summarize_fleet() build from those results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "fleet/chaos.h"
#include "fleet/metrics.h"
#include "fleet/router.h"
#include "serving/engine.h"
#include "serving/metrics.h"
#include "serving/snapshot.h"
#include "serving/trace.h"
#include "sim/device.h"
#include "tests/serving_fixtures.h"

namespace turbo::serving {
namespace {

using test::crushed_engine;
using test::digest;
using test::overload_mix_trace;
using test::pressured_engine;

constexpr double kInf = std::numeric_limits<double>::infinity();

// The engine's deadline slack (kDeadlineSlack in engine.cpp): an idle
// engine jumps to expiry + 2 * slack so the strict comparison fires.
constexpr double kIdleExpiryStep = 2.0 * 1e-9;

// --- Golden schedule digests ------------------------------------------------

EngineConfig degraded_faulty(SchedPolicy policy) {
  EngineConfig c = pressured_engine();
  c.policy = policy;
  c.degrade.enabled = true;
  c.faults.seed = 5;
  c.faults.page_alloc_failure_prob = 0.02;
  c.faults.stream_corruption_prob = 0.05;
  return c;
}

TEST(ScheduleGoldenTest, SloOverloadClassAware) {
  const EngineResult r = run_engine(degraded_faulty(SchedPolicy::kClassAware),
                                    generate_trace(overload_mix_trace()));
  EXPECT_EQ(digest(r), 0x3dbae748c096ea54ull);
}

TEST(ScheduleGoldenTest, SloOverloadFifo) {
  const EngineResult r = run_engine(degraded_faulty(SchedPolicy::kFifo),
                                    generate_trace(overload_mix_trace()));
  EXPECT_EQ(digest(r), 0xec815319c96c9331ull);
}

TEST(ScheduleGoldenTest, CrushedSwap) {
  const EngineResult r =
      run_engine(crushed_engine(), generate_trace(overload_mix_trace()));
  ASSERT_GT(r.preempted_swap, 0u);
  EXPECT_EQ(digest(r), 0x1cda8fc3ce60f9daull);
}

TEST(ScheduleGoldenTest, CrushedRecompute) {
  EngineConfig cfg = crushed_engine();
  cfg.preempt_mode = PreemptMode::kRecompute;
  const EngineResult r = run_engine(cfg, generate_trace(overload_mix_trace()));
  ASSERT_GT(r.preempted_recompute, 0u);
  EXPECT_EQ(digest(r), 0x848737cacfb29be2ull);
}

// The benchmark's sim_overload shape, 120 s of it: one engine at about
// twice its capacity, so the waiting backlog grows all trace long.
TEST(ScheduleGoldenTest, SimOverloadShape) {
  EngineConfig cfg;
  cfg.device = sim::a100_sxm_80gb();
  cfg.geometry = sim::phi3_medium_geometry();
  cfg.method = sim::AttnMethod::kTurbo;
  cfg.attention.kv_bits = 3.0;
  TraceConfig t;
  t.arrival_rate = 20.0;
  t.duration_s = 120.0;
  t.class_mix = {0.3, 0.5, 0.2};
  t.ttft_deadline_s = {2.0, 10.0, 0.0};
  const EngineResult r = run_engine(cfg, generate_trace(t));
  ASSERT_GT(r.timed_out, 0u);
  EXPECT_EQ(digest(r), 0x281de32886cabeacull);
}

// Four replicas, one of them down for [2, 8) s: the drain lifts running,
// paused and waiting requests and the survivors adopt them.
TEST(ScheduleGoldenTest, FleetOutage) {
  fleet::FleetConfig cfg;
  cfg.engine = pressured_engine();
  cfg.replicas = 4;
  cfg.engine.faults.replicas[1].add_outage(2.0, 8.0);
  TraceConfig t = overload_mix_trace();
  t.class_mix = {0.3, 0.5, 0.2};
  const fleet::FleetResult r = fleet::run_fleet(cfg, generate_trace(t));
  ASSERT_GT(r.failover_drains, 0u);
  test::Fnv h;
  for (const EngineResult& e : r.replica_results) h.mix(digest(e));
  h.mixd(r.makespan_s);
  h.mixd(r.migrated_bytes);
  h.mix(r.failover_drains);
  h.mix(r.rerouted_waiting);
  h.mix(r.migrations);
  h.mix(r.migration_corruptions);
  h.mix(r.migration_recomputes);
  EXPECT_EQ(h.value(), 0x25617be25ced4046ull);
}

// Prefix-sharing pins: the digests cover each request's prefix-hit
// tokens and the prefix counters, so a radix index that matched, kept or
// erased a different page set fails here even where the schedule does
// not move.

// Session traffic on a pressured pool: attach, publish and evict paths.
TEST(ScheduleGoldenTest, SessionPrefixPressured) {
  EngineConfig cfg = test::prefix_engine();
  cfg.memory_headroom = 0.25;
  const EngineResult r = run_engine(cfg, generate_trace(test::session_trace()));
  ASSERT_GT(r.prefix_pages_attached, 0u);
  EXPECT_EQ(test::prefix_digest(r), 0x8dfaeb6474d17f13ull);
}

// Tighter still: admissions reclaim retained prefix pages, so the erase
// cascade (which pages a reclaimed page takes with it, in what order)
// decides which pages free.
TEST(ScheduleGoldenTest, SessionPrefixReclaim) {
  EngineConfig cfg = test::prefix_engine();
  cfg.memory_headroom = 0.20;
  const EngineResult r = run_engine(cfg, generate_trace(test::session_trace()));
  ASSERT_GT(r.retained_pages_reclaimed, 0u);
  EXPECT_EQ(test::prefix_digest(r), 0x883b656461374ab9ull);
}

// Session traffic through the crushed pool: guarantee reclaim evicts
// victims that hold shared prefix pages, so a page's charge moves between
// classes as its second reference comes and goes. The other pins never
// evict a guarantee-reclaim victim holding a shared page.
TEST(ScheduleGoldenTest, SharedPrefixGuaranteeReclaim) {
  TraceConfig t = overload_mix_trace();
  t.arrival_rate = 8.0;
  t.shared_prefix_tokens = 512;
  t.shared_prefix_fraction = 0.8;
  t.session_turns = 3;
  t.session_gap_s = 1.0;
  t.agentic_fraction = 0.4;
  const EngineResult r = run_engine(crushed_engine(), generate_trace(t));
  ASSERT_GT(r.preemptions, 0u);
  ASSERT_GT(r.prefix_pages_attached, 0u);
  EXPECT_EQ(test::prefix_digest(r), 0x18d9188cd6ab53afull);
}

// The benchmark's fleet_sessions shape, 120 s of it: four affinity-routed
// replicas, four-turn sessions, 80% behind a shared 1,024-token prompt.
// Every arrival scores each replica's radix index.
TEST(ScheduleGoldenTest, FleetSessionsShape) {
  fleet::FleetConfig cfg;
  cfg.engine.device = sim::a100_sxm_80gb();
  cfg.engine.geometry = sim::phi3_medium_geometry();
  cfg.engine.method = sim::AttnMethod::kTurbo;
  cfg.engine.attention.kv_bits = 3.0;
  cfg.replicas = 4;
  cfg.route = fleet::RoutePolicy::kAffinity;
  TraceConfig t;
  t.arrival_rate = 0.8;
  t.duration_s = 120.0;
  t.class_mix = {0.3, 0.5, 0.2};
  t.ttft_deadline_s = {2.0, 10.0, 0.0};
  t.session_turns = 4;
  t.shared_prefix_tokens = 1024;
  t.shared_prefix_fraction = 0.8;
  t.session_gap_s = 5.0;
  t.agentic_fraction = 0.25;
  t.seed = 336;
  const fleet::FleetResult r = fleet::run_fleet(cfg, generate_trace(t));
  ASSERT_GT(r.affinity_hits, 0u);
  test::Fnv h;
  for (const EngineResult& e : r.replica_results) {
    h.mix(test::prefix_digest(e));
  }
  h.mixd(r.makespan_s);
  h.mix(r.affinity_hits);
  h.mix(r.affinity_misses);
  EXPECT_EQ(h.value(), 0x37cecacc3e333590ull);
}

// --- Golden summary digests -------------------------------------------------
//
// Every field of ServingMetrics and FleetMetrics, named one by one, so a
// counter the summary code drops, double-counts or merges by the wrong
// rule moves the pin even where the schedule does not.

void mix_metrics(test::Fnv& h, const ServingMetrics& m) {
  h.mix(m.completed);
  h.mix(m.rejected);
  h.mix(m.unfinished);
  h.mix(static_cast<std::uint64_t>(m.hit_time_limit));
  h.mixd(m.output_tokens_per_s);
  h.mixd(m.ttft_p50);
  h.mixd(m.ttft_p99);
  h.mixd(m.tpot_p50);
  h.mixd(m.tpot_p99);
  h.mixd(m.e2e_p50);
  h.mixd(m.e2e_p99);
  h.mixd(m.utilization);
  h.mix(m.peak_batch);
  h.mixd(m.peak_kv_gb);
  h.mix(m.timed_out);
  h.mix(m.shed);
  h.mix(m.ladder_escalations);
  h.mix(m.ladder_deescalations);
  h.mix(m.degraded_iterations);
  h.mix(m.degraded_admissions);
  h.mixd(m.min_kv_bits);
  h.mixd(m.degrade_rmse_proxy);
  for (const ClassBreakdown& cb : m.by_class) {
    h.mix(cb.requests);
    h.mix(cb.completed);
    h.mix(cb.rejected);
    h.mix(cb.timed_out);
    h.mix(cb.shed);
    h.mix(cb.preemptions);
    h.mixd(cb.ttft_p50);
    h.mixd(cb.ttft_p99);
    h.mixd(cb.e2e_p99);
    h.mix(cb.deadline_requests);
    h.mix(cb.deadline_met);
    h.mixd(cb.ttft_attainment);
  }
  h.mix(m.preemptions);
  h.mix(m.preempted_recompute);
  h.mix(m.preempted_swap);
  h.mix(m.swap_ins);
  h.mixd(m.swap_out_gb);
  h.mixd(m.swap_in_gb);
  h.mixd(m.swap_stall_s);
  h.mix(m.checksum_failures);
  h.mix(m.recoveries);
  h.mix(m.degraded_steps);
  h.mix(m.injected_alloc_failures);
  h.mix(m.max_preemptions_single_request);
  h.mix(m.recomputed_tokens);
  h.mix(m.snapshots_written);
  h.mix(m.snapshot_bytes);
  h.mix(m.snapshot_restores);
  h.mix(m.snapshot_corruptions);
  h.mix(m.restored_requests);
  h.mix(m.replayed_tokens);
  h.mix(m.crash_recomputes);
  h.mix(m.replica_crashes);
  h.mix(m.dedupe_drops);
  h.mix(m.tier_demotions);
  h.mix(m.tier_promotions);
  h.mix(m.tier_failovers);
  h.mix(m.tier_blacklists);
  h.mix(m.tier_fetch_retries);
  h.mix(m.swap_unavailable_recomputes);
  h.mix(m.swap_overflow_recomputes);
  h.mix(m.swap_tiers_used);
  h.mixd(m.tier_retry_stall_s);
  for (const TieredSwapStore::TierCounters& tc : m.tier_stats) {
    h.mix(tc.stores);
    h.mix(tc.hits);
    h.mix(tc.demotions_in);
    h.mix(tc.promotions_out);
    h.mix(tc.failures);
    h.mix(tc.blacklists);
  }
  h.mix(m.prefix_hit_tokens);
  h.mix(m.prefix_hit_requests);
  h.mix(m.prefix_pages_attached);
  h.mix(m.retained_pages_reclaimed);
  h.mix(m.prefilled_tokens);
  h.mix(m.peak_referenced_pages);
  h.mix(m.prefill_handoffs);
}

std::uint64_t metrics_digest(const ServingMetrics& m) {
  test::Fnv h;
  mix_metrics(h, m);
  return h.value();
}

// The fleet union, each replica in result order, then the router's own.
std::uint64_t metrics_digest(const fleet::FleetMetrics& m) {
  test::Fnv h;
  mix_metrics(h, m.fleet);
  for (const ServingMetrics& rm : m.replicas) mix_metrics(h, rm);
  h.mix(m.replica_count);
  h.mix(m.routed);
  h.mix(m.replica_outages);
  h.mix(m.failover_drains);
  h.mix(m.rerouted_waiting);
  h.mix(m.migrations);
  h.mix(m.migration_corruptions);
  h.mix(m.migration_recomputes);
  h.mix(m.migration_budget_exhausted);
  h.mix(static_cast<std::uint64_t>(m.hit_time_limit));
  h.mix(m.prefill_replica_count);
  h.mix(m.handoffs);
  h.mix(m.handoff_corruptions);
  h.mix(m.handoff_retries);
  h.mix(m.handoff_budget_exhausted);
  h.mix(m.handoff_recomputes);
  h.mix(m.role_fallback_prefills);
  h.mix(m.backpressure_deferrals);
  h.mix(m.affinity_hits);
  h.mix(m.affinity_misses);
  h.mixd(m.migrated_gb);
  h.mixd(m.migration_stall_s);
  h.mixd(m.handoff_gb);
  h.mixd(m.handoff_stall_s);
  return h.value();
}

TEST(MetricsGoldenTest, CrushedSwap) {
  const ServingMetrics m = summarize(
      run_engine(crushed_engine(), generate_trace(overload_mix_trace())));
  ASSERT_GT(m.preempted_swap, 0u);
  ASSERT_GT(m.tier_stats[0].stores, 0u);
  EXPECT_EQ(metrics_digest(m), 0x18739582d8b70a71ull);
}

// ScheduleGoldenTest.FleetOutage's run.
TEST(MetricsGoldenTest, FleetOutage) {
  fleet::FleetConfig cfg;
  cfg.engine = pressured_engine();
  cfg.replicas = 4;
  cfg.engine.faults.replicas[1].add_outage(2.0, 8.0);
  TraceConfig t = overload_mix_trace();
  t.class_mix = {0.3, 0.5, 0.2};
  const fleet::FleetMetrics m =
      fleet::summarize_fleet(fleet::run_fleet(cfg, generate_trace(t)));
  ASSERT_GT(m.migrations, 0u);
  EXPECT_EQ(metrics_digest(m), 0xfc66e1c77b36b36eull);
}

// Two prefill and two decode replicas with faulty handoffs: retries,
// corrupt transfers and the recompute fallback all fire.
TEST(MetricsGoldenTest, DisaggHandoffFaults) {
  fleet::FleetConfig cfg;
  cfg.engine = pressured_engine();
  cfg.replicas = 4;
  cfg.prefill_replicas = 2;
  cfg.engine.faults.seed = 11;
  cfg.engine.faults.handoff_transient_prob = 0.1;
  cfg.engine.faults.migration_corruption_prob = 0.05;
  TraceConfig t = overload_mix_trace();
  t.class_mix = {0.3, 0.5, 0.2};
  const fleet::FleetMetrics m =
      fleet::summarize_fleet(fleet::run_fleet(cfg, generate_trace(t)));
  ASSERT_GT(m.handoff_retries, 0u);
  ASSERT_GT(m.handoff_recomputes, 0u);
  EXPECT_EQ(metrics_digest(m), 0x97d3ded9b4b6b3c8ull);
}

// The chaos harness at seed 7: crashes, restores, flapping outages and
// tier death, so crashed incarnations follow the final ones.
TEST(MetricsGoldenTest, ChaosSeed7) {
  fleet::FleetConfig cfg;
  cfg.engine = pressured_engine();
  cfg.replicas = 4;
  TraceConfig t = overload_mix_trace();
  fleet::apply_chaos(cfg, 7, 0.8, t.duration_s);
  const fleet::FleetMetrics m =
      fleet::summarize_fleet(fleet::run_fleet(cfg, generate_trace(t)));
  ASSERT_GT(m.fleet.replica_crashes, 0u);
  ASSERT_GT(m.replicas.size(), m.replica_count);
  EXPECT_EQ(metrics_digest(m), 0xa2f04e8444a95951ull);
}

// --- Expiry-index edge cases ------------------------------------------------

Request make_request(std::uint64_t id, double arrival_s, ServiceClass c,
                     double ttft_deadline_s) {
  Request r;
  r.id = id;
  r.arrival_s = arrival_s;
  r.prompt_tokens = 128;
  r.max_new_tokens = 32;
  r.service_class = c;
  r.ttft_deadline_s = ttft_deadline_s;
  return r;
}

// Every allocation fails, so nothing is ever admitted and the engine
// idles from one event to the next.
EngineConfig blocked_engine() {
  EngineConfig c = pressured_engine();
  c.faults.page_alloc_failure_prob = 1.0;
  return c;
}

const Request& by_id(const EngineResult& r, std::uint64_t id) {
  const auto it =
      std::find_if(r.requests.begin(), r.requests.end(),
                   [id](const Request& q) { return q.id == id; });
  TURBO_CHECK(it != r.requests.end());
  return *it;
}

void run_to_done(Engine& e) {
  while (!e.done() && e.step(kInf)) {
  }
}

// A re-routed request joins the back of its class queue behind
// requests whose deadlines come later, and still times out at its own.
TEST(ExpiryIndexTest, AdoptedRequestTimesOutAtItsOwnDeadline) {
  Engine e(blocked_engine());
  e.submit(make_request(0, 0.0, ServiceClass::kStandard, 10.0));
  e.submit(make_request(1, 0.0, ServiceClass::kStandard, 10.0));
  e.step(0.2);  // pulls both, admits neither, idles to the horizon
  ASSERT_EQ(e.now(), 0.2);
  MigratableRequest m;
  m.request = make_request(2, 0.1, ServiceClass::kStandard, 1.0);
  m.remaining = m.request.max_new_tokens;
  m.prompt_left = m.request.prompt_tokens;
  e.adopt(m, e.now(), false);
  run_to_done(e);
  const EngineResult r = e.finish();
  EXPECT_EQ(r.timed_out, 3u);
  EXPECT_EQ(by_id(r, 2).outcome, Outcome::kTimedOut);
  EXPECT_EQ(by_id(r, 2).finish_s, 0.1 + 1.0 + kIdleExpiryStep);
  EXPECT_EQ(by_id(r, 0).finish_s, 0.0 + 10.0 + kIdleExpiryStep);
  EXPECT_EQ(by_id(r, 1).finish_s, 0.0 + 10.0 + kIdleExpiryStep);
}

// A waiting request times out in the middle of its queue; a snapshot
// and a drain taken right after that step carry only the live requests,
// and the union of source and destination holds each request once, in
// one terminal state.
TEST(ExpiryIndexTest, DrainAndSnapshotSkipTimedOutWaitingRequests) {
  EngineConfig cfg = pressured_engine();
  cfg.max_batch = 1;  // the occupant holds the only batch slot
  Engine src(cfg);
  Request occupant = make_request(0, 0.0, ServiceClass::kInteractive, 0.0);
  occupant.max_new_tokens = 2000;
  src.submit(occupant);
  src.submit(make_request(1, 1.0, ServiceClass::kStandard, 0.0));
  src.submit(make_request(2, 1.0, ServiceClass::kStandard, 0.5));
  src.submit(make_request(3, 1.0, ServiceClass::kStandard, 0.0));
  const double expiry = 1.0 + 0.5;
  while (src.now() <= expiry + 1e-9) ASSERT_TRUE(src.step(kInf));
  ASSERT_TRUE(src.step(kInf));  // times request 2 out at its start

  SnapshotStore store;
  src.snapshot_to(store, nullptr);
  const SnapshotStore::RestoreOutcome snap = store.restore(0, nullptr);
  ASSERT_EQ(snap.status, SnapshotStore::RestoreStatus::kHit);
  std::vector<std::uint64_t> snapped;
  for (const SnapshotEntry& s : snap.snapshot.entries) {
    snapped.push_back(s.request.id);
  }
  EXPECT_EQ(snapped, (std::vector<std::uint64_t>{0, 1, 3}));

  const std::vector<MigratableRequest> lifted = src.drain();
  std::vector<std::uint64_t> drained;
  for (const MigratableRequest& m : lifted) drained.push_back(m.request.id);
  EXPECT_EQ(drained, (std::vector<std::uint64_t>{0, 1, 3}));

  Engine dst(pressured_engine());
  dst.advance_to(src.now());
  for (const MigratableRequest& m : lifted) dst.adopt(m, src.now(), false);
  run_to_done(dst);
  const EngineResult a = src.finish();
  const EngineResult b = dst.finish();
  ASSERT_EQ(a.requests.size(), 1u);
  EXPECT_EQ(a.requests[0].id, 2u);
  EXPECT_EQ(a.requests[0].outcome, Outcome::kTimedOut);
  std::vector<std::uint64_t> ids;
  for (const Request& q : b.requests) {
    ids.push_back(q.id);
    EXPECT_EQ(q.outcome, Outcome::kCompleted) << q.id;
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 1, 3}));
}

// At the shed level a request that timed out at the back of its
// queue is not shed again and does not use up the per-step shed budget.
TEST(ExpiryIndexTest, ShedSkipsTimedOutBackEntryWithoutSpendingBudget) {
  EngineConfig cfg = pressured_engine();
  cfg.max_batch = 1;
  cfg.degrade.enabled = true;
  cfg.degrade.window_iters = 1;
  cfg.degrade.low_watermark = 0.0;   // never de-escalates
  cfg.degrade.high_watermark = 1e-6;  // any occupancy escalates
  cfg.degrade.max_shed_per_iter = 2;
  Engine e(cfg);
  Request occupant = make_request(0, 0.0, ServiceClass::kInteractive, 0.0);
  occupant.max_new_tokens = 2000;
  e.submit(occupant);
  // Pulled in one step, by which time request 4's deadline has passed.
  for (std::uint64_t id = 1; id <= 3; ++id) {
    e.submit(make_request(id, 1.0, ServiceClass::kBatch, 0.0));
  }
  e.submit(make_request(4, 1.0, ServiceClass::kBatch, 1e-6));
  run_to_done(e);
  const EngineResult r = e.finish();
  const Request& expired = by_id(r, 4);
  ASSERT_EQ(expired.outcome, Outcome::kTimedOut);
  EXPECT_EQ(r.timed_out, 1u);
  // The two newest live requests are shed in that same step.
  EXPECT_EQ(by_id(r, 3).outcome, Outcome::kShed);
  EXPECT_EQ(by_id(r, 3).finish_s, expired.finish_s);
  EXPECT_EQ(by_id(r, 2).outcome, Outcome::kShed);
  EXPECT_EQ(by_id(r, 2).finish_s, expired.finish_s);
  EXPECT_GT(by_id(r, 1).finish_s, expired.finish_s);
}

// With admission blocked the engine idles straight to each waiting
// request's expiry: the TTFT deadline, or the e2e one when it is sooner.
TEST(ExpiryIndexTest, BlockedIdleEngineTimesOutAtExactExpiry) {
  Engine e(blocked_engine());
  e.submit(make_request(0, 0.5, ServiceClass::kInteractive, 1.0));
  Request e2e = make_request(1, 0.75, ServiceClass::kStandard, 2.0);
  e2e.e2e_deadline_s = 0.5;
  e.submit(e2e);
  run_to_done(e);
  const EngineResult r = e.finish();
  ASSERT_EQ(r.timed_out, 2u);
  EXPECT_EQ(by_id(r, 0).finish_s, 0.5 + 1.0 + kIdleExpiryStep);
  EXPECT_EQ(by_id(r, 1).finish_s, 0.75 + 0.5 + kIdleExpiryStep);
}

// Deadlines carried but not enforced: no expiry is tracked, so the
// blocked engine retries on its backoff tick and never stops at one.
TEST(ExpiryIndexTest, UnenforcedDeadlinesAreNotIndexed) {
  EngineConfig cfg = blocked_engine();
  cfg.enforce_deadlines = false;
  Engine e(cfg);
  e.submit(make_request(0, 0.0, ServiceClass::kInteractive, 0.3));
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(e.step(kInf));
    EXPECT_EQ(e.now(), cfg.backoff_base_s * static_cast<double>(i));
  }
  const EngineResult r = e.finish();
  EXPECT_EQ(r.timed_out, 0u);
  EXPECT_EQ(r.requests[0].outcome, Outcome::kPending);
}

// --- Submission order -------------------------------------------------------

// The order check holds against every arrival already taken, not just the
// ones still pending: once the pending queue has drained, an earlier
// arrival is still refused.
TEST(SubmitOrderTest, EarlierArrivalAfterPendingQueueDrainedThrows) {
  Engine e(pressured_engine());
  e.submit(make_request(0, 5.0, ServiceClass::kStandard, 0.0));
  while (e.now() < 5.0) ASSERT_TRUE(e.step(kInf));
  ASSERT_TRUE(e.step(kInf));  // pulls the arrival: nothing left pending
  EXPECT_THROW(e.submit(make_request(1, 1.0, ServiceClass::kStandard, 0.0)),
               CheckError);
  e.submit(make_request(2, 5.0, ServiceClass::kStandard, 0.0));
}

}  // namespace
}  // namespace turbo::serving
