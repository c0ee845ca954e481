// Prefill/decode disaggregation: role-split fleets, the prefill→decode
// KV handoff over the migration channel, decode-pool backpressure, and
// the failure ladder that degrades a dead role to symmetric mode
// (src/fleet/router.h).
//
// The contracts under test: a disaggregated fleet hands every finished
// prefill to a decode replica and still reaches exactly one terminal
// state per request; killing a prefill replica mid-run — even the only
// one — re-routes or degrades, never hangs; transient handoff faults
// retry within the budget and fall back to recompute past it; corrupt
// handoffs are CRC-detected and recomputed; decode-pool saturation
// defers admission without stranding arrivals; a zero-byte migration
// consumes no corruption draw (RNG draw-order parity); and every new
// handoff counter mirrors into FleetMetrics.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/fault.h"
#include "fleet/metrics.h"
#include "fleet/router.h"
#include "serving/metrics.h"
#include "serving/trace.h"
#include "sim/attention_model.h"

namespace turbo::fleet {
namespace {

using serving::EngineConfig;
using serving::Outcome;
using serving::Request;
using serving::TraceConfig;

TraceConfig disagg_trace() {
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

EngineConfig disagg_engine() {
  EngineConfig c;
  c.device = sim::a100_pcie_40gb();
  c.geometry = sim::phi3_mini_geometry();
  c.method = sim::AttnMethod::kTurbo;
  c.attention.kv_bits = 4.0;
  c.memory_headroom = 0.35;
  return c;
}

// P prefill replicas + D decode replicas.
FleetConfig disagg_fleet(std::size_t prefill, std::size_t decode) {
  FleetConfig f;
  f.engine = disagg_engine();
  f.replicas = prefill + decode;
  f.prefill_replicas = prefill;
  return f;
}

void expect_all_terminal(const FleetResult& r, std::size_t trace_size) {
  EXPECT_FALSE(r.hit_time_limit);
  ASSERT_EQ(r.requests.size(), trace_size);
  for (const Request& req : r.requests) {
    EXPECT_NE(req.outcome, Outcome::kPending);
  }
}

// Order-independent digest (mirrors fleet_router_test's, including the
// handoff counters) so two disaggregated runs compare in full.
std::uint64_t digest(const FleetResult& r) {
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
    mix(req.generated);
    mix(req.preemptions);
    mix(req.replica_failovers);
    mix(static_cast<std::uint64_t>(req.outcome));
  }
  mixd(r.makespan_s);
  mixd(r.handoff_bytes);
  mixd(r.handoff_stall_s);
  mix(r.routed);
  mix(r.handoffs);
  mix(r.handoff_corruptions);
  mix(r.handoff_retries);
  mix(r.handoff_budget_exhausted);
  mix(r.handoff_recomputes);
  mix(r.role_fallback_prefills);
  mix(r.backpressure_deferrals);
  mix(r.replica_outages);
  mix(r.failover_drains);
  mix(static_cast<std::uint64_t>(r.hit_time_limit));
  return h;
}

// --- Role split --------------------------------------------------------------

// 2p2d smoke: every arrival prefs on a prefill replica, every finished
// prefill crosses the wire, and decoding happens only in the decode
// pool — prefill replicas generate nothing of their own.
TEST(DisaggTest, PrefillsHandOffAndDecodePoolGenerates) {
  const std::vector<Request> trace = serving::generate_trace(disagg_trace());
  const FleetResult r = run_fleet(disagg_fleet(2, 2), trace);
  expect_all_terminal(r, trace.size());
  EXPECT_GT(r.handoffs, 0u);
  EXPECT_GT(r.handoff_bytes, 0.0);
  EXPECT_EQ(r.replica_outages, 0u);
  EXPECT_EQ(r.role_fallback_prefills, 0u);
  // The engine-side handoff counter reconciles with the router's: with
  // no outage, every queued prefill was collected and landed.
  std::size_t lifted = 0;
  std::size_t decode_completed = 0;
  for (std::size_t i = 0; i < r.replica_results.size(); ++i) {
    lifted += r.replica_results[i].prefill_handoffs;
    if (i >= 2) decode_completed += r.replica_results[i].requests.size();
    // A prefill replica never runs a decode iteration of its own: any
    // request it holds at the end generated nothing there.
    if (i < 2) {
      for (const Request& req : r.replica_results[i].requests) {
        EXPECT_EQ(req.generated, 0u);
      }
    }
  }
  EXPECT_EQ(lifted, r.handoffs);
  EXPECT_GT(decode_completed, 0u);
}

// Every handoff counter reaches FleetMetrics by name (the shared
// FleetCounters base, exercised end to end).
TEST(DisaggTest, HandoffCountersMirrorIntoFleetMetrics) {
  const std::vector<Request> trace = serving::generate_trace(disagg_trace());
  FleetConfig cfg = disagg_fleet(2, 2);
  cfg.engine.faults.handoff_transient_prob = 0.05;
  cfg.engine.faults.migration_corruption_prob = 0.05;
  const FleetResult r = run_fleet(cfg, trace);
  const FleetMetrics m = summarize_fleet(r);
  EXPECT_EQ(m.prefill_replica_count, r.prefill_replica_count);
  EXPECT_EQ(m.prefill_replica_count, 2u);
  EXPECT_EQ(m.handoffs, r.handoffs);
  EXPECT_EQ(m.handoff_corruptions, r.handoff_corruptions);
  EXPECT_EQ(m.handoff_retries, r.handoff_retries);
  EXPECT_EQ(m.handoff_budget_exhausted, r.handoff_budget_exhausted);
  EXPECT_EQ(m.handoff_recomputes, r.handoff_recomputes);
  EXPECT_EQ(m.role_fallback_prefills, r.role_fallback_prefills);
  EXPECT_EQ(m.backpressure_deferrals, r.backpressure_deferrals);
  EXPECT_EQ(m.handoff_stall_s, r.handoff_stall_s);
  std::size_t lifted = 0;
  for (const serving::ServingMetrics& rm : m.replicas) {
    lifted += rm.prefill_handoffs;
  }
  EXPECT_EQ(m.fleet.prefill_handoffs, lifted);
}

// --- Outage robustness -------------------------------------------------------

// Acceptance case: a 3p1d fleet loses one prefill replica mid-run. Its
// in-flight prompts re-route to sibling prefill replicas and every
// request still reaches exactly one terminal state — no hangs, no leaks
// (the drain asserts zero pages / zero parked streams internally).
TEST(DisaggTest, PrefillReplicaOutageRedirectsToSiblings) {
  const std::vector<Request> trace = serving::generate_trace(disagg_trace());
  FleetConfig cfg = disagg_fleet(3, 1);
  cfg.engine.faults.replicas[1].add_outage(2.0, 8.0);
  const FleetResult r = run_fleet(cfg, trace);
  expect_all_terminal(r, trace.size());
  EXPECT_EQ(r.replica_outages, 1u);
  EXPECT_GT(r.handoffs, 0u);
  EXPECT_EQ(r.routed, trace.size());
}

// The only prefill replica dies: the fleet degrades to symmetric mode —
// decode replicas self-prefill (role_fallback_prefills) until the
// window closes. A dead role costs latency, never liveness.
TEST(DisaggTest, LosingTheOnlyPrefillReplicaDegradesToSymmetric) {
  const std::vector<Request> trace = serving::generate_trace(disagg_trace());
  FleetConfig cfg = disagg_fleet(1, 3);
  cfg.engine.faults.replicas[0].add_outage(2.0, 10.0);
  const FleetResult r = run_fleet(cfg, trace);
  expect_all_terminal(r, trace.size());
  EXPECT_EQ(r.replica_outages, 1u);
  EXPECT_GT(r.role_fallback_prefills, 0u);
}

// Seeded disaggregated runs — outage, handoff faults and all — are
// bit-identical across repeats (and, via CI, across sanitizer lanes).
TEST(DisaggTest, SeededDisaggRunsAreBitIdentical) {
  const std::vector<Request> trace = serving::generate_trace(disagg_trace());
  FleetConfig cfg = disagg_fleet(2, 2);
  cfg.engine.faults.replicas[1].add_outage(2.0, 8.0);
  cfg.engine.faults.handoff_transient_prob = 0.1;
  cfg.engine.faults.migration_corruption_prob = 0.05;
  const std::uint64_t a = digest(run_fleet(cfg, trace));
  const std::uint64_t b = digest(run_fleet(cfg, trace));
  EXPECT_EQ(a, b);
}

// --- Handoff fault ladder ----------------------------------------------------

// Every send attempt hits a transient interconnect fault: the budget is
// spent retrying (with backoff), not a byte crosses the wire, and every
// handoff lands through the recompute path.
TEST(DisaggTest, TransientFaultsExhaustBudgetThenRecompute) {
  const std::vector<Request> trace = serving::generate_trace(disagg_trace());
  FleetConfig cfg = disagg_fleet(2, 2);
  cfg.engine.faults.handoff_transient_prob = 1.0;
  cfg.handoff_retry_budget = 3;
  const FleetResult r = run_fleet(cfg, trace);
  expect_all_terminal(r, trace.size());
  EXPECT_GT(r.handoffs, 0u);
  EXPECT_EQ(r.handoff_budget_exhausted, r.handoffs);
  EXPECT_EQ(r.handoff_retries, r.handoffs * 3u);
  EXPECT_GE(r.handoff_recomputes, r.handoff_budget_exhausted);
  EXPECT_EQ(r.handoff_bytes, 0.0);
}

// Every handoff stream is corrupted in transit: CRC detects each one on
// arrival and the decode side recomputes — wire time paid, no silent
// corruption, no lost request.
TEST(DisaggTest, CorruptHandoffsAreDetectedAndRecomputed) {
  const std::vector<Request> trace = serving::generate_trace(disagg_trace());
  FleetConfig cfg = disagg_fleet(2, 2);
  cfg.engine.faults.migration_corruption_prob = 1.0;
  const FleetResult r = run_fleet(cfg, trace);
  expect_all_terminal(r, trace.size());
  EXPECT_GT(r.handoffs, 0u);
  EXPECT_EQ(r.handoff_corruptions, r.handoffs);
  EXPECT_GE(r.handoff_recomputes, r.handoff_corruptions);
  EXPECT_GT(r.handoff_bytes, 0.0);
}

// --- Backpressure ------------------------------------------------------------

// An absurdly low decode watermark saturates immediately: admission is
// deferred (backpressure on the prefill pool) but every arrival is
// eventually admitted and reaches a terminal state — backpressure can
// stall an arrival, never strand it.
TEST(DisaggTest, DecodeSaturationDefersButNeverStrandsArrivals) {
  const std::vector<Request> trace = serving::generate_trace(disagg_trace());
  FleetConfig cfg = disagg_fleet(1, 1);
  cfg.decode_watermark = 0.02;
  const FleetResult r = run_fleet(cfg, trace);
  expect_all_terminal(r, trace.size());
  EXPECT_GT(r.backpressure_deferrals, 0u);
  EXPECT_EQ(r.routed, trace.size());
}

// --- Zero-byte migration audit ----------------------------------------------

// A zero-byte stream never touches the wire: no transfer time and no
// corruption Bernoulli draw. Regression for RNG draw-order parity — an
// empty migration must leave the fault stream exactly where it was, so
// the draws that follow it match a run that never made the call.
TEST(MigrationChannelTest, ZeroByteMigrateDrawsNoCorruption) {
  FaultPlan plan;
  plan.seed = 7;
  plan.migration_corruption_prob = 1.0;  // any draw would fire
  FaultInjector with_empty(plan);
  FaultInjector without(plan);
  MigrationChannel ch(1e9);

  const MigrationChannel::Outcome z = ch.migrate(0, &with_empty);
  EXPECT_FALSE(z.corrupted);
  EXPECT_EQ(z.transfer_s, 0.0);
  EXPECT_EQ(with_empty.injected_migration_corruptions(), 0u);

  // Draw-order parity: after the zero-byte call the two injectors'
  // streams are still in lockstep, draw for draw.
  plan.migration_corruption_prob = 0.5;
  FaultInjector a(plan);
  FaultInjector b(plan);
  (void)ch.migrate(0, &a);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.corrupt_migration(), b.corrupt_migration());
  }
}

}  // namespace
}  // namespace turbo::fleet
