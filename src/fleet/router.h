// Fleet serving: a health-checked router over N data-parallel engine
// replicas with outage drain and KV-migration failover.
//
// Each replica is a full serving stack (continuous-batching scheduler,
// paged KV, tiered swap store) behind the steppable Engine API. The
// router owns the fleet clock: it interleaves replica iterations in
// global time order, routes each arrival to a replica chosen by a
// pluggable policy, and drives a deterministic replica health model from
// the FaultPlan's per-replica outage windows (pure wall-clock checks —
// no RNG draws — so a seeded fleet run is bit-identical across build
// configurations and sanitizers).
//
// When a replica's clock enters one of its outage windows the router
// stops admitting to it, drains every in-flight request, and fails each
// one over: requests whose KV stream survives the drain are migrated
// over a modeled interconnect (CRC-checked; corrupt transfers are
// detected and recovered by recomputing the KV on the destination),
// subject to a per-request failover budget; everything else — and every
// request over budget — re-enters through the recompute-from-prompt
// path, the terminal fallback that turns a dead replica into latency,
// never lost requests. Windows can repeat: a flapping replica drains on
// every window it enters.
//
// A *crash* (ReplicaFaultPlan::crash_at_s) is the impolite failure: no
// drain, no migration — the replica's in-flight state dies with it. The
// router rebuilds the engine after restart_delay_s and rehydrates it
// from the last crash-consistent snapshot (SnapshotStore; each replica
// snapshots every snapshot_interval_s). The recovery ladder: restore
// from the snapshot entry when one exists, recompute from the prompt
// when the snapshot predates the request or failed its CRC, and drop
// snapshot entries whose request already reached a terminal state (or
// migrated away) pre-crash. Fleet invariants: every request reaches
// exactly one terminal state across the fleet — through crash and
// restart included — and a drained replica leaks no pages, no parked
// swap streams and no snapshots.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "serving/engine.h"

namespace turbo::fleet {

// How the router spreads arrivals over healthy replicas.
enum class RoutePolicy : std::uint8_t {
  // Rotate a cursor over healthy replicas: perfectly fair, load-blind.
  kRoundRobin = 0,
  // Pick the healthy replica holding the fewest KV pages: tracks actual
  // memory pressure, so one long-context request does not queue others
  // behind it.
  kLeastOutstandingPages = 1,
  // Class-aware: interactive requests go least-outstanding-pages (their
  // TTFT pays directly for queueing), standard and batch each rotate
  // their own round-robin cursor so bulk traffic spreads evenly without
  // polluting the interactive placement signal.
  kClassAware = 2,
  // Cache-affinity: steer each arrival to the replica whose RadixIndex
  // holds the longest matching prefix of its prompt, so a session's
  // follow-up turns land where their history is already resident. Falls
  // back to least-outstanding-pages when no replica holds a prefix, or
  // when the affinity target is unhealthy or over the decode watermark
  // (a hot replica must not absorb every turn of a hot session).
  kAffinity = 3,
};

inline const char* route_policy_name(RoutePolicy p) {
  switch (p) {
    case RoutePolicy::kRoundRobin:
      return "round-robin";
    case RoutePolicy::kLeastOutstandingPages:
      return "least-pages";
    case RoutePolicy::kClassAware:
      return "class-aware";
    case RoutePolicy::kAffinity:
      return "affinity";
  }
  return "?";
}

struct FleetConfig {
  // Template for every replica. Per-replica copies differ only in
  // replica_id (namespaces swap-stream keys) and the fault seed: replica
  // i runs at seed + i, so replicas draw independent fault streams while
  // replica 0 keeps the base seed — a 1-replica fleet is bit-identical
  // to run_engine() on the same config.
  serving::EngineConfig engine;
  std::size_t replicas = 2;
  RoutePolicy route = RoutePolicy::kClassAware;
  // Modeled replica-to-replica interconnect (bytes/s) carrying migrated
  // KV streams. The default is NVLink-generation bandwidth.
  double interconnect_bandwidth = 64.0 * 1024.0 * 1024.0 * 1024.0;
  // Per-request failover budget: after this many replica failovers a
  // request's KV is no longer migrated — it re-enters through the
  // recompute path, bounding the interconnect traffic one unlucky
  // request can generate.
  std::size_t failover_budget = 2;

  // --- Prefill/decode disaggregation (Splitwise/DistServe-style) ----------
  // Replicas [0, prefill_replicas) run chunked prefill only and stream
  // finished KV to the decode replicas [prefill_replicas, replicas) over
  // the migration channel. 0 keeps the fleet symmetric (every replica
  // both prefills and decodes — the pre-disaggregation behavior,
  // bit-identical). When set, it must leave at least one decode replica.
  std::size_t prefill_replicas = 0;
  // Referenced-page fraction above which a decode replica counts as
  // saturated: when every healthy decode replica is over it, prefill
  // admission is deferred (backpressure) instead of over-committing the
  // decode pool; the affinity policy also falls back past a target over
  // this watermark. Retained prefix cache is reclaimable and exempt.
  double decode_watermark = 0.90;
  // Per-request handoff send budget: attempts (each may hit a transient
  // interconnect fault, FaultPlan::handoff_transient_prob) before the
  // stream is dropped and the decode side recomputes from the prompt.
  std::size_t handoff_retry_budget = 3;
  // Backoff added before the k-th retry of a handoff send (linear:
  // k * backoff), modeling interconnect congestion avoidance.
  double handoff_retry_backoff_s = 0.05;

  // --- Crash-consistent snapshots -----------------------------------------
  // Period between crash-consistent state snapshots per replica. Each
  // snapshot serializes the replica's scheduler + KV occupancy through
  // the CRC-framed stream format into the fleet SnapshotStore; after a
  // crash the replacement engine restores from the last one instead of
  // recomputing every in-flight request from its prompt. 0 disables
  // snapshotting (a crash then recovers purely through recompute).
  double snapshot_interval_s = 0.0;
};

// The modeled interconnect. Every migration entry point takes the fault
// injector so in-transit corruption is injectable and seed-deterministic
// (turbo_lint rule "unfaultable-replica-channel" enforces the shape).
class MigrationChannel {
 public:
  explicit MigrationChannel(double bandwidth_bytes_per_s)
      : bandwidth_(bandwidth_bytes_per_s) {
    TURBO_CHECK_MSG(bandwidth_ > 0.0,
                    "interconnect bandwidth must be > 0");
  }

  struct Outcome {
    bool corrupted = false;   // CRC mismatch detected on arrival
    double transfer_s = 0.0;  // wire time (paid even when corrupted)
  };

  // Move one serialized KV stream between replicas. A zero-byte stream
  // costs no wire time and consumes no corruption draw (RNG draw-order
  // parity: an empty transfer is indistinguishable from no transfer).
  Outcome migrate(std::size_t bytes, FaultInjector* fault);

 private:
  double bandwidth_;
};

// The router's run counters, declared once as (type, name). FleetResult
// and FleetMetrics (fleet/metrics.h) both derive from the FleetCounters
// struct generated from it.
#define TURBO_FLEET_COUNTERS(X)                                               \
  X(std::size_t, replica_count)                                               \
  X(std::size_t, prefill_replica_count)  /* 0 = symmetric fleet */            \
  X(std::size_t, routed)                 /* arrivals placed on a replica */   \
  X(std::size_t, replica_outages)        /* outage windows that fired */      \
  /* requests drained off dying replicas */                                   \
  X(std::size_t, failover_drains)                                             \
  /* drained with no KV: plain re-routes */                                   \
  X(std::size_t, rerouted_waiting)                                            \
  X(std::size_t, migrations)             /* KV streams moved over the wire */ \
  X(std::size_t, migration_corruptions)  /* CRC-detected transfer faults */   \
  /* Failovers that landed through the recompute path: corrupted              \
     migrations plus streams over budget or unparkable at the source. */      \
  X(std::size_t, migration_recomputes)                                        \
  /* over-budget stream drops */                                              \
  X(std::size_t, migration_budget_exhausted)                                  \
                                                                              \
  /* --- Prefill->decode handoff (disaggregated mode) -------------------- */ \
  X(std::size_t, handoffs)               /* finished prefills handed over */  \
  X(std::size_t, handoff_corruptions)    /* CRC-detected handoff faults */    \
  X(std::size_t, handoff_retries)        /* transient-fault send retries */   \
  /* send budget ran out */                                                   \
  X(std::size_t, handoff_budget_exhausted)                                    \
  /* Handoffs that landed through the recompute path: corrupted or            \
     over-budget transfers plus streamless (recompute-mode) sources. */       \
  X(std::size_t, handoff_recomputes)                                          \
  /* Arrivals prefilled by a decode replica because no prefill replica was    \
     healthy: the graceful degradation to symmetric mode. */                  \
  X(std::size_t, role_fallback_prefills)                                      \
  /* Arrivals whose admission was deferred at least once because every        \
     healthy decode replica sat over the decode watermark (backpressure on    \
     prefill admission instead of over-committing the decode pool). */        \
  X(std::size_t, backpressure_deferrals)                                      \
                                                                              \
  /* --- Affinity routing ------------------------------------------------ */ \
  /* routed to a prefix-holding replica */                                    \
  X(std::size_t, affinity_hits)                                               \
  /* fell back to least-outstanding-pages */                                  \
  X(std::size_t, affinity_misses)                                             \
  /* any replica (or routing) hit the stop */                                 \
  X(bool, hit_time_limit)                                                     \
                                                                              \
  X(double, migrated_bytes)                                                   \
  /* wire time across all migrations */                                       \
  X(double, migration_stall_s)                                                \
  X(double, handoff_bytes)               /* KV bytes moved by handoffs */     \
  X(double, handoff_stall_s)             /* wire time across all handoffs */

struct FleetCounters {
  TURBO_FLEET_COUNTERS(TURBO_COUNTER_MEMBER)
};

struct FleetResult : FleetCounters {
  // Union of every replica's per-request outcomes plus any arrivals
  // stranded unrouted by the time limit: exactly one entry per trace
  // request, each in exactly one terminal state (kPending only when
  // hit_time_limit).
  std::vector<serving::Request> requests;
  // Per-replica engine results. The first replica_count entries are the
  // final incarnations, indexed by replica id; results of crashed
  // incarnations (their pre-crash terminal requests and counters) are
  // appended after, in crash order.
  std::vector<serving::EngineResult> replica_results;
  double makespan_s = 0.0;  // max replica makespan
};

// Routes one trace over a replicated fleet. Single-shot: construct, call
// run() once.
class Router {
 public:
  explicit Router(const FleetConfig& config);

  // Run the trace to completion (or the max_sim_time_s safety stop).
  // Deterministic: identical config + trace give identical results.
  FleetResult run(std::vector<serving::Request> trace);

 private:
  // Which replicas a placement may consider. kAny is the symmetric
  // fleet's view; the disaggregated router scopes arrivals to prefill
  // replicas and handoffs/mid-decode failovers to decode replicas, then
  // widens when the preferred role has no healthy member.
  enum class Scope : std::uint8_t { kAny, kPrefill, kDecode };

  // Pick the destination replica for a request at time t under the
  // configured policy. Only healthy replicas are eligible; a down
  // replica whose outage window has passed is revived first. When every
  // replica is down, the one whose outage ends first is revived at its
  // window end (the request waits out the blackout).
  std::size_t pick_replica(const serving::Request& r, double t);

  // Scoped pick with the full failure ladder: the preferred scope first,
  // then the opposite role (graceful degradation — a prefill placed on a
  // decode replica counts role_fallback_prefills), then the symmetric
  // blackout machinery (revive the earliest-recovering replica).
  std::size_t pick_with_fallback(const serving::Request& r, double t,
                                 Scope scope);

  // Fail one drained request over to a healthy replica at time t:
  // migrate its KV stream within budget, recompute otherwise. Role-aware
  // in disaggregated mode (unfinished prompts re-route to a sibling
  // prefill replica; mid-decode streams go to a decode replica).
  void failover(const serving::MigratableRequest& m, double t);

  // Land one finished prefill on a decode replica: retry transient
  // interconnect faults with backoff within the handoff budget, CRC-check
  // the transfer, degrade corrupt/over-budget/streamless handoffs to
  // recompute on the destination. Takes the fault injector so every
  // fault on the handoff path is injectable and seed-deterministic
  // (turbo_lint rule "unfaultable-replica-channel").
  void handoff(const serving::MigratableRequest& m, FaultInjector* fault);

  std::size_t pick_round_robin(std::size_t& cursor, double t, Scope scope);
  std::size_t pick_least_pages(double t, Scope scope);
  std::size_t pick_affinity(const serving::Request& r, double t,
                            Scope scope);
  // The configured policy over one scope (no widening). Returns
  // engines_.size() when the scope has no eligible replica.
  std::size_t pick_policy(const serving::Request& r, double t, Scope scope);
  bool eligible(std::size_t i, double t);
  bool in_scope(std::size_t i, Scope scope) const;
  bool is_prefill(std::size_t i) const {
    return config_.prefill_replicas > 0 && i < config_.prefill_replicas;
  }
  bool disagg() const { return config_.prefill_replicas > 0; }
  // Replica i's referenced pages sit at or above the decode watermark.
  bool over_watermark(std::size_t i) const;
  // Every healthy decode replica is over the watermark (and at least one
  // exists): admission must wait for decode to drain, not over-commit.
  bool decode_pool_saturated(double t);
  void ensure_some_replica_up(double t);
  std::size_t earliest_recovering(double t) const;
  // The per-replica engine config: replica_id = i, fault seed = base + i,
  // prefill-only role in disaggregated mode. Used at construction and to
  // rebuild a crashed replica's engine (same seed: the replacement draws
  // a fresh, deterministic fault stream).
  serving::EngineConfig replica_cfg(std::size_t i) const;
  // Kill replica i at time t: its in-flight state dies with the process
  // (nothing is migrated), the incarnation's result is stashed, and a
  // replacement engine is rebuilt and rehydrated from the last snapshot
  // (restore -> recompute -> dedupe ladder), coming up at restart time.
  void crash_restart(std::size_t i, double t);

  FleetConfig config_;
  FaultInjector fleet_fault_;  // health windows + migration/handoff faults
  MigrationChannel channel_;
  std::vector<serving::Engine> engines_;
  serving::SnapshotStore snapshots_;  // fleet-wide crash-consistent store
  std::vector<char> down_;  // inside an outage window or crash-restarting
  // Wall-clock time the current downtime ends (outage window end, or
  // crash restart time). Only meaningful while down_[i] is set.
  std::vector<double> down_until_;
  // Index of the next outage window that has not yet drained replica i
  // (windows fire in start order; a window fully eclipsed by other
  // downtime is skipped, never replayed).
  std::vector<std::size_t> next_window_;
  std::vector<char> crash_fired_;      // crash_at_s already detected
  std::vector<double> last_snapshot_;  // per-replica last snapshot clock
  // Results of crashed incarnations, appended to replica_results after
  // the final per-replica entries.
  std::vector<serving::EngineResult> crashed_results_;
  std::size_t rr_cursor_ = 0;
  std::size_t standard_cursor_ = 0;
  std::size_t batch_cursor_ = 0;
  // Last arrival index charged a backpressure deferral (each deferred
  // arrival counts once, however many iterations it waits).
  std::size_t backpressured_arrival_ = static_cast<std::size_t>(-1);
  FleetResult result_;
  bool ran_ = false;
};

// Convenience wrapper: construct a Router and run the trace.
FleetResult run_fleet(const FleetConfig& config,
                      std::vector<serving::Request> trace);

}  // namespace turbo::fleet
