#include "fleet/router.h"

#include <algorithm>
#include <limits>

namespace turbo::fleet {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

MigrationChannel::Outcome MigrationChannel::migrate(std::size_t bytes,
                                                    FaultInjector* fault) {
  Outcome out;
  // A zero-byte stream never touches the wire: no transfer time and —
  // critically for RNG draw-order parity — no corruption Bernoulli draw,
  // so a run that migrates an empty stream stays bit-identical to one
  // that skips the call entirely.
  if (bytes == 0) return out;
  out.transfer_s = static_cast<double>(bytes) / bandwidth_;
  // In-transit corruption is one seeded Bernoulli draw; the CRC layer on
  // the destination detects it, so a corrupt stream costs the wire time
  // plus a recompute — never silent corruption.
  out.corrupted = fault != nullptr && fault->corrupt_migration();
  return out;
}

Router::Router(const FleetConfig& config)
    : config_(config),
      fleet_fault_(config.engine.faults),
      channel_(config.interconnect_bandwidth) {
  TURBO_CHECK_MSG(config_.replicas >= 1 && config_.replicas <= kMaxReplicas,
                  "fleet size must be in [1, kMaxReplicas]");
  TURBO_CHECK_MSG(config_.prefill_replicas < config_.replicas,
                  "disaggregation must leave at least one decode replica");
  TURBO_CHECK_MSG(config_.decode_watermark > 0.0 &&
                      config_.decode_watermark <= 1.0,
                  "decode_watermark must be in (0, 1]");
  TURBO_CHECK_MSG(config_.handoff_retry_budget >= 1,
                  "handoff_retry_budget must allow at least one attempt");
  TURBO_CHECK_MSG(config_.handoff_retry_backoff_s >= 0.0,
                  "handoff_retry_backoff_s must be >= 0");
  TURBO_CHECK_MSG(config_.snapshot_interval_s >= 0.0,
                  "snapshot_interval_s must be >= 0");
  engines_.reserve(config_.replicas);
  for (std::size_t i = 0; i < config_.replicas; ++i) {
    engines_.emplace_back(replica_cfg(i));
  }
  down_.assign(config_.replicas, 0);
  down_until_.assign(config_.replicas, 0.0);
  next_window_.assign(config_.replicas, 0);
  crash_fired_.assign(config_.replicas, 0);
  last_snapshot_.assign(config_.replicas, 0.0);
}

serving::EngineConfig Router::replica_cfg(std::size_t i) const {
  serving::EngineConfig c = config_.engine;
  c.replica_id = i;
  // Derived per-replica fault seed: independent Bernoulli streams per
  // replica, replica 0 at the base seed so a 1-replica fleet draws the
  // exact sequence run_engine() would. A crashed replica's replacement
  // reuses the same seed: it draws a fresh, deterministic stream.
  c.faults.seed = config_.engine.faults.seed + i;
  // Role split: replicas [0, P) prefill and hand off; the rest decode
  // (and self-prefill only when the prefill pool is dark).
  c.role = is_prefill(i) ? serving::EngineRole::kPrefillOnly
                         : serving::EngineRole::kFull;
  return c;
}

bool Router::eligible(std::size_t i, double t) {
  if (down_[i] != 0) {
    // Lazy revival: the first routing decision after the downtime ends
    // (outage window close, or crash restart) brings the replica back —
    // its clock idled through the blackout.
    if (t >= down_until_[i]) {
      engines_[i].advance_to(t);
      down_[i] = 0;
      return true;
    }
    return false;
  }
  // A replica whose window covers t but whose own clock has not entered
  // it yet is already unroutable — admission stops the moment the
  // router's clock sees the outage; the drain fires when the replica's
  // clock catches up.
  return !fleet_fault_.replica_down(i, t);
}

bool Router::in_scope(std::size_t i, Scope scope) const {
  switch (scope) {
    case Scope::kAny:
      return true;
    case Scope::kPrefill:
      return is_prefill(i);
    case Scope::kDecode:
      return !is_prefill(i);
  }
  return true;
}

bool Router::over_watermark(std::size_t i) const {
  return static_cast<double>(engines_[i].referenced_pages()) >=
         config_.decode_watermark *
             static_cast<double>(engines_[i].total_pages());
}

bool Router::decode_pool_saturated(double t) {
  bool any = false;
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    if (!in_scope(i, Scope::kDecode) || !eligible(i, t)) continue;
    any = true;
    if (!over_watermark(i)) return false;
  }
  return any;
}

std::size_t Router::pick_round_robin(std::size_t& cursor, double t,
                                     Scope scope) {
  const std::size_t n = engines_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (cursor + k) % n;
    if (!in_scope(i, scope)) continue;
    if (eligible(i, t)) {
      cursor = (i + 1) % n;
      return i;
    }
  }
  return n;
}

std::size_t Router::pick_least_pages(double t, Scope scope) {
  const std::size_t n = engines_.size();
  std::size_t best = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (!in_scope(i, scope) || !eligible(i, t)) continue;
    if (best == n ||
        engines_[i].used_pages() < engines_[best].used_pages()) {
      best = i;  // ties keep the lowest index
    }
  }
  return best;
}

std::size_t Router::pick_affinity(const serving::Request& r, double t,
                                  Scope scope) {
  // Longest resident prefix wins (ties keep the lowest index — every
  // lane scans in the same order, so the pick is deterministic). A
  // target over the decode watermark is skipped at scoring time: cache
  // affinity must not funnel a hot session onto a saturated replica.
  const std::size_t n = engines_.size();
  std::size_t best = n;
  std::size_t best_tokens = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!in_scope(i, scope) || !eligible(i, t)) continue;
    if (over_watermark(i)) continue;
    const std::size_t tokens = engines_[i].prefix_match_tokens(r);
    if (tokens > best_tokens) {
      best = i;
      best_tokens = tokens;
    }
  }
  if (best < n) {
    ++result_.affinity_hits;
    return best;
  }
  // No healthy under-watermark replica holds any prefix: fall back to
  // the memory-pressure signal.
  ++result_.affinity_misses;
  return pick_least_pages(t, scope);
}

void Router::ensure_some_replica_up(double t) {
  // Every replica is down: revive the one whose downtime ends first, at
  // that end — the request waits out the blackout rather than being
  // lost.
  const std::size_t n = engines_.size();
  std::size_t best = n;
  double best_end = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    if (down_[i] == 0) continue;
    const double end = down_until_[i];
    if (end < best_end) {
      best = i;
      best_end = end;
    }
  }
  if (best == n) return;
  engines_[best].advance_to(std::max(t, best_end));
  down_[best] = 0;
}

std::size_t Router::pick_policy(const serving::Request& r, double t,
                                Scope scope) {
  switch (config_.route) {
    case RoutePolicy::kRoundRobin:
      return pick_round_robin(rr_cursor_, t, scope);
    case RoutePolicy::kLeastOutstandingPages:
      return pick_least_pages(t, scope);
    case RoutePolicy::kClassAware:
      if (r.service_class == serving::ServiceClass::kInteractive) {
        return pick_least_pages(t, scope);
      } else if (r.service_class == serving::ServiceClass::kStandard) {
        return pick_round_robin(standard_cursor_, t, scope);
      } else {
        return pick_round_robin(batch_cursor_, t, scope);
      }
    case RoutePolicy::kAffinity:
      return pick_affinity(r, t, scope);
  }
  return engines_.size();
}

std::size_t Router::earliest_recovering(double t) const {
  // Every replica is dark at t — already marked down, or its plan covers
  // t before its own clock drained it. Place on the one whose downtime
  // ends first; its own outage/crash will drain or recover the request.
  const std::size_t n = engines_.size();
  std::size_t best = 0;
  double best_end = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    const double end = down_[i] != 0
                           ? down_until_[i]
                           : config_.engine.faults.replicas[i].down_until(t);
    if (end < best_end) {
      best = i;
      best_end = end;
    }
  }
  return best;
}

std::size_t Router::pick_with_fallback(const serving::Request& r, double t,
                                       Scope scope) {
  const std::size_t n = engines_.size();
  if (scope != Scope::kAny) {
    // Failure ladder, rung 1: the preferred role.
    std::size_t pick = pick_policy(r, t, scope);
    if (pick < n) return pick;
    // Rung 2: the opposite role — graceful degradation to symmetric
    // mode. A prompt landing on a decode replica self-prefills there
    // (role_fallback_prefills); decode work landing on a prefill
    // replica decodes there (adopted mid-decode work never re-enters
    // the prefill path). A dead role costs latency, never liveness.
    const Scope other =
        scope == Scope::kPrefill ? Scope::kDecode : Scope::kPrefill;
    pick = pick_policy(r, t, other);
    if (pick < n) {
      if (scope == Scope::kPrefill) ++result_.role_fallback_prefills;
      return pick;
    }
  }
  // Rung 3: the symmetric blackout machinery — revive the earliest-
  // recovering down replica and retry, then wait out the blackout on
  // the replica that recovers first.
  for (int pass = 0; pass < 2; ++pass) {
    const std::size_t pick = pick_policy(r, t, Scope::kAny);
    if (pick < n) return pick;
    ensure_some_replica_up(t);
  }
  return earliest_recovering(t);
}

std::size_t Router::pick_replica(const serving::Request& r, double t) {
  // Arrivals carry a prompt: in disaggregated mode they prefer the
  // prefill pool; symmetric fleets consider everyone (bit-identical to
  // the pre-disaggregation router).
  return pick_with_fallback(r, t, disagg() ? Scope::kPrefill : Scope::kAny);
}

void Router::failover(const serving::MigratableRequest& m, double t) {
  serving::MigratableRequest moved = m;
  ++moved.request.replica_failovers;
  Scope scope = Scope::kAny;
  if (disagg()) {
    // Role-aware failover: work still in (or before) prefill re-routes
    // to a sibling prefill replica; mid-decode work stays in the decode
    // pool. Either pool being dark degrades to the other inside
    // pick_with_fallback — a dead role costs latency, never liveness.
    scope = (moved.prompt_left > 0 || moved.context == 0) ? Scope::kPrefill
                                                          : Scope::kDecode;
  }
  const std::size_t dst = pick_with_fallback(moved.request, t, scope);
  if (moved.context == 0) {
    // Nothing cached at drain: a plain re-route, no bytes on the wire.
    ++result_.rerouted_waiting;
    engines_[dst].adopt(moved, t, false);
    return;
  }
  const bool within_budget =
      moved.request.replica_failovers <= config_.failover_budget;
  if (moved.has_stream && within_budget) {
    const MigrationChannel::Outcome out = channel_.migrate(
        static_cast<std::size_t>(moved.bytes), &fleet_fault_);
    ++result_.migrations;
    result_.migrated_bytes += moved.bytes;
    result_.migration_stall_s += out.transfer_s;
    if (out.corrupted) {
      // CRC caught the transfer fault on arrival: the wire time was
      // paid, the payload is unusable, the destination recomputes.
      ++result_.migration_corruptions;
      ++result_.migration_recomputes;
      engines_[dst].adopt(moved, t + out.transfer_s, false);
    } else {
      engines_[dst].adopt(moved, t + out.transfer_s, true);
    }
    return;
  }
  // Over the failover budget (or the source had no parked stream): the
  // terminal fallback — recompute the KV from the prompt on the
  // destination. Costs latency, never liveness.
  if (moved.has_stream && !within_budget) {
    ++result_.migration_budget_exhausted;
  }
  ++result_.migration_recomputes;
  engines_[dst].adopt(moved, t, false);
}

void Router::handoff(const serving::MigratableRequest& m,
                     FaultInjector* fault) {
  serving::MigratableRequest moved = m;
  const double t = moved.ready_s;
  ++result_.handoffs;
  // Destination ladder: least-loaded decode replica; whole decode pool
  // dark → any healthy replica (a prefill sibling can decode adopted
  // work — its handoff trigger only fires at prompt completion, which
  // adopted mid-decode work never revisits); everyone dark → revive the
  // earliest-recovering replica and wait out the blackout.
  const std::size_t n = engines_.size();
  std::size_t dst = pick_least_pages(t, Scope::kDecode);
  if (dst == n) dst = pick_least_pages(t, Scope::kAny);
  if (dst == n) {
    ensure_some_replica_up(t);
    dst = pick_least_pages(t, Scope::kAny);
  }
  if (dst == n) dst = earliest_recovering(t);
  if (!moved.has_stream) {
    // Recompute preemption mode parks no stream: the decode side
    // re-derives the KV from the prompt. No wire traffic, no draws.
    ++result_.handoff_recomputes;
    engines_[dst].adopt(moved, t, false);
    return;
  }
  // Stream the KV across the interconnect, retrying transient faults
  // with linear backoff inside a per-request attempt budget.
  double arrive = t;
  bool sent = false;
  bool corrupted = false;
  for (std::size_t attempt = 0; attempt < config_.handoff_retry_budget;
       ++attempt) {
    if (fault != nullptr && fault->handoff_transient()) {
      // Transient interconnect fault before the payload moved: back off
      // (linearly in the attempt number) and retry.
      ++result_.handoff_retries;
      arrive +=
          static_cast<double>(attempt + 1) * config_.handoff_retry_backoff_s;
      continue;
    }
    const MigrationChannel::Outcome out =
        channel_.migrate(static_cast<std::size_t>(moved.bytes), fault);
    result_.handoff_bytes += moved.bytes;
    result_.handoff_stall_s += out.transfer_s;
    arrive += out.transfer_s;
    sent = true;
    corrupted = out.corrupted;
    break;
  }
  if (sent && !corrupted) {
    engines_[dst].adopt(moved, arrive, true);
    return;
  }
  if (corrupted) {
    // CRC caught the in-transit fault on arrival: the wire time was
    // paid, the payload is unusable, the decode side recomputes.
    ++result_.handoff_corruptions;
  } else {
    ++result_.handoff_budget_exhausted;
  }
  ++result_.handoff_recomputes;
  engines_[dst].adopt(moved, arrive, false);
}

void Router::crash_restart(std::size_t i, double t) {
  const ReplicaFaultPlan& plan = config_.engine.faults.replicas[i];
  // The process dies with its state: nothing is migrated. drain() is
  // reused only as the mechanical enumerator of what was in flight — the
  // lost list tells recovery what it must bring back, and drain() draws
  // no RNG, so crash detection never perturbs a fault stream.
  const std::vector<serving::MigratableRequest> lost = engines_[i].drain();
  // The dead incarnation's terminal requests (and its counters, snapshot
  // traffic included) survive in its result, appended to replica_results
  // after the final per-replica entries.
  crashed_results_.push_back(engines_[i].finish());
  const double restart = std::max(t, plan.restart_at_s());
  // Rebuild the engine from the same per-replica config and rehydrate it
  // through the recovery ladder: snapshot entry → recompute from the
  // prompt → dedupe (entries whose request already finished or migrated
  // away pre-crash are dropped, never re-run).
  engines_[i] = serving::Engine(replica_cfg(i));
  engines_[i].restore_from(snapshots_, lost, restart, &fleet_fault_);
  down_[i] = 1;
  down_until_[i] = restart;
  last_snapshot_[i] = restart;
}

FleetResult Router::run(std::vector<serving::Request> trace) {
  TURBO_CHECK_MSG(!ran_, "Router::run() is single-shot");
  ran_ = true;
  std::sort(trace.begin(), trace.end(),
            [](const serving::Request& a, const serving::Request& b) {
              return a.arrival_s < b.arrival_s;
            });
  const double limit = config_.engine.max_sim_time_s;
  const std::size_t n = engines_.size();
  std::size_t next = 0;  // next unrouted arrival

  while (true) {
    // Fault transitions: crashes and outage windows, both pure
    // wall-clock checks against the replica's own clock — detecting
    // either never perturbs any fault RNG stream.
    for (std::size_t i = 0; i < n; ++i) {
      if (down_[i] != 0) continue;
      const double now_i = engines_[i].now();
      const ReplicaFaultPlan& plan = config_.engine.faults.replicas[i];
      // A clock that jumped past the whole crash blackout (revived from
      // an overlapping outage after restart_at_s) slept through it: the
      // replica held nothing while "crashed", so there is nothing to
      // lose or recover — retire the crash instead of firing it late.
      if (crash_fired_[i] == 0 && plan.crash_enabled() &&
          now_i >= plan.restart_at_s()) {
        crash_fired_[i] = 1;
      }
      // Crash first: the abrupt failure beats the polite drain when both
      // cover the same instant. One crash per replica per run.
      if (crash_fired_[i] == 0 && fleet_fault_.replica_crashed(i, now_i)) {
        crash_fired_[i] = 1;
        crash_restart(i, now_i);
        continue;
      }
      // Outage windows fire in start order, one drain per window (a
      // flapping replica drains on every window it enters). Windows the
      // replica's clock skipped entirely — eclipsed by a crash blackout
      // or a busy step that overshot them — are dropped, never replayed.
      while (next_window_[i] < plan.outages.size() &&
             plan.outages[next_window_[i]].end_s <= now_i) {
        ++next_window_[i];
      }
      if (next_window_[i] >= plan.outages.size() ||
          !plan.outages[next_window_[i]].covers(now_i)) {
        continue;
      }
      down_[i] = 1;
      down_until_[i] = plan.outages[next_window_[i]].end_s;
      ++next_window_[i];
      ++result_.replica_outages;
      const std::vector<serving::MigratableRequest> drained =
          engines_[i].drain();
      result_.failover_drains += drained.size();
      for (const serving::MigratableRequest& m : drained) {
        failover(m, now_i);
      }
    }

    // Prefill→decode handoffs: collect finished prefills from healthy
    // prefill replicas and stream each across the interconnect. (Member
    // call via this-> — the channel entry point itself carries the
    // FaultInjector* parameter the static analyzer demands.)
    if (disagg()) {
      for (std::size_t i = 0; i < config_.prefill_replicas; ++i) {
        if (down_[i] != 0) continue;
        for (const serving::MigratableRequest& m :
             engines_[i].take_prefilled()) {
          this->handoff(m, &fleet_fault_);
        }
      }
    }

    // The fleet frontier: the replica with work furthest behind in time
    // runs next, so replica iterations interleave in global time order
    // (ties go to the lowest index). A down replica holds work only
    // while crash-restarting (outage drains empty the replica; adoption
    // targets only healthy replicas) — its restored requests make it a
    // frontier candidate at its restart time, so recovered work can
    // never strand inside a rebooting replica.
    double tmin = kInf;
    std::size_t who = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!engines_[i].has_work()) continue;
      double t_i = engines_[i].now();
      if (down_[i] != 0) t_i = std::max(t_i, down_until_[i]);
      if (t_i < tmin) {
        tmin = t_i;
        who = i;
      }
    }
    const double ta = next < trace.size() ? trace[next].arrival_s : kInf;

    if (who == n && next >= trace.size()) break;  // fleet fully drained

    if (ta <= tmin) {
      // Decode-pool backpressure: when every healthy decode replica sits
      // at or over the watermark, hold prefill admission and let the
      // fleet drain an iteration first. Only defers while some replica
      // has work to step — an idle fleet always admits, so backpressure
      // can stall an arrival but never strand it (liveness backstop).
      const bool defer = disagg() && who != n && decode_pool_saturated(ta);
      if (!defer) {
        // The next fleet event is an arrival: route it before any
        // replica steps past it.
        const std::size_t dst = pick_replica(trace[next], ta);
        engines_[dst].submit(std::move(trace[next]));
        ++result_.routed;
        ++next;
        continue;
      }
      if (backpressured_arrival_ != next) {
        // Count each arrival's deferral once, however many iterations
        // it waits.
        backpressured_arrival_ = next;
        ++result_.backpressure_deferrals;
      }
    }

    // Mirrors run_engine's `now < max_sim_time_s` loop condition: once
    // every replica with work is at or past the stop, in-flight requests
    // strand as kPending.
    if (tmin >= limit) break;

    // A down frontier winner is a crash-restarting replica whose
    // restored work is now the oldest in the fleet: bring it up at its
    // restart time before stepping it.
    if (down_[who] != 0) {
      engines_[who].advance_to(std::max(engines_[who].now(),
                                        down_until_[who]));
      down_[who] = 0;
    }

    // Step the frontier replica one iteration. The horizon caps its idle
    // jumps at the next unrouted arrival (which it cannot see in its own
    // pending queue), at its own next not-yet-fired outage start, and at
    // its not-yet-fired crash instant, so the loop-top fault probes land
    // exactly on the window/crash edge.
    double horizon = ta;
    const ReplicaFaultPlan& w = config_.engine.faults.replicas[who];
    if (next_window_[who] < w.outages.size() &&
        w.outages[next_window_[who]].start_s > engines_[who].now()) {
      horizon = std::min(horizon, w.outages[next_window_[who]].start_s);
    }
    if (crash_fired_[who] == 0 && w.crash_enabled() &&
        w.crash_at_s > engines_[who].now()) {
      horizon = std::min(horizon, w.crash_at_s);
    }
    engines_[who].step(horizon);

    // Periodic crash-consistent snapshot: once the replica's clock
    // passes the per-replica cadence, serialize its scheduler + KV state
    // into the fleet store (fault-injectable save — the store may drop
    // it, leaving the previous snapshot in place).
    if (config_.snapshot_interval_s > 0.0 &&
        engines_[who].now() >=
            last_snapshot_[who] + config_.snapshot_interval_s) {
      engines_[who].snapshot_to(snapshots_, &fleet_fault_);
      last_snapshot_[who] = engines_[who].now();
    }
  }

  // The loop-top handoff poll runs before every break, down replicas
  // lift their queues inside drain(), and no engine steps between the
  // poll and a break — so no finished prefill can be stranded in a
  // handoff queue at exit.
  for (std::size_t i = 0; i < n; ++i) {
    TURBO_CHECK_MSG(engines_[i].take_prefilled().empty(),
                    "a finished prefill was stranded at shutdown");
  }

  // Teardown leaves no recovery state behind: snapshots are operational
  // scratch, not results, so the store must drain to empty with them.
  for (std::size_t i = 0; i < n; ++i) snapshots_.erase(i);
  TURBO_CHECK_MSG(snapshots_.count() == 0,
                  "fleet teardown left snapshots behind");

  // Finalize: per-replica results, the fleet union, and the invariants
  // the whole subsystem exists to uphold. Crashed incarnations
  // contribute their pre-crash terminal requests to the union; their
  // in-flight work moved into the replacement engine at restore time.
  result_.replica_count = n;
  result_.prefill_replica_count = config_.prefill_replicas;
  bool any_limit = next < trace.size();
  result_.replica_results.reserve(n + crashed_results_.size());
  for (std::size_t i = 0; i < n; ++i) {
    serving::EngineResult er = engines_[i].finish();
    result_.makespan_s = std::max(result_.makespan_s, er.makespan_s);
    any_limit = any_limit || er.hit_time_limit;
    for (const serving::Request& r : er.requests) {
      result_.requests.push_back(r);
    }
    result_.replica_results.push_back(std::move(er));
  }
  for (serving::EngineResult& er : crashed_results_) {
    any_limit = any_limit || er.hit_time_limit;
    for (const serving::Request& r : er.requests) {
      result_.requests.push_back(r);
    }
    result_.replica_results.push_back(std::move(er));
  }
  crashed_results_.clear();
  // Arrivals the safety stop stranded before routing: still accounted
  // for, still kPending.
  for (; next < trace.size(); ++next) {
    result_.requests.push_back(trace[next]);
  }
  result_.hit_time_limit = any_limit;

  // Exactly-one-terminal-state across the fleet: every trace request
  // appears exactly once in the union (drained requests moved — not
  // copied — between replicas), and each is terminal unless the safety
  // stop fired. Requires unique request ids, which the swap-stream key
  // namespace already demands.
  TURBO_CHECK_MSG(result_.requests.size() == trace.size(),
                  "fleet lost or duplicated a request");
  std::vector<std::uint64_t> ids;
  ids.reserve(result_.requests.size());
  for (const serving::Request& r : result_.requests) ids.push_back(r.id);
  std::sort(ids.begin(), ids.end());
  TURBO_CHECK_MSG(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
                  "a request reached more than one terminal state");
  if (!result_.hit_time_limit) {
    for (const serving::Request& r : result_.requests) {
      TURBO_CHECK_MSG(r.outcome != serving::Outcome::kPending,
                      "a request finished the run without a terminal state");
    }
  }
  return std::move(result_);
}

FleetResult run_fleet(const FleetConfig& config,
                      std::vector<serving::Request> trace) {
  Router router(config);
  return router.run(std::move(trace));
}

}  // namespace turbo::fleet
