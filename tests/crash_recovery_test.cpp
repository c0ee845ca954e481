// Crash faults, crash-consistent snapshots and the seeded chaos harness
// (src/serving/snapshot.h, src/fleet/router.h, src/fleet/chaos.h).
//
// The contracts under test: snapshot serialization round-trips through
// the CRC-framed stream format and a flipped byte is detected, never
// silently accepted; the snapshot store's fault hooks are injectable and
// leave the previous snapshot intact on an unavailable save; a mid-run
// crash recovers every in-flight request through the restore ->
// recompute -> dedupe ladder into exactly one terminal state;
// snapshot-enabled recovery recomputes measurably fewer tokens than
// recompute-only recovery; seeded crash and chaos runs are bit-identical
// run to run; a crash that never fires leaves the run bit-identical to a
// crash-free plan; and the post-run chaos audit holds on a composed
// disaster schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/crc32.h"
#include "common/fault.h"
#include "fleet/chaos.h"
#include "fleet/metrics.h"
#include "fleet/router.h"
#include "kvcache/serialization.h"
#include "serving/metrics.h"
#include "serving/snapshot.h"
#include "serving/trace.h"
#include "sim/attention_model.h"

namespace turbo::fleet {
namespace {

using serving::EngineConfig;
using serving::EngineResult;
using serving::Outcome;
using serving::ReplicaSnapshot;
using serving::Request;
using serving::SnapshotEntry;
using serving::SnapshotStore;
using serving::TraceConfig;

// Same workload shape as the fleet router suite: enough concurrent work
// that a mid-run crash loses running, paused and waiting requests alike.
TraceConfig crash_trace() {
  TraceConfig t;
  t.arrival_rate = 24.0;
  t.duration_s = 15.0;
  t.prompt_log_mean = 5.5;
  t.prompt_log_std = 0.5;
  t.gen_log_mean = 5.0;
  t.gen_log_std = 0.5;
  t.seed = 29;
  return t;
}

EngineConfig crash_engine() {
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
  f.engine = crash_engine();
  f.replicas = replicas;
  return f;
}

// Crash replica 1 mid-run with a short restart delay.
FleetConfig crash_fleet(std::size_t replicas, double snapshot_interval) {
  FleetConfig f = base_fleet(replicas);
  f.engine.faults.replicas[1].crash_at_s = 6.0;
  f.engine.faults.replicas[1].restart_delay_s = 0.5;
  f.snapshot_interval_s = snapshot_interval;
  return f;
}

// Sum one EngineResult counter over every incarnation in the run.
template <typename F>
std::size_t sum_incarnations(const FleetResult& r, F field) {
  std::size_t total = 0;
  for (const EngineResult& er : r.replica_results) total += field(er);
  return total;
}

std::size_t terminal_count(const FleetResult& r) {
  std::size_t n = 0;
  for (const Request& req : r.requests) {
    if (req.outcome != Outcome::kPending) ++n;
  }
  return n;
}

// Order-independent digest over everything a request carries out of the
// run, the fleet counters, and the per-incarnation crash-recovery
// counters — two runs compare in full.
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
  mix(r.routed);
  mix(r.replica_outages);
  mix(r.failover_drains);
  mix(r.migrations);
  mix(r.migration_corruptions);
  mix(r.migration_recomputes);
  mix(static_cast<std::uint64_t>(r.hit_time_limit));
  mix(r.replica_results.size());
  for (const EngineResult& er : r.replica_results) {
    mix(er.snapshots_written);
    mix(er.snapshot_bytes);
    mix(er.snapshot_restores);
    mix(er.snapshot_corruptions);
    mix(er.restored_requests);
    mix(er.replayed_tokens);
    mix(er.crash_recomputes);
    mix(er.replica_crashes);
    mix(er.dedupe_drops);
  }
  return h;
}

ReplicaSnapshot sample_snapshot() {
  ReplicaSnapshot snap;
  snap.replica = 3;
  snap.taken_at_s = 12.5;
  Request r;
  r.id = 41;
  r.arrival_s = 1.25;
  r.prompt_tokens = 96;
  r.max_new_tokens = 64;
  r.prompt_ids = {7, 11, 13, 17};
  r.service_class = serving::ServiceClass::kInteractive;
  r.ttft_deadline_s = 2.5;
  r.prefill_start_s = 1.5;
  r.first_token_s = 1.75;
  r.generated = 12;
  r.preemptions = 2;
  r.recomputed_tokens = 40;
  r.kv_bits_used = 4.0;
  snap.entries.push_back(SnapshotEntry{r, 108, 52, 0, 432.0, 6912.0});
  Request w;
  w.id = 55;
  w.arrival_s = 12.0;
  w.prompt_tokens = 200;
  w.max_new_tokens = 32;
  snap.entries.push_back(SnapshotEntry{w, 0, 32, 200, 0.0, 0.0});
  return snap;
}

// --- snapshot codec -------------------------------------------------------

TEST(SnapshotCodecTest, RoundTripPreservesEveryField) {
  const ReplicaSnapshot snap = sample_snapshot();
  const std::vector<std::uint8_t> bytes = serving::serialize_snapshot(snap);
  const ReplicaSnapshot back = serving::deserialize_snapshot(bytes);
  EXPECT_EQ(back.replica, snap.replica);
  EXPECT_DOUBLE_EQ(back.taken_at_s, snap.taken_at_s);
  ASSERT_EQ(back.entries.size(), snap.entries.size());
  for (std::size_t i = 0; i < snap.entries.size(); ++i) {
    const SnapshotEntry& a = snap.entries[i];
    const SnapshotEntry& b = back.entries[i];
    EXPECT_EQ(b.request.id, a.request.id);
    EXPECT_DOUBLE_EQ(b.request.arrival_s, a.request.arrival_s);
    EXPECT_EQ(b.request.prompt_tokens, a.request.prompt_tokens);
    EXPECT_EQ(b.request.prompt_ids, a.request.prompt_ids);
    EXPECT_EQ(b.request.service_class, a.request.service_class);
    EXPECT_DOUBLE_EQ(b.request.first_token_s, a.request.first_token_s);
    EXPECT_EQ(b.request.generated, a.request.generated);
    EXPECT_EQ(b.request.preemptions, a.request.preemptions);
    EXPECT_EQ(b.request.recomputed_tokens, a.request.recomputed_tokens);
    EXPECT_EQ(b.request.outcome, a.request.outcome);
    EXPECT_EQ(b.context, a.context);
    EXPECT_EQ(b.remaining, a.remaining);
    EXPECT_EQ(b.prompt_left, a.prompt_left);
    EXPECT_DOUBLE_EQ(b.kv_bits, a.kv_bits);
    EXPECT_DOUBLE_EQ(b.bytes, a.bytes);
  }
}

TEST(SnapshotCodecTest, FlippedByteFailsTheCrc) {
  std::vector<std::uint8_t> bytes =
      serving::serialize_snapshot(sample_snapshot());
  // Every single-byte change, CRC bytes included, is a burst of at most
  // 8 bits, which the trailing CRC-32 always catches.
  std::size_t caught = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (unsigned mask = 1; mask < 256; ++mask) {
      bytes[i] ^= static_cast<std::uint8_t>(mask);
      try {
        serving::deserialize_snapshot(bytes);
      } catch (const IntegrityError&) {
        ++caught;
      }
      bytes[i] ^= static_cast<std::uint8_t>(mask);
    }
  }
  EXPECT_EQ(caught, bytes.size() * 255);
}

// Rewrites the trailing CRC-32 so a doctored payload passes the integrity
// layer and reaches the parser.
void reseal(std::vector<std::uint8_t>& bytes) {
  const std::uint32_t crc = crc32(
      std::span<const std::uint8_t>(bytes.data(), bytes.size() - 4));
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

TEST(SnapshotCodecTest, EveryTruncationIsRejected) {
  const std::vector<std::uint8_t> bytes =
      serving::serialize_snapshot(sample_snapshot());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW(serving::deserialize_snapshot(
                     std::span<const std::uint8_t>(bytes.data(), n)),
                 CheckError)
        << "prefix of " << n << " bytes";
  }
}

TEST(SnapshotCodecTest, HostileEntryCountWithAValidCrcIsACheckError) {
  std::vector<std::uint8_t> bytes =
      serving::serialize_snapshot(sample_snapshot());
  // The entry count follows magic, version, replica and taken_at_s.
  constexpr std::size_t kCountAt = 4 + 4 + 8 + 8;
  const std::uint64_t hostile = std::uint64_t{1} << 40;
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[kCountAt + i] = static_cast<std::uint8_t>(hostile >> (8 * i));
  }
  reseal(bytes);
  // A CheckError, not std::bad_alloc from reserving 2^40 entries.
  EXPECT_THROW(serving::deserialize_snapshot(bytes), CheckError);
}

TEST(SnapshotCodecTest, OutOfRangeEnumsWithAValidCrcAreCheckErrors) {
  ReplicaSnapshot snap = sample_snapshot();
  snap.entries[0].request.service_class = serving::ServiceClass::kInteractive;
  snap.entries[0].request.outcome = Outcome::kPending;
  const std::vector<std::uint8_t> base = serving::serialize_snapshot(snap);
  // Finds the one payload byte where `changed` serializes differently from
  // `snap` (the enum's low byte), sets it to 200 and reseals the CRC.
  auto expect_rejected = [&](const ReplicaSnapshot& changed) {
    const std::vector<std::uint8_t> other =
        serving::serialize_snapshot(changed);
    ASSERT_EQ(other.size(), base.size());
    std::vector<std::size_t> diff;
    for (std::size_t i = 0; i + 4 < base.size(); ++i) {
      if (base[i] != other[i]) diff.push_back(i);
    }
    ASSERT_EQ(diff.size(), 1u);
    std::vector<std::uint8_t> bytes = base;
    bytes[diff[0]] = 200;
    reseal(bytes);
    EXPECT_THROW(serving::deserialize_snapshot(bytes), CheckError);
  };

  ReplicaSnapshot other = snap;
  other.entries[0].request.service_class = serving::ServiceClass::kStandard;
  expect_rejected(other);
  other = snap;
  other.entries[0].request.outcome = Outcome::kCompleted;
  expect_rejected(other);
}

TEST(SnapshotCodecTest, SmallestEntriesStillRoundTrip) {
  // Entries with no prompt ids sit exactly at the decoder's per-entry
  // size bound; a stream of nothing else must still parse.
  ReplicaSnapshot snap;
  snap.replica = 1;
  snap.entries.resize(3);
  for (std::size_t i = 0; i < snap.entries.size(); ++i) {
    snap.entries[i].request.id = i;
  }
  const ReplicaSnapshot back =
      serving::deserialize_snapshot(serving::serialize_snapshot(snap));
  ASSERT_EQ(back.entries.size(), 3u);
  EXPECT_EQ(back.entries[2].request.id, 2u);
}

// --- snapshot store fault hooks -------------------------------------------

TEST(SnapshotStoreTest, UnavailableSaveKeepsThePreviousSnapshot) {
  FaultPlan plan;
  plan.seed = 11;
  plan.snapshot_unavailable_prob = 1.0;
  FaultInjector fault(plan);

  SnapshotStore store;
  ReplicaSnapshot snap = sample_snapshot();
  // First save without the injector: the baseline snapshot lands.
  const auto first = store.save(3, snap, nullptr);
  EXPECT_TRUE(first.stored);
  EXPECT_GT(first.bytes, 0u);
  // Faulted save: nothing written, the baseline survives.
  snap.taken_at_s = 99.0;
  const auto second = store.save(3, snap, &fault);
  EXPECT_FALSE(second.stored);
  EXPECT_EQ(fault.injected_snapshot_unavailable(), 1u);
  const auto restored = store.restore(3, nullptr);
  ASSERT_EQ(restored.status, SnapshotStore::RestoreStatus::kHit);
  EXPECT_DOUBLE_EQ(restored.snapshot.taken_at_s, 12.5);
}

TEST(SnapshotStoreTest, CorruptRestoreIsDetectedAndConsumed) {
  FaultPlan plan;
  plan.seed = 11;
  plan.snapshot_corruption_prob = 1.0;
  FaultInjector fault(plan);

  SnapshotStore store;
  ASSERT_TRUE(store.save(3, sample_snapshot(), nullptr).stored);
  const auto restored = store.restore(3, &fault);
  EXPECT_EQ(restored.status, SnapshotStore::RestoreStatus::kCorrupt);
  EXPECT_EQ(fault.injected_snapshot_corruptions(), 1u);
  // The blob is consumed either way: a second restore misses.
  EXPECT_FALSE(store.contains(3));
  EXPECT_EQ(store.restore(3, nullptr).status,
            SnapshotStore::RestoreStatus::kMissing);
}

// --- crash recovery ladder ------------------------------------------------

TEST(CrashRecoveryTest, CrashBeforeFirstSnapshotRecomputesEverything) {
  // No snapshot cadence: the replacement engine has nothing to restore
  // and every in-flight request with KV re-enters through recompute.
  const FleetResult r =
      run_fleet(crash_fleet(4, 0.0), generate_trace(crash_trace()));
  EXPECT_FALSE(r.hit_time_limit);
  EXPECT_EQ(terminal_count(r), r.requests.size());
  EXPECT_EQ(r.replica_results.size(), 5u);  // 4 finals + 1 crashed
  EXPECT_EQ(sum_incarnations(
                r, [](const EngineResult& e) { return e.replica_crashes; }),
            1u);
  EXPECT_EQ(sum_incarnations(
                r, [](const EngineResult& e) { return e.snapshot_restores; }),
            0u);
  EXPECT_EQ(sum_incarnations(
                r, [](const EngineResult& e) { return e.restored_requests; }),
            0u);
  EXPECT_GT(sum_incarnations(
                r, [](const EngineResult& e) { return e.crash_recomputes; }),
            0u);
}

TEST(CrashRecoveryTest, SnapshotRestoreBringsRequestsBack) {
  const FleetResult r =
      run_fleet(crash_fleet(4, 1.0), generate_trace(crash_trace()));
  EXPECT_FALSE(r.hit_time_limit);
  EXPECT_EQ(terminal_count(r), r.requests.size());
  EXPECT_GT(sum_incarnations(
                r, [](const EngineResult& e) { return e.snapshots_written; }),
            0u);
  EXPECT_EQ(sum_incarnations(
                r, [](const EngineResult& e) { return e.snapshot_restores; }),
            1u);
  EXPECT_GT(sum_incarnations(
                r, [](const EngineResult& e) { return e.restored_requests; }),
            0u);
}

TEST(CrashRecoveryTest, CorruptSnapshotFallsBackToRecompute) {
  FleetConfig f = crash_fleet(4, 1.0);
  f.engine.faults.snapshot_corruption_prob = 1.0;
  const FleetResult r = run_fleet(f, generate_trace(crash_trace()));
  EXPECT_FALSE(r.hit_time_limit);
  EXPECT_EQ(terminal_count(r), r.requests.size());
  EXPECT_EQ(sum_incarnations(
                r,
                [](const EngineResult& e) { return e.snapshot_corruptions; }),
            1u);
  EXPECT_EQ(sum_incarnations(
                r, [](const EngineResult& e) { return e.restored_requests; }),
            0u);
  EXPECT_GT(sum_incarnations(
                r, [](const EngineResult& e) { return e.crash_recomputes; }),
            0u);
}

TEST(CrashRecoveryTest, CompletedPreCrashRequestsAreDeduped) {
  // Crash late enough that requests snapshotted mid-flight have since
  // completed: their stale snapshot entries must be dropped, not re-run.
  FleetConfig f = base_fleet(4);
  f.engine.faults.replicas[1].crash_at_s = 10.0;
  f.engine.faults.replicas[1].restart_delay_s = 0.5;
  f.snapshot_interval_s = 1.0;
  const FleetResult r = run_fleet(f, generate_trace(crash_trace()));
  EXPECT_FALSE(r.hit_time_limit);
  // The fleet union is the exactly-one-terminal-state proof; the dedupe
  // counter shows the ladder actually dropped stale entries.
  EXPECT_EQ(terminal_count(r), r.requests.size());
  EXPECT_GT(sum_incarnations(
                r, [](const EngineResult& e) { return e.dedupe_drops; }),
            0u);
  // The crashed incarnation kept its pre-crash completions.
  ASSERT_EQ(r.replica_results.size(), 5u);
  EXPECT_GT(r.replica_results[4].requests.size(), 0u);
}

TEST(CrashRecoveryTest, SnapshotsRecomputeFewerTokensThanRecomputeOnly) {
  const auto trace = generate_trace(crash_trace());
  const FleetResult without = run_fleet(crash_fleet(4, 0.0), trace);
  const FleetResult with = run_fleet(crash_fleet(4, 1.0), trace);
  const auto recomputed = [](const FleetResult& r) {
    std::size_t total = 0;
    for (const EngineResult& er : r.replica_results) {
      total += er.recomputed_tokens;
    }
    return total;
  };
  const auto replayed = [](const FleetResult& r) {
    std::size_t total = 0;
    for (const EngineResult& er : r.replica_results) {
      total += er.replayed_tokens;
    }
    return total;
  };
  // Snapshot restores re-enter through the swap-in path: measurably
  // fewer KV tokens re-derived than full recompute-from-prompt, and a
  // smaller replay window (post-snapshot delta vs whole context).
  EXPECT_LT(recomputed(with), recomputed(without));
  EXPECT_LT(replayed(with), replayed(without));
  EXPECT_GT(sum_incarnations(
                with,
                [](const EngineResult& e) { return e.restored_requests; }),
            0u);
}

// --- determinism ----------------------------------------------------------

TEST(CrashDeterminismTest, SeededCrashRunIsBitIdentical) {
  const auto trace = generate_trace(crash_trace());
  const FleetResult a = run_fleet(crash_fleet(4, 1.0), trace);
  const FleetResult b = run_fleet(crash_fleet(4, 1.0), trace);
  EXPECT_EQ(digest(a), digest(b));
}

TEST(CrashDeterminismTest, UnfiredCrashLeavesTheRunBitIdentical) {
  // A crash scheduled far past the makespan never fires: pure wall-clock
  // detection must leave the run bit-identical to a crash-free plan.
  const auto trace = generate_trace(crash_trace());
  FleetConfig armed = base_fleet(4);
  armed.engine.faults.replicas[1].crash_at_s = 1.0e6;
  armed.engine.faults.replicas[1].restart_delay_s = 1.0;
  const FleetResult clean = run_fleet(base_fleet(4), trace);
  const FleetResult never = run_fleet(armed, trace);
  EXPECT_EQ(digest(clean), digest(never));
  EXPECT_EQ(never.replica_results.size(), 4u);
}

// --- flapping outages -----------------------------------------------------

TEST(FlappingReplicaTest, EachWindowDrainsTheReplicaAgain) {
  FleetConfig f = base_fleet(4);
  f.engine.faults.replicas[1].add_outage(2.0, 5.0);
  f.engine.faults.replicas[1].add_outage(8.0, 11.0);
  const FleetResult r = run_fleet(f, generate_trace(crash_trace()));
  EXPECT_FALSE(r.hit_time_limit);
  EXPECT_EQ(r.replica_outages, 2u);
  EXPECT_GT(r.failover_drains, 0u);
  EXPECT_EQ(terminal_count(r), r.requests.size());
}

// --- chaos harness --------------------------------------------------------

TEST(ChaosHarnessTest, ComposedScheduleSurvivesTheAudit) {
  FleetConfig f = base_fleet(4);
  apply_chaos(f, 7, 0.8, crash_trace().duration_s);
  // The schedule composes crashes with everything else and always
  // enables snapshots.
  EXPECT_GT(f.snapshot_interval_s, 0.0);
  std::size_t crash_plans = 0;
  for (std::size_t i = 0; i < f.replicas; ++i) {
    if (f.engine.faults.replicas[i].crash_enabled()) ++crash_plans;
  }
  EXPECT_GE(crash_plans, 1u);

  const auto trace = generate_trace(crash_trace());
  const FleetResult r = run_fleet(f, trace);
  const ChaosAudit audit = audit_fleet(r, trace.size());
  EXPECT_TRUE(audit.ok) << (audit.failures.empty()
                                ? std::string("?")
                                : audit.failures.front());
  EXPECT_GT(sum_incarnations(
                r, [](const EngineResult& e) { return e.replica_crashes; }),
            0u);
}

TEST(ChaosHarnessTest, SameSeedSameDisaster) {
  const auto trace = generate_trace(crash_trace());
  FleetConfig a = base_fleet(4);
  FleetConfig b = base_fleet(4);
  apply_chaos(a, 21, 0.6, crash_trace().duration_s);
  apply_chaos(b, 21, 0.6, crash_trace().duration_s);
  EXPECT_EQ(digest(run_fleet(a, trace)), digest(run_fleet(b, trace)));
}

TEST(ChaosHarnessTest, AuditCatchesALostRequest) {
  const auto trace = generate_trace(crash_trace());
  FleetResult r = run_fleet(base_fleet(2), trace);
  ASSERT_TRUE(audit_fleet(r, trace.size()).ok);
  // Drop one terminal request: the audit must notice both the short
  // union and the broken per-incarnation accounting.
  r.requests.pop_back();
  const ChaosAudit broken = audit_fleet(r, trace.size());
  EXPECT_FALSE(broken.ok);
  EXPECT_FALSE(broken.failures.empty());
}

}  // namespace
}  // namespace turbo::fleet
