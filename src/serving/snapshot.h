// Crash-consistent replica snapshots.
//
// An outage is polite: the fleet router drains a replica before it goes
// dark, so nothing is lost. A crash is abrupt — in-flight scheduler and
// KV state is gone with the process. The SnapshotStore is what makes a
// crash cost latency instead of work: each replica periodically
// serializes its live scheduler state (requests, prefill cursors, parked
// byte counts) into a checksummed blob, and a restarted replica
// rehydrates from the last valid snapshot, recomputing from the prompt
// only what the snapshot predates or what a failed CRC invalidates.
//
// The store mirrors the TieredSwapStore contract: every function here
// that saves or restores a snapshot takes a FaultInjector* (turbo_lint
// rule `unfaultable-snapshot-io` enforces this), so snapshot-store
// unavailability and blob corruption stay injectable and
// seed-deterministic. Zero-probability plans draw no randomness: a
// snapshot-enabled run with an all-zero fault plan is bit-identical to
// the same run without the injector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/fault.h"
#include "serving/request.h"

namespace turbo::serving {

// One in-flight request as captured at snapshot time: the request record
// (timestamps, cumulative counters) plus its scheduler cursors and the
// size of its serialized KV stream. bytes == 0 means the KV was not
// resident (waiting / recompute-mode) and restore re-enters through the
// recompute path like any other stream-less re-admission.
struct SnapshotEntry {
  Request request;
  std::size_t context = 0;      // tokens cached when the snapshot ran
  std::size_t remaining = 0;    // tokens still to generate
  std::size_t prompt_left = 0;  // prefill cursor
  double kv_bits = 0.0;         // precision the KV was stored at
  double bytes = 0.0;           // serialized KV stream size (0 = none)
};

// Everything one replica persists per snapshot.
struct ReplicaSnapshot {
  std::size_t replica = 0;
  double taken_at_s = 0.0;
  std::vector<SnapshotEntry> entries;
};

// Binary round trip in the stream-format-v2 style (magic, version,
// little-endian payload, trailing CRC-32 over everything before it).
// deserialize_snapshot throws IntegrityError when the CRC does not match
// its payload and CheckError when the stream is malformed (truncated, an
// entry count the remaining bytes cannot hold, an out-of-range service
// class or outcome) — exposed so tests can drive the detect-and-recover
// path byte by byte.
std::vector<std::uint8_t> serialize_snapshot(const ReplicaSnapshot& snap);
ReplicaSnapshot deserialize_snapshot(std::span<const std::uint8_t> bytes);

// Latest checksummed snapshot blob per replica. Replica crashes are
// independent events, so the store keeps exactly one blob per replica —
// a newer save replaces the older one atomically (a save that hits the
// injected-unavailability fault leaves the previous blob valid).
class SnapshotStore {
 public:
  struct SaveOutcome {
    bool stored = false;      // false: store unavailable, old blob kept
    std::size_t bytes = 0;    // serialized size when stored
  };

  enum class RestoreStatus : std::uint8_t {
    kHit,      // snapshot decoded and CRC-verified
    kMissing,  // replica never snapshotted (or blob was consumed)
    kCorrupt,  // blob failed its CRC — recompute from the prompt
  };

  struct RestoreOutcome {
    RestoreStatus status = RestoreStatus::kMissing;
    ReplicaSnapshot snapshot;  // valid only when status == kHit
  };

  // Serialize `snap` and replace `replica`'s blob. One
  // snapshot-unavailability Bernoulli draw per attempt.
  SaveOutcome save(std::size_t replica, const ReplicaSnapshot& snap,
                   FaultInjector* fault);

  // Decode `replica`'s blob. One snapshot-corruption Bernoulli draw per
  // stored blob (a corrupt draw flips one seed-determined byte before
  // parsing, and the CRC layer reports kCorrupt). The blob is consumed
  // either way: a restart never restores the same snapshot twice.
  RestoreOutcome restore(std::size_t replica, FaultInjector* fault);

  void erase(std::size_t replica) { blobs_.erase(replica); }
  std::size_t count() const { return blobs_.size(); }
  bool contains(std::size_t replica) const {
    return blobs_.find(replica) != blobs_.end();
  }

 private:
  // Ordered map so teardown scans deterministically (lint rule 8).
  std::map<std::size_t, std::vector<std::uint8_t>> blobs_;
};

}  // namespace turbo::serving
