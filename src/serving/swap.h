// The swap store for preempted KV sequences: a fault-tolerant multi-tier
// hierarchy.
//
// When the scheduler preempts a running request it can either drop its KV
// pages and re-prefill later (recompute) or move them off-device and
// bring them back later (swap) — the vLLM preemption pair. The paper's
// progressive KV compression is what makes the swapped streams small
// enough that a hierarchy deeper than host DRAM is plausible, so this
// file provides:
//
//  - TieredSwapStore: an ordered list of tiers (host DRAM -> disk by
//    default), each with its own capacity, bandwidth and per-tier fault
//    profile (common/fault.h TierFaultPlan). Swap-out lands in the
//    fastest tier with room and demotes cold streams (LRU by last-touch
//    iteration) under pressure; swap-in probes tiers fastest-first with a
//    bounded retry/backoff budget, fails over on unavailability, and
//    reports kUnavailable when every tier holding the stream is dead so
//    the engine can degrade to recompute. Consecutive-failure
//    blacklisting with cooloff keeps a flapping tier from stalling the
//    admission loop; a blacklisted tier is skipped without stall until
//    its cooloff expires, then probed again (one failure re-blacklists).
//  - swap_out / swap_in: serialize-and-release / fetch-and-adopt of real
//    streams (kvcache/serialization.h, checksummed) with explicit status,
//    including checksum-mismatch detection so callers can fall back to
//    recompute. The fetch is non-consuming: the parked stream is only
//    erased once adoption succeeds (or the stream is proven corrupt), so
//    an out-of-pages retry always sees pristine bytes. A one-tier store
//    is a plain host store.
//
// Every function here that stores or fetches a stream takes a
// FaultInjector* (turbo_lint rule `unfaultable-swap-io` enforces this),
// so no unfaultable I/O path can be added later. A null injector means
// "no faults" and draws nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fault.h"
#include "kvcache/paged_cache.h"

namespace turbo::serving {

// Swap-store keys are engine-local request ids, which collide the moment
// two fleet replicas (src/fleet) park the same request-local id — e.g. a
// request migrated to a new replica while its stale stream is still being
// torn down on the old one. The fleet path therefore namespaces every key
// by replica id in the top byte. Replica 0 maps to the identity key, so
// single-engine runs (and the store's LRU victim ordering, which
// tie-breaks on key) stay bit-identical to the pre-fleet behavior.
inline std::uint64_t swap_stream_key(std::size_t replica, std::uint64_t id) {
  TURBO_CHECK_MSG(replica < kMaxReplicas,
                  "replica id out of swap-key namespace range");
  TURBO_CHECK_MSG(id < (std::uint64_t{1} << 56),
                  "request id overflows the replica-namespaced swap key");
  return (static_cast<std::uint64_t>(replica) << 56) | id;
}

// One level of the swap hierarchy, fastest first.
struct SwapTier {
  std::string name;                // "host", "disk", ...
  std::size_t capacity_bytes = 0;  // 0 = unbounded
  double bandwidth = 0.0;          // bytes / second, must be > 0
};

// Retry / blacklist policy shared by every tier.
struct TierHealthPolicy {
  // Attempts per tier per fetch before failing over to the next tier.
  std::size_t retry_budget = 2;
  // Stall charged per failed attempt (the backoff between retries).
  double retry_backoff_s = 0.02;
  // Consecutive failed probes before the tier is blacklisted.
  std::size_t blacklist_after = 3;
  // Blacklist duration. After it expires the tier is probed again; a
  // single failed probe re-blacklists (probing re-admission), a single
  // success clears the failure streak.
  double cooloff_s = 5.0;

  void validate() const {
    TURBO_CHECK_MSG(retry_budget >= 1, "retry_budget must be >= 1");
    TURBO_CHECK_MSG(retry_backoff_s >= 0.0, "retry_backoff_s must be >= 0");
    TURBO_CHECK_MSG(blacklist_after >= 1, "blacklist_after must be >= 1");
    TURBO_CHECK_MSG(cooloff_s >= 0.0, "cooloff_s must be >= 0");
  }
};

// Ordered multi-tier store. Entries are either *real* (they carry the
// serialized stream, used by the byte-level swap path and its tests) or
// *phantom* (byte counts only, used by the serving engine's cost model);
// the placement, demotion, failover and health machinery is identical,
// so what the engine simulates is exactly what the byte path exercises.
class TieredSwapStore {
 public:
  struct TierCounters {
    std::size_t stores = 0;         // entries placed here by store()
    std::size_t hits = 0;           // fetches served from this tier
    std::size_t demotions_in = 0;   // entries demoted down into this tier
    std::size_t promotions_out = 0; // entries promoted up out of this tier
    std::size_t failures = 0;       // unavailable probes observed
    std::size_t blacklists = 0;     // times this tier was blacklisted

    TierCounters& operator+=(const TierCounters& o) {
      stores += o.stores;
      hits += o.hits;
      demotions_in += o.demotions_in;
      promotions_out += o.promotions_out;
      failures += o.failures;
      blacklists += o.blacklists;
      return *this;
    }
    bool operator==(const TierCounters&) const = default;
  };

  struct StoreOutcome {
    bool stored = false;     // false: every tier full or unavailable
    std::size_t tier = 0;    // tier the stream landed in
    std::size_t demotions = 0;  // LRU demotions performed to make room
    double transfer_s = 0.0;    // store + demotion transfer time
  };

  enum class FetchStatus {
    kHit,          // stream found and read; entry retained (erase() it)
    kMissing,      // no entry under this key anywhere
    kUnavailable,  // entry exists but its tier could not be reached
  };

  struct FetchOutcome {
    FetchStatus status = FetchStatus::kMissing;
    std::size_t tier = 0;       // tier that served the hit
    std::size_t bytes = 0;      // entry size (valid on kHit)
    bool corrupted = false;     // per-tier corruption fault fired
    std::size_t failovers = 0;  // tiers skipped (unavailable/blacklisted)
    std::size_t retries = 0;    // failed attempts across all tiers
    double transfer_s = 0.0;    // read transfer time (kHit only)
    double stall_s = 0.0;       // retry-backoff stall
  };

  explicit TieredSwapStore(std::vector<SwapTier> tiers,
                           TierHealthPolicy health = {});

  // Park a serialized stream / a phantom byte count under `key`
  // (overwriting any previous entry): fastest available tier with room
  // wins, demoting least-recently-touched entries one tier down when the
  // target is full. Returns stored == false when no tier can take the
  // entry — the caller must fall back (the engine recomputes).
  StoreOutcome store(std::uint64_t key, std::vector<std::uint8_t> stream,
                     std::size_t iteration, double now_s,
                     FaultInjector* fault);
  StoreOutcome store_phantom(std::uint64_t key, std::size_t bytes,
                             std::size_t iteration, double now_s,
                             FaultInjector* fault);

  // Probe tiers fastest-first for `key` with per-tier retry/backoff.
  // Non-consuming: a kHit leaves the entry in place (touching its LRU
  // stamp) so the caller can retry after an out-of-pages adoption; call
  // erase() once the stream is adopted or proven corrupt. A missing key
  // short-circuits with no probes, no stall and no RNG draws.
  FetchOutcome fetch(std::uint64_t key, std::size_t iteration, double now_s,
                     FaultInjector* fault);

  // Move `key` one or more tiers up if a faster tier has room (never
  // demotes anything to make that room). Returns true and adds the read
  // transfer time to *transfer_s on success. A no-op (entry already in
  // tier 0, no room above, or key absent) returns false without drawing.
  bool promote(std::uint64_t key, std::size_t iteration, double now_s,
               FaultInjector* fault, double* transfer_s);

  // Drop the entry under `key`; returns whether one existed.
  bool erase(std::uint64_t key);

  // Bytes of the real stream under `key`; nullptr for phantom or absent
  // entries. Read-only: does not touch LRU state or draw faults.
  const std::vector<std::uint8_t>* stream_of(std::uint64_t key) const;

  bool contains(std::uint64_t key) const {
    return entries_.count(key) > 0;
  }
  std::size_t count() const { return entries_.size(); }
  std::size_t tier_count() const { return tiers_.size(); }
  const SwapTier& tier(std::size_t t) const { return tiers_[t]; }
  std::size_t stored_bytes() const;
  std::size_t tier_stored_bytes(std::size_t t) const { return used_[t]; }
  // Tier currently holding `key` (nullopt when absent).
  std::optional<std::size_t> tier_of(std::uint64_t key) const;
  const TierCounters& counters(std::size_t t) const { return counters_[t]; }
  bool blacklisted(std::size_t t, double now_s) const {
    return now_s < blacklisted_until_[t];
  }

 private:
  struct Entry {
    std::vector<std::uint8_t> stream;  // empty for phantom entries
    std::size_t bytes = 0;
    std::size_t tier = 0;
    std::size_t last_touch = 0;  // iteration of last store/fetch
    bool phantom = false;
  };

  StoreOutcome store_impl(std::uint64_t key, std::vector<std::uint8_t> stream,
                          std::size_t bytes, bool phantom,
                          std::size_t iteration, double now_s,
                          FaultInjector* fault);
  bool fits(std::size_t t, std::size_t bytes) const;
  // Demote LRU entries from `t` into `t + 1` until `bytes` fit (or
  // nothing more can move). Demotions are internal background moves:
  // deterministic, no availability probe, charged at the destination
  // tier's bandwidth.
  void make_room(std::size_t t, std::size_t bytes, std::size_t iteration,
                 StoreOutcome& out);
  // Record a failed / successful availability probe, driving the
  // consecutive-failure blacklist.
  void note_failure(std::size_t t, double now_s);
  void note_success(std::size_t t);

  std::vector<SwapTier> tiers_;
  TierHealthPolicy health_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::vector<std::size_t> used_;               // bytes resident per tier
  std::vector<TierCounters> counters_;
  std::vector<std::size_t> consecutive_failures_;
  std::vector<double> blacklisted_until_;
};

// Serialize `seq` and park the stream in the store under `key`. The pages
// are released only when a tier accepted the stream (outcome->stored); on
// refusal the sequence is left intact so the caller can keep running or
// drop it for recompute. Returns the stream size when stored, 0 when
// refused.
std::size_t swap_out(PagedKvCache& cache, PagedKvCache::SeqId seq,
                     std::uint64_t key, TieredSwapStore& store,
                     std::size_t iteration, double now_s, FaultInjector* fault,
                     TieredSwapStore::StoreOutcome* outcome = nullptr);

enum class SwapInStatus {
  kOk,                // sequence restored; `seq` is valid
  kChecksumMismatch,  // corruption detected; stream dropped — recompute
  kOutOfPages,        // cache cannot back the pages; stream kept in store
  kMissing,           // no stream under this key
  kUnavailable,       // every tier holding the stream is down
};

struct TieredSwapInResult {
  SwapInStatus status = SwapInStatus::kMissing;
  PagedKvCache::SeqId seq = 0;
  TieredSwapStore::FetchOutcome fetch;  // transfer/stall/failover detail
};

// Fetch `key` from the store and adopt it into `cache`. Probes tiers
// fastest-first (retry/backoff/failover per the store's TierHealthPolicy)
// and only erases the entry once the stream is adopted or proven corrupt:
// a corrupt stream (CRC mismatch, or any structural damage) is dropped
// and reported as kChecksumMismatch, while kOutOfPages and kUnavailable
// leave the pristine entry in place for a later retry (deserialization
// runs on a scratch copy, so a retry never sees injector-mutated bytes).
// `fault` injects tier faults and stream corruption (common/fault.h).
TieredSwapInResult swap_in(PagedKvCache& cache, std::uint64_t key,
                           TieredSwapStore& store, std::size_t iteration,
                           double now_s, FaultInjector* fault);

}  // namespace turbo::serving
