#include "serving/swap.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "kvcache/serialization.h"

namespace turbo::serving {

// ---- TieredSwapStore -------------------------------------------------------

TieredSwapStore::TieredSwapStore(std::vector<SwapTier> tiers,
                                 TierHealthPolicy health)
    : tiers_(std::move(tiers)), health_(health) {
  TURBO_CHECK_MSG(!tiers_.empty(), "tiered store needs at least one tier");
  TURBO_CHECK_MSG(tiers_.size() <= kMaxSwapTiers,
                  "more tiers than kMaxSwapTiers fault profiles");
  for (const SwapTier& t : tiers_) {
    TURBO_CHECK_MSG(t.bandwidth > 0.0, "swap tier has no bandwidth");
  }
  health_.validate();
  used_.assign(tiers_.size(), 0);
  counters_.assign(tiers_.size(), TierCounters{});
  consecutive_failures_.assign(tiers_.size(), 0);
  blacklisted_until_.assign(tiers_.size(), 0.0);
}

bool TieredSwapStore::fits(std::size_t t, std::size_t bytes) const {
  return tiers_[t].capacity_bytes == 0 ||
         used_[t] + bytes <= tiers_[t].capacity_bytes;
}

void TieredSwapStore::note_failure(std::size_t t, double now_s) {
  ++counters_[t].failures;
  ++consecutive_failures_[t];
  if (consecutive_failures_[t] >= health_.blacklist_after) {
    blacklisted_until_[t] = now_s + health_.cooloff_s;
    ++counters_[t].blacklists;
    // Probing re-admission: when the cooloff expires the tier gets one
    // probe — a single failure re-blacklists, a single success clears.
    consecutive_failures_[t] = health_.blacklist_after - 1;
  }
}

void TieredSwapStore::note_success(std::size_t t) {
  consecutive_failures_[t] = 0;
}

void TieredSwapStore::make_room(std::size_t t, std::size_t bytes,
                                std::size_t iteration, StoreOutcome& out) {
  const std::size_t below = t + 1;
  if (below >= tiers_.size()) return;
  if (fits(t, bytes)) return;
  // Deterministic victim order: coldest first (smallest last-touch
  // iteration), ties broken by smallest stream key. The candidates are
  // snapshotted out of the unordered map and sorted so the stdlib's hash
  // layout can never leak into demotion order — the sorted-snapshot
  // idiom turbo_lint's `nondeterministic-iteration` rule requires.
  std::vector<std::pair<std::size_t, std::uint64_t>> victims;
  for (const auto& [key, e] : entries_) {
    if (e.tier == t) victims.emplace_back(e.last_touch, key);
  }
  std::sort(victims.begin(), victims.end());
  for (const auto& candidate : victims) {
    if (fits(t, bytes)) break;
    Entry& victim = entries_.at(candidate.second);
    if (!fits(below, victim.bytes)) return;
    used_[t] -= victim.bytes;
    used_[below] += victim.bytes;
    victim.tier = below;
    victim.last_touch = iteration;
    ++counters_[below].demotions_in;
    ++out.demotions;
    out.transfer_s +=
        static_cast<double>(victim.bytes) / tiers_[below].bandwidth;
  }
}

TieredSwapStore::StoreOutcome TieredSwapStore::store_impl(
    std::uint64_t key, std::vector<std::uint8_t> stream, std::size_t bytes,
    bool phantom, std::size_t iteration, double now_s, FaultInjector* fault) {
  erase(key);  // same-key overwrite: the old entry never double-counts
  StoreOutcome out;
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    if (blacklisted(t, now_s)) continue;  // skip without stall or draw
    if (fault != nullptr && fault->tier_unavailable(t, now_s)) {
      note_failure(t, now_s);
      continue;
    }
    note_success(t);
    if (!fits(t, bytes)) make_room(t, bytes, iteration, out);
    if (!fits(t, bytes)) continue;  // demotion could not clear enough
    Entry e;
    e.stream = std::move(stream);
    e.bytes = bytes;
    e.tier = t;
    e.last_touch = iteration;
    e.phantom = phantom;
    entries_.emplace(key, std::move(e));
    used_[t] += bytes;
    ++counters_[t].stores;
    // The legacy swap-spike knob models host-link contention and applies
    // to every store transfer (same draw position as the single-tier
    // engine had); the per-tier spike stacks on top.
    double mult = 1.0;
    if (fault != nullptr) {
      mult = fault->swap_latency_multiplier() *
             fault->tier_latency_multiplier(t);
    }
    out.transfer_s +=
        static_cast<double>(bytes) / tiers_[t].bandwidth * mult;
    out.stored = true;
    out.tier = t;
    return out;
  }
  return out;  // every tier full, blacklisted or unavailable
}

TieredSwapStore::StoreOutcome TieredSwapStore::store(
    std::uint64_t key, std::vector<std::uint8_t> stream,
    std::size_t iteration, double now_s, FaultInjector* fault) {
  const std::size_t bytes = stream.size();
  return store_impl(key, std::move(stream), bytes, false, iteration, now_s,
                    fault);
}

TieredSwapStore::StoreOutcome TieredSwapStore::store_phantom(
    std::uint64_t key, std::size_t bytes, std::size_t iteration, double now_s,
    FaultInjector* fault) {
  return store_impl(key, {}, bytes, true, iteration, now_s, fault);
}

TieredSwapStore::FetchOutcome TieredSwapStore::fetch(std::uint64_t key,
                                                     std::size_t iteration,
                                                     double now_s,
                                                     FaultInjector* fault) {
  FetchOutcome out;
  auto eit = entries_.find(key);
  if (eit == entries_.end()) return out;  // kMissing: no probes, no draws
  Entry& entry = eit->second;
  // Probe fastest-first, oblivious to where the entry actually lives:
  // what a real lookup over an opaque hierarchy does, and what makes
  // failover observable (a skipped tier is a tier that *would* have
  // been asked).
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    if (blacklisted(t, now_s)) {
      ++out.failovers;
      continue;
    }
    bool unavailable = false;
    for (std::size_t attempt = 0; attempt < health_.retry_budget; ++attempt) {
      unavailable = fault != nullptr && fault->tier_unavailable(t, now_s);
      if (!unavailable) break;
      note_failure(t, now_s);
      ++out.retries;
      out.stall_s += health_.retry_backoff_s;
      if (blacklisted(t, now_s)) break;  // budget cut short by blacklist
    }
    if (unavailable) {
      ++out.failovers;
      continue;
    }
    note_success(t);
    if (entry.tier != t) continue;  // responsive, but not the holder
    out.status = FetchStatus::kHit;
    out.tier = t;
    out.bytes = entry.bytes;
    double mult = 1.0;
    if (fault != nullptr) {
      mult = fault->swap_latency_multiplier() *
             fault->tier_latency_multiplier(t);
      out.corrupted = fault->tier_corrupt(t);
    }
    out.transfer_s =
        static_cast<double>(entry.bytes) / tiers_[t].bandwidth * mult;
    entry.last_touch = iteration;
    ++counters_[t].hits;
    return out;
  }
  // The holder tier (and everything faster) was unreachable: the entry
  // stays parked for a later attempt, the caller degrades to recompute.
  out.status = FetchStatus::kUnavailable;
  return out;
}

bool TieredSwapStore::promote(std::uint64_t key, std::size_t iteration,
                              double now_s, FaultInjector* fault,
                              double* transfer_s) {
  auto eit = entries_.find(key);
  if (eit == entries_.end()) return false;
  Entry& entry = eit->second;
  if (entry.tier == 0) return false;  // already fastest: no-op, no draws
  std::size_t target = tiers_.size();
  for (std::size_t t = 0; t < entry.tier; ++t) {
    if (blacklisted(t, now_s)) continue;
    if (fits(t, entry.bytes)) {
      target = t;
      break;
    }
  }
  if (target >= entry.tier) return false;  // no room above (never demote)
  if (fault != nullptr && fault->tier_unavailable(target, now_s)) {
    note_failure(target, now_s);
    return false;
  }
  note_success(target);
  const std::size_t src = entry.tier;
  used_[src] -= entry.bytes;
  used_[target] += entry.bytes;
  entry.tier = target;
  entry.last_touch = iteration;
  ++counters_[src].promotions_out;
  // Reading the stream up out of the slow tier dominates the move.
  if (transfer_s != nullptr) {
    *transfer_s += static_cast<double>(entry.bytes) / tiers_[src].bandwidth;
  }
  return true;
}

bool TieredSwapStore::erase(std::uint64_t key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  used_[it->second.tier] -= it->second.bytes;
  entries_.erase(it);
  return true;
}

const std::vector<std::uint8_t>* TieredSwapStore::stream_of(
    std::uint64_t key) const {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.phantom) return nullptr;
  return &it->second.stream;
}

std::size_t TieredSwapStore::stored_bytes() const {
  std::size_t total = 0;
  for (const std::size_t u : used_) total += u;
  return total;
}

std::optional<std::size_t> TieredSwapStore::tier_of(std::uint64_t key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second.tier;
}

// ---- Byte-level swap paths -------------------------------------------------

std::size_t swap_out(PagedKvCache& cache, PagedKvCache::SeqId seq,
                     std::uint64_t key, TieredSwapStore& store,
                     std::size_t iteration, double now_s, FaultInjector* fault,
                     TieredSwapStore::StoreOutcome* outcome) {
  std::vector<std::uint8_t> stream = serialize_sequence(cache, seq);
  const std::size_t bytes = stream.size();
  const TieredSwapStore::StoreOutcome out =
      store.store(key, std::move(stream), iteration, now_s, fault);
  if (outcome != nullptr) *outcome = out;
  if (!out.stored) return 0;  // refused: the sequence keeps its pages
  cache.release_sequence(seq);
  return bytes;
}

TieredSwapInResult swap_in(PagedKvCache& cache, std::uint64_t key,
                           TieredSwapStore& store, std::size_t iteration,
                           double now_s, FaultInjector* fault) {
  TieredSwapInResult r;
  r.fetch = store.fetch(key, iteration, now_s, fault);
  if (r.fetch.status == TieredSwapStore::FetchStatus::kMissing) {
    r.status = SwapInStatus::kMissing;
    return r;
  }
  if (r.fetch.status == TieredSwapStore::FetchStatus::kUnavailable) {
    r.status = SwapInStatus::kUnavailable;  // entry stays parked
    return r;
  }
  const std::vector<std::uint8_t>* parked = store.stream_of(key);
  TURBO_CHECK_MSG(parked != nullptr,
                  "tiered byte-level swap_in over a phantom entry");
  // Adopt from a scratch copy: the parked entry is only erased once the
  // stream is adopted or proven corrupt, and is never mutated, so an
  // out-of-pages retry always starts from pristine bytes.
  std::vector<std::uint8_t> scratch = *parked;
  if (r.fetch.corrupted && fault != nullptr && !scratch.empty()) {
    scratch[fault->corruption_offset(scratch.size())] ^= 0x01;
  }
  try {
    const std::optional<PagedKvCache::SeqId> seq =
        deserialize_sequence(cache, scratch, fault);
    if (!seq.has_value()) {
      r.status = SwapInStatus::kOutOfPages;  // entry retained, untouched
      return r;
    }
    store.erase(key);
    r.status = SwapInStatus::kOk;
    r.seq = *seq;
    return r;
  } catch (const CheckError&) {
    store.erase(key);
    r.status = SwapInStatus::kChecksumMismatch;
    return r;
  }
}

}  // namespace turbo::serving
