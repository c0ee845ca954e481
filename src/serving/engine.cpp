#include "serving/engine.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "kvcache/page_pool.h"
#include "quant/error.h"
#include "serving/swap.h"

namespace turbo::serving {

namespace {

struct Running {
  std::size_t trace_index;
  std::size_t context;        // tokens currently cached
  std::size_t remaining;      // tokens still to generate
  std::size_t prompt_left;    // prompt tokens not yet prefilled (cursor)
  std::vector<PageId> pages;  // pages backing `context` (+ growth slack)
  bool pinned = false;        // protected from further victimization
  double kv_bits = 0.0;       // precision this request's KV is stored at
};

// A preempted request waiting out its backoff before re-admission.
struct Paused {
  std::size_t trace_index;
  std::size_t context;      // tokens to restore (prefilled + generated)
  std::size_t remaining;
  std::size_t prompt_left;  // prefill cursor survives preemption
  double eligible_s;        // earliest re-admission time
  bool swapped;             // true: stream parked in the tiered store
  double bytes;             // swapped stream size (0 for recompute)
  double kv_bits;           // precision the parked KV is stored at
  bool promote_tried = false;  // one promote attempt per page-blocked wait
  // Leading tokens whose pages were shared/registered at eviction: they
  // were not serialized (other residents or the retained pool keep them),
  // so re-admission re-matches the radix index for them and recomputes
  // only the shortfall.
  std::size_t prefix_tokens = 0;
};

// Deadline comparisons use a slack so a token landing exactly on the
// deadline counts as met, and idle-time jumps that land on an expiry
// instant make progress.
constexpr double kDeadlineSlack = 1e-9;

// Fraction of the page pool fresh admissions must leave free for decode
// growth (re-admissions of preempted requests ignore it).
constexpr double kAdmitReserve = 0.1;
// Ceiling of the exponential re-admission backoff.
constexpr double kBackoffCapS = 8.0;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Degradation ladder levels.
enum : std::size_t { kLevelNormal = 0, kLevelDownshift = 1, kLevelShed = 2 };

// Everything derivable from the config before the first request arrives.
// Validation runs here, in the same order the monolithic loop used to
// check it, so invalid configs fail with the same message.
struct DerivedConfig {
  double bits_normal = 0.0;
  double kv_per_token = 0.0;
  double bits_degraded = 0.0;
  std::size_t quantum = 0;
  double page_bytes = 0.0;
  std::size_t page_count = 0;
  std::size_t tpp_normal = 0;
  std::size_t tpp_degraded = 0;
  std::size_t reserve_pages = 0;
};

DerivedConfig derive_config(const EngineConfig& config) {
  DerivedConfig d;
  const sim::ModelGeometry& geom = config.geometry;
  // KV bytes/token at an arbitrary stored precision (the method decides
  // whether kv_bits matters at all — FP16 ignores it).
  auto kv_per_token_at = [&](double bits) {
    sim::AttnCostConfig a = config.attention;
    a.kv_bits = bits;
    return sim::kv_cache_bytes_per_token(config.method, a, geom.kv_heads,
                                         geom.head_dim) *
           static_cast<double>(geom.layers);
  };
  d.bits_normal = config.attention.kv_bits;
  d.kv_per_token = kv_per_token_at(d.bits_normal);
  const double kv_budget =
      config.device.hbm_capacity * config.memory_headroom -
      geom.weight_bytes_fp16();
  TURBO_CHECK_MSG(kv_budget > 0.0, "weights alone exceed device memory");
  TURBO_CHECK(config.page_tokens > 0);
  TURBO_CHECK(config.backoff_base_s > 0.0);
  TURBO_CHECK(config.backoff_base_s <= kBackoffCapS);
  TURBO_CHECK_MSG(config.backoff_jitter >= 0.0,
                  "backoff_jitter must be >= 0");
  {
    double share_sum = 0.0;
    for (const ClassPolicy& p : config.classes) {
      TURBO_CHECK_MSG(p.page_share >= 0.0 && p.page_share <= 1.0,
                      "class page_share outside [0, 1]");
      share_sum += p.page_share;
    }
    TURBO_CHECK_MSG(share_sum <= 1.0 + 1e-9,
                    "class page shares must sum to <= 1");
  }
  if (config.degrade.enabled) {
    TURBO_CHECK_MSG(config.degrade.low_watermark >= 0.0 &&
                        config.degrade.high_watermark <= 1.0 &&
                        config.degrade.low_watermark <
                            config.degrade.high_watermark,
                    "degrade watermarks must satisfy 0 <= low < high <= 1");
    TURBO_CHECK(config.degrade.window_iters > 0);
  }

  // Degraded KV precision: the head-wise 4/2-bit mix, never *above* the
  // configured precision (downshift only).
  d.bits_degraded =
      config.degrade.enabled
          ? std::min(d.bits_normal,
                     sim::headwise_mixed_kv_bits(
                         config.degrade.two_bit_head_fraction))
          : d.bits_normal;

  // Scheduler quantum: at most this many prompt tokens prefill per
  // iteration. 0 = monolithic (a whole prompt is one chunk).
  d.quantum = config.prefill_chunk_tokens == 0
                  ? std::numeric_limits<std::size_t>::max()
                  : config.prefill_chunk_tokens;

  // KV memory as fixed-size pages through a real allocator, so that page
  // exhaustion and injected allocation faults surface exactly where a
  // paged serving system would see them. A page is a fixed byte region
  // sized for `page_tokens` tokens at the *configured* precision; KV
  // written at a downshifted precision packs proportionally more tokens
  // into the same page.
  d.page_bytes = static_cast<double>(config.page_tokens) * d.kv_per_token;
  d.page_count = static_cast<std::size_t>(kv_budget / d.page_bytes);
  TURBO_CHECK_MSG(d.page_count > 0, "KV budget smaller than one page");

  auto tokens_per_page_at = [&](double bits) {
    const double ratio = d.kv_per_token / kv_per_token_at(bits);
    return std::max<std::size_t>(
        config.page_tokens,
        static_cast<std::size_t>(
            static_cast<double>(config.page_tokens) * ratio + 1e-9));
  };
  d.tpp_normal = config.page_tokens;
  d.tpp_degraded = tokens_per_page_at(d.bits_degraded);
  d.reserve_pages = static_cast<std::size_t>(
      static_cast<double>(d.page_count) * kAdmitReserve);
  return d;
}

}  // namespace

// The scheduler state behind Engine: every local of the old monolithic
// run_engine loop promoted to a member, with the loop body as step().
// The phase order inside step() is untouched — run_engine() through this
// class is bit-identical to the pre-refactor engine.
class EngineImpl {
 public:
  explicit EngineImpl(const EngineConfig& config)
      : config_(config),
        d_(derive_config(config)),
        pages_(d_.page_count, config.page_tokens, kServiceClassCount),
        fault_(config.faults),
        class_aware_(config.policy == SchedPolicy::kClassAware),
        iters_since_level_change_(config.degrade.window_iters) {
    pages_.set_fault_injector(&fault_);
    // Swap mode parks preemption victims in a tiered store: tier 0 is
    // host DRAM behind the PCIe link, tier 1 (optional) local disk. The
    // engine runs the store in phantom mode — byte counts and placement
    // only; the byte-level serialize/adopt path shares the same
    // machinery in tests.
    if (config_.preempt_mode == PreemptMode::kSwap) {
      TURBO_CHECK_MSG(config_.swap.tiers >= 1 && config_.swap.tiers <= 2,
                      "engine supports 1 (host) or 2 (host+disk) swap tiers");
      std::vector<SwapTier> tiers;
      tiers.push_back({"host", config_.swap.host_capacity_bytes,
                       config_.device.pcie_bandwidth});
      if (config_.swap.tiers == 2) {
        TURBO_CHECK_MSG(config_.device.disk_bandwidth > 0.0,
                        "disk swap tier requires device disk_bandwidth > 0");
        tiers.push_back({"disk", config_.swap.disk_capacity_bytes,
                         config_.device.disk_bandwidth});
      }
      swap_store_.emplace(std::move(tiers), config_.swap.health);
    }
    result_.min_kv_bits = d_.bits_normal;
  }

  void submit(Request&& r) {
    TURBO_CHECK_MSG(r.arrival_s >= last_arrival_s_,
                    "submit() requires non-decreasing arrival order");
    last_arrival_s_ = r.arrival_s;
    const std::size_t idx = result_.requests.size();
    result_.requests.push_back(std::move(r));
    drained_.push_back(0);
    queued_.push_back(0);
    ++live_total_;
    Request& q = result_.requests.back();
    // Reject requests that could never fit even with the machine to
    // themselves. Everything else is guaranteed schedulable. Rejected
    // requests still ride the pending queue (skipped at arrival pull) so
    // idle-time jumps land on the same instants the monolithic loop used.
    if (pages_needed(q.prompt_tokens + q.max_new_tokens, d_.bits_normal) >
        d_.page_count) {
      q.finish_s = q.arrival_s;  // degenerate: immediately rejected
      q.outcome = Outcome::kRejected;
      ++result_.rejected;
      ++finished_;
    }
    pending_.push_back(idx);
  }

  void adopt(const MigratableRequest& m, double eligible_s,
             bool with_stream) {
    const std::size_t idx = result_.requests.size();
    result_.requests.push_back(m.request);
    drained_.push_back(0);
    queued_.push_back(0);
    ++live_total_;
    Request& r = result_.requests.back();
    TURBO_CHECK_MSG(r.outcome == Outcome::kPending,
                    "adopt() of a request already in a terminal state");
    if (m.context == 0) {
      // Nothing was cached at drain: a plain re-route. The request joins
      // the destination's waiting queue and admits class-aware like any
      // fresh arrival.
      enqueue(idx);
      return;
    }
    Paused p{idx,        m.context, m.remaining, m.prompt_left,
             eligible_s, false,     0.0,         m.kv_bits};
    if (with_stream && m.has_stream && swap_store_.has_value()) {
      // Park the migrated bytes in this replica's own tiered store so the
      // normal re-admission machinery (promote, fetch, CRC, recompute
      // fallback) restores them; the host-tier write cost is the landing
      // leg of the migration.
      const TieredSwapStore::StoreOutcome so = swap_store_->store_phantom(
          stream_key(r.id), static_cast<std::size_t>(m.bytes), iteration_,
          now_, &fault_);
      if (so.stored) {
        p.swapped = true;
        p.bytes = m.bytes;
        p.eligible_s += so.transfer_s;
        result_.tier_demotions += so.demotions;
      } else {
        // No tier had room: the migrated copy is dropped and the request
        // degrades to recompute, the same overflow fallback a preemption
        // victim takes.
        ++result_.swap_overflow_recomputes;
      }
    }
    paused_.push_back(p);
  }

  // One scheduler iteration — the body of the old while loop, verbatim.
  // Returns false at the old `break`: nothing running, waiting, paused
  // or pending.
  bool step(double horizon_s) {
    check_books();
    ++iteration_;
    // Pull arrivals whose time has come.
    while (!pending_.empty() &&
           result_.requests[pending_.front()].arrival_s <= now_) {
      const std::size_t idx = pending_.front();
      pending_.pop_front();
      if (result_.requests[idx].outcome == Outcome::kPending) enqueue(idx);
    }

    // --- Deadline enforcement: waiting, paused, then running ------------
    // Waiting requests come off the expiry index (empty unless deadlines
    // are enforced), soonest first, so the cost is the number that
    // expired, not the backlog. A waiting timeout only stamps now_ and
    // bumps counters, so this order leaves every output as a queue walk
    // would.
    while (!expiry_.empty() && now_ > expiry_.top().first + kDeadlineSlack) {
      const std::size_t idx = expiry_.top().second;
      expiry_.pop();
      if (queued_[idx] == 0) continue;  // admitted, shed or drained since
      dequeue(idx);
      time_out(result_.requests[idx]);
    }
    if (config_.enforce_deadlines) {
      for (std::size_t pi = 0; pi < paused_.size();) {
        Request& r = result_.requests[paused_[pi].trace_index];
        if (deadline_expired(r)) {
          // Pages were released at eviction; a swapped victim also drops
          // its parked stream so the store cannot leak terminal state.
          if (paused_[pi].swapped) swap_store_->erase(stream_key(r.id));
          time_out(r);
          paused_.erase(paused_.begin() + static_cast<std::ptrdiff_t>(pi));
        } else {
          ++pi;
        }
      }
      // The running scan's release order decides page-id reuse.
      dead_.assign(running_.size(), 0);
      for (std::size_t i = 0; i < running_.size(); ++i) {
        Request& r = result_.requests[running_[i].trace_index];
        if (!deadline_expired(r)) continue;
        time_out(r);
        release_all(running_[i]);
        dead_[i] = 1;
      }
      compact_running(dead_);
    }

    // --- Pressure controller: sample occupancy, walk the ladder ---------
    if (config_.degrade.enabled) {
      // Retained pages are reclaimable on demand, so they are not
      // pressure; the ladder watches what live sequences reference.
      occupancy_window_.push_back(
          static_cast<double>(referenced_pages()) /
          static_cast<double>(d_.page_count));
      if (occupancy_window_.size() > config_.degrade.window_iters) {
        occupancy_window_.pop_front();
      }
      ++iters_since_level_change_;
      if (occupancy_window_.size() == config_.degrade.window_iters &&
          iters_since_level_change_ >= config_.degrade.window_iters) {
        double mean = 0.0;
        for (const double o : occupancy_window_) mean += o;
        mean /= static_cast<double>(occupancy_window_.size());
        if (mean > config_.degrade.high_watermark &&
            ladder_level_ < kLevelShed) {
          ++ladder_level_;
          ++result_.ladder_escalations;
          iters_since_level_change_ = 0;
        } else if (mean < config_.degrade.low_watermark &&
                   ladder_level_ > kLevelNormal) {
          --ladder_level_;
          ++result_.ladder_deescalations;
          iters_since_level_change_ = 0;
        }
      }
      if (ladder_level_ >= kLevelDownshift) ++result_.degraded_iterations;

      // Shed level: drop the newest waiting batch-class (then
      // standard-class) requests — admission control at the door.
      // Interactive is never shed.
      if (ladder_level_ >= kLevelShed) {
        std::size_t budget = config_.degrade.max_shed_per_iter;
        for (std::size_t c = kServiceClassCount; c-- > 1 && budget > 0;) {
          while (budget > 0 && !waiting_[c].empty()) {
            const std::size_t idx = waiting_[c].back();
            dequeue(idx);
            Request& r = result_.requests[idx];
            r.finish_s = now_;
            r.outcome = Outcome::kShed;
            ++result_.shed;
            ++finished_;
            --budget;
          }
        }
      }
    }

    // --- Re-admission of preempted requests (before fresh arrivals) ---
    // Order: (class-aware) interactive first, then higher priority, then
    // earlier arrival. No overtaking: the first re-admission that cannot
    // get pages ends the pass, which keeps the backoff queue fair.
    double admit_latency = 0.0;
    std::sort(paused_.begin(), paused_.end(),
              [&](const Paused& a, const Paused& b) {
                const Request& ra = result_.requests[a.trace_index];
                const Request& rb = result_.requests[b.trace_index];
                if (class_aware_ && ra.service_class != rb.service_class) {
                  return static_cast<int>(ra.service_class) <
                         static_cast<int>(rb.service_class);
                }
                if (ra.priority != rb.priority) {
                  return ra.priority > rb.priority;
                }
                if (ra.arrival_s != rb.arrival_s) {
                  return ra.arrival_s < rb.arrival_s;
                }
                return ra.id < rb.id;
              });
    for (std::size_t pi = 0; pi < paused_.size();) {
      Paused& p = paused_[pi];
      if (p.eligible_s > now_ || running_.size() >= config_.max_batch) {
        ++pi;
        continue;
      }
      // Recompute-mode victims rebuild their KV from scratch, so they
      // re-admit at the *current* ladder precision; swapped victims keep
      // the precision their parked stream was written at.
      double bits = p.swapped ? p.kv_bits : current_bits();
      // Prefix pages were left resident at eviction (shared or retained);
      // whatever the index still holds is re-attached for free and only
      // the shortfall — pages reclaimed in the meantime — is recomputed.
      std::vector<PageId> matched;
      if (p.prefix_tokens > 0) {
        matched = pages_.radix().match(std::span<const std::int32_t>(
            result_.requests[p.trace_index].prompt_ids.data(),
            std::min<std::size_t>(
                result_.requests[p.trace_index].prompt_ids.size(),
                bits == d_.bits_normal ? p.prefix_tokens : 0)));
      }
      std::size_t needed = pages_needed(p.context + 1, bits);
      needed -= std::min(needed, matched.size());
      const std::size_t c = class_of(p.trace_index);
      pages_.hold(matched, c);
      std::vector<PageId> pages;
      if (!pages_.alloc_n(needed, pages, c)) {
        pages_.unhold(matched, c);
        // Page-blocked: spend the wait staging the parked stream up the
        // hierarchy (once per wait), so when pages do free up the
        // swap-in reads at host-link speed instead of disk speed.
        if (p.swapped && !p.promote_tried) {
          double promote_s = 0.0;
          if (swap_store_->promote(
                  stream_key(result_.requests[p.trace_index].id),
                  iteration_, now_, &fault_, &promote_s)) {
            ++result_.tier_promotions;
            admit_latency += promote_s;
            result_.swap_stall_s += promote_s;
          }
          p.promote_tried = true;
        }
        p.eligible_s = now_ + config_.backoff_base_s;  // retry tick
        break;                                         // no overtaking
      }
      Request& r = result_.requests[p.trace_index];
      // Attach the surviving prefix (held above: no allocation, no
      // prefill) and recompute only what the index lost since eviction.
      const std::size_t matched_tokens = matched.size() * d_.tpp_normal;
      result_.prefix_pages_attached += matched.size();
      pages.insert(pages.begin(), matched.begin(), matched.end());
      if (p.prefix_tokens > matched_tokens) {
        const std::size_t shortfall = p.prefix_tokens - matched_tokens;
        const double cost = prefill_cost(shortfall, bits);
        admit_latency += cost;
        result_.busy_s += cost;
        r.recomputed_tokens += shortfall;
        result_.recomputed_tokens += shortfall;
      }
      // Tokens the parked stream (or a recompute) must restore: the
      // prefix never left the machine.
      const std::size_t private_context = p.context - p.prefix_tokens;
      if (p.swapped) {
        const TieredSwapStore::FetchOutcome fo =
            swap_store_->fetch(stream_key(r.id), iteration_, now_, &fault_);
        TURBO_CHECK_MSG(fo.status != TieredSwapStore::FetchStatus::kMissing,
                        "swapped request lost its parked stream");
        admit_latency += fo.stall_s;
        result_.tier_retry_stall_s += fo.stall_s;
        result_.tier_failovers += fo.failovers;
        r.tier_failovers += fo.failovers;
        result_.tier_fetch_retries += fo.retries;
        if (fo.status == TieredSwapStore::FetchStatus::kUnavailable) {
          // Failover exhausted: every tier holding the stream is down.
          // The engine never hangs on a dead hierarchy — drop the parked
          // stream and recompute the KV (at the current ladder
          // precision, like any recompute). Not a checksum recovery.
          swap_store_->erase(stream_key(r.id));
          ++result_.swap_unavailable_recomputes;
          bits = current_bits();
          const double cost = prefill_cost(private_context, bits);
          admit_latency += cost;
          result_.busy_s += cost;
          r.recomputed_tokens += private_context;
          result_.recomputed_tokens += private_context;
        } else {
          admit_latency += fo.transfer_s;
          result_.swap_stall_s += fo.transfer_s;
          result_.swap_in_bytes += p.bytes;
          // Two corruption sources: the legacy in-transit stream fault
          // and the per-tier media fault. Either way the CRC catches it
          // on the way back in and the pages cannot be adopted —
          // recover by recomputing them.
          const bool transit_corrupt = fault_.corrupt_stream();
          if (transit_corrupt || fo.corrupted) {
            ++result_.checksum_failures;
            bits = current_bits();
            const double cost = prefill_cost(private_context, bits);
            admit_latency += cost;
            result_.busy_s += cost;
            r.recomputed_tokens += private_context;
            result_.recomputed_tokens += private_context;
            ++result_.recoveries;
          } else {
            ++result_.swap_ins;
          }
          swap_store_->erase(stream_key(r.id));
        }
      } else if (private_context > 0) {
        // Recompute mode: re-derive the evicted KV with a fresh prefill
        // over everything that was cached privately (attached prefix
        // pages never left the machine).
        const double cost = prefill_cost(private_context, bits);
        admit_latency += cost;
        result_.busy_s += cost;
        r.recomputed_tokens += private_context;
        result_.recomputed_tokens += private_context;
      }
      if (bits < d_.bits_normal) {
        ++result_.degraded_admissions;
        record_degrade_proxy();
      }
      r.kv_bits_used = bits;
      result_.min_kv_bits = std::min(result_.min_kv_bits, bits);
      // A partially-prefilled victim resumes from its cursor: the chunk
      // loop below continues with p.prompt_left tokens still to go.
      running_.push_back({p.trace_index, p.context, p.remaining,
                          p.prompt_left, std::move(pages),
                          r.preemptions >= pin_threshold(p.trace_index),
                          bits});
      paused_.erase(paused_.begin() + static_cast<std::ptrdiff_t>(pi));
    }
    now_ += admit_latency;

    // --- Fresh admission -------------------------------------------------
    // Optimistic and chunk-aware: a request needs only its first chunk's
    // pages to start (the prefill cursor allocates the rest as it
    // advances); decode growth is backed by preemption. Under kFifo the
    // queues drain in global arrival order behind one page check; under
    // kClassAware each class is tried in tier order against its quota —
    // a class inside its guaranteed share admits even while a higher
    // tier is page-blocked, but borrowing beyond the share must leave
    // the admit reserve and every demanding class's unmet guarantee
    // free. Admissions during a downshifted ladder level write their KV
    // at the degraded precision.
    {
      const double admit_bits = current_bits();
      double reclaim_stall = 0.0;
      // Guarantees are enforceable, not bookkeeping: a class admitting
      // within its guaranteed share may claw borrowed pages back from
      // classes running over their own share (lowest tier first, pinned
      // requests protected). Without this, a saturated pool would make
      // every guarantee worthless exactly when it matters.
      auto reclaim_for_guarantee = [&](std::size_t c, std::size_t needed) {
        while (effective_free() < needed) {
          std::size_t best = running_.size();
          for (std::size_t j = 0; j < running_.size(); ++j) {
            if (running_[j].pinned) continue;
            const std::size_t jc = class_of(running_[j].trace_index);
            if (jc == c) continue;
            if (pages_.charged(jc) <= guaranteed_pages(jc)) continue;
            if (best == running_.size()) {
              best = j;
              continue;
            }
            const Request& rj = result_.requests[running_[j].trace_index];
            const Request& rb =
                result_.requests[running_[best].trace_index];
            const std::size_t bc = class_of(running_[best].trace_index);
            if (jc != bc) {
              if (jc > bc) best = j;
              continue;
            }
            // Shared-prefix pages survive the eviction (another resident
            // still holds them), so a mostly-shared victim reclaims almost
            // nothing: prefer the one holding fewer shared pages.
            {
              const std::size_t sj = shared_page_count(running_[j]);
              const std::size_t sb = shared_page_count(running_[best]);
              if (sj != sb) {
                if (sj < sb) best = j;
                continue;
              }
            }
            if (rj.priority != rb.priority) {
              if (rj.priority < rb.priority) best = j;
              continue;
            }
            if (rj.arrival_s > rb.arrival_s ||
                (rj.arrival_s == rb.arrival_s && rj.id > rb.id)) {
              best = j;
            }
          }
          if (best == running_.size()) break;  // nothing reclaimable
          reclaim_stall += preempt(running_[best]);
          running_.erase(running_.begin() +
                         static_cast<std::ptrdiff_t>(best));
        }
      };
      auto admit_one = [&](std::size_t c) -> bool {
        const std::size_t idx = waiting_[c].front();
        const Request& r = result_.requests[idx];
        // Radix hit: resident prefix pages attach for free, so the
        // request is charged (and reclaims, and reserves) only its novel
        // suffix — a cache-hit prompt is cheap to admit.
        const std::vector<PageId> matched =
            pages_.radix().match(prefix_span(r, admit_bits));
        const std::size_t matched_tokens = matched.size() * d_.tpp_normal;
        const std::size_t suffix = r.prompt_tokens - matched_tokens;
        const std::size_t first_chunk = std::min(suffix + 1, d_.quantum);
        const std::size_t needed = pages_needed(first_chunk, admit_bits);
        if (class_aware_ && effective_free() < needed &&
            pages_.charged(c) + needed <= guaranteed_pages(c)) {
          reclaim_for_guarantee(c, needed);
        }
        if (!admission_allowed(c, needed)) return false;
        pages_.hold(matched, c);
        std::vector<PageId> pages;
        // Fails on an injected fault, or when the only reclaimable pages
        // admission counted were the matched ones.
        if (!pages_.alloc_n(needed, pages, c)) {
          pages_.unhold(matched, c);
          return false;
        }
        result_.prefix_pages_attached += matched.size();
        pages.insert(pages.begin(), matched.begin(), matched.end());
        Request& mut = result_.requests[idx];
        if (admit_bits < d_.bits_normal) {
          ++result_.degraded_admissions;
          record_degrade_proxy();
        }
        mut.kv_bits_used = admit_bits;
        result_.min_kv_bits = std::min(result_.min_kv_bits, admit_bits);
        mut.prefix_hit_tokens = matched_tokens;
        if (matched_tokens > 0) {
          ++result_.prefix_hit_requests;
          result_.prefix_hit_tokens += matched_tokens;
        }
        running_.push_back({idx, matched_tokens, r.max_new_tokens, suffix,
                            std::move(pages), false, admit_bits});
        dequeue(idx);
        return true;
      };
      if (class_aware_) {
        for (std::size_t c = 0; c < kServiceClassCount; ++c) {
          while (!waiting_[c].empty() &&
                 running_.size() < config_.max_batch) {
            if (!admit_one(c)) break;
          }
        }
      } else {
        while (!waiting_empty() && running_.size() < config_.max_batch) {
          // Global arrival order across the per-class queues.
          std::size_t best = kServiceClassCount;
          for (std::size_t c = 0; c < kServiceClassCount; ++c) {
            if (waiting_[c].empty()) continue;
            if (best == kServiceClassCount) {
              best = c;
              continue;
            }
            const Request& rc = result_.requests[waiting_[c].front()];
            const Request& rb = result_.requests[waiting_[best].front()];
            if (rc.arrival_s < rb.arrival_s ||
                (rc.arrival_s == rb.arrival_s && rc.id < rb.id)) {
              best = c;
            }
          }
          if (!admit_one(best)) break;
        }
      }
      now_ += reclaim_stall;
      result_.swap_stall_s += reclaim_stall;
    }
    result_.peak_batch = std::max(result_.peak_batch, running_.size());

    if (running_.empty()) {
      // Idle: jump to the next event (arrival, backoff expiry or — so
      // timeouts are stamped when they happen — a deadline expiry). The
      // caller's horizon caps the jump: arrivals the router has not
      // submitted yet live exactly at the horizon, so a fleet replica
      // idles to the same instants the standalone engine would.
      double next_event = std::numeric_limits<double>::infinity();
      if (!pending_.empty()) {
        next_event = result_.requests[pending_.front()].arrival_s;
      }
      for (const Paused& p : paused_) {
        next_event = std::min(next_event, p.eligible_s);
      }
      // Step just past an expiry instant so the strict comparison in
      // deadline_expired() fires and the loop makes progress. The index's
      // first live entry is the soonest waiting expiry.
      constexpr double kPast = 2.0 * kDeadlineSlack;
      while (!expiry_.empty() && queued_[expiry_.top().second] == 0) {
        expiry_.pop();
      }
      if (!expiry_.empty()) {
        next_event = std::min(next_event, expiry_.top().first + kPast);
      }
      if (config_.enforce_deadlines) {
        for (const Paused& p : paused_) {
          next_event = std::min(
              next_event, expiry_of(result_.requests[p.trace_index]) + kPast);
        }
      }
      if (horizon_s > now_ && horizon_s < next_event) {
        next_event = horizon_s;
      }
      if (std::isfinite(next_event) && next_event > now_) {
        now_ = next_event;
        return true;
      }
      if (!waiting_empty()) {
        // Admission blocked with an empty machine: only injected
        // allocation faults can do this. Retry after a tick.
        now_ += config_.backoff_base_s;
        return true;
      }
      if (!paused_.empty() || !pending_.empty()) {
        now_ += config_.backoff_base_s;
        return true;
      }
      return false;  // nothing running, waiting, paused or pending
    }

    // --- Chunked prefill: one scheduler quantum of prompt tokens ---
    // FIFO across requests still mid-prefill (admission order), so an
    // earlier prompt finishes before a later one starts — except that the
    // class-aware policy serves higher tiers' chunks first (stable within
    // a tier), so an interactive prompt's TTFT is not queued behind batch
    // prefills that happen to be mid-flight. Each request stamps its own
    // prefill_start_s when its first chunk runs and its own first_token_s
    // when its last chunk completes — timestamps are never shared across
    // an admission round.
    {
      double stall = 0.0;
      bool degraded = false;
      dead_.assign(running_.size(), 0);
      // Only requests still mid-prefill take a chunk, in batch order, one
      // tier after another under the class-aware policy.
      order_.clear();
      const std::size_t tiers = class_aware_ ? kServiceClassCount : 1;
      for (std::size_t c = 0; c < tiers; ++c) {
        for (std::size_t i = 0; i < running_.size(); ++i) {
          if (running_[i].prompt_left == 0) continue;
          if (class_aware_ && class_of(running_[i].trace_index) != c) {
            continue;
          }
          order_.push_back(i);
        }
      }
      std::size_t budget = d_.quantum;
      for (std::size_t oi = 0; oi < order_.size() && budget > 0; ++oi) {
        const std::size_t i = order_[oi];
        if (dead_[i] != 0) continue;
        const std::size_t chunk =
            std::min(running_[i].prompt_left, budget);
        const bool last = chunk == running_[i].prompt_left;
        // The last chunk also backs the first generated token's slot.
        const std::size_t target =
            running_[i].context + chunk + (last ? 1 : 0);
        if (!ensure_pages(i, target, dead_, stall, degraded)) continue;
        Running& ru = running_[i];
        Request& r = result_.requests[ru.trace_index];
        if (r.prefill_start_s < 0.0) r.prefill_start_s = now_;
        const double cost = chunk_cost(chunk, ru.context, ru.kv_bits);
        now_ += cost;
        result_.busy_s += cost;
        ru.context += chunk;
        ru.prompt_left -= chunk;
        budget -= chunk;
        result_.prefilled_tokens += chunk;
        if (ru.prompt_left > 0) continue;
        // Prompt complete: publish its full pages in the prefix index so
        // later prompts (next session turn, same system prompt) attach
        // instead of re-prefilling. First writer wins on chunks another
        // request already registered; degraded-precision pages pack a
        // different token count and are never published.
        if (!r.prompt_ids.empty() && ru.kv_bits == d_.bits_normal) {
          const std::size_t n_full =
              std::min({r.prompt_tokens / d_.tpp_normal,
                        r.prompt_ids.size() / d_.tpp_normal,
                        ru.pages.size()});
          pages_.index(
              std::span<const std::int32_t>(r.prompt_ids.data(),
                                            n_full * d_.tpp_normal),
              std::span<const PageId>(ru.pages.data(), n_full));
        }
        // The prompt's last-position output is the first generated token.
        if (r.generated == 0 && ru.remaining > 0) {
          r.first_token_s = now_;
          r.generated = 1;
          ru.remaining -= 1;
          ru.context += 1;
        }
        if (ru.remaining == 0) {
          r.finish_s = now_;
          r.outcome = Outcome::kCompleted;
          release_all(ru);
          ++finished_;
          dead_[i] = 1;
        } else if (config_.role == EngineRole::kPrefillOnly) {
          // Disaggregated handoff: the prompt (and its first token) is
          // done, so this prefill worker lifts the request — KV stream
          // included, exactly what a drain would serialize — into the
          // handoff queue for the fleet router to land on a decode
          // replica. Accounting moves with it (drained_ flag, live
          // count, pages released), so the zero-leak and exactly-one-
          // terminal-state invariants keep holding here.
          MigratableRequest m;
          m.request = r;
          m.context = ru.context;
          m.remaining = ru.remaining;
          m.prompt_left = 0;
          m.kv_bits = ru.kv_bits;
          if (config_.preempt_mode == PreemptMode::kSwap &&
              ru.context > 0) {
            m.bytes = static_cast<double>(ru.pages.size()) * d_.page_bytes;
            m.has_stream = true;
          }
          m.ready_s = now_;
          release_all(ru);
          drained_[ru.trace_index] = 1;
          --live_total_;
          ++result_.prefill_handoffs;
          prefilled_.push_back(std::move(m));
          dead_[i] = 1;
        }
      }
      compact_running(dead_);
      now_ += stall;
      result_.swap_stall_s += stall;
      if (degraded) ++result_.degraded_steps;
      result_.peak_kv_bytes = std::max(
          result_.peak_kv_bytes,
          static_cast<double>(pages_.used()) * d_.page_bytes);
      result_.peak_referenced_pages =
          std::max(result_.peak_referenced_pages, referenced_pages());
    }
    if (running_.empty()) return true;  // everyone finished or was evicted

    // --- Decode-step page growth; preemption is the backstop ---
    // Each decoding request about to append token `context + 1` may need
    // one more page; requests still mid-prefill grow with their cursor
    // instead. Injected allocation faults evict the request they hit (a
    // degraded step); genuine exhaustion evicts the class-aware victim
    // and retries.
    {
      double stall = 0.0;
      bool degraded = false;
      dead_.assign(running_.size(), 0);
      for (std::size_t i = 0; i < running_.size(); ++i) {
        if (dead_[i] != 0) continue;
        if (running_[i].prompt_left > 0) continue;
        ensure_pages(i, running_[i].context + 1, dead_, stall, degraded);
      }
      compact_running(dead_);
      now_ += stall;
      result_.swap_stall_s += stall;
      if (degraded) ++result_.degraded_steps;
    }
    if (running_.empty()) return true;  // everyone was evicted this step

    // One decode iteration across the decoding portion of the batch
    // (requests mid-prefill hold their batch slot but do not decode).
    // With mixed per-request precision the step is costed at the
    // context-weighted average stored bits — the batch's aggregate KV
    // traffic — so downshifted requests speed the whole step up.
    std::size_t decoders = 0;
    std::size_t max_context = 0;
    double bits_weight = 0.0;
    double context_weight = 0.0;
    for (const Running& ru : running_) {
      if (ru.prompt_left > 0) continue;
      ++decoders;
      max_context = std::max(max_context, ru.context);
      bits_weight += static_cast<double>(ru.context) * ru.kv_bits;
      context_weight += static_cast<double>(ru.context);
    }
    if (decoders == 0) return true;  // pure-prefill iteration
    sim::InferenceConfig dcfg;
    dcfg.method = config_.method;
    dcfg.attention = config_.attention;
    if (context_weight > 0.0) {
      dcfg.attention.kv_bits = bits_weight / context_weight;
    }
    dcfg.batch = decoders;
    dcfg.prompt = max_context;
    const double step_s = sim::decode_step_breakdown(
                              config_.device, config_.geometry, dcfg,
                              max_context)
                              .total();
    now_ += step_s;
    result_.busy_s += step_s;
    result_.peak_kv_bytes = std::max(
        result_.peak_kv_bytes,
        static_cast<double>(pages_.used()) * d_.page_bytes);
    result_.peak_referenced_pages =
        std::max(result_.peak_referenced_pages, referenced_pages());

    dead_.assign(running_.size(), 0);
    for (std::size_t i = 0; i < running_.size(); ++i) {
      Running& ru = running_[i];
      if (ru.prompt_left > 0) continue;
      Request& r = result_.requests[ru.trace_index];
      if (ru.remaining > 0) {
        if (r.generated == 0 && r.first_token_s < 0.0) {
          r.first_token_s = now_;  // degenerate zero-length-prompt path
        }
        ru.remaining -= 1;
        ru.context += 1;
        r.generated += 1;
      }
      if (ru.remaining == 0) {
        r.finish_s = now_;
        r.outcome = Outcome::kCompleted;
        release_all(ru);
        ++finished_;
        dead_[i] = 1;
      }
    }
    compact_running(dead_);
    return true;
  }

  std::vector<MigratableRequest> drain() {
    std::vector<MigratableRequest> out;
    auto lift = [&](std::size_t idx, std::size_t context,
                    std::size_t remaining, std::size_t prompt_left,
                    double kv_bits, bool has_stream, double bytes) {
      MigratableRequest m;
      m.request = result_.requests[idx];
      m.context = context;
      m.remaining = remaining;
      m.prompt_left = prompt_left;
      m.kv_bits = kv_bits;
      m.has_stream = has_stream;
      m.bytes = bytes;
      m.ready_s = now_;
      drained_[idx] = 1;
      --live_total_;
      out.push_back(std::move(m));
    };
    // Running requests: their resident KV is the migration payload. The
    // drain serializes it (phantom: byte counts) straight onto the wire,
    // so has_stream mirrors what a preemption swap-out would have parked.
    for (Running& ru : running_) {
      double bytes = 0.0;
      bool has_stream = false;
      if (config_.preempt_mode == PreemptMode::kSwap && ru.context > 0) {
        bytes = static_cast<double>(ru.pages.size()) * d_.page_bytes;
        has_stream = true;
      }
      release_all(ru);
      lift(ru.trace_index, ru.context, ru.remaining, ru.prompt_left,
           ru.kv_bits, has_stream, bytes);
    }
    running_.clear();
    // Paused requests: a parked stream leaves the store with them.
    for (const Paused& p : paused_) {
      if (p.swapped) {
        swap_store_->erase(stream_key(result_.requests[p.trace_index].id));
      }
      lift(p.trace_index, p.context, p.remaining, p.prompt_left, p.kv_bits,
           p.swapped, p.bytes);
    }
    paused_.clear();
    // Waiting and not-yet-arrived requests have no KV: plain re-routes.
    for (auto& queue : waiting_) {
      for (const std::size_t idx : queue) {
        if (queued_[idx] == 0) continue;  // timed out in place
        queued_[idx] = 0;
        const Request& r = result_.requests[idx];
        lift(idx, 0, r.max_new_tokens, r.prompt_tokens, 0.0, false, 0.0);
      }
      queue.clear();
    }
    expiry_ = {};
    for (const std::size_t idx : pending_) {
      const Request& r = result_.requests[idx];
      if (r.outcome != Outcome::kPending) continue;  // rejected: terminal
      lift(idx, 0, r.max_new_tokens, r.prompt_tokens, 0.0, false, 0.0);
    }
    pending_.clear();
    // Finished prefills the router has not collected yet leave with the
    // drain: their accounting (drained_ flag, live count, pages) already
    // moved when they were lifted, so they only ride along.
    for (MigratableRequest& m : prefilled_) out.push_back(std::move(m));
    prefilled_.clear();
    // Unreferenced retained prefix pages are cache, not state: drop them
    // so the zero-leak check below sees a genuinely empty allocator.
    pages_.flush_retained();
    // Zero-leak invariants: a drained replica holds no pages and no
    // parked streams — nothing to leak when the router tears it down.
    TURBO_CHECK_MSG(pages_.used() == 0, "drained replica leaked KV pages");
    TURBO_CHECK_MSG(pages_.books_empty(),
                    "drained replica still charges pages");
    if (swap_store_.has_value()) {
      TURBO_CHECK_MSG(swap_store_->count() == 0,
                      "drained replica leaked parked swap streams");
    }
    return out;
  }

  EngineResult finish() {
    result_.makespan_s = now_;
    result_.injected_alloc_failures = pages_.injected_failures();
    result_.retained_pages_reclaimed = pages_.reclaimed();
    result_.hit_time_limit = finished_ < live_total_;
    check_books();
    // Every request reached a terminal state, so none holds a page.
    if (!result_.hit_time_limit) {
      TURBO_CHECK_MSG(pages_.books_empty(),
                      "terminal run still charges pages");
    }
    if (swap_store_.has_value()) {
      // No-leak invariant: every request reached exactly one terminal
      // state, and every terminal path (swap-in, unavailable-recompute,
      // timeout, checksum drop) erased its parked stream. Only the
      // max_sim_time_s safety stop may strand entries.
      if (!result_.hit_time_limit) {
        TURBO_CHECK_MSG(
            swap_store_->count() == 0,
            "terminal run left streams parked in the swap store");
      }
      for (std::size_t t = 0; t < swap_store_->tier_count(); ++t) {
        const TieredSwapStore::TierCounters& tc = swap_store_->counters(t);
        result_.tier_stats[t] = tc;
        result_.tier_blacklists += tc.blacklists;
        if (tc.stores > 0 || tc.demotions_in > 0) ++result_.swap_tiers_used;
      }
    }
    // Requests drained to another replica reach their terminal state
    // there; dropping them here keeps exactly-one-terminal-state across
    // the fleet union.
    bool any_drained = false;
    for (const char dflag : drained_) {
      if (dflag != 0) any_drained = true;
    }
    if (any_drained) {
      std::vector<Request> kept;
      kept.reserve(result_.requests.size());
      for (std::size_t i = 0; i < result_.requests.size(); ++i) {
        if (drained_[i] == 0) kept.push_back(std::move(result_.requests[i]));
      }
      result_.requests.swap(kept);
    }
    return std::move(result_);
  }

  std::vector<MigratableRequest> take_prefilled() {
    std::vector<MigratableRequest> out;
    out.swap(prefilled_);
    return out;
  }

  // Serialize every non-terminal request into `store` under this
  // replica's id. Pure observation: the snapshot is what drain() *would*
  // lift right now, captured without touching pages, queues or the clock
  // — which is exactly what makes it crash-consistent.
  void snapshot_to(SnapshotStore& store, FaultInjector* fault) {
    ReplicaSnapshot snap;
    snap.replica = config_.replica_id;
    snap.taken_at_s = now_;
    auto add = [&](const Request& r, std::size_t context,
                   std::size_t remaining, std::size_t prompt_left,
                   double kv_bits, double bytes) {
      SnapshotEntry e;
      e.request = r;
      e.context = context;
      e.remaining = remaining;
      e.prompt_left = prompt_left;
      e.kv_bits = kv_bits;
      e.bytes = bytes;
      snap.entries.push_back(std::move(e));
    };
    for (const Running& ru : running_) {
      double bytes = 0.0;
      if (config_.preempt_mode == PreemptMode::kSwap && ru.context > 0) {
        bytes = static_cast<double>(ru.pages.size()) * d_.page_bytes;
      }
      add(result_.requests[ru.trace_index], ru.context, ru.remaining,
          ru.prompt_left, ru.kv_bits, bytes);
    }
    for (const Paused& p : paused_) {
      add(result_.requests[p.trace_index], p.context, p.remaining,
          p.prompt_left, p.kv_bits, p.swapped ? p.bytes : 0.0);
    }
    for (const auto& queue : waiting_) {
      for (const std::size_t idx : queue) {
        if (queued_[idx] == 0) continue;  // timed out in place
        const Request& r = result_.requests[idx];
        add(r, 0, r.max_new_tokens, r.prompt_tokens, 0.0, 0.0);
      }
    }
    for (const std::size_t idx : pending_) {
      const Request& r = result_.requests[idx];
      if (r.outcome != Outcome::kPending) continue;  // rejected: terminal
      add(r, 0, r.max_new_tokens, r.prompt_tokens, 0.0, 0.0);
    }
    for (const MigratableRequest& m : prefilled_) {
      add(m.request, m.context, m.remaining, m.prompt_left, m.kv_bits,
          m.has_stream ? m.bytes : 0.0);
    }
    const SnapshotStore::SaveOutcome so =
        store.save(config_.replica_id, snap, fault);
    if (so.stored) {
      ++result_.snapshots_written;
      result_.snapshot_bytes += so.bytes;
    }
  }

  // Warm-restart recovery ladder on a freshly constructed incarnation:
  // snapshot entry -> adopt with its stream (replay only the
  // post-snapshot delta); no entry -> recompute the whole crash-time
  // context from the prompt; snapshot entry with no lost request ->
  // dropped (it reached a terminal state, or migrated away, before the
  // crash — re-running it would mint a second terminal state).
  void restore_from(SnapshotStore& store,
                    const std::vector<MigratableRequest>& lost,
                    double restart_s, FaultInjector* fault) {
    TURBO_CHECK_MSG(live_total_ == 0,
                    "restore_from() on an engine already holding work");
    result_.replica_crashes = 1;
    now_ = std::max(now_, restart_s);
    const SnapshotStore::RestoreOutcome ro =
        store.restore(config_.replica_id, fault);
    // Ordered map so recovery scans deterministically (lint rule 8).
    std::map<std::uint64_t, const SnapshotEntry*> by_id;
    if (ro.status == SnapshotStore::RestoreStatus::kHit) {
      ++result_.snapshot_restores;
      for (const SnapshotEntry& e : ro.snapshot.entries) {
        by_id.emplace(e.request.id, &e);
      }
    } else if (ro.status == SnapshotStore::RestoreStatus::kCorrupt) {
      ++result_.snapshot_corruptions;
    }
    std::size_t entries_used = 0;
    for (const MigratableRequest& m : lost) {
      const auto it = by_id.find(m.request.id);
      if (it != by_id.end()) {
        // Snapshot hit: resume from the persisted state (stream and
        // all); only the progress between snapshot and crash replays.
        const SnapshotEntry& e = *it->second;
        ++entries_used;
        MigratableRequest r;
        r.request = e.request;
        r.context = e.context;
        r.remaining = e.remaining;
        r.prompt_left = e.prompt_left;
        r.kv_bits = e.kv_bits;
        r.has_stream = e.bytes > 0.0;
        r.bytes = e.bytes;
        r.ready_s = restart_s;
        adopt(r, restart_s, r.has_stream);
        ++result_.restored_requests;
        if (m.context > e.context) {
          result_.replayed_tokens += m.context - e.context;
        }
      } else if (m.context > 0) {
        // The snapshot predates this request (or failed its CRC): the
        // whole crash-time context recomputes from the prompt.
        adopt(m, restart_s, /*with_stream=*/false);
        ++result_.crash_recomputes;
        result_.replayed_tokens += m.context;
      } else {
        // Nothing was cached at the crash: a plain re-queue.
        adopt(m, restart_s, /*with_stream=*/false);
      }
    }
    result_.dedupe_drops += ro.snapshot.entries.size() - entries_used;
  }

  double now() const { return now_; }
  bool done() const { return finished_ >= live_total_; }
  bool has_work() const { return finished_ < live_total_; }
  std::size_t used_pages() const { return pages_.used(); }
  std::size_t live() const { return live_total_ - finished_; }
  std::size_t total_pages() const { return d_.page_count; }
  // Pages live sequences actually reference (retained pages excluded):
  // the occupancy eviction cannot lower, which is what the pressure
  // controller, the bench's peak-occupancy claim and the fleet's decode
  // watermark must see.
  std::size_t referenced_pages() const {
    return pages_.used() - pages_.retained();
  }
  std::size_t prefix_match_tokens(const Request& r) const {
    return pages_.radix().match_pages(prefix_span(r, d_.bits_normal)) *
           d_.tpp_normal;
  }

  void advance_to(double t) {
    TURBO_CHECK_MSG(running_.empty(),
                    "advance_to() with work still running");
    now_ = std::max(now_, t);
  }

 private:
  std::uint64_t stream_key(std::uint64_t id) const {
    return swap_stream_key(config_.replica_id, id);
  }

  std::size_t pages_needed(std::size_t tokens, double bits) const {
    const std::size_t tpp =
        bits == d_.bits_normal ? d_.tpp_normal : d_.tpp_degraded;
    return (tokens + tpp - 1) / tpp;
  }

  std::size_t class_of(std::size_t idx) const {
    return static_cast<std::size_t>(result_.requests[idx].service_class);
  }

  bool waiting_empty() const {
    for (const auto& q : waiting_) {
      if (!q.empty()) return false;
    }
    return true;
  }

  // Append a newly waiting request to its class queue and, when deadlines
  // are enforced and it has one, to the expiry index.
  void enqueue(std::size_t idx) {
    waiting_[class_of(idx)].push_back(idx);
    queued_[idx] = 1;
    if (!config_.enforce_deadlines) return;
    const double e = expiry_of(result_.requests[idx]);
    if (std::isfinite(e)) expiry_.emplace(e, idx);
  }

  // `idx` stops waiting. Entries of requests no longer waiting are popped
  // off both ends of its class queue, so empty(), front() and back() only
  // ever see live requests; one that stops waiting mid-queue (a timeout)
  // stays until it reaches an end.
  void dequeue(std::size_t idx) {
    queued_[idx] = 0;
    std::deque<std::size_t>& q = waiting_[class_of(idx)];
    while (!q.empty() && queued_[q.front()] == 0) q.pop_front();
    while (!q.empty() && queued_[q.back()] == 0) q.pop_back();
  }

  double current_bits() const {
    return ladder_level_ >= kLevelDownshift ? d_.bits_degraded
                                            : d_.bits_normal;
  }

  // Accuracy proxy for the downshifted precision: round-trip RMSE of the
  // two-stage progressive quantizer on a synthetic Gaussian KV block,
  // computed once on first downshift (src/quant/error.h).
  void record_degrade_proxy() {
    if (result_.degrade_rmse_proxy != 0.0) return;
    const int b =
        std::clamp(static_cast<int>(std::lround(d_.bits_degraded)), 2, 4);
    MatrixF sample(128,
                   std::max<std::size_t>(config_.geometry.head_dim, 16));
    Rng rng(0xACC);
    for (std::size_t r = 0; r < sample.rows(); ++r) {
      rng.fill_normal(sample.row(r), 0.0, 1.0);
    }
    result_.degrade_rmse_proxy =
        progressive_quant_rmse(sample, bit_width_from_int(b), 64);
  }

  // Cost of prefilling a `chunk`-token slice with `cached` tokens already
  // resident (stored at `bits`): attention spans cached + chunk, GEMMs
  // cover the chunk only.
  double chunk_cost(std::size_t chunk, std::size_t cached,
                    double bits) const {
    sim::InferenceConfig pcfg;
    pcfg.method = config_.method;
    pcfg.attention = config_.attention;
    pcfg.attention.kv_bits = bits;
    pcfg.batch = 1;
    pcfg.prompt = chunk;
    return sim::chunk_prefill_breakdown(config_.device, config_.geometry,
                                        pcfg, cached)
        .total();
  }
  // Monolithic prefill over `tokens` (recompute of evicted context).
  double prefill_cost(std::size_t tokens, double bits) const {
    return chunk_cost(tokens, 0, bits);
  }

  // Free pages plus the reclaimable retained pool — what admission and
  // guarantee reclaim may actually count on.
  std::size_t effective_free() const {
    return pages_.free() + pages_.retained();
  }

  void release_all(Running& ru) {
    const std::size_t c = class_of(ru.trace_index);
    for (const PageId p : ru.pages) pages_.unref(p, c);
    ru.pages.clear();
  }

  // The prompt ids admission at `bits` may match against the prefix
  // index, capped so at least one prompt token is always left to prefill
  // (the last-chunk path stamps first_token_s). Empty for legacy requests
  // and away from the configured precision (pages pack tpp_normal tokens;
  // a degraded admission must not adopt them).
  std::span<const std::int32_t> prefix_span(const Request& r,
                                            double bits) const {
    if (r.prompt_ids.empty() || bits != d_.bits_normal) return {};
    std::size_t limit = std::min(r.prompt_ids.size(), r.prompt_tokens);
    if (limit > 0) limit -= 1;  // never attach the whole prompt
    return std::span<const std::int32_t>(r.prompt_ids).first(limit);
  }

  // Pages of `ru` referenced by somebody else too — evicting them frees
  // nothing.
  std::size_t shared_page_count(const Running& ru) const {
    std::size_t n = 0;
    for (const PageId p : ru.pages) {
      if (pages_.refs(p) > 1) ++n;
    }
    return n;
  }

  // Bounded exponential backoff with deterministic seeded jitter: victims
  // evicted in the same round (equal backoff) get distinct re-admission
  // times keyed by (jitter_seed, request id, eviction count), so they do
  // not stampede one re-admission pass. Jitter stretches the delay by at
  // most `backoff_jitter`; it never shortens it, so the cap still bounds
  // the un-jittered wait.
  double backoff_for(const Request& r) const {
    const std::size_t n = r.preemptions;
    const std::size_t exp = std::min<std::size_t>(n > 0 ? n - 1 : 0, 16);
    double delay =
        std::min(kBackoffCapS,
                 config_.backoff_base_s *
                     static_cast<double>(std::size_t{1} << exp));
    if (config_.backoff_jitter > 0.0) {
      const std::uint64_t h = splitmix64(
          config_.jitter_seed ^ splitmix64(r.id * 0x100000001b3ull + n));
      const double u =
          static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
      delay *= 1.0 + config_.backoff_jitter * u;
    }
    return delay;
  }

  // Evict `victim`: swap its pages to the host store (PCIe cost) or drop
  // them for recomputation. A victim with nothing cached yet (preempted
  // before its first chunk) has nothing to swap and is simply dropped.
  // Returns the transfer stall incurred.
  //
  // CoW safety: the leading run of shared/registered pages is neither
  // serialized nor freed — other residents (or the retained pool) keep
  // those pages, and re-admission re-attaches them through the index. A
  // swapped stream therefore covers only the victim's private tokens.
  double preempt(Running& victim) {
    Request& r = result_.requests[victim.trace_index];
    ++result_.preemptions;
    ++r.preemptions;
    result_.max_preemptions_single_request =
        std::max(result_.max_preemptions_single_request, r.preemptions);
    Paused p{victim.trace_index, victim.context,
             victim.remaining,   victim.prompt_left,
             now_ + backoff_for(r), false,
             0.0,                victim.kv_bits};
    // Leading indexed pages are the re-attachable prefix; everything
    // after the first unindexed page is this victim's private state.
    std::size_t kept = 0;
    while (kept < victim.pages.size() &&
           pages_.indexed(victim.pages[kept])) {
      ++kept;
    }
    const std::size_t private_pages = victim.pages.size() - kept;
    p.prefix_tokens = std::min(kept * d_.tpp_normal, victim.context);
    double stall = 0.0;
    if (config_.preempt_mode == PreemptMode::kSwap) {
      // A victim with nothing cached yet (evicted before its first
      // prefill chunk) — or whose whole cached state lives in shared
      // prefix pages — has no stream to move: zero-cost "swap".
      if (victim.context > p.prefix_tokens && private_pages > 0) {
        const double bytes =
            static_cast<double>(private_pages) * d_.page_bytes;
        const TieredSwapStore::StoreOutcome so = swap_store_->store_phantom(
            stream_key(r.id), static_cast<std::size_t>(bytes), iteration_,
            now_, &fault_);
        if (so.stored) {
          ++result_.preempted_swap;
          p.swapped = true;
          p.bytes = bytes;
          result_.swap_out_bytes += p.bytes;
          stall = so.transfer_s;
          result_.tier_demotions += so.demotions;
        } else {
          // Every tier full or unreachable: the stream has nowhere to
          // go, so this victim degrades to recompute-on-re-admission.
          ++result_.preempted_recompute;
          ++result_.swap_overflow_recomputes;
        }
      } else {
        ++result_.preempted_swap;
      }
    } else {
      ++result_.preempted_recompute;
    }
    release_all(victim);
    paused_.push_back(p);
    return stall;
  }

  // Preemption victim among alive running requests: non-pinned first;
  // then (class-aware) the lowest service class — batch evicted before
  // standard before interactive; then lowest Request::priority; then
  // latest arrival. Returns running_.size() when nothing is eligible.
  std::size_t pick_victim(const std::vector<char>& dead) const {
    std::size_t best = running_.size();
    for (std::size_t j = 0; j < running_.size(); ++j) {
      if (dead[j] != 0) continue;
      if (best == running_.size()) {
        best = j;
        continue;
      }
      const Request& r = result_.requests[running_[j].trace_index];
      const Request& b = result_.requests[running_[best].trace_index];
      if (running_[j].pinned != running_[best].pinned) {
        if (!running_[j].pinned) best = j;
        continue;
      }
      if (class_aware_ && r.service_class != b.service_class) {
        if (static_cast<int>(r.service_class) >
            static_cast<int>(b.service_class)) {
          best = j;  // lower tier (higher enum value) evicted first
        }
        continue;
      }
      // Prefer victims holding fewer shared pages: evicting a request
      // whose state is mostly shared prefix frees almost nothing.
      {
        const std::size_t sj = shared_page_count(running_[j]);
        const std::size_t sb = shared_page_count(running_[best]);
        if (sj != sb) {
          if (sj < sb) best = j;
          continue;
        }
      }
      if (r.priority != b.priority) {
        if (r.priority < b.priority) best = j;
        continue;
      }
      if (r.arrival_s > b.arrival_s ||
          (r.arrival_s == b.arrival_s && r.id > b.id)) {
        best = j;
      }
    }
    return best;
  }

  // Grow running_[i]'s page list until it backs `target` tokens, evicting
  // victims on genuine exhaustion. An injected allocation fault evicts
  // running_[i] itself (a degraded step). Returns false when running_[i]
  // was evicted (its dead[] slot is set).
  bool ensure_pages(std::size_t i, std::size_t target,
                    std::vector<char>& dead, double& stall,
                    bool& degraded) {
    while (running_[i].pages.size() <
           pages_needed(target, running_[i].kv_bits)) {
      const std::size_t injected_before = pages_.injected_failures();
      const PageId page = pages_.alloc(class_of(running_[i].trace_index));
      if (page != kInvalidPage) {
        running_[i].pages.push_back(page);
        continue;
      }
      if (pages_.injected_failures() > injected_before) {
        // The fault hit this request's allocation: it is the victim.
        stall += preempt(running_[i]);
        dead[i] = 1;
        degraded = true;
        return false;
      }
      const std::size_t v = pick_victim(dead);
      TURBO_CHECK_MSG(v < running_.size(),
                      "page exhaustion with no evictable request");
      stall += preempt(running_[v]);
      dead[v] = 1;
      if (v == i) return false;  // evicted itself; no page needed
    }
    return true;
  }

  // Remove the dead[] entries of running_ in place. Stable: the chunk
  // scheduler is FIFO over this vector's order, so removals must not
  // reorder survivors.
  void compact_running(const std::vector<char>& dead) {
    const auto first = std::find(dead.begin(), dead.end(), char{1});
    if (first == dead.end()) return;
    auto kept = static_cast<std::size_t>(first - dead.begin());
    for (std::size_t i = kept + 1; i < running_.size(); ++i) {
      if (dead[i] == 0) running_[kept++] = std::move(running_[i]);
    }
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(kept),
                   running_.end());
  }

  // The instant a request misses a deadline: its TTFT deadline while it
  // has no first token, or its e2e deadline, whichever comes first
  // (+infinity with neither).
  static double expiry_of(const Request& r) {
    double e = std::numeric_limits<double>::infinity();
    if (r.ttft_deadline_s > 0.0 && r.first_token_s < 0.0) {
      e = r.arrival_s + r.ttft_deadline_s;
    }
    if (r.e2e_deadline_s > 0.0) {
      e = std::min(e, r.arrival_s + r.e2e_deadline_s);
    }
    return e;
  }
  // A request has irrecoverably missed a deadline. Rounding is monotonic,
  // so comparing against the earlier expiry plus the slack is the same
  // test as comparing against each deadline plus the slack.
  bool deadline_expired(const Request& r) const {
    return config_.enforce_deadlines && now_ > expiry_of(r) + kDeadlineSlack;
  }
  void time_out(Request& r) {
    r.finish_s = now_;
    r.outcome = Outcome::kTimedOut;
    ++result_.timed_out;
    ++finished_;
  }

  // Pin threshold for a request's class (0 in ClassPolicy = inherit the
  // engine-wide default).
  std::size_t pin_threshold(std::size_t idx) const {
    const std::size_t per_class =
        config_.classes[class_of(idx)].pin_after_preemptions;
    return per_class > 0 ? per_class : config_.pin_after_preemptions;
  }

  // The pool's per-class charge (kvcache/page_pool.h) by a walk over every
  // running request's pages: the Debug oracle check_books() compares.
  std::size_t recount_class_pages(std::size_t c) const {
    std::size_t used = 0;
    for (const Running& ru : running_) {
      if (class_of(ru.trace_index) != c) continue;
      for (const PageId p : ru.pages) {
        if (pages_.refs(p) == 1) ++used;
      }
    }
    return used;
  }
  // The page books, checked once per step in O(1) by the pool; Debug
  // builds also recount each class's charge the slow way.
  void check_books() const {
    pages_.check_books();
    for (std::size_t c = 0; c < kServiceClassCount; ++c) {
      TURBO_DCHECK(pages_.charged(c) == recount_class_pages(c));
    }
  }
  std::size_t guaranteed_pages(std::size_t c) const {
    return static_cast<std::size_t>(config_.classes[c].page_share *
                                    static_cast<double>(d_.page_count));
  }
  // A class has demand when it has waiting or paused requests — its
  // unmet guarantee is then protected from borrowing by other classes.
  bool class_has_demand(std::size_t c) const {
    if (!waiting_[c].empty()) return true;
    for (const Paused& p : paused_) {
      if (class_of(p.trace_index) == c) return true;
    }
    return false;
  }

  // Can a fresh request of class `c` take `needed` pages right now?
  // Within its guaranteed share a class bypasses the admit reserve;
  // borrowing beyond it must leave the reserve plus every other
  // demanding class's unmet guarantee free (work-conserving quotas).
  bool admission_allowed(std::size_t c, std::size_t needed) const {
    const std::size_t free = effective_free();
    const std::size_t reserve = running_.empty() ? 0 : d_.reserve_pages;
    if (!class_aware_) return free >= needed + reserve;
    if (pages_.charged(c) + needed <= guaranteed_pages(c)) {
      return free >= needed;
    }
    std::size_t protected_deficit = 0;
    for (std::size_t dc = 0; dc < kServiceClassCount; ++dc) {
      if (dc == c || !class_has_demand(dc)) continue;
      const std::size_t used = pages_.charged(dc);
      const std::size_t guaranteed = guaranteed_pages(dc);
      if (used < guaranteed) protected_deficit += guaranteed - used;
    }
    return free >= needed + reserve + protected_deficit;
  }

  EngineConfig config_;
  DerivedConfig d_;
  // Page references, per-class charges, the prefix index and the
  // retained pool, over phantom pages: the engine tracks page counts, not
  // KV payloads. A page's charge is billed to its holder's service class;
  // a shared prefix page is charged to nobody, because evicting any
  // single resident would not free it.
  PagePool pages_;
  FaultInjector fault_;
  std::optional<TieredSwapStore> swap_store_;
  EngineResult result_;
  // Per-request flags, parallel to result_.requests: 1 = drained to
  // another replica (excluded from finish()).
  std::vector<char> drained_;
  // Per-request flags, parallel to result_.requests: 1 while the request
  // is waiting. A request enters waiting_ at most once (adopt() mints a
  // new index), so this flag is what makes a queue or index entry live.
  std::vector<char> queued_;

  bool class_aware_ = false;
  // Per-class waiting queues (FIFO within a class). Under kFifo the three
  // queues are drained strictly in global arrival order. Requests timed
  // out mid-queue stay as dead entries until dequeue() reaches them.
  std::array<std::deque<std::size_t>, kServiceClassCount> waiting_;
  // Expiry index over waiting requests with a deadline (enforced only):
  // a min-heap of (expiry_of(), trace index). Entries of requests that
  // left waiting_ another way are dropped when they surface.
  using Expiry = std::pair<double, std::size_t>;
  std::priority_queue<Expiry, std::vector<Expiry>, std::greater<>> expiry_;
  std::vector<Running> running_;
  // Per-step buffers reused across steps: dead flags over running_ and the
  // chunk phase's visiting order.
  std::vector<char> dead_;
  std::vector<std::size_t> order_;
  std::vector<Paused> paused_;
  // Finished prefills awaiting router pickup (EngineRole::kPrefillOnly):
  // lifted out of the scheduler — pages released, accounting moved — but
  // not yet landed on a decode replica.
  std::vector<MigratableRequest> prefilled_;
  // Submitted requests whose arrival time is still in the future (plus
  // already-terminal rejected entries, kept so idle jumps land on the
  // same arrival instants as the monolithic loop).
  std::deque<std::size_t> pending_;
  // Latest arrival submit() has taken: later submissions may not precede it.
  double last_arrival_s_ = -std::numeric_limits<double>::infinity();
  std::size_t live_total_ = 0;   // submitted + adopted - drained
  std::size_t finished_ = 0;     // reached a terminal state here
  double now_ = 0.0;
  // Engine iteration counter: the LRU clock for the tiered swap store
  // (last-touch recency of parked streams).
  std::size_t iteration_ = 0;

  // --- Pressure controller (degradation ladder) state ---------------------
  std::size_t ladder_level_ = kLevelNormal;
  std::deque<double> occupancy_window_;
  std::size_t iters_since_level_change_ = 0;
};

Engine::Engine(const EngineConfig& config)
    : impl_(std::make_unique<EngineImpl>(config)) {}
Engine::~Engine() = default;
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;

void Engine::submit(const Request& r) { impl_->submit(Request(r)); }
void Engine::submit(Request&& r) { impl_->submit(std::move(r)); }
void Engine::adopt(const MigratableRequest& m, double eligible_s,
                   bool with_stream) {
  impl_->adopt(m, eligible_s, with_stream);
}
bool Engine::step(double horizon_s) { return impl_->step(horizon_s); }
std::vector<MigratableRequest> Engine::drain() { return impl_->drain(); }
std::vector<MigratableRequest> Engine::take_prefilled() {
  return impl_->take_prefilled();
}
void Engine::snapshot_to(SnapshotStore& store, FaultInjector* fault) {
  impl_->snapshot_to(store, fault);
}
void Engine::restore_from(SnapshotStore& store,
                          const std::vector<MigratableRequest>& lost,
                          double restart_s, FaultInjector* fault) {
  impl_->restore_from(store, lost, restart_s, fault);
}
EngineResult Engine::finish() { return impl_->finish(); }
double Engine::now() const { return impl_->now(); }
bool Engine::done() const { return impl_->done(); }
bool Engine::has_work() const { return impl_->has_work(); }
std::size_t Engine::used_pages() const { return impl_->used_pages(); }
std::size_t Engine::live() const { return impl_->live(); }
std::size_t Engine::total_pages() const { return impl_->total_pages(); }
std::size_t Engine::referenced_pages() const {
  return impl_->referenced_pages();
}
std::size_t Engine::prefix_match_tokens(const Request& r) const {
  return impl_->prefix_match_tokens(r);
}
void Engine::advance_to(double t) { impl_->advance_to(t); }

EngineResult run_engine(const EngineConfig& config,
                        std::vector<Request> trace) {
  std::sort(trace.begin(), trace.end(),
            [](const Request& a, const Request& b) {
              return a.arrival_s < b.arrival_s;
            });
  Engine engine(config);
  for (Request& r : trace) engine.submit(std::move(r));
  while (!engine.done() && engine.now() < config.max_sim_time_s) {
    if (!engine.step(std::numeric_limits<double>::infinity())) break;
  }
  return engine.finish();
}

}  // namespace turbo::serving
