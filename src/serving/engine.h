// Discrete-event serving engine with continuous (iteration-level)
// batching — the vLLM/Orca-style scheduler the paper's throughput numbers
// implicitly assume, built on the analytical cost model.
//
// The simulation loop alternates:
//   1. Deadline enforcement: requests that can no longer meet their TTFT
//      or e2e deadline are timed out (pages freed) wherever they are.
//      Waiting requests are found through an expiry index (a min-heap of
//      deadline instants), so only the ones that expired are touched;
//      paused and running requests are scanned (the running scan's
//      release order decides page-id reuse, and the paused set is
//      bounded by the backoff window).
//   2. Overload control: a pressure controller watches page-pool
//      occupancy over a sliding window and escalates a degradation
//      ladder — first *downshift* the KV precision of newly (re)admitted
//      requests (the paper's head-wise 4/2-bit mix as a capacity knob),
//      relying on preemption as the standing backstop, then *shed*
//      batch-class admissions outright — and de-escalates when pressure
//      clears.
//   3. Re-admission: preempted requests whose backoff has expired rejoin
//      the batch first (swap-in over the PCIe link, or recompute via a
//      fresh prefill), then waiting requests are admitted — FIFO under
//      SchedPolicy::kFifo, or class-by-class (interactive first) under
//      kClassAware with per-class guaranteed page shares that are
//      work-conserving (idle guarantees are borrowable, unmet guarantees
//      of classes with queued demand are not).
//   4. Chunked prefill (Sarathi-style): up to `prefill_chunk_tokens`
//      prompt tokens are processed per iteration, FIFO across requests
//      still mid-prefill. Each request carries a prefill cursor; KV pages
//      are allocated as the cursor advances (not up-front), and a chunk's
//      cost is attention over (cached + chunk) with GEMMs over the chunk
//      only. prefill_chunk_tokens == 0 restores monolithic prefill.
//   5. One decode iteration: every running request whose prompt is fully
//      prefilled emits one token; the step latency comes from the
//      per-method decode model at the current batch size and maximum
//      context. Decode TPOT is therefore bounded by one chunk, not one
//      prompt.
//
// Outside the cost model a step costs O(batch + expired·log n), n the
// number of indexed waiting requests, with its per-step buffers reused
// across steps: no phase walks the waiting backlog, so simulator time
// grows linearly with the number of requests even when that backlog
// grows all trace long.
//
// KV memory is managed as fixed-size pages through a real page pool
// (kvcache/page_pool.h, the one PagedKvCache runs), so exhaustion (and
// injected allocation faults) surface exactly where they would in a paged
// serving system. Admission is optimistic — a
// request needs only its prompt's pages to start — and decode-time growth
// that cannot be backed by a free page triggers *preemption*: the victim
// is the lowest class (batch before standard before interactive), then
// the lowest Request::priority, then the latest arrival; its KV is either
// dropped for later recomputation or swapped to a host store at PCIe cost
// (see serving/swap.h). Preempted requests re-enter under bounded
// exponential backoff with deterministic seeded jitter (so equal-backoff
// victims don't stampede one re-admission round) and are pinned (never
// victimized again) after a per-class budget of evictions, so no request
// is starved; only a request that could never fit even alone is rejected
// outright. A FaultPlan (common/fault.h) deterministically injects
// allocation failures, swap-stream corruption (detected by checksum,
// recovered by recompute) and swap latency spikes.
//
// Prefix sharing (kvcache/radix_index.h): requests carrying prompt token
// ids are matched against a radix index over resident pages at admission.
// Matched whole pages attach by refcount bump — charged to nobody, not
// prefilled — and only the novel suffix allocates pages and runs through
// chunked prefill. Finished prompts register their full pages in the
// index; pages whose refcount drops to zero park in a retained pool
// (reclaimed LRU under genuine exhaustion) so a follow-up turn can
// re-attach them. Victim selection deprioritizes shared-page holders
// (evicting them frees little), swap-out serializes only private pages,
// and class page-share accounting bills only privately-referenced pages.
// Requests without prompt ids schedule bit-identically to the
// pre-prefix-sharing engine.
//
// Methods differ in exactly two inputs — decode-step latency and KV
// bytes/token — which is what turns the paper's kernel-level wins into
// fleet-level throughput and tail-latency wins.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/fault.h"
#include "serving/request.h"
#include "serving/snapshot.h"
#include "serving/swap.h"
#include "sim/e2e_model.h"

namespace turbo::serving {

// What to do with a preemption victim's KV cache.
enum class PreemptMode {
  kRecompute,  // drop the pages; re-prefill on re-admission
  kSwap,       // serialize to the host store; swap back in on re-admission
};

// Admission / victim-selection policy.
enum class SchedPolicy {
  kFifo,        // single queue, arrival order, class-blind victims
  kClassAware,  // per-class queues, guaranteed shares, class-aware victims
};

// Role of this engine in a disaggregated fleet (src/fleet). A prefill-only
// engine runs chunked prefill to the first token, then lifts the finished
// request — KV stream included — into a handoff queue the fleet router
// drains toward a decode replica (take_prefilled()). Requests it *adopts*
// mid-decode still decode locally (prompt_left == 0 never re-enters the
// prefill path), which is the liveness fallback when no decode replica is
// healthy: a dead role costs latency, never a hung request.
enum class EngineRole {
  kFull,         // symmetric: prefill and decode on one engine (default)
  kPrefillOnly,  // disaggregated prefill worker: hand off after first token
};

// Per-service-class scheduling policy (indexed by ServiceClass).
struct ClassPolicy {
  // Guaranteed fraction of the KV page pool. Work-conserving: an idle
  // class's share is borrowable, but a class cannot borrow past the unmet
  // guarantees of classes with queued demand. Shares must sum to <= 1.
  double page_share = 0.0;
  // Per-class preemption budget: evictions before the request is pinned.
  // 0 = inherit EngineConfig::pin_after_preemptions.
  std::size_t pin_after_preemptions = 0;
};

// Tiered swap-store configuration (PreemptMode::kSwap only). The engine
// builds a TieredSwapStore (serving/swap.h) with tier 0 = host DRAM at
// the device's PCIe bandwidth and, when `tiers == 2`, tier 1 = local
// disk at the device's disk_bandwidth. Capacities of 0 are unbounded, so
// with the defaults every stream lands in host DRAM, and the disk tier
// takes a stream only when an injected fault makes the host tier
// unavailable.
struct TieredSwapConfig {
  std::size_t tiers = 2;                  // 1 = host only, 2 = host + disk
  std::size_t host_capacity_bytes = 0;    // 0 = unbounded
  std::size_t disk_capacity_bytes = 0;    // 0 = unbounded
  TierHealthPolicy health;                // retry / blacklist policy
};

// Graceful-degradation ladder (pressure controller) configuration.
struct DegradeConfig {
  bool enabled = false;
  // Degraded KV precision, expressed as the paper's head-wise mix: the
  // fraction of KV heads downshifted from 4-bit to 2-bit. 1.0 => 2.0
  // average bits (every head 2-bit); 0.5 => the 3.0-bit 2/4 mix. The
  // resulting kv_bits is clamped to never exceed the configured precision.
  double two_bit_head_fraction = 1.0;
  // Sliding-window occupancy thresholds: mean occupancy above `high`
  // escalates one level (normal -> downshift -> shed), below `low`
  // de-escalates. The controller waits `window_iters` iterations between
  // level changes so one burst cannot ride the ladder end to end.
  double high_watermark = 0.85;
  double low_watermark = 0.60;
  std::size_t window_iters = 8;
  // At the shed level, at most this many waiting batch/standard-class
  // requests are dropped per iteration (interactive is never shed).
  std::size_t max_shed_per_iter = 2;
};

struct EngineConfig {
  sim::DeviceSpec device;
  sim::ModelGeometry geometry;
  sim::AttnMethod method = sim::AttnMethod::kFlashFp16;
  sim::AttnCostConfig attention;     // kv_bits etc.
  std::size_t max_batch = 256;       // scheduler cap
  double memory_headroom = 0.9;      // usable fraction of HBM
  double max_sim_time_s = 36000.0;   // safety stop

  // Scheduler quantum for chunked prefill: at most this many prompt
  // tokens are prefilled per engine iteration, so long prompts cannot
  // head-of-line block decode steps. 0 disables chunking (each admitted
  // prompt runs as one monolithic prefill, the pre-chunking behavior).
  std::size_t prefill_chunk_tokens = 512;

  // --- SLO / overload-control policy --------------------------------------
  SchedPolicy policy = SchedPolicy::kClassAware;
  // Indexed by ServiceClass (interactive, standard, batch). Defaults give
  // every tier a guaranteed share and pin interactive victims soonest.
  std::array<ClassPolicy, kServiceClassCount> classes = {{
      {0.35, 2},   // interactive
      {0.45, 4},   // standard
      {0.20, 6},   // batch
  }};
  // Enforce Request deadlines (time out requests that missed them). Off,
  // deadlines are carried but ignored — useful for measuring raw tails.
  bool enforce_deadlines = true;
  DegradeConfig degrade;

  // --- Pressure / robustness policy ---------------------------------------
  PreemptMode preempt_mode = PreemptMode::kSwap;
  std::size_t page_tokens = 64;      // scheduler page granularity
  // First re-admission delay. The backoff doubles per eviction up to
  // kBackoffCapS (8 s, engine.cpp), which this must not exceed.
  double backoff_base_s = 0.25;
  // Deterministic re-admission jitter: the computed backoff is stretched
  // by up to this fraction, keyed by (jitter_seed, request id, eviction
  // count), so victims evicted together spread over distinct re-admission
  // rounds instead of stampeding the allocator. 0 disables jitter.
  double backoff_jitter = 0.25;
  std::uint64_t jitter_seed = 0x51C0;
  // Fallback preemption budget for classes whose ClassPolicy leaves
  // pin_after_preemptions at 0: after this many preemptions a request is
  // pinned — only ever victimized again if every running request is
  // pinned (forward-progress fallback), which bounds eviction churn.
  std::size_t pin_after_preemptions = 4;
  TieredSwapConfig swap;             // tier layout for PreemptMode::kSwap
  FaultPlan faults;                  // all-zero probabilities = no injection

  // Identity of this engine within a fleet (src/fleet). Swap-store stream
  // keys are namespaced by it (swap_stream_key), so two replicas parking
  // the same request-local id never alias. The default 0 is the identity
  // mapping: single-engine runs are bit-identical to the pre-fleet tree.
  std::size_t replica_id = 0;

  // Disaggregation role (src/fleet --disagg). kFull keeps the symmetric
  // behavior bit-identical to the pre-disaggregation engine.
  EngineRole role = EngineRole::kFull;
};

// Per-tier swap-store counters (stores/hits/demotions/failures/...),
// indexed by tier position; tiers beyond swap.tiers stay zero.
using TierStats = std::array<TieredSwapStore::TierCounters, kMaxSwapTiers>;

// The engine's run counters, declared once. Each entry is (type, name,
// fleet merge rule). EngineResult and ServingMetrics (serving/metrics.h)
// both derive from the EngineCounters struct generated from it, and
// fleet::aggregate folds replica results into the fleet's by each
// entry's rule: sum, max or min. Peaks sum, since replicas run
// concurrently: the fleet's peak is at most the sum of replica peaks.
#define TURBO_ENGINE_COUNTERS(X)                                              \
  /* time spent in prefill+decode steps */                                    \
  X(double, busy_s, sum)                                                      \
  X(std::size_t, peak_batch, sum)                                             \
  X(double, peak_kv_bytes, sum)                                               \
  /* requests that can never fit */                                           \
  X(std::size_t, rejected, sum)                                               \
                                                                              \
  /* --- SLO / overload counters ----------------------------------------- */ \
  /* missed-deadline terminations */                                          \
  X(std::size_t, timed_out, sum)                                              \
  /* dropped by overload control */                                           \
  X(std::size_t, shed, sum)                                                   \
  X(std::size_t, ladder_escalations, sum)    /* pressure-level increases */   \
  X(std::size_t, ladder_deescalations, sum)  /* pressure-level decreases */   \
  /* iterations at reduced precision */                                       \
  X(std::size_t, degraded_iterations, sum)                                    \
  /* (re)admissions written degraded */                                       \
  X(std::size_t, degraded_admissions, sum)                                    \
  X(double, min_kv_bits, min)                /* lowest KV precision used */   \
  /* quant-error proxy at that level */                                       \
  X(double, degrade_rmse_proxy, max)                                          \
                                                                              \
  /* --- Robustness counters --------------------------------------------- */ \
  X(std::size_t, preemptions, sum)           /* total eviction events */      \
  /* victims that dropped their KV */                                         \
  X(std::size_t, preempted_recompute, sum)                                    \
  X(std::size_t, preempted_swap, sum)        /* victims swapped to host */    \
  X(std::size_t, swap_ins, sum)              /* successful swap-backs */      \
  X(double, swap_out_bytes, sum)                                              \
  X(double, swap_in_bytes, sum)                                               \
  /* wall-clock spent on PCIe transfers */                                    \
  X(double, swap_stall_s, sum)                                                \
  /* corrupt swap-ins detected by CRC */                                      \
  X(std::size_t, checksum_failures, sum)                                      \
  /* checksum failures recovered */                                           \
  X(std::size_t, recoveries, sum)                                             \
  /* steps that lost >=1 request to an injected allocation failure */         \
  X(std::size_t, degraded_steps, sum)                                         \
  X(std::size_t, injected_alloc_failures, sum)                                \
  X(std::size_t, max_preemptions_single_request, max)                         \
  /* Total KV tokens re-derived by recompute (recompute-mode re-admissions    \
     plus corrupt-swap recoveries); the sum of Request::recomputed_tokens. */ \
  X(std::size_t, recomputed_tokens, sum)                                      \
                                                                              \
  /* --- Prefix-sharing counters (kvcache/radix_index.h) ----------------- */ \
  /* Prompt tokens served from resident shared-prefix pages at fresh          \
     admission (sum of Request::prefix_hit_tokens)... */                      \
  X(std::size_t, prefix_hit_tokens, sum)                                      \
  /* ...across this many cache-hit requests. */                               \
  X(std::size_t, prefix_hit_requests, sum)                                    \
  /* Pages attached by refcount bump instead of allocation (fresh             \
     admissions and re-admissions of preempted prefix holders). */            \
  X(std::size_t, prefix_pages_attached, sum)                                  \
  /* Refcount-zero registered pages reclaimed from the retained pool (LRU,    \
     under genuine page exhaustion or at drain). */                           \
  X(std::size_t, retained_pages_reclaimed, sum)                               \
  /* Prompt tokens actually chunk-prefilled — with prefix hits this drops     \
     below the sum of prompt lengths; the bench's headline reduction. */      \
  X(std::size_t, prefilled_tokens, sum)                                       \
  /* Peak pages referenced by live sequences (used pages minus the            \
     reclaimable retained pool) — occupancy that eviction cannot lower. */    \
  X(std::size_t, peak_referenced_pages, sum)                                  \
                                                                              \
  /* --- Disaggregation counters (src/fleet) ----------------------------- */ \
  /* Requests this prefill-only engine finished prefilling and lifted into    \
     the handoff queue (always 0 for EngineRole::kFull). */                   \
  X(std::size_t, prefill_handoffs, sum)                                       \
                                                                              \
  /* --- Crash-recovery counters (serving/snapshot.h, src/fleet) --------- */ \
  /* Crash-consistent snapshots this replica serialized into the              \
     SnapshotStore, and their total serialized size. */                       \
  X(std::size_t, snapshots_written, sum)                                      \
  X(std::size_t, snapshot_bytes, sum)                                         \
  /* Restarts that rehydrated from a CRC-valid snapshot... */                 \
  X(std::size_t, snapshot_restores, sum)                                      \
  /* ...and restore attempts whose blob failed its CRC (every entry then      \
     recomputes from the prompt). */                                          \
  X(std::size_t, snapshot_corruptions, sum)                                   \
  /* Requests re-admitted from a snapshot entry after a crash. */             \
  X(std::size_t, restored_requests, sum)                                      \
  /* Tokens of post-snapshot progress lost to a crash and replayed (the       \
     delta between crash-time and snapshot-time context; the full             \
     crash-time context for requests the snapshot missed). */                 \
  X(std::size_t, replayed_tokens, sum)                                        \
  /* Crashed requests with no usable snapshot entry, recomputed from the      \
     prompt. */                                                               \
  X(std::size_t, crash_recomputes, sum)                                       \
  /* Abrupt crashes this engine incarnation recovered from (1 on the          \
     post-restart incarnation, 0 elsewhere). */                               \
  X(std::size_t, replica_crashes, sum)                                        \
  /* Snapshot entries dropped at restore because the request was already      \
     terminal (or migrated away) before the crash — the dedupe that keeps     \
     exactly-one-terminal-state through a restart. */                         \
  X(std::size_t, dedupe_drops, sum)                                           \
                                                                              \
  /* --- Tiered-swap counters -------------------------------------------- */ \
  X(std::size_t, tier_demotions, sum)        /* LRU demotions host -> disk */ \
  /* promote-on-blocked-readmission */                                        \
  X(std::size_t, tier_promotions, sum)                                        \
  /* tiers skipped during fetches */                                          \
  X(std::size_t, tier_failovers, sum)                                         \
  X(std::size_t, tier_blacklists, sum)       /* tier blacklist events */      \
  /* failed per-tier fetch attempts */                                        \
  X(std::size_t, tier_fetch_retries, sum)                                     \
  /* Swapped victims that degraded to recompute because every tier holding    \
     the stream was unreachable (failover exhausted)... */                    \
  X(std::size_t, swap_unavailable_recomputes, sum)                            \
  /* ...or because no tier had room / was reachable at swap-out time. */      \
  X(std::size_t, swap_overflow_recomputes, sum)                               \
  /* tiers that held >= 1 stream */                                           \
  X(std::size_t, swap_tiers_used, sum)                                        \
  X(double, tier_retry_stall_s, sum)         /* retry-backoff wall-clock */   \
  X(TierStats, tier_stats, sum)

// One struct member per counter-list entry, value-initialized (zero).
#define TURBO_COUNTER_MEMBER(type, name, ...) type name{};

struct EngineCounters {
  TURBO_ENGINE_COUNTERS(TURBO_COUNTER_MEMBER)
};

struct EngineResult : EngineCounters {
  std::vector<Request> requests;  // with timestamps + outcomes filled in
  double makespan_s = 0.0;        // time the last request finished
  bool hit_time_limit = false;    // max_sim_time_s safety stop fired
};

// A request lifted out of a draining engine with enough scheduler state
// to resume on another replica: the prefill cursor, generation progress
// and — when the KV was parked in the swap store — the stream's byte
// count, which the fleet router (src/fleet) moves over the interconnect
// as the migration payload. A request with has_stream == false (or whose
// migration failed its CRC) is re-admitted through the recompute path:
// the destination re-prefills `context` tokens, so a dead replica costs
// latency, never liveness.
struct MigratableRequest {
  Request request;
  std::size_t context = 0;      // tokens whose KV existed at drain
  std::size_t remaining = 0;    // tokens still to generate
  std::size_t prompt_left = 0;  // prefill cursor (prompt tokens left)
  double kv_bits = 0.0;         // precision the KV was stored at
  bool has_stream = false;      // serialized KV bytes existed at drain
  double bytes = 0.0;           // stream size (0 when !has_stream)
  // Engine-local clock when the request left its source (drain instant,
  // or prefill completion for a handoff): the earliest time the transfer
  // can depart.
  double ready_s = 0.0;
};

class EngineImpl;

// The scheduler behind run_engine(), exposed as a steppable object so
// the fleet router (src/fleet) can interleave N replicas on one clock.
// run_engine() is exactly submit-everything + step-to-completion: a
// single-replica fleet is bit-identical to the standalone engine.
class Engine {
 public:
  explicit Engine(const EngineConfig& config);
  ~Engine();
  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Hand the engine a request. Must be called in non-decreasing
  // arrival_s order; an arrival in the future sits in the pending queue
  // until the engine's clock reaches it. Requests that could never fit
  // are rejected immediately (terminal, never scheduled). The rvalue
  // overload takes the request's prompt ids without copying them.
  void submit(const Request& r);
  void submit(Request&& r);

  // Adopt a request drained off another replica. `eligible_s` is the
  // earliest re-admission time (drain time + migration transfer);
  // `with_stream` parks the migrated KV bytes in this engine's swap
  // store so the normal class-aware re-admission/swap-in machinery
  // restores it. Without a stream (or when no tier has room) the request
  // re-enters through the recompute path.
  void adopt(const MigratableRequest& m, double eligible_s,
             bool with_stream);

  // Run one scheduler iteration. `horizon_s` bounds idle time-jumps: an
  // idle engine never advances its clock past the horizon (so the router
  // can inject an arrival or an outage there first). Pass +infinity for
  // standalone operation. Returns false when there is nothing running,
  // waiting, paused or pending — i.e. the engine is fully drained.
  bool step(double horizon_s);

  // Lift every non-terminal request out of the engine: running requests
  // release their pages, parked swap streams are erased, queues emptied
  // (the not-yet-collected handoff queue included). Asserts the replica
  // leaks nothing: zero used pages and zero parked streams afterwards.
  // Drained requests are excluded from this engine's finish() result —
  // exactly-one-terminal-state moves with them.
  std::vector<MigratableRequest> drain();

  // Serialize a crash-consistent snapshot of every non-terminal request
  // (running, paused, waiting, pending, queued handoffs) into `store`
  // under this engine's replica id, replacing the previous snapshot. One
  // snapshot-unavailability draw per attempt; a failed save leaves the
  // previous blob valid. Pure observation otherwise — scheduler state,
  // pages and the clock are untouched.
  void snapshot_to(SnapshotStore& store, FaultInjector* fault);

  // Warm-restart recovery after a crash, on a freshly constructed engine.
  // `lost` is what the crashed incarnation held in flight (its state died
  // with the process — the list is identity + replay accounting only);
  // `restart_s` is when this incarnation boots. The recovery ladder:
  // restore each lost request from the snapshot entry (KV stream and all)
  // when one exists, recompute from the prompt when the snapshot predates
  // it or the blob failed its CRC, and drop snapshot entries whose
  // request is not in `lost` (terminal or migrated away pre-crash) so no
  // request can reach two terminal states.
  void restore_from(SnapshotStore& store,
                    const std::vector<MigratableRequest>& lost,
                    double restart_s, FaultInjector* fault);

  // Collect requests a prefill-only engine finished prefilling since the
  // last call (EngineRole::kPrefillOnly). Each carries its KV stream and
  // ready_s; the fleet router hands them to a decode replica. Their pages
  // are already released here — accounting moved with them, exactly like
  // drain(). Always empty for EngineRole::kFull.
  std::vector<MigratableRequest> take_prefilled();

  // Finalize and return the result (makespan, counters, per-request
  // outcomes). Call once, after the last step()/drain().
  EngineResult finish();

  double now() const;
  bool done() const;                // every live request reached terminal
  bool has_work() const;            // !done(): something left to schedule
  std::size_t used_pages() const;   // routing signal (least-outstanding)
  std::size_t live() const;         // non-terminal requests on this engine
  std::size_t total_pages() const;  // KV page-pool capacity
  // Pages live sequences reference (used minus the reclaimable retained
  // pool): the occupancy signal behind the fleet's decode watermark —
  // retained prefix cache is reclaimable and must not exert backpressure.
  std::size_t referenced_pages() const;
  // Tokens of `r`'s prompt resident in this engine's radix prefix index
  // (whole pages only, capped below the full prompt). Pure lookup — no
  // RNG, no mutation — so affinity routing (src/fleet) can score every
  // replica without perturbing determinism.
  std::size_t prefix_match_tokens(const Request& r) const;
  // Move the idle clock forward (revival after an outage window). The
  // engine must hold no running work.
  void advance_to(double t);

 private:
  std::unique_ptr<EngineImpl> impl_;
};

// Run the trace until every request has reached a terminal state —
// completed, rejected, timed-out or shed (the max_sim_time_s safety stop
// is the only other exit, reported via hit_time_limit; requests it
// strands stay Outcome::kPending). Deterministic: identical config +
// trace (including the fault and jitter seeds) give identical results.
EngineResult run_engine(const EngineConfig& config,
                        std::vector<Request> trace);

}  // namespace turbo::serving
