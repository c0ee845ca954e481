// Shared serving-engine fixtures: the SLO overload trace, the small-pool
// engines it overdrives, and a digest over a whole engine result.
#pragma once

#include <bit>
#include <cstdint>

#include "serving/engine.h"
#include "serving/trace.h"
#include "sim/device.h"

namespace turbo::test {

// A mixed-class trace pushed well past what pressured_engine() can
// sustain: 20% interactive with a tight TTFT SLO, 50% standard with a
// loose one, 30% batch with none.
inline serving::TraceConfig overload_mix_trace() {
  serving::TraceConfig t;
  t.arrival_rate = 24.0;
  t.duration_s = 15.0;
  t.prompt_log_mean = 5.5;  // median ~245 tokens
  t.prompt_log_std = 0.5;
  t.gen_log_mean = 5.0;     // median ~150 tokens
  t.gen_log_std = 0.5;
  t.seed = 29;
  t.class_mix = {0.2, 0.5, 0.3};
  t.ttft_deadline_s = {2.5, 20.0, 0.0};
  return t;
}

// Small KV pool: Phi3-mini on the PCIe card at low headroom, so the
// overload trace above exhausts pages and the control policies engage.
// The interactive tier's guaranteed share is provisioned above its offered
// load (20% of the mix), which is what lets class-aware scheduling honor
// the interactive SLO while the pool as a whole is oversubscribed.
inline serving::EngineConfig pressured_engine() {
  serving::EngineConfig c;
  c.device = sim::a100_pcie_40gb();
  c.geometry = sim::phi3_mini_geometry();
  c.method = sim::AttnMethod::kTurbo;
  c.attention.kv_bits = 4.0;
  c.memory_headroom = 0.35;
  return c;
}

// The same machine with the pool squeezed so hard that even the
// interactive guarantee cannot absorb the burst: decode growth exhausts
// pages constantly and preemption/eviction churn is guaranteed.
inline serving::EngineConfig crushed_engine() {
  serving::EngineConfig c = pressured_engine();
  c.memory_headroom = 0.22;
  return c;
}

// Three-turn sessions, every one behind a 512-token shared system prompt
// and 40% of them agentic, so follow-ups re-submit their history and the
// engine's radix path attaches most of every prompt.
inline serving::TraceConfig session_trace() {
  serving::TraceConfig t;
  t.arrival_rate = 3.0;
  t.duration_s = 15.0;
  t.prompt_log_mean = 5.0;
  t.prompt_log_std = 0.4;
  t.gen_log_mean = 3.5;
  t.gen_log_std = 0.4;
  t.seed = 17;
  t.shared_prefix_tokens = 512;
  t.shared_prefix_fraction = 1.0;
  t.session_turns = 3;
  t.session_gap_s = 1.0;
  t.agentic_fraction = 0.4;
  return t;
}

// Phi3-mini on the PCIe card at the default headroom (page_tokens 64).
inline serving::EngineConfig prefix_engine() {
  serving::EngineConfig c;
  c.device = sim::a100_pcie_40gb();
  c.geometry = sim::phi3_mini_geometry();
  c.method = sim::AttnMethod::kTurbo;
  c.attention.kv_bits = 4.0;
  return c;
}

// FNV-1a over a sequence of 64-bit words.
class Fnv {
 public:
  void mix(std::uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ull;
  }
  void mixd(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// Digest over everything the engine computes — per-request timestamps,
// outcome, generated tokens, preemptions, recomputed tokens and KV
// precision, in result order, plus the run counters — so two runs are
// compared in full, not by a few summary statistics.
inline std::uint64_t digest(const serving::EngineResult& r) {
  Fnv h;
  for (const serving::Request& req : r.requests) {
    h.mix(req.id);
    h.mixd(req.prefill_start_s);
    h.mixd(req.first_token_s);
    h.mixd(req.finish_s);
    h.mixd(req.kv_bits_used);
    h.mix(req.generated);
    h.mix(req.preemptions);
    h.mix(req.recomputed_tokens);
    h.mix(static_cast<std::uint64_t>(req.outcome));
  }
  h.mixd(r.makespan_s);
  h.mixd(r.busy_s);
  h.mixd(r.swap_stall_s);
  h.mixd(r.min_kv_bits);
  h.mixd(r.degrade_rmse_proxy);
  h.mix(r.preemptions);
  h.mix(r.timed_out);
  h.mix(r.shed);
  h.mix(r.ladder_escalations);
  h.mix(r.ladder_deescalations);
  h.mix(r.degraded_admissions);
  h.mix(static_cast<std::uint64_t>(r.hit_time_limit));
  return h.value();
}

// digest() plus everything prefix sharing decides: each request's
// prefix-hit tokens and the run's prefix counters, so an attach, publish
// or retained-page reclaim that moves shows even where the schedule
// happens not to.
inline std::uint64_t prefix_digest(const serving::EngineResult& r) {
  Fnv h;
  h.mix(digest(r));
  for (const serving::Request& req : r.requests) h.mix(req.prefix_hit_tokens);
  h.mix(r.prefix_hit_tokens);
  h.mix(r.prefix_hit_requests);
  h.mix(r.prefix_pages_attached);
  h.mix(r.retained_pages_reclaimed);
  h.mix(r.prefilled_tokens);
  h.mix(r.peak_referenced_pages);
  return h.value();
}

}  // namespace turbo::test
