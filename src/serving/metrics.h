// Serving-level metrics: throughput, latency percentiles, and per-class
// SLO attainment.
#pragma once

#include <array>
#include <vector>

#include "serving/engine.h"

namespace turbo::serving {

// Per-service-class slice of a run (indexed by ServiceClass).
struct ClassBreakdown {
  std::size_t requests = 0;       // trace requests in this class
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t timed_out = 0;
  std::size_t shed = 0;
  std::size_t preemptions = 0;    // eviction events charged to this class
  // Percentiles over this class's completed, token-producing requests.
  double ttft_p50 = 0.0;
  double ttft_p99 = 0.0;
  double e2e_p99 = 0.0;
  // TTFT-SLO attainment: of the requests that carried a TTFT deadline,
  // the fraction whose first token landed in time. 1.0 when none did.
  std::size_t deadline_requests = 0;
  std::size_t deadline_met = 0;
  double ttft_attainment = 1.0;
};

// A run's summary: the engine's counters as they are (EngineCounters,
// see serving/engine.h), plus what summarize() derives from the result.
struct ServingMetrics : EngineCounters {
  std::size_t completed = 0;
  // Requests in no terminal state when the run ended: nonzero if and only
  // if the max_sim_time_s safety stop fired (hit_time_limit), so a
  // truncated run can never masquerade as a clean one.
  std::size_t unfinished = 0;
  bool hit_time_limit = false;
  double output_tokens_per_s = 0.0;  // generated tokens / makespan
  // Latency percentiles over completed requests that actually generated
  // output; zero-generation requests (max_new_tokens == 0) are excluded
  // from the TTFT and e2e vectors so they cannot drag the percentiles
  // down, and timed-out requests never contribute samples.
  double ttft_p50 = 0.0;             // time to first token
  double ttft_p99 = 0.0;
  double tpot_p50 = 0.0;             // per-token latency after the first
  double tpot_p99 = 0.0;
  double e2e_p50 = 0.0;
  double e2e_p99 = 0.0;
  double utilization = 0.0;          // busy / makespan
  double peak_kv_gb = 0.0;           // peak_kv_bytes / 1e9
  double swap_out_gb = 0.0;          // swap_out_bytes / 1e9
  double swap_in_gb = 0.0;           // swap_in_bytes / 1e9
  std::array<ClassBreakdown, kServiceClassCount> by_class;
};

ServingMetrics summarize(const EngineResult& result);

}  // namespace turbo::serving
