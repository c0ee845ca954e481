#include "serving/metrics.h"

#include "common/check.h"
#include "common/stats.h"

namespace turbo::serving {

ServingMetrics summarize(const EngineResult& result) {
  ServingMetrics m;
  static_cast<EngineCounters&>(m) = static_cast<const EngineCounters&>(result);
  m.hit_time_limit = result.hit_time_limit;
  m.peak_kv_gb = result.peak_kv_bytes / 1e9;
  m.swap_out_gb = result.swap_out_bytes / 1e9;
  m.swap_in_gb = result.swap_in_bytes / 1e9;
  m.utilization =
      result.makespan_s > 0.0 ? result.busy_s / result.makespan_s : 0.0;

  std::vector<float> ttft;
  std::vector<float> tpot;
  std::vector<float> e2e;
  std::array<std::vector<float>, kServiceClassCount> class_ttft;
  std::array<std::vector<float>, kServiceClassCount> class_e2e;
  double tokens = 0.0;
  for (const Request& r : result.requests) {
    ClassBreakdown& cb =
        m.by_class[static_cast<std::size_t>(r.service_class)];
    ++cb.requests;
    cb.preemptions += r.preemptions;
    if (r.ttft_deadline_s > 0.0) {
      ++cb.deadline_requests;
      if (r.met_ttft_deadline()) ++cb.deadline_met;
    }
    switch (r.outcome) {
      case Outcome::kPending:
        ++m.unfinished;
        continue;
      case Outcome::kRejected:
        ++cb.rejected;
        continue;
      case Outcome::kShed:
        ++cb.shed;
        continue;
      case Outcome::kTimedOut:
        ++cb.timed_out;
        // Tokens a timed-out request streamed before its deadline were
        // delivered; count them, but never its latency samples.
        tokens += static_cast<double>(r.generated);
        continue;
      case Outcome::kCompleted:
        break;
    }
    ++m.completed;
    ++cb.completed;
    tokens += static_cast<double>(r.generated);
    // Zero-generation requests complete without ever producing a token:
    // they have no first_token_s and no meaningful latency-per-output, so
    // they must not contribute TTFT or e2e samples.
    if (r.generated == 0) continue;
    const auto t = static_cast<float>(r.ttft());
    const auto e = static_cast<float>(r.e2e_latency());
    ttft.push_back(t);
    e2e.push_back(e);
    class_ttft[static_cast<std::size_t>(r.service_class)].push_back(t);
    class_e2e[static_cast<std::size_t>(r.service_class)].push_back(e);
    if (r.generated > 1) {
      tpot.push_back(static_cast<float>(r.tpot()));
    }
  }
  // A run truncated by the time limit is exactly a run with unfinished
  // requests — the two signals must agree.
  TURBO_CHECK(m.hit_time_limit == (m.unfinished > 0));
  if (result.makespan_s > 0.0) {
    m.output_tokens_per_s = tokens / result.makespan_s;
  }
  if (!ttft.empty()) {
    m.ttft_p50 = percentile(ttft, 50);
    m.ttft_p99 = percentile(ttft, 99);
    m.e2e_p50 = percentile(e2e, 50);
    m.e2e_p99 = percentile(e2e, 99);
  }
  if (!tpot.empty()) {
    m.tpot_p50 = percentile(tpot, 50);
    m.tpot_p99 = percentile(tpot, 99);
  }
  for (std::size_t c = 0; c < kServiceClassCount; ++c) {
    ClassBreakdown& cb = m.by_class[c];
    if (!class_ttft[c].empty()) {
      cb.ttft_p50 = percentile(class_ttft[c], 50);
      cb.ttft_p99 = percentile(class_ttft[c], 99);
      cb.e2e_p99 = percentile(class_e2e[c], 99);
    }
    if (cb.deadline_requests > 0) {
      cb.ttft_attainment = static_cast<double>(cb.deadline_met) /
                           static_cast<double>(cb.deadline_requests);
    }
  }
  return m;
}

}  // namespace turbo::serving
