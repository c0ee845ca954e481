#include "fleet/metrics.h"

#include <algorithm>
#include <cstddef>
#include <vector>

namespace turbo::fleet {

namespace {

template <typename T>
void merge_sum(T& into, const T& from) {
  into += from;
}
void merge_sum(serving::TierStats& into, const serving::TierStats& from) {
  for (std::size_t t = 0; t < into.size(); ++t) into[t] += from[t];
}
template <typename T>
void merge_max(T& into, const T& from) {
  into = std::max(into, from);
}
template <typename T>
void merge_min(T& into, const T& from) {
  into = std::min(into, from);
}

// Merge one replica's counters into the fleet's, each by the rule its
// TURBO_ENGINE_COUNTERS entry names.
void merge(serving::EngineCounters& into,
           const serving::EngineCounters& from) {
#define TURBO_MERGE_COUNTER(type, name, rule) \
  merge_##rule(into.name, from.name);
  TURBO_ENGINE_COUNTERS(TURBO_MERGE_COUNTER)
#undef TURBO_MERGE_COUNTER
}

// Fold the per-replica engine results into one synthetic EngineResult so
// the serving-level summarize() — percentiles, SLO attainment, the
// hit_time_limit/unfinished consistency check — runs unchanged over the
// fleet union. The first replica seeds every counter, so min and max
// need no identity value.
serving::EngineResult aggregate(const FleetResult& result) {
  serving::EngineResult agg;
  agg.requests = result.requests;
  agg.makespan_s = result.makespan_s;
  agg.hit_time_limit = result.hit_time_limit;
  const std::vector<serving::EngineResult>& replicas = result.replica_results;
  if (replicas.empty()) return agg;
  static_cast<serving::EngineCounters&>(agg) =
      static_cast<const serving::EngineCounters&>(replicas.front());
  for (std::size_t i = 1; i < replicas.size(); ++i) merge(agg, replicas[i]);
  return agg;
}

}  // namespace

FleetMetrics summarize_fleet(const FleetResult& result) {
  FleetMetrics m;
  static_cast<FleetCounters&>(m) = static_cast<const FleetCounters&>(result);
  m.fleet = serving::summarize(aggregate(result));
  m.replicas.reserve(result.replica_results.size());
  for (const serving::EngineResult& er : result.replica_results) {
    m.replicas.push_back(serving::summarize(er));
  }
  m.migrated_gb = result.migrated_bytes / (1024.0 * 1024.0 * 1024.0);
  m.handoff_gb = result.handoff_bytes / (1024.0 * 1024.0 * 1024.0);
  return m;
}

}  // namespace turbo::fleet
