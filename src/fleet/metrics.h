// Fleet-level metrics: per-replica serving rollups plus the fleet union.
//
// FleetMetrics carries the router's counters by type: it derives from
// FleetCounters (fleet/router.h), as ServingMetrics derives from
// EngineCounters (serving/engine.h), so a counter added to either list
// reaches the report with no copy to write or miss.
#pragma once

#include <vector>

#include "fleet/router.h"
#include "serving/metrics.h"

namespace turbo::fleet {

struct FleetMetrics : FleetCounters {
  // Union-level serving metrics: every trace request, whichever replica
  // finished it, summarized against the fleet makespan.
  serving::ServingMetrics fleet;
  // Per-replica serving metrics: the first replica_count entries are the
  // final incarnations, indexed by replica id; crashed incarnations
  // follow in crash order (mirroring FleetResult::replica_results). Sum
  // of the incarnations' counters equals the fleet rollup (drained
  // requests count only where they terminated).
  std::vector<serving::ServingMetrics> replicas;

  double migrated_gb = 0.0;  // migrated_bytes / 2^30
  double handoff_gb = 0.0;   // handoff_bytes / 2^30
};

FleetMetrics summarize_fleet(const FleetResult& result);

}  // namespace turbo::fleet
