#!/usr/bin/env bash
# The seeded `turbo_cli serve` runs whose stdout must be byte-identical
# across the Release, ASan+UBSan and TSan builds. Each takes well under a
# second, and between them they print every summary block:
#
#   chaos.txt     4-replica chaos fleet: fleet, crash-recovery, per-replica
#                 and crashed-incarnation lines, chaos audit
#   disagg.txt    2p2d fleet with faulty handoffs, affinity routing and
#                 sessions: disagg and affinity lines
#   pressure.txt  one engine under overload with degrade, swap tiers,
#                 faults and sessions: per-class, degrade, pressure,
#                 prefix, faults, tier and per-tier lines
#
#   tools/serve_runs.sh <turbo_cli> <out_dir>
#
# Writes the three files into <out_dir>; exits non-zero if a run fails.
set -eu

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <turbo_cli> <out_dir>" >&2
  exit 2
fi
cli="$1"
out="$2"
mkdir -p "$out"

"$cli" serve --rate 24 --duration 15 --seed 29 --replicas 4 \
  --chaos-seed 7 --chaos-intensity 0.8 > "$out/chaos.txt"
"$cli" serve --rate 24 --duration 15 --seed 29 --disagg 2p2d \
  --route affinity --handoff-fail-p 0.1 --migrate-corrupt-p 0.05 \
  --sessions 3 --shared-prefix 512 --shared-frac 0.9 --session-gap 1.0 \
  --agentic-frac 0.4 > "$out/disagg.txt"
"$cli" serve --model phi3-mini --device a100-pcie --method turbo --bits 4 \
  --headroom 0.3 --rate 24 --duration 15 --seed 29 --policy class \
  --class-mix 0.2,0.5,0.3 --deadline-ttft 2.5,20,0 --degrade 1 \
  --preempt swap --swap-tiers 2 --tier-fail-p 0.05 --fault-seed 5 \
  --alloc-fail-p 0.02 --corrupt-p 0.02 --sessions 3 --shared-prefix 512 \
  --shared-frac 0.9 --session-gap 1.0 --agentic-frac 0.4 \
  > "$out/pressure.txt"
