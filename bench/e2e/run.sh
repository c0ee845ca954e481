#!/usr/bin/env bash
# Build bench_e2e (Release) from the checkout holding this script, then run
# it: one workload, or every workload each in its own process.
#
#   bench/e2e/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#                    [--out DIR]
#   bench/e2e/run.sh [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
#
# Build output goes to stderr; the build lives in .bench_build/e2e at the
# checkout root. Exits non-zero when the build fails or any run fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [[ ! -f "$root/src/attention/turbo.h" ]]; then
  echo "run.sh: no library sources under $root/src" >&2
  exit 2
fi

build="$root/.bench_build/e2e"
mkdir -p "$build"
(
  # One build at a time when runs start together.
  flock 9
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "$build" -j "$(nproc)" >&2
) 9>"$build/.lock"

bin="$build/bench_e2e"
for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$bin" "$@"
  fi
done

status=0
for workload in $("$bin" --list); do
  "$bin" --workload "$workload" "$@" || status=1
done
exit "$status"
