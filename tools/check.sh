#!/usr/bin/env bash
# Full correctness matrix for the TurboAttention tree.
#
#   tools/check.sh            # run everything
#   tools/check.sh release    # just the Release build + tests
#   tools/check.sh asan       # just the ASan+UBSan build + tests
#   tools/check.sh tsan       # just the ThreadSanitizer build + tests
#   tools/check.sh chaos      # cross-lane diff: the seeded serve runs of
#                             # tools/serve_runs.sh must print byte-
#                             # identical output in all three builds
#   tools/check.sh lint       # just turbo_lint
#   tools/check.sh tidy       # just clang-tidy (skipped when not installed)
#
# Each build's ctest run covers every label (fault, serving, slo, tier,
# fleet, prefix, disagg, chaos, lint); `ctest --test-dir <build> -L <label>`
# re-runs one of them.
#
# Exits non-zero on the first failing stage. Stages that need a tool the
# machine does not have (clang-tidy) are reported as SKIP, not failure.
set -u

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
STAGES=("${@:-all}")
FAILED=0

for s in "${STAGES[@]}"; do
  case "$s" in
    all|release|asan|tsan|chaos|lint|tidy) ;;
    *)
      echo "check.sh: unknown stage '$s' (expected: release asan tsan chaos lint tidy)" >&2
      exit 2
      ;;
  esac
done

want() {
  local stage="$1"
  for s in "${STAGES[@]}"; do
    if [[ "$s" == "all" || "$s" == "$stage" ]]; then return 0; fi
  done
  return 1
}

banner() { printf '\n==== %s ====\n' "$1"; }

run_release() {
  banner "release: -O3 -DNDEBUG -Werror build + ctest"
  cmake --preset release || return 1
  cmake --build --preset release -j "$JOBS" || return 1
  ctest --preset release || return 1
}

run_asan() {
  banner "asan: -fsanitize=address,undefined -fno-sanitize-recover=all"
  cmake --preset debug-asan-ubsan || return 1
  cmake --build --preset debug-asan-ubsan -j "$JOBS" || return 1
  ctest --preset debug-asan-ubsan || return 1
}

run_tsan() {
  banner "tsan: -fsanitize=thread -fno-sanitize-recover=all"
  # Today's tree is single-threaded, so this lane is a tripwire: the
  # moment the kernel thread pool lands (ROADMAP), any unsynchronized
  # shared state fails CI instead of flaking in production.
  cmake --preset debug-tsan || return 1
  cmake --build --preset debug-tsan -j "$JOBS" || return 1
  ctest --preset debug-tsan || return 1
}

run_chaos() {
  banner "chaos: seeded serve runs, byte-identical across all three builds"
  # A lane-dependent path (an uninitialized read, a sanitizer-perturbed
  # order) changes a seeded run's output without failing a unit assert,
  # so the full stdout of each run is diffed across the lanes.
  local lane preset dir
  for lane in release:build-release debug-asan-ubsan:build-asan-ubsan \
              debug-tsan:build-tsan; do
    preset="${lane%%:*}"
    dir="${lane##*:}"
    cmake --preset "$preset" || return 1
    cmake --build --preset "$preset" -j "$JOBS" --target turbo_cli || return 1
    tools/serve_runs.sh "$dir/tools/turbo_cli" "$dir/serve_runs" || return 1
  done
  diff -r build-release/serve_runs build-asan-ubsan/serve_runs || {
    echo "chaos: seeded serve runs differ between Release and ASan+UBSan" >&2
    return 1
  }
  diff -r build-release/serve_runs build-tsan/serve_runs || {
    echo "chaos: seeded serve runs differ between Release and TSan" >&2
    return 1
  }
  echo "chaos: seeded serve runs are byte-identical across all three lanes"
}

run_lint() {
  banner "lint: turbo_lint determinism + quant-invariant rules (13 rules)"
  # Reuse whichever configured build dir already has the lint binary;
  # fall back to configuring the release preset.
  local bin=""
  for d in build-release build-asan-ubsan build; do
    if [[ -x "$d/tools/turbo_lint" ]]; then bin="$d/tools/turbo_lint"; break; fi
  done
  if [[ -z "$bin" ]]; then
    cmake --preset release || return 1
    cmake --build --preset release -j "$JOBS" --target turbo_lint || return 1
    bin="build-release/tools/turbo_lint"
  fi
  "$bin" "$ROOT" || return 1
}

run_tidy() {
  banner "tidy: clang-tidy over src/ and tools/"
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "SKIP: clang-tidy not installed"
    return 0
  fi
  cmake --preset tidy || return 1
  local sources
  mapfile -t sources < <(find src tools -name '*.cpp' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -quiet -p build-tidy "${sources[@]}" || return 1
  else
    clang-tidy -quiet -p build-tidy "${sources[@]}" || return 1
  fi
}

if want release; then run_release || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want asan; then run_asan || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want tsan; then run_tsan || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want chaos; then run_chaos || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want lint; then run_lint || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want tidy; then run_tidy || FAILED=1; fi

if [[ $FAILED -ne 0 ]]; then
  echo
  echo "check.sh: FAILED"
  exit 1
fi
echo
echo "check.sh: all requested stages passed"
