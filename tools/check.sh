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
#   tools/check.sh sweep      # dead-code sweep: every turbo:: function the
#                             # library defines is in a shipped binary or
#                             # in tools/sweep_allowlist.txt
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
    all|release|asan|tsan|chaos|lint|tidy|sweep) ;;
    *)
      echo "check.sh: unknown stage '$s' (expected: release asan tsan chaos lint tidy sweep)" >&2
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

# The union of the `[ <tag> ]` lines in a ctest log, first seen first.
log_union() {
  sed -n "s/^\[ $2 \] //p" "$1" 2>/dev/null | tr ' ' '\n' |
    awk 'NF && !seen[$0]++' | paste -sd' ' -
}

# The fused-kernel entries, Sas::apply paths (`sas:` names) and
# progressive_compress paths (`stage2:` names) a lane's parity tests ran
# (their `[ entries  ]` lines) and the compiled ones this host cannot run
# (`[ untested ]`), so a lane on a host without AVX-512, AMX or AVX-512
# FP16 says which went untested instead of passing silently. It gates
# nothing.
report_entries() {
  local log="$1/Testing/Temporary/LastTest.log" ran untested
  ran="$(log_union "$log" 'entries ')"
  untested="$(log_union "$log" untested)"
  echo "entries: ran ${ran:-none}; compiled but untested on this host:" \
       "${untested:-none}"
}

run_release() {
  banner "release: -O3 -DNDEBUG -Werror build + ctest"
  cmake --preset release || return 1
  cmake --build --preset release -j "$JOBS" || return 1
  local status=0
  ctest --preset release -j "$JOBS" || status=1
  report_entries build-release
  return "$status"
}

run_asan() {
  banner "asan: -fsanitize=address,undefined -fno-sanitize-recover=all"
  cmake --preset debug-asan-ubsan || return 1
  cmake --build --preset debug-asan-ubsan -j "$JOBS" || return 1
  local status=0
  ctest --preset debug-asan-ubsan -j "$JOBS" || status=1
  report_entries build-asan-ubsan
  return "$status"
}

run_tsan() {
  banner "tsan: -fsanitize=thread -fno-sanitize-recover=all"
  # Today's tree is single-threaded, so this lane is a tripwire: the
  # moment the kernel thread pool lands (ROADMAP), any unsynchronized
  # shared state fails CI instead of flaking in production.
  cmake --preset debug-tsan || return 1
  cmake --build --preset debug-tsan -j "$JOBS" || return 1
  local status=0
  ctest --preset debug-tsan -j "$JOBS" || status=1
  report_entries build-tsan
  return "$status"
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

run_sweep() {
  banner "sweep: library functions that no shipped binary contains"
  # Every shipped binary (turbo_cli, the benches, the examples and
  # bench/e2e's bench_e2e) is built at -O0, so no call is inlined away,
  # with one section per function, and linked with --gc-sections, so each
  # binary keeps exactly the library functions it can reach. A turbo::
  # function that the library archives define and no binary keeps is
  # dead, unless tools/sweep_allowlist.txt names it with its reason. An
  # allowlist line whose function is no longer dead is stale.
  local dir=build-sweep f
  local cfg=(-DCMAKE_BUILD_TYPE=Debug
             "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections -fdata-sections"
             "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
  local targets=(turbo_cli) bins=("$dir/tools/turbo_cli" "$dir/e2e/bench_e2e")
  for f in bench/bench_*.cpp examples/*.cpp; do
    f="${f%.cpp}"
    targets+=("${f##*/}")
    bins+=("$dir/$f")
  done
  cmake -S . -B "$dir" "${cfg[@]}" >/dev/null || return 1
  cmake --build "$dir" -j "$JOBS" --target "${targets[@]}" || return 1
  cmake -S bench/e2e -B "$dir/e2e" "${cfg[@]}" >/dev/null || return 1
  cmake --build "$dir/e2e" -j "$JOBS" || return 1
  for f in "${bins[@]}"; do
    [[ -x "$f" ]] || { echo "sweep: no binary at $f" >&2; return 1; }
  done

  # Functions are matched on their mangled names, _ZN5turbo... (K, V, R
  # or O after the N for qualified members), and compared demangled: a
  # demangled std:: template that returns a turbo:: type also starts with
  # "turbo::".
  local defined kept dead allowed unlisted stale
  defined="$(nm --defined-only "$dir"/src/*/libturbo_*.a |
    sed -n 's/^[0-9a-f]* [TW] \(_ZN[KVRO]*5turbo.*\)$/\1/p' | c++filt |
    LC_ALL=C sort -u)"
  kept="$(nm --defined-only "${bins[@]}" |
    sed -n 's/^[0-9a-f]* [TtWw] \(_ZN[KVRO]*5turbo.*\)$/\1/p' | c++filt |
    LC_ALL=C sort -u)"
  dead="$(LC_ALL=C comm -23 <(echo "$defined") <(echo "$kept"))"
  allowed="$(sed -e '/^#/d' -e '/^[[:space:]]*$/d' -e 's/[[:space:]]*# .*$//' \
    tools/sweep_allowlist.txt | LC_ALL=C sort -u)"
  unlisted="$(LC_ALL=C comm -23 <(echo "$dead") <(echo "$allowed"))"
  stale="$(LC_ALL=C comm -13 <(echo "$dead") <(echo "$allowed"))"
  echo "sweep: $(grep -c . <<<"$dead") library functions in no shipped binary," \
       "$(grep -c . <<<"$allowed") allowlisted"
  if [[ -n "$unlisted" ]]; then
    echo "sweep: in no shipped binary and not in tools/sweep_allowlist.txt:" >&2
    sed 's/^/  /' <<<"$unlisted" >&2
  fi
  if [[ -n "$stale" ]]; then
    echo "sweep: allowlisted but not dead (drop the line):" >&2
    sed 's/^/  /' <<<"$stale" >&2
  fi
  [[ -z "$unlisted" && -z "$stale" ]]
}

if want release; then run_release || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want asan; then run_asan || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want tsan; then run_tsan || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want chaos; then run_chaos || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want lint; then run_lint || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want tidy; then run_tidy || FAILED=1; fi
if [[ $FAILED -eq 0 ]] && want sweep; then run_sweep || FAILED=1; fi

if [[ $FAILED -ne 0 ]]; then
  echo
  echo "check.sh: FAILED"
  exit 1
fi
echo
echo "check.sh: all requested stages passed"
