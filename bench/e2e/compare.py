#!/usr/bin/env python3
"""Compare two directories of bench_e2e runs under BENCHMARK.json's bounds.

usage: bench/e2e/compare.py BASE_DIR NEW_DIR

Each directory holds the records `run.sh --out DIR` writes (one JSON file
per run; Chrome traces are skipped). For every (metric, workload) the
script prints each side's median and quartiles, the change of the median
and a verdict:

  worse       the new median is worse than the base by more than the bound
  unresolved  a side's quartile spread exceeds the bound and not every new
              run beats every base run, or the new side looks better but
              the pairs do not show it
  better      the new median beats the base by more than the base's own
              quartile spread, and the new side wins at least 9 in 10 of
              at least 10 pairs
  unchanged   none of these

Runs pair up by seed, in the order they were recorded: the i-th base run
at a seed with the i-th new run at that seed. Record both sides with the
same seeds, alternating which commit runs first. Per-layer metrics have no
bound: they get the change only. With at least 10 pairs the pair win rate
is printed too.
"""
import json
import os
import statistics
import sys

MIN_PAIRS = 10
MIN_WIN_RATE = 0.9


def load(directory):
    """{(workload, metric): [(seed, value), ...]} in recording order."""
    records = []
    for name in os.listdir(directory):
        if not name.endswith(".json") or name.endswith(".trace.json"):
            continue
        with open(os.path.join(directory, name)) as f:
            rec = json.load(f)
        records.append(rec)
    records.sort(key=lambda rec: (rec["workload"], rec["seed"], rec["run"]))
    runs = {}
    for rec in records:
        values = rec.get("metrics") or rec.get("layers") or {}
        for metric, m in values.items():
            key = (rec["workload"], metric)
            runs.setdefault(key, []).append((rec["seed"], m["value"]))
    return runs


def pairs(base, new):
    """(base value, new value) for runs matched by seed and order."""
    by_seed = {}
    for seed, value in base:
        by_seed.setdefault(seed, []).append(value)
    out = []
    taken = {}
    for seed, value in new:
        i = taken.get(seed, 0)
        if i < len(by_seed.get(seed, [])):
            out.append((by_seed[seed][i], value))
            taken[seed] = i + 1
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, sign, bound, wins, n_pairs):
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    if bound is None or bm == 0 or nm == 0:
        return "-"
    change = sign * (nm - bm) / abs(bm)
    spread = max((b3 - b1) / abs(bm), (n3 - n1) / abs(nm))
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if change < -bound:
        return "worse"
    if spread > bound and not all_better:
        return "unresolved"
    if change > (b3 - b1) / abs(bm):
        if n_pairs >= MIN_PAIRS and wins >= MIN_WIN_RATE * n_pairs:
            return "better"
        return "unresolved"
    return "unchanged"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load(argv[1]), load(argv[2])

    header = (f"{'metric':40s} {'workload':15s} {'base median [q1, q3]':34s} "
              f"{'new median [q1, q3]':34s} {'change':>8s}  verdict")
    print(header)
    for key in sorted(base.keys() & new.keys(), key=lambda k: (k[1], k[0])):
        workload, metric = key
        spec = specs.get(metric)
        if spec is None:
            continue
        bv = [v for _, v in base[key]]
        nv = [v for _, v in new[key]]
        if not any(bv) and not any(nv):
            continue  # a layer this workload never calls
        sign = 1 if spec["better"] == "higher" else -1
        matched = pairs(base[key], new[key])
        wins = sum(1 for b, n in matched if sign * (n - b) > 0)
        b1, bm, b3 = quartiles(bv)
        n1, nm, n3 = quartiles(nv)
        change = (nm - bm) / abs(bm) if bm else float("nan")
        line = (f"{metric:40s} {workload:15s} "
                f"{bm:11.6g} [{b1:9.6g}, {b3:9.6g}] "
                f"{nm:11.6g} [{n1:9.6g}, {n3:9.6g}] {change:+8.2%}  "
                f"{verdict(bv, nv, sign, spec.get('bound'), wins, len(matched))}")
        if len(matched) >= MIN_PAIRS:
            line += f"  (new wins {wins}/{len(matched)} pairs)"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
