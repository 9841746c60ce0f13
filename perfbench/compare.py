#!/usr/bin/env python3
"""Compare two result sets made by sweep.py: a base and a change.

    python3 perfbench/compare.py base.jsonl change.jsonl

For each workload and end-to-end metric it prints both sides' median and
quartiles, the share of seed-matched pairs the change won (ties count for
neither side), and a verdict:

  improved    the change won at least 9 of 10 pairs and its median beats
              the base's by more than the base's own quartile distance;
  worse       the change's median is worse than the base's by more than
              the metric's bound;
  unresolved  the base's spread (quartile distance over median) exceeds
              the bound, so a difference of the bound's size cannot be
              seen -- unless every change run beats (or loses to) every
              base run;
  unchanged   otherwise.

From the traced runs (--trace 1) it names, per workload, the per-layer
metric whose median moved most, with both medians as its base.
"""

import statistics
import sys

from results import bench_spec, by_workload, load, quartiles


def verdict(base, change, bound, lower_better):
    sign = 1.0 if lower_better else -1.0
    b = [v for _, v in base]
    c = [v for _, v in change]
    bq1, bmed, bq3 = quartiles(b)
    _, cmed, _ = quartiles(c)
    cb = dict(base)
    pairs = [(cb[s], v) for s, v in change if s in cb]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    won = wins / len(pairs) if pairs else 0.0
    spread = (bq3 - bq1) / bmed if bmed else float("inf")
    all_better = all(sign * (y - x) < 0 for x in b for y in c)
    all_worse = all(sign * (y - x) > 0 for x in b for y in c)
    rel = sign * (cmed - bmed) / bmed if bmed else 0.0
    if spread > bound and not (all_better or all_worse):
        v = "unresolved"
    elif rel > bound or (spread > bound and all_worse):
        v = "worse"
    elif (won >= 0.9 and sign * (bmed - cmed) > (bq3 - bq1)) or (spread > bound and all_better):
        v = "improved"
    else:
        v = "unchanged"
    return won, len(pairs), v


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base_rows, change_rows = load(sys.argv[1]), load(sys.argv[2])
    spec = bench_spec()
    lengths = {r["seconds"] for r in base_rows + change_rows if "seconds" in r}
    if len(lengths) > 1:
        print(f"the sets ran for different lengths ({sorted(lengths)} s): "
              "make both with the same run_seconds", file=sys.stderr)
        return 2
    base, change = by_workload(base_rows, 0), by_workload(change_rows, 0)
    worse = False
    print(f"{'workload':12s} {'metric':12s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won':>9s}  verdict")
    for w in sorted(set(base) & set(change)):
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in base[w] or name not in change[w]:
                continue
            b, c = base[w][name], change[w][name]
            bq = quartiles([v for _, v in b])
            cq = quartiles([v for _, v in c])
            won, n, v = verdict(b, c, m["bound"], m["better"] == "lower")
            worse |= v == "worse"
            print(f"{w:12s} {name:12s} {bq[1]:>12.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                  f"{'':>2s}{cq[1]:>12.6g} [{cq[0]:.6g}, {cq[2]:.6g}] "
                  f"{won:>5.0%} of {n:<2d} {v}")
    tb, tc = by_workload(base_rows, 1), by_workload(change_rows, 1)
    for w in sorted(set(tb) & set(tc)):
        moved = []
        for name in set(tb[w]) & set(tc[w]) - {"trace.overhead_frac"}:
            bm = statistics.median(v for _, v in tb[w][name])
            cm = statistics.median(v for _, v in tc[w][name])
            if bm != 0:
                moved.append((abs(cm - bm) / abs(bm), name, bm, cm))
        if moved:
            _, name, bm, cm = max(moved)
            print(f"{w}: per-layer metric that moved most: {name} "
                  f"{bm:.6g} -> {cm:.6g} ({(cm - bm) / abs(bm):+.1%} of the base {bm:.6g})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
