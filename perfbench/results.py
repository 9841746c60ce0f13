"""Result sets: the JSON-lines files sweep.py writes and compare.py reads.

Each line is one run: {"workload", "seed", "trace", "exit", "elapsed_s",
"meta", "result"}, where "result" is the benchmark's last stdout line and
"meta" the line before it (the workload seed --seed selected and the
names of the exact counters).
"""

import json
import statistics


def load(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def bench_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance over the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def by_workload(rows, trace):
    """{workload: {metric: [(seed, value)]}} over the runs with a result."""
    out = {}
    for r in rows:
        if r["trace"] != trace or not r.get("result"):
            continue
        for name, m in r["result"]["metrics"].items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append((r["seed"], m["value"]))
    return out
