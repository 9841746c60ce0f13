#!/usr/bin/env python3
"""Make a result set: run the benchmark over several seeds and record it.

    python3 perfbench/sweep.py --workload serve-sweep --seeds 1-10 --out set-a.jsonl
    python3 perfbench/sweep.py --workload all --seeds 1-10 --trace 1 --out set-a.jsonl

Each run lasts BENCHMARK.json's run_seconds and appends one JSON line
(workload, seed, trace, run length, exit code, the benchmark's result and the line
before it) to --out.  At the end it prints, per workload and metric, the
median, the quartiles and the spread (quartile distance over the median)
against the metric's bound, and checks that every exact counter is
identical across runs of one workload seed and that no gen replay
diverged from the engine.  It exits 1 when a run failed, a spread other
than setup_s's exceeds its bound, an exact counter drifted or a replay
diverged.  Compare two sets with compare.py.
"""

import argparse
import json
import subprocess
import sys
import time

from results import bench_spec, by_workload, load, quartiles, spread


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def summarize(rows):
    bounds = {m["name"]: m["bound"] for m in bench_spec()["end_to_end"]}
    ok = True
    for w, metrics in sorted(by_workload(rows, 0).items()):
        print(f"== {w} (end to end, {len(next(iter(metrics.values())))} runs)")
        for name, pairs in metrics.items():
            vals = [v for _, v in pairs]
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s > bound:
                if name == "setup_s":
                    flag = "  (above the bound; setup_s is checked on its median only)"
                else:
                    flag = "  <-- spread above the bound"
                    ok = False
            elif bound is not None and s > bound / 3:
                flag = "  (note: above a third of the bound)"
            print(f"  {name:14s} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {s:.4f}  bound {bound}{flag}")
    drift = check_exact(rows)
    failed = [r for r in rows if r["exit"] != 0]
    for r in failed:
        print(f"FAILED RUN: {r['workload']} seed {r['seed']} trace {r['trace']} exit {r['exit']}")
    return ok and not drift and not failed


def check_exact(rows):
    """Exact counters must repeat across runs of one workload seed; the
    gen replay must match the engine and the counters the reference."""
    seen = {}
    drift = False
    for r in rows:
        if r["trace"] != 1 or not r.get("result") or not r.get("meta"):
            continue
        metrics = r["result"]["metrics"]
        key = (r["workload"], r["meta"]["workload_seed"])
        for name in r["meta"]["exact"]:
            v = metrics.get(name, {}).get("value")
            prev = seen.setdefault(key + (name,), v)
            if prev != v:
                drift = True
                print(f"DRIFT: {r['workload']} workload seed {key[1]}: {name} {prev} vs {v}")
        for name in ("exact.drift", "gen.replay_mismatch"):
            if metrics.get(name, {}).get("value", 0) != 0:
                drift = True
                print(f"{name} = {metrics[name]['value']}: {r['workload']} seed {r['seed']}")
    if seen and not drift:
        print(f"exact counters identical across runs ({len(seen)} checked)")
    return drift


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    spec = bench_spec()
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else args.workload.split(","))
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.monotonic()
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            meta = json.loads(lines[-2]) if len(lines) >= 2 else None
            row = {"workload": w, "seed": seed, "trace": args.trace,
                   "seconds": spec["run_seconds"], "exit": p.returncode,
                   "elapsed_s": round(time.monotonic() - t0, 2), "meta": meta,
                   "result": result}
            with open(args.out, "a") as f:
                f.write(json.dumps(row) + "\n")
            print(f"{w} seed {seed}: exit {p.returncode}, {row['elapsed_s']} s", flush=True)
    sys.exit(0 if summarize(load(args.out)) else 1)


if __name__ == "__main__":
    main()
