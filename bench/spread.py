#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints how steady it is.

    python3 bench/spread.py OUT_DIR [--seeds 10] [--first-seed 1] [--against OTHER_DIR] [--reuse]

Reads BENCHMARK.json for the command, the workloads, the run length and the
bounds; runs every workload once per seed with tracing off; writes each
run's last line to OUT_DIR/<workload>.jsonl; and prints, per workload and
end-to-end metric, the median and the spread (distance between the first
and third quartile as a share of the median) next to the metric's bound.
With --against it also prints how far each median is from the median of the
runs stored in OTHER_DIR, in the metric's worse direction: the A/A record
when both sets ran the same code. --reuse prints the tables for the runs
already stored in OUT_DIR instead of running anything.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.time()
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} failed")
    res["seed"], res["wall_s"] = seed, round(time.time() - start, 1)
    return res


def stored(directory, workload):
    lines = (pathlib.Path(directory) / f"{workload}.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def medians(runs, metrics):
    return {m: statistics.median(r["metrics"][m]["value"] for r in runs) for m in metrics}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("out")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--against")
    ap.add_argument("--reuse", action="store_true")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    specs = {m["name"]: m for m in bench["end_to_end"]}
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    unresolved = []
    for wl in (w["name"] for w in bench["workloads"]):
        if args.reuse:
            runs = stored(out, wl)
        else:
            runs = [run_once(bench, wl, args.first_seed + i) for i in range(args.seeds)]
            (out / f"{wl}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in runs))
        med = medians(runs, specs)
        other = None
        if args.against:
            other = medians(stored(args.against, wl), specs)
        print(f"\n{wl}  ({len(runs)} seeds, longest run {max(r['wall_s'] for r in runs)} s)")
        print(f"  {'metric':26}{'median':>14} {'unit':6}{'spread':>9}{'bound':>8}" + ("   worse than other by" if other else ""))
        for name, spec in specs.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med[name]
            line = f"  {name:26}{med[name]:14.4f} {spec['unit']:6}{spread:9.2%}{spec['bound']:8.0%}"
            if name != "setup_s" and spread > spec["bound"] / 3:
                unresolved.append(f"{wl} {name}: spread {spread:.2%} is over a third of its bound")
            if other:
                worse = (med[name] - other[name]) / other[name]
                if spec["better"] == "higher":
                    worse = -worse
                line += f"{worse:+12.2%}"
                if 2 * abs(worse) > spec["bound"]:
                    unresolved.append(f"{wl} {name}: differs by {worse:+.2%}, more than half its bound")
            print(line)
    print("\nunresolved:" if unresolved else "\nevery spread is within a third of its bound", *unresolved, sep="\n  ")


if __name__ == "__main__":
    main()
