#!/usr/bin/env python3
"""Run the benchmark repeatedly and report each metric's run-to-run spread.

Each workload runs once per seed (seed0, seed0+1, ...), as separate
processes, exactly as BENCHMARK.json's command does. For every metric the
script prints the quartiles of its values across the runs
(statistics.quantiles, n=4) and the spread: the distance between the first
and third quartile as a share of the median. A later change can then tell a
resolved difference from noise.

    python3 perfbench/spread.py --runs 10 [--trace 0] [--workloads a,b]
                                [--seconds N] [--seed0 1] [--out FILE --host TEXT]

Run it from the repository root. With --out, the raw values and quartiles
are written to FILE as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--out", default="")
    ap.add_argument("--host", default="", help="hardware description stored with --out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {}
    for name in names:
        values = {}
        for i in range(args.runs):
            seed = args.seed0 + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.stderr.write(out.stderr)
                sys.exit(f"{name} seed {seed}: exit {out.returncode}")
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{name} seed {seed}: correct={res['correct']} failed={res['failed']}")
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        report[name] = {}
        for metric, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            report[name][metric] = {"values": vs, "q1": q1, "median": med, "q3": q3, "spread": spread}
    print(f"\n{'workload':16} {'metric':30} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, metrics in report.items():
        for metric, r in metrics.items():
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and r["spread"] > bound / 3:
                flag = "  above bound/3"
            print(f"{name:16} {metric:30} {r['q1']:12.5g} {r['median']:12.5g} {r['q3']:12.5g} "
                  f"{r['spread']:8.3f} {bound if bound is not None else '':>6}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"host": args.host, "seconds": seconds, "runs": args.runs, "seed0": args.seed0,
                       "trace": args.trace, "workloads": report}, f, indent=1)


if __name__ == "__main__":
    main()
