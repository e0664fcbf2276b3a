"""Measure the benchmark's spread and record baselines.

    python3 perfbench/baseline.py --seeds 0 1 2 3 4 5 6 7 8 9 [--trace] \
        [--workloads k0 cli] [--out perfbench/baselines.json]

Runs ``run.py`` once per workload and seed at BENCHMARK.json's
``run_seconds``, one run at a time, and prints for every end-to-end metric
the median, the quartiles and their distance as a share of the median,
next to the metric's bound. With ``--trace`` it adds one traced run per
workload at the first seed and reports each layer's share of the self time
spent inside the package, the five functions with the largest shares, and
the tracing overhead. With ``--out`` it
writes all of it, with the machine and versions, as JSON.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAYERS = tuple(tracer.SPANNED) + tuple(tracer.AGGREGATED)


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)}: incorrect result\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def _summary(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound, "values": values}


def _machine():
    import numpy
    cpu = next((line.split(":", 1)[1].strip()
                for line in open("/proc/cpuinfo", encoding="utf-8")
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": _machine(), "run_seconds": seconds,
              "seeds": args.seeds, "end_to_end": {}, "trace": {}}
    for workload in args.workloads:
        runs = [_run(workload, seed, seconds, False) for seed in args.seeds]
        rows = {}
        for name, bound in bounds.items():
            rows[name] = _summary([r[name] for r in runs], bound)
            row = rows[name]
            flag = "ok" if row["spread"] <= bound / 3 else "WIDE"
            print(f"{workload:10s} {name:12s} median {row['median']:10.4f} "
                  f"q1 {row['q1']:10.4f} q3 {row['q3']:10.4f} spread "
                  f"{row['spread']:.3f} bound {bound} {flag}", flush=True)
        report["end_to_end"][workload] = rows
        if args.trace:
            layers = _run(workload, args.seeds[0], seconds, True)
            inside = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
            shares = {layer: layers[f"{layer}.self_s"] / inside
                      for layer in LAYERS} if inside else {}
            functions = {name[:-len(".self_s")]: v / inside
                         for name, v in layers.items()
                         if name.endswith(".self_s") and name.count(".") == 2
                         and inside}
            report["trace"][workload] = {
                "seed": args.seeds[0], "self_share": shares,
                "top_functions": dict(sorted(functions.items(),
                                             key=lambda kv: -kv[1])[:5]),
                "overhead_ratio": layers["trace.overhead_ratio"]}
            top = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
            print(f"{workload:10s} trace overhead "
                  f"{layers['trace.overhead_ratio']:.3f}x, top self shares "
                  + ", ".join(f"{k} {v:.2f}" for k, v in top), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
