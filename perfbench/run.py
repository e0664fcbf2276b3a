"""The mvsr benchmark: one workload per invocation, one result line.

    python3 perfbench/run.py --workload {tensor-up,k0,scalars,cli} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
``src/`` and fails without a result when there is none. Each run starts
one worker process per measurement (see ``worker.py``) and waits for it.

``--trace 0`` reports every end-to-end metric of BENCHMARK.json:

* A pass runs every job of the workload once, on freshly relabelled
  inputs; a run makes a fixed number of whole passes for its ``S``
  (``worker.PASSES``), in one thread as a closed loop.
* Timings are in ``ref``: a job's wall time divided by the mean time of a
  fixed pure-Python reference loop (``worker.reference``, about 4 ms on
  the machine of baselines.json) sampled every 0.1 s while that job ran.
  The shared machines this runs on change speed by up to 60% for a minute
  at a time; the ratio follows the program, the seconds follow the host.
  The seconds are printed above the result.
* ``wall_ref``: the run's total timed job time over its number of passes.
  Package caches fill inside timed jobs, so a fill counts once per run, as
  in a session; the first pass's wall is printed above the result.
* ``job_p50_ref`` / ``job_p90_ref``: the median and 90th percentile of every
  timed job of the run; the sample count and the number beyond p90 are
  printed above the result.
* ``setup_s``: median over ``SETUP_REPEATS`` fresh processes, the measured
  one among them, of the time from before ``import mvsr`` to the first
  timed job (imports, input generation, input files), in seconds at the
  reference's full speed: the seconds times ``worker.REF_MS`` over the
  reference's mean time right after set-up in the same process. No
  package kernel runs in set-up.
* ``peak_rss_mb``: maximum resident set size of the measured process.

``--trace 1`` reports every per-layer metric, summed over a fixed number
of passes (``worker.TRACE_PASSES``, which sets the run's length in place of
``S``). In those passes each job runs twice on the same input, traced and
untraced, the traced run first on every other job;
``trace.traced_wall_s`` and ``trace.untraced_wall_s`` are the two totals
per pass and ``trace.overhead_ratio`` their ratio. A second worker repeats
the run at the same seed; every work count and every job's canonical
output must repeat exactly between the two.

Every job's label-invariant answer is compared with ``expected.json``; a
job that raises, exits with another code or answers differently counts as
failed. The last line of standard output is the JSON result.
"""
import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 7
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _worker(args, mode, seconds, workdir, deadline, spans=None):
    env = {k: v for k, v in os.environ.items() if k != "MVSR_CONFIG"}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--mode", mode, "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report_failures(report):
    for failure in report["failures"]:
        print(f"failed job: {json.dumps(failure)}", file=sys.stderr)


def timed(args, workdir, deadline):
    def setup(i):
        report = _worker(args, "setup", 0, f"{workdir}/s{i}", deadline)
        return report["setup_s"], report["setup_raw_s"]

    # Half the set-up processes run before the measured one and half after,
    # so that the median spans the run rather than one moment of it.
    before = (SETUP_REPEATS - 1) // 2
    setups = [setup(i) for i in range(before)]
    run = _worker(args, "run", args.seconds, f"{workdir}/run", deadline)
    setups.append((run["setup_s"], run["setup_raw_s"]))
    setups += [setup(i) for i in range(before, SETUP_REPEATS - 1)]
    _report_failures(run)
    walls = run["walls"]
    jobs = [ms / ref for ms, ref in zip(run["job_ms"], run["job_ref_ms"])]
    values = {
        "wall_ref": sum(jobs) / len(walls),
        "job_p50_ref": statistics.median(jobs),
        "job_p90_ref": statistics.quantiles(jobs, n=10)[8],
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    beyond = sum(1 for v in jobs if v > values["job_p90_ref"])
    seconds = run["job_ms"]
    print(f"{args.workload}: {len(walls)} passes, {len(jobs)} timed jobs, "
          f"{beyond} beyond p90; {len(setups)} set-ups; first pass "
          f"{walls[0]:.3f} s; in seconds: wall "
          f"{sum(seconds) / 1e3 / len(walls):.3f} s, job p50 "
          f"{statistics.median(seconds):.2f} ms, job p90 "
          f"{statistics.quantiles(seconds, n=10)[8]:.2f} ms, set-up "
          f"{statistics.median(raw for _, raw in setups):.3f} s; reference "
          f"{statistics.median(run['job_ref_ms']):.3f} ms")
    return run["attempted"], run["failed"], values


def traced(args, spec, workdir, deadline):
    spans_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    again = _worker(args, "trace", 0, f"{workdir}/b", deadline)
    main = _worker(args, "trace", 0, f"{workdir}/a", deadline, spans)
    _report_failures(main)
    _report_failures(again)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layers = main["layers"]
    mismatches = [name for name, unit in units.items()
                  if unit in ("count", "bytes") and name in layers
                  and layers[name] != again["layers"].get(name)]
    if main["digests"] != again["digests"]:
        mismatches.append("canonical job outputs")
    for name in mismatches:
        print(f"not repeated at the same seed: {name}", file=sys.stderr)
    n = main["trace_passes"]
    traced_wall, untraced_wall = (
        sum(ms for t, ms in zip(main["job_traced"], main["job_ms"])
            if t == flag) / 1e3 / n for flag in (True, False))
    values = dict(layers)
    values.update({"trace.traced_wall_s": traced_wall,
                   "trace.untraced_wall_s": untraced_wall,
                   "trace.overhead_ratio": traced_wall / untraced_wall})
    print(f"{args.workload}: {n} passes, every job traced and untraced in "
          f"turn; overhead {traced_wall / untraced_wall:.3f}x")
    attempted = main["attempted"] + again["attempted"]
    failed = main["failed"] + again["failed"] + len(mismatches)
    return attempted, failed, values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "mvsr", "__init__.py")):
        print("perfbench: no package source at src/mvsr in this checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    try:
        if args.trace:
            attempted, failed, values = traced(args, spec, workdir, deadline)
        else:
            attempted, failed, values = timed(args, workdir, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]],
                                      "unit": m["unit"]} for m in metrics}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
