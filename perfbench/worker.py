"""Run one workload in a fresh process and print one JSON line.

Started by ``run.py``; one process per run keeps ``setup_s`` and
``peak_rss_mb`` honest. Modes:

* ``setup``: import the package and build the first pass's inputs, then
  report the set-up time.
* ``run``: set up, then run a fixed number of whole passes, untraced
  (``PASSES``). While it runs, a timer times a fixed reference loop every
  ``REF_EVERY_S``, also in the middle of a job, so that each job's time
  can be divided by the speed the machine had while the job ran (see
  ``SpeedProbe``).
* ``trace``: set up, then run ``TRACE_PASSES`` passes in which every job
  runs twice on the same input: once with every listed package function
  wrapped in a span, and once untraced, for the tracing overhead.

Jobs run one at a time in this single thread, each issued when the previous
one returns (a closed loop with one client).
"""
from time import perf_counter

SETUP_START = perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

# Passes in trace mode, each job of which runs traced and untraced: a fixed
# number, so that work counts repeat exactly from run to run at one seed.
TRACE_PASSES = {"tensor-up": 4, "k0": 1, "scalars": 1, "cli": 4}
# Passes per 15 s of --seconds: about 15 s of jobs on the machine named in
# baselines.json in its fast phases, except scalars, which needs two passes
# for its percentiles (see ONTO_COPIES in workloads.py) and so takes about
# 25 s. A run makes round(PASSES * seconds / 15) passes, at least one, so
# that its work depends on --seconds alone and not on how fast the machine
# happens to be while it runs.
PASSES = {"tensor-up": 10, "k0": 1, "scalars": 2, "cli": 11}
# The speed reference: iterations of its two loops, its time in ms on that
# machine at full speed, the interval between two samples of it, the fewest
# samples a job's reference time is taken over, and the samples taken right
# after set-up.
REF_LOOPS = 20000
REF_BUILDS = 1500
REF_MS = 4.0
REF_EVERY_S = 0.1
REF_NEAR = 15
REF_SETUP = 5


def reference():
    """Fixed pure-Python work that calls no package code: integer arithmetic
    on a small dict, then small tuples, frozensets and dicts built and
    dropped, as the package's table code does."""
    total, seen = 0, {}
    for i in range(REF_LOOPS):
        seen[i & 255] = total
        total += i * i % 7
    for i in range(REF_BUILDS):
        row = tuple(range(i % 7, i % 7 + 6))
        total += len(frozenset(row)) + len({x: i for x in row}) + row[3]
    return total


class SpeedProbe:
    """Times ``reference`` every ``REF_EVERY_S`` while the run goes on.

    The machine's speed drifts by up to 60% within a minute (a shared
    host), and the same job's wall time drifts with it. A timer signal
    interrupts the worker, in a job or between jobs, and its handler times
    one call of ``reference``; the handler's time is taken out of the job
    it interrupted. ``around`` gives the mean reference time of the
    samples taken while a job ran, so that a job's time divided by it
    measures the program and not the machine's speed at that moment."""

    def __init__(self):
        self.at = []
        self.ms = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = perf_counter()
        reference()
        end = perf_counter()
        self.at.append((start + end) / 2)
        self.ms.append((end - start) * 1e3)
        self.spent += end - start

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def around(self, start, end):
        """Mean reference time in ms of the samples taken in [start, end],
        or of the ``REF_NEAR`` samples nearest to it if fewer were."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        while hi - lo < REF_NEAR and (lo > 0 or hi < len(self.at)):
            if hi == len(self.at) or (
                    lo > 0 and start - self.at[lo - 1] < self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        return sum(self.ms[lo:hi]) / (hi - lo)


def _import_package():
    import mvsr
    from mvsr import cli, tensor
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(mvsr.__file__).startswith(src + os.sep):
        raise ImportError(f"mvsr was imported from {mvsr.__file__}, "
                          f"not from {src}")
    return {"cli": cli, "tensor": tensor}


def _run_job(job, mods):
    if job.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mods["cli"].main(job.argv)
        return code, out.getvalue()
    return [getattr(mods[module], name)(*args, **kwargs)
            for module, name, args, kwargs in job.calls]


class Runner:
    def __init__(self, workload, seed, workdir, mods, expected):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.mods = mods
        self.expected = expected[workload]
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.probe = None
        self.job_ms = []
        self.job_spans = []
        self.job_keys = []
        self.job_traced = []
        self.digests = []

    def build(self, index):
        return workloads.build_pass(self.workload, self.seed, index,
                                    os.path.join(self.workdir, f"p{index}"))

    def _time(self, job, tracer=None):
        if tracer is not None:
            tracer.job = len(self.job_ms)
            tracer.install()
        probed = self.probe.spent if self.probe else 0.0
        t = perf_counter()
        try:
            result = (True, _run_job(job, self.mods))
        except (Exception, SystemExit) as exc:  # noqa: BLE001
            result = (False, f"{type(exc).__name__}: {exc}")
        end = perf_counter()
        if self.probe:
            probed = self.probe.spent - probed
        self.job_ms.append((end - t - probed) * 1e3)
        self.job_spans.append((t, end))
        if tracer is not None:
            tracer.uninstall()
        self.job_keys.append(job.key)
        self.job_traced.append(tracer is not None)
        return result

    def run_pass(self, index, jobs, tracer=None):
        """Time every job of the pass; check answers after the clock stops.

        With a tracer, each job runs twice in a row on the same input, once
        traced and once not. The traced run goes first on every other job,
        so each run follows its partner, whose caches it may find warm, on
        half of the jobs, and the ratio of the two totals measures the
        tracing rather than the labelling."""
        results = []
        start = perf_counter()
        for j, job in enumerate(jobs):
            if tracer is None:
                results.append((job, self._time(job)))
                continue
            order = (tracer, None) if (index + j) % 2 == 0 else (None, tracer)
            for t in order:
                results.append((job, self._time(job, t)))
        wall = perf_counter() - start
        digest = hashlib.sha256()
        for job, (ok, value) in results:
            self.attempted += 1
            if ok:
                got, text = workloads.answer(job, value)
                digest.update(f"{job.key}\0{text}\0".encode())
                ok = got == self.expected.get(job.key)
                value = got
            if not ok:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append({"pass": index, "job": job.key,
                                          "argv": job.argv, "got": value,
                                          "expected": self.expected.get(job.key)})
        shutil.rmtree(os.path.join(self.workdir, f"p{index}"),
                      ignore_errors=True)
        self.digests.append(digest.hexdigest())
        return wall

    def run_passes(self, jobs, seconds):
        """Untraced passes, the first on ``jobs``, with the speed probe on.

        Returns each pass's wall time and each job's reference time in ms.
        """
        passes = max(1, round(PASSES[self.workload] * seconds / 15))
        walls = []
        self.probe = SpeedProbe()
        self.probe.start()
        try:
            for index in range(passes):
                if index:
                    jobs = self.build(index)
                walls.append(self.run_pass(index, jobs))
        finally:
            self.probe.stop()
        return walls, [self.probe.around(t, end)
                       for t, end in self.job_spans]


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None,
                        help="trace mode: write the spans here")
    args = parser.parse_args(argv)

    mods = _import_package()
    expected = workloads.load_expected()
    runner = Runner(args.workload, args.seed, args.workdir, mods, expected)
    first = runner.build(0)
    setup_s = perf_counter() - SETUP_START
    # Set-up in seconds at the reference's full speed (REF_MS), by the
    # reference timed right after it in this process: see SpeedProbe.
    ref_ms = []
    for _ in range(REF_SETUP):
        start = perf_counter()
        reference()
        ref_ms.append((perf_counter() - start) * 1e3)
    report = {"setup_s": setup_s * REF_MS * REF_SETUP / sum(ref_ms),
              "setup_raw_s": setup_s}

    if args.mode == "run":
        report["walls"], report["job_ref_ms"] = runner.run_passes(
            first, args.seconds)
    elif args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        for index in range(TRACE_PASSES[args.workload]):
            runner.run_pass(index, runner.build(index) if index else first,
                            tracer)
        report["trace_passes"] = TRACE_PASSES[args.workload]
        report["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    if args.mode != "setup":
        report.update(attempted=runner.attempted, failed=runner.failed,
                      failures=runner.failures, job_ms=runner.job_ms,
                      job_keys=runner.job_keys, job_traced=runner.job_traced,
                      digests=runner.digests)
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(args.workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
