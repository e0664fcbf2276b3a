"""The benchmark's own checks: its oracle is label-invariant, catches a
wrong answer, and passes at the default seed.

Each test runs the cheap jobs of every workload (the whole cli pass), so
the file takes seconds; the benchmark itself runs every job at every seed.
"""
import os
import shutil

import pytest

import worker
import workloads

CHEAP = {
    "tensor-up": {"c1*c6", "c2*c2", "c2*c3", "c3*c2", "b2*c2", "c2*c4"},
    "k0": {"c2", "c3", "c4"},
    "scalars": {key for key in workloads.load_expected()["scalars"]
                if not key.endswith("->c3")},
    "cli": None,
}


@pytest.fixture
def workdir():
    path = os.path.join(worker.ROOT, ".perfbench_tmp", f"test{os.getpid()}")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _cheap_jobs(name, seed, directory):
    jobs = workloads.build_pass(name, seed, 0, directory)
    keep = CHEAP[name]
    return [job for job in jobs if keep is None or job.key in keep]


def _answers(name, seed, directory, mods):
    out = {}
    for job in _cheap_jobs(name, seed, directory):
        got, _ = workloads.answer(job, worker._run_job(job, mods))
        out.setdefault(job.key, []).append(got)
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_answers_do_not_depend_on_the_labelling(name, workdir):
    mods = worker._import_package()
    first = _answers(name, 0, os.path.join(workdir, "a"), mods)
    second = _answers(name, 1, os.path.join(workdir, "b"), mods)
    assert first == second
    expected = workloads.load_expected()[name]
    for key, answers in first.items():
        assert all(a == expected[key] for a in answers), key


def test_wrong_expectation_is_counted_as_failure(workdir):
    mods = worker._import_package()
    expected = workloads.load_expected()
    expected["k0"]["c3"] = dict(expected["k0"]["c3"], classes=8)
    runner = worker.Runner("k0", 0, workdir, mods, expected)
    jobs = _cheap_jobs("k0", 0, os.path.join(workdir, "p0"))
    runner.run_pass(0, jobs)
    assert runner.attempted == len(jobs)
    assert runner.failed == sum(1 for job in jobs if job.key == "c3") > 0
    assert {f["job"] for f in runner.failures} == {"c3"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_no_failures_at_the_default_seed(name, workdir):
    mods = worker._import_package()
    runner = worker.Runner(name, 0, workdir, mods, workloads.load_expected())
    runner.run_pass(0, _cheap_jobs(name, 0, os.path.join(workdir, "p0")))
    assert runner.attempted > 0
    assert runner.failed == 0, runner.failures
