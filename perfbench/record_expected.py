"""Record the expected answer of every job template into expected.json.

    python3 perfbench/record_expected.py [--seeds 0 1 2]

Runs one pass of every workload at each seed and keeps each template's
label-invariant answer. It stops without writing if two seeds, or two
copies within a pass, disagree, since the answers must not depend on the
labelling. Run it only when a workload or template is added, and review
the diff: the benchmark treats these values as the truth.
"""
import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args()
    mods = worker._import_package()
    workdir = os.path.join(worker.ROOT, ".perfbench_tmp", f"record{os.getpid()}")
    recorded = {}
    try:
        for name in workloads.WORKLOADS:
            answers = {}
            for seed in args.seeds:
                for job in workloads.build_pass(name, seed, 0, workdir):
                    got, _ = workloads.answer(job, worker._run_job(job, mods))
                    if answers.setdefault(job.key, got) != got:
                        sys.exit(f"{name} {job.key}: {got} differs from "
                                 f"{answers[job.key]} at seed {seed}")
            recorded[name] = dict(sorted(answers.items()))
            print(f"{name}: {len(answers)} templates", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
