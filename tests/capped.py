"""Run a snippet in a child Python process under an address-space cap.

The cap (RLIMIT_AS) is set inside the child alone, so a kernel that
allocates past it fails there with MemoryError instead of exhausting a
shared host, and the child's peak resident set is read back.
"""
import os
import subprocess
import sys
from pathlib import Path

import mvsr

_SRC = str(Path(mvsr.__file__).resolve().parent.parent)


def run_capped(code: str, cap_bytes: int, timeout: float = 120):
    """(stdout lines, peak RSS in MB) of code run under the cap; a child
    that fails raises AssertionError with its stderr."""
    prelude = ("import resource\n"
               f"resource.setrlimit(resource.RLIMIT_AS, ({cap_bytes}, "
               f"{cap_bytes}))\n")
    # VmHWM is the child's own high-water mark; ru_maxrss would also carry
    # the peak of the process it was spawned from, which exec keeps
    tail = ("\nprint(next(line.split()[1]"
            " for line in open('/proc/self/status')"
            " if line.startswith('VmHWM:')))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", prelude + code + tail],
                          env=env, capture_output=True, text=True,
                          timeout=timeout)
    assert done.returncode == 0, done.stderr
    *lines, peak_kb = done.stdout.split("\n")[:-1]
    return lines, int(peak_kb) / 1024
