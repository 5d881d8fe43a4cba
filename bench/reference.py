"""Reference kernels: fixed work that calls nothing of regsel.

On a shared host the same operation, with the same inputs, in the same
process, runs 20-50 % faster or slower from one few-second period to the
next, although the process keeps its CPU (process time / wall time stays
near 0.99): the host slows the core down, it does not take it away. A
kernel that does the same kind of work as a workload's operations slows
down with them; timed between operations it gives the host's speed at that
moment, and run.py rescales each operation's time to what it would be on a
host where the kernel takes its nominal time (see README.md).

Each kernel depends only on numpy, the interpreter and fixed data, never on
regsel or on the seed, so a change to the program moves the operations and
not the kernel. NOMINAL_S holds each kernel's median time on the 2-vCPU
host the baseline was taken on; it only sets the scale of the reported
numbers, and must not change once a baseline has been taken with it.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np

_RNG = np.random.default_rng(20020209)
_SMALL = _RNG.standard_normal((3, 5))
_SMALL_X = np.linspace(-1.0, 1.0, 5)
_DENSE = _RNG.standard_normal((130, 194))


def small_numpy():
    """Many tiny numpy calls and little else, in the proportions of a small
    certified solve: input validation, norms, products and clamps on
    5-vectors, and a 3x5 SVD every tenth round."""
    x = _SMALL_X
    for i in range(40):
        v = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(v)):
            raise FloatingPointError("reference kernel diverged")
        y = _SMALL @ v
        z = np.clip(v, -0.5, 0.5)
        x = 0.5 * (z + 0.1 * np.sin(v)) / (1.0 + np.linalg.norm(y - 1.0))
        if i % 10 == 0:
            np.linalg.svd(_SMALL, full_matrices=True)


def dense_svd():
    """A full SVD of a fixed 130x194 matrix (LAPACK at one thread) plus
    the small-call rounds that surround the SVDs of one steer."""
    np.linalg.svd(_DENSE, full_matrices=True)
    small_numpy()


def interpreter(env):
    """A fresh interpreter that imports numpy: process start-up and module
    loading, the work of a cold CLI start without regsel."""
    # Output goes to pipes, as for the CLI processes: subprocess then waits
    # with select and sees the exit at once. Without pipes, a wait with a
    # timeout polls with sleeps of up to 50 ms, which rounds the time up.
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   capture_output=True, timeout=60)


# Median seconds per call on the baseline host.
NOMINAL_S = {"small_numpy": 0.75e-3, "dense_svd": 5.0e-3, "interpreter": 0.125}
