"""Fixed reference kernels that gauge how fast the host runs right now.

The benchmark shares a few cores of a busy host, whose speed for this
process drifts by tens of percent within a minute.  The kernels do a fixed
amount of work on fixed inputs, so their cost depends only on the host,
never on the checkout or the seed:

* ``small`` is interpreter-bound, like the per-call and per-sample work of
  ``resume16`` and the assembly around the dense solves of ``theory``;
* ``grid`` is memory-bound, like the whole-grid array work of ``growth32``.

``worker.py`` times a workload's mix of them before every command of a
repetition, for about a third of the command's time, and ``small`` after
each set-up.  A slow phase of the host stretches the commands and the
kernels alike, so dividing the workload's time by the kernels' slowdown,
both averaged over the same run, keeps what the program changed and drops
most of what the host did.  ``KERNELS`` holds each kernel's time on a quiet
host, so a scaled time is about what the work takes there.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

SETUP_CALLS = 10  # small kernels timed right after each set-up

_rng = np.random.default_rng(20250401)
_MATRIX = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))
_SMALL = _rng.standard_normal((16, 16, 9))
_SPECTRUM = _rng.standard_normal((32, 32, 17)) + 1j * _rng.standard_normal((32, 32, 17))
_DECAY = _rng.uniform(0.0, 1.0, (32, 32, 17))
_FIELD = _rng.standard_normal((64, 64, 64))


def small():
    """Interpreter-bound: small array operations, plain Python, a small eigensolve."""
    x = _SMALL
    for _ in range(2000):
        x = 0.5 * x + _SMALL
        float(np.abs(x).max())
    table = {}
    for i in range(40000):
        table[i & 255] = table.get(i & 255, 0) + i
    scipy.linalg.eig(_MATRIX, right=False)


def grid():
    """Memory-bound: whole-array operations on a 32^3 spectrum and a 64^3 field."""
    y = _SPECTRUM
    for _ in range(130):
        y = _DECAY * _SPECTRUM + 0.5 * y
    z = _FIELD
    for _ in range(11):
        z = 0.5 * z + 0.25 * _FIELD


# kernel -> its time in seconds on a quiet host
KERNELS = {small: 0.022, grid: 0.022}


def run(calls):
    """Time ``calls`` = (small calls, grid calls) kernels; list of (kernel, seconds)."""
    timings = []
    for kernel, count in zip(KERNELS, calls):
        for _ in range(count):
            t0 = time.perf_counter()
            kernel()
            timings.append((kernel, time.perf_counter() - t0))
    return timings


def slowdown(timings):
    """How much slower than a quiet host the kernels ran: measured over quiet time."""
    return (sum(seconds for _, seconds in timings)
            / sum(KERNELS[kernel] for kernel, _ in timings))
