"""A fixed reference computation that measures how fast the machine runs now.

The benchmark's host shares its cores with other work, and its speed
changes by up to about 1.5x from one minute to the next; process CPU time
changes with wall time, so this is not time spent descheduled.  ``probe``
times a frozen computation that does not call the package, so a change to
the package cannot move it, and every timed pass is bracketed by two
probes.  A time is reported as it would read at the speed at which the
probe takes ``REF_PROBE_S`` (``scaled``); the raw times are kept in the
result file.

The probe is two sparse LU solves, on a 2-D and on a 3-D Laplacian.  Of the
kernels tried next to passes of all four workloads (a scalar Python loop,
small-array numpy arithmetic and these two solves), their sum followed the
passes' speed best on every workload.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# the probe's usual time on the 2-core 2.1 GHz Xeon VM the benchmark was
# tuned on; a scale only, it moves no ratio
REF_PROBE_S = 0.06
REPEATS = 3


def _laplacian_solve(m: int, dims: int) -> float:
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    a = lap
    for _ in range(dims - 1):
        a = sp.kronsum(a, lap)
    a = (a + sp.identity(m**dims)).tocsc()
    return float(spla.splu(a).solve(np.ones(m**dims)).sum())


def probe() -> float:
    """Wall time of one fixed reference computation, in seconds: each solve
    runs ``REPEATS`` times and counts with its median time, so that one
    preempted repeat does not move the probe."""
    total = 0.0
    for m, dims in ((45, 2), (13, 3)):
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _laplacian_solve(m, dims)
            times.append(time.perf_counter() - t0)
        total += statistics.median(times)
    return total


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, as it would read
    at the speed at which the probe takes ``REF_PROBE_S``."""
    return seconds * REF_PROBE_S / probe_s
