"""Host-speed probe: fixed numpy work that does not touch sqgbox.

A shared machine's speed changes in bursts of seconds and phases of
minutes, by up to ~35% on the 2-vCPU VM used here.  ``probe()`` times the
same work each time it is called, so probes taken between the CLI
invocations of a run say how fast the machine was while they ran.  The
work has two parts, one for each kind of workload:

- the dense transform pattern of an M=128 field on a 256 grid: two matrix
  products each way and one elementwise product;
- many calls on tiny arrays, where the interpreter and numpy's per-call
  overhead set the time.

The inputs are built once from a fixed seed, so every probe does the same
work whatever the benchmark seed.
"""

from __future__ import annotations

import time

import numpy as np

# A typical probe time on the reference host in a quiet phase (2-vCPU x86_64
# VM, numpy 2.4.6, scipy-openblas 0.3.31 on 1 thread).  wall_ref_s scales
# body walls by it over the run's probe time.
REFERENCE_S = 0.065

BLAS_REPEATS = 30
INTERP_REPEATS = 5000

_rng = np.random.default_rng(20240906)
_B1 = _rng.standard_normal((256, 128))
_C = _rng.standard_normal((128, 128))
_B2 = _rng.standard_normal((256, 128))
_S1 = _rng.standard_normal((17, 17))
_S2 = _rng.standard_normal((17, 17))


def _work() -> float:
    acc = 0.0
    for _ in range(BLAS_REPEATS):
        grid = _B1 @ _C @ _B2.T
        acc += (_B1.T @ (grid * grid) @ _B2)[0, 0]
    a, b = _S1, _S2
    for k in range(INTERP_REPEATS):
        c = a @ b if k % 2 else a * b + a
        acc += float(np.sum(c[1:, ::2]))
    return acc


def probe() -> float:
    """Seconds taken by the fixed work."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
