"""Homogeneous Besov norms built from dyadic spectral blocks.

B^s_{p,q} aggregates 2^{js} ||phi_j(Lambda) f||_{L^p} over the resolved
dyadic range in l^q (max for q = inf).  Norms are truncated at the resolved
spectrum, which is exact for the band-limited fields the toolkit produces.
``besov_norm`` returns the norm with one row (j, block L^p norm, weighted
term 2^{js} ||phi_j f||_p) per dyadic index, the rows a report writes.

All block norms of a field come from one path, ``block_lp_norms``:
``dyadic_blocks`` stacks the live blocks (weights built once per domain,
band and profile), ``synthesize`` evaluates the stack on each grid and
``lp_norm`` reduces every block's norm in one call.  Rows that are
identically zero, such as the spare block at each end of ``j_range``, get
the norm 0.0 exactly and are never synthesized.  ``besov_aggregate`` turns
block norms into the norm.  It also takes a stack of block-norm rows
(..., J) and returns one value per row with the bits of that row alone, so
the bilinear battery aggregates a table stacked over its samples in one
call per index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import SpectralField, lp_norm, synthesize
from .multipliers import DyadicProfile, dyadic_blocks, dyadic_table


@dataclass(frozen=True)
class BesovParams:
    s: float
    p: float
    q: float

    def __post_init__(self):
        if not abs(self.s) < 2:
            raise ValueError("regularity index must satisfy |s| < 2")
        if not (self.p >= 1 and self.q >= 1):
            raise ValueError("integrability indices must lie in [1, inf]")


def besov_norm(
    field: SpectralField,
    params: BesovParams,
    profile: DyadicProfile | None = None,
    grid: tuple[int, int] | None = None,
) -> tuple[float, list[tuple[int, float, float]]]:
    """The norm and its rows (j, block L^p norm, weighted term), one per
    index of ``j_range``, as Python ints and floats; block norms use ``grid``."""
    if profile is None:
        profile = DyadicProfile()
    js, norms = block_lp_norms(field, profile, [grid], [params.p])
    bn = norms[(0, params.p)]
    value, terms = besov_aggregate(js, bn, params.s, params.q)
    rows = [(j, float(b), float(t)) for j, b, t in zip(js, bn, terms)]
    return value, rows


def block_lp_norms(
    field: SpectralField,
    profile: DyadicProfile,
    grids: list[tuple[int, int] | None],
    ps: list[float],
) -> tuple[range, dict[tuple[int, float], np.ndarray]]:
    """L^p norms of every dyadic block of ``field`` on each grid.

    Returns (js, norms) with ``norms[(gi, p)]`` the block norms over ``js``
    on ``grids[gi]`` (None is the domain grid).  All live blocks are
    synthesized together; zero blocks read 0.0.
    """
    if field.parity != "SS":
        raise ValueError("Besov norms are defined on SS fields")
    table = dyadic_table(field.domain, field.band, profile)
    _, blocks = dyadic_blocks(field, profile)  # the rows where table.live
    norms = {}
    for gi, grid in enumerate(grids):
        stack = synthesize(blocks, grid)
        for p in ps:
            norms[(gi, p)] = np.zeros(len(table.js))
            norms[(gi, p)][table.live] = lp_norm(stack, p)
        del stack  # before the next grid's stack is built
    return table.js, norms


def block_scales(js, s: float) -> np.ndarray:
    """The block weights 2^{js} over ``js``, each a Python-float power:
    numpy's vectorised pow can differ from libm's in the last bit."""
    return np.array([2.0 ** (j * s) for j in js], dtype=np.float64)


def besov_aggregate(js, block_norms: np.ndarray, s: float, q: float) -> tuple[float | np.ndarray, np.ndarray]:
    """The l^q norm (max for q = inf, 0 when empty) of the weighted block
    terms 2^{js} ||phi_j f||_p, and those terms.

    ``block_norms`` holds the block norms over ``js`` on its last axis; its
    leading axes are a stack of fields, for which the value is an array,
    one per row, with the bits that row gets alone.  One field gives a
    float.  The rows are summed along contiguous rows, and the 1/q roots
    are taken in scalar arithmetic, as numpy's vectorised pow can differ
    from libm's in the last bit.
    """
    norms = np.ascontiguousarray(block_norms, dtype=np.float64)
    terms = block_scales(js, s) * norms
    if np.isinf(q):
        values = terms.max(axis=-1) if terms.shape[-1] else np.zeros(terms.shape[:-1])
    else:
        sums = np.sum(terms**q, axis=-1)
        values = np.reshape([row ** (1.0 / q) for row in np.ravel(sums)], np.shape(sums))
    return (float(values) if terms.ndim == 1 else values), terms
