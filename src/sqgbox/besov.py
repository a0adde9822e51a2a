"""Homogeneous Besov norms built from dyadic spectral blocks.

B^s_{p,q} aggregates 2^{js} ||phi_j(Lambda) f||_{L^p} over the resolved
dyadic range in l^q (max for q = inf).  Norms are truncated at the resolved
spectrum, which is exact for the band-limited fields the toolkit produces.
A duality pairing gives certified lower bounds, and embedding ratios can be
measured for parameter pairs on the Bernstein line
s_A - s_B = 2 (1/p_A - 1/p_B), p_B >= p_A.

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

import csv
import math
from dataclasses import dataclass

import numpy as np

from .domain import SpectralField, lp_norm, spectral_inner, synthesize
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


@dataclass
class BesovProfile:
    """Per-block record (j, block L^p norm, weighted term)."""

    rows: list[tuple[int, float, float]]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["j", "block_lp_norm", "weighted_term"])
            for j, bn, term in self.rows:
                writer.writerow([j, repr(float(bn)), repr(float(term))])


def besov_norm(
    field: SpectralField,
    params: BesovParams,
    profile: DyadicProfile | None = None,
    grid: tuple[int, int] | None = None,
) -> tuple[float, BesovProfile]:
    """Norm value plus the per-block profile; block norms use ``grid``."""
    if profile is None:
        profile = DyadicProfile()
    js, norms = block_lp_norms(field, profile, [grid], [params.p])
    bn = norms[(0, params.p)]
    value, terms = besov_aggregate(js, bn, params.s, params.q)
    rows = [(j, float(b), float(t)) for j, b, t in zip(js, bn, terms)]
    return value, BesovProfile(rows)


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


def conjugate_exponent(p: float) -> float:
    if np.isinf(p):
        return 1.0
    if p == 1:
        return math.inf
    return p / (p - 1.0)


def dual_params(params: BesovParams) -> BesovParams:
    return BesovParams(-params.s, conjugate_exponent(params.p), conjugate_exponent(params.q))


def dual_norm_lower_bound(
    field: SpectralField,
    params: BesovParams,
    candidates: list[SpectralField],
    profile: DyadicProfile | None = None,
    grid: tuple[int, int] | None = None,
) -> float:
    """max_g |<f, g>| / ||g||_{B^{-s}_{p',q'}} over nonzero candidates.

    Always a certified lower bound for the B^s_{p,q} norm, up to the
    equivalence constants of the discrete pairing.
    """
    dp = dual_params(params)
    best = None
    for g in candidates:
        denom, _ = besov_norm(g, dp, profile, grid)
        if denom == 0.0:
            continue
        val = abs(spectral_inner(field, g)) / denom
        best = val if best is None else max(best, val)
    if best is None:
        raise ValueError("need at least one nonzero candidate")
    return float(best)


def embedding_check(
    field: SpectralField,
    source: BesovParams,
    target: BesovParams,
    profile: DyadicProfile | None = None,
    grid: tuple[int, int] | None = None,
) -> float:
    """Ratio ||f||_target / ||f||_source for a valid embedding pair.

    Valid means p_target >= p_source, q_target >= q_source, and a regularity
    drop of at least the Bernstein rate 2 (1/p_source - 1/p_target).
    """
    if target.p < source.p - 1e-12 or target.q < source.q - 1e-12:
        raise ValueError("embedding requires nondecreasing integrability indices")
    drop = 2.0 * (1.0 / source.p - 1.0 / target.p)
    if source.s - target.s < drop - 1e-12:
        raise ValueError("regularity drop below the Bernstein embedding rate")
    num, _ = besov_norm(field, target, profile, grid)
    den, _ = besov_norm(field, source, profile, grid)
    if den == 0.0:
        raise ValueError("embedding ratio undefined for the zero field")
    return num / den
