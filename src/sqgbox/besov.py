"""Homogeneous Besov norms built from dyadic spectral blocks.

B^s_{p,q} aggregates 2^{js} ||phi_j(Lambda) f||_{L^p} over the resolved
dyadic range in l^q (max for q = inf).  Norms are truncated at the resolved
spectrum, which is exact for the band-limited fields the toolkit produces.
A duality pairing gives certified lower bounds, and embedding ratios can be
measured for parameter pairs on the Bernstein line
s_A - s_B = 2 (1/p_A - 1/p_B), p_B >= p_A.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .domain import SpectralField, lp_norm, spectral_inner, synthesize
from .multipliers import DyadicProfile, dyadic_block, j_range


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
    if field.parity != "SS":
        raise ValueError("Besov norms are defined on SS fields")
    if profile is None:
        profile = DyadicProfile()
    rows = []
    terms = []
    for j in j_range(field.domain, field.band):
        block = dyadic_block(field, j, profile)
        bn = lp_norm(synthesize(block, grid), params.p)
        term = (2.0** (j * params.s)) * bn
        rows.append((j, bn, term))
        terms.append(term)
    return _lq_aggregate(terms, params.q), BesovProfile(rows)


def _lq_aggregate(terms, q: float) -> float:
    """l^q norm of the weighted block terms (max for q = inf, 0 when empty)."""
    terms = np.asarray(terms)
    if np.isinf(q):
        return float(terms.max()) if terms.size else 0.0
    return float(np.sum(terms**q) ** (1.0 / q))


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
