"""Spectral multipliers for the Dirichlet Laplacian: dyadic blocks, heat
semigroup, fractional powers, and the resolvent-quadrature square root.

All multipliers act diagonally on SS coefficient arrays through functions of
the spectral parameter sqrt(lambda_mn).  The dyadic profile is a smoothed
indicator chi equal to 1 on (0, 1], 0 on [2, inf), interpolated by a
smoothstep in log2; phi(s) = chi(s) - chi(2s) is supported in [1/2, 2] and
the shifted family phi(2^-j s) sums to 1 exactly on the resolved spectrum.

``heat_semigroup``, ``fractional_power`` and ``resolvent`` scale by one
read-only table per (domain, band, kind, parameter) from ``multiplier_table``,
the one bounded cache of those weights, through ``apply_multiplier``.  No
other module builds such a table: the solver's step reads its heat and
Lambda^{-1} tables from ``multiplier_table`` and scales by them itself.

The block weights phi(2^-j sqrt(lambda)) for every j in ``j_range`` are
built once per (domain, band, profile) as a read-only ``DyadicTable``, which
also records the rows that are identically zero: the spare block that
``j_range`` adds at each end always is, since phi vanishes at the edges of
its support, and so is every block outside ``j_range``.  ``dyadic_blocks``
returns all live blocks as one stacked field for ``synthesize`` and
``lp_norm``; ``dyadic_block`` reads one row.  Every multiplier here acts on
the last two coefficient axes, so it also takes a stack.

The square root of the Laplacian is also computable without fractional
powers through the resolvent identity

    Lambda f = c0 int_0^inf mu^(-3/2) (f - (1 - mu Delta)^(-1) f) dmu,

with c0 = 1/pi fixed by int_0^inf mu^(-3/2) mu lam/(1+mu lam) dmu
= pi sqrt(lam).  The quadrature is composite Gauss-Legendre on log-spaced
panels; the truncated integral ends are compensated in closed form by
term-wise integration of the resolvent series (integer powers of the
Laplacian only), and the first omitted series term is reported as the
truncation-error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domain import DomainSpec, SpectralField, lambda_table

C0 = 1.0 / math.pi


@lru_cache(maxsize=None)
def _smoothstep_coeffs(k: int) -> np.ndarray:
    # S_k(t) = t^(k+1) sum_i C(k+i, i) C(2k+1, k-i) (-t)^i, the unique poly
    # with S(0)=0, S(1)=1 and k vanishing derivatives at both ends.
    coeffs = np.zeros(2 * k + 2)
    for i in range(k + 1):
        coeffs[k + 1 + i] = math.comb(k + i, i) * math.comb(2 * k + 1, k - i) * (-1.0) ** i
    return coeffs[::-1].copy()  # highest degree first, for np.polyval


def _smoothstep(t: np.ndarray, k: int) -> np.ndarray:
    return np.polyval(_smoothstep_coeffs(k), t)


@dataclass(frozen=True)
class DyadicProfile:
    """Smoothed dyadic cutoff; ``sharpness`` is the smoothstep order."""

    sharpness: int = 2

    def __post_init__(self):
        if not (1 <= self.sharpness <= 7):
            raise ValueError("sharpness must be an integer in 1..7")

    def chi(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        out = np.ones_like(s)
        out[s >= 2.0] = 0.0
        mid = (s > 1.0) & (s < 2.0)
        if np.any(mid):
            out[mid] = 1.0 - _smoothstep(np.log2(s[mid]), self.sharpness)
        return out

    def phi(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        return self.chi(s) - self.chi(2.0 * s)


def j_range(domain: DomainSpec, band: tuple[int, int] | None = None) -> range:
    """Dyadic indices covering the resolved spectrum with one spare on each end."""
    lam = lambda_table(domain, band)
    s_min = math.sqrt(float(lam.min()))
    s_max = math.sqrt(float(lam.max()))
    j_min = math.floor(math.log2(s_min)) - 1
    j_max = math.ceil(math.log2(s_max)) + 1
    return range(j_min, j_max + 1)


def _block_weights(s: np.ndarray, j: int, profile: DyadicProfile) -> np.ndarray:
    return profile.phi(np.ldexp(s, -j))


@dataclass(frozen=True, eq=False)
class DyadicTable:
    """Read-only weights phi(2^-j sqrt(lambda)) over a sine band.

    ``weights[i]`` is the block j = ``js[i]``; ``live[i]`` is False exactly
    when that row is identically zero.
    """

    js: range
    weights: np.ndarray
    live: np.ndarray


def dyadic_table(domain: DomainSpec, band: tuple[int, int], profile: DyadicProfile) -> DyadicTable:
    """Block weights for every j in ``j_range(domain, band)``.

    Built and checked once per (domain, band, profile) and then shared; each
    row is bit-identical to the weights ``dyadic_block`` applies for that j.
    """
    return _dyadic_table(domain, (int(band[0]), int(band[1])), profile)


# Bounded: one entry per (domain, band, profile) a run touches, usually a few.
@lru_cache(maxsize=32)
def _dyadic_table(domain: DomainSpec, band: tuple[int, int], profile: DyadicProfile) -> DyadicTable:
    s = np.sqrt(lambda_table(domain, band))
    js = j_range(domain, band)
    weights = np.stack([_block_weights(s, j, profile) for j in js])
    if not np.all(np.isfinite(weights)):
        raise FloatingPointError("multiplier produced non-finite values")
    live = np.any(weights != 0.0, axis=(1, 2))
    weights.setflags(write=False)
    live.setflags(write=False)
    return DyadicTable(js, weights, live)


def is_live_block(domain: DomainSpec, band: tuple[int, int], j: int, profile: DyadicProfile) -> bool:
    """Whether row j of ``dyadic_table(domain, band, profile)`` exists and is
    not identically zero.

    Evaluates that one row, so that checking a config does not build and
    cache a whole table (1.4 MB at 128x128 modes) for runs that never take
    a dyadic block.
    """
    if j not in j_range(domain, band):
        return False
    return bool(np.any(_block_weights(np.sqrt(lambda_table(domain, band)), j, profile) != 0.0))


def dyadic_block(field: SpectralField, j: int, profile: DyadicProfile) -> SpectralField:
    """Frequency block phi(2^-j sqrt(lambda)) applied to the field.

    The weights are row j of the shared ``dyadic_table``.  Outside
    ``j_range`` the block is the zero field: there 2^-j sqrt(lambda) is at
    least 2 (j below the range) or at most 1/2 (above it) on the whole
    band, where phi vanishes.
    """
    if field.parity != "SS":
        raise ValueError("spectral multipliers act on SS fields only")
    table = dyadic_table(field.domain, field.band, profile)
    if j not in table.js:
        return SpectralField(field.domain, "SS", np.zeros_like(field.coefficients))
    return SpectralField(field.domain, "SS", field.coefficients * table.weights[j - table.js.start])


def dyadic_blocks(field: SpectralField, profile: DyadicProfile) -> tuple[list[int], SpectralField]:
    """(js, blocks): the live rows of ``dyadic_table`` in ascending order,
    and one stacked field whose row i is ``dyadic_block(field, js[i],
    profile)``, bit for bit.  Every other block is zero."""
    if field.parity != "SS":
        raise ValueError("spectral multipliers act on SS fields only")
    table = dyadic_table(field.domain, field.band, profile)
    js = [j for j, live in zip(table.js, table.live) if live]
    blocks = field.coefficients[..., None, :, :] * table.weights[table.live]
    return js, SpectralField(field.domain, "SS", blocks)


# The named multipliers: weights as functions of sqrt(lambda) and a parameter.
_WEIGHTS = {
    "heat": lambda s, t: np.exp(-t * s * s),
    "power": lambda s, a: s**a,
    "resolvent": lambda s, mu: 1.0 / (1.0 + mu * s * s),
}


def multiplier_table(domain: DomainSpec, band: tuple[int, int], kind: str, parameter: float) -> np.ndarray:
    """Read-only weights over the sine ``band``, built and checked once per
    (domain, band, kind, parameter): exp(-t lambda) for "heat", lambda^{a/2}
    for "power", 1/(1 + mu lambda) for "resolvent".  A non-finite entry,
    overflow included, raises ``FloatingPointError``."""
    if kind not in _WEIGHTS:
        raise ValueError(f"multiplier kind must be one of {tuple(_WEIGHTS)}")
    return _multiplier_table(domain, (int(band[0]), int(band[1])), kind, float(parameter))


# Sized from the default config's traffic: 8 entries hold every table a
# subcommand's runs step with (5 in verify-uniqueness) and the resolvent two
# fields share at one mu.  The other keys recur in cycles that 64 entries
# would not hold either (~200 Duhamel snapshot times, one per quadrature
# node), or would save < 1 ms (44 of 113 heat tables in verify-multipliers).
@lru_cache(maxsize=8)
def _multiplier_table(domain: DomainSpec, band: tuple[int, int], kind: str, parameter: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports them
        tab = _WEIGHTS[kind](np.sqrt(lambda_table(domain, band)), parameter)
    if not np.all(np.isfinite(tab)):
        raise FloatingPointError("multiplier produced non-finite values")
    tab.setflags(write=False)
    return tab


def apply_multiplier(field: SpectralField, kind: str, parameter: float) -> SpectralField:
    """Scale an SS field by ``multiplier_table(domain, band, kind, parameter)``."""
    if field.parity != "SS":
        raise ValueError("spectral multipliers act on SS fields only")
    weights = multiplier_table(field.domain, field.band, kind, parameter)
    return SpectralField(field.domain, "SS", field.coefficients * weights)


def heat_semigroup(field: SpectralField, t: float) -> SpectralField:
    """e^{t Delta} via weights exp(-t lambda); t must be nonnegative."""
    if t < 0:
        raise ValueError("heat semigroup requires t >= 0")
    return apply_multiplier(field, "heat", t)


def fractional_power(field: SpectralField, s: float) -> SpectralField:
    """Lambda^s via weights lambda^{s/2}; any real s, the spectrum is positive."""
    return apply_multiplier(field, "power", s)


def resolvent(field: SpectralField, mu: float) -> SpectralField:
    """(1 - mu Delta)^{-1} via weights 1/(1 + mu lambda); mu must be >= 0."""
    if mu < 0:
        raise ValueError("resolvent parameter must be nonnegative")
    return apply_multiplier(field, "resolvent", mu)


@dataclass(frozen=True)
class QuadratureSpec:
    """Log-spaced composite Gauss-Legendre rule for the mu integral."""

    nodes_per_decade: int = 32
    mu_min: float = 1e-8
    mu_max: float = 1e8

    def __post_init__(self):
        if self.nodes_per_decade < 4:
            raise ValueError("need at least 4 quadrature nodes per decade")
        if not (0 < self.mu_min < self.mu_max):
            raise ValueError("require 0 < mu_min < mu_max")


_GL_ORDER = 4


def quadrature_nodes(spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights with the dmu Jacobian folded in: sum w F(mu) ~ int F."""
    n_decades = math.log10(spec.mu_max / spec.mu_min)
    n_panels = max(1, math.ceil(n_decades * spec.nodes_per_decade / _GL_ORDER))
    edges = np.linspace(math.log(spec.mu_min), math.log(spec.mu_max), n_panels + 1)
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    t = (half[:, None] * x[None, :] + mid[:, None]).ravel()
    wt = (half[:, None] * w[None, :]).ravel()
    mu = np.exp(t)
    return mu, wt * mu


def sqrt_via_resolvent(
    field: SpectralField, spec: QuadratureSpec | None = None
) -> tuple[SpectralField, float]:
    """Lambda f by resolvent quadrature; returns (result, relative truncation bound).

    The quadrature covers [mu_min, mu_max]; the omitted ends are added in
    closed form from the series of the integrand, head
    c0 (2 sqrt(mu_min) lam - (2/3) mu_min^{3/2} lam^2) and tail
    c0 (2 / sqrt(mu_max) - (2/3) mu_max^{-3/2} / lam), valid when
    lam_max mu_min < 1 < lam_min mu_max.  The reported bound is the first
    omitted series term, relative to sqrt(lam); it is inf when the bracket
    fails to straddle the spectrum, in which case the caller should widen it.
    """
    if field.parity != "SS":
        raise ValueError("spectral multipliers act on SS fields only")
    if spec is None:
        spec = QuadratureSpec()
    lam = lambda_table(field)
    mu, w = quadrature_nodes(spec)
    # sum_k w_k mu_k^{-1/2} lam/(1 + mu_k lam), accumulated node by node: a
    # modes-by-nodes temporary would dwarf the coefficient array for wide brackets.
    table = np.zeros_like(lam)
    for k in range(mu.shape[0]):
        table += (w[k] * mu[k] ** -0.5) * (lam / (1.0 + mu[k] * lam))
    vals = C0 * table
    vals = vals + C0 * (2.0 * math.sqrt(spec.mu_min) * lam - (2.0 / 3.0) * spec.mu_min**1.5 * lam**2)
    vals = vals + C0 * (2.0 / math.sqrt(spec.mu_max) - (2.0 / 3.0) * spec.mu_max**-1.5 / lam)
    out = SpectralField(field.domain, "SS", field.coefficients * vals)
    lam_min, lam_max = float(lam.min()), float(lam.max())
    if lam_max * spec.mu_min < 1.0 < lam_min * spec.mu_max:
        bound = (2.0 / (5.0 * math.pi)) * (
            (lam_max * spec.mu_min) ** 2.5 + (lam_min * spec.mu_max) ** -2.5
        )
    else:
        bound = math.inf
    return out, float(bound)
