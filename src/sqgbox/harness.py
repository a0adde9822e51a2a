"""Numerical verification harness for the spectral estimates.

Ratio batteries and identity checks exercised here:

* bilinear product bound: Besov norm of the symmetrized product
  (grad Lambda^{-1} f) g + f grad Lambda^{-1} g against the two-sided
  Hoelder/Besov right side, over seeded random samples;
* paraproduct-style decomposition of fg into ordered dyadic half sums;
* second-derivative rewriting of (Lambda F) grad G - F grad(Lambda G) as a
  resolvent quadrature, checked against direct spectral evaluation; the
  quadrature is summed on the product grid and transformed once per call;
* heat/block smoothing and Bernstein ratios for multiplier bounds;
* Duhamel-difference growth, initial-data smallness curves, and twin-run
  uniqueness refinement for the SQG integrator (``twin_distances`` pairs
  the snapshots of two ``twin_run`` runs, so a run shared by two pairs is
  stepped once).

Samples are deterministic in (seed, index); reports carry per-sample ratios
plus refinement-stability flags so distribution maxima can be compared
across grid refinement.  The battery takes each field's block norms only at
the exponents it reads (the Hoelder targets for the product components, p1
for the factors), stacks every table over the samples, and aggregates it
with one ``besov_aggregate`` call per (s, p, q, field, grid).

The Duhamel supremum is a branch and bound over the whole run
(``DuhamelSupremum``), fed by ``duhamel_ensemble`` as ``solver.integrate``
steps a stacked ensemble.  Each block of theta(t) - e^{t Delta} theta0 gets
coefficient-space upper and lower bounds on its grid L^p norm from one
Parseval sum and one sum |c| (``_block_bounds``), with round-off margins
1 +- 1e-9.  Blocks whose weighted upper bound reaches the member's largest
lower bound are kept in the member's own list, cropped to their support
box, and synthesized for their exact norm only when the supremum is read:
largest bound first, so a block whose bound the supremum has passed is
never synthesized, and the reported supremum keeps every bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .besov import BesovParams, besov_aggregate, block_lp_norms, block_scales
from .domain import (
    DomainSpec,
    GridField,
    SpectralField,
    analyze,
    dealias_grid,
    full_band,
    lambda_table,
    laplacian,
    lp_norm,
    normalised,
    partial_derivative,
    pointwise_product,
    product_parity,
    spectral_norm,
    synthesize,
    synthesize_gradient,
    _over_square,
)
from .multipliers import (
    C0,
    DyadicProfile,
    QuadratureSpec,
    dyadic_block,
    dyadic_blocks,
    dyadic_table,
    fractional_power,
    heat_semigroup,
    quadrature_nodes,
    resolvent,
)
from .solver import SolverConfig, integrate


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic random-field family: signed uniform coefficients damped
    by lambda^{-decay/2}, reproducible from (seed, index)."""

    mode_count: int = 32
    decay: float = 1.0
    seed: int = 1234
    count: int = 100

    def __post_init__(self):
        if self.mode_count < 1:
            raise ValueError("mode count must be positive")
        if self.decay < 0:
            raise ValueError("decay must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.count < 1:
            raise ValueError("sample count must be positive")


def sample_field(spec: SampleSpec, domain: DomainSpec, index: int) -> SpectralField:
    rng = np.random.default_rng([spec.seed, index])
    coeff = rng.uniform(-1.0, 1.0, (spec.mode_count, spec.mode_count))
    lam = lambda_table(domain, (spec.mode_count, spec.mode_count))
    coeff = coeff * lam ** (-spec.decay / 2.0)
    if not np.any(coeff):
        raise ValueError("degenerate sample draw")
    return SpectralField(domain, "SS", coeff)


def single_block_sample(
    spec: SampleSpec, domain: DomainSpec, index: int, j: int, profile: DyadicProfile
) -> SpectralField:
    """A sample restricted to the j-th dyadic shell (may be zero if empty)."""
    return dyadic_block(sample_field(spec, domain, index), j, profile)


@dataclass
class EstimateReport:
    params: dict
    ratios: list
    max_ratio: float
    mean_ratio: float
    refined_max_ratio: float
    stable: bool
    details: dict = dataclass_field(default_factory=dict)


def holder_target(p1: float, p2: float) -> float:
    """p with 1/p = 1/p1 + 1/p2."""
    return 1.0 / (1.0 / p1 + 1.0 / p2)


def _validate_bilinear_params(s, p, p1, p2, p3, p4) -> None:
    if not (-1.0 < s < 2.0):
        raise ValueError("regularity index must lie in (-1, 2)")
    inv = lambda x: 0.0 if math.isinf(x) else 1.0 / x
    if abs(inv(p) - inv(p1) - inv(p2)) > 1e-9 or abs(inv(p) - inv(p3) - inv(p4)) > 1e-9:
        raise ValueError("integrability indices must satisfy the Hoelder relations")
    if not (1.0 < p2 and not math.isinf(p2) and 1.0 < p3 and not math.isinf(p3)):
        raise ValueError("interior exponents p2, p3 must lie in (1, inf)")


def symmetrized_product(f: SpectralField, g: SpectralField) -> tuple[SpectralField, SpectralField]:
    """SS projections of the components of (grad Lambda^{-1} f) g
    + f grad Lambda^{-1} g at the common band of f and g."""
    if f.domain != g.domain:
        raise ValueError("fields live on different domains")
    if f.band != g.band:
        raise ValueError("fields must share a band")
    band = f.band
    grid = dealias_grid(band)
    # both components on a leading axis of length 2
    vals = (
        synthesize_gradient(fractional_power(f, -1.0), grid) * synthesize(g, grid).values
        + synthesize(f, grid).values * synthesize_gradient(fractional_power(g, -1.0), grid)
    )
    T1, T2 = analyze(GridField(f.domain, vals), "SS", modes=band).coefficients
    return SpectralField(f.domain, "SS", T1), SpectralField(f.domain, "SS", T2)


DEFAULT_BATTERY = {
    "s": [-0.5, 0.0, 0.5, 1.0, 1.5],
    "q": [1.0, 2.0, math.inf],
    "pairs": [(2.0, 2.0), (3.0, 6.0), (6.0, 3.0)],
    "probe_s": [-0.9, 1.9],
}


def bilinear_battery(
    domain: DomainSpec,
    refined_domain: DomainSpec,
    sample_spec: SampleSpec,
    battery: dict | None = None,
    profile: DyadicProfile | None = None,
) -> list[EstimateReport]:
    """Full tuple battery over seeded sample pairs on the ``normalised`` domain.

    For each tuple (s, (p1, p2), q) the target p comes from the Hoelder
    relation and (p3, p4) = (p2, p1).  Ratios are evaluated on the base
    domain grid and again on the refined grid; the stability flag records
    whether the distribution maximum grew by less than a factor 2.
    Degeneracy probes from ``probe_s`` are reported with probe=True.
    """
    if battery is None:
        battery = DEFAULT_BATTERY
    if profile is None:
        profile = DyadicProfile()
    grids = [(domain.N1, domain.N2), (refined_domain.N1, refined_domain.N2)]
    domain = normalised(domain)[0]
    pairs = [tuple(map(float, pr)) for pr in battery["pairs"]]
    s_values = [(float(s), False) for s in battery["s"]]
    s_values += [(float(s), True) for s in battery.get("probe_s", [])]
    q_values = [float(q) for q in battery["q"]]

    # Each field is read at its own exponents only: T1, T2 at the Hoelder
    # targets p; f and g in Besov norm at p1 (= p4) and in L^p at p2 (= p3).
    target_ps = sorted({holder_target(p1, p2) for p1, p2 in pairs})
    factor_ps = sorted({p1 for p1, _ in pairs})
    plain_ps = sorted({p2 for _, p2 in pairs})

    # every table stacked over the samples, filled as each sample is taken:
    # (count, len(js)) block norms, (count,) L^p norms
    stacked = {}

    def put(key, i, value):
        if key not in stacked:
            stacked[key] = np.empty((sample_spec.count, *np.shape(value)))
        stacked[key][i] = value

    for i in range(sample_spec.count):
        f = sample_field(sample_spec, domain, 2 * i)
        g = sample_field(sample_spec, domain, 2 * i + 1)
        T1, T2 = symmetrized_product(f, g)
        for name, fld, ps in (("f", f, factor_ps), ("g", g, factor_ps), ("T1", T1, target_ps), ("T2", T2, target_ps)):
            js, table = block_lp_norms(fld, profile, grids, ps)  # the four fields share the sample band
            for (gi, p), bn in table.items():
                put((name, gi, p), i, bn)
        for gi, grid in enumerate(grids):
            gf = synthesize(f, grid)
            gg = synthesize(g, grid)
            for p in plain_ps:
                put(("lp_f", gi, p), i, lp_norm(gf, p))
                put(("lp_g", gi, p), i, lp_norm(gg, p))

    def besov(name, gi, s, p, q):
        return besov_aggregate(js, stacked[(name, gi, p)], s, q)[0]

    reports = []
    for s, probe in s_values:
        for p1, p2 in pairs:
            p = holder_target(p1, p2)
            p3, p4 = p2, p1
            _validate_bilinear_params(s, p, p1, p2, p3, p4)
            for q in q_values:
                ratios = {}
                for gi in (0, 1):
                    columns = (
                        besov("T1", gi, s, p, q), besov("T2", gi, s, p, q), besov("f", gi, s, p1, q),
                        stacked[("lp_g", gi, p2)], stacked[("lp_f", gi, p3)], besov("g", gi, s, p4, q),
                    )
                    ratios[gi] = []
                    for t1, t2, bf, lg, lf, bg in zip(*(c.tolist() for c in columns)):  # Python floats
                        lhs, rhs = math.hypot(t1, t2), bf * lg + lf * bg
                        ratios[gi].append(lhs / rhs if rhs > 0 else math.nan)
                base = np.asarray(ratios[0])
                refined = np.asarray(ratios[1])
                reports.append(
                    EstimateReport(
                        params={"s": s, "p": p, "p1": p1, "p2": p2, "p3": p3, "p4": p4, "q": q},
                        ratios=[float(r) for r in base],
                        max_ratio=float(base.max()),
                        mean_ratio=float(base.mean()),
                        refined_max_ratio=float(refined.max()),
                        stable=bool(refined.max() <= 2.0 * base.max()),
                        details={"probe": probe, "samples": sample_spec.count},
                    )
                )
    return reports


def verify_product_decomposition(
    f: SpectralField,
    g: SpectralField,
    profile: DyadicProfile | None = None,
) -> float:
    """Relative L2 defect of fg against the ordered dyadic half sums
    sum_k sum_{l<=k} f_k g_l + sum_l sum_{k<l} f_k g_l on the product grid."""
    if profile is None:
        profile = DyadicProfile()
    if f.domain != g.domain:
        raise ValueError("fields live on different domains")
    band = (max(f.band[0], g.band[0]), max(f.band[1], g.band[1]))
    grid = dealias_grid(band)
    fg = pointwise_product(f, g, grid)
    # The bands may differ: align the live blocks of f and g by j.
    js_f, blocks_f = dyadic_blocks(f, profile)
    js_g, blocks_g = dyadic_blocks(g, profile)
    bf = dict(zip(js_f, synthesize(blocks_f, grid).values))
    bg = dict(zip(js_g, synthesize(blocks_g, grid).values))
    acc = np.zeros_like(fg.values)
    cum_g = np.zeros_like(acc)
    cum_f_strict = np.zeros_like(acc)
    for j in sorted(bf.keys() | bg.keys()):  # ascending: cum_g holds sum_{l<=k}, cum_f_strict sum_{k<l}
        fj, gj = bf.get(j, 0.0), bg.get(j, 0.0)  # a zero block adds nothing
        cum_g += gj
        acc += fj * cum_g
        acc += gj * cum_f_strict
        cum_f_strict += fj
    denom = lp_norm(fg, 2)
    if denom == 0:
        raise ValueError("product decomposition undefined for zero product")
    return lp_norm(GridField(f.domain, acc - fg.values), 2) / denom


def adapted_quadrature(
    lam_min: float, lam_max: float, nodes_per_decade: int = 32
) -> QuadratureSpec:
    """Bracket wide enough that the structure-identity truncation floor is
    below 1e-9 across the given spectral range."""
    return QuadratureSpec(nodes_per_decade, 2.5e-19 / lam_max, 4e18 / lam_min)


def verify_derivative_structure(
    f: SpectralField,
    g: SpectralField,
    qspec: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """Residual of the commutator-type identity

      (Lambda F) grad G - F grad(Lambda G)
        = c0 int mu^{-3/2} [ mu Delta(A B_c) - 2 mu sum_m d_m((d_m A) B_c) ] dmu

    with F = Lambda^{-1} f, G = Lambda^{-1} g, A = (1-mu Delta)^{-1} F and
    B_c = d_c (1-mu Delta)^{-1} G, for f and g of one band.  The left side
    is evaluated directly on the product grid.  F and G go through the mu
    quadrature as one two-member stack: one resolvent table and one
    ``synthesize_gradient`` per node give d_m A and B_c, each member with
    the bits it gets alone.  The right side sums the grid products A B_c
    and (d_m A) B_c there, and analyzes each of the six sums once at the
    full product band (exact for band-limited states) before Delta or d_m
    applies: both steps are linear.  Returns the relative L2 residual over
    both components and the relative truncation bound of the quadrature
    bracket; raises ValueError when f or g is zero.
    """
    if f.domain != g.domain:
        raise ValueError("fields live on different domains")
    if f.band != g.band:
        raise ValueError("fields must share a band")
    lam = lambda_table(f)
    lam_min, lam_max = float(lam.min()), float(lam.max())
    if qspec is None:
        qspec = adapted_quadrature(lam_min, lam_max)
    grid = dealias_grid(f.band)
    FG = fractional_power(SpectralField(f.domain, "SS", np.stack((f.coefficients, g.coefficients))), -1.0)
    F, G = (SpectralField(f.domain, "SS", c) for c in FG.coefficients)
    norms = lambda vals: lp_norm(GridField(f.domain, vals), 2)  # one per component

    # both components on a leading axis of length 2
    t1 = synthesize(f, grid).values * synthesize_gradient(G, grid)
    t2 = synthesize(F, grid).values * synthesize_gradient(g, grid)
    lhs = t1 - t2
    fallback = math.hypot(*(norms(t1) + norms(t2)))
    if fallback == 0:
        raise ValueError("derivative structure undefined for a zero field")

    # sums[0, c] accumulates coeff A B_c and sums[m, c] coeff (d_m A) B_c
    mu_nodes, weights = quadrature_nodes(qspec)
    sums = np.zeros((3, *lhs.shape))
    products = np.empty_like(sums)  # reused: a fresh one per node re-faults its pages
    for mu, w in zip(mu_nodes, weights):
        AB = resolvent(FG, mu)  # (A, (1-mu Delta)^{-1} G)
        dA, B = synthesize_gradient(AB, grid).swapaxes(0, 1)  # d_m A and B_c, on a leading axis of 2
        coeff = C0 * w * mu**-0.5  # mu^{-3/2} * mu from both identity terms
        A = SpectralField(f.domain, "SS", AB.coefficients[0])
        factors = np.concatenate(([synthesize(A, grid).values], dA))
        sums += np.multiply((coeff * factors)[:, None], B, out=products)
    rhs = np.zeros_like(lhs)
    grad_parity = ("CS", "SC")  # of d1 and d2 of an SS field
    for k, pa in enumerate(("SS", *grad_parity)):  # A, d1 A, d2 A
        for c, pb in enumerate(grad_parity):
            parity = product_parity(pa, pb)
            S = analyze(GridField(f.domain, sums[k, c]), parity, modes=full_band(grid, parity))
            term = laplacian(S) if k == 0 else partial_derivative(S, k) * -2.0
            rhs[c] += synthesize(term, grid).values

    num = math.hypot(*norms(lhs - rhs))
    lhs_scale = math.hypot(*norms(lhs))
    denom = lhs_scale if lhs_scale > 1e-12 * fallback else fallback
    head = (4.0 / math.pi) * math.sqrt(qspec.mu_min * lam_max)
    tail = (4.0 / (3.0 * math.pi)) * (lam_min * qspec.mu_max) ** -1.5
    return num / denom, head + tail


# Relative margins of ``_block_bounds`` over the round-off of the grid norms
# it bounds, and the most coefficients the Duhamel reducer holds in pending
# blocks before it drops those it has passed and, if still over, takes their
# exact norms (512 kB; the default verify-duhamel holds at most 14,400).
_BOUND_MARGIN = 1.0 + 1e-9
_LOWER_MARGIN = 1.0 - 1e-9
_PENDING_CAP = 1 << 16


def _block_bounds(
    c: np.ndarray, area: float, p: float, tables: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(upper, lower) bounds U[k, j], L[k, j] on the grid L^p norm of the
    block with coefficients ``c[k] * weights[j]``, from one Parseval sum and
    one sum |c| per block.  ``c`` holds flattened coefficient rows (K, b1*b2)
    of a domain of area ``area`` = L1*L2, and ``tables`` = (|w|^T, (w*w)^T)
    the flattened weights, one column per block.

    Valid on any grid that resolves the band.  With ||.||_2^2 the Parseval
    sum, which equals the grid L2 norm squared for modes <= N, sum |c| >= max|.|
    and |Omega| above the grid's measure:
      upper, p <= 2:  |Omega|^{1/p - 1/2} ||.||_2   (Hoelder on a measure < |Omega|),
      upper, p >= 2:  (sum |c|)^{1 - 2/p} ||.||_2^{2/p},
      lower, p < 2:   (||.||_2^2 / (sum |c|)^{2-p})^{1/p}   (||.||_2^2 <= max^{2-p} ||.||_p^p),
      lower, p >= 2:  |Omega|^{1/p - 1/2} ||.||_2,
    times 1 + 1e-9 and 1 - 1e-9.  Where a sum or a bound leaves the normal
    float range (coefficients below ~1e-154 or above ~1e154), its squares
    underflowed or overflowed and it shows nothing: the upper bound is then
    inf, and the lower 0.  The upper bound is 0 only for a zero block.
    """
    w_t, w2_t = tables
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # masked below
        squares = (c * c) @ w2_t
        l1 = np.abs(c) @ w_t
        parseval = (area / 4.0) * squares
        l2 = np.sqrt(parseval)
        hoelder = area ** (1.0 / p - 0.5) * l2
        upper = hoelder if p <= 2 else l1 ** (1.0 - 2.0 / p) * l2 ** (2.0 / p)
        if p < 2:
            power = parseval / l1 ** (2.0 - p)  # bounds ||.||_p^p from below
            lower = power ** (1.0 / p)
        else:
            power = lower = hoelder
    fit = (np.minimum(np.minimum(squares, parseval), np.minimum(power, upper)) >= sys.float_info.min) & (
        upper < math.inf
    )
    if fit.all():
        return upper * _BOUND_MARGIN, lower * _LOWER_MARGIN
    zero = ~(l1 > 0)  # every |c w| rounded to 0: the block's coefficients are zero too
    upper = np.where(fit, upper * _BOUND_MARGIN, np.where(zero, 0.0, math.inf))
    return upper, np.where(fit, lower * _LOWER_MARGIN, 0.0)


def _support_box(weights: np.ndarray) -> tuple[slice, slice]:
    """The smallest index box outside which ``weights`` vanishes."""
    rows = np.flatnonzero(weights.any(axis=1))
    cols = np.flatnonzero(weights.any(axis=0))
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


class DuhamelSupremum:
    """sup_t ||theta(t) - e^{t Delta} theta0||_{B^{-1+2/p}_{p,inf}} of every
    member of a (possibly stacked) ``theta0``, fed one state at a time by
    ``add``; ``numerator`` holds the suprema over the stack axes.

    A branch and bound over the whole run.  ``add`` takes the state's
    difference from ``heat_semigroup(theta0, t)``, which builds a heat table
    for that t alone, splits it into its dyadic blocks and takes 2^{js}
    times both ``_block_bounds`` of each.  A member's floor rises to the
    largest lower bound seen, and only a nonzero block whose upper bound
    reaches max(floor, best), best being the member's largest exact value so
    far, is kept in the member's pending list: its bound, its row and its
    weighted coefficients, cropped to its row's support box.  When the
    pending coefficients pass ``_PENDING_CAP``, the blocks whose bound has
    fallen below their member's max(floor, best) are dropped.  Exact norms are
    taken only when ``numerator`` or ``evaluated`` is read, or when the
    store is still over the cap: each member's blocks in decreasing
    upper-bound order, each padded back to the full band so that its
    ``synthesize`` and ``lp_norm`` keep the bits of a full evaluation.  A
    block whose bound has fallen below its member's best is skipped.  Every
    dropped block lies below an exact value, so the supremum keeps every
    bit; without a cap flush, ``evaluated`` (the exact block norms taken) is
    the count of blocks whose upper bound reaches their member's final
    supremum.
    """

    def __init__(self, theta0: SpectralField, p: float, profile: DyadicProfile | None = None):
        if profile is None:
            profile = DyadicProfile()
        self.params = BesovParams(-1.0 + 2.0 / p, p, math.inf)
        self.theta0 = theta0
        table = dyadic_table(theta0.domain, theta0.band, profile)
        self._weights = table.weights[table.live]
        w = np.abs(self._weights).reshape(len(self._weights), -1)
        self._tables = (w.T, (w * w).T)  # the right factors of ``_block_bounds``, built once
        self._area = theta0.domain.L1 * theta0.domain.L2
        self._boxes = [_support_box(w) for w in self._weights]
        self._scale = block_scales(table.js, self.params.s)[table.live]
        self._shape = theta0.coefficients.shape[:-2]
        self._best = np.zeros(math.prod(self._shape))
        self._floor = np.zeros_like(self._best)
        self._evaluated = 0
        self._pending = [[] for _ in self._best]  # per member: (upper bound, row, cropped coefficients)
        self._pending_size = 0  # coefficients held

    @property
    def numerator(self) -> np.ndarray:
        self._flush()
        return self._best.reshape(self._shape).copy()

    @property
    def evaluated(self) -> int:
        self._flush()
        return self._evaluated

    def add(self, t: float, state: SpectralField) -> None:
        diff = state.coefficients - heat_semigroup(self.theta0, t).coefficients
        diff = diff.reshape((-1,) + diff.shape[-2:])
        upper, lower = _block_bounds(diff.reshape(len(diff), -1), self._area, self.params.p, self._tables)
        upper *= self._scale
        lower *= self._scale
        np.maximum(self._floor, lower.max(axis=1), out=self._floor)
        keep = (upper >= np.maximum(self._floor, self._best)[:, None]) & (upper > 0)
        for r in np.flatnonzero(keep.any(axis=0)).tolist():
            members = np.flatnonzero(keep[:, r])
            rows, cols = self._boxes[r]
            crop = diff[members, rows, cols] * self._weights[r, rows, cols]
            for m, u, c in zip(members.tolist(), upper[members, r].tolist(), crop):
                self._pending[m].append((u, r, c))
            self._pending_size += crop.size
        if self._pending_size > _PENDING_CAP:
            self._prune()
        if self._pending_size > _PENDING_CAP:
            self._flush()

    def _prune(self) -> None:
        """Drop the pending blocks whose upper bound lies below their
        member's max(floor, best); their exact norms cannot reach it.  A
        kept crop is copied out of the array ``add`` stacked it in, so that
        array is freed with the blocks dropped from it."""
        bar = np.maximum(self._floor, self._best).tolist()
        self._pending = [[(u, r, c.copy()) for u, r, c in held if u >= b] for held, b in zip(self._pending, bar)]
        self._pending_size = sum(block[2].size for held in self._pending for block in held)

    def _flush(self) -> None:
        """Take the exact norms the pending blocks still need; empty the store.

        Each member's blocks go in decreasing upper-bound order.  A round
        synthesizes the next block of every member still running; a member
        is done once its next bound falls below its best, since all its
        later bounds are lower still.
        """
        queues, self._pending, self._pending_size = self._pending, [[] for _ in self._best], 0
        for queue in queues:
            queue.sort(key=lambda block: block[0])  # increasing: the next block is last
        running = range(len(queues))
        while running := [m for m in running if queues[m] and queues[m][-1][0] >= self._best[m]]:
            self._evaluate([queues[m].pop() for m in running], running)

    def _evaluate(self, blocks: list, members: list) -> None:
        """Exact weighted norms of ``blocks`` = [(bound, row, crop)], one per member."""
        coeffs = np.zeros((len(blocks), *self._weights.shape[-2:]))
        for c, (_, r, crop) in zip(coeffs, blocks):
            c[self._boxes[r]] = crop
        scale = self._scale[[r for _, r, _ in blocks]]
        terms = scale * lp_norm(synthesize(SpectralField(self.theta0.domain, "SS", coeffs)), self.params.p)
        self._evaluated += len(blocks)
        self._best[members] = np.fmax(self._best[members], terms)  # a nan block never raises it


def _duhamel_ratio(numerator: float, sup_l2: float) -> float:
    return math.nan if sup_l2 == 0.0 else _over_square(numerator, sup_l2)


def duhamel_ensemble(
    theta0: SpectralField, config: SolverConfig, p: float, profile: DyadicProfile | None = None
) -> list[float]:
    """sup_t ||theta(t) - e^{t Delta} theta0||_{B^{-1+2/p}_{p,inf}} divided by
    (sup_t ||theta(t)||_2)^2 for every member of the stacked ``theta0`` (flat
    stack order), nan for a member that is identically zero.  The numerator
    is taken over the snapshot times of ``config``, the L2 supremum over
    every step: one ``integrate`` run steps the stack and feeds
    ``DuhamelSupremum`` as it goes, so no trajectory is stored, and each
    member keeps the bits it gets alone."""
    sup = DuhamelSupremum(theta0, p, profile)
    sup_l2 = None
    for k, state, _, l2 in integrate(theta0, config):
        sup_l2 = l2 if sup_l2 is None else np.maximum(sup_l2, l2)
        if config.snapshot_due(k):
            sup.add(k * config.dt, state)
    return [_duhamel_ratio(float(n), float(l2)) for n, l2 in zip(np.ravel(sup.numerator), np.ravel(sup_l2))]


def verify_initial_smallness(theta0: SpectralField, p: float, t_grid) -> np.ndarray:
    """Curve t^{1/2 - 1/(2p)} ||e^{t Delta} theta0||_{L^{2p}} on a t grid
    decreasing toward 0; returns an array of (t, value) rows."""
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise ValueError("need a one-dimensional t grid with at least two points")
    if np.any(t_grid <= 0) or np.any(np.diff(t_grid) >= 0):
        raise ValueError("t grid must be positive and strictly decreasing toward 0")
    expo = 0.5 - 1.0 / (2.0 * p)
    rows = np.empty((t_grid.size, 2))
    for i, t in enumerate(t_grid):
        val = (t**expo) * lp_norm(synthesize(heat_semigroup(theta0, float(t))), 2.0 * p)
        rows[i] = (t, val)
    return rows


def twin_run(theta0: SpectralField, config: SolverConfig) -> tuple[np.ndarray, list[SpectralField]]:
    """(times, states): the snapshot times of one run and its states there,
    taken straight from ``integrate``, with no trajectory record and no
    per-step diagnostics."""
    times, states = [], []
    for k, state, _, _ in integrate(theta0, config):
        if config.snapshot_due(k):
            times.append(k * config.dt)
            states.append(state)
    return np.asarray(times), states


def twin_distances(
    run_a: tuple[np.ndarray, list[SpectralField]], run_b: tuple[np.ndarray, list[SpectralField]]
) -> tuple[np.ndarray, np.ndarray]:
    """Exact L2 distance between two runs' ``(times, states)`` at their
    common snapshot times."""
    (times_a, states_a), (times_b, states_b) = run_a, run_b
    times, dists = [], []
    for t, state in zip(times_a, states_a):
        hits = np.nonzero(np.isclose(times_b, t, rtol=0.0, atol=1e-10))[0]
        if hits.size == 0:
            continue
        times.append(float(t))
        dists.append(spectral_norm(state - states_b[int(hits[0])]))
    return np.asarray(times), np.asarray(dists)


def uniqueness_experiment(
    theta0: SpectralField, config_a: SolverConfig, config_b: SolverConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Twin runs from identical data; exact L2 distance at common snapshot times."""
    return twin_distances(twin_run(theta0, config_a), twin_run(theta0, config_b))


# gx^2 + gy^2 neither overflows nor loses more than 2^-56 max|grad f| to a
# subnormal square when its maximum over a field lies in this range
_SQUARE_SUM_RANGE = (2.0**-959, 2.0**1000)


def gradient_magnitude(field: SpectralField, grid: tuple[int, int] | None = None) -> GridField:
    """|grad f| on the grid as sqrt(gx*gx + gy*gy), field by field for a
    stack; np.hypot for a field whose largest square sum lies outside
    ``_SQUARE_SUM_RANGE`` (max(|gx|, |gy|) outside about [2^-480, 2^500])
    or is not finite, where the squares could overflow or underflow."""
    gx, gy = synthesize_gradient(field, grid)
    # squared in place: fresh 128 kB temporaries per 128 x 128 field cost
    # more than the arithmetic
    with np.errstate(over="ignore"):  # an overflowing square goes to np.hypot
        out = np.multiply(gx, gx, out=gx)
        out += np.multiply(gy, gy, out=gy)
    top = out.max(axis=(-2, -1))
    lo, hi = _SQUARE_SUM_RANGE
    far = ~((lo <= top) & (top <= hi))
    np.sqrt(out, out=out)
    if far.any():  # the squares overwrote the gradient: synthesize it again
        gx, gy = synthesize_gradient(field, grid)
        out[far] = np.hypot(gx[far], gy[far])
    return GridField(field.domain, out)


_BERNSTEIN_PS = (1.0, 2.0, math.inf)


def _grid_label(grid: tuple[int, int]) -> str:
    """Report key of a grid: "64x64"."""
    return f"{grid[0]}x{grid[1]}"


def multiplier_bound_study(
    domain: DomainSpec,
    sample_spec: SampleSpec,
    profile: DyadicProfile | None = None,
    *,
    grids: list[tuple[int, int]],
) -> dict:
    """Maxima of block and block-gradient Bernstein ratios per exponent p in
    (1, 2, inf) and grid of ``grids``, plus the (2, inf) smoothing pair
    ||phi_j f||_inf / (2^j ||f||_2).

    Each sample's live blocks are one ``dyadic_blocks`` stack.  On each
    grid one ``synthesize`` of it takes the block norms, and then, with that
    grid stack freed, one ``gradient_magnitude`` of it takes the gradient
    norms: one stacked ``lp_norm`` per exponent each.  Every member keeps
    the bits it gets alone; the maxima are then kept block by block in
    ascending j, on the ``normalised`` domain (the ratios are dilation-invariant)."""
    if profile is None:
        profile = DyadicProfile()
    domain = normalised(domain)[0]
    report = {"block_ratio": {}, "gradient_ratio": {}, "smoothing_2_inf": {}}

    def keep(maxima, label, val):  # a nan sticks: max() returns a nan first argument, and drops a nan second one
        maxima[label] = val if math.isnan(val) else max(maxima.get(label, 0.0), val)

    for i in range(sample_spec.count):
        f = sample_field(sample_spec, domain, i)
        js, blocks = dyadic_blocks(f, profile)  # zero blocks give zero ratios
        for grid in grids:
            label = _grid_label(grid)
            gf = synthesize(f, grid)
            base = {p: lp_norm(gf, p) for p in _BERNSTEIN_PS}
            stack = synthesize(blocks, grid)
            # Python floats: a ratio inf / inf is a quiet nan, not a warning
            norms = {p: lp_norm(stack, p).tolist() for p in _BERNSTEIN_PS}
            del stack  # before the gradient stack is built
            gradb = gradient_magnitude(blocks, grid)
            grad_norms = {p: lp_norm(gradb, p).tolist() for p in _BERNSTEIN_PS}
            del gradb  # before the next grid's stack is built
            for k, j in enumerate(js):
                for p in _BERNSTEIN_PS:
                    if base[p] > 0:
                        key = "inf" if math.isinf(p) else str(p)
                        keep(report["block_ratio"].setdefault(key, {}), label, norms[p][k] / base[p])
                        keep(report["gradient_ratio"].setdefault(key, {}), label,
                             grad_norms[p][k] / (2.0**j * base[p]))
                if base[2.0] > 0:
                    keep(report["smoothing_2_inf"], label, norms[math.inf][k] / (2.0**j * base[2.0]))
    return report


def heat_smoothing_study(
    field: SpectralField,
    profile: DyadicProfile | None = None,
    *,
    grids: list[tuple[int, int]],
) -> dict:
    """Fitted exponential block decay rates over 9 times in [0, 4^{-j}] (in
    tau = 4^j t, so the fit stays in range far from j = 0, exact in powers of two),
    plus the sup over t in [1e-4, 1] of t^{1/2} ||grad e^{t Delta} f||_2 / ||f||_2
    on each grid of ``grids``.  Taken on the ``normalised`` domain, its block j,
    rate r and time t are reported as the caller's j - k, r 4^-k and t 4^k."""
    if profile is None:
        profile = DyadicProfile()
    domain, k = normalised(field.domain)
    field = SpectralField(domain, field.parity, field.coefficients)
    rates = {}
    js, blocks = dyadic_blocks(field, profile)  # a zero block has no rate
    for j, c in zip(js, blocks.coefficients):
        block = SpectralField(domain, "SS", c)
        b0 = spectral_norm(block)
        if not 0 < b0 < math.inf:  # nor does one whose L2 norm overflows
            continue
        taus = np.linspace(0.0, 1.0, 9)
        logr = [math.log(spectral_norm(heat_semigroup(block, math.ldexp(tau, -2 * j))) / b0) for tau in taus]
        rates[j - k] = math.ldexp(float(np.polyfit(taus, logr, 1)[0]), 2 * (j - k))
    l2 = spectral_norm(field)
    ts = np.ldexp(np.geomspace(1e-4, 1.0, 25), -2 * k)  # the caller's t in [1e-4, 1]
    states = [heat_semigroup(field, float(t)) for t in ts]  # shared by every grid
    sups = {
        _grid_label(grid): float(max(
            math.sqrt(t) * lp_norm(gradient_magnitude(u, grid), 2) / l2 for t, u in zip(ts, states)
        ))
        for grid in grids
    }
    return {"block_decay_rates": rates, "gradient_smoothing_sup": sups}


def elliptic_ratio_study(domain: DomainSpec, sample_spec: SampleSpec, ps=(1.5, 2.0, 3.0)) -> dict:
    """Max over samples of ||grad^2 f||_p / ||Delta f||_p (Frobenius pointwise)
    on the domain grid.  The ratio is scale-invariant, so second derivatives
    whose squares would leave the normal range are scaled by a power of two."""
    out = {str(p): 0.0 for p in ps}
    for i in range(sample_spec.count):
        f = sample_field(sample_spec, domain, i)
        fxx = synthesize(partial_derivative(partial_derivative(f, 1), 1)).values
        fxy = synthesize(partial_derivative(partial_derivative(f, 1), 2)).values
        fyy = synthesize(partial_derivative(partial_derivative(f, 2), 2)).values
        exponent = math.frexp(max(np.abs(d).max() for d in (fxx, fxy, fyy)))[1]
        if not -478 <= exponent <= 498:
            fxx, fxy, fyy = (np.ldexp(d, -exponent) for d in (fxx, fxy, fyy))
        hess = GridField(domain, np.sqrt(fxx**2 + 2.0 * fxy**2 + fyy**2))
        lap = GridField(domain, fxx + fyy)
        for p in ps:
            denom = lp_norm(lap, p)
            if denom > 0:
                out[str(p)] = max(out[str(p)], lp_norm(hess, p) / denom)
    return out
