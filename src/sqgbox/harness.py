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
  two stored runs, so a run shared by two pairs is simulated once).

Samples are deterministic in (seed, index); reports carry per-sample ratios
plus refinement-stability flags so distribution maxima can be compared
across grid refinement.  The battery takes each field's block norms only at
the exponents it reads (the Hoelder targets for the product components, p1
for the factors), stacks every table over the samples, and aggregates it
with one ``besov_aggregate`` call per (s, p, q, field, grid).

The Duhamel supremum is reduced state by state (``DuhamelSupremum``), for
one trajectory or for a stacked ensemble stepped by ``solver.integrate``
(``duhamel_ensemble``).  Each block of theta(t) - e^{t Delta} theta0 gets a
coefficient-space upper bound on its grid L^p norm (``block_lp_bounds``:
Hoelder against the Parseval L2 norm for p <= 2, the l1 coefficient sum
bounding the maximum for p >= 2, with a 1 + 1e-9 round-off margin); only
blocks whose weighted bound reaches the member's running maximum are
synthesized for their exact norm, so the reported supremum keeps every bit.
"""

from __future__ import annotations

import math
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
    partial_derivative,
    pointwise_product,
    product_parity,
    spectral_norm,
    synthesize,
    synthesize_gradient,
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
from .solver import SolverConfig, TrajectoryRecord, integrate, simulate


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
    """Full tuple battery over seeded sample pairs, with block-norm caching.

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
    pairs = [tuple(map(float, pr)) for pr in battery["pairs"]]
    s_values = [(float(s), False) for s in battery["s"]]
    s_values += [(float(s), True) for s in battery.get("probe_s", [])]
    q_values = [float(q) for q in battery["q"]]

    # Each field is read at its own exponents only: T1, T2 at the Hoelder
    # targets p; f and g in Besov norm at p1 (= p4) and in L^p at p2 (= p3).
    target_ps = sorted({holder_target(p1, p2) for p1, p2 in pairs})
    factor_ps = sorted({p1 for p1, _ in pairs})
    plain_ps = sorted({p2 for _, p2 in pairs})

    def per_sample(i):
        f = sample_field(sample_spec, domain, 2 * i)
        g = sample_field(sample_spec, domain, 2 * i + 1)
        T1, T2 = symmetrized_product(f, g)
        norms = {}
        for name, fld, ps in (("f", f, factor_ps), ("g", g, factor_ps), ("T1", T1, target_ps), ("T2", T2, target_ps)):
            js, table = block_lp_norms(fld, profile, grids, ps)
            norms.update(((name, gi, p), bn) for (gi, p), bn in table.items())
        for gi, grid in enumerate(grids):
            gf = synthesize(f, grid)
            gg = synthesize(g, grid)
            for p in plain_ps:
                norms[("lp_f", gi, p)] = lp_norm(gf, p)
                norms[("lp_g", gi, p)] = lp_norm(gg, p)
        return js, norms

    cached = [per_sample(i) for i in range(sample_spec.count)]
    js = cached[0][0]  # the four fields share the sample band
    # every table stacked over samples: (count, len(js)) block norms, (count,) L^p norms
    stacked = {key: np.stack([norms[key] for _, norms in cached]) for key in cached[0][1]}

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
    B_c = d_c (1-mu Delta)^{-1} G.  The left side is evaluated directly on
    the product grid.  The right side sums the mu quadrature of the grid
    products A B_c and (d_m A) B_c there, and analyzes each of the six sums
    once at the full product band (exact for band-limited states) before
    Delta or d_m applies: both steps are linear.  Returns the relative L2
    residual over both components and the relative truncation bound of the
    quadrature bracket; raises ValueError when f or g is zero.
    """
    if f.domain != g.domain:
        raise ValueError("fields live on different domains")
    lam_f = lambda_table(f.domain, f.band)
    lam_g = lambda_table(g.domain, g.band)
    lam_min = min(float(lam_f.min()), float(lam_g.min()))
    lam_max = max(float(lam_f.max()), float(lam_g.max()))
    if qspec is None:
        qspec = adapted_quadrature(lam_min, lam_max)
    band = (max(f.band[0], g.band[0]), max(f.band[1], g.band[1]))
    grid = dealias_grid(band)
    F = fractional_power(f, -1.0)
    G = fractional_power(g, -1.0)
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
        A = resolvent(F, mu)
        B = synthesize_gradient(resolvent(G, mu), grid)
        coeff = C0 * w * mu**-0.5  # mu^{-3/2} * mu from both identity terms
        factors = np.concatenate(([synthesize(A, grid).values], synthesize_gradient(A, grid)))
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


# Relative margin of ``block_lp_bounds`` over the round-off of the grid norms
# it bounds, and the most blocks the Duhamel reducer synthesizes at once (the
# first states select every block; 16 keeps a default-grid chunk at 0.5 MB).
_BOUND_MARGIN = 1.0 + 1e-9
_SYNTH_CHUNK = 16


def _weight_tables(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|weights| and its square, one flattened row per block, transposed:
    the right factors of ``block_lp_bounds``."""
    w = np.abs(weights).reshape(len(weights), -1)
    return w.T, (w * w).T


def block_lp_bounds(
    field: SpectralField, weights: np.ndarray, p: float, tables: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """Upper bounds U[..., j] on the grid L^p norm of the block with
    coefficients ``field.coefficients * weights[j]``, from coefficients alone.

    Valid on any grid that resolves the band.  With ||.||_2 from Parseval,
    which equals the grid L2 norm for modes <= N:
      p <= 2:  |Omega|^{1/p - 1/2} ||.||_2   (Hoelder on a measure < |Omega|),
      p >= 2:  (sum |c|)^{1 - 2/p} ||.||_2^{2/p}   (sum |c| bounds the maximum),
    each times 1 + 1e-9 against round-off.  Shape: the stack axes of
    ``field`` followed by one axis over the rows of ``weights``.
    ``tables`` is ``_weight_tables(weights)``, which a caller that bounds
    many fields against the same weights builds once.
    """
    if not p >= 1:
        raise ValueError("p must be >= 1 or inf")
    dom = field.domain
    c = field.coefficients.reshape(field.coefficients.shape[:-2] + (-1,))
    w_t, w2_t = _weight_tables(weights) if tables is None else tables
    l2 = np.sqrt((dom.L1 * dom.L2 / 4.0) * ((c * c) @ w2_t))
    if p <= 2:
        bound = (dom.L1 * dom.L2) ** (1.0 / p - 0.5) * l2
    else:
        bound = (np.abs(c) @ w_t) ** (1.0 - 2.0 / p) * l2 ** (2.0 / p)
    return bound * _BOUND_MARGIN


class DuhamelSupremum:
    """Running sup_t ||theta(t) - e^{t Delta} theta0||_{B^{-1+2/p}_{p,inf}}
    of every member of a (possibly stacked) ``theta0``, fed one state at a
    time by ``add``; ``numerator`` holds the suprema over the stack axes.

    Each state's difference is split into its dyadic blocks, and a block is
    synthesized for its exact grid ``lp_norm`` only when the member's
    difference is not exactly zero and 2^{js} times the block's
    ``block_lp_bounds`` bound reaches the member's running maximum.  A
    pruned block is zero or lies below a value already computed exactly, so
    the supremum keeps every bit of the full evaluation; ``evaluated``
    counts the exact block norms taken (none at t = 0, where the difference
    vanishes).
    """

    def __init__(self, theta0: SpectralField, p: float, profile: DyadicProfile | None = None):
        if profile is None:
            profile = DyadicProfile()
        self.params = BesovParams(-1.0 + 2.0 / p, p, math.inf)
        self.theta0 = theta0
        table = dyadic_table(theta0.domain, theta0.band, profile)
        self._weights = table.weights[table.live]
        self._tables = _weight_tables(self._weights)  # built once, not on every add
        self._scale = block_scales(table.js, self.params.s)[table.live]
        self.numerator = np.zeros(theta0.coefficients.shape[:-2])
        self.evaluated = 0

    def add(self, t: float, state: SpectralField) -> None:
        domain = self.theta0.domain
        diff = state.coefficients - heat_semigroup(self.theta0, t).coefficients
        diff = diff.reshape((-1,) + diff.shape[-2:])
        best = self.numerator.reshape(-1)  # a view: updated in place
        field = SpectralField(domain, "SS", diff)
        upper = self._scale * block_lp_bounds(field, self._weights, self.params.p, self._tables)
        # A member whose difference is exactly zero (every member at t = 0)
        # has only zero blocks.  A zero bound does not show that: its squares
        # underflow for coefficients below ~1e-162.
        live = diff.any(axis=(-2, -1))
        members, rows = np.nonzero(~(upper < best[:, None]) & live[:, None])
        terms = np.zeros(upper.shape)
        for lo in range(0, members.size, _SYNTH_CHUNK):
            m, r = members[lo : lo + _SYNTH_CHUNK], rows[lo : lo + _SYNTH_CHUNK]
            blocks = synthesize(SpectralField(domain, "SS", diff[m] * self._weights[r]))
            terms[m, r] = self._scale[r] * lp_norm(blocks, self.params.p)
        self.evaluated += members.size
        state_max = terms.max(axis=1)  # a nan block never raises the maximum
        np.copyto(best, state_max, where=state_max > best)


def _duhamel_ratio(numerator: float, sup_l2: float) -> float:
    return math.nan if sup_l2 == 0.0 else numerator / sup_l2**2


def verify_duhamel_growth(
    traj: TrajectoryRecord, p: float, profile: DyadicProfile | None = None
) -> tuple[float, dict]:
    """sup_t ||theta(t) - e^{t Delta} theta0||_{B^{-1+2/p}_{p,inf}} divided by
    (sup_t ||theta(t)||_2)^2; nan when the trajectory is identically zero."""
    theta0 = traj.snapshots[0]
    sup = DuhamelSupremum(theta0, p, profile)
    for t, snap in zip(traj.times, traj.snapshots):
        sup.add(float(t), snap)
    num = float(sup.numerator)
    sup_l2 = float(np.max(traj.diag_l2)) if len(traj.diag_l2) else spectral_norm(theta0)
    details = {"numerator": num, "sup_l2": sup_l2, "s": sup.params.s}
    return _duhamel_ratio(num, sup_l2), details


def duhamel_ensemble(
    theta0: SpectralField, config: SolverConfig, p: float, profile: DyadicProfile | None = None
) -> list[float]:
    """``verify_duhamel_growth(simulate(member, config), p)`` for every member
    of the stacked ``theta0`` (flat stack order), with the same bits: one
    ``integrate`` run steps the stack and feeds ``DuhamelSupremum`` as it
    goes, so no trajectory is stored."""
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


def twin_distances(traj_a: TrajectoryRecord, traj_b: TrajectoryRecord) -> tuple[np.ndarray, np.ndarray]:
    """Exact L2 distance between two runs at their common snapshot times."""
    times, dists = [], []
    for i, t in enumerate(traj_a.times):
        hits = np.nonzero(np.isclose(traj_b.times, t, rtol=0.0, atol=1e-10))[0]
        if hits.size == 0:
            continue
        times.append(float(t))
        dists.append(spectral_norm(traj_a.snapshots[i] - traj_b.snapshots[int(hits[0])]))
    return np.asarray(times), np.asarray(dists)


def uniqueness_experiment(
    theta0: SpectralField, config_a: SolverConfig, config_b: SolverConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Twin runs from identical data; exact L2 distance at common snapshot times."""
    return twin_distances(simulate(theta0, config_a), simulate(theta0, config_b))


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


def multiplier_bound_study(
    domain: DomainSpec,
    sample_spec: SampleSpec,
    profile: DyadicProfile | None = None,
    grids: list[tuple[int, int]] | None = None,
) -> dict:
    """Maxima of block and block-gradient Bernstein ratios per exponent p in
    (1, 2, inf) and grid, plus the (2, inf) smoothing pair
    ||phi_j f||_inf / (2^j ||f||_2)."""
    if profile is None:
        profile = DyadicProfile()
    if grids is None:
        grids = [(domain.N1, domain.N2)]

    def per_sample(i):
        f = sample_field(sample_spec, domain, i)
        js, blocks = dyadic_blocks(f, profile)  # zero blocks give zero ratios
        out = []
        for gi, grid in enumerate(grids):
            gf = synthesize(f, grid)
            base = {p: lp_norm(gf, p) for p in _BERNSTEIN_PS}
            # One block at a time: refined-grid stacks of all blocks are
            # returned to the system and faulted back in on every sample.
            for j, c in zip(js, blocks.coefficients):
                block = SpectralField(domain, "SS", c)
                gb = synthesize(block, grid)
                gradb = gradient_magnitude(block, grid)
                for p in _BERNSTEIN_PS:
                    if base[p] > 0:
                        out.append(("block", p, gi, lp_norm(gb, p) / base[p]))
                        out.append(("gradient", p, gi, lp_norm(gradb, p) / (2.0**j * base[p])))
                if base[2.0] > 0:
                    out.append(("smoothing_2_inf", None, gi, lp_norm(gb, math.inf) / (2.0**j * base[2.0])))
        return out

    rows = [r for i in range(sample_spec.count) for r in per_sample(i)]
    report = {"block_ratio": {}, "gradient_ratio": {}, "smoothing_2_inf": {}}
    labels = [f"{g[0]}x{g[1]}" for g in grids]
    for kind, p, gi, val in rows:
        if kind == "smoothing_2_inf":
            d = report["smoothing_2_inf"]
            d[labels[gi]] = max(d.get(labels[gi], 0.0), val)
        else:
            key = "inf" if math.isinf(p) else p
            d = report[f"{kind}_ratio"].setdefault(str(key), {})
            d[labels[gi]] = max(d.get(labels[gi], 0.0), val)
    return report


def heat_smoothing_study(
    field: SpectralField,
    profile: DyadicProfile | None = None,
    grids: list[tuple[int, int]] | None = None,
) -> dict:
    """Fitted exponential block decay rates over 9 times in [0, 4^{-j}],
    plus the sup over t in [1e-4, 1] of t^{1/2} ||grad e^{t Delta} f||_2 / ||f||_2."""
    if profile is None:
        profile = DyadicProfile()
    if grids is None:
        grids = [(field.domain.N1, field.domain.N2)]
    rates = {}
    js, blocks = dyadic_blocks(field, profile)  # a zero block has no rate
    for j, c in zip(js, blocks.coefficients):
        block = SpectralField(field.domain, "SS", c)
        b0 = spectral_norm(block)
        if not 0 < b0 < math.inf:  # nor does one whose L2 norm overflows
            continue
        ts = np.linspace(0.0, 4.0 ** (-j), 9)
        logr = np.array([math.log(spectral_norm(heat_semigroup(block, float(t))) / b0) for t in ts])
        rates[j] = float(np.polyfit(ts, logr, 1)[0])
    l2 = spectral_norm(field)
    sups = {}
    ts = np.geomspace(1e-4, 1.0, 25)
    for grid in grids:
        vals = [
            math.sqrt(t) * lp_norm(gradient_magnitude(heat_semigroup(field, float(t)), grid), 2) / l2
            for t in ts
        ]
        sups[f"{grid[0]}x{grid[1]}"] = float(max(vals))
    return {"block_decay_rates": rates, "gradient_smoothing_sup": sups}


def elliptic_ratio_study(domain: DomainSpec, sample_spec: SampleSpec, ps=(1.5, 2.0, 3.0)) -> dict:
    """Max over samples of ||grad^2 f||_p / ||Delta f||_p (Frobenius pointwise)
    on the domain grid."""
    out = {str(p): 0.0 for p in ps}
    for i in range(sample_spec.count):
        f = sample_field(sample_spec, domain, i)
        fxx = synthesize(partial_derivative(partial_derivative(f, 1), 1)).values
        fxy = synthesize(partial_derivative(partial_derivative(f, 1), 2)).values
        fyy = synthesize(partial_derivative(partial_derivative(f, 2), 2)).values
        hess = GridField(domain, np.sqrt(fxx**2 + 2.0 * fxy**2 + fyy**2))
        lap = GridField(domain, fxx + fyy)
        for p in ps:
            denom = lp_norm(lap, p)
            if denom > 0:
                out[str(p)] = max(out[str(p)], lp_norm(hess, p) / denom)
    return out
