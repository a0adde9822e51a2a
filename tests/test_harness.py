"""Sampling, estimate ratios, and the verification studies."""

import dataclasses
import math

import numpy as np
import pytest

from sqgbox import (
    C0,
    DEFAULT_BATTERY,
    BesovParams,
    DuhamelSupremum,
    DyadicProfile,
    GridField,
    QuadratureSpec,
    SampleSpec,
    SolverConfig,
    SpectralField,
    adapted_quadrature,
    analyze,
    besov_norm,
    bilinear_battery,
    block_lp_bounds,
    block_lp_norms,
    dealias_grid,
    duhamel_ensemble,
    dyadic_table,
    elliptic_ratio_study,
    fractional_power,
    full_band,
    gradient_magnitude,
    heat_semigroup,
    heat_smoothing_study,
    holder_target,
    lambda_table,
    laplacian,
    lp_norm,
    multiplier_bound_study,
    partial_derivative,
    pointwise_product,
    product_parity,
    quadrature_nodes,
    resolvent,
    sample_field,
    simulate,
    single_block_sample,
    symmetrized_product,
    synthesize,
    synthesize_gradient,
    uniqueness_experiment,
    unit_mode,
    verify_derivative_structure,
    verify_duhamel_growth,
    verify_initial_smallness,
    verify_product_decomposition,
)
from sqgbox import harness
from sqgbox.harness import _validate_bilinear_params


SPEC = SampleSpec(mode_count=16, decay=1.0, seed=77, count=4)


def verify_bilinear(f, g, s, p, p1, p2, p3, p4, q, profile=None, grid=None):
    """Ratio LHS/RHS of the bilinear Besov product bound for one tuple, from
    one pair's own norms: the reference ``bilinear_battery`` must match bit
    for bit."""
    _validate_bilinear_params(s, p, p1, p2, p3, p4)
    if profile is None:
        profile = DyadicProfile()
    T1, T2 = symmetrized_product(f, g)
    b1, _ = besov_norm(T1, BesovParams(s, p, q), profile, grid)
    b2, _ = besov_norm(T2, BesovParams(s, p, q), profile, grid)
    lhs = math.hypot(b1, b2)
    bf, _ = besov_norm(f, BesovParams(s, p1, q), profile, grid)
    bg, _ = besov_norm(g, BesovParams(s, p4, q), profile, grid)
    lg = lp_norm(synthesize(g, grid), p2)
    lf = lp_norm(synthesize(f, grid), p3)
    rhs = bf * lg + lf * bg
    parts = {"lhs": lhs, "rhs": rhs, "besov_f": bf, "besov_g": bg, "lp_g": lg, "lp_f": lf}
    return (lhs / rhs if rhs > 0 else math.nan), parts


def test_sample_field_deterministic(square16):
    a = sample_field(SPEC, square16, 3)
    b = sample_field(SPEC, square16, 3)
    c = sample_field(SPEC, square16, 4)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert not np.array_equal(a.coefficients, c.coefficients)


def test_sample_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec(mode_count=0)
    with pytest.raises(ValueError):
        SampleSpec(seed=-1)
    with pytest.raises(ValueError):
        SampleSpec(count=0)


def test_single_block_sample_is_spectrally_localized(square16):
    prof = DyadicProfile()
    f = single_block_sample(SPEC, square16, 0, 3, prof)
    lam = lambda_table(square16, f.band)
    live = np.abs(f.coefficients) > 0
    sqrt_lam = np.sqrt(lam[live])
    assert np.all(sqrt_lam > 2.0**2) and np.all(sqrt_lam < 2.0**4)


def test_holder_target():
    assert holder_target(2, 2) == pytest.approx(1.0)
    assert holder_target(3, 6) == pytest.approx(2.0)
    assert holder_target(6, 3) == pytest.approx(2.0)


def test_symmetrized_product_is_symmetric(square16):
    f = sample_field(SPEC, square16, 0)
    g = sample_field(SPEC, square16, 1)
    a1, a2 = symmetrized_product(f, g)
    b1, b2 = symmetrized_product(g, f)
    scale = np.max(np.abs(a1.coefficients))
    assert np.max(np.abs(a1.coefficients - b1.coefficients)) <= 1e-13 * scale
    assert np.max(np.abs(a2.coefficients - b2.coefficients)) <= 1e-13 * scale


def test_symmetrized_product_bilinear(square16):
    f = sample_field(SPEC, square16, 0)
    g = sample_field(SPEC, square16, 1)
    h = sample_field(SPEC, square16, 2)
    scaled1, scaled2 = symmetrized_product(f * 2.0, g * 3.0)
    base1, base2 = symmetrized_product(f, g)
    np.testing.assert_allclose(scaled1.coefficients, 6.0 * base1.coefficients, atol=1e-13)
    np.testing.assert_allclose(scaled2.coefficients, 6.0 * base2.coefficients, atol=1e-13)
    sum1, _ = symmetrized_product(f + h, g)
    part1, _ = symmetrized_product(h, g)
    np.testing.assert_allclose(
        sum1.coefficients, base1.coefficients + part1.coefficients, atol=1e-12
    )


def test_verify_bilinear_basics(square16):
    f = sample_field(SPEC, square16, 0)
    g = sample_field(SPEC, square16, 1)
    ratio, parts = verify_bilinear(f, g, s=0.5, p=1.0, p1=2.0, p2=2.0, p3=2.0, p4=2.0, q=2.0)
    assert 0.0 < ratio < math.inf
    assert parts["lhs"] > 0.0 and parts["rhs"] > 0.0
    with pytest.raises(ValueError):
        verify_bilinear(f, g, s=2.5, p=1.0, p1=2.0, p2=2.0, p3=2.0, p4=2.0, q=2.0)
    with pytest.raises(ValueError):
        # Hoelder relation broken
        verify_bilinear(f, g, s=0.5, p=1.5, p1=2.0, p2=2.0, p3=2.0, p4=2.0, q=2.0)


def test_bilinear_battery_shape_and_stability(square16):
    from sqgbox import DomainSpec

    refined = DomainSpec(math.pi, math.pi, 16, 16, 64, 64)
    spec = SampleSpec(mode_count=16, decay=1.0, seed=77, count=3)
    battery = {"s": [0.0, 1.0], "q": [2, math.inf], "pairs": [[2, 2], [3, 6]], "probe_s": [1.9]}
    reports = bilinear_battery(square16, refined, spec, battery)
    assert len(reports) == 3 * 2 * 2
    for rep in reports:
        assert len(rep.ratios) == 3
        assert math.isfinite(rep.max_ratio)
        assert rep.max_ratio >= rep.mean_ratio
        d = dataclasses.asdict(rep)
        assert set(d) >= {"params", "max_ratio", "refined_max_ratio", "stable"}
    probes = [r for r in reports if r.details["probe"]]
    assert len(probes) == 4


def test_bilinear_report_dicts_hold_plain_python_values(square16):
    # verify-bilinear writes dataclasses.asdict of each report, so every
    # leaf must already be a Python scalar, not a numpy one
    from sqgbox import DomainSpec

    def leaves(x):
        if isinstance(x, dict):
            assert all(type(k) is str for k in x)
            return [v for item in x.values() for v in leaves(item)]
        if isinstance(x, list):
            return [v for item in x for v in leaves(item)]
        return [x]

    refined = DomainSpec(math.pi, math.pi, 16, 16, 32, 32)
    spec = SampleSpec(mode_count=16, decay=1.0, seed=78, count=2)
    battery = {"s": [0.5], "q": [math.inf], "pairs": [[2, 2]], "probe_s": [1.9]}
    reports = bilinear_battery(square16, refined, spec, battery)
    assert reports
    for rep in reports:
        d = dataclasses.asdict(rep)
        assert isinstance(d["ratios"], list)
        assert all(type(v) in (float, int, bool, str) for v in leaves(d))
        assert type(d["max_ratio"]) is float and type(d["stable"]) is bool


def test_bilinear_battery_matches_verify_bilinear_bit_for_bit(square16):
    # verify_bilinear is the one-pair reference: every ratio the battery
    # assembles from its cached block norms is the reference ratio of that
    # sample pair, on the base grid and on the refined grid.
    from sqgbox import DomainSpec

    refined = DomainSpec(math.pi, math.pi, 16, 16, 48, 48)
    spec = SampleSpec(mode_count=16, decay=1.0, seed=77, count=3)
    battery = {**DEFAULT_BATTERY, "s": [-0.5, 0.5, 1.5], "probe_s": []}
    profile = DyadicProfile()
    pairs = [(sample_field(spec, square16, 2 * i), sample_field(spec, square16, 2 * i + 1)) for i in range(3)]
    reports = bilinear_battery(square16, refined, spec, battery, profile)
    assert len(reports) == 27
    for rep in reports:
        params = {k: rep.params[k] for k in ("s", "p", "p1", "p2", "p3", "p4", "q")}

        def reference(grid):
            return [verify_bilinear(f, g, **params, profile=profile, grid=grid)[0] for f, g in pairs]

        assert rep.ratios == reference((32, 32))
        assert rep.refined_max_ratio == max(reference((48, 48)))


def test_bilinear_battery_takes_block_norms_only_at_the_exponents_it_reads(square16, monkeypatch):
    # T1, T2 are read at the Hoelder targets p = (1, 2, 2) of the pairs, f and g
    # at p1 = (2, 3, 6): no field is asked for the union.
    from sqgbox import DomainSpec, harness

    asked = []

    def spy(field, profile, grids, ps):
        asked.append(tuple(ps))
        return block_lp_norms(field, profile, grids, ps)

    monkeypatch.setattr(harness, "block_lp_norms", spy)
    refined = DomainSpec(math.pi, math.pi, 16, 16, 48, 48)
    spec = SampleSpec(mode_count=16, decay=1.0, seed=77, count=2)
    battery = {"s": [0.5], "q": [2], "pairs": [[2, 2], [3, 6], [6, 3]], "probe_s": []}
    bilinear_battery(square16, refined, spec, battery)
    assert sorted(asked) == [(1.0, 2.0)] * 4 + [(2.0, 3.0, 6.0)] * 4


def test_block_norm_cache_matches_besov_norm(rect, square16):
    # The battery's path: block norms once per field, then one aggregation per index.
    from sqgbox import BesovParams, besov_aggregate, besov_norm, block_lp_norms

    spec = SampleSpec(mode_count=6, decay=1.0, seed=3, count=1)
    f = sample_field(spec, rect, 0)
    prof = DyadicProfile(2)
    grids = [None, (33, 41)]
    ps = [1.0, 2.0, 3.0, 6.0]
    js, norms = block_lp_norms(f, prof, grids, ps)
    for gi, grid in enumerate(grids):
        for p in ps:
            for s, q in [(-0.5, 1.0), (0.5, 2.0), (1.5, math.inf)]:
                ref, _ = besov_norm(f, BesovParams(s, p, q), prof, grid)
                value, _ = besov_aggregate(js, norms[(gi, p)], s, q)
                assert value == pytest.approx(ref, rel=1e-12)


def test_product_decomposition_residual_tiny(square16):
    f = sample_field(SPEC, square16, 2)
    g = sample_field(SPEC, square16, 3)
    assert verify_product_decomposition(f, g) <= 1e-10
    with pytest.raises(ValueError):
        verify_product_decomposition(f * 0.0, g * 0.0)


def test_adapted_quadrature_straddles_spectrum():
    spec = adapted_quadrature(2.0, 2048.0)
    assert spec.mu_min * 2048.0 < 1e-9
    assert spec.mu_max * 2.0 > 1e9


def per_node_structure_residual(f, g, qspec):
    """Relative residual of the identity of ``verify_derivative_structure``
    with every composite analyzed and re-synthesized at each mu node: the
    reference its one-pass sum must match to round-off."""
    band = (max(f.band[0], g.band[0]), max(f.band[1], g.band[1]))
    grid = dealias_grid(band)
    F = fractional_power(f, -1.0)
    G = fractional_power(g, -1.0)
    norm = lambda vals: lp_norm(GridField(f.domain, vals), 2)
    lhs, part_scale = [], []
    for c in (1, 2):
        t1 = pointwise_product(f, partial_derivative(G, c), grid).values
        t2 = pointwise_product(F, partial_derivative(g, c), grid).values
        lhs.append(t1 - t2)
        part_scale.append(norm(t1) + norm(t2))
    rhs = [np.zeros_like(lhs[0]), np.zeros_like(lhs[1])]
    for mu, w in zip(*quadrature_nodes(qspec)):
        A = resolvent(F, mu)
        RG = resolvent(G, mu)
        dA = {m: partial_derivative(A, m) for m in (1, 2)}
        coeff = C0 * w * mu**-0.5
        for c in (1, 2):
            B = partial_derivative(RG, c)
            parity = product_parity("SS", B.parity)
            P = analyze(pointwise_product(A, B, grid), parity, modes=full_band(grid, parity))
            term = synthesize(laplacian(P), grid).values.copy()
            for m in (1, 2):
                parity_q = product_parity(dA[m].parity, B.parity)
                Q = analyze(pointwise_product(dA[m], B, grid), parity_q, modes=full_band(grid, parity_q))
                term -= 2.0 * synthesize(partial_derivative(Q, m), grid).values
            rhs[c - 1] += coeff * term
    num = math.hypot(norm(lhs[0] - rhs[0]), norm(lhs[1] - rhs[1]))
    lhs_scale = math.hypot(norm(lhs[0]), norm(lhs[1]))
    fallback = math.hypot(*part_scale)
    return num / (lhs_scale if lhs_scale > 1e-12 * fallback else fallback)


def _structure_pairs(domain):
    """The random-block, degenerate and custom-bracket pairs of the tests
    below, each with its quadrature (None: the adapted bracket)."""
    prof = DyadicProfile()
    f = single_block_sample(SPEC, domain, 0, 3, prof)
    g = single_block_sample(SPEC, domain, 1, 2, prof)
    mode = unit_mode(domain, 2, 2)
    return {
        "random-blocks": (f, g, None),
        "degenerate": (mode, mode, None),
        "custom-bracket": (unit_mode(domain, 1, 2), unit_mode(domain, 2, 1), QuadratureSpec(32, 1e-12, 1e12)),
    }


def test_derivative_structure_random_blocks(square16):
    f, g, _ = _structure_pairs(square16)["random-blocks"]
    residual, bound = verify_derivative_structure(f, g)
    assert residual <= 1e-8
    assert bound <= 1e-8


def test_derivative_structure_degenerate_pair(square16):
    # f = g single mode: the left side vanishes identically, the fallback
    # denominator keeps the residual meaningful
    f, g, _ = _structure_pairs(square16)["degenerate"]
    residual, _ = verify_derivative_structure(f, g)
    assert residual <= 1e-8


def test_derivative_structure_custom_bracket(square16):
    f, g, qspec = _structure_pairs(square16)["custom-bracket"]
    residual, bound = verify_derivative_structure(f, g, qspec)
    assert residual <= max(1e-8, 2.0 * bound)


@pytest.mark.parametrize("pair", ["random-blocks", "degenerate", "custom-bracket"])
def test_derivative_structure_matches_the_per_node_reference(square16, pair):
    # summing the mu-integral on the grid and transforming once moves the
    # residual at round-off only (measured <= 5e-16)
    f, g, qspec = _structure_pairs(square16)[pair]
    if qspec is None:
        lam = np.concatenate((lambda_table(f).ravel(), lambda_table(g).ravel()))
        qspec = adapted_quadrature(float(lam.min()), float(lam.max()))
    residual, _ = verify_derivative_structure(f, g, qspec)
    assert residual == pytest.approx(per_node_structure_residual(f, g, qspec), rel=0.0, abs=1e-14)


def test_derivative_structure_analyzes_once_per_call(square16, monkeypatch):
    # the six grid sums are analyzed after the node loop, and the loop takes
    # first derivatives from synthesize_gradient: both counts are independent
    # of the number of nodes
    calls = {"analyze": 0, "partial_derivative": 0}

    def counted(name):
        inner = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counted(name))
    f, g, _ = _structure_pairs(square16)["random-blocks"]
    qspecs = (QuadratureSpec(4, 1e-6, 1e2), QuadratureSpec(16, 1e-12, 1e12))
    assert len({len(quadrature_nodes(q)[0]) for q in qspecs}) == 2
    for qspec in qspecs:
        calls.update(analyze=0, partial_derivative=0)
        verify_derivative_structure(f, g, qspec)
        assert calls == {"analyze": 6, "partial_derivative": 4}


def test_derivative_structure_rejects_a_zero_field(square16):
    # the left side and its fallback scale both vanish
    f, g, _ = _structure_pairs(square16)["random-blocks"]
    for pair in ((f * 0.0, g), (f, g * 0.0), (f * 0.0, g * 0.0)):
        with pytest.raises(ValueError, match="zero field"):
            verify_derivative_structure(*pair)


def test_duhamel_growth_heat_only(square16):
    # eigenfunction trajectory: theta(t) equals the heat flow, numerator ~ 0
    traj = simulate(unit_mode(square16, 1, 1), SolverConfig(1e-3, 0.01))
    ratio, details = verify_duhamel_growth(traj, 1.5)
    assert ratio <= 1e-10
    assert details["sup_l2"] == pytest.approx(math.pi / 2, rel=1e-6)


def test_duhamel_growth_zero_data(square16):
    traj = simulate(unit_mode(square16, 1, 1, 0.0), SolverConfig(1e-3, 0.01))
    ratio, _ = verify_duhamel_growth(traj, 1.5)
    assert math.isnan(ratio)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_block_lp_bounds_hold_on_every_grid(rect, rng, p):
    field = SpectralField(rect, "SS", rng.standard_normal((5, 6, 10)) * rng.uniform(1e-3, 1e3, (5, 1, 1)))
    table = dyadic_table(rect, field.band, DyadicProfile())
    weights = table.weights[table.live]
    bounds = block_lp_bounds(field, weights, p)
    assert bounds.shape == (5, len(weights))
    blocks = SpectralField(rect, "SS", field.coefficients[:, None] * weights)
    for grid in (None, (6, 10), (41, 29)):
        assert np.all(bounds >= lp_norm(synthesize(blocks, grid), p))


@pytest.mark.parametrize("weight", [1.0, 0.5])
def test_block_lp_bound_is_tight_for_one_mode_at_p2(square16, weight):
    # One mode makes Hoelder an equality at p = 2: the bound exceeds the grid
    # norm only by its round-off margin, so a looser margin or bound fails.
    # A weight below 1 tells the squared weights w * w from the looser |w|.
    f = unit_mode(square16, 3, 5, -0.7)
    bound = float(block_lp_bounds(f, np.full((1, 16, 16), weight), 2.0)[0])
    exact = lp_norm(synthesize(f * weight), 2.0)
    assert bound * (1.0 - 1e-6) < exact <= bound


def _duhamel_members(domain):
    """Two-mode draws as verify-duhamel makes them, a full-band draw, the zero
    field and an eigenfunction, as one stack."""
    fields = []
    for i in range(3):
        rng = np.random.default_rng([1234, 7000 + i])
        fields.append(unit_mode(domain, 1, 1, 0.5 * rng.uniform(-1, 1)) + unit_mode(domain, 1, 2, 0.5 * rng.uniform(-1, 1)))
    fields.append(sample_field(SPEC, domain, 0) * 0.3)
    fields.append(unit_mode(domain, 1, 1, 0.0))
    fields.append(unit_mode(domain, 2, 3, 0.8))
    return SpectralField(domain, "SS", np.stack([f.coefficients for f in fields]))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, math.inf])
def test_duhamel_ensemble_matches_each_member_alone(square16, p):
    stack = _duhamel_members(square16)
    for cfg in (SolverConfig(1e-3, 0.02), SolverConfig(1e-3, 0.02, snapshot_stride=3)):
        ratios = duhamel_ensemble(stack, cfg, p)
        alone = [
            verify_duhamel_growth(simulate(SpectralField(square16, "SS", c), cfg), p)[0]
            for c in stack.coefficients
        ]
        np.testing.assert_array_equal(ratios, alone)  # nan only where nan
        assert all(type(r) is float for r in ratios)
        assert math.isnan(ratios[4]) and ratios[5] <= 1e-10
        assert all(0.0 < r < 1.0 for r in ratios[:4])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, math.inf])
def test_duhamel_supremum_matches_full_evaluation(square16, p):
    # Reference: every block norm of every snapshot, no pruning.
    params = BesovParams(-1.0 + 2.0 / p, p, math.inf)
    for theta0 in _duhamel_members(square16).coefficients[[0, 3, 5]]:
        traj = simulate(SpectralField(square16, "SS", theta0), SolverConfig(1e-3, 0.02))
        sup = DuhamelSupremum(traj.snapshots[0], p)
        num = 0.0
        for t, snap in zip(traj.times, traj.snapshots):
            sup.add(float(t), snap)
            num = max(num, besov_norm(snap - heat_semigroup(traj.snapshots[0], float(t)), params)[0])
        assert float(sup.numerator) == num
    blocks = len(traj.snapshots) * int(np.sum(dyadic_table(square16, (16, 16), DyadicProfile()).live))
    assert sup.evaluated < blocks


@pytest.mark.parametrize("p", [1.5, math.inf])
def test_duhamel_supremum_takes_no_block_at_the_initial_time(square16, p):
    # At t = 0 the difference theta0 - e^{0 Delta} theta0 is exactly zero, so
    # no block is synthesized for a norm of 0.
    stack = _duhamel_members(square16)
    sup = DuhamelSupremum(stack, p)
    sup.add(0.0, stack)
    assert sup.evaluated == 0
    assert not np.any(sup.numerator)
    alone = DuhamelSupremum(SpectralField(square16, "SS", stack.coefficients[0]), p)
    alone.add(0.0, alone.theta0)
    assert alone.evaluated == 0 and float(alone.numerator) == 0.0
    # A nonzero difference still takes its blocks when their bounds
    # underflow to 0 (squares of coefficients near 1e-170).
    tiny = unit_mode(square16, 1, 1, 1e-170)
    sup = DuhamelSupremum(tiny, p)
    sup.add(0.0, tiny + unit_mode(square16, 2, 3, 1e-170))
    exact = besov_norm(unit_mode(square16, 2, 3, 1e-170), sup.params)[0]
    assert sup.evaluated > 0 and float(sup.numerator) == exact > 0.0


def test_initial_smallness_curve_oracle(square16):
    theta0 = unit_mode(square16, 1, 1)
    rows = verify_initial_smallness(theta0, 2.0, np.array([1e-2, 1e-4]))
    # t^{1/4} ||e^{2t(-1)}... sin sin||_4; heat factor e^{-2t}
    l4 = lp_norm(synthesize(theta0), 4.0)
    for t, val in rows:
        assert val == pytest.approx(t**0.25 * math.exp(-2.0 * t) * l4, rel=1e-10)
    with pytest.raises(ValueError):
        verify_initial_smallness(theta0, 2.0, np.array([1e-4, 1e-2]))  # increasing
    with pytest.raises(ValueError):
        verify_initial_smallness(theta0, 2.0, np.array([1e-2, 0.0]))


def test_uniqueness_experiment_alignment(square16):
    theta0 = unit_mode(square16, 1, 1, 0.3) + unit_mode(square16, 1, 2, 0.2)
    a = SolverConfig(1e-3, 0.01, snapshot_stride=2)
    b = SolverConfig(5e-4, 0.01, snapshot_stride=4)
    times, dists = uniqueness_experiment(theta0, a, b)
    np.testing.assert_allclose(times, [0.0, 2e-3, 4e-3, 6e-3, 8e-3, 1e-2], atol=1e-12)
    assert dists[0] == 0.0
    assert np.all(dists >= 0.0)


def test_multiplier_bound_study_structure(square16):
    spec = SampleSpec(mode_count=16, decay=1.0, seed=5, count=3)
    out = multiplier_bound_study(square16, spec, grids=[(32, 32), (64, 64)])
    assert set(out) == {"block_ratio", "gradient_ratio", "smoothing_2_inf"}
    for p_key, per_grid in out["block_ratio"].items():
        assert set(per_grid) == {"32x32", "64x64"}
        for v in per_grid.values():
            assert math.isfinite(v) and v > 0.0
    # phi <= 1 pointwise and sine-grid L2 is exact, so blocks cannot grow in L2
    assert all(v <= 1.0 + 1e-10 for v in out["block_ratio"]["2.0"].values())


@pytest.mark.parametrize("grid", [(32, 32), (64, 48)])
def test_gradient_magnitude_is_hypot_at_round_off(square16, grid):
    f = sample_field(SPEC, square16, 0)
    gx, gy = synthesize_gradient(f, grid)
    got = gradient_magnitude(f, grid).values
    np.testing.assert_allclose(got, np.hypot(gx, gy), rtol=4.5e-16, atol=0.0)


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_gradient_magnitude_keeps_hypot_where_squares_leave_the_range(square16, scale):
    # squares of ~1e200 overflow and of ~1e-170 underflow; an escaped
    # RuntimeWarning would fail the test as an error
    f = sample_field(SPEC, square16, 0) * scale
    gx, gy = synthesize_gradient(f)
    np.testing.assert_array_equal(gradient_magnitude(f).values, np.hypot(gx, gy))
    # in a stack, each member gets the bits it gets alone
    unit = SpectralField(square16, "SS", f.coefficients / scale)
    got = gradient_magnitude(SpectralField(square16, "SS", np.stack([f.coefficients, unit.coefficients]))).values
    np.testing.assert_array_equal(got[0], gradient_magnitude(f).values)
    np.testing.assert_array_equal(got[1], gradient_magnitude(unit).values)


def test_heat_smoothing_study_rates(square16):
    spec = SampleSpec(mode_count=16, decay=0.0, seed=5, count=1)
    f = sample_field(spec, square16, 0)
    out = heat_smoothing_study(f, grids=[(32, 32)])
    for j, rate in out["block_decay_rates"].items():
        assert rate <= -0.25 * 4.0**j
    assert all(math.isfinite(v) for v in out["gradient_smoothing_sup"].values())


def test_elliptic_ratio_study_l2_identity(square16):
    spec = SampleSpec(mode_count=16, decay=2.0, seed=5, count=3)
    out = elliptic_ratio_study(square16, spec, ps=(2.0,))
    # Frobenius Hessian and Laplacian have equal L2 norms in the continuum
    assert out["2.0"] == pytest.approx(1.0, abs=0.05)
