"""Velocity, nonlinear term, time stepping, and trajectory persistence."""

import json
import math

import numpy as np
import pytest

from sqgbox import (
    BlowUpError,
    DomainSpec,
    GridField,
    SolverConfig,
    SpectralField,
    analyze,
    grid_points,
    heat_factor,
    heat_semigroup,
    integrate,
    lambda_table,
    load_trajectory,
    mild_residual,
    nonlinear_term,
    partial_derivative,
    pointwise_product,
    projection_grid,
    save_trajectory,
    simulate,
    snapshot_index,
    spectral_inner,
    spectral_norm,
    step,
    synthesize,
    unit_mode,
    velocity,
)

SQRT2 = math.sqrt(2.0)


def _random_ss(domain, rng, decay=1.5):
    lam = lambda_table(domain)
    coeff = rng.uniform(-1.0, 1.0, lam.shape) * lam ** (-decay / 2.0)
    return SpectralField(domain, "SS", coeff)


# -- config ----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=-1e-3, horizon=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, horizon=1.0, scheme="rk9")
    with pytest.raises(ValueError):
        SolverConfig(dt=3e-3, horizon=1.0).n_steps  # not an integer multiple
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, horizon=1e308).n_steps  # horizon/dt overflows
    assert SolverConfig(dt=1e-3, horizon=0.05).n_steps == 50
    assert SolverConfig(dt=1e-3, horizon=1.0, scheme="etd2").scheme == "ETD2"
    assert SolverConfig(dt=1e-3, horizon=1.0, scheme="if-euler").scheme == "IF-Euler"


# -- velocity --------------------------------------------------------------


def test_velocity_oracle_single_mode(square16):
    # stream function e11/sqrt(2): u = (-d_y, d_x) psi
    u1, u2 = velocity(unit_mode(square16, 1, 1))
    assert u1.parity == "SC" and u2.parity == "CS"
    x, y = grid_points(square16)
    np.testing.assert_allclose(
        synthesize(u1).values, -np.sin(x)[:, None] * np.cos(y)[None, :] / SQRT2, atol=1e-13
    )
    np.testing.assert_allclose(
        synthesize(u2).values, np.cos(x)[:, None] * np.sin(y)[None, :] / SQRT2, atol=1e-13
    )


def test_velocity_divergence_free(square16, rng):
    theta = _random_ss(square16, rng)
    u1, u2 = velocity(theta)
    div = partial_derivative(u1, 1) + partial_derivative(u2, 2)
    assert np.max(np.abs(div.coefficients)) <= 1e-12


# -- nonlinear term --------------------------------------------------------


def test_nonlinear_term_vanishes_on_eigenfunction(square16):
    N = nonlinear_term(unit_mode(square16, 1, 1))
    assert np.max(np.abs(N.coefficients)) <= 1e-14


def test_nonlinear_forms_agree(square16, rng):
    theta = _random_ss(square16, rng)
    a = nonlinear_term(theta, form="convective")
    b = nonlinear_term(theta, form="divergence")
    scale = np.max(np.abs(a.coefficients))
    assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-11 * scale
    with pytest.raises(ValueError):
        nonlinear_term(theta, form="rotational")


def test_nonlinear_term_orthogonal_to_state(square16, rng):
    for _ in range(5):
        theta = _random_ss(square16, rng)
        N = nonlinear_term(theta)
        assert abs(spectral_inner(N, theta)) <= 1e-12 * spectral_norm(theta) ** 2


def test_dealias_factor_insensitivity(square16, rng):
    # the 3/2-rule product grid already gives the exact projection onto the
    # band, so forming u . grad theta on a 3b+1 grid changes nothing
    theta = _random_ss(square16, rng)
    u1, u2 = velocity(theta)
    grid = (3 * theta.band[0] + 1, 3 * theta.band[1] + 1)
    t1 = pointwise_product(u1, partial_derivative(theta, 1), grid)
    t2 = pointwise_product(u2, partial_derivative(theta, 2), grid)
    b = analyze(GridField(square16, t1.values + t2.values), "SS", modes=theta.band)
    a = nonlinear_term(theta)
    scale = np.max(np.abs(a.coefficients))
    assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-11 * scale


@pytest.mark.parametrize("b", [8, 9])
def test_convective_term_on_projection_grid(rng, b):
    # u . grad theta projected onto band b: exact on the 3/2-rule grid (and
    # that is the grid nonlinear_term uses), aliased one point below it
    domain = DomainSpec(math.pi, 2.0, b, b, 2 * b, 2 * b)
    theta = SpectralField(domain, "SS", rng.uniform(-1.0, 1.0, (b, b)))
    u1, u2 = velocity(theta)

    def convective(grid):
        t1 = pointwise_product(u1, partial_derivative(theta, 1), grid)
        t2 = pointwise_product(u2, partial_derivative(theta, 2), grid)
        return analyze(GridField(domain, t1.values + t2.values), "SS", modes=theta.band).coefficients

    ref = convective((3 * b + 1, 3 * b + 1))
    scale = np.max(np.abs(ref))
    n1, n2 = projection_grid(theta.band)
    assert np.max(np.abs(convective((n1, n2)) - ref)) <= 1e-12 * scale
    assert np.array_equal(nonlinear_term(theta).coefficients, convective((n1, n2)))
    for grid in ((n1 - 1, n2), (n1, n2 - 1)):
        assert np.max(np.abs(convective(grid) - ref)) > 1e-3 * scale


# -- stepping --------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["IF-Euler", "ETD2"])
def test_step_matches_heat_semigroup_formulation(square16, rng, scheme):
    theta = _random_ss(square16, rng)
    dt = 1e-2
    n0 = nonlinear_term(theta)
    pred = heat_semigroup(theta - dt * n0, dt)
    if scheme == "IF-Euler":
        ref = pred
    else:
        ref = heat_semigroup(theta - (dt / 2.0) * n0, dt) - (dt / 2.0) * nonlinear_term(pred)
    out = step(theta, SolverConfig(dt=dt, horizon=dt, scheme=scheme))
    scale = np.max(np.abs(ref.coefficients))
    assert np.max(np.abs(out.coefficients - ref.coefficients)) <= 1e-14 * scale


def test_heat_factor_table_is_cached_per_domain_band_and_dt(square16, rect):
    a = heat_factor(square16, square16.modes, 1e-3)
    assert heat_factor(square16, square16.modes, 1e-3) is a
    assert not a.flags.writeable
    np.testing.assert_allclose(a, np.exp(-1e-3 * lambda_table(square16)), rtol=1e-15)
    b = heat_factor(square16, square16.modes, 2e-3)
    assert b is not a and not np.array_equal(a, b)
    c = heat_factor(rect, (16, 16), 1e-3)
    assert c is not a and not np.array_equal(a, c)
    with pytest.raises(ValueError):
        heat_factor(square16, square16.modes, -1e-3)
    with pytest.raises(FloatingPointError):
        heat_factor(square16, square16.modes, math.nan)


def test_schemes_exact_on_linear_flow(square16):
    # eigenfunction data: advection vanishes, both schemes reduce to the
    # exactly evaluated heat propagator
    theta0 = unit_mode(square16, 2, 2, 0.7)
    lam = 8.0
    for scheme in ("IF-Euler", "ETD2"):
        cfg = SolverConfig(dt=1e-2, horizon=0.1, scheme=scheme)
        traj = simulate(theta0, cfg)
        final = traj.snapshots[-1]
        np.testing.assert_allclose(
            final.coefficients, math.exp(-lam * 0.1) * theta0.coefficients, atol=1e-13
        )


def test_etd2_second_order(square16):
    theta0 = unit_mode(square16, 1, 1, 1.0) + unit_mode(square16, 2, 2, 0.5)
    T = 0.02

    def final_state(dt, scheme):
        return simulate(theta0, SolverConfig(dt, T, scheme)).snapshots[-1]

    ref = final_state(T / 512, "ETD2")
    errs = [spectral_norm(final_state(T / n, "ETD2") - ref) for n in (8, 16, 32)]
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert 3.0 <= r1 <= 5.0
    assert 3.0 <= r2 <= 5.0


def test_if_euler_first_order(square16):
    theta0 = unit_mode(square16, 1, 1, 1.0) + unit_mode(square16, 2, 2, 0.5)
    T = 0.02

    def final_state(dt):
        return simulate(theta0, SolverConfig(dt, T, "IF-Euler")).snapshots[-1]

    ref = simulate(theta0, SolverConfig(T / 1024, T, "ETD2")).snapshots[-1]
    errs = [spectral_norm(final_state(T / n) - ref) for n in (16, 32, 64)]
    assert 1.7 <= errs[0] / errs[1] <= 2.4
    assert 1.7 <= errs[1] / errs[2] <= 2.4


def test_step_matches_simulate(square16, rng):
    theta0 = _random_ss(square16, rng)
    cfg = SolverConfig(dt=1e-3, horizon=5e-3)
    manual = theta0
    for _ in range(5):
        manual = step(manual, cfg)
    traj = simulate(theta0, cfg)
    np.testing.assert_allclose(
        traj.snapshots[-1].coefficients, manual.coefficients, atol=1e-15
    )


def test_energy_never_increases(square16, rng):
    theta0 = _random_ss(square16, rng)
    traj = simulate(theta0, SolverConfig(dt=1e-3, horizon=0.05))
    l2 = np.asarray(traj.diag_l2)
    assert np.all(np.diff(l2) <= 1e-10 * l2[:-1])


def test_blow_up_detection(square16):
    bad = SpectralField(square16, "SS", np.full((16, 16), np.nan))
    with pytest.raises(BlowUpError) as info:
        simulate(bad, SolverConfig(dt=1e-3, horizon=0.01))
    assert info.value.time <= 0.01


@pytest.mark.parametrize("scheme", ["ETD2", "IF-Euler"])
def test_integrate_steps_a_stack_with_member_bits(square16, rng, scheme):
    # The ensemble loop must give every member the bits simulate gives it
    # alone: verify-duhamel reports stay byte-identical through it.
    members = [_random_ss(square16, rng) for _ in range(3)]
    stack = SpectralField(square16, "SS", np.stack([m.coefficients for m in members]))
    cfg = SolverConfig(dt=1e-3, horizon=0.01, scheme=scheme)
    alone = [simulate(m, cfg) for m in members]
    steps = 0
    for k, theta, nl, l2 in integrate(stack, cfg):
        assert theta.coefficients.shape == (3, 16, 16) and l2.shape == (3,)
        for i, traj in enumerate(alone):
            assert np.array_equal(theta.coefficients[i], traj.snapshots[k].coefficients)
            assert l2[i] == traj.diag_l2[k]
            assert np.array_equal(nl.coefficients[i], nonlinear_term(traj.snapshots[k]).coefficients)
        steps += 1
    assert steps == cfg.n_steps + 1


def test_simulate_rejects_a_stack(square16, rng):
    stack = SpectralField(square16, "SS", rng.standard_normal((2, 16, 16)))
    with pytest.raises(ValueError, match="single field"):
        simulate(stack, SolverConfig(dt=1e-3, horizon=0.01))


def test_blow_up_names_the_stack_member(square16, rng):
    coeff = np.stack([_random_ss(square16, rng).coefficients for _ in range(4)]).reshape(2, 2, 16, 16)
    coeff[1, 0] = np.nan
    cfg = SolverConfig(dt=1e-3, horizon=0.01)
    with pytest.raises(BlowUpError, match="in member 2 at") as info:
        for _ in integrate(SpectralField(square16, "SS", coeff), cfg):
            pass
    assert info.value.member == 2  # flat index over the stack axes
    with pytest.raises(BlowUpError) as alone:
        simulate(SpectralField(square16, "SS", coeff[1, 0]), cfg)
    assert alone.value.member is None and "member" not in str(alone.value)
    assert info.value.time == alone.value.time


def test_orthogonality_diagnostic_small(square16, rng):
    theta0 = _random_ss(square16, rng)
    traj = simulate(theta0, SolverConfig(dt=1e-3, horizon=0.01))
    assert max(traj.diag_orthogonality) <= 1e-12


# -- trajectory record and persistence -------------------------------------


def test_snapshot_schedule(square16):
    theta0 = unit_mode(square16, 1, 1)
    traj = simulate(theta0, SolverConfig(dt=1e-3, horizon=0.01, snapshot_stride=4))
    # strides at 0,4,8 plus the forced final state
    np.testing.assert_allclose(traj.times, [0.0, 4e-3, 8e-3, 1e-2], atol=1e-15)
    assert snapshot_index(traj, 8e-3) == 2
    with pytest.raises(ValueError):
        snapshot_index(traj, 5e-3)


def test_save_load_round_trip(tmp_path, square16, rng):
    theta0 = _random_ss(square16, rng)
    traj = simulate(theta0, SolverConfig(dt=1e-3, horizon=0.01, snapshot_stride=2))
    save_trajectory(tmp_path / "run", traj)
    back = load_trajectory(tmp_path / "run")
    assert back.domain == traj.domain
    assert back.config == traj.config
    np.testing.assert_array_equal(back.times, traj.times)
    for a, b in zip(back.snapshots, traj.snapshots):
        assert np.array_equal(a.coefficients, b.coefficients)
    np.testing.assert_array_equal(back.diag_l2, traj.diag_l2)
    # directories written before the dealias grid was fixed carry an extra key
    doc_path = tmp_path / "run" / "trajectory.json"
    doc = json.loads(doc_path.read_text())
    doc["solver"]["dealias_factor"] = 2
    doc_path.write_text(json.dumps(doc))
    assert load_trajectory(tmp_path / "run").config == traj.config


# -- mild formulation ------------------------------------------------------


def test_mild_residual_single_mode_round_off(square16):
    theta0 = unit_mode(square16, 1, 1)
    traj = simulate(theta0, SolverConfig(dt=1e-3, horizon=0.02, snapshot_stride=2))
    g = unit_mode(square16, 2, 3)
    assert mild_residual(traj, g, traj.times[-1]) <= 1e-12


def test_mild_residual_second_order_in_dt(square16):
    theta0 = unit_mode(square16, 1, 1, 1.0) + unit_mode(square16, 1, 2, 0.8)
    g = unit_mode(square16, 1, 1)
    T = 0.02

    def residual(dt):
        traj = simulate(theta0, SolverConfig(dt, T, "ETD2", snapshot_stride=1))
        return mild_residual(traj, g, T)

    r = [residual(T / n) for n in (8, 16, 32)]
    assert 3.0 <= r[0] / r[1] <= 5.0
    assert 3.0 <= r[1] / r[2] <= 5.0


def test_mild_residual_checks_time(square16):
    theta0 = unit_mode(square16, 1, 1)
    traj = simulate(theta0, SolverConfig(dt=1e-3, horizon=0.01))
    with pytest.raises(ValueError):
        mild_residual(traj, theta0, 0.5)
