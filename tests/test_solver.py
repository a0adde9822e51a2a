"""Velocity, nonlinear term, time stepping, and trajectory persistence."""

import collections
import json
import math
import platform
import sys

import numpy as np
import pytest

import sqgbox
from sqgbox import (
    BlowUpError,
    DomainSpec,
    GridField,
    SolverConfig,
    SpectralField,
    StepWorkspace,
    analyze,
    dealias_grid,
    fractional_power,
    full_band,
    heat_semigroup,
    integrate,
    lambda_table,
    load_trajectory,
    mild_residual,
    nonlinear_term,
    partial_derivative,
    pointwise_product,
    product_parity,
    projection_grid,
    simulate,
    snapshot_index,
    spectral_inner,
    spectral_norm,
    synthesize_gradient,
    unit_mode,
    write_trajectory,
)
from sqgbox.domain import _basis, _gradient_tables
from sqgbox.solver import _orthogonality_residual

SQRT2 = math.sqrt(2.0)


def _random_ss(domain, rng, decay=1.5):
    lam = lambda_table(domain)
    coeff = rng.uniform(-1.0, 1.0, lam.shape) * lam ** (-decay / 2.0)
    return SpectralField(domain, "SS", coeff)


def grid_points(domain):
    """The interior collocation points x_i = i L / (N + 1) of the domain grid, per axis."""
    x = domain.L1 * np.arange(1, domain.N1 + 1) / (domain.N1 + 1)
    y = domain.L2 * np.arange(1, domain.N2 + 1) / (domain.N2 + 1)
    return x, y


def velocity(theta):
    """u = grad^perp Lambda^{-1} theta from the generic multiplier and
    derivative calls; components have parity (SC, CS)."""
    psi = fractional_power(theta, -1.0)
    return -partial_derivative(psi, 2), partial_derivative(psi, 1)


def _divergence_term(theta):
    """The advection term in divergence form div(u theta), the reference the
    library's convective form is checked against: the fluxes u_c theta are
    analyzed at their full product band on ``dealias_grid``, differentiated
    and truncated to the band of ``theta``.  Both forms are exact projections
    of the same trig polynomial, u being divergence-free in coefficients, so
    they agree to round-off."""
    band = theta.band
    grid = dealias_grid(band)
    out = None
    for axis, u in enumerate(velocity(theta), start=1):
        parity = product_parity(u.parity, "SS")
        flux = analyze(pointwise_product(u, theta, grid), parity, modes=full_band(grid, parity))
        d = partial_derivative(flux, axis)
        piece = SpectralField(theta.domain, "SS", d.coefficients[..., : band[0], : band[1]])
        out = piece if out is None else out + piece
    return out


def _one_step(theta, dt, scheme="ETD2"):
    """The state one step of ``scheme`` after ``theta``."""
    *_, (_, out, _, _) = integrate(theta, SolverConfig(dt, dt, scheme))
    return out


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
    # stream function e11/sqrt(2): u = (-d_y, d_x) psi, read from the gradient
    # synthesis that the step and mild_residual use
    d1_psi, d2_psi = synthesize_gradient(fractional_power(unit_mode(square16, 1, 1), -1.0))
    x, y = grid_points(square16)
    np.testing.assert_allclose(-d2_psi, -np.sin(x)[:, None] * np.cos(y)[None, :] / SQRT2, atol=1e-13)
    np.testing.assert_allclose(d1_psi, np.cos(x)[:, None] * np.sin(y)[None, :] / SQRT2, atol=1e-13)


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
    a = nonlinear_term(theta)
    b = _divergence_term(theta)
    scale = np.max(np.abs(a.coefficients))
    assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-11 * scale
    # Both forms truncate the last two axes of a stack, with each member's bits:
    # a stack longer than the band shows a slice taken along a stack axis.
    stack = SpectralField(square16, "SS", rng.uniform(-1.0, 1.0, (17, 16, 16)))
    for term_of in (nonlinear_term, _divergence_term):
        got = term_of(stack).coefficients
        assert got.shape == (17, 16, 16)
        for member, term in zip(stack.coefficients, got):
            assert np.array_equal(term, term_of(SpectralField(square16, "SS", member)).coefficients)


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


@pytest.mark.parametrize("band", [(8, 8), (9, 9), (7, 12), (12, 7), (33, 20)])
def test_convective_term_on_projection_grid(monkeypatch, rng, band):
    # u . grad theta projected onto the band: exact on the 3/2-rule grid (and
    # that is the grid nonlinear_term uses), aliased one point below it.  The
    # reference velocity comes from the generic multiplier and derivative
    # calls.  The step, whose synthesis tables carry the derivative scales,
    # must match the field-level composition to round-off, and a stack must
    # give each member the bits it gets alone, on a rectangle with b1 != b2,
    # where a table or derivative taken along the wrong axis fails.
    b1, b2 = band
    domain = DomainSpec(math.pi, 2.0, b1, b2, 2 * b1, 2 * b2)
    theta = SpectralField(domain, "SS", rng.uniform(-1.0, 1.0, (3, b1, b2)))
    psi = fractional_power(theta, -1.0)
    u1, u2 = -1.0 * partial_derivative(psi, 2), partial_derivative(psi, 1)

    def convective(grid):
        t1 = pointwise_product(u1, partial_derivative(theta, 1), grid)
        t2 = pointwise_product(u2, partial_derivative(theta, 2), grid)
        return analyze(GridField(domain, t1.values + t2.values), "SS", modes=band).coefficients

    ref = convective((3 * b1 + 1, 3 * b2 + 1))
    scale = np.max(np.abs(ref))
    n1, n2 = projection_grid(band)
    exact = convective((n1, n2))
    assert np.max(np.abs(exact - ref)) <= 1e-12 * scale
    stacked = nonlinear_term(theta).coefficients
    assert np.max(np.abs(stacked - exact)) <= 1e-14 * scale
    for member, expected in zip(theta.coefficients, stacked):
        assert np.array_equal(nonlinear_term(SpectralField(domain, "SS", member)).coefficients, expected)
        # a Fortran-ordered member too: at band (33, 20) its gemm gives other bits unless it is copied
        fortran = SpectralField(domain, "SS", np.asfortranarray(member))
        assert np.array_equal(nonlinear_term(fortran).coefficients, expected)
    for grid in ((n1 - 1, n2), (n1, n2 - 1)):
        assert np.max(np.abs(convective(grid) - ref)) > 1e-3 * scale
    # One workspace carries a run of three states, for the stack and for one
    # field: every state and advection term integrate yields has the bits of
    # a fresh step and a fresh term.  Every buffer the kernel writes, the
    # ETD2 update buffers included, starts as NaN, so an entry the step
    # reads before it writes it shows.
    built = []

    class NaNWorkspace(StepWorkspace):
        def __init__(self, state):
            super().__init__(state)
            built.append(self)
            for buf in (self.psi, self.synth, self.grids, self.pred, self.n1):
                buf.fill(np.nan)

    cfg = SolverConfig(dt=1e-3, horizon=2e-3)
    for shape in ((3, b1, b2), (b1, b2)):
        states = [SpectralField(domain, "SS", rng.uniform(-1.0, 1.0, shape))]
        for _ in range(2):
            states.append(_one_step(states[-1], cfg.dt))
        terms = [nonlinear_term(state).coefficients for state in states]
        with monkeypatch.context() as m:
            m.setattr(sqgbox.solver, "StepWorkspace", NaNWorkspace)
            run = [(theta.coefficients, nl.coefficients) for _, theta, nl, _ in integrate(states[0], cfg)]
        assert len(built) == 1 and built.pop().shape == shape
        for (got, nl), state, term in zip(run, states, terms, strict=True):
            assert np.array_equal(got, state.coefficients)
            assert np.array_equal(nl, term)
    single = StepWorkspace(SpectralField(domain, "SS", theta.coefficients[0]))
    with pytest.raises(ValueError, match="workspace"):
        nonlinear_term(theta, workspace=single)  # built for one field, not the stack


def test_workspace_steps_one_field_at_a_time():
    # A lone band-128 field steps in a psi buffer, one synthesis buffer,
    # three projection-grid buffers and the two ETD2 update buffers: no pair
    # axis, and the analysis is written into the spent d1 theta grid.
    b1 = b2 = 128
    n1, n2 = projection_grid((b1, b2))
    ws = StepWorkspace(SpectralField(DomainSpec.square(math.pi, b1, 2 * b1), "SS", np.zeros((b1, b2))))

    def owner(a):
        while a.base is not None:
            a = a.base
        return a

    writable = [v for v in vars(ws).values() if isinstance(v, np.ndarray) and v.flags.writeable]
    owned = {id(a): a for a in map(owner, writable)}.values()
    assert sum(a.nbytes for a in owned) == 8 * (b1 * b2 + 2 * n1 * b2 + 3 * n1 * n2 + 2 * b1 * b2) == 1_671_168
    assert ws.grids.shape == (3, n1, n2)
    assert np.shares_memory(ws.analysis, ws.grids[0])
    # the gradient tables copy the bases they are built from, and leave
    # none of them in the basis cache
    tables_before, bases_before = _gradient_tables.cache_info(), _basis.cache_info().currsize
    _gradient_tables(1.25, 3.5, (5, 7), (9, 11))
    assert _gradient_tables.cache_info().misses == tables_before.misses + 1
    assert _basis.cache_info().currsize == bases_before


def test_convective_term_in_a_workspace_builds_only_its_result(monkeypatch, square16, rng):
    # The step's kernel works on the workspace's own arrays: with a
    # workspace, a convective term builds one SpectralField, its result, and
    # calls none of the field-level transforms or multipliers.
    theta = SpectralField(square16, "SS", rng.uniform(-1.0, 1.0, (2, 16, 16)))
    ws = StepWorkspace(theta)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    names = ("synthesize", "analyze", "partial_derivative", "apply_multiplier")
    for module in (sqgbox.domain, sqgbox.multipliers, sqgbox.solver, sys.modules[__name__]):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(SpectralField, "__post_init__", counted("SpectralField", SpectralField.__post_init__))
    nonlinear_term(theta, workspace=ws)
    assert calls == {"SpectralField": 1}
    _divergence_term(theta)  # the counters do see the field-level path
    assert all(calls[name] > 0 for name in names)


def test_step_reads_the_cached_gradient_tables(rng):
    # The step synthesizes on the one copy of the folded tables that
    # synthesize_gradient reads: read-only, C-contiguous, cached per lengths,
    # band and grid.  A domain that differs only in its default grid (as the
    # refined domain of verify-bilinear does) shares them.
    band = (12, 7)
    domain = DomainSpec(math.pi, 2.0, *band, 24, 14)
    refined = DomainSpec(math.pi, 2.0, *band, 48, 28)
    ws = StepWorkspace(SpectralField(domain, "SS", rng.uniform(-1.0, 1.0, (3, *band))))
    tables = sqgbox.domain._gradient_tables(math.pi, 2.0, band, projection_grid(band))
    assert all(held is cached for held, cached in zip((ws.left, ws.s2t, ws.c2t), tables, strict=True))
    for tab in tables:
        assert tab.flags.c_contiguous and not tab.flags.writeable
        with pytest.raises(ValueError):
            tab[0, 0] = 0.0
    before = sqgbox.domain._gradient_tables.cache_info()
    synthesize_gradient(SpectralField(refined, "SS", rng.uniform(-1.0, 1.0, band)), projection_grid(band))
    after = sqgbox.domain._gradient_tables.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 1


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
    out = _one_step(theta, dt, scheme)
    # the step scales by the heat table that heat_semigroup applies: same bits
    assert np.array_equal(out.coefficients, ref.coefficients)


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


@pytest.mark.parametrize("band", [(17, 17), (33, 33), (65, 65), (7, 12), (33, 20)])
def test_stack_members_keep_their_bits_at_bands_off_powers_of_two(rng, band):
    # A gemm over column-stacked members is bit-equal to the member gemms at
    # widths 32, 64 and 128 but not at odd ones such as 33 or 65.  The step
    # gives every member gemms of its own shape, so stacks of 3 and 8 must
    # give each member the bits it gets alone, term by term and step by step.
    b1, b2 = band
    domain = DomainSpec(math.pi, 2.0, b1, b2, 2 * b1, 2 * b2)
    cfg = SolverConfig(dt=1e-3, horizon=3e-3)
    for members in (3, 8):
        coeff = rng.uniform(-1.0, 1.0, (members, b1, b2)) * lambda_table(domain) ** -0.75
        stack = SpectralField(domain, "SS", coeff)
        alone = [list(integrate(SpectralField(domain, "SS", c.copy()), cfg)) for c in coeff]
        terms = nonlinear_term(stack).coefficients
        for i, member in enumerate(alone):
            assert np.array_equal(terms[i], nonlinear_term(member[0][1]).coefficients)
        stacked = list(integrate(stack, cfg))
        assert len(stacked) == cfg.n_steps + 1 == 4
        for k, theta, nl, l2 in stacked:
            for i, member in enumerate(alone):
                _, theta_i, nl_i, l2_i = member[k]
                assert np.array_equal(theta.coefficients[i], theta_i.coefficients)
                assert np.array_equal(nl.coefficients[i], nl_i.coefficients)
                assert l2[i] == l2_i


@pytest.mark.parametrize("members", [0, 3])
def test_integrate_yields_fields_no_later_step_overwrites(square16, rng, members):
    # integrate reuses one workspace from step to step; the states and
    # advection terms it yields must be its own, so a consumer may keep them
    # without a copy.  members == 0 steps a single field.
    fields = [_random_ss(square16, rng) for _ in range(max(members, 1))]
    coeff = np.stack([f.coefficients for f in fields]) if members else fields[0].coefficients
    cfg = SolverConfig(dt=1e-3, horizon=0.01)
    kept = [(theta, nl) for _, theta, nl, _ in integrate(SpectralField(square16, "SS", coeff), cfg)]
    assert len(kept) == cfg.n_steps + 1 == 11
    for i, field in enumerate(fields):
        traj = simulate(field, cfg)
        for (theta, nl), snap in zip(kept, traj.snapshots, strict=True):
            pick = (lambda c: c[i]) if members else (lambda c: c)
            assert np.array_equal(pick(theta.coefficients), snap.coefficients)
            assert np.array_equal(pick(nl.coefficients), nonlinear_term(snap).coefficients)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="measures glibc's release and refault of freed arrays")
def test_steps_reuse_their_buffers_instead_of_faulting_them_in():
    # At band (128, 128) a step works on the 192x192 projection grid; each
    # grid array (295 KB) lies above glibc's mmap threshold, so a step that
    # allocated its buffers afresh faulted ~700 pages back in every time.
    resource = pytest.importorskip("resource")
    domain = DomainSpec(math.pi, math.pi, 128, 128, 256, 256)
    steps = integrate(_random_ss(domain, np.random.default_rng(3)), SolverConfig(dt=1e-3, horizon=0.025))
    for _ in range(6):  # states 0..5: the workspace and caches are built
        next(steps)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):  # steps 5 -> 25
        next(steps)
    pages = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert pages < 20 * 20, f"{pages / 20:.0f} faulted pages per step"


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


def test_a_norm_that_overflows_is_not_a_blow_up():
    # A (1, 1) mode at 1e60 in a box of side 1e100: the sum of squares
    # overflows, but the norm, 1e60 (1e100 / 2) = 5e159, is finite and is
    # taken again scaled.
    cfg = SolverConfig(dt=1e-3, horizon=0.005)
    _, _, _, l2 = next(integrate(unit_mode(DomainSpec(1e100, 1e100, 16, 16, 32, 32), 1, 1, 1e60), cfg))
    assert l2 == pytest.approx(5e159, rel=1e-14)
    # A (1, 1) mode at 1e160 on a 1e300 x 1 rectangle: the coefficients stay
    # finite, and the step's products too, but the true norm,
    # 1e160 sqrt(1e300 / 4) = 5e309, overflows.  The norm is the finiteness
    # check, so it steps on with an inf norm; only non-finite coefficients
    # raise, naming their member.
    domain = DomainSpec(1e300, 1.0, 16, 16, 32, 32)
    huge = unit_mode(domain, 1, 1, 1e160).coefficients
    alone = list(integrate(SpectralField(domain, "SS", huge), cfg))
    assert len(alone) == cfg.n_steps + 1
    assert all(l2 == math.inf and np.all(np.isfinite(theta.coefficients)) for _, theta, _, l2 in alone)
    small = np.random.default_rng(5).uniform(-1.0, 1.0, huge.shape)
    for _, theta, _, l2 in integrate(SpectralField(domain, "SS", np.stack([huge, small])), cfg):
        assert l2[0] == math.inf and 0.0 < l2[1] < math.inf
    with pytest.raises(BlowUpError, match="in member 1 at") as info:
        for _ in integrate(SpectralField(domain, "SS", np.stack([huge, np.full_like(huge, np.nan)])), cfg):
            pass
    assert info.value.member == 1


def test_orthogonality_diagnostic_small(square16, rng):
    theta0 = _random_ss(square16, rng)
    traj = simulate(theta0, SolverConfig(dt=1e-3, horizon=0.01))
    assert max(traj.diag_orthogonality) <= 1e-12


def test_orthogonality_residual_survives_an_overflowing_pairing(square16, rng):
    # At amplitude 2^440 the norm (~2^440) is finite but the pairing
    # <N(theta), theta> (~2^1320) overflows; the residual, which scales with
    # the amplitude, is taken again of the scaled pair and stays finite.
    amplitude = 2.0**440
    _, theta, nl, l2 = next(integrate(_random_ss(square16, rng) * amplitude, SolverConfig(dt=1e-3, horizon=1e-3)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isfinite(l2) and not math.isfinite(spectral_inner(nl, theta))
    assert 0.0 <= _orthogonality_residual(nl, theta, l2) <= 1e-12 * amplitude


# -- trajectory record and persistence -------------------------------------


def test_snapshot_schedule(square16):
    theta0 = unit_mode(square16, 1, 1)
    traj = simulate(theta0, SolverConfig(dt=1e-3, horizon=0.01, snapshot_stride=4))
    # strides at 0,4,8 plus the forced final state
    np.testing.assert_allclose(traj.times, [0.0, 4e-3, 8e-3, 1e-2], atol=1e-15)
    assert snapshot_index(traj, 8e-3) == 2
    with pytest.raises(ValueError):
        snapshot_index(traj, 5e-3)


def test_written_trajectory_loads_back_as_simulate(tmp_path, square16, rng):
    # write_trajectory streams the states that simulate keeps in memory: the
    # directory must load back as simulate's record of the same input, bit for bit
    theta0 = _random_ss(square16, rng)
    config = SolverConfig(dt=1e-3, horizon=0.01, snapshot_stride=3)
    traj = simulate(theta0, config)
    count, l2, orth = write_trajectory(tmp_path / "run", theta0, config)
    back = load_trajectory(tmp_path / "run")
    assert back.domain == traj.domain
    assert back.config == traj.config
    assert count == len(traj.snapshots) == 5  # 0, 3, 6, 9 and the final step
    np.testing.assert_array_equal(back.times, traj.times)
    for a, b in zip(back.snapshots, traj.snapshots, strict=True):
        assert np.array_equal(a.coefficients, b.coefficients)
    want = (traj.diag_times, traj.diag_l2, traj.diag_orthogonality, traj.diag_l2, traj.diag_orthogonality)
    for got, ref in zip((back.diag_times, back.diag_l2, back.diag_orthogonality, l2, orth), want, strict=True):
        np.testing.assert_array_equal(got, ref)
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "diagnostics.csv", *(f"snapshot_{i:06d}.field" for i in range(5)), "trajectory.json"]
    # simulate's first snapshot is a copy: the caller's field stays its own
    assert traj.snapshots[0] is not theta0 and np.array_equal(traj.snapshots[0].coefficients, theta0.coefficients)
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
