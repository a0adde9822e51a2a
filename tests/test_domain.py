"""Transforms, derivatives, norms, and field IO on the rectangle."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgbox import (
    DomainSpec,
    GridField,
    SpectralField,
    analyze,
    dealias_grid,
    eigenvalue,
    evaluate_at,
    full_band,
    grid_points,
    inner_product,
    lambda_table,
    laplacian,
    lp_norm,
    partial_derivative,
    pointwise_product,
    product_parity,
    projection_grid,
    read_field,
    spectral_inner,
    spectral_norm,
    synthesize,
    synthesize_gradient,
    unit_mode,
    write_field,
)

PI = math.pi


def _random_field(domain, parity, rng, band=None):
    b1, b2 = band if band is not None else (domain.M1, domain.M2)
    r1 = b1 if parity[0] == "S" else b1 + 1
    r2 = b2 if parity[1] == "S" else b2 + 1
    return SpectralField(domain, parity, rng.standard_normal((r1, r2)))


# -- eigenvalues -----------------------------------------------------------


def test_eigenvalue_oracle_square(square16):
    assert eigenvalue(square16, 1, 1) == pytest.approx(2.0, rel=1e-14)
    assert eigenvalue(square16, 2, 3) == pytest.approx(13.0, rel=1e-14)


def test_eigenvalue_oracle_rect(rect):
    # lambda = pi^2 (m^2/L1^2 + n^2/L2^2), L1=1, L2=2
    assert eigenvalue(rect, 3, 4) == pytest.approx(PI**2 * (9.0 + 4.0), rel=1e-14)


def test_eigenvalue_outside_band_raises(square16):
    with pytest.raises(IndexError):
        eigenvalue(square16, 17, 1)
    with pytest.raises(IndexError):
        eigenvalue(square16, 0, 1)


def test_lambda_table_matches_eigenvalue(rect):
    tab = lambda_table(rect)
    for m, n in [(1, 1), (2, 5), (6, 10)]:
        assert tab[m - 1, n - 1] == pytest.approx(eigenvalue(rect, m, n), rel=1e-15)
    with pytest.raises(ValueError):
        tab[0, 0] = 3.0


# -- synthesis and analysis ------------------------------------------------


def test_unit_mode_matches_sine_product(square16):
    f = unit_mode(square16, 2, 3, 1.5)
    x, y = grid_points(square16)
    expected = 1.5 * np.sin(2 * x)[:, None] * np.sin(3 * y)[None, :]
    np.testing.assert_allclose(synthesize(f).values, expected, atol=1e-14)


@pytest.mark.parametrize("parity", ["SS", "SC", "CS", "CC"])
def test_round_trip_identity(square16, rect, parity, rng):
    for domain in (square16, rect):
        f = _random_field(domain, parity, rng)
        back = analyze(synthesize(f), parity)
        np.testing.assert_allclose(back.coefficients, f.coefficients, atol=1e-11)


def test_analyze_band_exceeding_grid_raises(square16):
    g = synthesize(unit_mode(square16, 1, 1))
    with pytest.raises(ValueError):
        analyze(g, "SS", modes=(33, 4))


def test_full_band_shapes():
    assert full_band((32, 32), "SS") == (32, 32)
    # cosine axes store modes 0..b, so the sine-band label is one less
    assert full_band((32, 32), "CC") == (31, 31)
    assert full_band((20, 10), "SC") == (20, 9)


def test_evaluate_at_matches_synthesis(rect, rng):
    f = _random_field(rect, "SC", rng)
    x, y = grid_points(rect)
    vals = evaluate_at(f, x, y)
    np.testing.assert_allclose(vals, synthesize(f).values, atol=1e-12)


# -- derivatives -----------------------------------------------------------


def test_derivative_single_mode_exact(square16):
    # d/dx [sin 2x sin 3y] = 2 cos 2x sin 3y
    f = unit_mode(square16, 2, 3)
    fx = partial_derivative(f, 1)
    assert fx.parity == "CS"
    x, y = grid_points(square16)
    expected = 2.0 * np.cos(2 * x)[:, None] * np.sin(3 * y)[None, :]
    np.testing.assert_allclose(synthesize(fx).values, expected, atol=1e-12)


def test_derivative_parity_and_shape(square16, rng):
    f = _random_field(square16, "SS", rng)
    fx = partial_derivative(f, 1)
    fy = partial_derivative(f, 2)
    assert fx.parity == "CS" and fx.coefficients.shape == (17, 16)
    assert fy.parity == "SC" and fy.coefficients.shape == (16, 17)
    assert partial_derivative(fx, 1).parity == "SS"


def test_derivative_matches_finite_difference(rect, rng):
    f = _random_field(rect, "SS", rng, band=(4, 6))
    fx = partial_derivative(f, 1)
    fy = partial_derivative(f, 2)
    pts_x = np.array([0.21, 0.5, 0.83])
    pts_y = np.array([0.3, 1.1, 1.7])
    h = 1e-6
    fd_x = (evaluate_at(f, pts_x + h, pts_y) - evaluate_at(f, pts_x - h, pts_y)) / (2 * h)
    fd_y = (evaluate_at(f, pts_x, pts_y + h) - evaluate_at(f, pts_x, pts_y - h)) / (2 * h)
    np.testing.assert_allclose(evaluate_at(fx, pts_x, pts_y), fd_x, atol=1e-7, rtol=1e-7)
    np.testing.assert_allclose(evaluate_at(fy, pts_x, pts_y), fd_y, atol=1e-7, rtol=1e-7)


def test_laplacian_eigenrelation(rect):
    f = unit_mode(rect, 2, 7, -0.4)
    lap = laplacian(f)
    assert lap.parity == "SS"
    np.testing.assert_allclose(
        lap.coefficients, -eigenvalue(rect, 2, 7) * f.coefficients, rtol=1e-13
    )


def test_mixed_partials_commute(square16, rng):
    f = _random_field(square16, "SS", rng)
    a = partial_derivative(partial_derivative(f, 1), 2)
    b = partial_derivative(partial_derivative(f, 2), 1)
    np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-12)


# -- gradient synthesis ----------------------------------------------------


@pytest.mark.parametrize("band", [(7, 12), (12, 7), (33, 20)])
def test_gradient_synthesis_matches_the_field_level_composition(rng, band):
    # The folded tables carry m pi / L per axis: on a pi x 2 rectangle with
    # b1 != b2, a scale or a table taken along the wrong axis fails.  The
    # scales enter the product in another order, so agreement is to round-off.
    b1, b2 = band
    domain = DomainSpec(PI, 2.0, b1, b2, 2 * b1, 2 * b2)
    f = SpectralField(domain, "SS", rng.uniform(-1.0, 1.0, band))
    for grid in (dealias_grid(band), projection_grid(band), (2 * b1 + 3, 2 * b2 - 1)):
        got = synthesize_gradient(f, grid)
        assert got.shape == (2, *grid)
        for axis in (1, 2):
            want = synthesize(partial_derivative(f, axis), grid).values
            assert np.max(np.abs(got[axis - 1] - want)) <= 1e-14 * np.max(np.abs(want))
    with pytest.raises(ValueError, match="SS"):
        synthesize_gradient(partial_derivative(f, 1))


@pytest.mark.parametrize("band", [(7, 12), (33, 20)])
def test_gradient_synthesis_gives_stack_members_their_bits(rng, band):
    b1, b2 = band
    domain = DomainSpec(PI, 2.0, b1, b2, 2 * b1, 2 * b2)
    stack = SpectralField(domain, "SS", rng.uniform(-1.0, 1.0, (2, 3, b1, b2)))
    for grid in (dealias_grid(band), projection_grid(band)):
        got = synthesize_gradient(stack, grid)
        assert got.shape == (2, 2, 3, *grid)
        for i in np.ndindex(2, 3):
            alone = synthesize_gradient(SpectralField(domain, "SS", stack.coefficients[i].copy()), grid)
            assert np.array_equal(got[(slice(None), *i)], alone)


# -- norms and inner products ----------------------------------------------


def test_l2_norm_oracle_single_mode(square16):
    # ||sin x sin y||_2 = pi/2 on the pi-square
    f = unit_mode(square16, 1, 1)
    assert spectral_norm(f) == pytest.approx(PI / 2, rel=1e-14)
    assert lp_norm(synthesize(f), 2) == pytest.approx(PI / 2, rel=1e-12)


def test_inner_product_oracle(square16):
    f = unit_mode(square16, 1, 1)
    assert spectral_inner(f, f) == pytest.approx(PI**2 / 4, rel=1e-14)
    assert inner_product(synthesize(f), synthesize(f)) == pytest.approx(PI**2 / 4, rel=1e-12)


def test_grid_l2_matches_parseval_for_sine_fields(rect, rng):
    f = _random_field(rect, "SS", rng)
    assert lp_norm(synthesize(f), 2) == pytest.approx(spectral_norm(f), rel=1e-12)


def test_modes_are_orthogonal(square16):
    a = unit_mode(square16, 1, 2)
    b = unit_mode(square16, 2, 1)
    assert abs(spectral_inner(a, b)) <= 1e-14


def test_l1_and_sup_norms_single_mode(square16):
    g = synthesize(unit_mode(square16, 1, 1))
    # int |sin x sin y| = 4; interior-point quadrature is O(h^2) here
    assert lp_norm(g, 1) == pytest.approx(4.0, rel=5e-3)
    assert lp_norm(g, math.inf) == pytest.approx(1.0, rel=5e-3)


def test_lp_norm_rejects_bad_exponent(square16):
    g = synthesize(unit_mode(square16, 1, 1))
    with pytest.raises(ValueError):
        lp_norm(g, 0.5)


def _direct_lp(g, p):
    # exactly rounded sum of libm powers, independent of numpy's kernels
    h1, h2 = g.weights
    return (h1 * h2 * math.fsum(abs(x) ** p for x in g.values.ravel())) ** (1.0 / p)


def test_lp_norm_generic_p_matches_direct_sum(rect, rng):
    g = GridField(rect, rng.standard_normal((33, 57)))
    for p in (1.7, 3.0, 6.0):
        assert lp_norm(g, p) == pytest.approx(_direct_lp(g, p), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.floats(1.0, 6.0))
def test_lp_norm_generic_p_property(n1, n2, p):
    domain = DomainSpec(1.0, 1.3, 1, 1, 8, 8)
    g = GridField(domain, np.random.default_rng([n1, n2]).uniform(-2.0, 2.0, (n1, n2)))
    assert lp_norm(g, p) == pytest.approx(_direct_lp(g, p), rel=1e-12)


@pytest.mark.parametrize("amplitude", [10.0, 1e-3, 0.158])
def test_lp_norm_at_large_p_is_scaled_past_under_and_overflow(square16, amplitude):
    # Unscaled, sum |v|^400 overflows for an amplitude-10 mode, underflows
    # for amplitude 1e-3, and is subnormal (~4e-323, a few significant bits,
    # root off by 6e-5) for amplitude 0.158.  The continuum norm of a sin(x) sin(y) on the pi
    # square is a (int_0^pi sin^p)^(2/p), with
    # int_0^pi sin^p = sqrt(pi) Gamma((p+1)/2) / Gamma(p/2+1).
    p = 400.0
    unit = synthesize(unit_mode(square16, 1, 1), (64, 64))
    g = synthesize(unit_mode(square16, 1, 1, amplitude), (64, 64))
    got = lp_norm(g, p)
    assert got == pytest.approx(amplitude * lp_norm(unit, p), rel=1e-14)
    log_integral = 0.5 * math.log(math.pi) + math.lgamma((p + 1) / 2) - math.lgamma(p / 2 + 1)
    assert got == pytest.approx(amplitude * math.exp(2.0 / p * log_integral), rel=1e-3)
    # each member of a stack keeps its bits; an all-zero field stays 0
    stack = GridField(square16, np.stack([g.values, 0.0 * g.values, unit.values]))
    assert list(lp_norm(stack, p)) == [got, 0.0, lp_norm(unit, p)]


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0, 6.0, 7.25])
def test_lp_norm_powers_match_the_libm_sum(rect, rng, p):
    # p = 1.5 ... 6 take |v|^p from products and one sqrt, p = 7.25 np.power;
    # both stay at round-off from libm's pow (measured <= 2.3e-16)
    stack = GridField(rect, rng.standard_normal((2, 3, 33, 57)) * rng.uniform(0.1, 10.0, (2, 3, 1, 1)))
    norms = lp_norm(stack, p)
    assert norms.shape == (2, 3)
    for i in np.ndindex(2, 3):
        one = GridField(rect, stack.values[i].copy())
        alone = lp_norm(one, p)
        assert type(alone) is float
        assert norms[i] == alone  # each member keeps the bits it gets alone
        assert alone == pytest.approx(_direct_lp(one, p), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("scale", [1e120, 1e-120])
def test_lp_norm_product_power_is_scaled_past_under_and_overflow(rect, rng, scale):
    # |v|^3 overflows at 1e120 and underflows to 0 at 1e-120: without the
    # scaled fallback the norm would be inf or 0
    unit = GridField(rect, rng.standard_normal((33, 57)))
    got = lp_norm(GridField(rect, unit.values * scale), 3.0)
    assert got == pytest.approx(scale * lp_norm(unit, 3.0), rel=1e-14)
    # The fallback cubes the scaled field by products too, so its bits do not
    # depend on which pow kernel numpy dispatches.  The cube root hides a
    # one-ulp change of the sum in about two of three fields, so 16 are checked.
    g = GridField(rect, rng.standard_normal((16, 33, 57)) * scale)
    h1, h2 = g.weights
    for values, norm in zip(g.values, lp_norm(g, 3.0), strict=True):
        top = float(np.abs(values).max())
        a = np.abs(values) / top
        assert norm == top * (h1 * h2) ** (1.0 / 3.0) * float((a * (a * a)).sum()) ** (1.0 / 3.0)


def test_lp_norm_at_huge_and_fractional_p_keeps_np_power():
    # p = 1e308 (2p is infinite) and p = 7.25 stay on np.power, bit for bit
    # on any numpy kernel; the literals are the values before the product path
    domain = DomainSpec(1.0, 1.3, 1, 1, 8, 8)
    g = GridField(domain, np.random.default_rng(7).uniform(-2.0, 2.0, (13, 11)))
    h1, h2 = g.weights
    a = np.abs(g.values)
    top = float(a.max())
    huge = 1e308
    assert lp_norm(g, huge) == top * (h1 * h2) ** (1.0 / huge) * float(np.power(a / top, huge).sum()) ** (1.0 / huge)
    assert lp_norm(g, huge) == pytest.approx(1.9850630317916962, rel=1e-15)
    assert lp_norm(g, 7.25) == (h1 * h2 * np.power(a, 7.25).sum()) ** (1.0 / 7.25)
    assert lp_norm(g, 7.25) == pytest.approx(1.5274582237336134, rel=1e-15)


def test_norm_scaling(square16, rng):
    f = _random_field(square16, "SS", rng)
    assert spectral_norm(f * -2.5) == pytest.approx(2.5 * spectral_norm(f), rel=1e-14)


# -- stacks ----------------------------------------------------------------


@pytest.mark.parametrize("parity", ["SS", "SC", "CS", "CC"])
@pytest.mark.parametrize("grid", [(12, 16), (13, 11)])
def test_stacked_transforms_and_norms_match_field_by_field(rect, rng, parity, grid):
    # A stack must give every field the same bits it gets alone: reports
    # built from stacked blocks stay byte-identical to single-field runs.
    shape = _random_field(rect, parity, rng).coefficients.shape
    stack = SpectralField(rect, parity, rng.standard_normal((2, 3) + shape))
    singles = {i: SpectralField(rect, parity, stack.coefficients[i].copy()) for i in np.ndindex(2, 3)}

    def check(stacked, single, get):
        assert get(stacked).shape[:2] == (2, 3)
        for i, f in singles.items():
            np.testing.assert_array_equal(get(stacked)[i], get(single(f)))

    values = synthesize(stack, grid)
    check(values, lambda f: synthesize(f, grid), lambda g: g.values)
    check(analyze(values, parity), lambda f: analyze(synthesize(f, grid), parity), lambda f: f.coefficients)
    for axis in (1, 2):
        deriv = partial_derivative(stack, axis)
        check(deriv, lambda f: partial_derivative(f, axis), lambda f: f.coefficients)
        check(synthesize(deriv, grid), lambda f: synthesize(partial_derivative(f, axis), grid), lambda g: g.values)
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        norms = lp_norm(values, p)
        for i, f in singles.items():
            single = lp_norm(synthesize(f, grid), p)
            assert type(single) is float
            np.testing.assert_array_equal(norms[i], single)
    with pytest.raises(ValueError):  # a stack has no single pairing
        inner_product(values, values)


@pytest.mark.parametrize("band", [(8, 8), (128, 128)])
@pytest.mark.parametrize("axis", [1, 2])
def test_pair_stack_synthesis_gives_members_the_bits_of_their_layout(rng, band, axis):
    # A (2, K, r1, r2) stack of derivatives has the layouts
    # partial_derivative returns: C-contiguous for the CS derivative along
    # axis 1, the transpose of a C-contiguous array for the SC derivative
    # along axis 2.  Each member then has the layout of its single-field call
    # and gets that call's bits; the bits of a synthesis follow the layout
    # of its input, so this is the condition under which the stack claim
    # holds.
    b1, b2 = band
    domain = DomainSpec(PI, 2.0, b1, b2, 2 * b1, 2 * b2)
    states = SpectralField(domain, "SS", rng.standard_normal((2, 3, b1, b2)))
    pair = partial_derivative(states, axis).coefficients
    grid = projection_grid(band)
    values = synthesize(SpectralField(domain, "CS" if axis == 1 else "SC", pair), grid).values
    for i in np.ndindex(2, 3):
        alone = partial_derivative(SpectralField(domain, "SS", states.coefficients[i].copy()), axis)
        assert alone.coefficients.strides == pair[i].strides
        assert np.array_equal(values[i], synthesize(alone, grid).values)


@pytest.mark.parametrize("parity", ["SS", "SC", "CS", "CC"])
def test_spectral_inner_and_norm_broadcast_over_stacks(rect, rng, parity):
    # One field gives a float; a stack gives an array over its stack axes,
    # each member with the bits it gets alone (the solver's per-member
    # diagnostics of an ensemble depend on it).  At band (128, 128) a member
    # has ~16k coefficients, where OpenBLAS may split one dot over threads.
    for domain in (rect, DomainSpec(1.0, 2.0, 128, 128, 128, 128)):
        shape = _random_field(domain, parity, rng).coefficients.shape
        a = SpectralField(domain, parity, rng.standard_normal((4, 5) + shape))
        b = SpectralField(domain, parity, rng.standard_normal((4, 5) + shape))
        inner, norm = spectral_inner(a, b), spectral_norm(a)
        assert inner.shape == norm.shape == (4, 5)
        for i in np.ndindex(4, 5):
            fa = SpectralField(domain, parity, a.coefficients[i].copy())
            fb = SpectralField(domain, parity, b.coefficients[i].copy())
            single_inner, single_norm = spectral_inner(fa, fb), spectral_norm(fa)
            assert type(single_inner) is float and type(single_norm) is float
            assert inner[i] == single_inner
            assert norm[i] == single_norm
        with pytest.raises(ValueError):  # stacks must have matching shapes
            spectral_inner(a, SpectralField(domain, parity, b.coefficients[0]))


def _fsum_inner(f, g):
    # exactly rounded sum of the weighted products, independent of BLAS
    L1, L2 = f.domain.lengths
    w1 = [L1 if (f.parity[0] == "C" and i == 0) else L1 / 2 for i in range(f.coefficients.shape[0])]
    w2 = [L2 if (f.parity[1] == "C" and j == 0) else L2 / 2 for j in range(f.coefficients.shape[1])]
    return math.fsum(
        x * y * w1[i] * w2[j]
        for (i, j), x, y in zip(np.ndindex(f.coefficients.shape), f.coefficients.ravel(), g.coefficients.ravel())
    )


@pytest.mark.parametrize("band", [(8, 8), (7, 12), (128, 128)])
@pytest.mark.parametrize("parity", ["SS", "SC", "CS", "CC"])
def test_spectral_inner_matches_the_fsum_reference(rng, parity, band):
    domain = DomainSpec(PI, 2.0, *band, *band)
    a = _random_field(domain, parity, rng, band)
    b = _random_field(domain, parity, rng, band)
    tol = 1e-15 * spectral_norm(a) * spectral_norm(b)
    assert abs(spectral_inner(a, b) - _fsum_inner(a, b)) <= tol
    assert spectral_norm(a) == pytest.approx(math.sqrt(_fsum_inner(a, a)), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("grid", [(33, 57), (128, 128), (256, 256)])
def test_grid_pairings_keep_the_bits_of_one_dot(rect, rng, grid):
    # inner_product and lp_norm at p = 2 take the sums np.vdot takes, on
    # either side of the size where OpenBLAS may thread the dot
    a, b = (GridField(rect, rng.standard_normal(grid)) for _ in range(2))
    h1, h2 = a.weights
    assert inner_product(a, b) == float(h1 * h2 * np.vdot(a.values, b.values))
    assert lp_norm(a, 2) == math.sqrt(h1 * h2 * np.vdot(a.values, a.values))
    stack = GridField(rect, np.stack([b.values, a.values]))
    assert list(lp_norm(stack, 2)) == [lp_norm(b, 2), lp_norm(a, 2)]


# -- products --------------------------------------------------------------


def test_product_parity_table():
    assert product_parity("SS", "SS") == "CC"
    assert product_parity("SS", "CC") == "SS"
    assert product_parity("SC", "CS") == "SS"
    assert product_parity("SC", "SC") == "CC"


def test_dealias_grid_formula():
    assert dealias_grid((8, 6)) == (17, 13)


def test_projection_grid_formula():
    assert projection_grid((8, 5)) == (12, 7)
    assert projection_grid((1, 2)) == (1, 3)


@pytest.mark.parametrize("band", [(8, 5), (5, 8)])
def test_projection_grid_is_smallest_exact_grid(rect, rng, band):
    # SC x CS is an SS-parity product of band 2b; its SS projection onto b is
    # exact on floor(3b/2) points per axis and aliased one point below
    f = _random_field(rect, "SC", rng, band=band)
    g = _random_field(rect, "CS", rng, band=band)

    def projected(grid):
        return analyze(pointwise_product(f, g, grid), "SS", modes=band).coefficients

    ref = projected((3 * band[0] + 1, 3 * band[1] + 1))
    scale = np.max(np.abs(ref))
    n1, n2 = projection_grid(band)
    assert np.max(np.abs(projected((n1, n2)) - ref)) <= 1e-12 * scale
    for grid in ((n1 - 1, n2), (n1, n2 - 1)):
        assert np.max(np.abs(projected(grid) - ref)) > 1e-3 * scale


def test_in_span_product_is_exact(square16):
    # sin^2 x sin^2 y = (1-cos 2x)(1-cos 2y)/4 lies in the cosine span
    f = unit_mode(square16, 1, 1)
    grid = dealias_grid(f.band)
    prod = analyze(pointwise_product(f, f, grid), "CC", modes=full_band(grid, "CC"))
    xs = np.array([0.3, 0.9, 2.2])
    ys = np.array([0.5, 1.4, 2.9])
    direct = evaluate_at(f, xs, ys) ** 2
    np.testing.assert_allclose(evaluate_at(prod, xs, ys), direct, atol=1e-12)


def test_product_of_derivative_pair_is_exact(rect, rng):
    f = _random_field(rect, "SS", rng, band=(3, 4))
    g = _random_field(rect, "SS", rng, band=(4, 3))
    fx = partial_derivative(f, 1)  # CS
    gy = partial_derivative(g, 2)  # SC
    band = (max(fx.band[0], gy.band[0]), max(fx.band[1], gy.band[1]))
    grid = dealias_grid(band)
    prod = analyze(pointwise_product(fx, gy, grid), "SS", modes=full_band(grid, "SS"))
    xs = np.array([0.11, 0.76])
    ys = np.array([0.4, 1.9])
    np.testing.assert_allclose(
        evaluate_at(prod, xs, ys),
        evaluate_at(fx, xs, ys) * evaluate_at(gy, xs, ys),
        atol=1e-11,
    )


# -- validation ------------------------------------------------------------


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSpec(-1.0, 1.0, 4, 4, 8, 8)
    with pytest.raises(ValueError):
        DomainSpec(1.0, 1.0, 0, 4, 8, 8)
    with pytest.raises(ValueError):
        DomainSpec(1.0, 1.0, 9, 4, 8, 8)  # grid cannot resolve the band
    for bad in [(math.inf, 1.0, 4, 4, 8, 8), (1.0, math.nan, 4, 4, 8, 8), (1.0, 1.0, True, 4, 8, 8),
                (1.0, 1.0, 4, 4.5, 8, 8), (1.0, 1.0, 4, 4, 8.0, 8)]:
        with pytest.raises(ValueError):
            DomainSpec(*bad)


def test_field_validation(square16):
    with pytest.raises(ValueError):
        SpectralField(square16, "XX", np.zeros((4, 4)))
    with pytest.raises(ValueError):
        SpectralField(square16, "SS", np.zeros((4,)))


def test_mismatched_domains_rejected(square16, rect):
    a = unit_mode(square16, 1, 1)
    b = unit_mode(rect, 1, 1)
    with pytest.raises(ValueError):
        _ = a + b


# -- field IO --------------------------------------------------------------


def test_field_io_round_trip_bit_exact(tmp_path, rect, rng):
    f = _random_field(rect, "CS", rng)
    path = tmp_path / "state.field"
    write_field(path, f)
    g = read_field(path)
    assert g.parity == f.parity
    assert g.domain == f.domain
    assert np.array_equal(g.coefficients, f.coefficients)  # bitwise


def test_field_io_header_is_single_json_line(tmp_path, square16):
    path = tmp_path / "state.field"
    write_field(path, unit_mode(square16, 1, 1))
    with open(path, "rb") as fh:
        header = fh.readline()
    meta = json.loads(header)
    assert meta["parity"] == "SS"
    assert meta["dtype"] == "f64"
    assert meta["layout"] == "row-major"
    assert list(meta) == sorted(meta)


def test_field_io_rejects_truncated_payload(tmp_path, square16):
    path = tmp_path / "state.field"
    write_field(path, unit_mode(square16, 1, 1))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        read_field(path)


@settings(max_examples=25, deadline=None)
@given(
    parity=st.sampled_from(["SS", "SC", "CS", "CC"]),
    b1=st.integers(1, 6),
    b2=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_round_trip_property(parity, b1, b2, seed):
    domain = DomainSpec(1.0, 1.3, 6, 6, 13, 13)
    rng = np.random.default_rng(seed)
    r1 = b1 if parity[0] == "S" else b1 + 1
    r2 = b2 if parity[1] == "S" else b2 + 1
    f = SpectralField(domain, parity, rng.standard_normal((r1, r2)))
    back = analyze(synthesize(f), parity, modes=(b1, b2))
    np.testing.assert_allclose(back.coefficients, f.coefficients, atol=1e-10)
