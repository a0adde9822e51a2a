"""Dyadic profile, spectral multipliers, and the resolvent quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgbox import domain as domain_module
from sqgbox import multipliers
from sqgbox import (
    C0,
    DomainSpec,
    DyadicProfile,
    QuadratureSpec,
    SpectralField,
    dyadic_block,
    dyadic_table,
    eigenvalue,
    fractional_power,
    heat_semigroup,
    j_range,
    lambda_table,
    multiplier_table,
    partial_derivative,
    quadrature_nodes,
    resolvent,
    spectral_norm,
    sqrt_via_resolvent,
    synthesize_gradient,
    unit_mode,
)


def _random_ss(domain, rng, decay=1.0):
    lam = lambda_table(domain)
    coeff = rng.uniform(-1.0, 1.0, lam.shape) * lam ** (-decay / 2.0)
    return SpectralField(domain, "SS", coeff)


# -- profile ---------------------------------------------------------------


def test_chi_plateaus_and_interior():
    prof = DyadicProfile()
    s = np.array([0.25, 0.999, 1.0, 1.5, 2.0, 2.001, 64.0])
    chi = prof.chi(s)
    assert np.all(chi[:3] == 1.0)
    assert 0.0 < chi[3] < 1.0
    assert np.all(chi[4:] == 0.0)


def test_chi_is_monotone_on_transition():
    # high-order polyval leaves ~1e-11 round-off wiggle near the flat tail
    s = np.linspace(1.0, 2.0, 301)
    for k in range(1, 8):
        chi = DyadicProfile(k).chi(s)
        assert np.all(np.diff(chi) <= 1e-10)


def test_chi_endpoint_derivatives_vanish():
    # C^k matching: the one-sided slope at the edges is O(h^k), and at that
    # scale only; the constant covers the smoothstep leading coefficient
    h = 1e-3
    for k in (1, 2, 3):
        prof = DyadicProfile(k)
        for edge, inside in ((1.0, 1.0 + h), (2.0, 2.0 - h)):
            slope = abs(prof.chi(np.array([inside]))[0] - prof.chi(np.array([edge]))[0]) / h
            assert slope <= 200.0 * h**k
            assert slope > h ** (k + 1)


def test_phi_support():
    prof = DyadicProfile()
    s = np.array([0.49, 0.5, 2.0, 2.5])
    phi = prof.phi(s)
    assert np.all(phi == 0.0)
    interior = prof.phi(np.array([1.0]))
    assert interior[0] == 1.0  # chi(1)=1, chi(2)=0


def test_phi_telescopes_to_one():
    prof = DyadicProfile(3)
    s = np.geomspace(1.0, 100.0, 57)
    total = sum(prof.phi(s / 2.0**j) for j in range(-4, 12))
    np.testing.assert_allclose(total, 1.0, atol=1e-13)


def test_sharpness_validation():
    with pytest.raises(ValueError):
        DyadicProfile(0)
    with pytest.raises(ValueError):
        DyadicProfile(8)


def test_j_range_brackets_spectrum(square16):
    js = list(j_range(square16, (16, 16)))
    lam = lambda_table(square16)
    lo, hi = math.sqrt(lam.min()), math.sqrt(lam.max())
    assert 2.0 ** (js[0] + 1) <= lo
    assert 2.0 ** (js[-1] - 1) >= hi


# -- multipliers -----------------------------------------------------------


def test_heat_semigroup_single_mode(square16):
    f = unit_mode(square16, 2, 3)
    lam = eigenvalue(square16, 2, 3)
    out = heat_semigroup(f, 0.37)
    np.testing.assert_allclose(out.coefficients, math.exp(-0.37 * lam) * f.coefficients, rtol=1e-14)
    assert np.array_equal(heat_semigroup(f, 0.0).coefficients, f.coefficients)
    with pytest.raises(ValueError):
        heat_semigroup(f, -1e-3)


def test_heat_semigroup_composes(square16, rng):
    f = _random_ss(square16, rng)
    a = heat_semigroup(heat_semigroup(f, 0.1), 0.2)
    b = heat_semigroup(f, 0.3)
    np.testing.assert_allclose(a.coefficients, b.coefficients, rtol=1e-13)


def test_fractional_power_single_mode(square16):
    f = unit_mode(square16, 1, 1)
    out = fractional_power(f, 1.0)
    np.testing.assert_allclose(out.coefficients[0, 0], math.sqrt(2.0), rtol=1e-14)
    half = fractional_power(f, 0.5)
    np.testing.assert_allclose(half.coefficients[0, 0], 2.0**0.25, rtol=1e-14)


def test_fractional_power_inverts(square16, rng):
    f = _random_ss(square16, rng)
    back = fractional_power(fractional_power(f, 0.7), -0.7)
    np.testing.assert_allclose(back.coefficients, f.coefficients, rtol=1e-12)


def test_resolvent_identity(square16, rng):
    # R(mu) - R(nu) = (nu - mu) R(mu) (-Delta) R(nu)
    f = _random_ss(square16, rng)
    mu, nu = 0.3, 1.7
    lhs = resolvent(f, mu) - resolvent(f, nu)
    from sqgbox import laplacian

    rhs = resolvent(laplacian(resolvent(f, nu)), mu) * -(nu - mu)
    np.testing.assert_allclose(lhs.coefficients, rhs.coefficients, atol=1e-13)
    with pytest.raises(ValueError):
        resolvent(f, -0.1)


@pytest.mark.parametrize("multiplier", [heat_semigroup, fractional_power, resolvent])
def test_named_multipliers_require_ss(square16, rng, multiplier):
    fx = partial_derivative(_random_ss(square16, rng), 1)
    with pytest.raises(ValueError, match="SS fields only"):
        multiplier(fx, 0.5)


@pytest.mark.parametrize("multiplier, parameter", [
    (heat_semigroup, math.nan),
    (fractional_power, math.nan),
    (fractional_power, 1e3),  # sqrt(lambda) reaches ~22.6 at 16 modes: overflows
    (resolvent, math.nan),
])
def test_named_multipliers_reject_nonfinite_tables(square16, multiplier, parameter):
    f = unit_mode(square16, 1, 1)
    with pytest.raises(FloatingPointError, match="non-finite"):
        multiplier(f, parameter)


def test_multiplier_table_is_one_read_only_array_per_key(rng):
    domain = DomainSpec(1.25, 0.75, 11, 7, 23, 15)
    band = (11, 7)
    a = multiplier_table(domain, band, "heat", 1e-3)
    # integral band and parameter types of numpy give the same bits
    for kind, parameter in (("heat", 1e-3), ("power", -1.0), ("resolvent", 0.25)):
        np.testing.assert_array_equal(
            multiplier_table(domain, (np.int64(11), np.int32(7)), kind, np.float64(parameter)),
            multiplier_table(domain, band, kind, parameter),
        )
    np.testing.assert_array_equal(multiplier_table(domain, band, "power", np.int64(-1)),
                                  multiplier_table(domain, band, "power", -1.0))
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 1.0
    assert multiplier_table(domain, (11, 6), "heat", 1e-3).shape == (11, 6)
    with pytest.raises(ValueError, match="kind"):
        multiplier_table(domain, band, "sqrt", 1.0)
    for key in [
        (domain, band, "heat", 2e-3),
        (domain, band, "resolvent", 1e-3),
        (DomainSpec(1.25, 0.5, 11, 7, 23, 15), band, "heat", 1e-3),
    ]:
        assert not np.array_equal(multiplier_table(*key), a), key
    # each named multiplier scales by its table, whose weights are m(sqrt(lambda))
    s = np.sqrt(lambda_table(domain, band))
    f = SpectralField(domain, "SS", rng.uniform(-1.0, 1.0, (2,) + band))
    for multiplier, kind, parameter, weights in [
        (heat_semigroup, "heat", 1e-3, np.exp(-1e-3 * s * s)),
        (fractional_power, "power", -1.0, s**-1.0),
        (resolvent, "resolvent", 0.25, 1.0 / (1.0 + 0.25 * s * s)),
    ]:
        table = multiplier_table(domain, band, kind, parameter)
        np.testing.assert_array_equal(table, weights)
        np.testing.assert_array_equal(multiplier(f, parameter).coefficients, f.coefficients * table)


def test_block_multiplier_acts_on_sqrt_lambda(square16):
    f = unit_mode(square16, 2, 3)  # sqrt(lambda) = sqrt(13) ~ 3.6 -> shell j=1
    prof = DyadicProfile()
    b1 = dyadic_block(f, 1, prof)
    expected = prof.phi(np.array([math.sqrt(13.0) / 2.0]))[0]
    np.testing.assert_allclose(b1.coefficients[1, 2], expected, rtol=1e-13)


# -- dyadic block table ----------------------------------------------------


@pytest.mark.parametrize("sharpness", range(1, 8))
@pytest.mark.parametrize(
    "L1, L2, M1, M2",
    [(math.pi, math.pi, m, m) for m in (5, 8, 9, 16, 32, 40, 128)]
    + [(1.0, 2.0, 6, 10), (3.0, 0.5, 40, 9)],
)
def test_dyadic_table_rows_and_zero_spares(L1, L2, M1, M2, sharpness):
    domain = DomainSpec(L1, L2, M1, M2, M1, M2)
    prof = DyadicProfile(sharpness)
    table = dyadic_table(domain, domain.modes, prof)
    assert table.js == j_range(domain, domain.modes)
    assert table.weights.shape == (len(table.js), M1, M2)
    s = np.sqrt(lambda_table(domain))
    for i, j in enumerate(table.js):
        np.testing.assert_array_equal(table.weights[i], prof.phi(np.ldexp(s, -j)))
    # phi vanishes at the edges of its support, so the spare ends are zero.
    assert not np.any(table.weights[0]) and not np.any(table.weights[-1])
    assert table.live.tolist() == [False] + [True] * (len(table.js) - 2) + [False]


def test_dyadic_table_is_read_only_and_cached_per_key():
    domain = DomainSpec(1.25, 0.75, 11, 7, 23, 15)  # no other test uses this key
    info = dyadic_table.cache_info
    before = info()
    a = dyadic_table(domain, (11, 7), DyadicProfile(3))
    assert info().misses == before.misses + 1
    assert dyadic_table(domain, (11, 7), DyadicProfile(3)) is a
    assert info().misses == before.misses + 1 and info().hits == before.hits + 1
    assert not a.weights.flags.writeable and not a.live.flags.writeable
    with pytest.raises(ValueError):
        a.weights[1, 0, 0] = 1.0
    b = dyadic_table(domain, (11, 7), DyadicProfile(4))
    assert b is not a and not np.array_equal(a.weights, b.weights)
    assert info().misses == before.misses + 2


def test_no_cache_keeps_a_table_per_dilate():
    # A library caller sweeping 64 exact power-of-two dilates at one band and
    # grid: every lru_cache of domain and multipliers keeps at most 4 entries.
    caches = [c for mod in (domain_module, multipliers) for c in vars(mod).values() if hasattr(c, "cache_info")]
    for cache in caches:
        cache.cache_clear()
    for k in range(-32, 32):
        dilate = DomainSpec(math.ldexp(math.pi, k), math.ldexp(2.0, k), 8, 6, 12, 10)
        f = unit_mode(dilate, 2, 3)
        multiplier_table(dilate, f.band, "heat", 0.1)
        dyadic_table(dilate, f.band, DyadicProfile())
        synthesize_gradient(f)
        spectral_norm(partial_derivative(f, 1))  # CS parity: the weighted pairing
    sizes = {cache.__name__: cache.cache_info().currsize for cache in caches}
    assert max(sizes.values()) <= 4, sizes


@pytest.mark.parametrize("sharpness", [1, 2, 7])
def test_dyadic_block_is_bitwise_the_direct_multiplier(rect, rng, sharpness):
    f = _random_ss(rect, rng)
    prof = DyadicProfile(sharpness)
    js = j_range(rect, f.band)
    for j in range(js.start - 3, js.stop + 3):  # inside and outside the table
        direct = f.coefficients * prof.phi(np.ldexp(np.sqrt(lambda_table(f)), -j))
        np.testing.assert_array_equal(dyadic_block(f, j, prof).coefficients, direct)


def test_dyadic_blocks_stack_the_live_blocks(rect, rng):
    f = _random_ss(rect, rng)
    prof = DyadicProfile(2)
    table = dyadic_table(rect, f.band, prof)
    js, blocks = multipliers.dyadic_blocks(f, prof)
    assert js == [j for j, live in zip(table.js, table.live) if live]
    assert blocks.coefficients.shape == (len(js),) + f.coefficients.shape
    for j, row in zip(js, blocks.coefficients):
        np.testing.assert_array_equal(row, dyadic_block(f, j, prof).coefficients)
    # The blocks partition the resolved spectrum.
    np.testing.assert_allclose(blocks.coefficients.sum(axis=0), f.coefficients, rtol=1e-13, atol=1e-15)
    # A stacked input keeps its stack axes in front of the block axis.
    pair = SpectralField(rect, "SS", np.stack([f.coefficients, -f.coefficients]))
    _, pair_blocks = multipliers.dyadic_blocks(pair, prof)
    np.testing.assert_array_equal(pair_blocks.coefficients[1], -blocks.coefficients)


# -- quadrature ------------------------------------------------------------


def test_quadrature_nodes_integrate_log_exactly():
    spec = QuadratureSpec(16, 1e-4, 1e4)
    mu, w = quadrature_nodes(spec)
    # du/u is constant after the log substitution, so the rule is exact
    assert np.sum(w / mu) == pytest.approx(math.log(1e8), rel=1e-13)


def test_quadrature_nodes_integrate_power():
    spec = QuadratureSpec(32, 1e-3, 1e3)
    mu, w = quadrature_nodes(spec)
    got = np.sum(w * mu**-0.25)
    exact = (1e3**0.75 - 1e-3**0.75) / 0.75
    assert got == pytest.approx(exact, rel=1e-10)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(2, 1e-8, 1e8)
    with pytest.raises(ValueError):
        QuadratureSpec(8, 1e-2, 1e-3)


def test_sqrt_via_resolvent_single_mode(square16):
    f = unit_mode(square16, 1, 1)
    out, bound = sqrt_via_resolvent(f)
    assert out.coefficients[0, 0] == pytest.approx(math.sqrt(2.0), rel=1e-11)
    assert 0.0 < bound < 1e-9


def test_sqrt_via_resolvent_matches_fractional_power(square16, rng):
    f = _random_ss(square16, rng)
    out, _ = sqrt_via_resolvent(f)
    ref = fractional_power(f, 1.0)
    err = np.max(np.abs(out.coefficients - ref.coefficients)) / np.max(np.abs(ref.coefficients))
    assert err <= 1e-9


def test_resolvent_quadrature_matches_dense_sum(rect):
    # unit coefficients expose the multiplier; subtract the closed-form ends
    # to leave sum_k w_k mu_k^{-1/2} lam / (1 + mu_k lam) over the nodes
    spec = QuadratureSpec()
    f = SpectralField(rect, "SS", np.ones((rect.M1, rect.M2)))
    out, _ = sqrt_via_resolvent(f, spec)
    lam = lambda_table(f)
    head = 2.0 * math.sqrt(spec.mu_min) * lam - (2.0 / 3.0) * spec.mu_min**1.5 * lam**2
    tail = 2.0 / math.sqrt(spec.mu_max) - (2.0 / 3.0) * spec.mu_max**-1.5 / lam
    mu, w = quadrature_nodes(spec)
    ref = np.einsum("k,mnk->mn", w * mu**-0.5, lam[..., None] / (1.0 + mu * lam[..., None]))
    np.testing.assert_allclose(out.coefficients / C0 - head - tail, ref, rtol=1e-13)


def test_sqrt_bound_inf_when_bracket_misses(square16):
    f = unit_mode(square16, 1, 1)
    _, bound = sqrt_via_resolvent(f, QuadratureSpec(8, 1.0, 10.0))
    assert math.isinf(bound)


def test_sqrt_scalar_oracle():
    # one-mode domain with lambda = 2 pi^2: compare against sqrt directly
    from sqgbox import DomainSpec

    d = DomainSpec(1.0, 1.0, 1, 1, 4, 4)
    f = unit_mode(d, 1, 1)
    out, _ = sqrt_via_resolvent(f, QuadratureSpec(32, 1e-9, 1e9))
    assert out.coefficients[0, 0] == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-11)


def test_c0_value():
    assert C0 == pytest.approx(1.0 / math.pi, rel=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.26, 80.0))
def test_partition_property(s):
    prof = DyadicProfile(2)
    total = sum(prof.phi(np.array([s / 2.0**j]))[0] for j in range(-4, 10))
    assert abs(total - 1.0) <= 1e-12
