"""Besov norms over dyadic blocks and their per-block rows."""

import math
import sys

import numpy as np
import pytest

from sqgbox import (
    BesovParams,
    DomainSpec,
    DyadicProfile,
    SpectralField,
    besov_aggregate,
    besov_norm,
    dyadic_block,
    j_range,
    lambda_table,
    lp_norm,
    synthesize,
    unit_mode,
)


def _random_ss(domain, rng, decay=1.0):
    lam = lambda_table(domain)
    coeff = rng.uniform(-1.0, 1.0, lam.shape) * lam ** (-decay / 2.0)
    return SpectralField(domain, "SS", coeff)


def test_params_validation():
    with pytest.raises(ValueError):
        BesovParams(2.5, 2.0, 2.0)
    with pytest.raises(ValueError):
        BesovParams(0.5, 0.5, 2.0)
    BesovParams(-1.9, 1.0, math.inf)


def test_single_mode_oracle(square16):
    # blocks of one mode are scalar multiples, so the norm reduces to
    # the weighted l^q sum of phi values times the block L^p norm
    f = unit_mode(square16, 2, 3)
    prof = DyadicProfile()
    s, p, q = 0.5, 2.0, 2.0
    sqrt_lam = math.sqrt(13.0)
    expected_q = 0.0
    for j in j_range(square16, f.band):
        w = prof.phi(np.array([sqrt_lam / 2.0**j]))[0]
        if w == 0.0:
            continue
        expected_q += (2.0 ** (j * s) * w * lp_norm(synthesize(f), p)) ** q
    value, rows = besov_norm(f, BesovParams(s, p, q), prof)
    assert value == pytest.approx(expected_q ** (1.0 / q), rel=1e-12)
    assert all(type(j) is int and type(bn) is float and type(term) is float for j, bn, term in rows)


def _per_block_reference(f, params, prof, grid):
    """The block-by-block definition: dyadic_block, synthesize, lp_norm, l^q."""
    rows = []
    for j in j_range(f.domain, f.band):
        bn = lp_norm(synthesize(dyadic_block(f, j, prof), grid), params.p)
        rows.append((j, bn, 2.0 ** (j * params.s) * bn))
    terms = [t for _, _, t in rows]
    value = max(terms) if math.isinf(params.q) else sum(t**params.q for t in terms) ** (1.0 / params.q)
    return value, rows


@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("grid", [None, (41, 57)], ids=["domain-grid", "refined-grid"])
def test_besov_norm_matches_per_block_reference(rect, p, q, grid):
    f = _random_ss(rect, np.random.default_rng([5, int(10 * min(p, 9)), int(min(q, 9))]))
    prof = DyadicProfile(3)
    params = BesovParams(0.5, p, q)
    value, rows = besov_norm(f, params, prof, grid)
    ref_value, ref_rows = _per_block_reference(f, params, prof, grid)
    assert value == pytest.approx(ref_value, rel=1e-12)
    assert [r[0] for r in rows] == [r[0] for r in ref_rows]
    for (_, bn, term), (_, ref_bn, ref_term) in zip(rows, ref_rows):
        assert bn == pytest.approx(ref_bn, rel=1e-12, abs=0.0)
        assert term == pytest.approx(ref_term, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, math.inf])
@pytest.mark.parametrize("s", [-0.9, 0.5, 1.9])
def test_stacked_aggregate_matches_scalar_rows_bit_for_bit(s, q):
    # 9 blocks at 32 modes, so numpy's unrolled pairwise sum runs on each row
    js = j_range(DomainSpec.square(math.pi, 32), (32, 32))
    assert len(js) == 9
    rng = np.random.default_rng(17)
    stack = rng.uniform(0.0, 2.0, (5, 4, len(js))) * 10.0 ** rng.integers(-8, 8, (5, 4, 1))
    stack[..., 0] = stack[..., -1] = 0.0  # the spare blocks
    stack[0, 0] = 0.0
    values, terms = besov_aggregate(js, stack, s, q)
    assert values.shape == (5, 4) and terms.shape == stack.shape
    for idx in np.ndindex(5, 4):
        value, row_terms = besov_aggregate(js, stack[idx], s, q)
        assert isinstance(value, float) and values[idx] == value
        assert np.array_equal(terms[idx], row_terms)
        # the scalar formula this aggregation replaced
        ref_terms = np.array([2.0 ** (j * s) for j in js]) * stack[idx]
        ref = float(ref_terms.max()) if math.isinf(q) else float(np.sum(ref_terms**q) ** (1.0 / q))
        assert value == ref


def test_besov_norm_at_large_p_neither_underflows_nor_overflows(square16):
    # Unscaled, sum |v|^p underflows to 0 at p = 2000 for the unit mode's
    # blocks (values below 1) and overflows at amplitude 1e3.
    f = unit_mode(square16, 1, 1)
    small, _ = besov_norm(f, BesovParams(0.5, 2000.0, math.inf))
    large, _ = besov_norm(f * 1e3, BesovParams(0.5, 2000.0, math.inf))
    moderate, _ = besov_norm(f, BesovParams(0.5, 1000.0, math.inf))
    assert 0.0 < small < math.inf
    assert large == pytest.approx(1e3 * small, rel=1e-12)
    assert small == pytest.approx(moderate, rel=1e-2)


@pytest.mark.parametrize("q", [2.0, 400.0, 1e308])
def test_besov_norm_is_rescued_past_both_ends_of_the_range(rect, rng, q):
    # The l^q sum of terms near 1e+-200 overflows or underflows at each q
    # here (at q = 1e308 for any terms but 1); its root is taken again
    # scaled by the row's largest term.
    f = _random_ss(rect, rng)
    params = BesovParams(0.5, 2.0, q)
    value, _ = besov_norm(f, params)
    for scale in (1e200, 1e-200):
        assert besov_norm(f * scale, params)[0] == pytest.approx(scale * value, rel=1e-14)
    # each row of a stack keeps the bits it gets alone; a zero row reads 0,
    # and a row of three largest floats reads inf where its true norm
    # max 3^{1/q} overflows (at q = 1e308 it rounds to max)
    big = sys.float_info.max
    rows = np.array([[1e200, 3e200, 2e200], [1.0, 3.0, 2.0], [0.0, 0.0, 0.0], [big, big, big]])
    values, _ = besov_aggregate(range(3), rows, 0.0, q)
    alone = [besov_aggregate(range(3), row, 0.0, q)[0] for row in rows]
    assert values.tolist() == alone
    assert alone[0] == pytest.approx(1e200 * alone[1], rel=1e-14)
    assert alone[2:] == [0.0, math.inf if q < 1e308 else big]


def test_spare_blocks_read_exactly_zero(rect, rng):
    f = _random_ss(rect, rng)
    js = j_range(rect, f.band)
    _, rows = besov_norm(f, BesovParams(-0.5, 3.0, 2.0))
    assert [r[0] for r in rows] == list(js)
    assert rows[0] == (js[0], 0.0, 0.0)
    assert rows[-1] == (js[-1], 0.0, 0.0)
    assert all(bn > 0.0 for _, bn, _ in rows[1:-1])


@pytest.mark.parametrize("q", [1.0, 1.5, math.inf])
def test_rows_reassemble_the_norm(rect, rng, q):
    # the rows a report writes carry the norm: each weighted term is 2^{js}
    # times its block norm, and their l^q sum (max for q = inf) is the value
    f = _random_ss(rect, rng)
    s = 0.7
    value, rows = besov_norm(f, BesovParams(s, 3.0, q))
    assert all(term == 2.0 ** (j * s) * bn for j, bn, term in rows)
    terms = [term for _, _, term in rows]
    ref = max(terms) if math.isinf(q) else sum(t**q for t in terms) ** (1.0 / q)
    assert value == pytest.approx(ref, rel=1e-12)


def test_q_monotonicity(square16, rng):
    f = _random_ss(square16, rng)
    vals = {
        q: besov_norm(f, BesovParams(0.5, 2.0, q))[0] for q in (1.0, 2.0, math.inf)
    }
    assert vals[math.inf] <= vals[2.0] * (1 + 1e-12)
    assert vals[2.0] <= vals[1.0] * (1 + 1e-12)


def test_homogeneity(square16, rng):
    f = _random_ss(square16, rng)
    params = BesovParams(-0.5, 3.0, 1.0)
    a = besov_norm(f, params)[0]
    b = besov_norm(f * 4.0, params)[0]
    assert b == pytest.approx(4.0 * a, rel=1e-12)


def test_l2_case_matches_weighted_parseval(square16, rng):
    # s=0, p=q=2 is an l2 recombination of exact block L2 norms, which the
    # near-orthogonal partition keeps within a constant of ||f||_2
    f = _random_ss(square16, rng)
    value = besov_norm(f, BesovParams(0.0, 2.0, 2.0))[0]
    l2 = lp_norm(synthesize(f), 2)
    assert 0.5 * l2 <= value <= 1.5 * l2
