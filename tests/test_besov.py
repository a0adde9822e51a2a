"""Besov norms over dyadic blocks, duality, and the embedding check."""

import math

import numpy as np
import pytest

from sqgbox import (
    BesovParams,
    DyadicProfile,
    SpectralField,
    besov_norm,
    conjugate_exponent,
    dual_norm_lower_bound,
    dual_params,
    dyadic_block,
    embedding_check,
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
    value, profile = besov_norm(f, BesovParams(s, p, q), prof)
    assert value == pytest.approx(expected_q ** (1.0 / q), rel=1e-12)
    assert all(len(row) == 3 for row in profile.rows)


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
    value, profile = besov_norm(f, params, prof, grid)
    ref_value, ref_rows = _per_block_reference(f, params, prof, grid)
    assert value == pytest.approx(ref_value, rel=1e-12)
    assert [r[0] for r in profile.rows] == [r[0] for r in ref_rows]
    for (_, bn, term), (_, ref_bn, ref_term) in zip(profile.rows, ref_rows):
        assert bn == pytest.approx(ref_bn, rel=1e-12, abs=0.0)
        assert term == pytest.approx(ref_term, rel=1e-12, abs=0.0)


def test_spare_blocks_read_exactly_zero(rect, rng):
    f = _random_ss(rect, rng)
    js = j_range(rect, f.band)
    _, profile = besov_norm(f, BesovParams(-0.5, 3.0, 2.0))
    assert [r[0] for r in profile.rows] == list(js)
    assert profile.rows[0] == (js[0], 0.0, 0.0)
    assert profile.rows[-1] == (js[-1], 0.0, 0.0)
    assert all(bn > 0.0 for _, bn, _ in profile.rows[1:-1])


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


def test_profile_csv(tmp_path, square16):
    f = unit_mode(square16, 1, 1)
    _, profile = besov_norm(f, BesovParams(1.0, 2.0, 1.0))
    out = tmp_path / "profile.csv"
    profile.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == ["j", "block_lp_norm", "weighted_term"]
    assert len(lines) == len(profile.rows) + 1


def test_conjugate_exponents():
    assert conjugate_exponent(1.0) == math.inf
    assert conjugate_exponent(math.inf) == 1.0
    assert conjugate_exponent(2.0) == pytest.approx(2.0)
    assert conjugate_exponent(3.0) == pytest.approx(1.5)


def test_dual_params_negates_smoothness():
    d = dual_params(BesovParams(0.5, 3.0, 2.0))
    assert (d.s, d.p, d.q) == (-0.5, pytest.approx(1.5), pytest.approx(2.0))


def test_duality_lower_bound_is_a_lower_bound(square16, rng):
    f = _random_ss(square16, rng)
    params = BesovParams(0.5, 2.0, 2.0)
    norm = besov_norm(f, params)[0]
    prof = DyadicProfile()
    candidates = [f] + [dyadic_block(f, j, prof) for j in j_range(square16, f.band)]
    bound = dual_norm_lower_bound(f, params, candidates)
    assert 0.0 < bound
    # partition overlap costs at most a small constant
    assert bound <= 3.0 * norm


def test_duality_rejects_empty_candidates(square16):
    f = unit_mode(square16, 1, 1)
    with pytest.raises(ValueError):
        dual_norm_lower_bound(f, BesovParams(0.0, 2.0, 2.0), [f * 0.0])


def test_embedding_holds_on_samples(square16, rng):
    # source (s, p, q) = (-1+2/p, p, inf) into (-1+1/p, 2p, inf) at p=2
    f = _random_ss(square16, rng)
    src = BesovParams(0.0, 2.0, math.inf)
    tgt = BesovParams(-0.5, 4.0, math.inf)
    ratio = embedding_check(f, src, tgt)
    assert math.isfinite(ratio) and ratio > 0.0


def test_embedding_validation(square16):
    f = unit_mode(square16, 1, 1)
    with pytest.raises(ValueError):
        # target integrability below source
        embedding_check(f, BesovParams(0.0, 4.0, math.inf), BesovParams(-0.5, 2.0, math.inf))
    with pytest.raises(ValueError):
        # smoothness drop too small for the integrability gain
        embedding_check(f, BesovParams(0.0, 2.0, math.inf), BesovParams(-0.4, 4.0, math.inf))
    with pytest.raises(ValueError):
        embedding_check(f * 0.0, BesovParams(0.0, 2.0, math.inf), BesovParams(-0.5, 4.0, math.inf))
