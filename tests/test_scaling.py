"""Dilation covariance: exact oracles from the scaling laws of the paper's
objects on rectangles.

Dilating the rectangle by s = 2^k maps every eigenvalue lambda to
lambda / s^2 and dyadic block j to block j - k, both exactly in floating
point.  Dissipative SQG is covariant under
theta(x, t) -> theta(x / s, t / s^2) / s, whose sine coefficients are those
of theta divided by s, and the Duhamel space B^{-1+2/p}_{p,inf} is
critical, so the Duhamel ratio does not change.  These relations hold
whatever the summation order, so they check values that hash pins can only
freeze.  Only powers of two give an oracle: at s = 3 the dyadic blocks no
longer line up.
"""

import math

import numpy as np
import pytest

from sqgbox import DomainSpec, SolverConfig, SpectralField, duhamel_ensemble, heat_semigroup, simulate, spectral_norm

BASE = DomainSpec(math.pi, 2.0, 16, 16, 32, 32)
SCALES = [2.0, 0.5]
ULPS = 4 * np.finfo(np.float64).eps


def _dilated(s):
    return DomainSpec(s * BASE.L1, s * BASE.L2, BASE.M1, BASE.M2, BASE.N1, BASE.N2)


def _random_data(shape=()):
    """Uniform random 16x16 sine coefficients, damped by their mode numbers
    so that the advection term is of the order of the dissipation."""
    rng = np.random.default_rng(2026)
    m = np.arange(1, 17)
    return rng.uniform(-1.0, 1.0, (*shape, 16, 16)) / (m[:, None] * m[None, :])


@pytest.mark.parametrize("scheme", ["IF-Euler", "ETD2"])
@pytest.mark.parametrize("s", SCALES)
def test_simulate_is_dilation_covariant_bit_for_bit(scheme, s):
    # the run at (s L, s^2 dt, s^2 T, theta0 / s), times s, is the base run
    c = _random_data()
    base = simulate(SpectralField(BASE, "SS", c), SolverConfig(1e-3, 0.1, scheme))
    dilated = simulate(SpectralField(_dilated(s), "SS", c / s), SolverConfig(s * s * 1e-3, s * s * 0.1, scheme))
    assert len(base.snapshots) == len(dilated.snapshots) == 101
    np.testing.assert_array_equal(dilated.times, s * s * base.times)
    for a, b in zip(base.snapshots, dilated.snapshots):
        np.testing.assert_array_equal(s * b.coefficients, a.coefficients)
    np.testing.assert_array_equal(dilated.diag_l2, base.diag_l2)  # the L2 norm is invariant
    # the oracle sees the advection term: the run leaves the heat flow
    final = base.snapshots[-1]
    assert spectral_norm(final - heat_semigroup(base.snapshots[0], 0.1)) > 1e-3 * spectral_norm(final)


@pytest.mark.parametrize("p", [1.5, 4.0])
@pytest.mark.parametrize("s", SCALES)
def test_duhamel_ratio_is_dilation_invariant(p, s):
    # B^{-1+2/p}_{p,inf} and (sup_t ||theta||_2)^2 are both invariant: the
    # ratios agree to round-off (the block norms sum on grids of other
    # spacing), not bit for bit
    c = _random_data((3,))
    base = duhamel_ensemble(SpectralField(BASE, "SS", c), SolverConfig(1e-3, 0.02), p)
    dilated = duhamel_ensemble(SpectralField(_dilated(s), "SS", c / s), SolverConfig(s * s * 1e-3, s * s * 0.02), p)
    assert all(0.0 < r < math.inf for r in base)
    np.testing.assert_allclose(dilated, base, rtol=ULPS, atol=0.0)
