import math
import warnings

import numpy as np
import pytest

from sqgbox import DomainSpec

# When a test fails, hypothesis's pytest plugin imports _patching, whose
# libcst import emits a DeprecationWarning that the warning filters turn into
# an error: pytest then stops with INTERNALERROR and runs no later test.
# Imported once here with that warning ignored, it is not imported again.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def square16() -> DomainSpec:
    """Unit-pi square, 16 modes per axis, 32-point grid."""
    return DomainSpec(math.pi, math.pi, 16, 16, 32, 32)


@pytest.fixture(scope="session")
def rect() -> DomainSpec:
    """Anisotropic rectangle to catch axis mixups."""
    return DomainSpec(1.0, 2.0, 6, 10, 20, 28)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(99)
