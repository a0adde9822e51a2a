"""Spectral fields on a rectangle with homogeneous Dirichlet boundary.

The domain is Omega = (0, L1) x (0, L2).  The Dirichlet Laplacian has
eigenfunctions e_mn(x, y) = sin(m pi x / L1) sin(n pi y / L2), m, n >= 1,
with eigenvalues lambda_mn = pi^2 (m^2 / L1^2 + n^2 / L2^2).  Fields are
real coefficient arrays against per-axis sine (S) or cosine (C) families;
the parity class is the two-letter family pair, "SS" being the eigenbasis.
Differentiation maps S <-> C per axis, so a sine axis with modes 1..M pairs
with a cosine axis carrying modes 0..M (M+1 coefficients); with that
convention single differentiation closes exactly on the band.
``DomainSpec`` owns the geometry rule, so every eigenvalue up to its grid
is positive and finite; it, ``eigenvalue`` and ``lambda_table`` share one
arithmetic, ``_eigenvalue``, and agree bit for bit.  ``normalised`` owns
the float range of the scale-invariant studies, as an exact dilate.

Coefficient and value arrays may carry leading stack axes, (..., r1, r2).
``synthesize``, ``analyze``, ``partial_derivative``, ``pointwise_product``,
``lp_norm``, ``spectral_inner`` and ``spectral_norm`` act on a whole stack,
with the same bits as field by field for arrays of the same memory layout
(``synthesize`` of the transposed array ``partial_derivative(., 2)``
returns can differ in the last bit from its C-contiguous copy); the grid
``inner_product`` and snapshot files take single fields.

Every exact L2 pairing has one primitive, the per-member BLAS dot
(..., 1, n) @ (..., n, 1), which a lone field takes too: ``lp_norm`` at
p = 2, ``inner_product`` and ``spectral_inner`` (hence ``spectral_norm``).
An SS pair is one dot times the constant weight (L1/2)(L2/2); other
parities fold their separable weights (L for a cosine axis's mode 0, L/2
otherwise) into one operand first.  Like the transforms' bits, a pairing's
follow the BLAS kernel and thread count, and a stack member keeps the bits
it gets alone at any thread count.  Every norm of finite exponent
(``lp_norm``, ``spectral_norm``, the l^q sum of ``besov_aggregate``) takes
its root through one owner, ``_power_root``, which takes a member's sum
again scaled by its max|.| when the sum overflows, or when it falls below
the smallest normal float before or after its weight, so a norm is inf
only when the true norm is, and a subnormal sum costs it no precision.

Only tables a run re-reads are cached: bases and analysis matrices per
sizes, eigenvalue and gradient tables per lengths in 4 entries each.

Each transform allocates its result.  The gradient of an SS field has one
owner here: ``synthesize_gradient`` reads synthesis tables with the
derivative scales folded in, cached per (lengths, band, grid) and built
from bases that are not kept in the basis cache, and
``solver.StepWorkspace`` runs its step on the same cached tables in buffers
of its own, one field at a time.  Both agree with
``synthesize(partial_derivative(f, c))`` to round-off, not bit for bit.

Collocation uses interior points x_i = i L / (N + 1), i = 1..N per axis,
with the uniform quadrature weight L / (N + 1).  For sine families the
discrete Gram matrix is exactly diagonal up to full band, so quadrature
analysis is an exact L2 projection for band-limited data; cosine families
carry a rank-two end effect and analysis therefore solves the per-axis
discrete Gram system (least squares in the quadrature metric), which is
exact whenever the sampled function lies in the requested span.

Products of band-limited fields are formed on a grid chosen by what the
projection needs.  On N points per axis a sine mode k aliases onto
2(N+1) - k.  ``dealias_grid`` (2b+1 points) resolves the full product band
2b, which the weak Duhamel pairing, the symmetrized bilinear product and
the structure identity analyze or pair against.
``projection_grid`` (floor(3b/2) points, the 3/2 rule) resolves only the
SS projection of an SS-parity product back onto band b, which is all the
convective SQG term needs.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PARITIES = ("SS", "SC", "CS", "CC")

_FAMILY_PRODUCT = {("S", "S"): "C", ("S", "C"): "S", ("C", "S"): "S", ("C", "C"): "C"}


@dataclass(frozen=True)
class DomainSpec:
    """Rectangle geometry plus default spectral truncation and grid size.

    The geometry rule, else ValueError: positive finite lengths, a grid that
    resolves modes >= 1 (N >= M), lambda_11 > 0 and lambda_{N1 N2} finite."""

    L1: float
    L2: float
    M1: int
    M2: int
    N1: int
    N2: int

    def __post_init__(self):
        if not (0 < self.L1 < math.inf and 0 < self.L2 < math.inf):
            raise ValueError("domain side lengths must be positive and finite")
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in (*self.modes, *self.grid)):
            raise ValueError("mode counts and grid sizes must be integers")
        if not (self.M1 >= 1 and self.M2 >= 1):
            raise ValueError("spectral truncation must be at least 1 per axis")
        if self.N1 < self.M1 or self.N2 < self.M2:
            raise ValueError("grid must resolve the spectral truncation (N >= M)")
        with np.errstate(over="ignore"):  # numpy scalar sizes or lengths overflow to inf, refused below
            first, top = _eigenvalue(self.L1, self.L2, 1, 1), _eigenvalue(self.L1, self.L2, self.N1, self.N2)
        if not 0 < first <= top < math.inf:
            raise ValueError("lengths must give a positive first eigenvalue and a finite one at the top of the grid")

    @staticmethod
    def square(L: float, M: int, N: int | None = None) -> "DomainSpec":
        if N is None:
            N = M
        return DomainSpec(L, L, M, M, N, N)

    @property
    def lengths(self) -> tuple[float, float]:
        return (self.L1, self.L2)

    @property
    def modes(self) -> tuple[int, int]:
        return (self.M1, self.M2)

    @property
    def grid(self) -> tuple[int, int]:
        return (self.N1, self.N2)


def normalised(domain: DomainSpec) -> tuple[DomainSpec, int]:
    """(dilate, k): ``domain`` with lengths L 2^-k, its block j + k the caller's j.
    k is the shift nearest 0 that brings sqrt(L1 L2) (the area) to at most 2^64
    and min(L1, L2) (the blocks) to at least 2^-64, or nearest 0 between the two
    on a rectangle too thin for both; 0 where DomainSpec refuses the dilate."""
    (m1, e1), (m2, e2) = math.frexp(domain.L1), math.frexp(domain.L2)
    m, e = math.frexp(m1 * m2)  # L1 L2 = m 2^(e1 + e2 + e): its dilates share m, so k shifts with them
    high = e1 + e2 + e - (m == 0.5)  # ceil(log2(L1 L2))
    lo, hi = sorted(((high - 127) // 2, math.frexp(min(domain.L1, domain.L2))[1] + 63))
    k = min(max(0, lo), hi)
    try:
        return DomainSpec(math.ldexp(domain.L1, -k), math.ldexp(domain.L2, -k), *domain.modes, *domain.grid), k
    except ValueError:  # never for k = 0
        return domain, 0


def _validate_parity(parity: str) -> None:
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}, got {parity!r}")


@dataclass
class SpectralField:
    """Coefficient array against the per-axis families named by ``parity``.

    Shape convention: a sine axis with b modes stores b coefficients
    (modes 1..b), a cosine axis with top mode b stores b+1 coefficients
    (modes 0..b).  ``band`` reports the per-axis top mode either way.
    Leading axes of ``coefficients`` are a stack of fields that share the
    domain, parity and band.  The field remembers its domain; arithmetic
    requires matching domain, parity, and shape.
    """

    domain: DomainSpec
    parity: str
    coefficients: np.ndarray

    def __post_init__(self):
        _validate_parity(self.parity)
        c = np.asarray(self.coefficients, dtype=np.float64)
        if c.ndim < 2 or c.shape[-2] < 1 or c.shape[-1] < 1:
            raise ValueError("coefficients must be a (..., r1, r2) array with positive r1, r2")
        self.coefficients = c

    @property
    def band(self) -> tuple[int, int]:
        r1, r2 = self.coefficients.shape[-2:]
        b1 = r1 if self.parity[0] == "S" else r1 - 1
        b2 = r2 if self.parity[1] == "S" else r2 - 1
        return (b1, b2)

    def copy(self) -> "SpectralField":
        return SpectralField(self.domain, self.parity, self.coefficients.copy())

    def _check_compatible(self, other: "SpectralField") -> None:
        if self.domain != other.domain:
            raise ValueError("fields live on different domains")
        if self.parity != other.parity:
            raise ValueError("fields have different parity classes")
        if self.coefficients.shape != other.coefficients.shape:
            raise ValueError("fields have different coefficient shapes")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.domain, self.parity, self.coefficients + other.coefficients)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.domain, self.parity, self.coefficients - other.coefficients)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.domain, self.parity, self.coefficients * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.domain, self.parity, -self.coefficients)


@dataclass
class GridField:
    """Interior collocation samples; the last two axes fix the grid."""

    domain: DomainSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim < 2 or v.shape[-2] < 1 or v.shape[-1] < 1:
            raise ValueError("values must be a (..., n1, n2) array with positive n1, n2")
        self.values = v

    @property
    def weights(self) -> tuple[float, float]:
        n1, n2 = self.values.shape[-2:]
        return (self.domain.L1 / (n1 + 1), self.domain.L2 / (n2 + 1))


def unit_mode(domain: DomainSpec, m: int, n: int, amplitude: float = 1.0) -> SpectralField:
    """The eigenfunction coefficient field amplitude * e_mn at domain truncation."""
    if not (1 <= m <= domain.M1 and 1 <= n <= domain.M2):
        raise IndexError(f"mode ({m},{n}) outside truncation ({domain.M1},{domain.M2})")
    c = np.zeros((domain.M1, domain.M2))
    c[m - 1, n - 1] = amplitude
    return SpectralField(domain, "SS", c)


def eigenvalue(domain: DomainSpec, m: int, n: int) -> float:
    """lambda_mn = pi^2 (m^2/L1^2 + n^2/L2^2) for modes inside the truncation."""
    if not (1 <= m <= domain.M1 and 1 <= n <= domain.M2):
        raise IndexError(f"mode ({m},{n}) outside truncation ({domain.M1},{domain.M2})")
    return float(_eigenvalue(domain.L1, domain.L2, m, n))


def _eigenvalue(L1: float, L2: float, m, n):
    # pi^2 ((m/L1)^2 + (n/L2)^2), inf on overflow, for scalars or mode arrays
    a, b = m / L1, n / L2
    return np.pi**2 * (a * a + b * b)


# Keyed on lengths, so bounded.  Keys/hits per default subcommand (simulate,
# verify-bilinear/-structure/-multipliers/-duhamel/-uniqueness, besov-norm):
# 1/1, 1/401, 1/3877, 1/210, 1/919, 1/9, 1/1.
@lru_cache(maxsize=4)
def _lambda_table(L1: float, L2: float, r1: int, r2: int) -> np.ndarray:
    m = np.arange(1, r1 + 1, dtype=np.float64)
    n = np.arange(1, r2 + 1, dtype=np.float64)
    tab = _eigenvalue(L1, L2, m[:, None], n[None, :])
    tab.setflags(write=False)
    return tab


def lambda_table(field_or_domain, band: tuple[int, int] | None = None) -> np.ndarray:
    """Eigenvalue table lambda_mn over the sine band of an SS field (read-only)."""
    if isinstance(field_or_domain, SpectralField):
        f = field_or_domain
        if f.parity != "SS":
            raise ValueError("eigenvalue table applies to SS fields only")
        b1, b2 = f.coefficients.shape[-2:]
        return _lambda_table(f.domain.L1, f.domain.L2, b1, b2)
    domain = field_or_domain
    b1, b2 = band if band is not None else (domain.M1, domain.M2)
    return _lambda_table(domain.L1, domain.L2, b1, b2)


# Keyed on sizes.  Keys/hits as at _lambda_table: 1/0, 3/2798, 5/7773,
# 3/917, 2/323, 1/0, 1/1.
@lru_cache(maxsize=None)
def _basis(n: int, r: int, family: str) -> np.ndarray:
    # Angles i*m*pi/(n+1) do not involve L: x_i * (m pi / L) = pi i m / (n+1).
    i = np.arange(1, n + 1, dtype=np.float64)[:, None]
    if family == "S":
        m = np.arange(1, r + 1, dtype=np.float64)[None, :]
        B = np.sin(np.pi * i * m / (n + 1))
    else:
        m = np.arange(0, r, dtype=np.float64)[None, :]
        B = np.cos(np.pi * i * m / (n + 1))
    B.setflags(write=False)
    return B


# Keyed on sizes.  Keys/hits as at _lambda_table: 1/1, 1/199, 2/34, 0/0,
# 1/11, 1/9, 0/0.
@lru_cache(maxsize=None)
def _analysis(n: int, r: int, family: str) -> np.ndarray:
    if r > n:
        raise ValueError(f"cannot analyze {r} {family}-coefficients from {n} points")
    B = _basis(n, r, family)
    if family == "S":
        # Discrete sine Gram is exactly (n+1)/2 * identity for modes <= n.
        A = (2.0 / (n + 1)) * B.T
    else:
        A = np.linalg.solve(B.T @ B, B.T.copy())
    A.setflags(write=False)
    return A


def synthesize(field: SpectralField, grid: tuple[int, int] | None = None) -> GridField:
    """Evaluate the field at the interior collocation points of ``grid``."""
    n1, n2 = grid if grid is not None else (field.domain.N1, field.domain.N2)
    r1, r2 = field.coefficients.shape[-2:]
    B1 = _basis(n1, r1, field.parity[0])
    B2 = _basis(n2, r2, field.parity[1])
    return GridField(field.domain, B1 @ field.coefficients @ B2.T)  # one matmul per stacked field


def analyze(
    grid_field: GridField,
    parity: str,
    modes: tuple[int, int] | None = None,
) -> SpectralField:
    """Project grid samples onto the requested parity span.

    Per axis this is the orthogonal projection in the discrete quadrature
    metric (a plain weighted sine sum for S axes, a Gram solve for C axes).
    ``modes`` is the per-axis sine band; a cosine axis stores modes
    0..modes, i.e. modes+1 coefficients.  For samples of a function lying in
    the requested span the recovery is exact; an SS projection of a
    band-limited product is the exact continuum L2 projection as long as the
    product band plus the target band stays below twice the grid Nyquist.
    """
    _validate_parity(parity)
    n1, n2 = grid_field.values.shape[-2:]
    if modes is None:
        modes = (grid_field.domain.M1, grid_field.domain.M2)
    r1 = modes[0] + (1 if parity[0] == "C" else 0)
    r2 = modes[1] + (1 if parity[1] == "C" else 0)
    A1 = _analysis(n1, r1, parity[0])
    A2 = _analysis(n2, r2, parity[1])
    return SpectralField(grid_field.domain, parity, A1 @ grid_field.values @ A2.T)


def full_band(grid_shape: tuple[int, int], parity: str) -> tuple[int, int]:
    """Largest per-axis sine band analyzable from ``grid_shape`` points."""
    _validate_parity(parity)
    n1, n2 = grid_shape
    b1 = n1 if parity[0] == "S" else n1 - 1
    b2 = n2 if parity[1] == "S" else n2 - 1
    return (b1, b2)


def _derivative_scale(L: float, b: int) -> np.ndarray:
    # The column m pi / L, m = 1..b, of one axis.
    return (np.pi * np.arange(1, b + 1) / L)[:, None]


def partial_derivative(field: SpectralField, axis: int) -> SpectralField:
    """Exact spectral derivative along ``axis`` (1 or 2); flips S <-> C there.

    d/dx sin(m k x) = (m k) cos(m k x) and d/dx cos(m k x) = -(m k) sin(m k x)
    with k = pi/L, so an S axis with modes 1..b maps onto a C axis with modes
    0..b (zero constant), and a C axis with modes 0..b maps onto an S axis
    with modes 1..b; both directions are exact on the band.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    fam = field.parity[axis - 1]
    L = field.domain.L1 if axis == 1 else field.domain.L2
    # Work on axis -2; axis 2 goes through a transposed view and back.
    A = field.coefficients if axis == 1 else field.coefficients.swapaxes(-1, -2)
    *stack, r, r_other = A.shape
    if fam == "S":
        out = np.zeros((*stack, r + 1, r_other))
        np.multiply(_derivative_scale(L, r), A, out=out[..., 1:, :])
        new_fam = "C"
    else:
        if r < 2:
            out = np.zeros((*stack, 1, r_other))
        else:
            out = -_derivative_scale(L, r - 1) * A[..., 1:, :]
        new_fam = "S"
    if axis == 2:
        out = out.swapaxes(-1, -2)
        parity = field.parity[0] + new_fam
    else:
        parity = new_fam + field.parity[1]
    return SpectralField(field.domain, parity, out)


# Keys/hits as at _lambda_table: 1/0, 1/199, 1/3869, 2/248 (the base and
# refined grid), 1/5, 1/4, 0/0; the suite reads 4 keys in one process.  Keyed
# on lengths, not the DomainSpec, whose default grid does not enter them.
@lru_cache(maxsize=4)
def _gradient_tables(L1: float, L2: float, band: tuple[int, int], grid: tuple[int, int]):
    # [C1'; S1], S2^T and C2'^T (read-only, C-contiguous), where
    # C1' = C1[:, 1:] diag(m pi / L1) and C2' = C2[:, 1:] diag(n pi / L2) are
    # the cosine bases without the constant mode, scaled by the derivative.
    # The bases are built afresh, not through _basis's cache: the tables
    # copy them, and a cached basis would outlive its use here.
    (b1, b2), (n1, n2) = band, grid
    basis = _basis.__wrapped__
    c1 = basis(n1, b1 + 1, "C")[:, 1:] * _derivative_scale(L1, b1).T
    c2 = basis(n2, b2 + 1, "C")[:, 1:] * _derivative_scale(L2, b2).T
    left = np.concatenate((c1, basis(n1, b1, "S")))
    tables = (left, np.ascontiguousarray(basis(n2, b2, "S").T), np.ascontiguousarray(c2.T))
    for tab in tables:
        tab.setflags(write=False)
    return tables


def synthesize_gradient(field: SpectralField, grid: tuple[int, int] | None = None) -> np.ndarray:
    """(d1 f, d2 f) of an SS field (or a stack) on ``grid``, as one array of
    shape (2, ..., n1, n2).

    One left matmul with [C1'; S1] takes both left factors, and one right
    matmul per half (S2^T, C2'^T) finishes d1 f = C1' c S2^T and
    d2 f = S1 c C2'^T.  The tables carry the derivative scales, so the result
    agrees with ``synthesize(partial_derivative(f, c), grid)`` to round-off;
    each stack member gets the bits it gets alone.
    """
    if field.parity != "SS":
        raise ValueError("gradient synthesis applies to SS fields only")
    n1, n2 = grid if grid is not None else (field.domain.N1, field.domain.N2)
    c = field.coefficients
    left, s2t, c2t = _gradient_tables(field.domain.L1, field.domain.L2, c.shape[-2:], (n1, n2))
    synth = left @ c
    out = np.empty((2, *c.shape[:-2], n1, n2))
    np.matmul(synth[..., :n1, :], s2t, out=out[0])
    np.matmul(synth[..., n1:, :], c2t, out=out[1])
    return out


def laplacian(field: SpectralField) -> SpectralField:
    """Second-derivative Laplacian; restores the input parity and shape."""
    fxx = partial_derivative(partial_derivative(field, 1), 1)
    fyy = partial_derivative(partial_derivative(field, 2), 2)
    return fxx + fyy


def product_parity(pa: str, pb: str) -> str:
    """Parity class of a pointwise product, combined axis by axis."""
    _validate_parity(pa)
    _validate_parity(pb)
    return _FAMILY_PRODUCT[(pa[0], pb[0])] + _FAMILY_PRODUCT[(pa[1], pb[1])]


def lp_norm(grid_field: GridField, p: float):
    """Composite interior-point L^p norm, p = inf the grid maximum: a float
    for one field, an array of norms for a stack.  A finite p takes its
    root through ``_power_root``, so the norm is inf only when the true
    norm overflows."""
    h1, h2 = grid_field.weights
    v = grid_field.values
    if np.isinf(p):
        norms = [np.abs(one).max(axis=(-2, -1)) for one in v.reshape(-1, *v.shape[-2:])]
        return float(norms[0]) if v.ndim == 2 else np.reshape(norms, v.shape[:-2])
    if p < 1:
        raise ValueError("p must be >= 1 or inf")
    if p == 2:
        return _power_root(v, math.sqrt, lambda x, w: w * _pair(x, x), h1 * h2)

    def sums(x, w):
        if x.ndim == 2:
            return w * _abs_power(x, p).sum(axis=(-2, -1))
        # one field at a time, so a stack costs no stack-sized temporary
        return np.array([sums(one, w) for one in x.reshape(-1, *x.shape[-2:])]).reshape(x.shape[:-2])

    return _power_root(v, lambda total: total ** (1.0 / p), sums, h1 * h2)


# |v|^p is formed from products of |v| (and one sqrt for half-integer p)
# when 2p is an integer and p is at most this; np.power is several times
# slower, and its SIMD kernel is not correctly rounded.
_PRODUCT_POWER_MAX = 8


def _abs_power(v: np.ndarray, p: float) -> np.ndarray:
    """|v|^p, p >= 1, in a fresh array: by squaring, times sqrt|v| for
    half-integer p, when 2p is an integer and p <= _PRODUCT_POWER_MAX; else
    np.power."""
    a = np.abs(v)
    # 2 * p is infinite for p near 1e308, and int() of it would raise
    if not (p <= _PRODUCT_POWER_MAX and float(2 * p).is_integer()):
        return np.power(a, p, out=a)
    n, half = divmod(int(2 * p), 2)
    out = np.sqrt(a) if half else None
    base = a
    while True:
        if n & 1:
            out = base if out is None else np.multiply(out, base, out=out)
        n >>= 1
        if not n:
            return out
        base = base * base  # never in place: out may still hold the old base


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b) over the last two axes, member by member: one BLAS dot per
    member, (..., 1, n) @ (..., n, 1).  A lone field takes the same call, so
    a stack member keeps the bits it gets alone."""
    return (a.reshape(a.shape[:-2] + (1, -1)) @ b.reshape(b.shape[:-2] + (-1, 1)))[..., 0, 0]


def _power_root(v: np.ndarray, root, power_sum, weight: float):
    """root(power_sum(v, weight)) member by member, the one owner of the
    L^p and l^q roots: a float for one member, an array over the stack axes
    for a stack, each member with the bits it gets alone.

    ``root`` is the scalar 1/p-th root, math.sqrt or ``x ** (1/p)`` (numpy's
    vectorised pow can differ from libm's in the last bit).
    ``power_sum(x, w)`` returns sum w |x|^p over each member of ``x`` for a
    scalar w > 0; its result's shape gives the stack axes.  A member whose
    sum overflows, or whose weighted or unweighted sum falls below the
    smallest normal float (a subnormal sum keeps few bits, and a weight
    above 1 can lift it into the normal range), while its max|v| is finite
    and nonzero, is taken again as
    max|v| root(weight) root(power_sum(v / max|v|, 1)), so its root is inf
    only when the true one overflows.
    """

    def rescued(i, total):  # the unscaled root when max|.| of member i is 0, inf or nan
        member = v.reshape(-1, *v.shape[np.ndim(sums) :])[i]
        top = float(np.abs(member).max(initial=0.0))
        return top * root(weight) * root(float(power_sum(member / top, 1.0))) if 0.0 < top < math.inf else root(total)

    with np.errstate(over="ignore"):  # an overflowing sum is taken again
        sums = power_sum(v, weight)
    # the weighted sum is weight times the unweighted one
    tiny = sys.float_info.min * max(1.0, weight)
    if np.ndim(sums) == 0:
        total = float(sums)
        return root(total) if tiny <= total < math.inf else rescued(0, total)
    totals = enumerate(sums.ravel().tolist())
    return np.array([root(t) if tiny <= t < math.inf else rescued(i, t) for i, t in totals]).reshape(sums.shape)


def _over_square(x: float, norm: float) -> float:
    """x / norm^2 for a positive norm; x divided by it twice outside
    [2^-511, 2^511], where the square leaves the normal range."""
    return x / norm / norm if not 2.0**-511 <= norm <= 2.0**511 else x / norm**2


def inner_product(a: GridField, b: GridField) -> float:
    """Quadrature L2 pairing of two grid fields on the same grid."""
    if a.domain != b.domain:
        raise ValueError("grid fields live on different domains")
    if a.values.shape != b.values.shape or a.values.ndim != 2:
        raise ValueError("inner_product pairs two single fields sampled on the same grid")
    h1, h2 = a.weights
    return float(h1 * h2 * _pair(a.values, b.values))


def _parity_weight(scale: float, shape: tuple[int, int], parity: str) -> np.ndarray:
    # scale k1 k2^T, k = 2 for a cosine axis's mode 0 and 1 otherwise, so each
    # entry is scale times exactly 1, 2 or 4: at scale (L1/2)(L2/2),
    # int_0^L sin^2 = L/2, int_0^L cos^2 = L/2 for m >= 1 and L for m = 0.
    k1, k2 = np.ones(shape[0]), np.ones(shape[1])
    if parity[0] == "C":
        k1[0] = 2.0
    if parity[1] == "C":
        k2[0] = 2.0
    return scale * np.multiply.outer(k1, k2)


def spectral_inner(a: SpectralField, b: SpectralField):
    """Exact continuum L2 inner product of two same-parity fields: a float
    for one field, an array over the stack axes for a stack, each member
    with the bits it gets alone.

    An SS pair is one dot times the constant weight (L1/2)(L2/2); other
    parities fold their weights into ``a`` first."""
    a._check_compatible(b)
    inner = _spectral_pair(a.parity, a.coefficients, b.coefficients, (a.domain.L1 / 2.0) * (a.domain.L2 / 2.0))
    return float(inner) if a.coefficients.ndim == 2 else inner


def _spectral_pair(parity: str, a: np.ndarray, b: np.ndarray, scale: float) -> np.ndarray:
    # the pairing at the weights _parity_weight(scale, ...)
    if parity == "SS":
        return _pair(a, b) * scale
    return _pair(a * _parity_weight(scale, a.shape[-2:], parity), b)


def spectral_norm(f: SpectralField):
    """Exact continuum L2 norm via Parseval in the field's parity basis: a
    float for one field, an array over the stack axes for a stack.  Its root
    goes through ``_power_root``, with the weight (L1/2)(L2/2) factored out
    of the scaled sum, so the norm is inf only when the true norm
    overflows."""
    quarter_area = (f.domain.L1 / 2.0) * (f.domain.L2 / 2.0)
    return _power_root(f.coefficients, math.sqrt, lambda c, w: _spectral_pair(f.parity, c, c, w), quarter_area)


def evaluate_at(field: SpectralField, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tensor-evaluate the field at arbitrary coordinates (len(x), len(y))."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    r1, r2 = field.coefficients.shape
    if field.parity[0] == "S":
        B1 = np.sin(np.outer(x, np.pi * np.arange(1, r1 + 1) / field.domain.L1))
    else:
        B1 = np.cos(np.outer(x, np.pi * np.arange(0, r1) / field.domain.L1))
    if field.parity[1] == "S":
        B2 = np.sin(np.outer(y, np.pi * np.arange(1, r2 + 1) / field.domain.L2))
    else:
        B2 = np.cos(np.outer(y, np.pi * np.arange(0, r2) / field.domain.L2))
    return B1 @ field.coefficients @ B2.T


def dealias_grid(band: tuple[int, int]) -> tuple[int, int]:
    """Grid on which products of ``band``-limited fields are analyzed exactly.

    2b+1 points per axis: a product of band-b fields has band 2b, and on this
    grid both its SS projection onto band b and its full product band are
    recovered exactly.  Every product except the convective SQG term uses
    this grid.
    """
    return (2 * band[0] + 1, 2 * band[1] + 1)


def projection_grid(band: tuple[int, int]) -> tuple[int, int]:
    """Smallest grid on which the SS projection onto ``band`` of an SS-parity
    product of two ``band``-limited fields is exact.

    floor(3b/2) points per axis (the 3/2 rule): the product has band 2b and
    mode k aliases onto 2(N+1) - k, which stays above b for every k <= 2b
    exactly when N + 1 > 3b/2.  The product band itself is not recovered on
    this grid; use ``dealias_grid`` for that.
    """
    return (3 * band[0] // 2, 3 * band[1] // 2)


def pointwise_product(a: SpectralField, b: SpectralField, grid: tuple[int, int]) -> GridField:
    """Synthesize both fields on ``grid`` and multiply pointwise."""
    if a.domain != b.domain:
        raise ValueError("fields live on different domains")
    ga = synthesize(a, grid)
    gb = synthesize(b, grid)
    return GridField(a.domain, ga.values * gb.values)


# ---------------------------------------------------------------------------
# Snapshot file format: one ASCII JSON header line, then a raw little-endian
# float64 row-major payload.  Round trips are bit exact.
# ---------------------------------------------------------------------------


def write_field(path, field: SpectralField) -> None:
    if field.coefficients.ndim != 2:
        raise ValueError("snapshot files hold a single field, not a stack")
    header = {
        "lengths": [field.domain.L1, field.domain.L2],
        "modes": [field.domain.M1, field.domain.M2],
        "grid": [field.domain.N1, field.domain.N2],
        "parity": field.parity,
        "shape": list(field.coefficients.shape),
        "dtype": "f64",
        "layout": "row-major",
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(field.coefficients, dtype="<f8").tobytes())


def read_field(path) -> SpectralField:
    """Load a snapshot; a malformed header or payload raises ValueError."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("ascii"))
        if header.get("dtype") != "f64" or header.get("layout") != "row-major":
            raise ValueError("unsupported snapshot payload format")
        shape = tuple(header["shape"])
        if len(shape) != 2 or not all(type(n) is int and n >= 1 for n in shape):
            raise ValueError(f"snapshot shape must be two positive integers, got {header['shape']!r}")
        (L1, L2), (M1, M2), (N1, N2) = header["lengths"], header["modes"], header["grid"]
        domain = DomainSpec(L1, L2, M1, M2, N1, N2)
        parity = header["parity"]
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed snapshot header: {exc}") from None
    expected = 8 * shape[0] * shape[1]
    if len(payload) != expected:
        raise ValueError(f"snapshot payload has {len(payload)} bytes, expected {expected}")
    coeff = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return SpectralField(domain, parity, coeff)
