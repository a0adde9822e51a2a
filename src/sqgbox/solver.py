"""Mild-solution integrator for dissipative SQG with Dirichlet spectral calculus.

The evolution is d_t theta + u . grad theta = Delta theta with the
divergence-free velocity u = grad^perp Lambda^{-1} theta, i.e.
u1 = -d_y psi (parity SC) and u2 = d_x psi (parity CS) for the stream
function psi = Lambda^{-1} theta.  The nonlinear term is projected back onto
the sine band, either in convective form u . grad theta or in divergence
form div(u theta); the two agree to round-off for band-limited states
because u is exactly divergence-free in coefficients.  The convective form
only needs the SS projection of its product onto band b, so it runs on the
3/2-rule ``projection_grid``; the divergence form analyzes the fluxes at
their full product band and ``mild_residual`` pairs the fluxes with
gradients of band-b test functions, so both use ``dealias_grid`` (2b+1).

Time stepping treats the heat factor exactly:
  IF-Euler: theta+ = e^{dt Delta}(theta - dt N(theta))
  ETD2:     predictor = IF-Euler, corrector applies trapezoidal Duhamel
            weights, theta+ = e^{dt Delta}(theta - dt/2 N(theta)) - dt/2 N(pred).
Both reduce to the exact heat flow when N vanishes.  The factor
e^{dt Delta} is the cached table ``heat_factor(domain, band, dt)``.

``integrate`` is the one time-stepping loop.  It yields every state with
its advection term and exact L2 norm, and steps a state with leading stack
axes (an ensemble) in lockstep, each member with the bits it gets alone;
``BlowUpError`` names the first member that leaves the finite range.
``simulate`` consumes it for one field and records a ``TrajectoryRecord``;
the Duhamel ensemble in the harness consumes it without storing states.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0

from .domain import (
    DomainSpec,
    GridField,
    SpectralField,
    analyze,
    dealias_grid,
    full_band,
    inner_product,
    partial_derivative,
    pointwise_product,
    product_parity,
    projection_grid,
    read_field,
    spectral_inner,
    spectral_norm,
    synthesize,
    write_field,
)
from .multipliers import fractional_power, heat_factor, heat_semigroup

_SCHEMES = ("IF-Euler", "ETD2")


class BlowUpError(RuntimeError):
    """Raised when the state leaves the finite range during integration;
    ``member`` is the flat stack index of the first failing member of a
    stacked state, None for a single field."""

    def __init__(self, time: float, last_l2: float, member: int | None = None):
        where = "" if member is None else f" in member {member}"
        super().__init__(f"non-finite state{where} at t={time:.6g} (last finite L2 norm {last_l2:.6g})")
        self.time = time
        self.last_l2 = last_l2
        self.member = member


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    horizon: float
    scheme: str = "ETD2"
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        canonical = {s.lower(): s for s in _SCHEMES}
        key = str(self.scheme).lower()
        if key not in canonical:
            raise ValueError(f"scheme must be one of {_SCHEMES}")
        object.__setattr__(self, "scheme", canonical[key])
        if self.snapshot_stride < 1:
            raise ValueError("snapshot stride must be a positive integer")

    @property
    def n_steps(self) -> int:
        ratio = self.horizon / self.dt
        n = round(ratio) if math.isfinite(ratio) else 0
        if n < 1 or abs(n * self.dt - self.horizon) > 1e-8 * max(1.0, self.horizon):
            raise ValueError("horizon must be an integer multiple of dt")
        return n

    def snapshot_due(self, k: int) -> bool:
        """Whether the state after step k is stored: stride multiples and the last."""
        return k % self.snapshot_stride == 0 or k == self.n_steps


def velocity(theta: SpectralField) -> tuple[SpectralField, SpectralField]:
    """u = grad^perp Lambda^{-1} theta; components have parity (SC, CS)."""
    psi = fractional_power(theta, -1.0)
    u1 = -1.0 * partial_derivative(psi, 2)
    u2 = partial_derivative(psi, 1)
    return u1, u2


def nonlinear_term(theta: SpectralField, form: str = "convective") -> SpectralField:
    """SS projection of the advection term at the band of ``theta``.

    "convective" evaluates u . grad theta on ``projection_grid`` and projects
    by exact sine quadrature; "divergence" analyzes the fluxes u_c theta at
    the full product band on ``dealias_grid``, differentiates, and
    truncates.  Both are exact projections of the same trig polynomial, so
    they agree to round-off.
    """
    if theta.parity != "SS":
        raise ValueError("state must be an SS field")
    band = theta.band
    u1, u2 = velocity(theta)
    if form == "convective":
        grid = projection_grid(band)
        t1 = pointwise_product(u1, partial_derivative(theta, 1), grid)
        t2 = pointwise_product(u2, partial_derivative(theta, 2), grid)
        total = GridField(theta.domain, t1.values + t2.values)
        return analyze(total, "SS", modes=band)
    if form == "divergence":
        grid = dealias_grid(band)
        out = None
        for axis, u in ((1, u1), (2, u2)):
            parity = product_parity(u.parity, "SS")
            flux = analyze(pointwise_product(u, theta, grid), parity, modes=full_band(grid, parity))
            d = partial_derivative(flux, axis)
            piece = SpectralField(theta.domain, "SS", d.coefficients[: band[0], : band[1]])
            out = piece if out is None else out + piece
        return out
    raise ValueError("form must be 'convective' or 'divergence'")


def _advance(theta: SpectralField, config: SolverConfig, n0: SpectralField) -> SpectralField:
    dt = config.dt
    decay = heat_factor(theta.domain, theta.band, dt)
    c, c0 = theta.coefficients, n0.coefficients
    pred = SpectralField(theta.domain, "SS", (c - c0 * dt) * decay)
    if config.scheme == "IF-Euler":
        return pred
    n1 = nonlinear_term(pred)
    return SpectralField(theta.domain, "SS", (c - c0 * (dt / 2.0)) * decay - n1.coefficients * (dt / 2.0))


def step(theta: SpectralField, config: SolverConfig) -> SpectralField:
    """One time step of the configured scheme."""
    return _advance(theta, config, nonlinear_term(theta))


def integrate(theta0: SpectralField, config: SolverConfig):
    """The time-stepping loop: yields ``(k, theta_k, N(theta_k), ||theta_k||_2)``
    for k = 0..n_steps, the state at t = k dt with its advection term and
    exact L2 norm.

    ``theta0`` may carry leading stack axes; the members then step in
    lockstep, each with the bits it gets alone, and the norm is an array
    over the stack.  A step that leaves the finite range raises
    ``BlowUpError`` before that state is yielded, naming the first failing
    member of a stack and its last finite norm.
    """
    if theta0.parity != "SS":
        raise ValueError("initial state must be an SS field")
    n = config.n_steps
    stacked = theta0.coefficients.ndim > 2
    theta = theta0
    l2 = last_l2 = spectral_norm(theta)
    for k in range(n + 1):
        nl = nonlinear_term(theta)
        yield k, theta, nl, l2
        if k == n:
            return
        theta = _advance(theta, config, nl)
        finite = np.isfinite(theta.coefficients).all(axis=(-2, -1))
        if not np.all(finite):
            member = int(np.flatnonzero(~finite)[0]) if stacked else None
            raise BlowUpError((k + 1) * config.dt, float(np.ravel(last_l2)[member or 0]), member)
        l2 = spectral_norm(theta)
        last_l2 = np.where(np.isfinite(l2), l2, last_l2)  # finite coefficients can still overflow the norm


@dataclass
class TrajectoryRecord:
    domain: DomainSpec
    config: SolverConfig
    times: np.ndarray
    snapshots: list[SpectralField]
    diag_times: np.ndarray
    diag_l2: np.ndarray
    diag_orthogonality: np.ndarray


def simulate(theta0: SpectralField, config: SolverConfig) -> TrajectoryRecord:
    """Integrate one field from t=0 to the horizon, recording snapshots and
    diagnostics.

    Snapshots are stored at stride multiples plus the final time; the
    diagnostics (exact L2 norm and the relative advection orthogonality
    residual |<N(theta), theta>| / ||theta||^2) are recorded every step.
    A stack of initial states is stepped by ``integrate`` itself.
    """
    if theta0.coefficients.ndim != 2:
        raise ValueError("simulate records one trajectory: pass a single field, or step a stack with integrate")
    times, snapshots = [], []
    diag_times, diag_l2, diag_orth = [], [], []
    for k, theta, nl, l2 in integrate(theta0, config):
        diag_times.append(k * config.dt)
        diag_l2.append(l2)
        diag_orth.append(abs(spectral_inner(nl, theta)) / l2**2 if l2 > 0 else 0.0)
        if config.snapshot_due(k):
            times.append(k * config.dt)
            snapshots.append(theta.copy())
    return TrajectoryRecord(
        domain=theta0.domain,
        config=config,
        times=np.asarray(times),
        snapshots=snapshots,
        diag_times=np.asarray(diag_times),
        diag_l2=np.asarray(diag_l2),
        diag_orthogonality=np.asarray(diag_orth),
    )


def snapshot_index(traj: TrajectoryRecord, t: float) -> int:
    hits = np.nonzero(np.isclose(traj.times, t, rtol=0.0, atol=1e-10 * max(1.0, float(traj.times[-1]))))[0]
    if hits.size == 0:
        raise ValueError(f"t={t} is not a stored snapshot time")
    return int(hits[0])


def mild_residual(traj: TrajectoryRecord, g: SpectralField, t: float) -> float:
    """Weak-form Duhamel defect |<theta(t), g> - <e^{t Delta} theta0, g>
    - int_0^t <u theta, grad e^{(t-tau) Delta} g> dtau| with the tau integral
    taken by trapezoid over the stored snapshot times up to t."""
    if g.parity != "SS":
        raise ValueError("test function must be an SS field")
    it = snapshot_index(traj, t)
    theta0 = traj.snapshots[0]
    lhs = spectral_inner(traj.snapshots[it], g)
    linear = spectral_inner(heat_semigroup(theta0, t), g)
    taus = traj.times[: it + 1]
    grid = dealias_grid(theta0.band)
    vals = np.empty(len(taus))
    for i, tau in enumerate(taus):
        state = traj.snapshots[i]
        u1, u2 = velocity(state)
        G = heat_semigroup(g, t - tau)
        acc = 0.0
        for axis, u in ((1, u1), (2, u2)):
            flux = pointwise_product(u, state, grid)
            dG = synthesize(partial_derivative(G, axis), grid)
            acc += inner_product(flux, GridField(g.domain, dG.values))
        vals[i] = acc
    duhamel = float(_trapezoid(vals, taus)) if len(taus) > 1 else 0.0
    return abs(lhs - linear - duhamel)


# ---------------------------------------------------------------------------
# Trajectory persistence: a directory with a config document, one snapshot
# file per stored time, and a per-step diagnostics CSV.
# ---------------------------------------------------------------------------


def save_trajectory(dirpath, traj: TrajectoryRecord) -> None:
    os.makedirs(dirpath, exist_ok=True)
    snap_files = [f"snapshot_{i:06d}.field" for i in range(len(traj.snapshots))]
    doc = {
        "domain": {
            "lengths": [traj.domain.L1, traj.domain.L2],
            "modes": [traj.domain.M1, traj.domain.M2],
            "grid": [traj.domain.N1, traj.domain.N2],
        },
        "solver": {
            "dt": traj.config.dt,
            "horizon": traj.config.horizon,
            "scheme": traj.config.scheme,
            "snapshot_stride": traj.config.snapshot_stride,
        },
        "times": [float(t) for t in traj.times],
        "snapshot_files": snap_files,
    }
    with open(os.path.join(dirpath, "trajectory.json"), "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for name, snap in zip(snap_files, traj.snapshots):
        write_field(os.path.join(dirpath, name), snap)
    with open(os.path.join(dirpath, "diagnostics.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "l2_norm", "orthogonality_residual"])
        for t, l2, orth in zip(traj.diag_times, traj.diag_l2, traj.diag_orthogonality):
            writer.writerow([repr(float(t)), repr(float(l2)), repr(float(orth))])


def load_trajectory(dirpath) -> TrajectoryRecord:
    with open(os.path.join(dirpath, "trajectory.json")) as fh:
        doc = json.load(fh)
    sol = doc["solver"]
    # named keys only: files written by older versions carry a removed solver key
    config = SolverConfig(
        dt=sol["dt"], horizon=sol["horizon"], scheme=sol["scheme"], snapshot_stride=sol["snapshot_stride"]
    )
    snapshots = [read_field(os.path.join(dirpath, name)) for name in doc["snapshot_files"]]
    diag_times, diag_l2, diag_orth = [], [], []
    with open(os.path.join(dirpath, "diagnostics.csv"), newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            diag_times.append(float(row[0]))
            diag_l2.append(float(row[1]))
            diag_orth.append(float(row[2]))
    return TrajectoryRecord(
        domain=snapshots[0].domain,
        config=config,
        times=np.asarray(doc["times"]),
        snapshots=snapshots,
        diag_times=np.asarray(diag_times),
        diag_l2=np.asarray(diag_l2),
        diag_orthogonality=np.asarray(diag_orth),
    )
