"""Mild-solution integrator for dissipative SQG with Dirichlet spectral calculus.

The evolution is d_t theta + u . grad theta = Delta theta with the
divergence-free velocity u = grad^perp Lambda^{-1} theta, i.e.
u1 = -d_y psi (parity SC) and u2 = d_x psi (parity CS) for the stream
function psi = Lambda^{-1} theta.  The nonlinear term is the SS projection
of the convective form u . grad theta back onto the sine band, which the
3/2-rule ``projection_grid`` resolves exactly; ``mild_residual`` pairs the
fluxes u theta with gradients of band-b test functions on ``dealias_grid``
(2b+1).  A step runs in a ``StepWorkspace``: theta and psi share each
transform call on a leading pair axis, in buffers built once, with no field
object in between.  The step and ``mild_residual`` read the velocity from
the gradient synthesis tables of ``domain``, which carry the derivative
scales, so they agree with the field-level ``partial_derivative`` and
``synthesize`` composition to round-off, not bit for bit.

Time stepping treats the heat factor exactly:
  IF-Euler: theta+ = e^{dt Delta}(theta - dt N(theta))
  ETD2:     predictor = IF-Euler, corrector applies trapezoidal Duhamel
            weights, theta+ = e^{dt Delta}(theta - dt/2 N(theta)) - dt/2 N(pred).
Both reduce to the exact heat flow when N vanishes.  The factor
e^{dt Delta} is the heat ``multiplier_table``, fetched once per run, and
``StepWorkspace.advance`` runs both schemes in the workspace's buffers:
the IF-Euler state is the ETD2 predictor.

``integrate`` is the one time-stepping loop.  It yields every state with
its advection term and exact L2 norm, and steps a state with leading stack
axes (an ensemble) in lockstep, each member with the bits it gets alone;
``BlowUpError`` names the first member that leaves the finite range.  It
owns one ``StepWorkspace`` for its run, so a step reuses its buffers
instead of allocating them: at band (128, 128) each projection-grid array
is 295 KB, above glibc's mmap threshold, and a freed one is faulted back in
on the next step.  The states and advection terms it yields are new arrays,
never the workspace's, so they stay valid after later steps.
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
    dealias_grid,
    inner_product,
    projection_grid,
    read_field,
    spectral_inner,
    spectral_norm,
    synthesize,
    synthesize_gradient,
    write_field,
    _analysis,
    _gradient_tables,
)
from .multipliers import fractional_power, heat_semigroup, multiplier_table

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


class StepWorkspace:
    """The convective term and time step of SS states of one coefficient
    shape (band and stack): tables and buffers built once, reused by every call.

    The buffers carry theta and psi = Lambda^{-1} theta on a leading pair
    axis of length 2.  The synthesis tables are the cached gradient tables
    of ``domain.synthesize_gradient``, with the derivative scales folded in:
    one left matmul with [C1'; S1] takes both basis families of both fields,
    and one right matmul per family (S2^T, C2'^T) finishes the four
    derivatives on the grid.  Every member gets the same gemm shapes
    whatever the stack, so a stack member keeps the bits it gets alone; the
    result agrees with the field-level transforms to round-off.
    """

    def __init__(self, theta: SpectralField):
        self.shape = theta.coefficients.shape
        *stack, b1, b2 = self.shape
        n1, n2 = projection_grid((b1, b2))
        domain = theta.domain
        self.psi_weights = multiplier_table(domain, (b1, b2), "power", -1.0)
        self.left, self.s2t, self.c2t = _gradient_tables(domain.L1, domain.L2, (b1, b2), (n1, n2))
        self.a1, self.a2t = _analysis(n1, b1, "S"), _analysis(n2, b2, "S").T
        self.pair = np.empty((2, *stack, b1, b2))  # [theta, psi]
        self.synth = np.empty((2, *stack, 2 * n1, b2))  # [C1'; S1] @ pair
        self.grid1, self.grid2 = np.empty((2, 2, *stack, n1, n2))  # [d1 theta, d1 psi], [d2 theta, d2 psi]
        self.analysis = np.empty((*stack, b1, n2))  # A1 @ v
        # the predictor (the IF-Euler state), then ETD2's corrector heat part; the predictor's advection term
        self.pred, self.n1 = np.empty((2, *self.shape))
        # Views taken once: a call would otherwise spend ~2 us building them.
        self._theta, self._psi = self.pair
        self._synth1, self._synth2 = self.synth[..., :n1, :], self.synth[..., n1:, :]
        self._grid1, self._grid2 = tuple(self.grid1), tuple(self.grid2)

    def advection(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """SS projection of u . grad theta for coefficients ``c``, written
        into ``out`` (a new array when None)."""
        self._theta[...] = c
        np.multiply(c, self.psi_weights, out=self._psi)
        np.matmul(self.left, self.pair, out=self.synth)
        np.matmul(self._synth1, self.s2t, out=self.grid1)
        np.matmul(self._synth2, self.c2t, out=self.grid2)
        (d1_theta, d1_psi), (d2_theta, d2_psi) = self._grid1, self._grid2
        # u . grad theta = -d2 psi d1 theta + d1 psi d2 theta; subtracting the
        # first product gives the bits of adding u1 d1 theta, u1 = -d2 psi.
        d2_psi *= d1_theta
        d1_psi *= d2_theta
        d1_psi -= d2_psi
        return np.matmul(np.matmul(self.a1, d1_psi, out=self.analysis), self.a2t, out=out)

    def advance(self, c: np.ndarray, n0: np.ndarray, config: SolverConfig, heat: np.ndarray) -> np.ndarray:
        """Coefficients of the state after ``c``, whose advection term is
        ``n0``, as a new array; ``heat`` is the e^{dt Delta} weight table."""
        dt, pred = config.dt, self.pred
        np.subtract(c, np.multiply(n0, dt, out=pred), out=pred)
        pred *= heat
        if config.scheme == "IF-Euler":
            return pred.copy()
        n1 = self.advection(pred, out=self.n1)
        np.subtract(c, np.multiply(n0, dt / 2.0, out=pred), out=pred)
        pred *= heat
        n1 *= dt / 2.0
        return pred - n1


def nonlinear_term(theta: SpectralField, workspace: StepWorkspace | None = None) -> SpectralField:
    """SS projection of u . grad theta at the band of ``theta``: evaluated on
    ``projection_grid`` and projected by exact sine quadrature in
    ``workspace``, a new one when None.  The result is a new array."""
    if theta.parity != "SS":
        raise ValueError("state must be an SS field")
    if workspace is None:
        workspace = StepWorkspace(theta)
    elif workspace.shape != theta.coefficients.shape:
        raise ValueError("workspace was built for states of another band or stack shape")
    return SpectralField(theta.domain, "SS", workspace.advection(theta.coefficients))


def integrate(theta0: SpectralField, config: SolverConfig):
    """The time-stepping loop: yields ``(k, theta_k, N(theta_k), ||theta_k||_2)``
    for k = 0..n_steps, the state at t = k dt with its advection term and
    exact L2 norm.

    ``theta0`` may carry leading stack axes; the members then step in
    lockstep, each with the bits it gets alone, and the norm is an array
    over the stack.  The norm is ``domain``'s one pairing, a BLAS dot per
    member, so its bits follow the BLAS kernel and thread count as the
    transforms' do.

    The norm each step takes is also its finiteness check: a non-finite
    coefficient makes its member's norm nan or inf, and only then are the
    coefficients scanned.  A step that leaves the finite range raises
    ``BlowUpError`` before that state is yielded, naming the first failing
    member of a stack and its last finite norm; a member whose coefficients
    stay finite while its norm overflows steps on with an inf norm.
    """
    if theta0.parity != "SS":
        raise ValueError("initial state must be an SS field")
    n = config.n_steps
    stacked = theta0.coefficients.ndim > 2
    workspace, heat = StepWorkspace(theta0), multiplier_table(theta0.domain, theta0.band, "heat", config.dt)
    theta = theta0
    with np.errstate(over="ignore"):  # finite coefficients can overflow the norm
        l2 = last_l2 = spectral_norm(theta)
    for k in range(n + 1):
        nl = nonlinear_term(theta, workspace=workspace)
        yield k, theta, nl, l2
        if k == n:
            return
        theta = SpectralField(theta.domain, "SS", workspace.advance(theta.coefficients, nl.coefficients, config, heat))
        with np.errstate(over="ignore"):
            l2 = spectral_norm(theta)
        if np.isfinite(l2).all():
            last_l2 = l2
            continue
        finite = np.isfinite(theta.coefficients).all(axis=(-2, -1))
        if not np.all(finite):
            member = int(np.flatnonzero(~finite)[0]) if stacked else None
            raise BlowUpError((k + 1) * config.dt, float(np.ravel(last_l2)[member or 0]), member)
        last_l2 = np.where(np.isfinite(l2), l2, last_l2)


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
        d1_psi, d2_psi = synthesize_gradient(fractional_power(state, -1.0), grid)
        theta = synthesize(state, grid).values
        dG = synthesize_gradient(heat_semigroup(g, t - tau), grid)
        acc = 0.0
        for u, dG_c in zip((-d2_psi, d1_psi), dG):  # u = grad^perp psi
            acc += inner_product(GridField(g.domain, u * theta), GridField(g.domain, dG_c))
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
