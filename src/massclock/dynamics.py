"""Hamiltonians for composite particles and their split-operator propagation.

Every Hamiltonian kind decomposes per internal branch i into a
momentum-diagonal part T_i(p) and a position-diagonal part V_i(x), with
H_r,i = E0 + E_i the branch rest energy, M_i = H_r,i / c^2, m = E0/c^2:

  exact           T = sqrt(c^2 p^2 + H_r^2)          V = M Phi(x)
  dynamical_mass  T = p^2 c^2 / 2 H_r  [+ H_r]       V = M Phi(x)
  low_energy      T = H_r + p^2 c^2 / 2 H_r          V = M Phi(x)
  split           T = p^2 c^2/2E0 - E_i p^2 c^2/2E0^2
                                                     V = H_r + H_r Phi(x)/c^2
  newtonian       T = p^2 / 2m                       V = m c^2 + E_i + m Phi(x)

Each row is an entry of the kind table ``_KINDS`` (T, dT/dp, V and whether
H carries the internal rest term), keyed by label; dynamical_mass+rest is
its own entry.  The propagator, the residual check, the velocity readout
and the branch_* functions all read it.

The exact kind models a static weak field, g00 = -(1 + 2 Phi/c^2) with flat
spatial metric; the metric factor is folded into V as the additive M Phi(x)
term, accurate to the same order as the low-energy form.  low_energy and
dynamical_mass with the rest flag are the same operator by construction.

Propagation is Strang splitting,
exp(-i V dt/2 hbar) F^-1 exp(-i T dt/hbar) F exp(-i V dt/2 hbar)
per branch per step: exactly unitary, second order in dt.  Per-step checks:
norm within 1e-10 and the boundary-clearance rule.

Trajectories xi(t) of a moving frame are stored as uniform samples;
velocity/acceleration use stored exact samples when a factory provides
them, otherwise central differences (one-sided second order at the ends).
Quadrature is composite Simpson on the uniform grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .errors import (
    AliasingError,
    BoundaryViolationError,
    PreconditionError,
    SuperluminalError,
    TrajectoryError,
)
from .hilbert import (
    CompositeState,
    GridSpec,
    InternalSpace,
    PhysicalParams,
    _check_clearance,
    _clearance_from_moments,
    expectation_kinetic,
)
from .symmetry import _translate

# --- Hamiltonian kinds -------------------------------------------------------

def _branches(internal: InternalSpace, params: PhysicalParams,
              level: Optional[int] = None) -> SimpleNamespace:
    """Constants of the branch operators: hr = E0 + E_i and ei = E_i, as
    scalars for one level or as (dim, 1) columns that fill every branch."""
    params.check_internal(internal)
    if level is None:
        ei = np.asarray(internal.levels)[:, None]
    elif 0 <= level < internal.dim:
        ei = internal.levels[level]
    else:
        raise PreconditionError(f"level {level} out of range for dim={internal.dim}")
    return SimpleNamespace(hr=internal.E0 + ei, ei=ei, e0=internal.E0,
                           c=params.c, m=params.m)


class _Kind(NamedTuple):
    """T(p, b), dT/dp(p, b) and V(Phi, b) of one kind, and whether H carries
    the internal rest term (so its clock phase runs at omega0)."""

    kinetic: Callable
    velocity: Callable
    potential: Callable
    carries_rest: bool = True


# H_r = M c^2 plays the mass: the low-energy form, which is dynamical_mass
# with its rest term by construction; the other mass-energy kinds vary it.
_LOW_ENERGY = _Kind(
    lambda p, b: b.hr + p**2 * b.c**2 / (2.0 * b.hr),
    lambda p, b: p * b.c**2 / b.hr,
    lambda phi, b: (b.hr / b.c**2) * phi)

# The kind table (see the module docstring), keyed by HamiltonianKind.label().
_KINDS = {
    "exact": _LOW_ENERGY._replace(
        kinetic=lambda p, b: np.sqrt(b.c**2 * p**2 + b.hr**2),
        velocity=lambda p, b: p * b.c**2 / np.sqrt(b.c**2 * p**2 + b.hr**2)),
    "dynamical_mass": _LOW_ENERGY._replace(
        kinetic=lambda p, b: p**2 * b.c**2 / (2.0 * b.hr), carries_rest=False),
    "dynamical_mass+rest": _LOW_ENERGY,
    "low_energy": _LOW_ENERGY,
    "split": _Kind(
        lambda p, b: (p**2 * b.c**2 / (2.0 * b.e0)
                      - b.ei * p**2 * b.c**2 / (2.0 * b.e0**2)),
        lambda p, b: p * b.c**2 / b.e0 - b.ei * p * b.c**2 / b.e0**2,
        lambda phi, b: b.hr + b.hr * phi / b.c**2),
    "newtonian": _Kind(
        lambda p, b: p**2 / (2.0 * b.m),
        lambda p, b: p / b.m,
        lambda phi, b: b.m * b.c**2 + b.ei + b.m * phi),
}


@dataclass(frozen=True)
class HamiltonianKind:
    """One of the five dynamics models; the rest-energy flag applies only to
    dynamical_mass (low_energy always carries its rest term)."""

    name: str
    include_rest: bool = False

    def __post_init__(self):
        # "+rest" is the include_rest flag, never part of a name
        if self.label() not in _KINDS or "+" in self.name:
            raise PreconditionError(f"unknown Hamiltonian kind {self.label()!r}; "
                                    f"known: {', '.join(_KINDS)}")

    @classmethod
    def exact(cls):
        return cls("exact")

    @classmethod
    def dynamical_mass(cls, include_rest: bool = False):
        return cls("dynamical_mass", include_rest=include_rest)

    @classmethod
    def low_energy(cls):
        return cls("low_energy")

    @classmethod
    def split(cls):
        return cls("split")

    @classmethod
    def newtonian(cls):
        return cls("newtonian")

    @classmethod
    def from_name(cls, label: str) -> "HamiltonianKind":
        label = label.strip()
        return cls(label.removesuffix("+rest"), include_rest=label.endswith("+rest"))

    def label(self) -> str:
        return str(self.name) + ("+rest" if self.include_rest else "")


def _tables(kind: HamiltonianKind, grid: GridSpec, internal: InternalSpace,
            params: PhysicalParams) -> Tuple[np.ndarray, np.ndarray]:
    """(dim, N) tables T_i(p_k) and V_i(x_n) of every branch (read-only)."""
    entry, b = _KINDS[kind.label()], _branches(internal, params)
    shape = (internal.dim, grid.n_points)
    t_table = entry.kinetic(grid.p(params.hbar), b)
    v_table = entry.potential(params.potential.values(grid.x()), b)
    return np.broadcast_to(t_table, shape), np.broadcast_to(v_table, shape)


def branch_kinetic(kind: HamiltonianKind, internal: InternalSpace,
                   params: PhysicalParams, level: int) -> Callable[[np.ndarray], np.ndarray]:
    """T_i as a function of momentum (scalar or array)."""
    entry, b = _KINDS[kind.label()], _branches(internal, params, level)
    return lambda p: entry.kinetic(np.asarray(p, dtype=float), b)


def branch_velocity(kind: HamiltonianKind, internal: InternalSpace,
                    params: PhysicalParams, level: int) -> Callable[[np.ndarray], np.ndarray]:
    """dT_i/dp as a function of momentum."""
    entry, b = _KINDS[kind.label()], _branches(internal, params, level)
    return lambda p: entry.velocity(np.asarray(p, dtype=float), b)


def branch_potential(kind: HamiltonianKind, internal: InternalSpace,
                     params: PhysicalParams, level: int, x: np.ndarray) -> np.ndarray:
    """V_i(x) including any rest-energy constants the kind carries there."""
    entry, b = _KINDS[kind.label()], _branches(internal, params, level)
    return entry.potential(params.potential.values(x), b)


def expectation_velocity(state: CompositeState, kind: HamiltonianKind,
                         params: PhysicalParams, level: int) -> float:
    """<dT_i/dp> on one branch (== d<x>/dt by Ehrenfest for these kinds)."""
    return expectation_kinetic(state.grid, state.amplitudes[level], params.hbar,
                               branch_velocity(kind, state.internal, params, level))


# --- split-operator propagation ----------------------------------------------

class _Plan:
    """Precomputed per-branch phase tables for one (state-shape, kind, dt)."""

    def __init__(self, grid: GridSpec, internal: InternalSpace,
                 kind: HamiltonianKind, params: PhysicalParams, dt: float):
        t_table, v_table = _tables(kind, grid, internal, params)
        if dt <= 0:
            raise PreconditionError("dt must be positive")
        worst = float(np.max(np.abs(t_table))) * dt / params.hbar
        if worst >= math.pi:
            raise AliasingError(
                f"kinetic phase per step dt*max|T|/hbar = {worst:.3f} >= pi; "
                "reduce dt or coarsen the momentum grid"
            )
        self.exp_t = np.exp(-1j * t_table * dt / params.hbar)
        self.exp_v_half = np.exp(-0.5j * v_table * dt / params.hbar)
        self.x = grid.x()
        self.dx = grid.dx
        self.grid = grid

    def step(self, amps: np.ndarray) -> np.ndarray:
        _kernels.phase_multiply(amps, self.exp_v_half)
        amps = np.fft.fft(amps, axis=1)
        _kernels.phase_multiply(amps, self.exp_t)
        amps = np.fft.ifft(amps, axis=1)
        _kernels.phase_multiply(amps, self.exp_v_half)
        return amps

    def check(self, amps: np.ndarray, step_no: int) -> None:
        moments = _kernels.branch_moments(amps, self.x) * self.dx
        total = float(moments[:, 0].sum())
        if abs(total - 1.0) > 1e-10:
            raise PreconditionError(
                f"norm drifted to {total!r} at step {step_no}"
            )
        msg = _clearance_from_moments(self.grid, moments)
        if msg is not None:
            raise BoundaryViolationError(f"step {step_no}: {msg}")


def propagate(state: CompositeState, kind: HamiltonianKind,
              params: PhysicalParams, dt: float, steps: int) -> CompositeState:
    """Evolve by ``steps`` Strang steps of size dt; checks run every step."""
    plan = _Plan(state.grid, state.internal, kind, params, dt)
    amps = np.array(state.amplitudes)
    for k in range(steps):
        amps = plan.step(amps)
        plan.check(amps, k + 1)
    return state.with_amplitudes(amps)


def propagate_history(state: CompositeState, kind: HamiltonianKind,
                      params: PhysicalParams, dt: float, steps: int,
                      sample_every: int = 1) -> Tuple[np.ndarray, List[CompositeState]]:
    """Like propagate, returning (times, states) sampled every few steps.

    The initial state is included at t = 0; ``steps`` must be a multiple of
    ``sample_every``.
    """
    if sample_every < 1 or steps % sample_every != 0:
        raise PreconditionError("steps must be a multiple of sample_every")
    plan = _Plan(state.grid, state.internal, kind, params, dt)
    amps = np.array(state.amplitudes)
    out = [state]
    times = [0.0]
    for k in range(steps):
        amps = plan.step(amps)
        plan.check(amps, k + 1)
        if (k + 1) % sample_every == 0:
            out.append(state.with_amplitudes(amps))
            times.append((k + 1) * dt)
    return np.asarray(times), out


# --- internal clock ----------------------------------------------------------

def internal_frequency(omega0: float, v, phi, params: PhysicalParams):
    """Clock frequency omega0 (1 - v^2/2c^2 + Phi/c^2); |v| < c required."""
    v = np.asarray(v, dtype=float)
    if np.any(np.abs(v) >= params.c):
        raise SuperluminalError(f"|v| must stay below c={params.c}")
    out = omega0 * (1.0 - v**2 / (2.0 * params.c**2) + np.asarray(phi, dtype=float) / params.c**2)
    return out if out.ndim else float(out)


def semiclassical_clock_phases(times: np.ndarray, velocities: np.ndarray,
                               potentials: np.ndarray, omega0: float,
                               params: PhysicalParams) -> np.ndarray:
    """Accumulated clock phase along a classical trajectory.

    Integrates the dilated frequency over the uniformly sampled trajectory;
    the cheap oracle for full wavepacket runs.
    """
    times = np.asarray(times, dtype=float)
    dt = _uniform_spacing(times)
    omega = internal_frequency(omega0, velocities, potentials, params)
    return _kernels.accumulate_phase(np.asarray(omega, dtype=float), dt)


def fit_phase_rate(times: np.ndarray, values: np.ndarray) -> float:
    """Slope of the unwrapped argument of complex samples vs time.

    The mod-2pi-safe way to read accumulated phases: fine time slices,
    unwrap, linear regression (design rule: >= 100 samples).
    """
    times = np.asarray(times, dtype=float)
    if times.size < 100:
        raise PreconditionError(
            f"a phase-rate fit needs >= 100 samples (design rule), got {times.size}")
    phi = np.unwrap(np.angle(np.asarray(values)))
    return float(np.polyfit(times, phi, 1)[0])


def fit_clock_rate(times: np.ndarray, states: Sequence[CompositeState],
                   level_pair: Tuple[int, int] = (0, 1)) -> float:
    """Fitted rate of arg <branch i | branch j> over a state history."""
    i, j = level_pair
    z = np.array([s.branch_overlap(i, j) for s in states])
    return -fit_phase_rate(times, z)


# --- trajectories ------------------------------------------------------------

def _uniform_spacing(times: np.ndarray) -> float:
    diffs = np.diff(times)
    if times.size < 3:
        raise TrajectoryError("need at least 3 samples")
    dt = float(diffs[0])
    if dt <= 0 or np.any(np.abs(diffs - dt) > 1e-9 * max(abs(dt), 1e-300)):
        raise TrajectoryError("samples must be uniform and increasing")
    return dt


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled frame path xi(t) on a uniform time grid.

    Factories fill exact velocity/acceleration samples where closed forms
    exist; otherwise they come from central differences.  A closed
    trajectory is pinned to xi = 0 exactly at both ends.  The velocity and
    kinetic-integral samples are computed once, on first use, and are
    read-only, so ``at()`` only indexes or interpolates them.
    """

    times: np.ndarray
    xi: np.ndarray
    closed: bool = False
    xi_dot: Optional[np.ndarray] = None
    xi_ddot: Optional[np.ndarray] = None

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        xi = np.array(self.xi, dtype=float)
        if times.shape != xi.shape or times.ndim != 1:
            raise TrajectoryError("times and xi must be matching 1D arrays")
        _uniform_spacing(times)
        if self.closed and (xi[0] != 0.0 or xi[-1] != 0.0):
            raise TrajectoryError("closed trajectory requires xi(0) = xi(T) = 0 exactly")
        for name in ("xi_dot", "xi_ddot"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.array(arr, dtype=float)
                if arr.shape != times.shape:
                    raise TrajectoryError(f"{name} shape mismatch")
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)
        times.flags.writeable = False
        xi.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "xi", xi)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @cached_property
    def _velocity(self) -> np.ndarray:
        if self.xi_dot is not None:
            return self.xi_dot
        h = self.dt
        v = np.empty_like(self.xi)
        v[1:-1] = (self.xi[2:] - self.xi[:-2]) / (2.0 * h)
        v[0] = (-3.0 * self.xi[0] + 4.0 * self.xi[1] - self.xi[2]) / (2.0 * h)
        v[-1] = (3.0 * self.xi[-1] - 4.0 * self.xi[-2] + self.xi[-3]) / (2.0 * h)
        v.flags.writeable = False
        return v

    @cached_property
    def _kinetic(self) -> np.ndarray:
        s = _kernels.accumulate_phase(0.5 * self._velocity**2, self.dt)
        s.flags.writeable = False
        return s

    def velocity(self) -> np.ndarray:
        """Stored exact samples if available, else central differences."""
        return self._velocity

    def acceleration(self) -> np.ndarray:
        if self.xi_ddot is not None:
            return self.xi_ddot
        h = self.dt
        a = np.empty_like(self.xi)
        a[1:-1] = (self.xi[2:] - 2.0 * self.xi[1:-1] + self.xi[:-2]) / h**2
        a[0] = (2.0 * self.xi[0] - 5.0 * self.xi[1] + 4.0 * self.xi[2] - self.xi[3]) / h**2
        a[-1] = (2.0 * self.xi[-1] - 5.0 * self.xi[-2] + 4.0 * self.xi[-3] - self.xi[-4]) / h**2
        return a

    def kinetic_integral(self) -> np.ndarray:
        """Cumulative integral of xi_dot^2 / 2 at every sample."""
        return self._kinetic

    def _index_of(self, t: float) -> Optional[int]:
        idx = int(round((t - self.times[0]) / self.dt))
        if 0 <= idx < self.times.size and abs(self.times[idx] - t) <= 1e-9 * max(self.dt, 1e-300):
            return idx
        return None

    def at(self, t: float) -> Tuple[float, float, float]:
        """(xi, xi_dot, integral of xi_dot^2/2) at time t; t must be inside
        the sampled window (interpolated linearly between samples)."""
        if not (self.times[0] <= t <= self.times[-1]):
            raise TrajectoryError(f"t={t} outside trajectory support")
        idx = self._index_of(t)
        if idx is not None:
            return float(self.xi[idx]), float(self.velocity()[idx]), float(self.kinetic_integral()[idx])
        return (
            float(np.interp(t, self.times, self.xi)),
            float(np.interp(t, self.times, self.velocity())),
            float(np.interp(t, self.times, self.kinetic_integral())),
        )


def triangular_trajectory(speed: float, total_time: float, n_samples: int) -> Trajectory:
    """Closed out-and-back path at constant |xi_dot| = speed.

    n_samples must be odd so the turning point lands on a sample; the
    velocity samples are the exact +/- speed values (the apex sample takes
    the descending branch).
    """
    if n_samples < 3 or n_samples % 2 == 0:
        raise TrajectoryError("triangular trajectory needs an odd n_samples >= 3")
    t = np.linspace(0.0, total_time, n_samples)
    xi = speed * np.minimum(t, total_time - t)
    xi[0] = 0.0
    xi[-1] = 0.0
    mid = n_samples // 2
    v = np.full(n_samples, speed)
    v[mid:] = -speed
    return Trajectory(times=t, xi=xi, closed=True, xi_dot=v,
                      xi_ddot=np.zeros(n_samples))


def sinusoidal_trajectory(amplitude: float, total_time: float, n_samples: int,
                          cycles: int = 1) -> Trajectory:
    """xi = A sin(2 pi cycles t / T) with exact derivative samples."""
    t = np.linspace(0.0, total_time, n_samples)
    om = 2.0 * np.pi * cycles / total_time
    xi = amplitude * np.sin(om * t)
    xi[0] = 0.0
    xi[-1] = 0.0  # snap the ~1e-16 sin(2 pi) residue
    return Trajectory(
        times=t, xi=xi, closed=True,
        xi_dot=amplitude * om * np.cos(om * t),
        xi_ddot=-amplitude * om**2 * np.sin(om * t),
    )


def bump_trajectory(height: float, total_time: float, n_samples: int) -> Trajectory:
    """xi = h sin^2(pi t / T): closed in position and velocity."""
    t = np.linspace(0.0, total_time, n_samples)
    om = np.pi / total_time
    xi = height * np.sin(om * t) ** 2
    xi[0] = 0.0
    xi[-1] = 0.0
    return Trajectory(
        times=t, xi=xi, closed=True,
        xi_dot=height * om * np.sin(2.0 * om * t),
        xi_ddot=2.0 * height * om**2 * np.cos(2.0 * om * t),
    )


def static_trajectory(position: float, total_time: float, n_samples: int) -> Trajectory:
    t = np.linspace(0.0, total_time, n_samples)
    return Trajectory(
        times=t, xi=np.full(n_samples, float(position)),
        closed=(position == 0.0),
        xi_dot=np.zeros(n_samples), xi_ddot=np.zeros(n_samples),
    )


# --- proper time and path phases ----------------------------------------------

@dataclass(frozen=True)
class ProperTimeResult:
    t_prime: float
    delta_tau: float
    delta_tau_lowest: float


def _require_subluminal(v: np.ndarray, c: float) -> None:
    vmax = float(np.max(np.abs(v)))
    if vmax >= c:
        raise SuperluminalError(f"max |xi_dot| = {vmax} >= c = {c}")


def proper_time(traj: Trajectory, params: PhysicalParams) -> ProperTimeResult:
    """Round-trip proper time T' = integral sqrt(1 - xi_dot^2/c^2) dt.

    Returns T', the dilation deficit delta_tau = T - T', and the
    lowest-order value integral xi_dot^2 / 2 c^2 dt for comparison.
    """
    if not traj.closed:
        raise TrajectoryError("proper_time requires a closed trajectory")
    v = traj.velocity()
    _require_subluminal(v, params.c)
    integrand = np.sqrt(1.0 - (v / params.c) ** 2)
    t_prime = float(_kernels.accumulate_phase(integrand, traj.dt)[-1])
    delta_lo = float(traj.kinetic_integral()[-1]) / params.c**2
    return ProperTimeResult(
        t_prime=t_prime,
        delta_tau=traj.duration - t_prime,
        delta_tau_lowest=delta_lo,
    )


def closed_path_phase(traj: Trajectory, mass: float, params: PhysicalParams) -> float:
    """Accumulated phase (mass/hbar) integral xi_dot^2/2 dt, not wrapped.

    Equals mass c^2 delta_tau_lowest / hbar: the loop phase is time dilation
    read in phase units.
    """
    if not traj.closed:
        raise TrajectoryError("closed_path_phase requires a closed trajectory")
    v = traj.velocity()
    _require_subluminal(v, params.c)
    return mass * float(traj.kinetic_integral()[-1]) / params.hbar


# --- frame transformation -----------------------------------------------------

def frame_transform(state: CompositeState, traj: Trajectory, t: float,
                    params: PhysicalParams, inverse: bool = False) -> CompositeState:
    """Map a lab-frame state into the frame riding xi(t) (or back).

    Forward:  phi(x) = exp(-i M_i (xi_dot x + S) / hbar) psi(x + xi),
    with S = integral_0^t xi_dot^2/2 dt'; branch-wise with the branch
    mass-energies M_i.  For xi = w t this is exactly the boost by -w
    composed with the translation by -w t, including the global phase.
    """
    params.check_internal(state.internal)
    xi, v, action = traj.at(t)
    _require_subluminal(np.asarray([v]), params.c)
    masses = state.internal.mass_energies(params.c)
    x = state.grid.x()
    phase = np.exp(-1j * (masses[:, None] * (v * x[None, :] + action)) / params.hbar)
    if inverse:
        amps = _translate(state.grid, state.amplitudes * np.conj(phase), xi)
        _check_clearance(state.grid, amps, f"translation by a={xi}")
        return state.with_amplitudes(amps)
    amps = _translate(state.grid, state.amplitudes, -xi)
    _check_clearance(state.grid, amps, f"translation by a={-xi}")
    return state.with_amplitudes(amps * phase)


def schrodinger_residual(history: Sequence[CompositeState], dt: float,
                         kind: HamiltonianKind, params: PhysicalParams,
                         non_inertial_accel: Optional[Sequence[float]] = None) -> float:
    """Max interior-time residual || i hbar d phi/dt - H phi || of a history.

    The time derivative is a central difference, so the residual of a true
    solution converges to zero at O(dt^2).  ``non_inertial_accel`` adds the
    moving-frame potential M_i xi_ddot(t_k) x per branch, which is what the
    primed-frame equation requires; leaving it out on a transformed history
    leaves a finite residual.
    """
    if len(history) < 3:
        raise PreconditionError("need at least 3 history samples")
    if dt <= 0:
        raise PreconditionError("dt must be positive")
    grid, internal = history[0].grid, history[0].internal
    t_table, v_table = _tables(kind, grid, internal, params)
    if non_inertial_accel is not None:
        non_inertial_accel = np.asarray(non_inertial_accel, dtype=float)
        if non_inertial_accel.shape != (len(history),):
            raise PreconditionError("non_inertial_accel must align with history samples")
    x = grid.x()
    masses = internal.mass_energies(params.c)

    worst = 0.0
    for k in range(1, len(history) - 1):
        phi = history[k].amplitudes
        dphi = (history[k + 1].amplitudes - history[k - 1].amplitudes) / (2.0 * dt)
        h_phi = np.fft.ifft(t_table * np.fft.fft(phi, axis=1), axis=1) + v_table * phi
        if non_inertial_accel is not None:
            h_phi = h_phi + (masses[:, None] * non_inertial_accel[k]) * x[None, :] * phi
        resid = 1j * params.hbar * dphi - h_phi
        worst = max(worst, float(np.sqrt(np.sum(np.abs(resid) ** 2) * grid.dx)))
    return worst
