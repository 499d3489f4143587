"""Discretized 1D Hilbert space for particles with internal levels.

Conventions used throughout the package:

* Periodic position grid x_n = x_min + n dx, n = 0..N-1, N a power of two,
  dx = (x_max - x_min)/N.  The right endpoint x_max is identified with x_min.
* Momentum grid p_k = 2 pi hbar k / L, k = -N/2 .. N/2-1, in fft ordering.
* A composite state stores one complex amplitude row per internal level,
  shape (dim, N), normalized so that sum |amps|^2 dx = 1.
* Internal level i carries total rest energy E0 + E_i and mass-energy
  M_i = (E0 + E_i)/c^2.  The Newtonian mass parameter is m = E0/c^2.
* Spectral operations are exact only for states negligible at the seam, so
  every operation that moves or differentiates a packet checks the
  boundary-clearance rule: per populated branch, <x> +/- 4 sigma_x must lie
  inside the domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import (
    BoundaryViolationError,
    BranchDeformedError,
    GridResolutionError,
    IncompatibleSpacesError,
    PreconditionError,
)

CLEARANCE_SIGMAS = 4.0
_POPULATED = 1e-12  # branches below this probability are skipped in checks


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic spatial grid."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise PreconditionError("grid needs x_max > x_min")
        n = self.n_points
        if n < 8 or (n & (n - 1)) != 0:
            raise PreconditionError(
                f"n_points must be a power of two >= 8, got {n}"
            )

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.length / self.n_points

    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    def p(self, hbar: float) -> np.ndarray:
        """Momentum grid in fft ordering."""
        return 2.0 * np.pi * hbar * np.fft.fftfreq(self.n_points, d=self.dx)


@dataclass(frozen=True)
class InternalSpace:
    """Internal level structure: static rest energy E0 plus level energies.

    ``levels`` are the eigenvalues E_i of the dynamical part of the rest
    energy, sorted ascending; level i has mass-energy M_i = (E0 + E_i)/c^2.
    """

    E0: float
    levels: tuple

    def __post_init__(self):
        levels = np.asarray(self.levels)
        if levels.ndim != 1 or levels.dtype.kind not in "iuf":
            raise PreconditionError(f"levels must be a sequence of numbers, got {self.levels!r}")
        object.__setattr__(self, "levels", tuple(float(e) for e in levels))
        if self.E0 <= 0:
            raise PreconditionError("E0 must be positive")
        if len(self.levels) < 1:
            raise PreconditionError("need at least one internal level")
        if any(b < a for a, b in zip(self.levels, self.levels[1:])):
            raise PreconditionError("levels must be sorted ascending")
        for e in self.levels:
            if abs(e) >= self.E0:
                raise PreconditionError(
                    f"|E_i| < E0 required for the low-energy split; got E_i={e}, E0={self.E0}"
                )

    @property
    def dim(self) -> int:
        return len(self.levels)

    def rest_energies(self) -> np.ndarray:
        """Total rest energy E0 + E_i per level."""
        return self.E0 + np.asarray(self.levels)

    def mass_energies(self, c: float) -> np.ndarray:
        """M_i = (E0 + E_i)/c^2; guaranteed positive by the invariants."""
        return self.rest_energies() / c**2


def internal_space_from_masses(masses: Sequence[float], c: float) -> InternalSpace:
    """Internal space whose mass-energies are the given values.

    Uses E0 = masses[0] * c^2, so the first level sits at E_1 = 0 and the
    mass parameter equals the first mass.
    """
    masses = [float(m) for m in masses]
    if any(b < a for a, b in zip(masses, masses[1:])):
        raise PreconditionError("masses must be sorted ascending")
    e0 = masses[0] * c**2
    return InternalSpace(E0=e0, levels=tuple((m - masses[0]) * c**2 for m in masses))


@dataclass(frozen=True)
class Potential:
    """External potential model Phi(x): none, uniform field, or a table."""

    kind: str
    g: float = 0.0
    xs: tuple = ()
    phis: tuple = ()

    @classmethod
    def none(cls) -> "Potential":
        return cls(kind="none")

    @classmethod
    def uniform_field(cls, g: float) -> "Potential":
        """Phi(x) = g x, with Phi = 0 at the reference height x = 0."""
        return cls(kind="uniform", g=float(g))

    @classmethod
    def tabulated(cls, xs: Sequence[float], phis: Sequence[float]) -> "Potential":
        xs = tuple(float(v) for v in xs)
        phis = tuple(float(v) for v in phis)
        if len(xs) != len(phis) or len(xs) < 2:
            raise PreconditionError("tabulated potential needs matching xs/phis, >= 2 points")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise PreconditionError("tabulated potential xs must be strictly increasing")
        return cls(kind="tabulated", xs=xs, phis=phis)

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "none":
            return np.zeros_like(x)
        if self.kind == "uniform":
            return self.g * x
        if self.kind == "tabulated":
            return np.interp(x, self.xs, self.phis)
        raise PreconditionError(f"unknown potential kind {self.kind!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Unit conventions and environment: hbar, c, rest energy, potential.

    E0 is the stored number; the mass parameter m = E0/c^2 is always derived
    from it so the two can never drift apart.  E0 must be the same number as
    the InternalSpace's E0 wherever the two objects meet.
    """

    hbar: float = 1.0
    c: float = 10.0
    E0: float = 100.0
    potential: Potential = Potential.none()

    def __post_init__(self):
        if self.hbar <= 0 or self.c <= 0 or self.E0 <= 0:
            raise PreconditionError("hbar, c and E0 must be positive")

    @property
    def m(self) -> float:
        return self.E0 / self.c**2

    @classmethod
    def from_mass(cls, m: float, c: float = 10.0, hbar: float = 1.0,
                  potential: Potential = Potential.none()) -> "PhysicalParams":
        return cls(hbar=hbar, c=c, E0=m * c**2, potential=potential)

    def check_internal(self, internal: InternalSpace) -> None:
        if internal.E0 != self.E0:
            raise IncompatibleSpacesError(
                f"PhysicalParams.E0={self.E0} != InternalSpace.E0={internal.E0}; "
                "both must hold the same stored number"
            )


@dataclass(frozen=True)
class CompositeState:
    """Full quantum state: complex amplitudes over (level, grid point)."""

    grid: GridSpec
    internal: InternalSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)  # private copy
        expected = (self.internal.dim, self.grid.n_points)
        if amps.shape != expected:
            raise PreconditionError(
                f"amplitude shape {amps.shape} != (dim, n_points) = {expected}"
            )
        nrm = np.sqrt(np.sum(amps.real**2 + amps.imag**2) * self.grid.dx)
        if abs(nrm - 1.0) > 1e-10:
            raise PreconditionError(f"state norm {nrm!r} deviates from 1 beyond 1e-10")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def create(cls, grid: GridSpec, internal: InternalSpace,
               amplitudes: np.ndarray, normalize: bool = False) -> "CompositeState":
        amps = np.array(amplitudes, dtype=complex)
        if normalize:
            nrm = np.sqrt(np.sum(amps.real**2 + amps.imag**2) * grid.dx)
            if nrm == 0.0:
                raise PreconditionError("cannot normalize a zero state")
            amps /= nrm
        return cls(grid=grid, internal=internal, amplitudes=amps)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.dx))

    def branch_populations(self) -> np.ndarray:
        return np.sum(np.abs(self.amplitudes) ** 2, axis=1) * self.grid.dx

    def branch_overlap(self, i: int, j: int) -> complex:
        """<branch i | branch j> of this state (internal coherence readout)."""
        a = self.amplitudes
        return complex(np.sum(np.conj(a[i]) * a[j]) * self.grid.dx)

    def with_amplitudes(self, amplitudes: np.ndarray) -> "CompositeState":
        return CompositeState(grid=self.grid, internal=self.internal,
                              amplitudes=amplitudes)


# --- construction -----------------------------------------------------------

def gaussian_packet(grid: GridSpec, x0: float, p0: float, sigma: float,
                    hbar: float = 1.0) -> np.ndarray:
    """Normalized Gaussian exp(-(x-x0)^2/4 sigma^2 + i p0 x / hbar).

    Preconditions: sigma >= 4 dx (resolvable) and x0 at least 4 sigma away
    from both boundaries.
    """
    if sigma < 4.0 * grid.dx:
        raise GridResolutionError(
            f"sigma={sigma} unresolvable: need sigma >= 4 dx = {4.0 * grid.dx}"
        )
    if not (grid.x_min + CLEARANCE_SIGMAS * sigma <= x0 <= grid.x_max - CLEARANCE_SIGMAS * sigma):
        raise BoundaryViolationError(
            f"packet at x0={x0} too close to boundary for sigma={sigma}"
        )
    x = grid.x()
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * p0 * x / hbar)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    return psi


def make_superposition(grid: GridSpec, internal: InternalSpace,
                       weights: Sequence[complex],
                       spatial) -> CompositeState:
    """Composite state with amplitudes weight_i * spatial_i(x), normalized.

    ``spatial`` is either a single shared wavefunction array or one array
    per internal level.
    """
    weights = np.asarray(list(weights), dtype=complex)
    if weights.shape != (internal.dim,):
        raise PreconditionError(
            f"got {weights.size} weights for dim={internal.dim}"
        )
    if np.all(weights == 0):
        raise PreconditionError("all-zero weights cannot be normalized")
    spatial = np.asarray(spatial, dtype=complex)
    if spatial.ndim == 1:
        spatial = np.broadcast_to(spatial, (internal.dim, grid.n_points))
    if spatial.shape != (internal.dim, grid.n_points):
        raise PreconditionError(
            f"spatial shape {spatial.shape} incompatible with "
            f"(dim, n_points) = {(internal.dim, grid.n_points)}"
        )
    amps = weights[:, None] * spatial
    return CompositeState.create(grid, internal, amps, normalize=True)


# --- comparison primitives --------------------------------------------------

def _check_same_spaces(a: CompositeState, b: CompositeState) -> None:
    if a.grid != b.grid or a.internal != b.internal:
        raise IncompatibleSpacesError("states live on different grids or internal spaces")


def overlap(a: CompositeState, b: CompositeState) -> complex:
    """<a|b> = sum conj(a) b dx over levels and grid points.

    The summation order is fixed (flattened C order, numpy pairwise sum), so
    overlap(a, b) == conj(overlap(b, a)) holds exactly in floating point.
    """
    _check_same_spaces(a, b)
    prod = np.conj(a.amplitudes.ravel()) * b.amplitudes.ravel()
    return complex(np.sum(prod) * a.grid.dx)


class BranchPhase(NamedTuple):
    phase: float
    fidelity: float


def wrap_angle(theta: float) -> float:
    """Principal value in (-pi, pi]."""
    out = float(np.mod(theta + np.pi, 2.0 * np.pi) - np.pi)
    if out == -np.pi:
        out = np.pi
    return out


def branch_phase(before: CompositeState, after: CompositeState, level: int,
                 population_tol: float = 1e-8,
                 fidelity_tol: float = 1e-6) -> BranchPhase:
    """Phase of ``after`` relative to ``before`` on one internal branch.

    Returns the principal-value argument of the branch-restricted overlap
    together with the branch fidelity |<before_i|after_i>| / ||branch||^2.
    Raises BranchDeformedError when the branch changed by more than a phase.
    """
    _check_same_spaces(before, after)
    pop_before = before.branch_populations()[level]
    pop_after = after.branch_populations()[level]
    if min(pop_before, pop_after) <= 1e-6:
        raise PreconditionError(
            f"branch {level} norm too small for a phase readout"
        )
    if abs(pop_before - pop_after) > population_tol:
        raise PreconditionError(
            f"branch {level} populations differ: {pop_before} vs {pop_after}"
        )
    o = np.sum(np.conj(before.amplitudes[level]) * after.amplitudes[level]) * before.grid.dx
    fidelity = abs(o) / pop_before
    if fidelity < 1.0 - fidelity_tol:
        raise BranchDeformedError(
            f"branch {level} fidelity {fidelity} < 1 - {fidelity_tol}: "
            "states differ by more than a phase"
        )
    return BranchPhase(phase=wrap_angle(float(np.angle(o))), fidelity=float(fidelity))


# --- observables ------------------------------------------------------------

def wavefunction_moments(grid: GridSpec, psi: np.ndarray):
    """(probability, <x>, var x) of one spatial wavefunction (not normalized)."""
    w = np.abs(psi) ** 2
    prob = float(np.sum(w) * grid.dx)
    if prob == 0.0:
        return 0.0, 0.0, 0.0
    x = grid.x()
    mean = float(np.sum(w * x) * grid.dx / prob)
    var = float(np.sum(w * (x - mean) ** 2) * grid.dx / prob)
    return prob, mean, var


def expectation_x(grid: GridSpec, psi: np.ndarray) -> float:
    _, mean, _ = wavefunction_moments(grid, psi)
    return mean


def momentum_distribution(grid: GridSpec, psi: np.ndarray) -> np.ndarray:
    """|psi~(p_k)|^2 in fft ordering, normalized to unit sum."""
    ft = np.fft.fft(psi)
    w = np.abs(ft) ** 2
    return w / np.sum(w)


def expectation_p(grid: GridSpec, psi: np.ndarray, hbar: float) -> float:
    w = momentum_distribution(grid, psi)
    return float(np.sum(w * grid.p(hbar)))


def expectation_p2(grid: GridSpec, psi: np.ndarray, hbar: float) -> float:
    w = momentum_distribution(grid, psi)
    return float(np.sum(w * grid.p(hbar) ** 2))


def expectation_kinetic(grid: GridSpec, psi: np.ndarray, hbar: float,
                        t_of_p: Callable[[np.ndarray], np.ndarray]) -> float:
    """<T(p)> for an arbitrary momentum-diagonal function."""
    w = momentum_distribution(grid, psi)
    return float(np.sum(w * t_of_p(grid.p(hbar))))


# --- boundary rule ----------------------------------------------------------

def boundary_clearance_violation(grid: GridSpec, amplitudes: np.ndarray,
                                 n_sigmas: float = CLEARANCE_SIGMAS):
    """None if every populated branch keeps <x> +/- n_sigmas * sigma_x inside
    the domain, else a human-readable description of the worst offender."""
    moments = _kernels.branch_moments(np.atleast_2d(amplitudes), grid.x())
    return _clearance_from_moments(grid, moments * grid.dx, n_sigmas)


def _clearance_from_moments(grid: GridSpec, moments: np.ndarray,
                            n_sigmas: float = CLEARANCE_SIGMAS):
    """Same check from precomputed per-branch [prob, sum x w, sum x^2 w] dx."""
    for i, (prob, sx, sxx) in enumerate(moments):
        if prob <= _POPULATED:
            continue
        mean = sx / prob
        var = max(sxx / prob - mean**2, 0.0)
        half = n_sigmas * np.sqrt(var)
        if mean - half < grid.x_min or mean + half > grid.x_max:
            return (
                f"branch {i}: <x>={mean:.3f}, {n_sigmas} sigma_x={half:.3f} "
                f"leaves [{grid.x_min}, {grid.x_max}]"
            )
    return None


def _check_clearance(grid: GridSpec, amplitudes: np.ndarray, context: str) -> None:
    msg = boundary_clearance_violation(grid, amplitudes)
    if msg is not None:
        raise BoundaryViolationError(f"{context}: {msg}")
