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
* One moments pass, ``_kernels.branch_moments`` on the grid's cached
  table, reads every branch's [prob, sum x w dx, sum x^2 w dx], and only
  this module makes it: ``branch_populations`` (and through it the
  constructor's norm rule and ``norm``) and ``expectation_x`` read it, and
  one check, ``_check``, applies the norm rule and then the clearance rule
  to each run of a (rows, N) buffer from one such pass.  Translations,
  boosts, the moving-frame map and the commutator residual call that
  check; the propagator calls its batched form, ``_check_steps``, once per
  batch of steps, which applies the same rules step by step.
* Every propagated packet keeps its momenta inside +/- pi hbar / dx: the
  band rule, ``_require_band``, reads each branch's spectrum and V table
  once per propagation, in its one home, the step loop ``dynamics._evolve``.
  ``gaussian_packet`` refuses a launch already past that range, which the
  grid would hold wrapped.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Sequence, Tuple

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


def _require_positive(name: str, value: float) -> None:
    """The positive-constant rule, one for every constant and step size:
    ``value`` must be > 0 and finite (NaN and inf fail it)."""
    if not 0.0 < value < math.inf:
        raise PreconditionError(f"{name} must be positive and finite, got {value!r}")


def _require_finite(name: str, value: float) -> None:
    """The finite-value rule, for every quantity that may be zero or
    negative (levels, grid bounds, fields, packet positions and momenta):
    NaN and +/-inf fail it."""
    if not -math.inf < value < math.inf:
        raise PreconditionError(f"{name} must be finite, got {value!r}")


def _require_level(level: int, dim: int) -> None:
    """The level-index rule, one for every branch readout: ``level`` must
    name a branch, 0 <= level < dim (a negative index is refused, not
    read from the end)."""
    if not 0 <= level < dim:
        raise PreconditionError(f"level {level} out of range for dim={dim}")


def _require_finite_samples(name: str, samples: np.ndarray) -> None:
    """The finite-value rule on every entry of a float array, in one
    vectorized pass; a refusal names the first non-finite entry."""
    bad = ~np.isfinite(samples)
    if bad.any():
        _require_finite(name, samples[bad].item(0))


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic spatial grid."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        _require_finite("x_min", self.x_min)
        _require_finite("x_max", self.x_max)
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
        for e in self.levels:
            _require_finite("levels", e)
        _require_positive("E0", self.E0)
        if len(self.levels) < 1:
            raise PreconditionError("need at least one internal level")
        if any(b < a for a, b in zip(self.levels, self.levels[1:])):
            raise PreconditionError("levels must be sorted ascending")
        for e in self.levels:
            if abs(e) >= self.E0:
                raise PreconditionError(
                    f"|E_i| < E0 required for the low-energy split; got E_i={e}, E0={self.E0}"
                )
        rest = self.E0 + np.asarray(self.levels)
        rest.flags.writeable = False
        object.__setattr__(self, "_rest", rest)

    @property
    def dim(self) -> int:
        return len(self.levels)

    def rest_energies(self) -> np.ndarray:
        """Total rest energy E0 + E_i per level, built once (read-only)."""
        return self._rest

    def mass_energies(self, c: float) -> np.ndarray:
        """M_i = (E0 + E_i)/c^2; guaranteed positive by the invariants."""
        return self._rest / c**2


def internal_space_from_masses(masses: Sequence[float], c: float) -> InternalSpace:
    """Internal space whose mass-energies are the given values.

    Uses E0 = max(masses) * c^2, so the heaviest level sits at E = 0, the
    others at (M_i - M_max) c^2 < 0, and the mass parameter m = E0 / c^2
    equals the heaviest mass.  |E_i| < E0 then holds for any positive
    masses.  The mass parameter is the kinetic mass of the low-energy and
    Newtonian forms, so dynamics at another reference mass (say m = M_1)
    need ``InternalSpace(E0=..., levels=...)``.
    """
    masses = [float(m) for m in masses]
    if not masses:
        raise PreconditionError("need at least one mass")
    for m in masses:
        _require_positive("masses", m)
    if any(b < a for a, b in zip(masses, masses[1:])):
        raise PreconditionError("masses must be sorted ascending")
    e0 = masses[-1] * c**2
    return InternalSpace(E0=e0, levels=tuple((m - masses[-1]) * c**2 for m in masses))


@dataclass(frozen=True)
class Potential:
    """External potential model Phi(x): none, uniform field, or a table."""

    kind: str
    g: float = 0.0
    xs: tuple = ()
    phis: tuple = ()
    # per kind, the fields of the other kinds, which must stay unset
    _FOREIGN = {"none": ("g", "xs", "phis"), "uniform": ("xs", "phis"), "tabulated": ("g",)}

    def __post_init__(self):
        if self.kind not in self._FOREIGN:
            raise PreconditionError(f"unknown potential kind {self.kind!r}")
        _require_finite("g", self.g)
        for name in ("xs", "phis"):
            for value in getattr(self, name):
                _require_finite(name, value)
        for name in self._FOREIGN[self.kind]:
            if getattr(self, name):
                raise PreconditionError(f"a {self.kind!r} potential takes no {name}, "
                                        f"got {getattr(self, name)!r}")
        if self.kind == "tabulated":
            if len(self.xs) != len(self.phis) or len(self.xs) < 2:
                raise PreconditionError("tabulated potential needs matching xs/phis, >= 2 points")
            if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
                raise PreconditionError("tabulated potential xs must be strictly increasing")

    @classmethod
    def none(cls) -> "Potential":
        return cls(kind="none")

    @classmethod
    def uniform_field(cls, g: float) -> "Potential":
        """Phi(x) = g x, with Phi = 0 at the reference height x = 0."""
        return cls(kind="uniform", g=float(g))

    @classmethod
    def tabulated(cls, xs: Sequence[float], phis: Sequence[float]) -> "Potential":
        return cls(kind="tabulated", xs=tuple(float(v) for v in xs),
                   phis=tuple(float(v) for v in phis))

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            return self.g * x
        if self.kind == "tabulated":
            return np.interp(x, self.xs, self.phis)
        return np.zeros_like(x)  # none


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
        for name in ("hbar", "c", "E0"):
            _require_positive(name, getattr(self, name))

    @property
    def m(self) -> float:
        return self.E0 / self.c**2

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
        amps = np.array(self.amplitudes, dtype=complex, order="C")  # private copy
        expected = (self.internal.dim, self.grid.n_points)
        if amps.shape != expected:
            raise PreconditionError(
                f"amplitude shape {amps.shape} != (dim, n_points) = {expected}"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        _require_unit_norm(sum(self.branch_populations().tolist()), "state")

    @classmethod
    def create(cls, grid: GridSpec, internal: InternalSpace,
               amplitudes: np.ndarray) -> "CompositeState":
        """The state with these amplitudes scaled to unit norm."""
        amps = np.array(amplitudes, dtype=complex, order="C")
        nrm = np.sqrt(np.sum(amps.real**2 + amps.imag**2) * grid.dx)
        if nrm == 0.0:
            raise PreconditionError("cannot normalize a zero state")
        amps /= nrm
        return cls(grid=grid, internal=internal, amplitudes=amps)

    def norm(self) -> float:
        return math.sqrt(sum(self.branch_populations().tolist()))

    def branch_populations(self) -> np.ndarray:
        """Each branch's probability sum |a_i|^2 dx, from the moments pass."""
        return _kernels.branch_moments(self.amplitudes, _grid_tables(self.grid).basis)[0]

    def branch_overlap(self, i: int, j: int) -> complex:
        """<branch i | branch j> of this state (internal coherence readout)."""
        for level in (i, j):
            _require_level(level, self.internal.dim)
        a = self.amplitudes
        return complex(_overlaps(a[i], a[j], self.grid.dx))

    def with_amplitudes(self, amplitudes: np.ndarray) -> "CompositeState":
        return CompositeState(grid=self.grid, internal=self.internal,
                              amplitudes=amplitudes)

    def _with_owned_amplitudes(self, amps: np.ndarray) -> "CompositeState":
        """The state on this state's spaces that owns ``amps``.

        ``amps`` is a fresh complex (dim, N) array nobody else holds, which
        the state rules (``_check`` or ``_check_steps``) have just passed;
        it becomes read-only in place, without the constructor's copy and
        second norm pass.
        """
        amps.flags.writeable = False
        state = object.__new__(CompositeState)
        object.__setattr__(state, "grid", self.grid)
        object.__setattr__(state, "internal", self.internal)
        object.__setattr__(state, "amplitudes", amps)
        return state


# --- construction -----------------------------------------------------------

def gaussian_packet(grid: GridSpec, x0: float, p0: float, sigma: float,
                    hbar: float = 1.0) -> np.ndarray:
    """Normalized Gaussian exp(-(x-x0)^2/4 sigma^2 + i p0 x / hbar).

    Preconditions: x0 and p0 finite, sigma positive and >= 4 dx
    (resolvable), x0 at least 4 sigma away from both boundaries, and the
    momenta p0 +/- 4 sigma_p, sigma_p = hbar / 2 sigma, inside +/- pi hbar
    / dx: a packet past them is already wrapped around the momentum grid,
    and the band rule, which reads its spectrum, would take the wrapped
    <p> as the launch.
    """
    _require_finite("x0", x0)
    _require_finite("p0", p0)
    _require_positive("sigma", sigma)
    if sigma < 4.0 * grid.dx:
        raise GridResolutionError(
            f"sigma={sigma} unresolvable: need sigma >= 4 dx = {4.0 * grid.dx}"
        )
    if not (grid.x_min + CLEARANCE_SIGMAS * sigma <= x0 <= grid.x_max - CLEARANCE_SIGMAS * sigma):
        raise BoundaryViolationError(
            f"packet at x0={x0} too close to boundary for sigma={sigma}"
        )
    limit, half = math.pi * hbar / grid.dx, CLEARANCE_SIGMAS * hbar / (2.0 * sigma)
    if not abs(p0) + half < limit:
        raise GridResolutionError(
            f"packet momentum band [{p0 - half:.3f}, {p0 + half:.3f}] leaves "
            f"+/-pi hbar/dx = +/-{limit:.3f} of grid.n_points={grid.n_points}; "
            "refine the grid or lower |p0|")
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
    return CompositeState.create(grid, internal, amps)


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


def branch_phase(before: CompositeState, after: CompositeState,
                 level: int) -> BranchPhase:
    """Phase of ``after`` relative to ``before`` on one internal branch.

    Returns the principal-value argument of the branch-restricted overlap
    together with the branch fidelity |<before_i|after_i>| / ||branch||^2.
    Raises BranchDeformedError when the branch changed by more than a phase.
    """
    _check_same_spaces(before, after)
    _require_level(level, before.internal.dim)
    pop_before = before.branch_populations()[level]
    pop_after = after.branch_populations()[level]
    if min(pop_before, pop_after) <= 1e-6:
        raise PreconditionError(
            f"branch {level} norm too small for a phase readout"
        )
    if abs(pop_before - pop_after) > 1e-8:
        raise PreconditionError(
            f"branch {level} populations differ: {pop_before} vs {pop_after}"
        )
    o = _overlaps(before.amplitudes[level], after.amplitudes[level], before.grid.dx)
    fidelity = abs(o) / pop_before
    if fidelity < 1.0 - 1e-6:
        raise BranchDeformedError(
            f"branch {level} fidelity {fidelity} < 1 - 1e-6: "
            "states differ by more than a phase"
        )
    return BranchPhase(phase=wrap_angle(float(np.angle(o))), fidelity=float(fidelity))


# --- observables ------------------------------------------------------------

def expectation_x(grid: GridSpec, psi: np.ndarray) -> float:
    """<x> of one spatial wavefunction (not necessarily normalized), from
    the moments pass; a zero wavefunction has none."""
    psi = np.asarray(psi, dtype=complex)
    prob, sx, _ = _kernels.branch_moments(psi, _grid_tables(grid).basis).tolist()
    if not prob > 0.0:
        raise PreconditionError("<x> of a zero wavefunction is undefined")
    return sx / prob


def momentum_distribution(psi: np.ndarray) -> np.ndarray:
    """|psi~(p_k)|^2 in fft ordering, normalized to unit sum; row by row
    for a stack of rows, each row with the bits it has alone."""
    ft = np.fft.fft(psi)
    w = np.abs(ft) ** 2
    return w / np.sum(w, axis=-1, keepdims=True)


def expectation_p(grid: GridSpec, psi: np.ndarray, hbar: float) -> float:
    w = momentum_distribution(psi)
    return float(np.sum(w * grid.p(hbar)))


def _overlaps(bra: np.ndarray, ket: np.ndarray, dx: float) -> np.ndarray:
    """<bra|ket> of two rows, or row by row of two stacks, each value with
    the bits it has alone: ``branch_overlap``'s formula."""
    return np.sum(np.conj(bra) * ket, axis=-1) * dx


# --- the moments pass and the state rules --------------------------------------

class _GridTables(NamedTuple):
    """Read-only tables of one grid: the grid itself; the positions x_n;
    the translation phase rate -2 pi k / L of the fft-ordered frequencies
    k / L, for k = 0 .. N/2 only; and the (3, 2N) moment table, [1, x, x^2]
    dx with each entry twice in a row (``_kernels.moment_table``), from
    which ``_kernels.branch_moments`` reads every branch's [prob,
    sum x w dx, sum x^2 w dx] in one matmul.

    Half the frequencies are enough for a translation: ``fftfreq`` gives
    freq[N - k] = -freq[k] bit for bit, so the phase of entry N - k is the
    exact complex conjugate of the phase of entry k (see
    ``symmetry._translate``).  N is a power of two >= 8, so the Nyquist
    entry k = N/2, whose frequency is -N/(2L), is always in the table."""

    grid: GridSpec
    x: np.ndarray
    shift_rate: np.ndarray
    basis: np.ndarray


@functools.lru_cache(maxsize=8)
def _grid_tables(grid: GridSpec) -> _GridTables:
    """The grid's tables, built once per grid and shared read-only:
    building them costs more than the per-sample work they serve."""
    x = grid.x()
    shift_rate = np.fft.fftfreq(grid.n_points, d=grid.dx)
    shift_rate *= -2.0 * np.pi  # in place: no second N-entry array
    shift_rate = shift_rate[:grid.n_points // 2 + 1]
    basis = _kernels.moment_table(x, grid.dx)
    for table in (x, shift_rate, basis):
        table.flags.writeable = False
    return _GridTables(grid, x, shift_rate, basis)


def _require_unit_norm(total: float, where: str, *args) -> None:
    """The norm rule on a total probability, |sum |psi|^2 dx - 1| <= 1e-10
    (a NaN total fails it too), for every state built and every state a
    step or a map makes.  A refusal names ``where.format(*args)``; the text
    is formatted only on refusal."""
    if not abs(total - 1.0) <= 1e-10:
        raise PreconditionError(f"{where.format(*args)}: total probability {total!r} "
                                "deviates from 1 beyond 1e-10")


def _require_clearance(grid: GridSpec, probs: Sequence[float], sxs: Sequence[float],
                       sxxs: Sequence[float], where: str, *args) -> None:
    """The clearance rule on the per-branch columns prob, sum x w dx and
    sum x^2 w dx, as Python floats: every populated branch keeps
    <x> +/- CLEARANCE_SIGMAS * sigma_x inside the domain.  Else raise
    BoundaryViolationError naming ``where.format(*args)`` and the first
    offender; the text is formatted only on refusal, since the rule runs on
    every step and map.  A scalar loop beats masked numpy at this size:
    hence the local lookups, and no max() call."""
    x_min, x_max, sqrt = grid.x_min, grid.x_max, math.sqrt
    for i, (prob, sx, sxx) in enumerate(zip(probs, sxs, sxxs)):
        if prob <= _POPULATED:
            continue
        mean = sx / prob
        var = sxx / prob - mean**2
        if var < 0.0:
            var = 0.0
        half = CLEARANCE_SIGMAS * sqrt(var)
        if mean - half < x_min or mean + half > x_max:
            raise BoundaryViolationError(
                f"{where.format(*args)}: branch {i}: <x>={mean:.3f}, "
                f"{CLEARANCE_SIGMAS} sigma_x={half:.3f} leaves [{x_min}, {x_max}]")


def _require_band(grid: GridSpec, hbar: float, columns: Sequence[Sequence[float]],
                  total_time: float, where: str, *args) -> None:
    """The band rule on one run's five per-branch ``columns``, as Python
    floats: prob, sum k w and sum k^2 w of its spectrum over k = p / hbar,
    and the least and greatest dV/dx of its V row.  A V affine in x only
    translates momenta, p -> p - V' t, so a populated branch sweeps
    [min(<p> - max V' T, <p>), max(<p> - min V' T, <p>)] over T =
    ``total_time``; widened by CLEARANCE_SIGMAS sigma_p, that band must lie
    inside +/- pi hbar / dx (a NaN band fails it), or the packet wraps
    around the momentum grid unseen.  Else raise GridResolutionError naming
    ``where.format(*args)``, formatted only then, the first offending
    branch, its band and grid.n_points."""
    limit = math.pi * hbar / grid.dx
    for i, (prob, sk, skk, low, high) in enumerate(zip(*columns)):
        if prob <= _POPULATED:
            continue
        mean = hbar * sk / prob
        variance = max(skk / prob - (sk / prob) ** 2, 0.0)
        half = CLEARANCE_SIGMAS * hbar * math.sqrt(variance)
        lo = min(mean - high * total_time, mean) - half  # a NaN end is kept
        hi = max(mean - low * total_time, mean) + half
        if not -limit < lo <= hi < limit:
            raise GridResolutionError(
                f"{where.format(*args)}: branch {i}: momentum band [{lo:.3f}, {hi:.3f}] "
                f"leaves +/-pi hbar/dx = +/-{limit:.3f} of grid.n_points={grid.n_points}; "
                "refine the grid or shorten the run")


_ONE_RUN = (slice(None),)


def _check(tables: _GridTables, amps: np.ndarray, where: str, *args,
           runs: Sequence[slice] = _ONE_RUN) -> Tuple[List[float], List[float]]:
    """The state rules on a (rows, N) buffer on the grid of ``tables``
    whose runs own the row slices ``runs`` (by default one run of every
    row): one moments pass, then, run by run in order, the norm rule on
    the run's total and the clearance rule on its rows.  A refusal names
    ``where.format(*args)``.  Returns each run's total and every row's
    probability, as the pass read them.

    One moments matmul serves every run.  BLAS may tile a taller matrix
    differently, so a run's total can differ from its solo value in the
    last bits; the amplitudes never do.
    """
    probs, sxs, sxxs = _kernels.branch_moments(amps, tables.basis).tolist()
    return _rules(tables.grid, probs, sxs, sxxs, runs, where, *args), probs


def _check_steps(tables: _GridTables, slots: np.ndarray, first: int,
                 runs: Sequence[slice]) -> Iterator[List[float]]:
    """``_check`` on each slot of ``slots``, a (steps, rows, N) batch of the
    buffers after the consecutive steps first, first + 1, ...: one moments
    pass over every row of the batch, then slot by slot, in order, the
    rules of ``_check``, a refusal naming "step k" of its slot.  Yields
    each slot's run totals once its rules pass, so a caller has every slot
    before a refused one."""
    n, rows, _ = slots.shape
    moments = _kernels.branch_moments(slots.reshape(n * rows, -1), tables.basis)
    for step, (probs, sxs, sxxs) in enumerate(zip(*moments.reshape(3, n, rows).tolist()),
                                              first):
        yield _rules(tables.grid, probs, sxs, sxxs, runs, "step {}", step)


def _rules(grid: GridSpec, probs: List[float], sxs: List[float], sxxs: List[float],
           runs: Sequence[slice], where: str, *args) -> List[float]:
    """The norm rule and then the clearance rule, run by run in order, on
    the per-row moments of one buffer whose runs own the row slices
    ``runs``; returns each run's total."""
    totals = []
    for rows in runs:
        own = probs[rows]
        total = sum(own)
        _require_unit_norm(total, where, *args)
        _require_clearance(grid, own, sxs[rows], sxxs[rows], where, *args)
        totals.append(total)
    return totals
