"""Hamiltonians for composite particles and their split-operator propagation.

Every Hamiltonian kind decomposes per internal branch i into a
momentum-diagonal part T_i(p) and a position-diagonal part V_i(x), with
H_r,i = E0 + E_i the branch rest energy, M_i = H_r,i / c^2, m = E0/c^2:

  exact           T = sqrt(c^2 p^2 + H_r^2)          V = M Phi(x)
  dynamical_mass  T = p^2 c^2 / 2 H_r                V = M Phi(x)
  low_energy      T = H_r + p^2 c^2 / 2 H_r          V = M Phi(x)
  split           T = p^2 c^2/2E0 - E_i p^2 c^2/2E0^2
                                                     V = H_r + H_r Phi(x)/c^2
  newtonian       T = p^2 / 2m                       V = m c^2 + E_i + m Phi(x)

Each row is a HamiltonianKind (T, dT/dp and V, and for the kinds whose T
is quadratic in p, every kind but exact, d^2T/dp^2 and dV/dPhi) of the
kind table ``_KINDS``, keyed by name; low_energy is dynamical_mass with
its rest term H_r.  A row is evaluated one way, on the (dim, 1) branch
columns of ``_branches``: the propagator, the residual check and the
velocity readout read every branch of the row they get at once.

The exact kind models a static weak field, g00 = -(1 + 2 Phi/c^2) with flat
spatial metric; the metric factor is folded into V as the additive M Phi(x)
term, accurate to the same order as the low-energy form.

Propagation is Strang splitting,
exp(-i V dt/2 hbar) F^-1 exp(-i T dt/hbar) F exp(-i V dt/2 hbar)
per branch per step: exactly unitary, second order in dt.  The alias
rule bounds dt by each branch's spread of T over the momentum grid,
dt (max_p T_i - min_p T_i) / hbar < pi.  A constant in T, low_energy's
and exact's rest energy H_r, is a branch phase that commutes with every
factor of a step, so the rule does not read it, as it never read the
rest term that split and newtonian carry in V.  Under a
quadratic kind in a uniform field g != 0 the step is made exact: there
Strang's whole error is one constant per branch, -dt^2 k^2 / 24 mu with
k = dV/dx and 1/mu = d^2T/dp^2, and each V half-step table carries the
phase that adds it back (``_strang_phase``), at plan time, so the step
costs what a plain one does.  The exact kind and tabulated potentials
keep plain Strang.  A free run, one whose V is constant in x on every
branch (no potential, a zero field or a constant table, under any kind:
V is then one number per branch), has V commuting with F, so n steps are
exactly F^-1 (V_half T V_half)^n F, and each step is exact.  Such
a run keeps its momentum-space spectrum: each step multiplies it by V_half,
T and V_half, and an inverse FFT gives the x-space buffer, in place of an
FFT pair; its amplitudes differ from the x-space steps' by round-off only.
A run whose V depends on x takes the x-space step; one step function,
``_strang_step``, serves both.  The step loop, ``_evolve``, is the one
home of the momentum-band rule (``hilbert._require_band``): one FFT of
the initial buffer, which also starts the free spectra, gives each
branch's <p> and sigma_p, and the V table its range of dV/dx, exact for
V affine in x.  The loop advances in step batches of B steps
(``_BATCH_BYTES`` of buffers), a (B, sum dim_r, N) batch in x space and
a second one in momentum space for the free runs' rows.  Block by block,
``_Plan.advance`` steps each slot from the slot before.  Where every step
is checked in x space, a block of free runs then takes one batched
inverse FFT from its momentum-space slots into its x-space slots, one
moments pass covers the whole batch, and ``hilbert._check_steps``
applies, step by step in order, the norm rule (total probability within
1e-10 of 1) and then the boundary-clearance rule to each run, so a
refusal names its step; a sampled or final state takes the checked slot
as it is.

Free runs read less often than every ``_MIN_STRETCH`` steps stay in
momentum space between reads (a sample, the last step).  For free motion
under any T(p) the Heisenberg solution x(t) = x0 + v(p) t, v = dT/dp, is
exact, so each branch's <x> moves by <v> t and, by the triangle
inequality for standard deviations, sigma_x(t) <= sigma_x(0) + sigma_v t,
where <v> and sigma_v are constants of its spectrum, read once against
the velocity table.  sigma_x(t)^2 is a non-negative quadratic in t, so
<x> + 4 sigma_x is convex and <x> - 4 sigma_x concave over a stretch of
free steps: the clearance rule holds on every step if it holds at both
ends, on the continuum.  The periodic grid breaks that argument where
probability crosses the seam, and two checks keep a stretch's verdict
the check of every step's.  The no-wrap guard, ``_Plan.admitted``, ends
a stretch where the linear window <x> + <v> t +/- 6 (sigma_x + sigma_v t)
of some populated free branch would leave the domain: it refuses two
packets that part, wrap through both seams and meet again, whose <x>
never moves.  At the end, the free branches' <x> and sigma_x must have
moved as free motion moves them (``_Plan.follows``): it catches a weak
packet outside that window, which may wrap while the guard admits the
stretch.  On each step of a stretch the norm rule reads the spectrum by
Parseval, with no FFT, and the field runs of a mixed stack keep their
check of every step; at its end one inverse FFT writes the x-space slot,
and one moments pass feeds both rules, the follow check and the next
stretch's guard.  A stretch the guard admits for fewer than
``_MIN_STRETCH`` steps takes the checked steps, and one that fails any
check runs again from its saved start through them, so a refusal names
the same step with the same text, and the replay costs time only there.

One step loop serves every propagation: a runner's independent runs on
one grid share one stacked (sum dim_r, N) buffer, stepped in blocks of
consecutive free or non-free runs, and every step acts row by row, so
each run keeps the bits it has alone, in any stack, batch and stretch;
the checks apply to each run's own rows, and the runners read their
samples from the batch's slots.

Trajectories xi(t) of a moving frame are stored as uniform samples;
velocity/acceleration use stored exact samples when a factory provides
them, otherwise central differences (one-sided second order at the ends).
Quadrature is composite Simpson on the uniform grid.

The moving-frame map is the Galilean map that boosts use too
(``symmetry._galilei_map``): a translation by -xi, then the branch phase
exp(-i M_i (xi_dot x + S) / hbar); each output has the bits of the
per-sample oracle.  A trajectory read at a sample time is one index into
the stored samples.  The Schrodinger residual of a history runs over
blocks of consecutive samples, one batched FFT pair per block, and has
the bits of a loop over single samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels, symmetry
from .errors import (
    AliasingError,
    IncompatibleSpacesError,
    PreconditionError,
    SuperluminalError,
    TrajectoryError,
)
from .hilbert import (
    _POPULATED,
    CompositeState,
    GridSpec,
    InternalSpace,
    PhysicalParams,
    _check_same_spaces,
    _check_steps,
    _grid_tables,
    _require_band,
    _require_finite,
    _require_finite_samples,
    _require_integer,
    _require_level,
    _require_positive,
    _rules,
    _spreads,
    _step_moments,
    momentum_distribution,
)

# --- Hamiltonian kinds -------------------------------------------------------

def _branches(internal: InternalSpace, params: PhysicalParams) -> SimpleNamespace:
    """Constants of the branch operators: hr = E0 + E_i and ei = E_i as
    (dim, 1) columns, so one row of the kind table fills every branch."""
    params.check_internal(internal)
    ei = np.asarray(internal.levels)[:, None]
    return SimpleNamespace(hr=internal.E0 + ei, ei=ei, e0=internal.E0,
                           c=params.c, m=params.m)


@dataclass(frozen=True)
class HamiltonianKind:
    """One row of the kind table: T(p, b), dT/dp(p, b) and V(Phi, b) under
    a name, and for a T quadratic in p the constants d^2T/dp^2 (b) and
    dV/dPhi (b), which the exact kind, not quadratic, leaves None.
    Equality, hashing and repr read the name alone."""

    name: str
    kinetic: Callable = field(compare=False, repr=False)
    velocity: Callable = field(compare=False, repr=False)
    potential: Callable = field(compare=False, repr=False)
    inverse_mass: Optional[Callable] = field(default=None, compare=False, repr=False)
    field_mass: Optional[Callable] = field(default=None, compare=False, repr=False)

    @classmethod
    def exact(cls):
        return cls.from_name("exact")

    @classmethod
    def dynamical_mass(cls):
        return cls.from_name("dynamical_mass")

    @classmethod
    def low_energy(cls):
        return cls.from_name("low_energy")

    @classmethod
    def split(cls):
        return cls.from_name("split")

    @classmethod
    def newtonian(cls):
        return cls.from_name("newtonian")

    @classmethod
    def from_name(cls, name: str) -> "HamiltonianKind":
        """The table row named ``name`` (surrounding whitespace ignored)."""
        if not isinstance(name, str):
            raise PreconditionError(f"a Hamiltonian kind is named by a string, got {name!r}")
        name = name.strip()
        if name not in _KINDS:
            raise PreconditionError(f"unknown Hamiltonian kind {name!r}; "
                                    f"known: {', '.join(_KINDS)}")
        return _KINDS[name]


# H_r = M c^2 plays the mass: the low-energy form, which is dynamical_mass
# with its rest term by construction; the other mass-energy kinds vary it.
_LOW_ENERGY = HamiltonianKind(
    "low_energy",
    lambda p, b: b.hr + p**2 * b.c**2 / (2.0 * b.hr),
    lambda p, b: p * b.c**2 / b.hr,
    lambda phi, b: (b.hr / b.c**2) * phi,
    lambda b: b.c**2 / b.hr,
    lambda b: b.hr / b.c**2)

# The kind table (see the module docstring), keyed by name.
_KINDS = {kind.name: kind for kind in (
    replace(_LOW_ENERGY, name="exact",
            kinetic=lambda p, b: np.sqrt(b.c**2 * p**2 + b.hr**2),
            velocity=lambda p, b: p * b.c**2 / np.sqrt(b.c**2 * p**2 + b.hr**2),
            inverse_mass=None, field_mass=None),
    replace(_LOW_ENERGY, name="dynamical_mass",
            kinetic=lambda p, b: p**2 * b.c**2 / (2.0 * b.hr)),
    _LOW_ENERGY,
    HamiltonianKind(
        "split",
        lambda p, b: (p**2 * b.c**2 / (2.0 * b.e0)
                      - b.ei * p**2 * b.c**2 / (2.0 * b.e0**2)),
        lambda p, b: p * b.c**2 / b.e0 - b.ei * p * b.c**2 / b.e0**2,
        lambda phi, b: b.hr + b.hr * phi / b.c**2,
        lambda b: b.c**2 / b.e0 - b.ei * b.c**2 / b.e0**2,
        lambda b: b.hr / b.c**2),
    HamiltonianKind(
        "newtonian",
        lambda p, b: p**2 / (2.0 * b.m),
        lambda p, b: p / b.m,
        lambda phi, b: b.m * b.c**2 + b.ei + b.m * phi,
        lambda b: 1.0 / b.m,
        lambda b: b.m),
)}


def _tables(kind: HamiltonianKind, grid: GridSpec, internal: InternalSpace,
            params: PhysicalParams) -> Tuple[np.ndarray, np.ndarray]:
    """(dim, N) tables T_i(p_k) and V_i(x_n) of every branch (read-only)."""
    b = _branches(internal, params)
    shape = (internal.dim, grid.n_points)
    t_table = kind.kinetic(grid.p(params.hbar), b)
    v_table = kind.potential(params.potential.values(grid.x()), b)
    return np.broadcast_to(t_table, shape), np.broadcast_to(v_table, shape)


def _strang_phase(kind: HamiltonianKind, internal: InternalSpace,
                  params: PhysicalParams, dt: float) -> Optional[np.ndarray]:
    """The (dim, 1) phases exp(-i delta_i dt / 2 hbar) that make a Strang
    step of a quadratic kind in a uniform field g != 0 exact, or None for
    any other run, which keeps plain Strang.

    With T_i = T_i(0) + p^2 / 2 mu_i and V_i = V_i(0) + k_i x, the
    commutators [T,[T,V]] = 0 and [V,[V,T]] = -hbar^2 k_i^2 / mu_i end
    the symmetric BCH series, so a Strang step is exactly
    exp(-i dt (H_i - delta_i) / hbar), delta_i = dt^2 k_i^2 / 24 mu_i
    (McLachlan & Quispel, Acta Numerica 11, 341 (2002)).  Each V half
    step times this phase adds delta_i back.  k_i = g dV_i/dPhi and
    1/mu_i = d^2T_i/dp^2 come from the kind row; a phase factor, not
    delta_i added to V, keeps V's own bits."""
    potential = params.potential
    if kind.inverse_mass is None or potential.kind != "uniform" or potential.g == 0.0:
        return None
    b = _branches(internal, params)
    k = potential.g * kind.field_mass(b)
    delta = np.broadcast_to(dt**2 * k**2 * kind.inverse_mass(b) / 24.0, (internal.dim, 1))
    return np.exp(-0.5j * delta * dt / params.hbar)


def expectation_velocity(state: CompositeState, kind: HamiltonianKind,
                         params: PhysicalParams, level: int) -> float:
    """<dT_i/dp> on one populated branch (== d<x>/dt by Ehrenfest for these
    kinds); a branch of probability at or below ``hilbert._POPULATED`` is
    refused."""
    _require_level(level, state.internal.dim)
    if state.branch_populations()[level] <= _POPULATED:
        raise PreconditionError(f"branch {level} norm too small for a velocity readout")
    table = _velocity_table([(state, kind, params)])[level]
    return float(_read_velocities(state.amplitudes[level], table))


def _read_velocities(amps: np.ndarray, velocity_table: np.ndarray) -> np.ndarray:
    """<dT_i/dp> of each row of ``amps``, one row or a stack read by one
    batched FFT, against its row of ``velocity_table``; each value has
    the bits it has alone."""
    return np.sum(momentum_distribution(amps) * velocity_table, axis=-1)


# --- split-operator propagation ----------------------------------------------

def _strang_step(out: np.ndarray, previous: np.ndarray, exp_v_half: np.ndarray,
                 exp_t: np.ndarray, free: bool) -> None:
    """One Strang step of ``previous`` into ``out``, which may be
    ``previous`` itself (a step in place): V_half, T and V_half multiply
    the amplitudes, in momentum space for a ``free`` block's spectrum, in
    x space with an FFT pair around T for any other."""
    _kernels.phase_multiply(out, exp_v_half, previous)
    if not free:
        np.fft.fft(out, axis=1, out=out)
    _kernels.phase_multiply(out, exp_t)
    if not free:
        np.fft.ifft(out, axis=1, out=out)
    _kernels.phase_multiply(out, exp_v_half)


class _Plan:
    """Phase tables of independent runs ``(state, kind, params)`` on one
    grid, stacked into one (sum dim_r, N) buffer for one dt; run r owns
    the rows ``rows[r]``, in run order.

    A run is free when its V half-step table is constant along x on every
    row (no potential, a zero field or a constant table, under any kind):
    then V commutes with F, and n Strang steps are exactly
    F^-1 (V_half T V_half)^n F.  A run that ``_strang_phase`` gives a
    phase has its V half-step rows times that phase, which makes its
    steps exact.  ``blocks`` lists each maximal stretch of consecutive
    free or non-free runs as ``(rows, free)``; ``advance`` steps each
    block through a step batch with ``_strang_step``, a free block on its
    momentum-space spectrum and any other in x space.  Every step acts row
    by row (elementwise phase multiplies and row-wise FFTs), so every run
    keeps the bits it has alone, in any stack, any batch and any order of
    blocks.
    ``free_runs`` and ``field_runs`` hold the row slices of the free and
    the other runs, for the free stretches of ``_evolve``, which
    ``reach``, ``window``, ``admitted``, ``follows``,
    ``spectral_norms_hold`` and ``fields_hold`` serve.
    ``bands`` holds each run's hbar, kind name and least and greatest
    dV/dx per row, for ``require_band``.  A dt at which some branch's
    kinetic phase spread dt (max_p T_i - min_p T_i) / hbar reaches pi is
    refused (``AliasingError``); T's momentum-independent part does not
    count.
    """

    def __init__(self, runs: Sequence[tuple], dt: float):
        grid = runs[0][0].grid
        tables = []
        for state, kind, params in runs:
            if state.grid != grid:
                raise IncompatibleSpacesError(
                    f"stacked runs must share one grid: {state.grid} != {grid}")
            tables.append(_tables(kind, grid, state.internal, params))
        _require_positive("dt", dt)
        shape = (sum(state.internal.dim for state, _, _ in runs), grid.n_points)
        self.exp_t = np.empty(shape, dtype=complex)
        self.exp_v_half = np.empty(shape, dtype=complex)
        self.rows = []
        self.blocks = []
        self.bands = []
        self.free_runs, self.field_runs = [], []
        for (state, kind, params), (t_table, v_table) in zip(runs, tables):
            worst = float(np.max(np.ptp(t_table, axis=1))) * dt / params.hbar
            if worst >= math.pi:
                raise AliasingError(
                    f"kinetic phase spread per step dt*(max T - min T)/hbar = {worst:.3f} "
                    ">= pi; reduce dt or coarsen the momentum grid"
                )
            lo = self.rows[-1].stop if self.rows else 0
            rows = slice(lo, lo + state.internal.dim)
            np.exp(-1j * t_table * dt / params.hbar, out=self.exp_t[rows])
            np.exp(-0.5j * v_table * dt / params.hbar, out=self.exp_v_half[rows])
            phase = _strang_phase(kind, state.internal, params, dt)
            if phase is not None:
                self.exp_v_half[rows] *= phase
            self.rows.append(rows)
            dv = np.diff(v_table, axis=1) / grid.dx
            self.bands.append((params.hbar, kind.name, dv.min(1).tolist(), dv.max(1).tolist()))
            v_half = self.exp_v_half[rows]
            free = bool(np.all(v_half == v_half[:, :1]))
            if self.blocks and self.blocks[-1][1] == free:
                self.blocks[-1] = (slice(self.blocks[-1][0].start, rows.stop), free)
            else:
                self.blocks.append((rows, free))
            (self.free_runs if free else self.field_runs).append(rows)
        self.tables = _grid_tables(grid)

    def advance(self, batch: np.ndarray, spectra: np.ndarray, count: int,
                start: int, reads: int = 0) -> None:
        """Step the buffer into slots 0 .. count - 1 of the step batch: the
        (B, rows, N) buffers ``batch`` in x space and ``spectra`` in
        momentum space.  Block by block, ``_strang_step`` steps slot 0 from
        the block's rows of slot ``start`` (slot 0 itself steps in place)
        and each later slot j from slot j - 1, a free block in ``spectra``
        and any other in ``batch``.  A free block then takes one inverse
        FFT from its slots ``reads`` .. count - 1 of ``spectra`` into those
        of ``batch`` (all of them by default, none at ``reads`` = count)."""
        for rows, free in self.blocks:
            buf = spectra if free else batch
            exp_v_half, exp_t = self.exp_v_half[rows], self.exp_t[rows]
            for j in range(count):
                _strang_step(buf[j, rows], buf[j - 1 if j else start, rows],
                             exp_v_half, exp_t, free)
            if free and reads < count:
                np.fft.ifft(spectra[reads:count, rows], axis=2, out=batch[reads:count, rows])

    def reach(self, amps: np.ndarray, velocity_table: np.ndarray,
              rows: List[int]) -> dict:
        """{row: (<v>, sigma_v)} of the rows ``rows`` of the x-space buffer
        ``amps`` over their momentum distributions, against their rows of
        dT/dp, ``velocity_table``: constants of a free run, whose steps only
        turn the phases of its spectrum."""
        w = momentum_distribution(amps[rows])
        velocity = velocity_table[rows]
        mean = np.sum(w * velocity, axis=1)
        spread = np.sqrt(np.maximum(np.sum(w * velocity**2, axis=1) - mean**2, 0.0))
        return dict(zip(rows, zip(mean.tolist(), spread.tolist())))

    def window(self, moments: Tuple[List[float], ...]) -> dict:
        """{row: (<x>, sigma_x)} of each populated free row, from the
        per-row moment columns of one buffer (``hilbert._step_moments``),
        as the clearance rule reads them."""
        probs, sxs, sxxs = moments
        return {rows.start + i: (mean, sigma) for rows in self.free_runs
                for i, mean, sigma in _spreads(probs[rows], sxs[rows], sxxs[rows])}

    def admitted(self, window: dict, reach: dict, dt: float, most: int) -> int:
        """The most steps, up to ``most``, over which every populated free
        row's linear window <x>_0 + <v> t +/- _GUARD_SIGMAS (sigma_0 +
        sigma_v t), which holds <x> +/- _GUARD_SIGMAS sigma_x at t, stays
        inside the domain (0 when it starts outside it, or a row has no
        ``reach``)."""
        grid, k = self.tables.grid, _GUARD_SIGMAS
        tau = math.inf
        for row, (mean, sigma) in window.items():
            if row not in reach:
                return 0
            v, sv = reach[row]
            for room, rate in ((grid.x_max - (mean + k * sigma), v + k * sv),
                               ((mean - k * sigma) - grid.x_min, k * sv - v)):
                if not room >= 0.0:
                    return 0
                if rate > 0.0:
                    tau = min(tau, room / rate)
        return int(min(tau / dt, most))

    def follows(self, start: dict, end: dict, reach: dict, tau: float) -> bool:
        """Whether the populated free rows of window ``end`` are those of
        ``start`` and moved as free motion moves them over time ``tau``:
        <x> by <v> tau, and sigma_x by at most sigma_v tau, within
        ``_SEAM_SLACK`` of the domain length, as no probability crossed the
        seam."""
        if start.keys() != end.keys():
            return False
        slack = _SEAM_SLACK * self.tables.grid.length
        for row, (mean0, sigma0) in start.items():
            (mean1, sigma1), (v, sv) = end[row], reach[row]
            if not (abs(mean1 - (mean0 + v * tau)) <= slack
                    and sigma1 - (sigma0 + sv * tau) <= slack):
                return False
        return True

    def spectral_norms_hold(self, spectra: np.ndarray) -> bool:
        """Whether every free run's total probability, read from each slot
        of the (count, rows, N) ``spectra`` by Parseval, sum |a_k|^2 dx / N,
        lies within 1e-10 - ``_NORM_MARGIN`` of 1 (a NaN total does not)."""
        grid = self.tables.grid
        for rows, free in self.blocks:
            if not free:
                continue
            w = spectra[:, rows].view(np.float64)  # (re, im) pairs
            starts = [r.start - rows.start for r in self.free_runs
                      if rows.start <= r.start < rows.stop]
            totals = np.add.reduceat(np.vecdot(w, w), starts, axis=1)
            totals *= grid.dx / grid.n_points
            if not np.all(np.abs(totals - 1.0) <= 1e-10 - _NORM_MARGIN):
                return False
        return True

    def fields_hold(self, slots: np.ndarray, first: int) -> bool:
        """Whether the norm and clearance rules pass every run but the free
        ones on each slot of ``slots``, the steps first, first + 1, ...,
        from one moments pass over each non-free block's rows."""
        for rows, free in self.blocks:
            if free or not len(slots):
                continue
            own = [slice(r.start - rows.start, r.stop - rows.start)
                   for r in self.field_runs if rows.start <= r.start < rows.stop]
            if _passed(list, _check_steps(self.tables, slots[:, rows], first, own)) is None:
                return False
        return True

    def require_band(self, spectrum: np.ndarray, total_time: float) -> None:
        """``hilbert._require_band`` on each run's rows of ``spectrum``, the
        buffer's row-wise FFT, over ``total_time``, naming run and kind, from
        one moments pass over [1, k, k^2] dx / N with k = p / hbar."""
        grid = self.tables.grid
        k_table = _kernels.moment_table(grid.p(1.0), grid.dx / grid.n_points)
        moments = _kernels.branch_moments(spectrum, k_table).tolist()
        for r, (rows, (hbar, name, *slopes)) in enumerate(zip(self.rows, self.bands)):
            _require_band(grid, hbar, [m[rows] for m in moments] + slopes,
                          total_time, "run {}, kind {}", r, name)


# Bytes of each of the two arrays of one step batch of ``_evolve``, (B,
# rows, N) complex in x space and in momentum space, so B = 4 at (2, 2048),
# 32 at (1, 512), 8 at (8, 256) and 6 at (10, 256); above half of it a stack
# runs B = 1, the unbatched loop's operations in place.  Measured on a 2-core
# Xeon (2 MB of L2 per core), change/unbatched CPU time, medians of 15
# alternating in-process rounds, at 256 KB and 512 KB: a free (2, 2048) run
# of 2000 steps 0.82 (B = 4) and 0.85 (B = 8); a free (1, 512) run 0.44 and
# 0.45; field-only (8, 256) 0.98 and 1.00, (10, 256) 0.95 and 0.98.  In 6
# alternating benchmark pairs 256 and 512 KB read the same ``propagate_long``
# wall_s (0.897 of unbatched), ``primed_frame`` 0.865 and 0.885, and the step
# loop's traced numpy peak on ``propagate_long`` is 0.97 MB and 1.74 MB
# (0.49 MB unbatched).  At B = 1, a stack over 128 KB, the batch's per-call
# work left CPU time at 0.98 to 1.05 of unbatched on (2, 8192), (2, 16384)
# and (8, 4096) stacks.
_BATCH_BYTES = 256 * 1024

# A free stretch's slack, guard and least length.  Its Parseval totals
# must lie within 1e-10 - _NORM_MARGIN of 1: they differ from the x-space
# totals the norm rule reads by round-off, far below the margin.  Its end
# window must follow free motion within _SEAM_SLACK of the domain length:
# a fraction q of a branch's probability crossing the seam moves its <x> by
# about q L.  The guard keeps the linear window of _GUARD_SIGMAS sigma
# inside the domain; a Gaussian's tail past 6 sigma holds 1e-9 of it, so
# on a Gaussian the follow check fails only where probability crossed the
# seam.  At the clearance rule's 4 sigma a free (2, 2048) packet ending
# 4.3 or 5 sigma from an edge failed it and replayed its one stretch: 1.26
# and 1.27 of the checked steps' time, on a 2-core Xeon; at 6 sigma, 0.39
# and 0.34.  A stretch carries a fixed cost of 35 - 65 us (slot copies,
# checks, guard) that the checked steps spread over a batch; in
# alternating in-process runs on that Xeon the stretches first beat the
# checked steps at 3 steps on a free (2, 2048) run, 4 on five free (2,
# 256) runs, 5 - 10 on three free and two field (2, 256) runs and 8 on
# one free (2, 256) run, the smallest stack; fewer than _MIN_STRETCH
# steps take the checked steps.
_NORM_MARGIN = 1e-11
_SEAM_SLACK = 1e-9
_GUARD_SIGMAS = 6.0
_MIN_STRETCH = 8


def _evolve(runs: Sequence[tuple], dt: float, steps: int,
            sample_every: int) -> Iterator[Tuple[int, np.ndarray, Optional[List[float]]]]:
    """Advance independent runs ``(state, kind, params)`` on one grid by
    ``steps`` Strang steps of size dt, as one stacked buffer, in batches
    of B steps, B = ``_BATCH_BYTES`` over the bytes of the buffer, clamped
    to [1, steps].  ``_Plan.advance`` steps each block through the
    batch's slots, a (B, sum dim_r, N) batch in x space and a second one
    in momentum space for the free blocks.  Runs sampled more often than
    every ``_MIN_STRETCH`` steps, or with no free run among them, take the
    checked steps throughout (``_checked_steps``): the free blocks take
    one inverse FFT over the batch's slots and one moments pass over the
    batch (``hilbert._check_steps``) feeds the checks, applied step by
    step and run by run in order.  At B = 1 each step takes the unbatched
    loop's operations in place.  Otherwise the steps up to each sample go
    in free stretches (``_free_stretch``) as far as the no-wrap guard
    (``_Plan.admitted``) admits, the free rows in x space only at each
    stretch's end, and in checked steps where it admits fewer than
    ``_MIN_STRETCH``; a stretch that fails a check is replayed from its
    saved start as checked steps (see the module docstring).

    Yields ``(step_no, amps, totals)`` at step 0 and after every
    ``sample_every`` steps: ``amps`` is a slot of the batch, the (sum
    dim_r, N) buffer after that step, rows in run order, which step_no +
    B overwrites (a caller reads it before it asks for the next sample);
    ``totals`` holds each run's total probability as that step's check
    read it (None at step 0, where no step ran).  Callers read ``amps``
    and must not write to it: the next steps come from the slots, so an
    edit would be dropped or spread with no error.  A refused step
    raises with the text the check of every step gives, after every
    sample before it; up to B - 1 later steps of its batch were computed
    and are dropped.  ``steps`` must be a non-negative integer multiple of
    the integer ``sample_every``.  Before step 0, one row-wise FFT of
    the buffer feeds the band rule over steps * dt and the free blocks,
    and where free stretches may run a second one, of the free rows,
    gives their <v> and sigma_v; zero steps take no FFT.  No runs yield
    nothing.
    """
    _require_integer("steps", steps)
    _require_integer("sample_every", sample_every)
    if steps < 0:
        raise PreconditionError(f"step count must be non-negative, got {steps}")
    if sample_every < 1 or steps % sample_every != 0:
        raise PreconditionError("steps must be a multiple of sample_every")
    if not runs:
        return
    plan = _Plan(runs, dt)
    size = max(1, min(steps, _BATCH_BYTES // plan.exp_t.nbytes))
    batch, spectra = np.empty((2, size) + plan.exp_t.shape, dtype=complex)
    amps = np.concatenate([state.amplitudes for state, _, _ in runs], out=batch[-1])
    if steps:
        plan.require_band(np.fft.fft(amps, axis=1, out=spectra[-1]), steps * dt)
    yield 0, amps, None
    # free runs read every _MIN_STRETCH steps or less often take stretches
    reach = None
    if plan.free_runs and sample_every >= _MIN_STRETCH and steps:
        window = plan.window(_step_moments(plan.tables, amps[None])[0])
        reach = plan.reach(amps, _velocity_table(runs), list(window))
    done, slot = 0, size - 1
    while done < steps:
        end = steps if reach is None else done + sample_every - done % sample_every
        stop = done if reach is None else done + plan.admitted(window, reach, dt, end - done)
        if stop - done >= _MIN_STRETCH:
            saved = batch[slot].copy(), spectra[slot].copy()
            read = _free_stretch(plan, batch, spectra, slot, done, stop, window, reach, dt)
            if read is not None:
                slot, totals, window = read
                done = stop
                if done % sample_every == 0:
                    yield done, batch[slot], totals
                continue
            batch[slot], spectra[slot] = saved
        slot = yield from _checked_steps(plan, batch, spectra, slot, done, end, sample_every)
        done = end
        if reach is not None:
            window = plan.window(_step_moments(plan.tables, batch[slot:slot + 1])[0])


def _checked_steps(plan: _Plan, batch: np.ndarray, spectra: np.ndarray, slot: int,
                   done: int, end: int, sample_every: int):
    """Steps done + 1 .. end from the buffer in ``slot`` of the step
    batch, in batches of B slots with every slot in x space, one moments
    pass per batch feeding ``hilbert._check_steps``; yields each sampled
    step as ``_evolve`` does, and returns the slot of step ``end``."""
    size = len(batch)
    for lo in range(done, end, size):
        count = min(size, end - lo)
        plan.advance(batch, spectra, count, slot)
        slot = count - 1
        slots = batch[:count]
        for k, amps, totals in zip(range(lo + 1, end + 1), slots,
                                   _check_steps(plan.tables, slots, lo + 1, plan.rows)):
            if k % sample_every == 0:
                yield k, amps, totals
    return slot


def _free_stretch(plan: _Plan, batch: np.ndarray, spectra: np.ndarray, slot: int,
                  done: int, stop: int, window: dict, reach: dict, dt: float):
    """Steps done + 1 .. stop from the buffer in ``slot`` of the step
    batch, the free blocks on their spectra with one inverse FFT, at step
    ``stop``: each step's free totals by Parseval, every other run's rules
    at every step, and at step ``stop``, from one moments pass, every
    run's rules and the free rows' window, which must have moved as free
    motion moves it from ``window``.  Returns the slot, run totals and
    window of step ``stop``, or None when some check failed, which may be
    a step the check refuses."""
    size = len(batch)
    for lo in range(done, stop, size):
        count = min(size, stop - lo)
        last = lo + count == stop  # its last slot is read below
        plan.advance(batch, spectra, count, slot, count - last)
        slot = count - 1
        if not (plan.spectral_norms_hold(spectra[:count])
                and plan.fields_hold(batch[:count - last], lo + 1)):
            return None
    moments = _step_moments(plan.tables, batch[slot:slot + 1])[0]
    totals = _passed(_rules, plan.tables.grid, *moments, plan.rows, "step {}", stop)
    end = plan.window(moments)
    if totals is None or not plan.follows(window, end, reach, (stop - done) * dt):
        return None
    return slot, totals, end


def _passed(check: Callable, *args):
    """``check(*args)``, or None when its rules refuse (a
    ``PreconditionError``)."""
    try:
        return check(*args)
    except PreconditionError:
        return None


def propagate(state: CompositeState, kind: HamiltonianKind,
              params: PhysicalParams, dt: float, steps: int) -> CompositeState:
    """Evolve by ``steps`` Strang steps of size dt; the norm and clearance
    rules hold on every step.

    A free run (V constant in x) is stepped on its spectrum and any other
    in x space, an FFT pair per step.  A free run leaves momentum space
    only at the ends of its stretches, the last step and wherever the
    no-wrap guard cuts one: its norm is read by Parseval on every step and
    its clearance at the stretch ends, which free motion makes enough; a
    stretch that fails a check, or that the guard admits for fewer than
    ``_MIN_STRETCH`` steps, is checked step by step in x space (see the
    module docstring).  The returned state owns a fresh copy of the final
    slot, not a view into the step batch.  Zero steps return ``state``
    itself and take no FFT; a negative or non-integer count is refused.
    Before the first step the momentum-band rule refuses a run whose momenta would leave
    +/- pi hbar / dx (exit 3); under a curved tabulated Phi the band
    bounds the drift of each branch's <p> but not its spreading, and it
    takes that drift from the steepest slope of the whole table over the
    whole run, so it can refuse a run whose momenta stay on the grid (a
    long run in a harmonic trap).
    """
    for _, amps, totals in _evolve([(state, kind, params)], dt, steps, max(steps, 1)):
        pass
    if totals is None:
        return state
    return state._with_owned_amplitudes(amps.copy())  # not a view into the batch


def propagate_history(state: CompositeState, kind: HamiltonianKind,
                      params: PhysicalParams, dt: float, steps: int,
                      sample_every: int = 1) -> Tuple[np.ndarray, List[CompositeState]]:
    """Like propagate, returning (times, states) sampled every few steps.

    The initial state is included at t = 0; ``steps`` must be a
    non-negative multiple of ``sample_every``.  Each sample owns a copy of
    its slot of the step batch, which the step's check has just passed.
    """
    times, out = [], []
    for k, amps, totals in _evolve([(state, kind, params)], dt, steps, sample_every):
        times.append(k * dt)
        out.append(state if totals is None
                   else state._with_owned_amplitudes(amps.copy()))
    return np.asarray(times), out


def _velocity_table(runs: Sequence[tuple]) -> np.ndarray:
    """dT_i/dp on the momentum grid for every row of the runs' stacked
    buffer: each run's velocity row evaluated on its branch columns."""
    return np.concatenate([
        np.broadcast_to(kind.velocity(state.grid.p(params.hbar),
                                      _branches(state.internal, params)),
                        state.amplitudes.shape)
        for state, kind, params in runs])


# --- internal clock ----------------------------------------------------------

def _require_subluminal(vmax: float, c: float) -> None:
    """The speed rule, for clocks and frames: the largest speed |v| stays
    below c (a NaN speed fails it)."""
    if not vmax < c:
        raise SuperluminalError(f"max |v| = {vmax!r} must stay below c = {c!r}")


def internal_frequency(omega0: float, v, phi, params: PhysicalParams):
    """Clock frequency omega0 (1 - v^2/2c^2 + Phi/c^2); |v| < c required."""
    v = np.asarray(v, dtype=float)
    _require_subluminal(float(np.abs(v).max(initial=0.0)), params.c)
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


_MIN_FIT_SAMPLES = 100  # design rule for every clock-rate fit


def _require_fit_samples(n: int, what: str) -> None:
    if n < _MIN_FIT_SAMPLES:
        raise PreconditionError(
            f"{what} needs >= {_MIN_FIT_SAMPLES} samples (design rule), got {n}")


def fit_phase_rate(times: np.ndarray, values: np.ndarray) -> float:
    """Slope of the unwrapped argument of complex samples vs time.

    The mod-2pi-safe way to read accumulated phases: fine time slices,
    unwrap, linear regression (design rule: >= 100 samples).
    """
    times = np.asarray(times, dtype=float)
    _require_fit_samples(times.size, "a phase-rate fit")
    phi = np.unwrap(np.angle(np.asarray(values)))
    return float(np.polyfit(times, phi, 1)[0])


def fit_clock_rate(times: np.ndarray, states: Sequence[CompositeState]) -> float:
    """Fitted rate of arg <branch 0 | branch 1>, the clock of the two lowest
    levels, over a state history."""
    return _fit_clock_rate(times, np.array([s.branch_overlap(0, 1) for s in states]))


def _fit_clock_rate(times: np.ndarray, overlaps: np.ndarray) -> float:
    """Fitted clock rate from samples of <branch 0 | branch 1>, whose phase
    turns backwards at the clock's rate."""
    return -fit_phase_rate(times, overlaps)


# --- trajectories ------------------------------------------------------------

def _uniform_spacing(times: np.ndarray) -> float:
    diffs = np.diff(times)
    if times.size < 3:
        raise TrajectoryError("need at least 3 samples")
    dt = float(diffs[0])
    # both comparisons fail on NaN, so a NaN time is refused
    if not dt > 0 or not np.all(np.abs(diffs - dt) <= 1e-9 * max(abs(dt), 1e-300)):
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
        _require_finite_samples("xi", xi)
        if self.closed and (xi[0] != 0.0 or xi[-1] != 0.0):
            raise TrajectoryError("closed trajectory requires xi(0) = xi(T) = 0 exactly")
        for name in ("xi_dot", "xi_ddot"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.array(arr, dtype=float)
                if arr.shape != times.shape:
                    raise TrajectoryError(f"{name} shape mismatch")
                _require_finite_samples(name, arr)
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
        if self.xi.size < 4:
            raise TrajectoryError("acceleration needs at least 4 samples")
        h = self.dt
        a = np.empty_like(self.xi)
        a[1:-1] = (self.xi[2:] - 2.0 * self.xi[1:-1] + self.xi[:-2]) / h**2
        a[0] = (2.0 * self.xi[0] - 5.0 * self.xi[1] + 4.0 * self.xi[2] - self.xi[3]) / h**2
        a[-1] = (2.0 * self.xi[-1] - 5.0 * self.xi[-2] + 4.0 * self.xi[-3] - self.xi[-4]) / h**2
        return a

    def kinetic_integral(self) -> np.ndarray:
        """Cumulative integral of xi_dot^2 / 2 at every sample."""
        return self._kinetic

    def at(self, t: float) -> Tuple[float, float, float]:
        """(xi, xi_dot, integral of xi_dot^2/2) at time t; t must be inside
        the sampled window.  A t within 1e-9 dt of a sample reads that
        sample's stored values in O(1), as Python floats (``item``), with
        no numpy-scalar arithmetic; any other t is interpolated linearly
        between samples."""
        times = self.times
        t0, s = times.item(0), float(t)
        if not (t0 <= s <= times.item(-1)):
            raise TrajectoryError(f"t={t} outside trajectory support")
        dt = times.item(1) - t0
        idx = int(round((s - t0) / dt))
        if 0 <= idx < times.size and abs(times.item(idx) - s) <= 1e-9 * max(dt, 1e-300):
            return self.xi.item(idx), self._velocity.item(idx), self._kinetic.item(idx)
        return (
            float(np.interp(s, times, self.xi)),
            float(np.interp(s, times, self._velocity)),
            float(np.interp(s, times, self._kinetic)),
        )


def _sample_times(total_time: float, n_samples: int) -> np.ndarray:
    """The factories' n_samples uniform times on [0, total_time]: the
    window rule, a positive and finite total_time, is theirs."""
    _require_positive("total_time", total_time)
    return np.linspace(0.0, total_time, n_samples)


def triangular_trajectory(speed: float, total_time: float, n_samples: int) -> Trajectory:
    """Closed out-and-back path at constant |xi_dot| = speed.

    n_samples must be odd so the turning point lands on a sample; the
    velocity samples are the exact +/- speed values (the apex sample takes
    the descending branch).
    """
    if n_samples < 3 or n_samples % 2 == 0:
        raise TrajectoryError("triangular trajectory needs an odd n_samples >= 3")
    _require_finite("speed", speed)
    t = _sample_times(total_time, n_samples)
    xi = speed * np.minimum(t, total_time - t)
    xi[0] = 0.0
    xi[-1] = 0.0
    mid = n_samples // 2
    v = np.full(n_samples, speed)
    v[mid:] = -speed
    return Trajectory(times=t, xi=xi, closed=True, xi_dot=v,
                      xi_ddot=np.zeros(n_samples))


def sinusoidal_trajectory(amplitude: float, total_time: float, n_samples: int) -> Trajectory:
    """xi = A sin(2 pi t / T), one cycle, with exact derivative samples."""
    _require_finite("amplitude", amplitude)
    t = _sample_times(total_time, n_samples)
    om = 2.0 * np.pi / total_time
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
    _require_finite("height", height)
    t = _sample_times(total_time, n_samples)
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
    _require_finite("position", position)
    t = _sample_times(total_time, n_samples)
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


def proper_time(traj: Trajectory, params: PhysicalParams) -> ProperTimeResult:
    """Round-trip proper time T' = integral sqrt(1 - xi_dot^2/c^2) dt.

    Returns T', the dilation deficit delta_tau = T - T', and the
    lowest-order value integral xi_dot^2 / 2 c^2 dt for comparison.
    """
    if not traj.closed:
        raise TrajectoryError("proper_time requires a closed trajectory")
    v = traj.velocity()
    _require_subluminal(float(np.max(np.abs(v))), params.c)
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
    _require_subluminal(float(np.max(np.abs(v))), params.c)
    return mass * float(traj.kinetic_integral()[-1]) / params.hbar


# --- frame transformation -----------------------------------------------------

def frame_transform(state: CompositeState, traj: Trajectory, t: float,
                    params: PhysicalParams) -> CompositeState:
    """Map a lab-frame state into the frame riding xi(t).

    phi(x) = exp(-i M_i (xi_dot x + S) / hbar) psi(x + xi),
    with S = integral_0^t xi_dot^2/2 dt'; branch-wise with the branch
    mass-energies M_i.  This is ``symmetry._galilei_map`` at a = -xi,
    u = -xi_dot and phi = -S, so for xi = w t it is exactly the boost by
    -w at time t, including the global phase.
    """
    params.check_internal(state.internal)
    xi, v, action = traj.at(t)
    _require_subluminal(abs(v), params.c)
    return symmetry._galilei_map(state, -xi, -v, -action, params,
                                 "translation by a={}", -xi)


# History samples per block of the residual.  At N = 512 an FFT row costs
# ~9 us alone and 3-4 us in a batch: a 2001-sample primed history takes
# 90.0 ms in blocks of 4, 57.9 ms in blocks of 32 and 64.4 ms in blocks of
# 64.  Blocks of 32 add ~1.4 MB of peak memory over blocks of 4.
_RESIDUAL_BLOCK = 32


def schrodinger_residual(history: Sequence[CompositeState], dt: float,
                         kind: HamiltonianKind, params: PhysicalParams,
                         non_inertial_accel: Optional[Sequence[float]] = None) -> float:
    """Max interior-time residual || i hbar d phi/dt - H phi || of a history.

    The time derivative is a central difference, so the residual of a true
    solution converges to zero at O(dt^2).  ``non_inertial_accel`` adds the
    moving-frame potential M_i xi_ddot(t_k) x per branch, which is what the
    primed-frame equation requires; leaving it out on a transformed history
    leaves a finite residual.  Every sample must live on the first one's
    grid and internal space.

    The samples are evaluated in blocks of ``_RESIDUAL_BLOCK``: each
    operator (one FFT pair, the V table, the non-inertial term, the norm)
    acts on a whole block at once, with the per-sample operand order, so
    the result has the same bits as a loop over single samples.
    """
    if len(history) < 3:
        raise PreconditionError("need at least 3 history samples")
    _require_positive("dt", dt)
    first = history[0]
    for s in history[1:]:
        _check_same_spaces(first, s)
    grid, internal = first.grid, first.internal
    t_table, v_table = _tables(kind, grid, internal, params)
    accel_coef = None
    if non_inertial_accel is not None:
        non_inertial_accel = np.asarray(non_inertial_accel, dtype=float)
        if non_inertial_accel.shape != (len(history),):
            raise PreconditionError("non_inertial_accel must align with history samples")
        _require_finite_samples("non_inertial_accel", non_inertial_accel)
        # M_i a_k per sample k and branch i, as (samples, dim, 1) columns
        masses = internal.mass_energies(params.c)
        accel_coef = masses[None, :, None] * non_inertial_accel[:, None, None]
    x = _grid_tables(grid).x

    worst = 0.0
    last = len(history) - 1
    for lo in range(1, last, _RESIDUAL_BLOCK):
        hi = min(lo + _RESIDUAL_BLOCK, last)
        samples = np.stack([s.amplitudes for s in history[lo - 1:hi + 1]])
        phi = samples[1:-1]
        h_phi = np.fft.fft(phi, axis=-1)
        np.multiply(t_table, h_phi, out=h_phi)
        np.fft.ifft(h_phi, axis=-1, out=h_phi)
        work = np.multiply(v_table, phi)  # reused for every later term
        h_phi += work
        if accel_coef is not None:
            np.multiply(accel_coef[lo:hi] * x, phi, out=work)
            h_phi += work
        resid = np.subtract(samples[2:], samples[:-2], out=work)
        resid /= 2.0 * dt
        np.multiply(1j * params.hbar, resid, out=resid)
        resid -= h_phi
        weights = np.abs(resid)
        weights **= 2
        norms = np.sqrt(np.sum(weights, axis=(1, 2)) * grid.dx)
        worst = max(worst, *norms.tolist())
    return worst
