"""Scripted experiments: one per quantitative claim, measured vs predicted.

Every experiment returns an ExperimentResult whose rows pair a measured
number (from the simulation pipeline only) with a predicted number (from
closed formulas and the run parameters only).  The two code paths share no
intermediate values; they meet only in the comparison columns, which are
the keys of the first row (every row has the same keys, in order).  A
registry entry is named by its runner.  All runs are deterministic: same
configuration, bit-identical rows.

The seven experiments:

  exp_bargmann             loop phases -M_i a w / hbar and the mass-energy
                           relative phase (M2 - M1) a w / hbar, for the
                           configured masses M_i
  exp_clock_semiclassical  internal frequency shift -v^2/2c^2 + Phi/c^2
                           along classical paths
  exp_clock_wavepacket     the same shift read from a propagated packet
  exp_interferometer       two-path clock visibility |cos(dE dtau / 2 hbar)|
  exp_newtonian_sweep      split-vs-newtonian discrepancy, linear in
                           eps = E_i/(m c^2), for one mass parameter m
  exp_wep                  free-fall universality d<v>/dt = -g per branch
                           and kind, plus clock rates (shifted under
                           low_energy, unshifted under newtonian)
  exp_frame_phase          closed-path frame-transform phase (M/hbar) int
                           xi_dot^2/2 dt and its proper-time reading, read on
                           the initial packet (lab evolution cancels in it)

A runner takes one key per quantity of its rows: keys that move together
without moving a row become one.  So every runner and every closed-form
helper works in units hbar = 1 (predicted_visibility alone takes the
caller's hbar).  The loop and frame phases belong to the representation,
through the branch masses M_i, so
exp_bargmann (which takes the masses alone) and exp_frame_phase read them
on one fixed probe packet; a clock shift is dimensionless, so
exp_clock_semiclassical takes only v/c and gh/c^2; c cancels from the
Newtonian limit, so exp_newtonian_sweep takes the mass parameter m alone.

A runner's rules are its own: it calls each on its arguments, and the
registry names those a config can break by key, so the Python call,
``massclock run`` and ``massclock validate`` refuse the same inputs with
the same text.  Every constant and step must be positive and finite.

A runner's pass bounds are fixed in its body, as the claims it checks
are fixed numbers: each is written once, in the ``tolerance`` record of
its result, which is all its verdict reads.  No argument or config key
moves a bound, so ``passed`` always means the check of the claim.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .dynamics import (
    HamiltonianKind,
    Trajectory,
    _evolve,
    _fit_clock_rate,
    _read_velocities,
    _require_fit_samples,
    _velocity_table,
    bump_trajectory,
    frame_transform,
    semiclassical_clock_phases,
    static_trajectory,
    triangular_trajectory,
)
from .errors import PreconditionError, SpreadDominatedError, TrajectoryError
from .hilbert import (
    CompositeState,
    GridSpec,
    InternalSpace,
    PhysicalParams,
    Potential,
    _overlaps,
    _require_finite,
    _require_positive,
    branch_phase,
    gaussian_packet,
    internal_space_from_masses,
    make_superposition,
    wrap_angle,
)
from .symmetry import apply_boost, bargmann_loop_element, loop_phase


@dataclass
class ExperimentResult:
    rows: List[dict]
    tolerance: dict
    passed: bool
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.rows:
            raise PreconditionError("a run must yield at least one row (design "
                                    "rule); with none it checks nothing")
        for i, row in enumerate(self.rows):
            if tuple(row) != self.columns:
                raise PreconditionError(f"row {i} has keys {tuple(row)}, not the columns "
                                        f"{self.columns} of row 0 (design rule)")

    @property
    def columns(self) -> Tuple[str, ...]:
        """The keys of the first row, in order; every row has the same."""
        return tuple(self.rows[0])

    def worst_row(self) -> Optional[int]:
        """The row of the largest |abs_error|; None when no row has one."""
        errs = [abs(r["abs_error"]) for r in self.rows if r.get("abs_error") is not None]
        if not errs:
            return None
        return int(np.argmax(errs))


# --- closed-form predictions (pure functions of parameters) -------------------

def predicted_loop_phase(mass: float, a: float, w: float) -> float:
    return wrap_angle(-mass * a * w)


def predicted_clock_shift(v_over_c: float, gh_over_c2: float) -> float:
    return -0.5 * v_over_c**2 + gh_over_c2


def wavepacket_spread_correction(sigma: float, m: float, c: float) -> float:
    """Fractional shift from the packet's momentum spread: the measured
    <v^2> is v^2 + (1 / 2 sigma m)^2 for a Gaussian of width sigma."""
    sigma_v = 1.0 / (2.0 * sigma * m)
    return -0.5 * sigma_v**2 / c**2


def regression_shift_prediction(times: np.ndarray, v0: float, g: float,
                                x0: float, sigma: float, m: float, c: float) -> float:
    """Predicted fitted fractional shift for a packet dropped with velocity
    v0 from x0 in a uniform field g.

    The measurement fits a line to the accumulated clock phase, so the
    prediction applies the same regression to the closed-form phase
    integral of the dilated frequency along the classical path
    v(t) = v0 - g t, x(t) = x0 + v0 t - g t^2 / 2 (spread correction
    included).  For constant shift this reduces to the shift itself.
    """
    spread = wavepacket_spread_correction(sigma, m, c)
    a0 = -0.5 * v0**2 / c**2 + g * x0 / c**2 + spread
    a1 = 2.0 * v0 * g / c**2
    a2 = -(g**2) / c**2
    t = np.asarray(times, dtype=float)
    dilation_phase = a0 * t + a1 * t**2 / 2.0 + a2 * t**3 / 3.0
    return float(np.polyfit(t, dilation_phase, 1)[0])


def predicted_visibility(delta_e: float, delta_tau: float, hbar: float) -> float:
    return abs(math.cos(delta_e * delta_tau / (2.0 * hbar)))


def predicted_sweep_discrepancy(eps: float, m: float, p0: float, g: float,
                                x0: float, total_time: float, sigma: float) -> float:
    """Branch relative-phase discrepancy between split and newtonian runs.

    eps integral [ <p^2> / 2m - m <Phi> ] dt with the classical
    <p^2>(t) = (p0 - m g t)^2 + sigma_p^2 and <Phi> = g x_cl(t) (exact for a
    uniform field); c cancels from it.
    """
    t = total_time
    sigma_p = 1.0 / (2.0 * sigma)
    int_p2 = p0**2 * t - p0 * m * g * t**2 + (m * g) ** 2 * t**3 / 3.0 + sigma_p**2 * t
    int_phi = g * (x0 * t + p0 * t**2 / (2.0 * m) - g * t**3 / 6.0)
    return eps * (int_p2 / (2.0 * m) - m * int_phi)


def predicted_triangle_phase(mass: float, speed: float, total_time: float) -> float:
    """M integral xi_dot^2/2 dt for constant |xi_dot| = speed."""
    return mass * speed**2 * total_time / 2.0


def predicted_triangle_proper_phase(mass: float, speed: float, total_time: float,
                                    c: float) -> float:
    """M c^2 (T - T') with the full square-root proper time."""
    delta_tau = total_time * (1.0 - math.sqrt(1.0 - (speed / c) ** 2))
    return mass * c**2 * delta_tau


# --- shared scaffolding -------------------------------------------------------

# Each experiment's signature is the single source of its defaults; the CLI
# reads its config schema from there (see ExperimentDef.defaults).
DEFAULT_GRID = GridSpec(x_min=-40.0, x_max=40.0, n_points=2048)
SMALL_GRID = GridSpec(x_min=-40.0, x_max=40.0, n_points=256)
DEFAULT_C = 10.0
DEFAULT_E0 = 100.0
DEFAULT_INTERNAL = InternalSpace(E0=DEFAULT_E0, levels=(0.0, 10.0))


def _probe(internal: InternalSpace) -> CompositeState:
    """The packet a loop or frame phase is read on.  The phase is a pure
    phase per branch whatever the packet, so the packet is fixed."""
    return _equal_superposition(DEFAULT_GRID, internal, 1.0, 0.0, 0.0)


def _equal_superposition(grid: GridSpec, internal: InternalSpace, sigma: float,
                         x0: float, p0: float) -> CompositeState:
    psi = gaussian_packet(grid, x0=x0, p0=p0, sigma=sigma)
    weights = np.full(internal.dim, 1.0 / math.sqrt(internal.dim))
    return make_superposition(grid, internal, weights, psi)


def _step_count(total_time: float, dt: float) -> int:
    """Strang steps of size dt that cover total_time; dt (with the
    propagator's own rule) and total_time are checked before the division,
    and the window must hold at least one step and be a whole number of
    them (to 1e-9 relative), so every prediction reads the window the run
    propagates."""
    _require_positive("dt", dt)
    _require_finite("total_time", total_time)
    steps = int(round(total_time / dt))
    if steps < 1:
        raise PreconditionError(
            f"total_time / dt must round to at least one step, got "
            f"total_time={total_time!r}, dt={dt!r}")
    if not abs(steps * dt - total_time) <= 1e-9 * total_time:
        raise PreconditionError(
            f"total_time / dt must be a whole number of steps, got "
            f"total_time={total_time!r}, dt={dt!r}")
    return steps


# --- exp_bargmann -------------------------------------------------------------

DEFAULT_BARGMANN_PAIRS = ((0.5, 0.8), (1.0, 0.3), (-0.7, 0.5),
                          (0.25, -1.2), (2.0, 1.0))


def exp_bargmann(masses: Sequence[float] = (1.0, 1.1), *,
                 pairs: Sequence[Sequence[float]] = DEFAULT_BARGMANN_PAIRS
                 ) -> ExperimentResult:
    """Loop phases per branch and the relative phase, over (a, w) pairs,
    read on the probe packet of branches with mass-energies ``masses``
    (units c = 1; any positive ascending masses); the predicted column
    reads the masses as given, and one mass has no relative row.  Every
    row's error must stay below 1e-8, and the abstract loop must be the
    identity."""
    mass_values = [float(m) for m in masses]
    internal = internal_space_from_masses(mass_values, 1.0)
    for a, w in pairs:
        _require_finite("a", a)
        _require_finite("w", w)
    params = PhysicalParams(c=1.0, E0=internal.E0)
    state = _probe(internal)

    loop_is_identity = all(bargmann_loop_element(a, w).is_identity() for a, w in pairs)

    rows = []
    for a, w in pairs:
        measured = [bp.phase for bp in loop_phase(state, a, w, params)]
        # (branch, mass, measured phase); the relative case is (M_1 - M_2, phi_1 - phi_2)
        cases = [(str(i + 1), mass_values[i], measured[i]) for i in range(internal.dim)]
        if internal.dim >= 2:
            cases.append(("relative", mass_values[0] - mass_values[1],
                          wrap_angle(measured[0] - measured[1])))
        for branch, mass, phase in cases:
            pred = predicted_loop_phase(mass, a, w)
            rows.append({
                "branch": branch, "a": a, "w": w,
                "phase_measured": phase, "phase_predicted": pred,
                "abs_error": abs(wrap_angle(phase - pred)),
            })
    tolerance = {"phase_abs": 1e-8}
    passed = loop_is_identity and all(r["abs_error"] < tolerance["phase_abs"] for r in rows)
    return ExperimentResult(
        rows=rows, tolerance=tolerance, passed=passed,
        details={"abstract_loop_is_identity": loop_is_identity},
    )


# --- exp_clock_semiclassical / exp_clock_wavepacket ------------------------------

CLOCK_INTERNAL = InternalSpace(E0=DEFAULT_E0, levels=(0.0, 0.5))
CLOCK_V_OVER_C = (0.05, 0.1, 0.2)
CLOCK_GH_OVER_C2 = (1e-3, 1e-2)


def _clock_cases(v_over_c: Sequence[float],
                 gh_over_c2: Sequence[float]) -> List[Tuple[float, float]]:
    """The clocks (v/c, gh/c^2): one per moving clock (v/c, 0) and per
    raised clock (0, gh/c^2); every ratio must be finite and << 1."""
    for name, ratios in (("v_over_c", v_over_c), ("gh_over_c2", gh_over_c2)):
        for ratio in ratios:
            _require_finite(name, ratio)
            if abs(ratio) >= 0.5:
                raise PreconditionError(f"ratio {ratio} is not << 1")
    return [(r, 0.0) for r in v_over_c] + [(0.0, r) for r in gh_over_c2]


def _clock_gap(internal: InternalSpace) -> float:
    """omega0 = E_1 - E_0 (hbar = 1), the rate of the clock of the two
    lowest levels, which must exist and differ."""
    if internal.dim < 2 or not internal.levels[1] > internal.levels[0]:
        raise PreconditionError("the clock needs two internal levels with E_1 > E_0, "
                                f"got levels {internal.levels!r}")
    return internal.levels[1] - internal.levels[0]


def _clock_result(mode: str, cases: Sequence[Tuple[float, float]],
                  shifts: Sequence[Tuple[float, float]], tol: float) -> ExperimentResult:
    """One row per clock of ``cases``, whose (measured, predicted)
    fractional shift is its entry of ``shifts``."""
    rows = []
    for (v_r, g_r), (measured, predicted) in zip(cases, shifts):
        abs_err = abs(measured - predicted)
        rel_err = abs_err / abs(predicted) if predicted != 0.0 else abs_err
        rows.append({"mode": mode, "v_over_c": v_r, "gh_over_c2": g_r,
                     "shift_measured": measured, "shift_predicted": predicted,
                     "abs_error": abs_err, "rel_error": rel_err})
    return ExperimentResult(rows=rows, tolerance={"shift_rel": tol},
                            passed=all(r["rel_error"] < tol for r in rows))


def exp_clock_semiclassical(*, v_over_c: Sequence[float] = CLOCK_V_OVER_C,
                            gh_over_c2: Sequence[float] = CLOCK_GH_OVER_C2
                            ) -> ExperimentResult:
    """Fractional clock-frequency shift on classical paths vs -v^2/2c^2 + Phi/c^2.

    The shift is dimensionless, so the run works in units omega0 = c = 1,
    where v = v/c and Phi = gh/c^2.  The dilated frequency is integrated
    along each constant-velocity or constant-potential path and its phase
    fitted by a line over T = 10 in 2001 samples (the phase of a constant
    frequency is exactly linear); tolerance 1e-6 relative.
    """
    params = PhysicalParams(hbar=1.0, c=1.0, E0=1.0)
    times = np.linspace(0.0, 10.0, 2001)
    cases = _clock_cases(v_over_c, gh_over_c2)
    shifts = []
    for v_r, g_r in cases:
        velocities = np.full(times.size, v_r)
        potentials = np.full(times.size, g_r)
        phases = semiclassical_clock_phases(times, velocities, potentials, 1.0, params)
        rate = float(np.polyfit(times, phases, 1)[0])
        shifts.append((rate - 1.0, predicted_clock_shift(v_r, g_r)))
    return _clock_result("semiclassical", cases, shifts, 1e-6)


def exp_clock_wavepacket(grid: GridSpec = SMALL_GRID,
                         internal: InternalSpace = CLOCK_INTERNAL,
                         c: float = DEFAULT_C, *,
                         v_over_c: Sequence[float] = CLOCK_V_OVER_C,
                         gh_over_c2: Sequence[float] = CLOCK_GH_OVER_C2,
                         sigma: float = 4.0, total_time: float = 5.0,
                         dt: float = 2e-3) -> ExperimentResult:
    """Fractional clock-frequency shift of a propagated two-level packet.

    Each row propagates an equal superposition of the two lowest levels
    under low_energy for ``total_time`` (the per-step clearance check bounds
    that window) and fits the branch coherence phase; tolerance 2 %, with
    the packet's spread correction in the predicted column.  A row whose
    spread correction exceeds 10 % of its predicted shift is rejected.

    Every run's steps are exact: a moving clock's V is constant in x,
    and the propagator makes a raised clock's Strang steps in its
    uniform field exact (``dynamics._strang_phase``).  Against exact
    steps of dt = 2.5e-4 at the same sample times the shifts move by
    <= 2.4e-14, and against plain Strang at that dt by <= 6.5e-12, that
    reference's own Strang error.  The default dt, set when the steps
    were plain Strang, is now bounded by the alias rule alone: the
    kinetic phase spread per step, 50.5 dt on the default grid, is
    0.10 rad, 3.2 % of pi.  The samples lie every
    10 steps, so another dt moves the sample times and, with them, the
    predicted shifts.  The default grid, N = 256 on [-40, 40], keeps the
    shifts' error below 1 % of the tolerance, 2 % of the smallest
    predicted shift: against N = 1024 they move by <= 5.6e-16.
    """
    sample_every = 10  # sample stride of the clock-rate fit
    omega0 = _clock_gap(internal)
    e0 = internal.E0
    m = e0 / c**2
    spread = wavepacket_spread_correction(sigma, m, c)
    steps = _step_count(total_time, dt)
    _require_fit_samples(steps // sample_every + 1, "a wavepacket clock-rate fit")
    times_cl = np.linspace(0.0, total_time, steps // sample_every + 1)
    cases = _clock_cases(v_over_c, gh_over_c2)
    runs, predicted = [], []
    for v_r, g_r in cases:
        v = v_r * c
        if g_r != 0.0:
            g = 0.5
            x_start = g_r * c**2 / g
            potential = Potential.uniform_field(g)
        else:
            g = 0.0
            x_start = 0.0 if v >= 0 else 10.0
            potential = Potential.none()
        params = PhysicalParams(c=c, E0=e0, potential=potential)
        pred = regression_shift_prediction(times_cl, v, g, x_start, sigma, m, c)
        if abs(spread) > 0.1 * max(abs(pred), 1e-300):
            raise SpreadDominatedError(
                f"spread correction {spread:.3g} exceeds 10% of the predicted "
                f"shift {pred:.3g}; enlarge sigma"
            )
        predicted.append(pred)
        state = _equal_superposition(grid, internal, sigma, x_start, m * v)
        runs.append((state, HamiltonianKind.low_energy(), params))
    # every clock runs in one stack; each sample is read in flight
    dim = internal.dim  # run r owns the rows r dim .. r dim + dim - 1
    times, overlaps = [], []
    for k, amps, _ in _evolve(runs, dt, steps, sample_every):
        times.append(k * dt)
        overlaps.append(_overlaps(amps[0::dim], amps[1::dim], grid.dx))
    shifts = [((_fit_clock_rate(times, z) - omega0) / omega0, pred)
              for z, pred in zip(zip(*overlaps), predicted)]
    return _clock_result("wavepacket", cases, shifts, 2e-2)


# --- exp_interferometer ---------------------------------------------------------


def clock_path_phase(traj: Trajectory, delta_e: float,
                     params: PhysicalParams) -> float:
    """Accumulated clock phase along one path (measured pipeline)."""
    omega0 = delta_e / params.hbar
    potentials = params.potential.values(traj.xi)
    phases = semiclassical_clock_phases(traj.times, traj.velocity(),
                                        potentials, omega0, params)
    return float(phases[-1])


def path_proper_time_difference(traj1: Trajectory, traj2: Trajectory,
                                params: PhysicalParams) -> float:
    """tau_2 - tau_1 to lowest order: quadrature of the path differences."""
    phi1 = params.potential.values(traj1.xi)
    phi2 = params.potential.values(traj2.xi)
    v1, v2 = traj1.velocity(), traj2.velocity()
    integrand = (phi2 - phi1) / params.c**2 - (v2**2 - v1**2) / (2.0 * params.c**2)
    return float(_kernels.accumulate_phase(integrand, traj1.dt)[-1])


def interferometer_on_paths(traj1: Trajectory, traj2: Trajectory, delta_e: float,
                            params: PhysicalParams) -> ExperimentResult:
    """Two-path visibility of an internal clock, V = |cos(dE dtau / 2 hbar)|;
    the run passes when |measured - predicted| < 1e-6."""
    if traj1.times.shape != traj2.times.shape or np.any(traj1.times != traj2.times):
        raise TrajectoryError("paths must share the same time samples")
    if traj1.xi[0] != traj2.xi[0] or traj1.xi[-1] != traj2.xi[-1]:
        raise TrajectoryError("paths must share endpoints")

    phi1 = clock_path_phase(traj1, delta_e, params)
    phi2 = clock_path_phase(traj2, delta_e, params)
    chi1 = np.array([1.0, np.exp(-1j * phi1)]) / math.sqrt(2.0)
    chi2 = np.array([1.0, np.exp(-1j * phi2)]) / math.sqrt(2.0)
    measured = float(abs(np.vdot(chi1, chi2)))

    delta_tau = path_proper_time_difference(traj1, traj2, params)
    predicted = predicted_visibility(delta_e, delta_tau, params.hbar)
    abs_err = abs(measured - predicted)
    rows = [{"delta_e": delta_e, "delta_tau": delta_tau,
             "visibility_measured": measured, "visibility_predicted": predicted,
             "abs_error": abs_err}]
    tolerance = {"visibility_abs": 1e-6}
    return ExperimentResult(rows=rows, tolerance=tolerance,
                            passed=abs_err < tolerance["visibility_abs"])


def exp_interferometer(c: float = DEFAULT_C, *,
                       delta_e: float = 10.0, height: float = 3.0,
                       total_time: float = 10.0,
                       g: float = 1.0) -> ExperimentResult:
    """interferometer_on_paths on a static path and a bump of ``height`` in
    a uniform field ``g``, for a clock of energy gap ``delta_e``.  Both
    paths are sampled at 2001 points; Simpson's rule is exact on the bump
    from 7 samples up, so the count moves no row."""
    params = PhysicalParams(c=c, potential=Potential.uniform_field(g))
    _require_finite("delta_e", delta_e)
    traj1 = static_trajectory(0.0, total_time, 2001)
    traj2 = bump_trajectory(height, total_time, 2001)
    return interferometer_on_paths(traj1, traj2, delta_e=delta_e, params=params)


# --- exp_newtonian_sweep --------------------------------------------------------

def _sweep_epsilons(epsilons: Sequence[float]) -> List[float]:
    """The sweep's eps values as floats: at least two, each in (0, 0.5),
    spanning at least a decade, for the log-log slope."""
    epsilons = [float(e) for e in epsilons]
    if len(epsilons) < 2:
        raise PreconditionError("sweep needs at least two eps values")
    if not all(0.0 < e < 0.5 for e in epsilons):
        raise PreconditionError("eps values must be in (0, 0.5)")
    if max(epsilons) / min(epsilons) < 10.0:
        raise PreconditionError("eps values must span at least a decade")
    return epsilons


def exp_newtonian_sweep(grid: GridSpec = SMALL_GRID, *, m: float = 1.0,
                        epsilons: Sequence[float] = (1e-3, 10**-2.5, 1e-2,
                                                     10**-1.5, 1e-1),
                        p0: float = 1.0, g: float = 0.5,
                        total_time: float = 3.0,
                        sigma: float = 2.0, x0: float = 0.0,
                        dt: float = 3e-3) -> ExperimentResult:
    """Split-vs-newtonian discrepancy per eps = E_i/(m c^2); slope must be 1 +/- 0.1.

    Each point runs the levels (0, eps m c^2) at the fixed c = DEFAULT_C,
    which cancels from every row; m > 0, and the eps values obey
    ``_sweep_epsilons``.  The measured discrepancy is the angle of z_split
    conj(z_newt), z the branch overlap <0|1> of a final state, so a point
    whose predicted |discrepancy| reaches pi/2 is refused; the L2 state
    distance and the overlap infidelity are recorded alongside.  The
    prediction is the whole first-order discrepancy, so the residual
    |measured - predicted| must have slope 2 in eps, within the same 0.1.

    Every run is a quadratic kind in a uniform field, whose Strang steps
    the propagator makes exact (``dynamics._strang_phase``): against exact
    steps of dt = 2.5e-4 the discrepancy moves by <= 9.2e-14, the
    distance by <= 7.7e-14 and the infidelity by <= 2.9e-12, round-off
    of the longer run.  The default dt, set when the steps were plain
    Strang, is now bounded by the alias rule alone: the kinetic phase
    spread per step, 50.5 dt / m on the default grid, is 0.15 rad at m = 1,
    4.8 % of pi.  The default grid, N = 256 on
    [-40, 40], keeps its error below 1 % of what a check reads from each
    column (the row's residual for the discrepancy, the value itself for
    the distance and the infidelity): against N = 1024 the discrepancy
    moves by <= 9.3e-15, the distance by <= 1.4e-14 and the infidelity
    by <= 2.2e-13.
    """
    _require_positive("m", m)
    epsilons = _sweep_epsilons(epsilons)
    predicted = [predicted_sweep_discrepancy(eps, m, p0, g, x0, total_time, sigma)
                 for eps in epsilons]
    if max(map(abs, predicted)) >= math.pi / 2:
        raise PreconditionError("a predicted discrepancy reaches pi/2, beyond the "
                                "principal-valued phase readout")
    steps = _step_count(total_time, dt)
    e0 = m * DEFAULT_C**2
    params = PhysicalParams(c=DEFAULT_C, E0=e0, potential=Potential.uniform_field(g))

    # split and newtonian per eps, every run in one stack
    runs = []
    for eps in epsilons:
        internal = InternalSpace(E0=e0, levels=(0.0, eps * e0))
        state = _equal_superposition(grid, internal, sigma, x0, p0)
        runs += [(state, HamiltonianKind.from_name(k), params) for k in ("split", "newtonian")]
    # the final slot, read once the loop ran out, so no later step overwrote it
    *_, (_, amps, _) = _evolve(runs, dt, steps, steps)
    z = _overlaps(amps[0::2], amps[1::2], grid.dx)  # <0|1> of every run
    finals = amps.reshape(len(runs), -1)  # one row per run
    split, newt = finals[0::2], finals[1::2]
    measured = np.angle(z[0::2] * np.conj(z[1::2]))
    distance = np.sqrt(np.sum(np.abs(split - newt) ** 2, axis=-1) * grid.dx)
    fidelity = [abs(complex(o)) ** 2 for o in _overlaps(split, newt, grid.dx)]
    rows = [{"epsilon": eps, "phase_discrepancy_measured": float(measured[i]),
             "phase_discrepancy_predicted": predicted[i],
             "state_distance": float(distance[i]), "infidelity": 1.0 - fidelity[i]}
            for i, eps in enumerate(epsilons)]
    residuals = np.abs(measured - np.asarray(predicted))
    slope = float(np.polyfit(np.log(epsilons), np.log(np.abs(measured)), 1)[0])
    residual_slope = float(np.polyfit(np.log(epsilons), np.log(residuals), 1)[0])
    tolerance = {"slope": 0.1, "residual_slope": 0.1}
    passed = (abs(slope - 1.0) <= tolerance["slope"]
              and abs(residual_slope - 2.0) <= tolerance["residual_slope"])
    return ExperimentResult(rows=rows, tolerance=tolerance, passed=passed,
                            details={"slope": slope, "residual_slope": residual_slope})


# --- exp_wep ---------------------------------------------------------------------

DEFAULT_WEP_KINDS = ("dynamical_mass", "low_energy", "split", "newtonian")


def _wep_kinds(kinds: Sequence[str]) -> List[HamiltonianKind]:
    """The named kinds, none of them exact: the predicted d<v>/dt = -g is
    the low-energy free fall, which the exact kind does not follow."""
    kind_objs = [HamiltonianKind.from_name(k) for k in kinds]
    if any(k.name == "exact" for k in kind_objs):
        raise PreconditionError(
            "exp_wep predicts the low-energy fall d<v>/dt = -g, but under the "
            "exact kind v = -g t / sqrt(1 + g^2 t^2 / c^2); 'exact' is not an "
            "exp_wep kind")
    return kind_objs


def exp_wep(grid: GridSpec = SMALL_GRID,
            internal: InternalSpace = InternalSpace(E0=DEFAULT_E0, levels=(0.0, 0.01)),
            c: float = DEFAULT_C, *,
            kinds: Sequence[str] = DEFAULT_WEP_KINDS,
            g: float = 1.0, total_time: float = 3.0,
            sigma: float = 2.0, x0: float = 5.0,
            dt: float = 1e-2, sample_every: int = 1) -> ExperimentResult:
    """Free fall is universal; clock rates are not (except newtonian).

    For every internal eigenstate branch and every requested kind (any but
    exact) the fitted d<v>/dt must equal -g to 1e-6 relative.  The fitted
    internal clock rate shifts per the dilation formula under low_energy
    but stays exactly omega0 under newtonian; both records are kept.
    Without a clock (one level, or two equal ones) there is no clock row.

    Every run is a quadratic kind in a uniform field, whose Strang steps
    the propagator makes exact (``dynamics._strang_phase``), so dt is
    bounded by the alias rule alone: the kinetic phase spread per step,
    50.5 dt on the default grid for every default kind, is 0.505 rad,
    16 % of pi (low_energy's rest term H_r dt is a branch phase, which
    the rule does not read).  Against plain Strang at dt = 2.5e-4 every
    measured column lies within 2.6e-11, that reference's own Strang
    error; against exact steps of 2.5e-4 within 3.2e-13.  Every step is
    a sample, 0.01 apart, 301 of them over the default window.  The
    default grid, N = 256 on [-40, 40], keeps its error below 1 % of the
    tightest tolerance that reads each column (1e-6 |g|, and the
    newtonian clock's 1e-8): against N = 1024 (at dt = 2.5e-3, since
    that grid needs dt < 3.89e-3) every measured column moves by
    <= 6.0e-13, the newtonian shift's move.  At g = 4 the falling packet's
    momenta leave that grid, and the step loop refuses the run (exit 3).
    """
    kind_objs = _wep_kinds(kinds)
    tolerance = {"accel_rel": 1e-6, "newtonian_shift_abs": 1e-8,
                 "low_energy_shift_rel": 0.1, "low_energy_shift_floor": 1e-6}
    params = PhysicalParams(c=c, E0=internal.E0, potential=Potential.uniform_field(g))
    omega0 = internal.levels[1] - internal.levels[0] if internal.dim >= 2 else 0.0
    m = params.m
    steps = _step_count(total_time, dt)

    # every kind runs in one stack; each sample is read in flight
    state = _equal_superposition(grid, internal, sigma, x0, 0.0)
    runs = [(state, kind, params) for kind in kind_objs]
    velocity_table = _velocity_table(runs) if runs else None
    dim = internal.dim  # run r owns the rows r dim .. r dim + dim - 1
    clock = dim >= 2 and omega0 > 0.0
    times, velocities, overlaps = [], [], []
    for k, amps, _ in _evolve(runs, dt, steps, sample_every):
        times.append(k * dt)
        velocities.append(_read_velocities(amps, velocity_table))
        if clock:
            overlaps.append(_overlaps(amps[0::dim], amps[1::dim], grid.dx))
    times = np.asarray(times)
    velocities = np.asarray(velocities)
    rates = [_fit_clock_rate(times, z) for z in zip(*overlaps)]

    def one(r: int, kind: HamiltonianKind):
        rows = []
        for level in range(dim):
            vels = velocities[:, r * dim + level]
            accel = float(np.polyfit(times, vels, 1)[0])
            abs_err = abs(accel - (-g))
            rows.append({"kind": kind.name, "quantity": "acceleration",
                         "branch": str(level + 1), "measured": accel,
                         "predicted": -g, "abs_error": abs_err,
                         "rel_error": abs_err / abs(g) if g != 0.0 else abs_err})
        if clock:
            measured_shift = (rates[r] - omega0) / omega0
            if kind.name == "newtonian":  # one mass m for every level
                predicted_shift = 0.0
            else:
                predicted_shift = regression_shift_prediction(
                    times, 0.0, g, x0, sigma, m, c)
                if kind.name == "dynamical_mass":
                    # no rest term E_i in H: the clock runs at omega0 * shift
                    predicted_shift -= 1.0
            abs_err = abs(measured_shift - predicted_shift)
            rel = abs_err / abs(predicted_shift) if predicted_shift != 0.0 else abs_err
            rows.append({"kind": kind.name, "quantity": "clock_shift",
                         "branch": "-", "measured": measured_shift,
                         "predicted": predicted_shift, "abs_error": abs_err,
                         "rel_error": rel})
        return rows

    rows = [row for r, kind in enumerate(kind_objs) for row in one(r, kind)]
    accel_ok = all(r["rel_error"] < tolerance["accel_rel"]
                   for r in rows if r["quantity"] == "acceleration")
    clock_rows = {r["kind"]: r for r in rows if r["quantity"] == "clock_shift"}
    clock_ok = True
    if "newtonian" in clock_rows:
        clock_ok &= (abs(clock_rows["newtonian"]["measured"])
                     < tolerance["newtonian_shift_abs"])
    if "low_energy" in clock_rows:
        row = clock_rows["low_energy"]
        clock_ok &= (row["rel_error"] < tolerance["low_energy_shift_rel"]
                     and abs(row["measured"]) > tolerance["low_energy_shift_floor"])
    return ExperimentResult(rows=rows, tolerance=tolerance, passed=accel_ok and clock_ok)


# --- exp_frame_phase --------------------------------------------------------------


def exp_frame_phase(internal: InternalSpace = DEFAULT_INTERNAL,
                    c: float = DEFAULT_C, *,
                    speed: float = 1.0, total_time: float = 1.0) -> ExperimentResult:
    """Round-trip phase of the frame riding a closed triangular path.

    At t = T the frame transform is applied to the packet and the residual
    boost (the triangle ends with xi_dot = -speed) is undone, completing
    the round trip.  The remaining branch phase is read against the probe
    packet and compared with (M_i/hbar) integral xi_dot^2/2 dt, to 1e-6,
    and with its proper-time reading M_i c^2 (T - T')/hbar.  The path is closed, so the
    round trip acts on each branch as a pure phase whatever the lab state:
    lab evolution up to T cancels in the readout, and none is run.  The
    triangle is sampled at 2001 points; Simpson's rule is exact on its
    constant |xi_dot|^2.
    """
    params = PhysicalParams(c=c, E0=internal.E0)
    mass_values = internal.mass_energies(c)
    traj = triangular_trajectory(speed, total_time, 2001)

    packet = _probe(internal)
    primed = frame_transform(packet, traj, total_time, params)
    _, v_end, _ = traj.at(total_time)
    unboosted = apply_boost(primed, v_end, 0.0, params)

    # (branch, mass, measured phase); the relative case is (M_2 - M_1, phi_2 - phi_1)
    cases = [(str(i + 1), mass_values[i], branch_phase(unboosted, packet, i).phase)
             for i in range(internal.dim)]
    if internal.dim >= 2:
        cases.append(("relative", mass_values[1] - mass_values[0],
                      wrap_angle(cases[1][2] - cases[0][2])))
    rows = []
    for branch, mass, measured in cases:
        pred = wrap_angle(predicted_triangle_phase(mass, speed, total_time))
        proper = wrap_angle(predicted_triangle_proper_phase(mass, speed, total_time, c))
        rows.append({
            "branch": branch, "phase_measured": measured,
            "phase_predicted": pred, "abs_error": abs(wrap_angle(measured - pred)),
            "phase_proper_time": proper,
            "proper_time_gap": abs(wrap_angle(measured - proper)),
        })
    tolerance = {"phase_abs": 1e-6}
    passed = all(r["abs_error"] < tolerance["phase_abs"] for r in rows)
    return ExperimentResult(rows=rows, tolerance=tolerance, passed=passed)


# --- registry (consumed by the CLI) --------------------------------------------

def _as_json(value):
    """A default as it reads in a JSON config: specs as objects, tuples as lists."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {k: _as_json(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_as_json(v) for v in value]
    return value


@dataclass(frozen=True)
class ExperimentDef:
    """A registry entry.  ``rules`` maps a config key to a rule the runner
    calls on the argument the key is read into (the ``grid`` or ``internal``
    section, else the key's leaf), so a config is refused before the run."""

    description: str
    anchor: str
    runner: Callable
    rules: Dict[str, Callable] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """The registry name: the runner's own name."""
        return self.runner.__name__

    @property
    def defaults(self) -> dict:
        """The config tree of the runner's keyword defaults.

        Sections ``grid``, ``internal``, ``physical`` and ``params``; a
        section the runner takes nothing from is empty.
        """
        tree = {"grid": {}, "internal": {}, "physical": {}, "params": {}}
        for name, param in inspect.signature(self.runner).parameters.items():
            value = _as_json(param.default)
            if name in ("grid", "internal"):  # whole sections
                tree[name] = value
            else:  # c is the one leaf outside params
                tree["physical" if name == "c" else "params"][name] = value
        return tree


EXPERIMENTS: Dict[str, ExperimentDef] = {d.name: d for d in (
    ExperimentDef(
        description="translate-boost loop phases per branch and the "
                    "mass-energy relative phase",
        anchor="Eq. (2)",
        runner=exp_bargmann,
        rules={"params.masses": functools.partial(internal_space_from_masses, c=1.0)},
    ),
    ExperimentDef(
        description="internal clock frequency shift -v^2/2c^2 + Phi/c^2 "
                    "along classical paths",
        anchor="Eq. (6)",
        runner=exp_clock_semiclassical,
    ),
    ExperimentDef(
        description="internal clock frequency shift -v^2/2c^2 + Phi/c^2 "
                    "of a propagated packet",
        anchor="Eq. (6)",
        runner=exp_clock_wavepacket,
        rules={"internal.levels": _clock_gap},
    ),
    ExperimentDef(
        description="two-path clock visibility |cos(dE dtau / 2 hbar)|",
        anchor="Eq. (6)",
        runner=exp_interferometer,
    ),
    ExperimentDef(
        description="split-form vs newtonian discrepancy, linear in "
                    "eps = E_i/(m c^2)",
        anchor="Eqs. (7)-(8)",
        runner=exp_newtonian_sweep,
        rules={"params.m": functools.partial(_require_positive, "m"),
               "params.epsilons": _sweep_epsilons},
    ),
    ExperimentDef(
        description="free-fall universality per branch and kind, with "
                    "clock-rate records",
        anchor="Eq. (8) + WEP",
        runner=exp_wep,
        rules={"params.kinds": _wep_kinds},
    ),
    ExperimentDef(
        description="closed-path moving-frame phase = time dilation in "
                    "phase units",
        anchor="Eqs. (1)-(2)",
        runner=exp_frame_phase,
    ),
)}
