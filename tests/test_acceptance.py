"""Acceptance gate: the ten headline checks at their stated tolerances.

Each ``test_cNN_*`` check prints one ``ACCEPTANCE Cnn <label>: PASS`` line
(shown with ``pytest -s`` or in captured output on failure); C08 has two.
``test_c04_fails_on_a_wrong_rest_phase`` shows that C04 can fail,
``test_a_defect_in_a_kind_row_fails_its_check`` that a defect in each kind
row a check reads fails that check, and ``test_a_defect_fails_its_check``
that a defect fails each of C01-C03, C05-C07 and C10 (one defect in the
Galilean map that boosts and moving frames share fails C01, C02 and C07);
``test_c02_oracle_gap_fails_on_its_own`` that C02's dense-matrix oracle
catches a mass-energy defect the relative phase cannot see.  Run the whole
module:

    pytest tests/test_acceptance.py -v
"""

import dataclasses

import numpy as np
import pytest
from massclock import (
    GridSpec,
    HamiltonianKind,
    InternalSpace,
    PhysicalParams,
    Potential,
    bargmann_loop_element,
    ExtendedGalileiElement,
    commutator_residual,
    compose_galilei,
    extended_loop_element,
    frame_transform,
    gaussian_packet,
    internal_space_from_masses,
    loop_phase,
    make_superposition,
    overlap,
    propagate,
    propagate_history,
    proper_time,
    schrodinger_residual,
    sinusoidal_trajectory,
    triangular_trajectory,
    wrap_angle,
)
from massclock import _kernels, dynamics, symmetry
from massclock.dynamics import _KINDS, Trajectory
from massclock.experiments import (
    DEFAULT_BARGMANN_PAIRS,
    exp_bargmann,
    exp_clock_semiclassical,
    exp_clock_wavepacket,
    exp_frame_phase,
    exp_newtonian_sweep,
    exp_wep,
)

import oracles


def _report(tag: str, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {tag} {label}: {status}{suffix}")
    assert ok, f"{tag} {label}: {detail}"


PARAMS = PhysicalParams(hbar=1.0, c=10.0, E0=100.0)


def test_c01_bargmann_loop():
    """Abstract loop element is the identity exactly; the unitary loop
    yields -M_i a w / hbar within 1e-8 across a 5-point (a, w) sweep."""
    result = exp_bargmann()  # five default pairs
    abstract_ok = all(
        bargmann_loop_element(a, w).is_identity()
        for a, w in DEFAULT_BARGMANN_PAIRS
    )
    branch_rows = [r for r in result.rows if r["branch"] != "relative"]
    worst = max(r["abs_error"] for r in branch_rows)
    _report("C01", "bargmann-loop", abstract_ok and worst < 1e-8,
            f"5-pair sweep, worst |phase error| = {worst:.2e}")


def test_c02_mass_energy_relative_phase():
    """Relative phase (M2 - M1) a w / hbar = 0.04 within 1e-8, with the
    dense-matrix oracle cross-check at N = 64."""
    result = exp_bargmann(masses=[1.0, 1.1], pairs=[(0.5, 0.8)])
    rel = [r for r in result.rows if r["branch"] == "relative"][0]
    err = abs(rel["phase_measured"] - 0.04)

    # dense-matrix oracle on a 64-point grid
    grid64 = GridSpec(-20.0, 20.0, 64)
    internal = internal_space_from_masses([1.0, 1.1], 10.0)
    params = PhysicalParams(hbar=1.0, c=10.0, E0=internal.E0)
    psi = gaussian_packet(grid64, 0.0, 0.0, 3.0)
    state = make_superposition(grid64, internal, np.full(2, 2**-0.5), psi)
    pipeline = loop_phase(state, 0.5, 0.8, params)
    # the oracle reads the config's masses, not the pipeline's mass_energies
    dense = [oracles.dense_loop_phase(grid64, m, 0.5, 0.8, 1.0, psi)
             for m in (1.0, 1.1)]
    oracle_gap = max(abs(wrap_angle(bp.phase - d))
                     for bp, d in zip(pipeline, dense))
    _report("C02", "mass-energy-relative-phase",
            err < 1e-8 and oracle_gap < 1e-10,
            f"|rel - 0.04| = {err:.2e}, dense-oracle gap = {oracle_gap:.2e}")


def test_c03_extended_loop():
    """alpha == a w within 1e-12 on 1000 random pairs, Galilei part identity."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    ok = True
    for _ in range(1000):
        a, w = rng.uniform(-3, 3, size=2)
        el = extended_loop_element(a, w)
        worst = max(worst, abs(el.alpha - a * w))
        ok &= el.g.is_identity()
    _report("C03", "extended-loop-alpha", ok and worst < 1e-12,
            f"1000 pairs, worst |alpha - a w| = {worst:.2e}")


C04_INTERNAL = InternalSpace(E0=100.0, levels=(0.0, 10.0))
C04_DT, C04_STEPS = 5e-4, 2000
C04_REST = [C04_INTERNAL.E0 + e for e in C04_INTERNAL.levels]


def _c04_terminals():
    """Terminal states under low_energy and under dynamical_mass without
    its rest term, from one packet in a uniform field."""
    grid = GridSpec(-40.0, 40.0, 2048)
    params = PhysicalParams(hbar=1.0, c=10.0, E0=C04_INTERNAL.E0,
                            potential=Potential.uniform_field(0.5))
    psi = gaussian_packet(grid, -5.0, 1.0, 1.0)
    state = make_superposition(grid, C04_INTERNAL, np.full(2, 2**-0.5), psi)
    return tuple(propagate(state, kind, params, C04_DT, C04_STEPS)
                 for kind in (HamiltonianKind.low_energy(),
                              HamiltonianKind.dynamical_mass()))


@pytest.fixture(scope="module")
def c04_terminals():
    return _c04_terminals()


def _c04_infidelity(terminals, rest_energies) -> float:
    """Infidelity of the low_energy state against the dynamical_mass state
    times the rest phase exp(-i H_r,i T / hbar) of each branch, with H_r,i
    the given rest energies."""
    low, dyn = terminals
    rest = np.exp(-1j * np.asarray(rest_energies) * C04_DT * C04_STEPS)
    subject = dyn.with_amplitudes(dyn.amplitudes * rest[:, None])
    return abs(1.0 - abs(overlap(low, subject)) ** 2)


def test_c04_operational_equivalence(c04_terminals):
    """low_energy agrees to 1e-12 with dynamical_mass without its rest
    term, times the closed-form rest phase exp(-i (E0 + E_i) T) per branch."""
    infidelity = _c04_infidelity(c04_terminals, C04_REST)
    _report("C04", "low-energy-equals-dynamical-mass-with-rest-phase",
            infidelity < 1e-12, f"terminal infidelity = {infidelity:.2e}")


@pytest.mark.parametrize("rest", [
    pytest.param([100.0, 100.0], id="E_i-dropped"),
    pytest.param([100.0, 110.001], id="E_1-off-by-1e-3"),
])
def test_c04_fails_on_a_wrong_rest_phase(c04_terminals, rest):
    assert _c04_infidelity(c04_terminals, rest) > 1e-12


# One defect per kind row and the check that reads the row, as a call that
# is True when the check passes.  The table has five rows, and no check
# reads exact, since no runner propagates it.
ROW_DEFECTS = [
    pytest.param("dynamical_mass", "kinetic", lambda p, b: p**2 * b.c**2 / (2.0 * b.e0),
                 lambda: _c04_infidelity(_c04_terminals(), C04_REST) < 1e-12,
                 id="dynamical_mass-T-with-m-C04"),
    pytest.param("low_energy", "potential", lambda phi, b: (b.e0 / b.c**2) * phi,
                 lambda: exp_wep().passed, id="low_energy-V-with-m-C09"),
    pytest.param("split", "kinetic", lambda p, b: p**2 * b.c**2 / (2.0 * b.e0),
                 lambda: exp_newtonian_sweep().passed, id="split-T-without-E_i-C08"),
    pytest.param("newtonian", "potential", lambda phi, b: b.m * b.c**2 + b.m * phi,
                 lambda: exp_wep().passed, id="newtonian-V-without-E_i-C09"),
]


@pytest.mark.parametrize("name, part, defect, check_passes", ROW_DEFECTS)
def test_a_defect_in_a_kind_row_fails_its_check(monkeypatch, name, part, defect,
                                                 check_passes):
    monkeypatch.setitem(_KINDS, name, dataclasses.replace(_KINDS[name], **{part: defect}))
    assert not check_passes()



def test_c05_time_dilation():
    """Semiclassical shifts within 1e-6 relative for the stated ratio sets;
    wavepacket shift within 2% at v/c = 0.1."""
    semi = exp_clock_semiclassical(v_over_c=[0.05, 0.1, 0.2],
                                   gh_over_c2=[1e-3, 1e-2])
    semi_worst = max(r["rel_error"] for r in semi.rows)
    wave = exp_clock_wavepacket(GridSpec(-40.0, 40.0, 2048), v_over_c=[0.1],
                                gh_over_c2=[], sigma=2.0, total_time=5.0, dt=5e-4)
    wave_err = wave.rows[0]["rel_error"]
    _report("C05", "clock-time-dilation",
            semi_worst < 1e-6 and wave_err < 2e-2,
            f"semiclassical worst rel = {semi_worst:.2e}, "
            f"wavepacket rel = {wave_err:.2e}")


def test_c06_proper_time_closed_path():
    """Triangular path at 0.1c: delta_tau = 1 - sqrt(0.99) within 1e-10 of
    quadrature; frame-transform round-trip phase = (M/hbar) int xi_dot^2/2 dt
    within 1e-6."""
    traj = triangular_trajectory(0.1 * PARAMS.c, 1.0, 2001)
    res = proper_time(traj, PARAMS)
    tau_err = abs(res.delta_tau - (1.0 - np.sqrt(0.99)))

    frame = exp_frame_phase(speed=1.0, total_time=1.0)
    phase_err = max(r["abs_error"] for r in frame.rows)
    _report("C06", "proper-time-closed-path",
            tau_err < 1e-10 and phase_err < 1e-6,
            f"|delta_tau - closed form| = {tau_err:.2e}, "
            f"worst |phase error| = {phase_err:.2e}")


def test_c07_primed_frame_equation():
    """Residual against p'^2/2M + M xi_ddot x' converges at order >= 1.9
    over a 3-point dt refinement; without the term it stalls."""
    grid = GridSpec(-20.0, 20.0, 512)
    internal = InternalSpace(E0=100.0, levels=(0.0,))
    params = PhysicalParams(hbar=1.0, c=10.0, E0=100.0)
    kind = HamiltonianKind.dynamical_mass()

    def residual(dt, with_term):
        steps = int(round(1.0 / dt))
        traj = sinusoidal_trajectory(0.5, 1.0, steps + 1)
        psi = gaussian_packet(grid, 0.0, 0.0, 1.0)
        state = make_superposition(grid, internal, [1.0], psi)
        times, hist = propagate_history(state, kind, params, dt, steps)
        primed = [frame_transform(s, traj, t, params)
                  for s, t in zip(hist, times)]
        acc = traj.acceleration() if with_term else None
        return schrodinger_residual(primed, dt, kind, params,
                                    non_inertial_accel=acc)

    dts = (2e-3, 1e-3, 5e-4)
    res = [residual(dt, True) for dt in dts]
    orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
    neg = [residual(dt, False) for dt in dts]
    stalls = neg[-1] > 0.5 * neg[0] and neg[-1] > 100.0 * res[-1]
    _report("C07", "primed-frame-schrodinger",
            min(orders) >= 1.9 and stalls,
            f"orders = {orders[0]:.3f}, {orders[1]:.3f}; "
            f"control residual = {neg[-1]:.2e} vs {res[-1]:.2e}")


def test_c08_newtonian_limit_convergence(default_sweep):
    """Split-vs-newtonian discrepancy scales as eps with log-log slope
    1.0 +/- 0.1 over eps in [1e-3, 1e-1]."""
    result = default_sweep
    slope = result.details["slope"]
    _report("C08", "newtonian-limit-slope", abs(slope - 1.0) <= 0.1,
            f"slope = {slope:.3f}")


def test_c08_prediction_residual_is_second_order(default_sweep):
    """|measured - predicted| of the Newtonian-limit sweep scales as eps^2
    with log-log slope 2.0 +/- 0.1: the prediction is the whole
    first-order discrepancy, and the sweep's pass reads this slope too."""
    result = default_sweep
    slope = result.details["residual_slope"]
    _report("C08", "newtonian-limit-residual-slope",
            abs(slope - 2.0) <= 0.1 and result.passed, f"residual slope = {slope:.3f}")


def test_c09_weak_equivalence_principle(default_wep):
    """d<v>/dt = -g within 1e-6 relative for both branches under all four
    kinds; clock rates shift under low_energy but not under newtonian."""
    result = default_wep
    accel_rows = [r for r in result.rows if r["quantity"] == "acceleration"]
    accel_worst = max(r["rel_error"] for r in accel_rows)
    clock = {r["kind"]: r for r in result.rows if r["quantity"] == "clock_shift"}
    newton_flat = abs(clock["newtonian"]["measured"]) < 1e-8
    dilated = (abs(clock["low_energy"]["measured"]) > 1e-3
               and clock["low_energy"]["rel_error"] < 0.1)
    _report("C09", "weak-equivalence-principle",
            accel_worst < 1e-6 and newton_flat and dilated,
            f"worst accel rel = {accel_worst:.2e}, newtonian shift = "
            f"{clock['newtonian']['measured']:.2e}, low_energy shift = "
            f"{clock['low_energy']['measured']:.3e}")


def test_c10_propagator_health():
    """Norm drift < 1e-10 over 1e4 steps, Strang order ratio >= 3.5,
    commutator residual < 1e-6 on centered packets."""
    grid = GridSpec(-40.0, 40.0, 2048)
    internal = InternalSpace(E0=100.0, levels=(0.0, 10.0))
    psi = gaussian_packet(grid, 0.0, 1.0, 1.0)
    state = make_superposition(grid, internal, np.full(2, 2**-0.5), psi)
    final = propagate(state, HamiltonianKind.low_energy(), PARAMS, 5e-4, 10000)
    drift = abs(final.norm() - 1.0)

    order_grid = GridSpec(-20.0, 20.0, 512)
    xs = np.linspace(-20.0, 20.0, 801)
    params_h = PhysicalParams(hbar=1.0, c=10.0, E0=100.0,
                              potential=Potential.tabulated(xs, 0.05 * xs**2))
    single = InternalSpace(E0=100.0, levels=(0.0,))
    packet = make_superposition(order_grid, single, [1.0],
                                gaussian_packet(order_grid, 4.0, 0.0, 1.0))

    def terminal(steps):
        return propagate(packet, HamiltonianKind.newtonian(), params_h,
                         2.0 / steps, steps)

    ref = terminal(8000)
    e1 = oracles.l2_distance(order_grid, terminal(1000).amplitudes, ref.amplitudes)
    e2 = oracles.l2_distance(order_grid, terminal(2000).amplitudes, ref.amplitudes)
    ratio = e1 / e2

    resid = float(np.max(commutator_residual(state, 0.0, PARAMS)))
    _report("C10", "propagator-health",
            drift < 1e-10 and ratio >= 3.5 and resid < 1e-6,
            f"norm drift = {drift:.2e}, Strang ratio = {ratio:.2f}, "
            f"[p,K] residual = {resid:.2e}")


def _mass_energy_without_e_i(internal, c):
    """``mass_energies`` with m = E0 / c^2 for every branch."""
    return np.full(internal.dim, internal.E0) / c**2


def _mass_energy_shifted(internal, c):
    """``mass_energies`` with every branch 0.05 heavier: the relative loop
    phase keeps its value, each branch's phase moves by 0.05 a w."""
    return internal.rest_energies() / c**2 + 0.05


def _step_without_its_closing_kick(out, previous, exp_v_half, exp_t, free):
    """``dynamics._strang_step`` without its last V half-kick: a first-order
    splitting."""
    _kernels.phase_multiply(out, exp_v_half, previous)
    if not free:
        np.fft.fft(out, axis=1, out=out)
    _kernels.phase_multiply(out, exp_t)
    if not free:
        np.fft.ifft(out, axis=1, out=out)


def _map_with_reversed_shift(state, a, u, phi, params, where, *args,
                             galilei_map=symmetry._galilei_map):
    """The shared Galilean map translating by -a: the frame shift is reversed."""
    return galilei_map(state, -a, u, phi, params, where, *args)


def _map_with_reversed_rate(state, a, u, phi, params, where, *args,
                            galilei_map=symmetry._galilei_map):
    """The shared Galilean map with its phase rate u reversed, for boosts and
    moving frames alike."""
    return galilei_map(state, a, -u, phi, params, where, *args)


# Plausible defects of each check that reads no fixture, as (owner,
# attribute, the defective value); each makes the check itself fail (its
# reading in CHANGES.md).  C04, C08 and C09 have the kind-row defects above.
CHECK_DEFECTS = [
    pytest.param(InternalSpace, "mass_energies", _mass_energy_without_e_i,
                 test_c01_bargmann_loop, id="mass-energy-without-E_i-C01"),
    pytest.param(InternalSpace, "mass_energies", _mass_energy_without_e_i,
                 test_c02_mass_energy_relative_phase, id="mass-energy-without-E_i-C02"),
    pytest.param(InternalSpace, "mass_energies", _mass_energy_shifted,
                 test_c02_mass_energy_relative_phase, id="mass-energy-shifted-C02"),
    pytest.param(symmetry, "compose_extended",
                 lambda h2, h1: ExtendedGalileiElement(
                     alpha=h1.alpha + h2.alpha - 0.5 * h2.g.w**2 * h1.g.b,
                     g=compose_galilei(h2.g, h1.g)),
                 test_c03_extended_loop, id="alpha-without-w2-a1-C03"),
    pytest.param(dynamics, "internal_frequency",
                 lambda omega0, v, phi, params: omega0 * (
                     1.0 + np.asarray(v)**2 / (2.0 * params.c**2) + np.asarray(phi) / params.c**2),
                 test_c05_time_dilation, id="plus-v2-over-2c2-C05"),
    pytest.param(Trajectory, "_kinetic",
                 property(lambda traj: _kernels.accumulate_phase(traj.velocity()**2, traj.dt)),
                 test_c06_proper_time_closed_path, id="action-without-one-half-C06"),
    pytest.param(symmetry, "_galilei_map", _map_with_reversed_shift,
                 test_c07_primed_frame_equation, id="frame-shift-reversed-C07"),
    pytest.param(symmetry, "_galilei_map", _map_with_reversed_rate,
                 test_c01_bargmann_loop, id="map-rate-reversed-C01"),
    pytest.param(symmetry, "_galilei_map", _map_with_reversed_rate,
                 test_c02_mass_energy_relative_phase, id="map-rate-reversed-C02"),
    pytest.param(symmetry, "_galilei_map", _map_with_reversed_rate,
                 test_c07_primed_frame_equation, id="map-rate-reversed-C07"),
    pytest.param(dynamics, "_strang_step", _step_without_its_closing_kick,
                 test_c10_propagator_health, id="step-without-closing-kick-C10"),
]


@pytest.mark.parametrize("owner, attribute, defect, check", CHECK_DEFECTS)
def test_a_defect_fails_its_check(monkeypatch, owner, attribute, defect, check):
    monkeypatch.setattr(owner, attribute, defect)
    with pytest.raises(AssertionError, match=rf"^C\d\d "):
        check()


def test_c02_oracle_gap_fails_on_its_own(monkeypatch):
    """A common shift of every mass-energy keeps the relative phase at 0.04,
    so C02 fails on its dense-oracle gap alone: the oracle reads the
    config's masses, not the ``mass_energies`` the pipeline reads."""
    monkeypatch.setattr(InternalSpace, "mass_energies", _mass_energy_shifted)
    result = exp_bargmann(masses=[1.0, 1.1], pairs=[(0.5, 0.8)])
    rel = [r for r in result.rows if r["branch"] == "relative"][0]
    assert abs(rel["phase_measured"] - 0.04) < 1e-8
    with pytest.raises(AssertionError, match="^C02 "):
        test_c02_mass_energy_relative_phase()
