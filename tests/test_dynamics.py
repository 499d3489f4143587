import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massclock import (
    AliasingError,
    BoundaryViolationError,
    CompositeState,
    GridResolutionError,
    GridSpec,
    HamiltonianKind,
    IncompatibleSpacesError,
    InternalSpace,
    PhysicalParams,
    Potential,
    PreconditionError,
    SuperluminalError,
    Trajectory,
    TrajectoryError,
    apply_boost,
    bump_trajectory,
    closed_path_phase,
    expectation_p,
    expectation_velocity,
    expectation_x,
    fit_clock_rate,
    fit_phase_rate,
    frame_transform,
    gaussian_packet,
    internal_frequency,
    internal_space_from_masses,
    make_superposition,
    overlap,
    propagate,
    propagate_history,
    proper_time,
    schrodinger_residual,
    semiclassical_clock_phases,
    sinusoidal_trajectory,
    static_trajectory,
    triangular_trajectory,
)
from massclock import _kernels, dynamics
from massclock.dynamics import (
    _KINDS,
    _RESIDUAL_BLOCK,
    _Plan,
    _branches,
    _evolve,
    _read_velocities,
    _strang_phase,
    _strang_step,
    _tables,
    _velocity_table,
)
from massclock.hilbert import _check_steps, _overlaps

import oracles

GRID = GridSpec(-40.0, 40.0, 1024)
INTERNAL = InternalSpace(E0=100.0, levels=(0.0, 10.0))
PARAMS = PhysicalParams(hbar=1.0, c=10.0, E0=100.0)


def packet_state(grid=GRID, internal=INTERNAL, x0=0.0, p0=0.0, sigma=1.0):
    psi = gaussian_packet(grid, x0, p0, sigma)
    w = np.full(internal.dim, 1.0 / np.sqrt(internal.dim))
    return make_superposition(grid, internal, w, psi)


class TestHamiltonianKind:
    def test_names(self):
        assert HamiltonianKind.from_name(" split\n") is _KINDS["split"]
        with pytest.raises(PreconditionError,
                           match=r"unknown Hamiltonian kind 'quartic'; known: exact, "):
            HamiltonianKind.from_name(" quartic")
        with pytest.raises(PreconditionError, match="named by a string"):
            HamiltonianKind.from_name(1)

    def test_every_label_is_a_table_entry(self):
        assert [kind.name for kind in _KINDS.values()] == list(_KINDS)
        for name in ("exact", "dynamical_mass", "low_energy", "split", "newtonian"):
            assert getattr(HamiltonianKind, name)() is _KINDS[name]

    def test_the_rest_alias_is_not_a_kind(self):
        # low_energy is dynamical_mass with its rest term; no second name
        assert len(_KINDS) == 5
        with pytest.raises(PreconditionError, match=re.escape(
                "unknown Hamiltonian kind 'dynamical_mass+rest'; known: "
                "exact, dynamical_mass, low_energy, split, newtonian")):
            HamiltonianKind.from_name("dynamical_mass+rest")


def _docstring_branch(label, p, phi, e0, ei, c, m):
    """(T_i(p), V_i) of one branch, written out from the module docstring."""
    hr = e0 + ei
    big_m = hr / c**2
    if label == "exact":
        return np.sqrt(c**2 * p**2 + hr**2), big_m * phi
    if label == "dynamical_mass":
        return p**2 * c**2 / (2 * hr), big_m * phi
    if label == "low_energy":
        return hr + p**2 * c**2 / (2 * hr), big_m * phi
    if label == "split":
        return (p**2 * c**2 / (2 * e0) - ei * p**2 * c**2 / (2 * e0**2),
                hr + hr * phi / c**2)
    return p**2 / (2 * m), m * c**2 + ei + m * phi  # newtonian


@st.composite
def _kind_cases(draw):
    n = 2 ** draw(st.integers(3, 9))
    x_min = draw(st.floats(-50.0, -1.0))
    grid = GridSpec(x_min, draw(st.floats(1.0, 50.0)), n)
    e0 = draw(st.floats(1.0, 1e4))
    fractions = draw(st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=4))
    internal = InternalSpace(E0=e0, levels=sorted(f * e0 for f in fractions))
    potential = draw(st.sampled_from([
        Potential.none(), Potential.uniform_field(0.7),
        Potential.tabulated([x_min, 0.0, 1.0], [0.3, -1.2, 2.0])]))
    params = PhysicalParams(hbar=draw(st.floats(0.1, 5.0)), c=draw(st.floats(0.5, 50.0)),
                            E0=e0, potential=potential)
    return draw(st.sampled_from(list(_KINDS))), grid, internal, params


class TestKindTable:
    @settings(max_examples=200, deadline=None)
    @given(_kind_cases())
    def test_built_rows_follow_the_docstring_formulas(self, case):
        label, grid, internal, params = case
        t_table, v_table = _tables(HamiltonianKind.from_name(label), grid, internal, params)
        assert t_table.shape == v_table.shape == (internal.dim, grid.n_points)
        p, phi = grid.p(params.hbar), params.potential.values(grid.x())
        for i, ei in enumerate(internal.levels):
            t, v = _docstring_branch(label, p, phi, internal.E0, ei, params.c, params.m)
            np.testing.assert_allclose(t_table[i], t, rtol=1e-13, atol=1e-13 * np.max(np.abs(t)))
            np.testing.assert_allclose(v_table[i], v, rtol=1e-13, atol=1e-13 * np.max(np.abs(v)))

    @settings(max_examples=200, deadline=None)
    @given(_kind_cases())
    def test_velocity_is_the_central_difference_of_t(self, case):
        label, grid, internal, params = case
        p = grid.p(params.hbar)
        t_rows, v_rows = _columns(label, p, internal, params)
        p_max = np.max(np.abs(p))
        b = _branches(internal, params)
        # one step per branch, below the curvature scale H_r/c of the exact
        # kind's square root
        h = 1e-4 * np.minimum(p_max, b.hr / params.c)
        t_plus, _ = _columns(label, p + h, internal, params)
        t_minus, _ = _columns(label, p - h, internal, params)
        numeric = (t_plus - t_minus) / (2 * h)
        for i in range(internal.dim):
            t_max = np.max(np.abs(t_rows[i]))
            rounding = 1e-14 * t_max / h[i, 0]
            np.testing.assert_allclose(v_rows[i], numeric[i], rtol=1e-6,
                                       atol=1e-6 * t_max / p_max + rounding)

    @settings(max_examples=100, deadline=None)
    @given(_kind_cases())
    def test_quadratic_columns_are_the_rows_curvature_and_slope(self, case):
        # d^2T/dp^2 and dV/dPhi of every branch, read off the kinetic and
        # potential rows; the exact kind's T is not quadratic, so it has none
        label, grid, internal, params = case
        kind = HamiltonianKind.from_name(label)
        if label == "exact":
            assert kind.inverse_mass is kind.field_mass is None
            return
        b = _branches(internal, params)
        shape = (internal.dim, 1)
        h = b.hr / b.c  # T(h) - T(0) is about H_r
        t_minus, t_zero, t_plus = (kind.kinetic(s * h, b) for s in (-1.0, 0.0, 1.0))
        np.testing.assert_allclose(np.broadcast_to(kind.inverse_mass(b), shape),
                                   (t_minus - 2.0 * t_zero + t_plus) / h**2, rtol=1e-9)
        np.testing.assert_allclose(np.broadcast_to(kind.field_mass(b), shape),
                                   kind.potential(1.0, b) - kind.potential(0.0, b),
                                   rtol=1e-9)

    def test_level_out_of_range(self):
        state = packet_state()
        for level in (2, -1):
            with pytest.raises(PreconditionError,
                               match=f"level {level} out of range for dim=2"):
                expectation_velocity(state, HamiltonianKind.split(), PARAMS, level)

    def test_an_unpopulated_branch_is_refused_by_name(self):
        # its <dT/dp> would be 0/0; the populated branch still reads
        psi = gaussian_packet(GRID, 0.0, 0.0, 1.0)
        state = make_superposition(GRID, INTERNAL, [1.0, 0.0], psi)
        kind = HamiltonianKind.low_energy()
        with pytest.raises(PreconditionError, match="^branch 1 norm too small for a velocity"):
            expectation_velocity(state, kind, PARAMS, 1)
        assert expectation_velocity(state, kind, PARAMS, 0) == pytest.approx(0.0, abs=1e-12)


def _columns(label, p, internal=INTERNAL, params=PARAMS):
    """(T_i(p), dT_i/dp) of every branch of the named row, each a (dim, N)
    table: the row evaluated once on the ``_branches`` columns."""
    kind, b = HamiltonianKind.from_name(label), _branches(internal, params)
    p = np.asarray(p, dtype=float)
    shape = np.broadcast_shapes((internal.dim, 1), p.shape)
    return (np.broadcast_to(kind.kinetic(p, b), shape),
            np.broadcast_to(kind.velocity(p, b), shape))


class TestBranchKinetic:
    def test_newtonian_rest(self):
        t, _ = _columns("newtonian", [0.0])
        assert np.all(t == 0.0)

    def test_exact_vs_low_energy_frozen_gap(self):
        # p = 0.1 H_r / c: exact = H_r sqrt(1.01), low = 1.005 H_r
        hr = INTERNAL.E0 + INTERNAL.levels[0]
        p = [0.1 * hr / PARAMS.c]
        exact = _columns("exact", p)[0][0, 0]
        low = _columns("low_energy", p)[0][0, 0]
        assert exact == pytest.approx(hr * np.sqrt(1.01), rel=1e-14)
        assert low == pytest.approx(1.005 * hr, rel=1e-14)
        rel_gap = (low - exact) / exact
        assert rel_gap == pytest.approx(1.2376e-5, rel=1e-3)

    def test_split_momentum_terms(self):
        p = np.linspace(-3, 3, 7)
        t, _ = _columns("split", p)
        e0, c = INTERNAL.E0, PARAMS.c
        for i, ei in enumerate(INTERNAL.levels):
            expected = p**2 * c**2 / (2 * e0) - ei * p**2 * c**2 / (2 * e0**2)
            assert np.allclose(t[i], expected, rtol=0, atol=1e-12)

    def test_hierarchy_gap_scales_fourth_power(self):
        hr = INTERNAL.E0
        ps = np.logspace(-3, -1, 9) * hr / PARAMS.c
        exact = _columns("exact", ps)[0][0]
        low = _columns("low_energy", ps)[0][0]
        gap = low - exact
        assert np.all(gap > 0)  # low-energy form overshoots the square root
        slope = np.polyfit(np.log(ps), np.log(gap), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.1)

    def test_velocity_is_momentum_derivative(self):
        p = np.linspace(-3, 3, 13)
        h = 1e-6
        for label in _KINDS:
            _, v = _columns(label, p)
            numeric = (_columns(label, p + h)[0] - _columns(label, p - h)[0]) / (2 * h)
            assert np.allclose(v, numeric, rtol=1e-6, atol=1e-6)

    def test_potentials_carry_rest_terms(self):
        phi, b = PARAMS.potential.values([0.0]), _branches(INTERNAL, PARAMS)
        v_split = HamiltonianKind.split().potential(phi, b)
        v_newt = HamiltonianKind.newtonian().potential(phi, b)
        for i, ei in enumerate(INTERNAL.levels):
            assert v_split[i, 0] == INTERNAL.E0 + ei
            assert v_newt[i, 0] == PARAMS.m * PARAMS.c**2 + ei


def _alias_refused(label, grid, internal, params, dt) -> bool:
    """Whether a plan of one run of the named kind refuses ``dt`` by the
    alias rule."""
    state = CompositeState.create(grid, internal, np.ones((internal.dim, grid.n_points)))
    try:
        _Plan([(state, HamiltonianKind.from_name(label), params)], dt)
    except AliasingError:
        return True
    return False


class TestAliasRule:
    """The rule reads each branch's spread of T over the momentum grid: a
    constant in T, such as low_energy's rest term H_r, is a branch phase
    that commutes with every factor of a step and cannot alias."""

    @settings(max_examples=200, deadline=None)
    @given(case=_kind_cases(), factor=st.sampled_from([0.999, 1.001]))
    def test_every_kind_is_refused_at_pi_over_its_spread(self, case, factor):
        label, grid, internal, params = case
        p = grid.p(params.hbar)
        spread = max(np.ptp(_docstring_branch(label, p, 0.0, internal.E0, ei, params.c,
                                              params.m)[0])
                     for ei in internal.levels)
        dt = factor * np.pi * params.hbar / spread
        assert _alias_refused(label, grid, internal, params, dt) == (factor > 1.0)

    @settings(max_examples=200, deadline=None)
    @given(case=_kind_cases(),
           fraction=st.one_of(st.floats(0.5, 0.99), st.floats(1.01, 2.0)))
    def test_the_rest_term_moves_no_refusal(self, case, fraction):
        # low_energy is dynamical_mass plus H_r on each branch; dt stays 1 %
        # off the limit, clear of the rounding of H_r + T in the table
        _, grid, internal, params = case
        t_table, _ = _tables(HamiltonianKind.dynamical_mass(), grid, internal, params)
        dt = fraction * np.pi * params.hbar / np.max(t_table)
        assert (_alias_refused("low_energy", grid, internal, params, dt)
                == _alias_refused("dynamical_mass", grid, internal, params, dt))


class TestPropagate:
    def test_free_ehrenfest(self):
        state = packet_state(p0=1.0)
        final = propagate(state, HamiltonianKind.newtonian(), PARAMS, 5e-4, 2000)
        assert expectation_x(GRID, final.amplitudes[0]) == pytest.approx(1.0, abs=1e-6)

    def test_uniform_field_momentum_rate(self):
        # oracle: finite differences of measured <p>(t)
        g = 1.0
        params = PhysicalParams(hbar=1.0, c=10.0, E0=100.0,
                                potential=Potential.uniform_field(g))
        state = packet_state(x0=5.0)
        masses = INTERNAL.mass_energies(params.c)
        for kind in (HamiltonianKind.dynamical_mass(), HamiltonianKind.low_energy(),
                     HamiltonianKind.split(), HamiltonianKind.newtonian()):
            times, states = propagate_history(state, kind, params, 5e-4, 1000,
                                              sample_every=250)
            for level in range(2):
                ps = np.array([expectation_p(GRID, s.amplitudes[level], 1.0)
                               for s in states])
                rate = oracles.finite_difference_slope(times, ps)
                expected = -masses[level] * g if kind.name != "newtonian" else -params.m * g
                assert rate == pytest.approx(expected, abs=1e-6)

    def test_unitarity_all_kinds(self):
        state = packet_state(p0=1.0)
        for kind in (HamiltonianKind.exact(), HamiltonianKind.dynamical_mass(),
                     HamiltonianKind.low_energy(), HamiltonianKind.split(),
                     HamiltonianKind.newtonian()):
            final = propagate(state, kind, PARAMS, 5e-4, 200)
            assert abs(final.norm() - 1.0) < 1e-10

    def test_aliasing_precondition(self):
        state = packet_state()
        with pytest.raises(AliasingError):
            propagate(state, HamiltonianKind.newtonian(), PARAMS, 5e-2, 1)

    def test_negative_step_count_refused(self):
        state = packet_state()
        kind = HamiltonianKind.newtonian()
        with pytest.raises(PreconditionError, match="non-negative"):
            propagate(state, kind, PARAMS, 1e-3, -5)
        with pytest.raises(PreconditionError, match="non-negative"):
            propagate_history(state, kind, PARAMS, 1e-3, -4, sample_every=2)

    @pytest.mark.parametrize("steps, sample_every, name, value", [
        pytest.param(10.0, 1, "steps", "10\\.0", id="steps-10.0"),
        pytest.param(2.5, 1, "steps", "2\\.5", id="steps-2.5"),
        pytest.param(10, 2.0, "sample_every", "2\\.0", id="sample_every-2.0")])
    def test_a_non_integer_count_is_refused_by_name(self, steps, sample_every, name, value):
        # not a bare TypeError from range(): exit 3, naming the argument
        state = packet_state()
        kind = HamiltonianKind.newtonian()
        message = rf"^{name} must be an integer, got {value}$"
        with pytest.raises(PreconditionError, match=message):
            propagate_history(state, kind, PARAMS, 1e-3, steps, sample_every)
        if name == "steps":
            with pytest.raises(PreconditionError, match=message):
                propagate(state, kind, PARAMS, 1e-3, steps)

    def test_zero_steps_return_the_state(self):
        state = packet_state()
        assert propagate(state, HamiltonianKind.newtonian(), PARAMS, 1e-3, 0) is state

    @pytest.mark.parametrize("params", [
        PARAMS, PhysicalParams(hbar=1.0, c=10.0, E0=100.0,
                               potential=Potential.uniform_field(1.0))], ids=["free", "field"])
    def test_zero_steps_take_no_fft(self, monkeypatch, params):
        def no_fft(*args, **kwargs):
            raise AssertionError("an FFT ran")

        monkeypatch.setattr(np.fft, "fft", no_fft)
        monkeypatch.setattr(np.fft, "ifft", no_fft)
        state = packet_state()
        assert propagate(state, HamiltonianKind.newtonian(), params, 1e-3, 0) is state
        assert propagate_history(state, HamiltonianKind.newtonian(), params, 1e-3, 0)[1] == [state]

    def test_history_samples_own_read_only_copies(self):
        state = packet_state(p0=1.0)
        kind = HamiltonianKind.low_energy()
        _, states = propagate_history(state, kind, PARAMS, 5e-4, 40, sample_every=20)
        final = propagate(state, kind, PARAMS, 5e-4, 40)
        assert np.array_equal(states[-1].amplitudes, final.amplitudes)
        assert not np.shares_memory(states[1].amplitudes, states[2].amplitudes)
        assert not any(s.amplitudes.flags.writeable for s in states + [final])

    def test_boundary_checked_during_run(self):
        state = packet_state(x0=30.0, p0=4.0)
        with pytest.raises(BoundaryViolationError):
            propagate(state, HamiltonianKind.newtonian(), PARAMS, 1e-3, 4000)

    def test_strang_is_second_order(self):
        grid = GridSpec(-20.0, 20.0, 512)
        xs = np.linspace(-20, 20, 801)
        params = PhysicalParams(hbar=1.0, c=10.0, E0=100.0,
                                potential=Potential.tabulated(xs, 0.05 * xs**2))
        internal = InternalSpace(E0=100.0, levels=(0.0,))
        psi = gaussian_packet(grid, 4.0, 0.0, 1.0)
        state = make_superposition(grid, internal, [1.0], psi)
        total = 2.0

        def terminal(steps):
            return propagate(state, HamiltonianKind.newtonian(), params,
                             total / steps, steps)

        ref = terminal(8000)
        e1 = oracles.l2_distance(grid, terminal(1000).amplitudes, ref.amplitudes)
        e2 = oracles.l2_distance(grid, terminal(2000).amplitudes, ref.amplitudes)
        assert e1 / e2 >= 3.5

    def test_exact_kind_group_velocity(self):
        # relativistic dispersion slows the packet: the displacement rate
        # must equal <p c^2 / sqrt(c^2 p^2 + E0^2)> over the momentum
        # distribution (which free motion conserves)
        from massclock import expectation_velocity

        state = packet_state(internal=InternalSpace(E0=100.0, levels=(0.0,)),
                             x0=-5.0, p0=2.0, sigma=2.0)
        total = 2.0
        final = propagate(state, HamiltonianKind.exact(), PARAMS, 1e-3, 2000)
        moved = expectation_x(GRID, final.amplitudes[0]) - (-5.0)
        v_expected = expectation_velocity(state, HamiltonianKind.exact(), PARAMS, 0)
        assert moved / total == pytest.approx(v_expected, rel=1e-6)
        assert moved / total < 1.99  # visibly below the newtonian p/m = 2

    def test_history_sampling(self):
        state = packet_state()
        times, states = propagate_history(state, HamiltonianKind.newtonian(),
                                          PARAMS, 5e-4, 100, sample_every=20)
        assert len(states) == 6
        assert np.allclose(times, [0.0, 0.01, 0.02, 0.03, 0.04, 0.05])
        with pytest.raises(PreconditionError):
            propagate_history(state, HamiltonianKind.newtonian(), PARAMS,
                              5e-4, 101, sample_every=20)

    def test_history_states_are_snapshots_of_the_step_buffer(self):
        # the step overwrites one buffer in place; every sampled state must
        # keep the amplitudes of its own step while later steps run
        state = packet_state(p0=1.0)
        before = state.amplitudes.copy()
        kind = HamiltonianKind.low_energy()
        _, states = propagate_history(state, kind, PARAMS, 5e-4, 60, sample_every=20)
        assert states[0] is state
        for k, sampled in enumerate(states):
            fresh = propagate(state, kind, PARAMS, 5e-4, 20 * k)
            assert np.array_equal(sampled.amplitudes, fresh.amplitudes)
        assert np.array_equal(state.amplitudes, before)


class TestMomentumBand:
    """The momentum-band rule in the step loop: every propagation reads
    each branch's <p> and sigma_p from the initial spectrum and its drift
    from the V table, and refuses before the first step."""

    GRID = GridSpec(-40.0, 40.0, 256)  # pi hbar / dx = 10.053

    def test_the_public_api_refuses_a_fall_that_leaves_the_momentum_grid(self, no_step):
        # x0 = 5, sigma = 2 under newtonian at g = 4 for T = 3: m g T = 12,
        # and 4 sigma_p = 1; unrefused, the packet wraps around the
        # momentum grid and its <v> reads +8.1 where the fall gives -12
        internal = InternalSpace(E0=100.0, levels=(0.0,))
        state = make_superposition(self.GRID, internal, [1.0],
                                   gaussian_packet(self.GRID, 5.0, 0.0, 2.0))
        params = replace(PARAMS, potential=Potential.uniform_field(4.0))
        message = (r"^run 0, kind newtonian: branch 0: momentum band \[-13\.000, 1\.000\] "
                   r"leaves \+/-pi hbar/dx = \+/-10\.053 of grid\.n_points=256;")
        for call in (propagate, propagate_history):
            with pytest.raises(GridResolutionError, match=message):
                call(state, HamiltonianKind.newtonian(), params, 2.5e-3, 1200)

    @pytest.mark.parametrize("name", sorted(_KINDS))
    def test_each_branch_drifts_by_the_slope_of_its_v_row(self, no_step, name):
        # masses 1 and 4 at g = 1 for T = 3: the heavy branch's band, read
        # from V = M_i Phi under the mass-energy kinds, is [-13, 1]; under
        # newtonian every branch falls with m = 4, so branch 0 leaves first
        internal = internal_space_from_masses([1.0, 4.0], 10.0)
        params = PhysicalParams(c=10.0, E0=internal.E0, potential=Potential.uniform_field(1.0))
        state = make_superposition(self.GRID, internal, [1.0, 1.0],
                                   gaussian_packet(self.GRID, 5.0, 0.0, 2.0))
        branch = 0 if name == "newtonian" else 1
        with pytest.raises(GridResolutionError,
                           match=rf"^run 0, kind {name}: branch {branch}: momentum band "
                                 r"\[-13\.000, 1\.000\] "):
            propagate(state, HamiltonianKind.from_name(name), params, 2.5e-3, 1200)

    def test_a_long_trapped_run_is_refused_though_its_momenta_stay_on_the_grid(
            self, monkeypatch):
        # the rule's known over-refusal under a curved Phi: in the 0.05 x^2
        # trap the drift is taken from the steepest slope of the whole
        # table, |V'| < 2, over the whole run, so T = 25 gives a band of
        # about +/-(2 T + 2) = +/-52 against pi hbar / dx = 40.2, while the
        # packet from x0 = 4 oscillates with |<p>| <= m omega x0 = 1.26
        grid = GridSpec(-20.0, 20.0, 512)
        xs = np.linspace(-20, 20, 801)
        params = PhysicalParams(hbar=1.0, c=10.0, E0=100.0,
                                potential=Potential.tabulated(xs, 0.05 * xs**2))
        state = make_superposition(grid, InternalSpace(E0=100.0, levels=(0.0,)), [1.0],
                                   gaussian_packet(grid, 4.0, 0.0, 1.0))
        run = (state, HamiltonianKind.newtonian(), params, 2.5e-3, 10_000)
        with pytest.raises(GridResolutionError,
                           match=r"momentum band \[-51\.713, 51\.892\] leaves "
                                 r"\+/-pi hbar/dx = \+/-40\.212 "):
            propagate(*run)
        monkeypatch.setattr(dynamics, "_require_band", lambda *args: None)
        _, samples = propagate_history(*run, sample_every=100)
        assert max(abs(expectation_p(grid, s.amplitudes[0], 1.0)) for s in samples) < 1.3

    @pytest.mark.parametrize("potential", [Potential.none(), Potential.uniform_field(1.0)],
                             ids=["none", "uniform"])
    @pytest.mark.parametrize("name", sorted(_KINDS))
    def test_the_band_centre_is_the_propagated_mean_momentum(self, name, potential):
        # the rule's premise: in a V affine in x every kind's momentum
        # distribution only translates, so each branch's propagated <p> at
        # t = 0 and t = T is the rule's band centre, <p> and <p> - V' T.
        # Bound 1e-12; measured <= 3.6e-14 over the ten cases, most of it
        # the round-off of the slope the V table gives (1.1e-14, times T)
        internal = InternalSpace(E0=100.0, levels=(0.0, 10.0))
        params = replace(PARAMS, potential=potential)
        state = make_superposition(self.GRID, internal, [1.0, 1.0],
                                   gaussian_packet(self.GRID, 10.0, 1.0, 2.0))
        kind = HamiltonianKind.from_name(name)
        dt, steps = 5e-3, 600
        plan = _Plan([(state, kind, params)], dt)
        (hbar, _, lows, highs), = plan.bands
        assert lows == pytest.approx(highs, abs=1e-12)  # affine: one slope per branch
        final = propagate(state, kind, params, dt, steps)
        for i, slope in enumerate(highs):
            start = expectation_p(self.GRID, state.amplitudes[i], hbar)
            end = expectation_p(self.GRID, final.amplitudes[i], hbar)
            assert abs(end - (start - slope * dt * steps)) <= 1e-12


def _staged_steps(plan, amps, steps, size=3):
    """``amps`` after ``steps`` steps of ``_Plan.advance`` as ``_evolve``
    runs it, in batches of ``size`` slots (the last one partial), with no
    checks."""
    batch, spectra = np.empty((2, size) + amps.shape, dtype=complex)
    batch[-1] = amps
    np.fft.fft(amps, axis=1, out=spectra[-1])
    for done in range(0, steps, size):
        count = min(size, steps - done)
        plan.advance(batch, spectra, count)
    return batch[count - 1]


class TestStrangStep:
    INTERNAL3 = InternalSpace(E0=100.0, levels=(-3.0, 0.0, 7.0))

    @pytest.mark.parametrize("label", list(_KINDS))
    def test_in_place_step_equals_the_out_of_place_oracle(self, label):
        params = PhysicalParams(hbar=1.0, c=10.0, E0=100.0,
                                potential=Potential.uniform_field(0.7))
        state = packet_state(internal=self.INTERNAL3, p0=1.0)
        plan = _Plan([(state, HamiltonianKind.from_name(label), params)], 5e-4)
        amps = np.array(state.amplitudes)
        expected = amps.copy()
        for _ in range(10):
            expected = oracles.strang_step(expected, plan.exp_v_half, plan.exp_t)
            _strang_step(amps, amps, plan.exp_v_half, plan.exp_t, False)
            assert np.array_equal(amps, expected)

    @settings(max_examples=200, deadline=None)
    @given(case=_kind_cases(), fraction=st.floats(0.01, 0.99), steps=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_step_is_unitary(self, case, fraction, steps, seed):
        # random amplitudes, not packets: unitarity holds for every vector,
        # so no clearance rule narrows the inputs.  Both paths are stepped:
        # ``_strang_step`` in x space, and ``_Plan.advance`` as ``_evolve``
        # runs it, which steps a free run (here every run under
        # Potential.none()) on its spectrum
        label, grid, internal, params = case
        kind = HamiltonianKind.from_name(label)
        t_table, _ = _tables(kind, grid, internal, params)
        dt = fraction * np.pi * params.hbar / np.max(np.abs(t_table))  # below the alias limit
        rng = np.random.default_rng(seed)
        shape = (internal.dim, grid.n_points)
        psi, phi = (CompositeState.create(grid, internal, rng.standard_normal(shape)
                                          + 1j * rng.standard_normal(shape))
                    for _ in range(2))
        plan = _Plan([(psi, kind, params)], dt)
        assert plan.blocks == [(slice(0, internal.dim), params.potential.kind == "none")]
        a, b = np.array(psi.amplitudes), np.array(phi.amplitudes)
        for _ in range(steps):
            for amps in (a, b):
                _strang_step(amps, amps, plan.exp_v_half, plan.exp_t, False)
        staged_a, staged_b = (_staged_steps(plan, s.amplitudes, steps) for s in (psi, phi))
        for a, b in ((a, b), (staged_a, staged_b)):
            assert abs(np.sum(a.real**2 + a.imag**2) * grid.dx - 1.0) <= 1e-12
            evolved = overlap(psi.with_amplitudes(a), phi.with_amplitudes(b))
            assert abs(evolved - overlap(psi, phi)) <= 1e-12


class TestExactFieldSteps:
    """In a uniform field g != 0 a quadratic kind's Strang step errs by one
    constant per branch, which the plan's V half-step phase adds back;
    every other run keeps plain Strang."""

    GRID = GridSpec(-40.0, 40.0, 256)
    FIELD = replace(PARAMS, potential=Potential.uniform_field(1.0))
    QUADRATIC = ["dynamical_mass", "low_energy", "split", "newtonian"]

    def _distances(self, label, dt=1e-2, steps=100):
        """Distances of the plan's steps and of plain Strang steps at dt
        to plain Strang at dt / 8, after ``steps`` steps of dt."""
        state = packet_state(self.GRID, sigma=2.0)  # two levels, 0 and 10
        kind = HamiltonianKind.from_name(label)
        t_table, v_table = _tables(kind, self.GRID, INTERNAL, self.FIELD)

        def plain(h, n):
            amps = state.amplitudes
            v_half, t = np.exp(-0.5j * v_table * h), np.exp(-1j * t_table * h)
            for _ in range(n):
                amps = oracles.strang_step(amps, v_half, t)
            return amps

        fine = plain(dt / 8, 8 * steps)
        planned = propagate(state, kind, self.FIELD, dt, steps).amplitudes
        return (oracles.l2_distance(self.GRID, planned, fine),
                oracles.l2_distance(self.GRID, plain(dt, steps), fine))

    @pytest.mark.parametrize("label", QUADRATIC)
    def test_corrected_steps_land_on_the_fine_plain_run(self, label):
        # plain Strang at dt / 8 keeps 1/64 of the error at dt, so exact
        # steps land within about 1/64 of plain steps' distance to it
        planned, plain = self._distances(label)
        assert planned <= plain / 20

    @pytest.mark.parametrize("defect", ["flipped", "missing"])
    @pytest.mark.parametrize("label", QUADRATIC)
    def test_a_wrong_correction_misses_the_fine_plain_run(self, monkeypatch, label, defect):
        real = _strang_phase
        wrong = {"flipped": lambda *args: np.conj(real(*args)), "missing": lambda *args: None}
        monkeypatch.setattr(dynamics, "_strang_phase", wrong[defect])
        planned, plain = self._distances(label)
        assert planned > plain / 20

    @pytest.mark.parametrize("label, potential, free", [
        ("exact", Potential.uniform_field(1.0), False),
        ("newtonian", Potential.tabulated([-40.0, 40.0], [-40.0, 40.0]), False),
        ("split", Potential.none(), True),
        ("low_energy", Potential.uniform_field(0.0), True),
    ], ids=["exact-field", "tabulated-field", "none", "zero-field"])
    def test_other_runs_keep_their_plain_tables_bit_for_bit(self, label, potential, free):
        params = replace(PARAMS, potential=potential)
        kind = HamiltonianKind.from_name(label)
        assert _strang_phase(kind, INTERNAL, params, 1e-2) is None
        plan = _Plan([(packet_state(self.GRID, sigma=2.0), kind, params)], 1e-2)
        _, v_table = _tables(kind, self.GRID, INTERNAL, params)
        assert plan.exp_v_half.tobytes() == np.exp(-0.5j * v_table * 1e-2).tobytes()
        assert plan.blocks == [(slice(0, 2), free)]


@st.composite
def _free_cases(draw):
    """A ``_kind_cases`` draw whose potential is one of the free ones:
    none, a zero field or a constant table."""
    label, grid, internal, params = draw(_kind_cases())
    potential = draw(st.sampled_from([
        Potential.none(), Potential.uniform_field(0.0),
        Potential.tabulated([grid.x_min, 0.0, 1.0], [0.4, 0.4, 0.4])]))
    return label, grid, internal, replace(params, potential=potential)


def _free_path_gap(case, fraction, steps, seed):
    """The free path's gap to the x-space ``oracles.strang_step`` after
    ``steps`` steps of random amplitudes, relative to their norm, and the
    round-off bound it must keep.

    Per step the x-space path makes three elementwise complex products,
    each off by at most sqrt(2) gamma_2 < 3u (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 3.6), an FFT and an
    inverse FFT, each off by at most log2(N) eta with eta = mu +
    gamma_4 (sqrt 2 + mu) < 7u for twiddles good to mu = u (Thm. 24.2),
    and the 1/N scaling (u).  The free path makes three products per step
    and one transform each way in all.  Both steps are unitary, so the
    errors add: at most (steps + 1) (14 log2(N) + 18) u.
    """
    label, grid, internal, params = case
    kind = HamiltonianKind.from_name(label)
    t_table, _ = _tables(kind, grid, internal, params)
    dt = fraction * np.pi * params.hbar / np.max(np.abs(t_table))
    rng = np.random.default_rng(seed)
    shape = (internal.dim, grid.n_points)
    state = CompositeState.create(grid, internal, rng.standard_normal(shape)
                                  + 1j * rng.standard_normal(shape))
    plan = _Plan([(state, kind, params)], dt)
    assert plan.blocks == [(slice(0, internal.dim), True)]
    amps = _staged_steps(plan, state.amplitudes, steps)
    expected = np.array(state.amplitudes)
    for _ in range(steps):
        expected = oracles.strang_step(expected, plan.exp_v_half, plan.exp_t)
    gap = np.linalg.norm(amps - expected) / np.linalg.norm(expected)
    return gap, (steps + 1) * (14 * math.log2(grid.n_points) + 18) * 2.0**-53


class TestFreeRuns:
    """A run whose V half-step table is constant along x is stepped on its
    spectrum, which V commutes with: the same Strang steps as in x space,
    up to round-off, with the per-step check on the x-space buffer."""

    @settings(max_examples=200, deadline=None)
    @given(case=_free_cases(), fraction=st.floats(0.01, 0.99), steps=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_the_free_path_matches_the_x_space_step(self, case, fraction, steps, seed):
        gap, bound = _free_path_gap(case, fraction, steps, seed)
        assert gap <= bound

    @pytest.mark.parametrize("label", ["split", "newtonian"])
    def test_a_free_step_without_a_v_half_kick_fails_the_path_match(self, monkeypatch,
                                                                     label):
        # under split and newtonian a free run's V is its rest term, a
        # phase only this comparison reads
        def without_closing_kick(out, previous, exp_v_half, exp_t, free):
            assert free
            _kernels.phase_multiply(out, exp_v_half, previous)
            _kernels.phase_multiply(out, exp_t)

        monkeypatch.setattr(dynamics, "_strang_step", without_closing_kick)
        grid = GridSpec(-20.0, 20.0, 64)
        for potential in (Potential.none(), Potential.uniform_field(0.0)):
            case = (label, grid, INTERNAL, replace(PARAMS, potential=potential))
            gap, bound = _free_path_gap(case, 0.5, 3, 7)
            assert gap > 1e3 * bound

    def test_free_and_field_runs_step_in_contiguous_blocks(self):
        field = replace(PARAMS, potential=Potential.uniform_field(0.7))
        free = [replace(PARAMS, potential=potential) for potential in (
            Potential.none(), Potential.uniform_field(0.0),
            Potential.tabulated([-40.0, 40.0], [0.3, 0.3]))]
        state = packet_state()
        runs = [(state, HamiltonianKind.split(), params)
                for params in (free[0], free[1], field, field, free[2])]
        assert _Plan(runs, 1e-3).blocks == [(slice(0, 4), True), (slice(4, 8), False),
                                            (slice(8, 10), True)]

    def test_a_free_packet_at_the_edge_is_refused_as_on_the_x_space_path(self):
        # the check reads the x-space buffer after every step on both paths:
        # the same refusal (exit 3), at the same step, with the same text
        run = (packet_state(x0=30.0, p0=4.0), HamiltonianKind.newtonian(), PARAMS)
        plan = _Plan([run], 1e-3)
        assert plan.blocks == [(slice(0, 2), True)]
        amps = np.array(run[0].amplitudes)
        with pytest.raises(BoundaryViolationError) as x_space:
            for k in range(1, 4001):
                _strang_step(amps, amps, plan.exp_v_half, plan.exp_t, False)
                next(_check_steps(plan.tables, amps[None], k, plan.rows))
        with pytest.raises(BoundaryViolationError) as free:
            propagate(*run, 1e-3, 4000)
        assert str(free.value) == str(x_space.value)
        assert str(free.value).startswith("step 1272: branch 0: ")


def _v_half(v_table, dt, run):
    """The V half-step table of ``run`` = (state, kind, params) from its
    ``_tables`` row: exp(-i V dt / 2 hbar), times the per-branch phase
    ``_strang_phase`` where it applies."""
    state, kind, params = run
    v_half = np.exp(-0.5j * v_table * dt / params.hbar)
    phase = _strang_phase(kind, state.internal, params, dt)
    return v_half if phase is None else v_half * phase


@st.composite
def _stacked_cases(draw):
    """One grid and 1-4 runs on it, each with its own kind, dim 1-3, hbar, c,
    rest energy and potential; a centred packet of width L/32 stays clear of
    the seam for the few alias-limited steps drawn."""
    grid = GridSpec(draw(st.floats(-50.0, -5.0)), draw(st.floats(5.0, 50.0)),
                    2 ** draw(st.integers(7, 8)))
    centre = 0.5 * (grid.x_min + grid.x_max)
    psi = gaussian_packet(grid, centre, 0.0, grid.length / 32.0)
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        e0 = draw(st.floats(1.0, 1e3))
        fractions = draw(st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=3))
        internal = InternalSpace(E0=e0, levels=sorted(f * e0 for f in fractions))
        potential = draw(st.sampled_from([
            Potential.none(), Potential.uniform_field(0.7),
            Potential.tabulated([grid.x_min, centre, grid.x_max], [0.3, -1.2, 2.0])]))
        params = PhysicalParams(hbar=draw(st.floats(0.1, 5.0)),
                                c=draw(st.floats(0.5, 50.0)), E0=e0, potential=potential)
        weights = draw(st.lists(st.floats(0.1, 1.0), min_size=internal.dim,
                                max_size=internal.dim))
        state = make_superposition(grid, internal, weights, psi)
        kind = HamiltonianKind.from_name(draw(st.sampled_from(list(_KINDS))))
        runs.append((state, kind, params))
    return grid, runs


@st.composite
def _checked_stacks(draw):
    """One grid, 1-4 runs on it with dim 1-3 and some empty branches, each
    run clear and unit-norm, pushed past clearance (packet centre within
    3.5 sigma of an edge) or carrying a 7e-11 norm drift; the stacked
    buffer and the plan the step check reads it with."""
    grid = GridSpec(draw(st.floats(-50.0, -5.0)), draw(st.floats(5.0, 50.0)),
                    2 ** draw(st.integers(6, 9)))
    x = grid.x()
    runs, parts = [], []
    for _ in range(draw(st.integers(1, 4))):
        dim = draw(st.integers(1, 3))
        internal = InternalSpace(E0=100.0, levels=(0.0, 5.0, 10.0)[:dim])
        weights = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=dim,
                                max_size=dim).filter(any))
        sigma = grid.length * draw(st.floats(1 / 40, 1 / 16))
        mode = draw(st.sampled_from(["clear", "clear", "clear", "edge", "drift"]))
        if mode == "edge":
            edge = draw(st.sampled_from([grid.x_min, grid.x_max]))
            x0 = edge + np.sign(-edge) * sigma * draw(st.floats(0.0, 3.5))
        else:
            x0 = 0.5 * (grid.x_min + grid.x_max) + sigma * draw(st.floats(-2.0, 2.0))
        psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2))
        state = CompositeState.create(grid, internal, np.outer(weights, psi))
        runs.append((state, HamiltonianKind.newtonian(), PARAMS))
        parts.append(state.amplitudes * (1.0 + 7e-11 if mode == "drift" else 1.0))
    return _Plan(runs, 1e-9), np.concatenate(parts)


class TestStackedRuns:
    """_evolve advances independent runs as one buffer with the bits of
    separate runs."""

    FIELD = PhysicalParams(hbar=1.0, c=10.0, E0=100.0, potential=Potential.uniform_field(1.0))

    @settings(max_examples=150, deadline=None)
    @given(case=_stacked_cases(), fraction=st.floats(0.01, 0.9),
           sample_every=st.integers(1, 4), samples=st.integers(1, 3))
    def test_every_sample_matches_separate_runs_bit_for_bit(self, case, fraction,
                                                            sample_every, samples):
        grid, runs = case
        tables = []
        for state, kind, params in runs:
            t_table, v_table = _tables(kind, grid, state.internal, params)
            tables.append((t_table, v_table, params.hbar))
        # one dt below every run's alias limit
        dt = fraction * min(np.pi * hbar / np.max(np.abs(t)) for t, _, hbar in tables)
        steps = sample_every * samples
        refused = oracles.per_run_band(grid, [state.amplitudes for state, _, _ in runs],
                                       [v for _, v, _ in tables],
                                       [hbar for _, _, hbar in tables], steps * dt)
        if refused is not None:
            # a run whose momenta would leave the grid is refused before
            # the first sample, by run, kind and branch, with its band
            r, i, lo, hi = refused
            with pytest.raises(GridResolutionError,
                               match=rf"^run {r}, kind {runs[r][1].name}: branch {i}: "
                                     rf"momentum band \[{lo:.3f}, {hi:.3f}\] leaves "):
                next(_evolve(runs, dt, steps, sample_every))
            return
        expected = oracles.per_run_strang(
            [state.amplitudes for state, _, _ in runs],
            [(_v_half(v, dt, run), np.exp(-1j * t * dt / hbar))
             for (t, v, hbar), run in zip(tables, runs)], steps, sample_every)
        got = 0
        for k, amps, totals in _evolve(runs, dt, steps, sample_every):
            assert k == got * sample_every
            lo = 0
            for r, own in enumerate(expected[got]):
                assert amps[lo:lo + own.shape[0]].tobytes() == own.tobytes()
                lo += own.shape[0]
                if totals is not None:
                    assert totals[r] == pytest.approx(
                        np.sum(np.abs(own) ** 2) * grid.dx, abs=1e-13)
            assert lo == amps.shape[0] and (totals is None) == (k == 0)
            got += 1
        assert got == samples + 1

    @settings(max_examples=300, deadline=None)
    @given(case=_checked_stacks(), step_no=st.integers(1, 10**6))
    def test_check_refuses_what_the_per_run_oracle_refused(self, case, step_no):
        # the same refusal (class and text) as the run-by-run loop, read from
        # the same moments; on a passing stack each total is the run's |psi|^2 dx
        plan, amps = case
        moments = _kernels.branch_moments(amps, plan.tables.basis).T.tolist()
        try:
            expected = oracles.per_run_check(plan.tables.grid, moments, plan.rows, step_no)
        except (PreconditionError, BoundaryViolationError) as refusal:
            with pytest.raises(type(refusal)) as got:
                next(_check_steps(plan.tables, amps[None], step_no, plan.rows))
            assert type(got.value) is type(refusal) and str(got.value) == str(refusal)
            return
        (totals,) = _check_steps(plan.tables, amps[None], step_no, plan.rows)
        assert totals == expected
        # Each total is a BLAS dot product of the run's 2N float squares per
        # branch (the bits of ``squares`` below) with dx, then a Python sum
        # over its dim branches.  In any order, a dot product of k terms errs
        # by at most gamma_k = k u / (1 - k u), u = 2^-53, times the sum of
        # its |terms|, and a sum of dim terms by gamma_(dim - 1) (Higham,
        # Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.1);
        # the fsum reference is correctly rounded before its one product
        # with dx, so it errs by at most gamma_2.  Every term is >= 0, so
        # against the exact sum S both gaps add up to at most
        # gamma_(2N + dim + 1) S, with S <= reference / (1 - gamma_2).
        u = 2.0**-53
        for total, rows in zip(totals, plan.rows):
            squares = amps[rows].view(float) ** 2
            reference = math.fsum(squares.ravel()) * plan.tables.grid.dx
            n = squares.shape[1] + len(squares) + 1
            bound = n * u / (1 - n * u) * reference / (1 - 2 * u / (1 - 2 * u))
            assert abs(total - reference) <= bound

    def test_in_flight_reads_equal_the_history_readouts_bit_for_bit(self):
        state = packet_state(x0=5.0)
        kinds = [HamiltonianKind.from_name(k)
                 for k in ("low_energy", "split", "dynamical_mass", "newtonian")]
        runs = [(state, kind, self.FIELD) for kind in kinds]
        velocity_table = _velocity_table(runs)
        histories = [propagate_history(state, kind, self.FIELD, 5e-4, 60, sample_every=20)[1]
                     for kind in kinds]
        for n, (_, amps, _) in enumerate(_evolve(runs, 5e-4, 60, 20)):
            velocities = _read_velocities(amps, velocity_table)
            overlaps = _overlaps(amps[0::2], amps[1::2], GRID.dx)
            for r, kind in enumerate(kinds):
                sample = histories[r][n]
                assert overlaps[r] == sample.branch_overlap(0, 1)
                for level in range(2):
                    assert velocities[2 * r + level] == expectation_velocity(
                        sample, kind, self.FIELD, level)

    def test_no_runs_yield_nothing(self):
        assert list(_evolve([], 1e-3, 10, 5)) == []

    def test_runs_on_different_grids_are_refused(self):
        other = packet_state(GridSpec(-30.0, 30.0, 1024))
        runs = [(packet_state(), HamiltonianKind.newtonian(), PARAMS),
                (other, HamiltonianKind.newtonian(), PARAMS)]
        with pytest.raises(IncompatibleSpacesError, match="share one grid"):
            next(_evolve(runs, 1e-3, 1, 1))

    def test_each_run_checks_its_own_internal_space(self):
        runs = [(packet_state(), HamiltonianKind.newtonian(), PARAMS),
                (packet_state(), HamiltonianKind.newtonian(), PhysicalParams(E0=90.0))]
        with pytest.raises(IncompatibleSpacesError, match="E0=90.0"):
            next(_evolve(runs, 1e-3, 1, 1))

    @pytest.mark.parametrize("failing, dt, steps, error, message", [
        ((packet_state(x0=30.0, p0=4.0), HamiltonianKind.newtonian(), PARAMS),
         1e-3, 4000, BoundaryViolationError,
         "step 1272: branch 0: <x>=35.086, 4.0 sigma_x=4.921 leaves [-40.0, 40.0]"),
        ((packet_state(), HamiltonianKind.newtonian(), PARAMS), 5e-2, 1, AliasingError,
         "kinetic phase spread per step dt*(max T - min T)/hbar = 40.426 >= pi; "
         "reduce dt or coarsen the momentum grid"),
        ((packet_state(), HamiltonianKind.newtonian(), PhysicalParams(E0=90.0)),
         1e-3, 1, IncompatibleSpacesError,
         "PhysicalParams.E0=90.0 != InternalSpace.E0=100.0; both must hold the same "
         "stored number"),
    ], ids=["clearance", "alias", "internal"])
    def test_a_failing_run_fails_alone_and_in_a_stack(self, failing, dt, steps, error,
                                                     message):
        # alone, the message is word for word the one a single propagation
        # always gave; second in a stack, behind a heavy newtonian run that
        # passes every rule, the same rule fires with its class
        with pytest.raises(error) as alone:
            propagate(*failing, dt, steps)
        assert str(alone.value) == message
        benign = (packet_state(), HamiltonianKind.newtonian(),
                      PhysicalParams(hbar=1.0, c=1.0, E0=100.0))
        with pytest.raises(error, match=re.escape(message.split(":")[0].split(";")[0])):
            for _ in _evolve([benign, failing], dt, steps, steps):
                pass


class TestStepBatches:
    """_evolve steps B = ``_BATCH_BYTES`` / buffer bytes steps into one
    batch, then takes one inverse FFT per free block and one moments pass
    over the batch; every step keeps its bits and its check."""

    GRID = GridSpec(-20.0, 20.0, 256)
    FIELD = replace(PARAMS, potential=Potential.uniform_field(0.7))
    STACKS = {
        "free": [(PARAMS, "newtonian"), (PARAMS, "low_energy")],
        "field": [(FIELD, "split"), (FIELD, "exact")],
        "mixed": [(PARAMS, "split"), (FIELD, "newtonian"), (FIELD, "low_energy"),
                  (PARAMS, "dynamical_mass")],
    }

    @pytest.mark.parametrize("slots", [None, 1, 4], ids=["shipped", "one-slot", "four-slot"])
    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_batch_edges_match_separate_runs_bit_for_bit(self, monkeypatch, stack, slots):
        # at least three batches, the last one partial, sampled at a stride
        # that does not divide the batch; the final-only loop is the sweep's
        state = packet_state(self.GRID, x0=-3.0, p0=1.0)
        runs = [(state, HamiltonianKind.from_name(name), params)
                for params, name in self.STACKS[stack]]
        buffer_bytes = 16 * sum(s.amplitudes.size for s, _, _ in runs)
        if slots is not None:
            monkeypatch.setattr(dynamics, "_BATCH_BYTES", slots * buffer_bytes)
        size = max(dynamics._BATCH_BYTES // buffer_bytes, 1)
        sample_every = next(n for n in (3, 5, 7) if size == 1 or size % n)
        steps = sample_every * (3 * size // sample_every + 1)
        if steps % size == 0:
            steps += sample_every
        assert steps > 3 * size and (steps % size or size == 1)
        dt = 1e-3
        tables = [_tables(kind, self.GRID, s.internal, params) for s, kind, params in runs]
        expected = oracles.per_run_strang(
            [s.amplitudes for s, _, _ in runs],
            [(_v_half(v, dt, run), np.exp(-1j * t * dt / run[2].hbar))
             for (t, v), run in zip(tables, runs)], steps, sample_every)
        samples = [(k, np.concatenate(expected[k // sample_every]).tobytes())
                   for k in range(0, steps + 1, sample_every)]
        multiplies, multiply = [], _kernels.phase_multiply
        monkeypatch.setattr(_kernels, "phase_multiply",
                            lambda *args: multiplies.append(multiply(*args)))
        got = [(k, amps.tobytes()) for k, amps, _ in _evolve(runs, dt, steps, sample_every)]
        assert got == samples
        # three phase multiplies per block per step: no step past the last
        assert len(multiplies) == 3 * steps * len(_Plan(runs, dt).blocks)
        *_, (k, final, totals) = _evolve(runs, dt, steps, steps)
        assert (k, final.tobytes()) == samples[-1] and len(totals) == len(runs)

    EDGE = (packet_state(x0=30.0, p0=4.0), HamiltonianKind.newtonian(), PARAMS)
    EDGE_REFUSAL = "step 1272: branch 0: <x>=35.086, 4.0 sigma_x=4.921 leaves [-40.0, 40.0]"

    @pytest.mark.parametrize("ahead", [None, "free", "field"],
                             ids=["alone", "second", "behind-a-field-block"])
    def test_a_refusal_mid_batch_follows_every_earlier_sample(self, monkeypatch, ahead):
        # under a 512 KB budget step 1272 lies inside its batch (slot 7 of
        # slots 0-15 alone, slot 1 of slots 0-9 behind a one-row run): the
        # samples up to step 1271 arrive, the last one with its own bits,
        # then the refusal with its usual text.  Behind a one-row run in a
        # uniform field, a block of its own stepped in x space, the refusal
        # comes from the later of two blocks
        monkeypatch.setattr(dynamics, "_BATCH_BYTES", 512 * 1024)
        runs = [self.EDGE]
        if ahead is not None:
            one_level = InternalSpace(E0=100.0, levels=(0.0,))
            params, blocks = {
                "free": (PhysicalParams(hbar=1.0, c=1.0, E0=100.0), [True]),
                "field": (self.FIELD, [False, True]),
            }[ahead]
            runs.insert(0, (packet_state(internal=one_level), HamiltonianKind.newtonian(),
                            params))
            assert [free for _, free in _Plan(runs, 1e-3).blocks] == blocks
        size = dynamics._BATCH_BYTES // (16 * sum(s.amplitudes.size for s, _, _ in runs))
        assert 1272 % size not in (0, 1)
        seen, last = [], None
        with pytest.raises(BoundaryViolationError) as refusal:
            for k, amps, _ in _evolve(runs, 1e-3, 4000, 1):
                seen.append(k)
                last = amps.copy()
        assert str(refusal.value) == self.EDGE_REFUSAL
        assert seen == list(range(1272))
        assert last[-2:].tobytes() == propagate(*self.EDGE, 1e-3, 1271).amplitudes.tobytes()
        if ahead is not None:
            alone = propagate(*runs[0], 1e-3, 1271).amplitudes
            assert last[:-2].tobytes() == alone.tobytes()

    def test_results_own_their_arrays_not_the_batch(self):
        # a returned state or sample that viewed a slot would keep the whole
        # (B, rows, N) batch alive
        run = (packet_state(self.GRID), HamiltonianKind.newtonian(), PARAMS)
        assert dynamics._BATCH_BYTES // run[0].amplitudes.nbytes > 1
        final = propagate(*run, 1e-3, 50)
        _, history = propagate_history(*run, 1e-3, 50, sample_every=10)
        for amps in [final.amplitudes] + [s.amplitudes for s in history[1:]]:
            assert amps.base is None and amps.shape == run[0].amplitudes.shape
            assert not amps.flags.writeable


class TestInternalFrequency:
    def test_rest_frame(self):
        assert internal_frequency(1.0, 0.0, 0.0, PARAMS) == 1.0

    def test_motion_and_potential(self):
        assert internal_frequency(1.0, 0.2 * PARAMS.c, 0.0, PARAMS) == pytest.approx(0.98)
        assert internal_frequency(1.0, 0.0, 0.01 * PARAMS.c**2, PARAMS) == pytest.approx(1.01)

    def test_superluminal_rejected(self):
        with pytest.raises(SuperluminalError):
            internal_frequency(1.0, PARAMS.c, 0.0, PARAMS)

    def test_wavepacket_rate_matches_formula_with_spread_correction(self):
        # ride at v = 0.2c under the low-energy form; the fitted rate must
        # match omega0 (1 - <v^2>/2c^2) with <v^2> = v^2 + sigma_v^2
        from massclock.experiments import wavepacket_spread_correction

        grid = GridSpec(-40.0, 40.0, 2048)
        delta_e = 0.5
        internal = InternalSpace(E0=100.0, levels=(0.0, delta_e))
        params = PhysicalParams(hbar=1.0, c=10.0, E0=100.0)
        sigma, v = 2.0, 0.2 * params.c
        psi = gaussian_packet(grid, -5.0, params.m * v, sigma)
        state = make_superposition(grid, internal, np.full(2, 2**-0.5), psi)
        times, states = propagate_history(state, HamiltonianKind.low_energy(),
                                          params, 5e-4, 4000, sample_every=10)
        omega0 = delta_e / params.hbar
        shift = (fit_clock_rate(times, states) - omega0) / omega0
        predicted = -0.5 * v**2 / params.c**2 + wavepacket_spread_correction(
            sigma, params.m, params.c)
        assert shift == pytest.approx(predicted, rel=2e-2)

    def test_gravitational_blueshift_wavepacket(self):
        from massclock.experiments import regression_shift_prediction

        grid = GridSpec(-40.0, 40.0, 2048)
        delta_e = 0.5
        internal = InternalSpace(E0=100.0, levels=(0.0, delta_e))
        g, h = 0.5, 2.0  # g h / c^2 = 0.01
        params = PhysicalParams(hbar=1.0, c=10.0, E0=100.0,
                                potential=Potential.uniform_field(g))
        psi = gaussian_packet(grid, h, 0.0, 2.0)
        state = make_superposition(grid, internal, np.full(2, 2**-0.5), psi)
        times, states = propagate_history(state, HamiltonianKind.low_energy(),
                                          params, 5e-4, 2000, sample_every=10)
        omega0 = delta_e / params.hbar
        shift = (fit_clock_rate(times, states) - omega0) / omega0
        predicted = regression_shift_prediction(times, 0.0, g, h, 2.0,
                                                params.m, params.c)
        assert shift == pytest.approx(predicted, rel=2e-2)
        assert shift > 5e-3  # blueshift dominates the short fall

    def test_clock_rate_universality_newtonian(self):
        for p0, g in ((0.0, 0.0), (1.0, 1.0)):
            params = PhysicalParams(hbar=1.0, c=10.0, E0=100.0,
                                    potential=Potential.uniform_field(g))
            state = packet_state(x0=3.0, p0=p0, sigma=2.0)
            times, states = propagate_history(state, HamiltonianKind.newtonian(),
                                              params, 5e-4, 2000, sample_every=10)
            omega0 = (INTERNAL.levels[1] - INTERNAL.levels[0]) / params.hbar
            rate = fit_clock_rate(times, states)
            assert abs(rate - omega0) / omega0 < 1e-8


class TestAccumulatePhase:
    def test_accumulate_phase_quadrature(self):
        # constant integrand: exact at every sample
        omega = np.full(101, 2.5)
        phi = _kernels.accumulate_phase(omega, 0.01)
        assert np.allclose(phi, 2.5 * 0.01 * np.arange(101), rtol=1e-14)
        # smooth integrand: fourth-order convergence of the endpoint value
        def run(n):
            t = np.linspace(0.0, 1.0, n + 1)
            return _kernels.accumulate_phase(np.sin(t), 1.0 / n)[-1]

        exact = 1.0 - np.cos(1.0)
        e1, e2 = abs(run(50) - exact), abs(run(100) - exact)
        assert e1 / e2 > 12.0  # ~16 for a fourth-order rule

    @pytest.mark.parametrize("sizes", [range(301), (10_000, 10_001, 100_000, 100_001)],
                             ids=["n0-300", "large"])
    def test_bit_identical_to_sequential_loop(self, sizes):
        rng = np.random.default_rng(20190609)
        for n in sizes:
            omega = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
            dt = float(rng.uniform(1e-6, 1.0))
            assert np.array_equal(_kernels.accumulate_phase(omega, dt),
                                  oracles.sequential_simpson(omega, dt)), n


class TestTrajectoryCache:
    @pytest.fixture
    def quadratures(self, monkeypatch):
        calls = []
        original = _kernels.accumulate_phase

        def counting(omega, dt):
            calls.append(len(omega))
            return original(omega, dt)

        monkeypatch.setattr(_kernels, "accumulate_phase", counting)
        return calls

    @pytest.mark.parametrize("exact_velocity", [True, False],
                             ids=["stored", "central_difference"])
    def test_at_integrates_once_and_matches_fresh(self, quadratures, exact_velocity):
        t = np.linspace(0.0, 1.0, 201)
        traj = (sinusoidal_trajectory(0.5, 1.0, 201) if exact_velocity
                else Trajectory(times=t, xi=0.5 * np.sin(2 * np.pi * t)))
        rng = np.random.default_rng(7)
        idx = rng.integers(0, t.size - 1, size=1000)
        queries = np.where(np.arange(1000) % 2 == 0, t[idx],
                           t[idx] + rng.uniform(0.1, 0.9, size=1000) * traj.dt)
        got = [traj.at(q) for q in queries]
        assert len(quadratures) <= 1

        def fresh():
            return Trajectory(times=traj.times, xi=traj.xi, closed=traj.closed,
                              xi_dot=traj.xi_dot, xi_ddot=traj.xi_ddot)

        assert got == [fresh().at(q) for q in queries]
        assert np.array_equal(traj.kinetic_integral(), oracles.sequential_simpson(
            0.5 * fresh().velocity() ** 2, traj.dt))

    def test_cached_samples_are_read_only(self):
        t = np.linspace(0.0, 1.0, 21)
        for traj in (sinusoidal_trajectory(0.5, 1.0, 21),
                     Trajectory(times=t, xi=np.sin(t))):
            before = traj.at(0.5)
            with pytest.raises(ValueError):
                traj.velocity()[10] = 1.0
            with pytest.raises(ValueError):
                traj.kinetic_integral()[10] = 1.0
            assert traj.at(0.5) == before


class TestTrajectory:
    def test_validation(self):
        with pytest.raises(TrajectoryError):
            Trajectory(times=np.array([0.0, 1.0, 1.5]), xi=np.zeros(3))
        with pytest.raises(TrajectoryError):
            Trajectory(times=np.array([0.0, 1.0]), xi=np.zeros(2))
        with pytest.raises(TrajectoryError):
            Trajectory(times=np.linspace(0, 1, 5), xi=np.array([0.1, 0, 0, 0, 0]),
                       closed=True)

    @pytest.mark.parametrize("position", [0, 1, 3], ids=["first", "middle", "last"])
    def test_a_nan_time_is_refused(self, position):
        times = np.arange(4.0)
        times[position] = np.nan
        with pytest.raises(TrajectoryError, match="uniform and increasing"):
            Trajectory(times=times, xi=np.zeros(4))
        with pytest.raises(TrajectoryError, match="uniform and increasing"):
            semiclassical_clock_phases(times, np.zeros(4), np.zeros(4), 1.0, PARAMS)

    def test_central_difference_velocity(self):
        t = np.linspace(0.0, 1.0, 201)
        traj = Trajectory(times=t, xi=np.sin(2 * np.pi * t))
        exact = 2 * np.pi * np.cos(2 * np.pi * t)
        assert np.max(np.abs(traj.velocity() - exact)) < 5e-3
        exact_acc = -(2 * np.pi) ** 2 * np.sin(2 * np.pi * t)
        assert np.max(np.abs(traj.acceleration() - exact_acc)) < 1e-1

    def test_acceleration_of_three_samples_refused(self):
        # the one-sided end formulas read four samples
        t = np.array([0.0, 0.5, 1.0])
        traj = Trajectory(times=t, xi=t**2)
        with pytest.raises(TrajectoryError, match="at least 4 samples"):
            traj.acceleration()
        stored = Trajectory(times=t, xi=t**2, xi_ddot=np.full(3, 2.0))
        assert np.all(stored.acceleration() == 2.0)

    def test_factories_pin_endpoints_exactly(self):
        for traj in (triangular_trajectory(1.0, 1.0, 101),
                     sinusoidal_trajectory(0.5, 1.0, 101),
                     bump_trajectory(2.0, 1.0, 101)):
            assert traj.closed
            assert traj.xi[0] == 0.0 and traj.xi[-1] == 0.0

    def test_triangle_velocities_exact(self):
        traj = triangular_trajectory(1.0, 1.0, 201)
        assert np.all(np.abs(traj.velocity()) == 1.0)
        with pytest.raises(TrajectoryError):
            triangular_trajectory(1.0, 1.0, 200)  # even sample count

    @pytest.mark.parametrize("traj", [
        triangular_trajectory(1.0, 1.0, 101),
        sinusoidal_trajectory(0.5, 2.0, 64),
        Trajectory(times=np.linspace(-1.0, 0.5, 31),
                   xi=np.sin(np.linspace(-1.0, 0.5, 31))),
    ], ids=["triangle", "sine", "central_difference"])
    def test_at_reads_python_floats(self, traj):
        columns = (traj.xi, traj.velocity(), traj.kinetic_integral())
        last = traj.times.size - 1
        for k, t in enumerate(traj.times):
            # a sample time, as numpy and Python floats and 1e-11 dt inside
            nudge = (-1e-11 if k == last else 1e-11) * traj.dt
            for query in (t, float(t), float(t) + nudge):
                got = traj.at(query)
                assert all(type(value) is float for value in got)
                assert got == tuple(float(column[k]) for column in columns)
        for t in traj.times[:-1] + 0.37 * traj.dt:
            got = traj.at(t)
            assert all(type(value) is float for value in got)
            assert got == tuple(float(np.interp(t, traj.times, column))
                                for column in columns)

    def test_at_lookup_and_interpolation(self):
        traj = bump_trajectory(2.0, 1.0, 101)
        xi, v, s = traj.at(0.5)
        assert xi == pytest.approx(2.0)
        assert v == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(TrajectoryError):
            traj.at(1.5)


class TestProperTime:
    def test_static_path(self):
        traj = static_trajectory(0.0, 1.0, 11)
        res = proper_time(traj, PARAMS)
        assert res.delta_tau == pytest.approx(0.0, abs=1e-14)

    def test_triangle_matches_closed_form(self):
        traj = triangular_trajectory(0.1 * PARAMS.c, 1.0, 2001)
        res = proper_time(traj, PARAMS)
        assert abs(res.delta_tau - (1.0 - np.sqrt(0.99))) < 1e-10
        assert res.delta_tau_lowest == pytest.approx(5.0e-3, abs=1e-12)

    def test_halving_speed_quarters_lowest_order(self):
        fast = proper_time(triangular_trajectory(1.0, 1.0, 201), PARAMS)
        slow = proper_time(triangular_trajectory(0.5, 1.0, 201), PARAMS)
        assert slow.delta_tau_lowest == pytest.approx(fast.delta_tau_lowest / 4.0,
                                                      rel=1e-12)

    def test_superluminal_and_open_paths_rejected(self):
        with pytest.raises(SuperluminalError):
            proper_time(triangular_trajectory(11.0, 1.0, 201), PARAMS)
        open_traj = static_trajectory(2.0, 1.0, 11)
        with pytest.raises(TrajectoryError):
            proper_time(open_traj, PARAMS)


class TestClosedPathPhase:
    def test_values(self):
        assert closed_path_phase(static_trajectory(0.0, 1.0, 11), 1.0, PARAMS) == 0.0
        traj = triangular_trajectory(1.0, 1.0, 201)
        assert closed_path_phase(traj, 1.0, PARAMS) == pytest.approx(0.5, abs=1e-12)

    def test_linear_in_mass(self):
        traj = triangular_trajectory(1.0, 1.0, 201)
        assert closed_path_phase(traj, 2.0, PARAMS) == pytest.approx(
            2.0 * closed_path_phase(traj, 1.0, PARAMS), rel=1e-14)

    def test_equals_proper_time_reading(self):
        traj = triangular_trajectory(1.0, 1.0, 201)
        res = proper_time(traj, PARAMS)
        mass = 1.3
        assert closed_path_phase(traj, mass, PARAMS) == pytest.approx(
            mass * PARAMS.c**2 * res.delta_tau_lowest / PARAMS.hbar, rel=1e-12)


class TestFrameTransform:
    def test_static_trajectory_is_identity(self):
        state = packet_state()
        traj = static_trajectory(0.0, 1.0, 11)
        out = frame_transform(state, traj, 0.5, PARAMS)
        assert abs(overlap(state, out) - 1.0) < 1e-12

    def test_constant_velocity_equals_boost_translation(self):
        # oracle: compose the symmetry-module operators
        state = packet_state()
        n = 101
        t = np.linspace(0.0, 1.0, n)
        w = 0.7
        traj = Trajectory(times=t, xi=w * t, xi_dot=np.full(n, w),
                          xi_ddot=np.zeros(n))
        at = 0.5
        via_frame = frame_transform(state, traj, at, PARAMS)
        via_ops = apply_boost(state, -w, at, PARAMS)
        assert abs(abs(overlap(via_frame, via_ops)) - 1.0) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(0.0, 1.0), height=st.floats(-3.0, 3.0),
           hbar=st.floats(0.2, 5.0), p0=st.floats(-2.0, 2.0),
           levels=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3),
           log_n=st.integers(8, 11))
    def test_matches_the_per_sample_oracle_bit_for_bit(self, t, height, hbar, p0,
                                                       levels, log_n):
        grid = GridSpec(-20.0, 20.0, 2**log_n)
        internal = InternalSpace(E0=100.0, levels=tuple(sorted(levels)))
        params = PhysicalParams(hbar=hbar, c=10.0, E0=100.0)
        state = packet_state(grid, internal, p0=p0)
        traj = bump_trajectory(height, 1.0, 101)
        out = frame_transform(state, traj, t, params)
        xi, v, action = traj.at(t)
        expected = oracles.frame_transform_amplitudes(
            state.amplitudes, grid, internal.mass_energies(params.c),
            xi, v, action, hbar)
        assert np.array_equal(out.amplitudes, expected)
        assert not out.amplitudes.flags.writeable


class TestSchrodingerResidual:
    def _history(self, dt, with_term):
        grid = GridSpec(-20.0, 20.0, 512)
        internal = InternalSpace(E0=100.0, levels=(0.0,))
        params = PhysicalParams(hbar=1.0, c=10.0, E0=100.0)
        kind = HamiltonianKind.dynamical_mass()
        steps = int(round(1.0 / dt))
        traj = sinusoidal_trajectory(0.5, 1.0, steps + 1)
        psi = gaussian_packet(grid, 0.0, 0.0, 1.0)
        state = make_superposition(grid, internal, [1.0], psi)
        times, hist = propagate_history(state, kind, params, dt, steps)
        primed = [frame_transform(s, traj, t, params) for s, t in zip(hist, times)]
        acc = traj.acceleration() if with_term else None
        return schrodinger_residual(primed, dt, kind, params, non_inertial_accel=acc)

    def test_lab_history_self_consistency(self):
        grid = GridSpec(-20.0, 20.0, 512)
        internal = InternalSpace(E0=100.0, levels=(0.0,))
        params = PhysicalParams(hbar=1.0, c=10.0, E0=100.0)
        psi = gaussian_packet(grid, 0.0, 1.0, 1.0)
        state = make_superposition(grid, internal, [1.0], psi)

        def residual(dt):
            steps = int(round(0.5 / dt))
            _, hist = propagate_history(state, HamiltonianKind.newtonian(),
                                        params, dt, steps)
            return schrodinger_residual(hist, dt, HamiltonianKind.newtonian(), params)

        r1, r2 = residual(2e-3), residual(1e-3)
        assert r1 / r2 == pytest.approx(4.0, rel=0.1)

    def test_primed_frame_equation_holds_at_second_order(self):
        r1 = self._history(2e-3, with_term=True)
        r2 = self._history(1e-3, with_term=True)
        assert np.log2(r1 / r2) >= 1.9

    def test_negative_control_stalls(self):
        n1 = self._history(2e-3, with_term=False)
        n2 = self._history(1e-3, with_term=False)
        assert n2 > 0.5 * n1  # no convergence without the non-inertial term
        assert n2 > 100.0 * self._history(1e-3, with_term=True)

    @pytest.mark.parametrize("label", list(_KINDS))
    def test_lab_history_converges_at_second_order_for_every_kind(self, label):
        grid = GridSpec(-20.0, 20.0, 256)
        internal = InternalSpace(E0=100.0, levels=(0.0, 5.0))
        params = PhysicalParams(hbar=1.0, c=10.0, E0=100.0,
                                potential=Potential.uniform_field(0.5))
        state = packet_state(grid, internal, p0=1.0)
        kind = HamiltonianKind.from_name(label)

        def residual(dt):
            _, hist = propagate_history(state, kind, params, dt, int(round(0.2 / dt)))
            return schrodinger_residual(hist, dt, kind, params)

        assert np.log2(residual(2e-3) / residual(1e-3)) >= 1.9

    def test_too_few_samples(self):
        state = packet_state()
        with pytest.raises(PreconditionError):
            schrodinger_residual([state, state], 1e-3,
                                 HamiltonianKind.newtonian(), PARAMS)

    @pytest.mark.parametrize("middle", [
        packet_state(GridSpec(-10.0, 30.0, 256), InternalSpace(E0=100.0, levels=(0.0,))),
        packet_state(GridSpec(-20.0, 20.0, 256), InternalSpace(E0=100.0, levels=(0.0, 5.0))),
    ], ids=["shifted_grid", "dim_2"])
    def test_history_that_mixes_spaces_is_refused(self, middle):
        state = packet_state(GridSpec(-20.0, 20.0, 256), InternalSpace(E0=100.0, levels=(0.0,)))
        with pytest.raises(IncompatibleSpacesError):
            schrodinger_residual([state, middle, state], 1e-3,
                                 HamiltonianKind.newtonian(), PARAMS)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), length=st.integers(3, 3 * _RESIDUAL_BLOCK + 2),
           with_term=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_per_sample_oracle_bit_for_bit(self, data, length,
                                                       with_term, seed):
        # history lengths cover one short block up to three full blocks
        label, grid, internal, params = data.draw(_kind_cases())
        internal = InternalSpace(E0=internal.E0, levels=internal.levels[:3])
        rng = np.random.default_rng(seed)
        shape = (length, internal.dim, grid.n_points)
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        history = [CompositeState.create(grid, internal, a) for a in raw]
        dt = data.draw(st.floats(1e-4, 1e-1))
        accel = rng.standard_normal(length) if with_term else None
        kind = HamiltonianKind.from_name(label)
        got = schrodinger_residual(history, dt, kind, params, non_inertial_accel=accel)
        t_table, v_table = _tables(kind, grid, internal, params)
        expected = oracles.per_sample_residual(
            history, dt, t_table, v_table, internal.mass_energies(params.c),
            params.hbar, non_inertial_accel=accel)
        assert got == expected


class TestClockHelpers:
    def test_fit_phase_rate_on_synthetic_signal(self):
        t = np.linspace(0.0, 5.0, 501)
        z = np.exp(-1j * 3.7 * t)
        assert fit_phase_rate(t, z) == pytest.approx(-3.7, abs=1e-12)

    def test_phase_fit_needs_100_samples(self):
        t = np.linspace(0.0, 1.0, 100)
        assert fit_phase_rate(t, np.exp(2j * t)) == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(PreconditionError, match=">= 100 samples"):
            fit_phase_rate(t[:99], np.exp(2j * t[:99]))

    def test_semiclassical_phases_constant_rate(self):
        t = np.linspace(0.0, 2.0, 401)
        v = np.full_like(t, 1.0)
        phi = np.zeros_like(t)
        phases = semiclassical_clock_phases(t, v, phi, 2.0, PARAMS)
        expected_rate = 2.0 * (1.0 - 0.5 / PARAMS.c**2)
        assert phases[-1] == pytest.approx(expected_rate * 2.0, rel=1e-12)


class TestRefusals:
    T3 = np.linspace(0.0, 1.0, 3)

    @pytest.mark.parametrize("build, error, match", [
        pytest.param(lambda: Trajectory(times=TestRefusals.T3, xi=np.zeros(2)),
                     TrajectoryError, "times and xi must be matching 1D arrays",
                     id="xi-length"),
        pytest.param(lambda: Trajectory(times=TestRefusals.T3, xi=np.zeros(3),
                                        xi_dot=np.zeros(2)),
                     TrajectoryError, "xi_dot shape mismatch", id="xi-dot-length"),
        pytest.param(lambda: closed_path_phase(static_trajectory(2.0, 1.0, 11), 1.0, PARAMS),
                     TrajectoryError, "closed_path_phase requires a closed trajectory",
                     id="open-path-phase"),
        pytest.param(lambda: schrodinger_residual(
                         propagate_history(packet_state(), HamiltonianKind.low_energy(),
                                           PARAMS, 1e-3, 3)[1],
                         1e-3, HamiltonianKind.low_energy(), PARAMS,
                         non_inertial_accel=[0.0]),
                     PreconditionError, "non_inertial_accel must align with history samples",
                     id="accel-length"),
        *[pytest.param(lambda bad=bad: schrodinger_residual(
              propagate_history(packet_state(), HamiltonianKind.low_energy(),
                                PARAMS, 1e-3, 3)[1],
              1e-3, HamiltonianKind.low_energy(), PARAMS,
              non_inertial_accel=[0.0, bad, 0.0, 0.0]),
              PreconditionError, f"non_inertial_accel must be finite, got {bad}",
              id=f"accel-{bad}") for bad in (math.nan, math.inf, -math.inf)],
    ])
    def test_refused(self, build, error, match):
        with pytest.raises(error, match=match):
            build()
