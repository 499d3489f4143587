import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massclock import (
    AliasingError,
    BoundaryViolationError,
    GridSpec,
    HamiltonianKind,
    InternalSpace,
    PhysicalParams,
    Potential,
    PreconditionError,
    SuperluminalError,
    Trajectory,
    TrajectoryError,
    apply_boost,
    branch_kinetic,
    branch_potential,
    branch_velocity,
    bump_trajectory,
    closed_path_phase,
    expectation_p,
    expectation_x,
    fit_clock_rate,
    fit_phase_rate,
    frame_transform,
    gaussian_packet,
    internal_frequency,
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
from massclock import _kernels
from massclock.dynamics import _KINDS, _tables

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
        assert HamiltonianKind.from_name("dynamical_mass+rest").include_rest
        assert HamiltonianKind.from_name("split").name == "split"
        with pytest.raises(PreconditionError):
            HamiltonianKind("quartic")
        with pytest.raises(PreconditionError):
            HamiltonianKind("newtonian", include_rest=True)
        with pytest.raises(PreconditionError):
            HamiltonianKind("dynamical_mass+rest")  # the suffix is the flag

    def test_every_label_is_a_table_entry(self):
        assert [HamiltonianKind.from_name(label).label() for label in _KINDS] == list(_KINDS)
        assert [label for label in _KINDS if not _KINDS[label].carries_rest] == ["dynamical_mass"]


def _docstring_branch(label, p, phi, e0, ei, c, m):
    """(T_i(p), V_i) of one branch, written out from the module docstring."""
    hr = e0 + ei
    big_m = hr / c**2
    if label == "exact":
        return np.sqrt(c**2 * p**2 + hr**2), big_m * phi
    if label == "dynamical_mass":
        return p**2 * c**2 / (2 * hr), big_m * phi
    if label in ("dynamical_mass+rest", "low_energy"):
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
        kind = HamiltonianKind.from_name(label)
        p = grid.p(params.hbar)
        p_max = np.max(np.abs(p))
        for i, hr in enumerate(internal.rest_energies()):
            # below the curvature scale H_r/c of the exact kind's square root
            h = 1e-4 * min(p_max, hr / params.c)
            t = branch_kinetic(kind, internal, params, i)
            v = branch_velocity(kind, internal, params, i)(p)
            numeric = (t(p + h) - t(p - h)) / (2 * h)
            t_max = np.max(np.abs(t(p)))
            rounding = 1e-14 * t_max / h
            np.testing.assert_allclose(v, numeric, rtol=1e-6,
                                       atol=1e-6 * t_max / p_max + rounding)

    def test_level_out_of_range(self):
        for fn in (branch_kinetic, branch_velocity):
            with pytest.raises(PreconditionError, match="out of range"):
                fn(HamiltonianKind.split(), INTERNAL, PARAMS, 2)
        with pytest.raises(PreconditionError, match="out of range"):
            branch_potential(HamiltonianKind.split(), INTERNAL, PARAMS, -1, GRID.x())


class TestBranchKinetic:
    def test_newtonian_rest(self):
        t = branch_kinetic(HamiltonianKind.newtonian(), INTERNAL, PARAMS, 0)
        assert t(0.0) == 0.0

    def test_low_energy_equals_dynamical_mass_with_rest(self):
        p = np.linspace(-5, 5, 101)
        for level in (0, 1):
            t_low = branch_kinetic(HamiltonianKind.low_energy(), INTERNAL, PARAMS, level)
            t_dyn = branch_kinetic(HamiltonianKind.dynamical_mass(include_rest=True),
                                   INTERNAL, PARAMS, level)
            assert np.array_equal(t_low(p), t_dyn(p))

    def test_exact_vs_low_energy_frozen_gap(self):
        # p = 0.1 H_r / c: exact = H_r sqrt(1.01), low = 1.005 H_r
        hr = INTERNAL.E0 + INTERNAL.levels[0]
        p = 0.1 * hr / PARAMS.c
        exact = branch_kinetic(HamiltonianKind.exact(), INTERNAL, PARAMS, 0)(p)
        low = branch_kinetic(HamiltonianKind.low_energy(), INTERNAL, PARAMS, 0)(p)
        assert exact == pytest.approx(hr * np.sqrt(1.01), rel=1e-14)
        assert low == pytest.approx(1.005 * hr, rel=1e-14)
        rel_gap = (low - exact) / exact
        assert rel_gap == pytest.approx(1.2376e-5, rel=1e-3)

    def test_split_momentum_terms(self):
        p = np.linspace(-3, 3, 7)
        t = branch_kinetic(HamiltonianKind.split(), INTERNAL, PARAMS, 1)
        e0, ei, c = INTERNAL.E0, INTERNAL.levels[1], PARAMS.c
        expected = p**2 * c**2 / (2 * e0) - ei * p**2 * c**2 / (2 * e0**2)
        assert np.allclose(t(p), expected, rtol=0, atol=1e-12)

    def test_hierarchy_gap_scales_fourth_power(self):
        hr = INTERNAL.E0
        ps = np.logspace(-3, -1, 9) * hr / PARAMS.c
        exact = branch_kinetic(HamiltonianKind.exact(), INTERNAL, PARAMS, 0)(ps)
        low = branch_kinetic(HamiltonianKind.low_energy(), INTERNAL, PARAMS, 0)(ps)
        gap = low - exact
        assert np.all(gap > 0)  # low-energy form overshoots the square root
        slope = np.polyfit(np.log(ps), np.log(gap), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.1)

    def test_velocity_is_momentum_derivative(self):
        p = np.linspace(-3, 3, 13)
        h = 1e-6
        for kind in (HamiltonianKind.exact(), HamiltonianKind.dynamical_mass(),
                     HamiltonianKind.low_energy(), HamiltonianKind.split(),
                     HamiltonianKind.newtonian()):
            t = branch_kinetic(kind, INTERNAL, PARAMS, 1)
            v = branch_velocity(kind, INTERNAL, PARAMS, 1)
            numeric = (t(p + h) - t(p - h)) / (2 * h)
            assert np.allclose(v(p), numeric, rtol=1e-6, atol=1e-6)

    def test_potentials_carry_rest_terms(self):
        x = np.array([0.0])
        v_split = branch_potential(HamiltonianKind.split(), INTERNAL, PARAMS, 1, x)
        assert v_split[0] == INTERNAL.E0 + INTERNAL.levels[1]
        v_newt = branch_potential(HamiltonianKind.newtonian(), INTERNAL, PARAMS, 1, x)
        assert v_newt[0] == PARAMS.m * PARAMS.c**2 + INTERNAL.levels[1]


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

    def test_low_energy_equals_dynamical_mass_rest(self):
        state = packet_state(p0=1.0)
        a = propagate(state, HamiltonianKind.low_energy(), PARAMS, 5e-4, 1000)
        b = propagate(state, HamiltonianKind.dynamical_mass(include_rest=True),
                      PARAMS, 5e-4, 1000)
        assert abs(1.0 - abs(overlap(a, b)) ** 2) < 1e-12

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
            sigma, params.m, params.hbar, params.c)
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
                                                params.m, params.hbar, params.c)
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

    def test_central_difference_velocity(self):
        t = np.linspace(0.0, 1.0, 201)
        traj = Trajectory(times=t, xi=np.sin(2 * np.pi * t))
        exact = 2 * np.pi * np.cos(2 * np.pi * t)
        assert np.max(np.abs(traj.velocity() - exact)) < 5e-3
        exact_acc = -(2 * np.pi) ** 2 * np.sin(2 * np.pi * t)
        assert np.max(np.abs(traj.acceleration() - exact_acc)) < 1e-1

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

    def test_round_trip(self):
        state = packet_state()
        traj = bump_trajectory(2.0, 1.0, 101)
        fwd = frame_transform(state, traj, 0.37, PARAMS)
        back = frame_transform(fwd, traj, 0.37, PARAMS, inverse=True)
        assert abs(overlap(state, back) - 1.0) < 1e-10


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
