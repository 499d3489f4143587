import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massclock import (
    BoundaryViolationError,
    BranchDeformedError,
    CompositeState,
    GridSpec,
    GridResolutionError,
    IncompatibleSpacesError,
    InternalSpace,
    PhysicalParams,
    Potential,
    PreconditionError,
    branch_phase,
    expectation_p,
    expectation_x,
    gaussian_packet,
    internal_space_from_masses,
    make_superposition,
    overlap,
    wrap_angle,
)
from massclock import _kernels
from massclock.hilbert import CLEARANCE_SIGMAS, _check, _grid_tables, _require_band

import oracles

GRID = GridSpec(-20.0, 20.0, 1024)
TWO_LEVEL = InternalSpace(E0=100.0, levels=(0.0, 10.0))


def equal_state(grid=GRID, internal=TWO_LEVEL, x0=0.0, p0=0.0, sigma=1.0):
    psi = gaussian_packet(grid, x0, p0, sigma)
    w = np.full(internal.dim, 1.0 / np.sqrt(internal.dim))
    return make_superposition(grid, internal, w, psi)


class TestGridSpec:
    def test_momentum_grid_matches_definition(self):
        p = GRID.p(hbar=2.0)
        n = GRID.n_points
        k = np.concatenate([np.arange(0, n // 2), np.arange(-n // 2, 0)])
        assert np.allclose(p, 2 * np.pi * 2.0 * k / GRID.length, rtol=0, atol=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(PreconditionError):
            GridSpec(-1.0, 1.0, 1000)
        with pytest.raises(PreconditionError):
            GridSpec(-1.0, 1.0, 4)

    def test_rejects_empty_domain(self):
        with pytest.raises(PreconditionError):
            GridSpec(1.0, 1.0, 64)


class TestInternalSpace:
    def test_levels_must_stay_below_e0(self):
        with pytest.raises(PreconditionError):
            InternalSpace(E0=1.0, levels=(0.0, 2.0))

    def test_levels_sorted(self):
        with pytest.raises(PreconditionError):
            InternalSpace(E0=10.0, levels=(1.0, 0.0))

    @pytest.mark.parametrize("levels", ["05", b"05", 5.0, None, ("0", "5"), (True, False),
                                        [[0.0, 1.0]]])
    def test_levels_must_be_a_sequence_of_numbers(self, levels):
        with pytest.raises(PreconditionError, match="sequence of numbers"):
            InternalSpace(E0=10.0, levels=levels)

    def test_levels_accept_lists_tuples_and_arrays(self):
        for levels in ([0, 5], (0.0, 5.0), np.array([0.0, 5.0])):
            assert InternalSpace(E0=10.0, levels=levels).levels == (0.0, 5.0)

    def test_mass_energies(self):
        m = TWO_LEVEL.mass_energies(c=10.0)
        assert m == pytest.approx([1.0, 1.1], abs=0)

    def test_rest_energies_are_built_once_and_read_only(self):
        rest = TWO_LEVEL.rest_energies()
        assert rest is TWO_LEVEL.rest_energies() and not rest.flags.writeable
        assert rest.tolist() == [100.0, 110.0]
        assert TWO_LEVEL.mass_energies(10.0).flags.writeable  # a fresh column

    def test_from_masses_round_trips(self):
        sp = internal_space_from_masses([1.0, 1.1], c=10.0)
        assert sp.E0 == 1.1 * 10.0**2  # referred to the heaviest mass
        assert np.allclose(sp.mass_energies(10.0), [1.0, 1.1], atol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(masses=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
           c=st.sampled_from([1.0, 10.0, 299.792458]))
    def test_any_positive_ascending_masses_make_a_space(self, masses, c):
        # each M_i comes back as M_max + (M_i - M_max): exact up to the
        # rounding of numbers the size of the heaviest mass
        masses = sorted(masses)
        sp = internal_space_from_masses(masses, c)
        assert np.allclose(sp.mass_energies(c), masses, rtol=0, atol=1e-14 * masses[-1])

    @pytest.mark.parametrize("masses", [[0.0, 1.0], [-1.0, 1.0]])
    def test_non_positive_mass_refused(self, masses):
        with pytest.raises(PreconditionError, match="masses must be positive"):
            internal_space_from_masses(masses, 10.0)


class TestPhysicalParams:
    def test_mass_parameter_is_derived_from_stored_e0(self):
        params = PhysicalParams(hbar=1.0, c=10.0, E0=100.0)
        assert params.m * params.c**2 == params.E0
        params.check_internal(TWO_LEVEL)

    def test_mismatched_e0_rejected(self):
        params = PhysicalParams(hbar=1.0, c=10.0, E0=99.0)
        with pytest.raises(IncompatibleSpacesError):
            params.check_internal(TWO_LEVEL)

    def test_potential_models(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.all(Potential.none().values(x) == 0)
        assert np.allclose(Potential.uniform_field(0.5).values(x), 0.5 * x)
        tab = Potential.tabulated([-2, 0, 2], [4, 0, 4])
        assert np.allclose(tab.values(x), [2.0, 0.0, 4.0])


class TestGaussianPacket:
    def test_centered_moments(self):
        psi = gaussian_packet(GRID, 0.0, 0.0, 1.0)
        prob, sx, sxx = _kernels.branch_moments(psi, _grid_tables(GRID).basis).tolist()
        mean = sx / prob
        assert abs(prob - 1.0) < 1e-12
        assert abs(mean) < 1e-8 and abs(expectation_x(GRID, psi)) < 1e-8
        assert abs(sxx / prob - mean**2 - 1.0) < 1e-8
        assert abs(expectation_p(GRID, psi, 1.0)) < 1e-8

    def test_momentum_kick_via_spectral_derivative(self):
        # oracle: <p> from an explicit spectral derivative of the array
        psi = gaussian_packet(GRID, 0.0, 2.0, 1.0, hbar=1.0)
        assert abs(oracles.spectral_mean_momentum(GRID, psi, 1.0) - 2.0) < 1e-8
        assert abs(expectation_p(GRID, psi, 1.0) - 2.0) < 1e-8

    def test_too_close_to_boundary(self):
        with pytest.raises(BoundaryViolationError):
            gaussian_packet(GridSpec(-20.0, 20.0, 1024), 19.5, 0.0, 1.0)

    def test_unresolvable_sigma(self):
        with pytest.raises(GridResolutionError):
            gaussian_packet(GridSpec(-20.0, 20.0, 64), 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("hbar", [1.0, 2.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_launch_past_the_momentum_grid_is_refused(self, hbar, sign):
        # p0 + CLEARANCE_SIGMAS hbar / 2 sigma must stay below pi hbar / dx
        # (80.425 hbar on GRID), or the packet is built already wrapped
        half = CLEARANCE_SIGMAS * hbar / 2.0
        edge = math.pi * hbar / GRID.dx - half
        gaussian_packet(GRID, 0.0, sign * (edge - 1e-9), 1.0, hbar=hbar)
        with pytest.raises(GridResolutionError,
                           match=r"^packet momentum band \[.*\] leaves \+/-pi hbar/dx = "
                                 rf"\+/-{math.pi * hbar / GRID.dx:.3f} of grid\.n_points=1024;"):
            gaussian_packet(GRID, 0.0, sign * (edge + 1e-9), 1.0, hbar=hbar)


class TestMakeSuperposition:
    def test_equal_weights_split_probability(self):
        state = equal_state()
        assert np.allclose(state.branch_populations(), [0.5, 0.5], atol=1e-12)

    def test_orthogonal_pure_branches(self):
        psi = gaussian_packet(GRID, 0.0, 0.0, 1.0)
        a = make_superposition(GRID, TWO_LEVEL, [1.0, 0.0], psi)
        b = make_superposition(GRID, TWO_LEVEL, [0.0, 1.0], psi)
        assert abs(overlap(a, b)) < 1e-14

    def test_dimension_mismatch(self):
        psi = gaussian_packet(GRID, 0.0, 0.0, 1.0)
        with pytest.raises(PreconditionError):
            make_superposition(GRID, TWO_LEVEL, [1.0, 1.0, 1.0], psi)

    def test_all_zero_weights(self):
        psi = gaussian_packet(GRID, 0.0, 0.0, 1.0)
        with pytest.raises(PreconditionError):
            make_superposition(GRID, TWO_LEVEL, [0.0, 0.0], psi)

    def test_per_level_spatial_arrays(self):
        p1 = gaussian_packet(GRID, -3.0, 0.0, 1.0)
        p2 = gaussian_packet(GRID, 3.0, 0.0, 1.0)
        state = make_superposition(GRID, TWO_LEVEL, [1.0, 1.0], [p1, p2])
        pops = state.branch_populations()
        assert np.allclose(pops, [0.5, 0.5], atol=1e-12)


class TestCompositeState:
    def test_norm_validated(self):
        amps = np.zeros((2, GRID.n_points), complex)
        amps[0, 10] = 1.0  # norm far from 1
        with pytest.raises(PreconditionError):
            CompositeState(GRID, TWO_LEVEL, amps)

    def test_amplitudes_read_only_and_private(self):
        state = equal_state()
        with pytest.raises(ValueError):
            state.amplitudes[0, 0] = 1.0

    @pytest.mark.parametrize("total", [1.0 + 3e-10, 1.0 - 3e-10, 4.0, 0.0, math.nan])
    def test_the_check_refuses_a_total_off_unit_norm(self, total):
        amps = np.array(equal_state().amplitudes) * math.sqrt(total)
        with pytest.raises(PreconditionError, match=r"^translation by a=0\.5: total "
                           r"probability .* deviates from 1 beyond 1e-10$"):
            _check(_grid_tables(GRID), amps, "translation by a={}", 0.5)

    def test_owning_path_takes_the_array_read_only(self):
        state = equal_state()
        amps = np.array(state.amplitudes)
        owned = state._with_owned_amplitudes(amps)
        assert owned.amplitudes is amps
        assert not amps.flags.writeable
        with pytest.raises(ValueError):
            owned.amplitudes[0, 0] = 1.0
        assert (owned.grid, owned.internal) == (state.grid, state.internal)

    def test_one_norm_rule_refuses_a_drift_of_7e_11_on_every_path(self, monkeypatch):
        # the rule bounds the total |psi|^2 dx: a norm 7e-11 high is a total
        # 1.4e-10 high, which states, checks and steps all refuse, in one text
        from massclock import HamiltonianKind, propagate
        drift = 1.0 + 7e-11
        state = equal_state()
        with pytest.raises(PreconditionError, match="^state: total probability .* beyond 1e-10$"):
            CompositeState(GRID, TWO_LEVEL, state.amplitudes * drift)
        with pytest.raises(PreconditionError, match="^step 3: total probability .* beyond 1e-10$"):
            _check(_grid_tables(GRID), state.amplitudes * drift, "step {}", 3)
        real = _kernels.branch_moments
        monkeypatch.setattr(_kernels, "branch_moments", lambda a, b: real(a * drift, b))
        with pytest.raises(PreconditionError, match="^step 1: total probability .* beyond 1e-10$"):
            propagate(state, HamiltonianKind.newtonian(), PhysicalParams(), 5e-4, 1)

    def test_branch_populations_sum_to_one(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((2, GRID.n_points)) + 1j * rng.standard_normal((2, GRID.n_points))
        state = CompositeState.create(GRID, TWO_LEVEL, raw)
        assert abs(state.branch_populations().sum() - 1.0) < 1e-10


class TestOverlap:
    def test_self_overlap(self):
        state = equal_state()
        assert abs(overlap(state, state) - 1.0) < 1e-10

    def test_global_phase(self):
        state = equal_state()
        rotated = state.with_amplitudes(state.amplitudes * np.exp(0.7j))
        assert abs(overlap(state, rotated) - np.exp(0.7j)) < 1e-10

    def test_distant_gaussians_match_closed_form(self):
        # oracle: |<g|g shifted by d>| = exp(-d^2 / 8 sigma^2)
        psi_a = gaussian_packet(GRID, -5.0, 0.0, 1.0)
        psi_b = gaussian_packet(GRID, 5.0, 0.0, 1.0)
        a = make_superposition(GRID, TWO_LEVEL, [1.0, 0.0], psi_a)
        b = make_superposition(GRID, TWO_LEVEL, [1.0, 0.0], psi_b)
        expected = oracles.gaussian_overlap_modulus(10.0, 1.0)  # 3.727e-6
        assert abs(abs(overlap(a, b)) - expected) < 1e-8
        # 16 sigma separation is where the modulus actually drops below 1e-10
        psi_c = gaussian_packet(GRID, -8.0, 0.0, 1.0)
        psi_d = gaussian_packet(GRID, 8.0, 0.0, 1.0)
        c = make_superposition(GRID, TWO_LEVEL, [1.0, 0.0], psi_c)
        d = make_superposition(GRID, TWO_LEVEL, [1.0, 0.0], psi_d)
        assert oracles.gaussian_overlap_modulus(16.0, 1.0) < 1e-10
        assert abs(overlap(c, d)) < 1e-10

    def test_conjugate_symmetry_is_exact(self):
        rng = np.random.default_rng(3)
        mk = lambda: CompositeState.create(
            GRID, TWO_LEVEL,
            rng.standard_normal((2, GRID.n_points)) + 1j * rng.standard_normal((2, GRID.n_points)))
        for _ in range(20):
            a, b = mk(), mk()
            assert abs(overlap(a, b) - np.conj(overlap(b, a))) < 1e-15

    def test_modulus_bounded_by_one(self):
        rng = np.random.default_rng(17)
        mk = lambda: CompositeState.create(
            GRID, TWO_LEVEL,
            rng.standard_normal((2, GRID.n_points)) + 1j * rng.standard_normal((2, GRID.n_points)))
        for _ in range(20):
            a, b = mk(), mk()
            assert abs(overlap(a, b)) <= 1.0 + 1e-10
        s = mk()
        assert abs(overlap(s, s)) <= 1.0 + 1e-10

    def test_incompatible_spaces(self):
        other = GridSpec(-20.0, 20.0, 512)
        a = equal_state()
        b = equal_state(grid=other)
        with pytest.raises(IncompatibleSpacesError):
            overlap(a, b)


class TestBranchPhase:
    def test_identity(self):
        state = equal_state()
        bp = branch_phase(state, state, 0)
        assert bp.phase == pytest.approx(0.0, abs=1e-12)
        assert bp.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_constructed_phase(self):
        state = equal_state()
        amps = np.array(state.amplitudes)
        amps[1] *= np.exp(-0.4j)
        rotated = state.with_amplitudes(amps)
        assert branch_phase(state, rotated, 1).phase == pytest.approx(-0.4, abs=1e-12)
        assert branch_phase(state, rotated, 0).phase == pytest.approx(0.0, abs=1e-12)

    def test_translated_branch_is_deformed(self):
        from massclock import apply_translation

        state = equal_state()
        moved = apply_translation(state, 0.5)
        with pytest.raises(BranchDeformedError):
            branch_phase(state, moved, 0)

    def test_invariant_under_shared_global_phase(self):
        state = equal_state()
        amps = np.array(state.amplitudes)
        amps[1] *= np.exp(0.9j)
        after = state.with_amplitudes(amps)
        before2 = state.with_amplitudes(state.amplitudes * np.exp(1.3j))
        after2 = after.with_amplitudes(after.amplitudes * np.exp(1.3j))
        assert branch_phase(before2, after2, 1).phase == pytest.approx(
            branch_phase(state, after, 1).phase, abs=1e-12)

    def test_population_mismatch_rejected(self):
        state = equal_state()
        other = make_superposition(GRID, TWO_LEVEL, [1.0, 2.0],
                                   gaussian_packet(GRID, 0.0, 0.0, 1.0))
        with pytest.raises(PreconditionError):
            branch_phase(state, other, 0)

    @pytest.mark.parametrize("level", [-1, 2, 5])
    def test_a_level_outside_the_branches_is_refused_by_every_readout(self, level):
        # one rule for every branch readout: a negative level is not read
        # from the end, and one past the last branch is no numpy IndexError
        state = equal_state()
        readouts = [lambda: branch_phase(state, state, level),
                    lambda: state.branch_overlap(0, level),
                    lambda: state.branch_overlap(level, 1)]
        for readout in readouts:
            with pytest.raises(PreconditionError,
                               match=f"^level {level} out of range for dim=2$"):
                readout()


_EDGE_ANGLES = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi,
                math.nextafter(math.pi, math.inf), math.nextafter(-math.pi, -math.inf),
                math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
                5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


class TestWrapAngle:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.integers(-10**6, 10**6).map(lambda k: k * math.pi),
                     st.sampled_from(_EDGE_ANGLES)))
    def test_principal_value_for_every_finite_input(self, theta):
        out = wrap_angle(theta)
        assert -math.pi < out <= math.pi
        if abs(theta) < 1e6:  # the same angle, up to the rounding of theta + pi
            assert abs(math.cos(out) - math.cos(theta)) < 1e-9
            assert abs(math.sin(out) - math.sin(theta)) < 1e-9


_ZEROS = np.zeros((2, GRID.n_points), dtype=complex)
_ONE_BRANCH = make_superposition(GRID, TWO_LEVEL, [1.0, 0.0], gaussian_packet(GRID, 0.0, 0.0, 1.0))


class TestRefusals:
    @pytest.mark.parametrize("build, match", [
        pytest.param(lambda: InternalSpace(E0=10.0, levels=()),
                     "need at least one internal level", id="no-level"),
        pytest.param(lambda: Potential.tabulated([0.0], [1.0]),
                     "matching xs/phis, >= 2 points", id="one-point-table"),
        pytest.param(lambda: Potential.tabulated([0.0, 1.0], [1.0]),
                     "matching xs/phis, >= 2 points", id="unmatched-table"),
        pytest.param(lambda: Potential.tabulated([0.0, 0.0], [1.0, 2.0]),
                     "xs must be strictly increasing", id="repeated-x"),
        pytest.param(lambda: Potential(kind="cubic"),
                     "unknown potential kind 'cubic'", id="unknown-potential"),
        pytest.param(lambda: Potential("none", g=1.0),
                     "a 'none' potential takes no g, got 1.0", id="none-with-g"),
        pytest.param(lambda: Potential("none", xs=(0.0, 1.0)),
                     r"a 'none' potential takes no xs, got \(0.0, 1.0\)", id="none-with-xs"),
        pytest.param(lambda: Potential("none", phis=(5.0, 6.0)),
                     r"a 'none' potential takes no phis, got \(5.0, 6.0\)",
                     id="none-with-phis"),
        pytest.param(lambda: Potential("uniform", g=1.0, xs=(0.0, 1.0), phis=(5.0, 6.0)),
                     r"a 'uniform' potential takes no xs, got \(0.0, 1.0\)",
                     id="uniform-with-table"),
        pytest.param(lambda: Potential("uniform", phis=(5.0,)),
                     r"a 'uniform' potential takes no phis, got \(5.0,\)",
                     id="uniform-with-phis"),
        pytest.param(lambda: Potential("tabulated", g=3.0, xs=(0.0, 1.0), phis=(5.0, 6.0)),
                     "a 'tabulated' potential takes no g, got 3.0", id="tabulated-with-g"),
        pytest.param(lambda: CompositeState(GRID, TWO_LEVEL, _ZEROS[:1]),
                     r"amplitude shape \(1, 1024\) != \(dim, n_points\) = \(2, 1024\)",
                     id="amplitude-shape"),
        pytest.param(lambda: CompositeState.create(GRID, TWO_LEVEL, _ZEROS),
                     "cannot normalize a zero state", id="zero-state"),
        pytest.param(lambda: make_superposition(GRID, TWO_LEVEL, [1.0, 1.0],
                                                np.ones((3, GRID.n_points))),
                     r"spatial shape \(3, 1024\) incompatible", id="spatial-shape"),
        pytest.param(lambda: branch_phase(_ONE_BRANCH, _ONE_BRANCH, 1),
                     "branch 1 norm too small for a phase readout", id="empty-branch"),
    ])
    def test_refused(self, build, match):
        with pytest.raises(PreconditionError, match=match):
            build()

    def test_a_zero_wavefunction_has_zero_moments_and_no_mean(self):
        zero = np.zeros(GRID.n_points, dtype=complex)
        assert _kernels.branch_moments(zero, _grid_tables(GRID).basis).tolist() == [0.0] * 3
        with pytest.raises(PreconditionError, match="zero wavefunction"):
            expectation_x(GRID, zero)

    def test_a_round_off_negative_variance_reads_as_zero(self):
        # sum x^2 w dx / prob - <x>^2 can fall below zero by round-off; the
        # clearance check reads it as a point, not as a math domain error
        from massclock.hilbert import _require_clearance

        assert _require_clearance(GRID, [1.0], [3.0], [9.0 - 1e-12], "step {}", 1) is None

    def test_the_clearance_text_is_formatted_only_on_refusal(self):
        from massclock.hilbert import _require_clearance

        class Where(str):
            formatted = 0

            def format(self, *args):
                Where.formatted += 1
                return super().format(*args)

        where = Where("translation by a={}")
        _require_clearance(GRID, [1.0, 0.0], [3.0, 0.0], [10.0, 0.0], where, 2.5)
        assert Where.formatted == 0
        with pytest.raises(BoundaryViolationError,
                           match=r"^translation by a=2\.5: branch 0: <x>=39\.000"):
            _require_clearance(GRID, [1.0], [39.0], [39.0**2 + 1.0], where, 2.5)
        assert Where.formatted == 1


class TestStateCheck:
    """``hilbert._check``: one moments pass, then the norm rule and the
    clearance rule on each run's rows, in that order."""

    @staticmethod
    def _paths():
        from massclock import (HamiltonianKind, apply_boost, apply_translation,
                               commutator_residual, frame_transform, propagate,
                               static_trajectory)
        params = PhysicalParams()
        return [
            pytest.param(lambda s: propagate(s, HamiltonianKind.newtonian(), params, 5e-4, 2),
                         "step 1", id="step"),
            pytest.param(lambda s: apply_translation(s, 0.5), r"translation by a=0\.5",
                         id="translation"),
            pytest.param(lambda s: apply_boost(s, 0.3, 0.0, params), r"boost w=0\.3 at t=0\.0",
                         id="boost"),
            pytest.param(lambda s: frame_transform(s, static_trajectory(0.5, 1.0, 11), 1.0,
                                                   params),
                         r"translation by a=-0\.5", id="frame-map"),
            pytest.param(lambda s: commutator_residual(s, 0.0, params), "commutator residual",
                         id="commutator"),
        ]

    @pytest.mark.parametrize("path, where", _paths())
    def test_every_path_refuses_a_total_read_1e_9_high(self, monkeypatch, path, where):
        real = _kernels.branch_moments

        def inflated(amps, table):
            m = real(amps, table)
            m[0] *= 1.0 + 1e-9
            return m

        state = equal_state()
        path(state)  # passes on the real moments
        monkeypatch.setattr(_kernels, "branch_moments", inflated)
        with pytest.raises(PreconditionError,
                           match=f"^{where}: total probability .* beyond 1e-10$"):
            path(state)

    def test_the_norm_rule_is_read_before_the_clearance_rule(self):
        # a buffer that breaks both rules names the norm rule; a run that
        # breaks the clearance rule alone names it
        x = GRID.x()
        edge = np.exp(-((x - 19.0) ** 2) / 4.0)[None, :].astype(complex)
        edge /= math.sqrt(_kernels.branch_moments(edge, _grid_tables(GRID).basis)[0, 0])
        with pytest.raises(BoundaryViolationError, match=r"^step 4: branch 0"):
            _check(_grid_tables(GRID), edge, "step {}", 4)
        with pytest.raises(PreconditionError, match=r"^step 4: total probability"):
            _check(_grid_tables(GRID), 2.0 * edge, "step {}", 4)

    def test_the_check_returns_each_runs_total_and_every_rows_probability(self):
        amps = np.concatenate([equal_state().amplitudes, equal_state(x0=3.0).amplitudes])
        totals, probs = _check(_grid_tables(GRID), amps, "step {}", 1,
                               runs=(slice(0, 2), slice(2, 4)))
        assert probs == _kernels.branch_moments(amps, _grid_tables(GRID).basis)[0].tolist()
        assert totals == [sum(probs[:2]), sum(probs[2:])]

    def test_the_check_formats_its_text_only_on_refusal(self):
        class Where(str):
            formatted = 0

            def format(self, *args):
                Where.formatted += 1
                return super().format(*args)

        where = Where("boost w={} at t={}")
        amps = equal_state().amplitudes
        _check(_grid_tables(GRID), amps, where, 0.5, 1.0)
        assert Where.formatted == 0
        with pytest.raises(PreconditionError, match=r"^boost w=0\.5 at t=1\.0: total"):
            _check(_grid_tables(GRID), 1.1 * amps, where, 0.5, 1.0)
        assert Where.formatted == 1

    @settings(max_examples=100, deadline=None)
    @given(log2n=st.integers(3, 11), dim=st.integers(1, 3), x_min=st.floats(-100.0, 50.0),
           length=st.floats(0.5, 200.0), seed=st.integers(0, 2**32 - 1))
    def test_the_readers_match_exact_per_branch_sums(self, log2n, dim, x_min, length, seed):
        # norm(), branch_populations() and expectation_x read the moments
        # pass, whose entries err by at most 1e-14 of sum |x|^k w dx
        # (test_kernels.py); a quotient of two such reads errs by at most
        # the sum of their relative errors, and a square root by half
        grid = GridSpec(x_min, x_min + length, 2**log2n)
        rng = np.random.default_rng(seed)
        raw = (rng.standard_normal((dim, grid.n_points))
               + 1j * rng.standard_normal((dim, grid.n_points)))
        state = CompositeState.create(grid, InternalSpace(E0=100.0, levels=(0.0,) * dim), raw)
        x = grid.x()
        pops = state.branch_populations()
        exact_total = 0.0
        for i, psi in enumerate(state.amplitudes):
            w = psi.real**2 + psi.imag**2
            prob = math.fsum(w * grid.dx)
            assert abs(pops[i] - prob) <= 1e-14 * prob
            mean = math.fsum(w * x * grid.dx) / prob
            spread = math.fsum(np.abs(x) * w * grid.dx) / prob
            assert abs(expectation_x(grid, psi) - mean) <= 2.01e-14 * spread
            exact_total += prob
        assert abs(state.norm() - math.sqrt(exact_total)) <= 1e-14 * math.sqrt(exact_total)


class TestBandRule:
    """``hilbert._require_band`` on per-branch columns: the momenta
    [<p> - max V' T, <p> - min V' T] a branch sweeps, with <p> itself,
    widened by CLEARANCE_SIGMAS sigma_p, stay inside +/- pi hbar / dx."""

    GRID = GridSpec(-40.0, 40.0, 256)  # pi hbar / dx = 10.053 at hbar = 1

    def band(self, means, lows, highs=None, sigma_p=0.25, hbar=1.0, probs=None):
        """The rule over T = 3 on branches of spectral mean ``means`` and
        width ``sigma_p`` in k = p / hbar (unit probability unless
        ``probs``), with V' in [lows, highs] (``highs`` defaults to
        ``lows``, an affine V)."""
        probs = [1.0] * len(means) if probs is None else probs
        skks = [m * m + sigma_p**2 for m in means]
        return _require_band(self.GRID, hbar, [probs, means, skks, lows,
                                               lows if highs is None else highs],
                             3.0, "kind {}", "k")

    def test_a_band_inside_the_grid_passes(self):
        # V' T = 3 and 4 sigma_p = 1: the band is [-4, 1]
        assert self.band([0.0, 0.0], [1.0, 1.0001]) is None

    @pytest.mark.parametrize("means, slopes, branch, band", [
        pytest.param([0.0, 0.0], [4.0, 4.0004], 0, r"\[-13\.000, 1\.000\]", id="fall"),
        pytest.param([0.0, 0.0], [1.0, 4.0], 1, r"\[-13\.000, 1\.000\]", id="heavy-branch"),
        pytest.param([0.0], [-3.5], 0, r"\[-1\.000, 11\.500\]", id="rise"),
        pytest.param([9.5], [0.0], 0, r"\[8\.500, 10\.500\]", id="launch"),
    ])
    def test_a_band_that_leaves_the_grid_is_refused_by_name(self, means, slopes, branch,
                                                             band):
        with pytest.raises(GridResolutionError,
                           match=rf"^kind k: branch {branch}: momentum band {band} leaves "
                                 r"\+/-pi hbar/dx = \+/-10\.053 of grid\.n_points=256;"):
            self.band(means, slopes)

    def test_the_band_spans_the_range_of_the_slope(self):
        # V' from -3 to 3.5 over T = 3: the momenta reach <p> - 10.5 and <p> + 9
        with pytest.raises(GridResolutionError, match=r"band \[-11\.500, 10\.000\]"):
            self.band([0.0], [-3.0], [3.5])

    def test_the_band_is_widened_by_clearance_sigmas_momentum_widths(self):
        # a packet at <p> reaches <p> + CLEARANCE_SIGMAS sigma_p, which must
        # stay below pi hbar / dx
        edge = math.pi / self.GRID.dx - CLEARANCE_SIGMAS * 0.25
        self.band([edge - 1e-9], [0.0])
        with pytest.raises(GridResolutionError, match="momentum band"):
            self.band([edge + 1e-9], [0.0])

    def test_hbar_scales_the_width_and_the_limit_but_not_the_drift(self):
        # the fall case at hbar = 2: 4 sigma_p = 2, so the band [-14, 2] lies
        # inside pi hbar / dx = 20.106; an empty branch is not read
        self.band([0.0, 50.0], [4.0, 4.0], hbar=2.0, probs=[1.0, 1e-13])
        with pytest.raises(GridResolutionError,
                           match=r"branch 0: momentum band \[-23\.000, 2\.000\] leaves "
                                 r".*\+/-20\.106 "):
            self.band([0.0], [7.0], hbar=2.0)

    @pytest.mark.parametrize("lows, highs, band", [
        pytest.param([math.nan], [math.nan], r"\[nan, nan\]", id="both"),
        pytest.param([math.nan], [1.0], r"\[-4\.000, nan\]", id="least"),
        pytest.param([1.0], [math.nan], r"\[nan, 1\.000\]", id="greatest"),
    ])
    def test_a_nan_slope_fails_it(self, lows, highs, band):
        with pytest.raises(GridResolutionError, match=rf"momentum band {band}"):
            self.band([0.0], lows, highs)
