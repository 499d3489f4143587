import numpy as np
import pytest

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
    gaussian_packet,
    internal_space_from_masses,
    make_superposition,
    overlap,
)
from massclock.hilbert import wavefunction_moments

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

    def test_from_masses_round_trips(self):
        sp = internal_space_from_masses([1.0, 1.1], c=10.0)
        assert sp.E0 == 100.0
        assert np.allclose(sp.mass_energies(10.0), [1.0, 1.1], atol=1e-14)


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
        prob, mean, var = wavefunction_moments(GRID, psi)
        assert abs(prob - 1.0) < 1e-12
        assert abs(mean) < 1e-8
        assert abs(var - 1.0) < 1e-8
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

    def test_branch_populations_sum_to_one(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((2, GRID.n_points)) + 1j * rng.standard_normal((2, GRID.n_points))
        state = CompositeState.create(GRID, TWO_LEVEL, raw, normalize=True)
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
            rng.standard_normal((2, GRID.n_points)) + 1j * rng.standard_normal((2, GRID.n_points)),
            normalize=True)
        for _ in range(20):
            a, b = mk(), mk()
            assert abs(overlap(a, b) - np.conj(overlap(b, a))) < 1e-15

    def test_modulus_bounded_by_one(self):
        rng = np.random.default_rng(17)
        mk = lambda: CompositeState.create(
            GRID, TWO_LEVEL,
            rng.standard_normal((2, GRID.n_points)) + 1j * rng.standard_normal((2, GRID.n_points)),
            normalize=True)
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
