import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from massclock import (
    BoundaryViolationError,
    CompositeState,
    GalileiElement,
    GridSpec,
    InternalSpace,
    PhysicalParams,
    PreconditionError,
    apply_boost,
    apply_translation,
    bargmann_loop_element,
    boost_element,
    commutator_residual,
    compose_extended,
    compose_galilei,
    expectation_x,
    extended_loop_element,
    gaussian_packet,
    internal_space_from_masses,
    invert_galilei,
    loop_phase,
    make_superposition,
    overlap,
    seam_mismatch,
    time_shift_element,
    translation_element,
    wrap_angle,
)
from massclock.hilbert import _grid_tables
from massclock.symmetry import ExtendedGalileiElement, _translate

import oracles

GRID = GridSpec(-40.0, 40.0, 2048)
PARAMS = PhysicalParams(hbar=1.0, c=10.0, E0=100.0)
INTERNAL = InternalSpace(E0=100.0, levels=(0.0, 10.0))


def single_branch_state(grid=GRID, sigma=1.0, x0=0.0, p0=0.0):
    sp = internal_space_from_masses([1.0], 10.0)
    psi = gaussian_packet(grid, x0, p0, sigma)
    return make_superposition(grid, sp, [1.0], psi), sp


def two_branch_state(grid=GRID, sigma=1.0):
    psi = gaussian_packet(grid, 0.0, 0.0, sigma)
    w = np.full(2, 2**-0.5)
    return make_superposition(grid, INTERNAL, w, psi)


# Group elements and spacetime points drawn for the pointwise group laws.
_COORD = st.floats(-5.0, 5.0)
_GALILEI = st.builds(GalileiElement, _COORD, _COORD, _COORD)
_EXTENDED = st.builds(ExtendedGalileiElement, _COORD, _GALILEI)


def _fold(compose, elements):
    """The composite of ``elements``, acting as the first one first."""
    return functools.reduce(lambda acc, g: compose(g, acc), elements)


def _galilei_actions(elements):
    return [(g.w, g.a, g.b) for g in elements]


class TestAbstractGroup:
    def test_identity_composition(self):
        g = GalileiElement(w=1.2, a=-0.4, b=0.9)
        assert compose_galilei(GalileiElement.identity(), g) == g
        assert compose_galilei(g, GalileiElement.identity()) == g

    def test_translations_add(self):
        g = compose_galilei(translation_element(1.0), translation_element(2.0))
        assert g == GalileiElement(w=0.0, a=3.0, b=0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_GALILEI, min_size=2, max_size=4), _COORD, _COORD)
    @example([time_shift_element(2.0), boost_element(1.0)], 5.0, -5.0)
    def test_composition_matches_pointwise_action(self, elements, x, t):
        comp = _fold(compose_galilei, elements)
        seq = oracles.chain_galilei_points(_galilei_actions(elements), x, t)
        assert np.allclose(comp.action(x, t), seq, rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(_GALILEI, _GALILEI, _GALILEI, _COORD, _COORD)
    def test_associativity_and_inverse(self, g1, g2, g3, x, t):
        left = compose_galilei(compose_galilei(g3, g2), g1)
        right = compose_galilei(g3, compose_galilei(g2, g1))
        for attr in ("w", "a", "b"):
            assert abs(getattr(left, attr) - getattr(right, attr)) < 1e-12
        inv = invert_galilei(g1)
        for pair in ((g1, inv), (inv, g1)):
            back = oracles.chain_galilei_points(_galilei_actions(pair), x, t)
            assert np.allclose(back, (x, t), rtol=0, atol=1e-12)
            ident = _fold(compose_galilei, pair)
            assert max(abs(ident.w), abs(ident.a), abs(ident.b)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(_COORD, _COORD, _COORD, _COORD)
    @example(2.0, 3.0, 3.0, -3.0)
    @example(0.0, 5.0, -5.0, 5.0)
    @example(-1.3, 0.7, 1.0, 2.0)
    def test_bargmann_loop_is_identity(self, a, w, x, t):
        assert bargmann_loop_element(a, w).is_identity()
        seq = oracles.chain_galilei_points(
            [(w, 0, 0), (0, a, 0), (-w, 0, 0), (0, -a, 0)], x, t)
        assert np.allclose(seq, (x, t), rtol=0, atol=1e-12)


class TestExtendedGroup:
    def test_action_rule(self):
        h = ExtendedGalileiElement(alpha=0.3, g=GalileiElement(w=1.0, a=2.0, b=0.5))
        q, x, t = h.action(0.1, 0.7, -0.2)
        eq, ex, et = oracles.extended_point(0.3, 1.0, 2.0, 0.5, 0.1, 0.7, -0.2)
        assert (q, x, t) == (eq, ex, et)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_EXTENDED, min_size=2, max_size=4), _COORD, _COORD, _COORD)
    def test_composition_matches_pointwise_action(self, elements, q, x, t):
        comp = _fold(compose_extended, elements)
        seq = oracles.chain_extended_points(
            [(h.alpha, h.g.w, h.g.a, h.g.b) for h in elements], q, x, t)
        assert np.allclose(comp.action(q, x, t), seq, rtol=0, atol=1e-10)

    def test_loop_shifts_internal_coordinate(self):
        el = extended_loop_element(2.0, 3.0)
        assert el.alpha == 6.0
        assert el.g.is_identity()
        assert extended_loop_element(0.0, 3.0).alpha == 0.0
        assert extended_loop_element(2.0, -3.0).alpha == -6.0

    def test_loop_alpha_is_computed_bilinear(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            a, w = rng.uniform(-3, 3, size=2)
            el = extended_loop_element(a, w)
            assert el.alpha == a * w  # computed through the four compositions
            assert el.g.is_identity()


class TestTranslation:
    def test_zero_is_identity(self):
        state, _ = single_branch_state()
        moved = apply_translation(state, 0.0)
        assert abs(overlap(state, moved) - 1.0) < 1e-12

    def test_shifts_mean(self):
        state, _ = single_branch_state()
        moved = apply_translation(state, 3.0)
        assert expectation_x(GRID, moved.amplitudes[0]) == pytest.approx(3.0, abs=1e-8)

    def test_inverse(self):
        state, _ = single_branch_state()
        back = apply_translation(apply_translation(state, 2.5), -2.5)
        assert abs(overlap(state, back) - 1.0) < 1e-12

    def test_norm_preserved(self):
        state, _ = single_branch_state()
        assert abs(apply_translation(state, 1.7).norm() - 1.0) < 1e-12

    def test_unitary_on_arbitrary_states(self):
        # not just Gaussians: random compactly supported states
        rng = np.random.default_rng(21)
        x = GRID.x()
        window = np.exp(-(x / 8.0) ** 2)
        for _ in range(5):
            raw = window * (rng.standard_normal((2, GRID.n_points))
                            + 1j * rng.standard_normal((2, GRID.n_points)))
            state = CompositeState.create(GRID, INTERNAL, raw)
            assert abs(apply_translation(state, 1.3).norm() - 1.0) < 1e-12
            assert abs(apply_boost(state, 0.7, 0.0, PARAMS).norm() - 1.0) < 1e-12
            assert abs(apply_boost(state, 0.7, 1.5, PARAMS).norm() - 1.0) < 1e-12

    def test_boundary_violation(self):
        state, _ = single_branch_state(x0=30.0)
        with pytest.raises(BoundaryViolationError):
            apply_translation(state, 8.0)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), log_n=st.integers(3, 12), dim=st.integers(1, 3),
           x_min=st.floats(-50.0, 0.0), length=st.floats(1.0, 100.0),
           seed=st.integers(0, 2**32 - 1))
    def test_half_table_equals_the_full_table_bit_for_bit(self, data, log_n, dim,
                                                          x_min, length, seed):
        # exp on k = 0 .. N/2 and conjugates for the rest, against exp on
        # all N entries of a fresh fftfreq table
        grid = GridSpec(x_min, x_min + length, 2**log_n)
        a = data.draw(st.one_of(
            st.floats(-2.0 * length, 2.0 * length),
            st.sampled_from([0.0, -0.0]),
            st.integers(-2 * grid.n_points, 2 * grid.n_points).map(lambda j: j * grid.dx),
        ))
        rng = np.random.default_rng(seed)
        amps = (rng.standard_normal((dim, grid.n_points))
                + 1j * rng.standard_normal((dim, grid.n_points)))
        got = _translate(_grid_tables(grid), amps, a)
        assert np.array_equal(got, oracles.translate_amplitudes(amps, grid, a))


class TestBoost:
    def test_zero_is_identity(self):
        state, sp = single_branch_state()
        params = PhysicalParams(hbar=1.0, c=10.0, E0=sp.E0)
        assert abs(overlap(state, apply_boost(state, 0.0, 0.0, params)) - 1.0) < 1e-12

    def test_momentum_shift(self):
        state, sp = single_branch_state()
        params = PhysicalParams(hbar=1.0, c=10.0, E0=sp.E0)
        boosted = apply_boost(state, 2.0, 0.0, params)
        # oracle: spectral-derivative <p> on the output array
        assert abs(oracles.spectral_mean_momentum(GRID, boosted.amplitudes[0], 1.0) - 2.0) < 1e-6

    def test_inverse(self):
        state, sp = single_branch_state()
        params = PhysicalParams(hbar=1.0, c=10.0, E0=sp.E0)
        back = apply_boost(apply_boost(state, 2.0, 0.0, params), -2.0, 0.0, params)
        assert abs(overlap(state, back) - 1.0) < 1e-12

    def test_finite_time_boost_translates_and_phases(self):
        state, sp = single_branch_state()
        params = PhysicalParams(hbar=1.0, c=10.0, E0=sp.E0)
        w, t = 1.5, 2.0
        boosted = apply_boost(state, w, t, params)
        manual = apply_translation(state, w * t)
        x = GRID.x()
        amps = manual.amplitudes * np.exp(1j * (1.0 * w * x - 0.5 * 1.0 * w**2 * t))
        assert abs(overlap(boosted, manual.with_amplitudes(amps)) - 1.0) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(w=st.floats(-2.0, 2.0), t=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
           hbar=st.floats(0.2, 5.0),
           levels=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3),
           log_n=st.integers(8, 11))
    def test_is_the_frame_map_bit_for_bit(self, w, t, hbar, levels, log_n):
        # the boost by w at t is the frame map riding xi = -w t, with
        # xi_dot = -w and S = w^2 t / 2
        grid = GridSpec(-20.0, 20.0, 2**log_n)
        internal = InternalSpace(E0=100.0, levels=tuple(sorted(levels)))
        params = PhysicalParams(hbar=hbar, c=10.0, E0=100.0)
        weights = np.full(internal.dim, internal.dim**-0.5)
        state = make_superposition(grid, internal, weights,
                                   gaussian_packet(grid, 0.0, 0.0, 1.0))
        out = apply_boost(state, w, t, params)
        expected = oracles.frame_transform_amplitudes(
            state.amplitudes, grid, internal.mass_energies(params.c),
            -w * t, -w, 0.5 * w * w * t, hbar)
        assert np.array_equal(out.amplitudes, expected)

    def test_seam_mismatch_reporting(self):
        state, sp = single_branch_state()
        params = PhysicalParams(hbar=1.0, c=10.0, E0=sp.E0)
        commensurate = 2.0 * np.pi * 5 / (1.0 * GRID.length)  # M w L / hbar = 10 pi
        assert seam_mismatch(state, commensurate, params)[0] < 1e-12
        assert seam_mismatch(state, 0.8, params)[0] > 1e-3

    def test_reads_the_mass_column_once(self, monkeypatch):
        calls = []
        mass_energies = InternalSpace.mass_energies

        def counted(internal, c):
            calls.append(c)
            return mass_energies(internal, c)

        monkeypatch.setattr(InternalSpace, "mass_energies", counted)
        apply_boost(two_branch_state(), 0.8, 0.5, PARAMS)
        assert calls == [PARAMS.c]

    def test_warns_for_incommensurate_boost_on_seam_hugging_state(self):
        grid = GridSpec(-20.0, 20.0, 1024)
        sp = internal_space_from_masses([1.0], 10.0)
        params = PhysicalParams(hbar=1.0, c=10.0, E0=sp.E0)
        psi = gaussian_packet(grid, 16.0, 0.0, 1.0)
        state = make_superposition(grid, sp, [1.0], psi)
        with pytest.warns(UserWarning, match="incommensurate"):
            apply_boost(state, 0.8, 0.0, params)


class TestLoopPhase:
    def test_single_branch_value_and_dense_oracle(self):
        state, sp = single_branch_state()
        params = PhysicalParams(hbar=1.0, c=10.0, E0=sp.E0)
        phases = loop_phase(state, 0.5, 0.8, params)
        assert phases[0].phase == pytest.approx(-0.4, abs=1e-10)
        assert phases[0].fidelity == pytest.approx(1.0, abs=1e-10)

        # dense-matrix oracle on a small grid
        grid64 = GridSpec(-20.0, 20.0, 64)
        psi = gaussian_packet(grid64, 0.0, 0.0, 3.0)
        small = make_superposition(grid64, sp, [1.0], psi)
        via_pipeline = loop_phase(small, 0.5, 0.8, params)[0].phase
        via_dense = oracles.dense_loop_phase(grid64, 1.0, 0.5, 0.8, 1.0, small.amplitudes[0])
        assert via_pipeline == pytest.approx(via_dense, abs=1e-10)

    def test_zero_translation_gives_zero_phase(self):
        state = two_branch_state()
        for bp in loop_phase(state, 0.0, 0.8, PARAMS):
            assert bp.phase == pytest.approx(0.0, abs=1e-10)

    def test_two_branch_relative_phase(self):
        state = two_branch_state()
        phases = loop_phase(state, 0.5, 0.8, PARAMS)
        rel = wrap_angle(phases[0].phase - phases[1].phase)
        assert rel == pytest.approx(0.04, abs=1e-8)

    def test_abstract_identity_vs_projective_phase(self):
        # the pair of facts: composition is trivial, representation is not
        a, w = 0.5, 0.8
        assert bargmann_loop_element(a, w).is_identity()
        state = two_branch_state()
        phases = loop_phase(state, a, w, PARAMS)
        masses = INTERNAL.mass_energies(PARAMS.c)
        for bp, m in zip(phases, masses):
            assert bp.phase == pytest.approx(wrap_angle(-m * a * w), abs=1e-8)
            assert abs(bp.phase) > 0.1  # manifestly not the identity

    def test_relative_phase_invariant_under_common_mass_shift(self):
        a, w = 0.5, 0.8
        state = two_branch_state()
        phases = loop_phase(state, a, w, PARAMS)
        rel = wrap_angle(phases[0].phase - phases[1].phase)

        shifted = internal_space_from_masses([1.5, 1.6], 10.0)
        params = PhysicalParams(hbar=1.0, c=10.0, E0=shifted.E0)
        psi = gaussian_packet(GRID, 0.0, 0.0, 1.0)
        state2 = make_superposition(GRID, shifted, np.full(2, 2**-0.5), psi)
        phases2 = loop_phase(state2, a, w, params)
        rel2 = wrap_angle(phases2[0].phase - phases2[1].phase)
        assert rel2 == pytest.approx(rel, abs=1e-10)


class TestCommutatorResidual:
    def test_small_on_centered_packet(self):
        state, sp = single_branch_state()
        params = PhysicalParams(hbar=1.0, c=10.0, E0=sp.E0)
        assert commutator_residual(state, 0.0, params)[0] < 1e-6

    def test_time_independent(self):
        state, sp = single_branch_state()
        params = PhysicalParams(hbar=1.0, c=10.0, E0=sp.E0)
        r0 = commutator_residual(state, 0.0, params)[0]
        r5 = commutator_residual(state, 5.0, params)[0]
        assert abs(r0 - r5) < 1e-9

    def test_boundary_violation(self):
        sp = internal_space_from_masses([1.0], 10.0)
        x = GRID.x()
        raw = np.exp(-(x - 38.5) ** 2 / 4.0)[None, :]
        state = CompositeState.create(GRID, sp, raw)
        params = PhysicalParams(hbar=1.0, c=10.0, E0=sp.E0)
        with pytest.raises(BoundaryViolationError):
            commutator_residual(state, 0.0, params)

    def test_an_unpopulated_branch_is_refused_by_name(self):
        # its residual would be 0/0
        psi = gaussian_packet(GRID, 0.0, 0.0, 1.0)
        state = make_superposition(GRID, INTERNAL, [1.0, 0.0], psi)
        with pytest.raises(PreconditionError,
                           match="^branch 1 norm too small for a commutator residual$"):
            commutator_residual(state, 0.0, PARAMS)

    def test_p_psi_is_computed_once_per_branch(self, monkeypatch):
        # p psi, p (p psi) and p (K psi): three FFT pairs per branch
        calls = []
        real = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda a: calls.append(1) or real(a))
        psi = gaussian_packet(GRID, 0.0, 0.0, 1.0)
        state = make_superposition(GRID, INTERNAL, [1.0, 1.0], psi)
        commutator_residual(state, 0.0, PARAMS)
        assert len(calls) == 3 * INTERNAL.dim


class TestAmplitudeLayout:
    def test_state_from_a_column_major_array_boosts_and_checks_as_row_major(self):
        # (N, dim).T is a Fortran-ordered (dim, N) array; the state stores it
        # C-ordered, and the moments pass reads the numbers, not the layout
        psi = gaussian_packet(GRID, 0.0, 0.0, 1.0)
        raw = np.stack([psi, 0.5 * psi], axis=1).T
        assert not raw.flags.c_contiguous
        state = CompositeState.create(GRID, INTERNAL, raw)
        row_major = CompositeState.create(GRID, INTERNAL, np.ascontiguousarray(raw))
        assert state.amplitudes.flags.c_contiguous
        assert state.amplitudes.tobytes() == row_major.amplitudes.tobytes()
        boosted = apply_boost(state, 0.3, 0.0, PARAMS)
        assert boosted.amplitudes.tobytes() == apply_boost(
            row_major, 0.3, 0.0, PARAMS).amplitudes.tobytes()
        assert np.array_equal(commutator_residual(state, 0.0, PARAMS),
                              commutator_residual(row_major, 0.0, PARAMS))
