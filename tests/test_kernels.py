import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from massclock import GridSpec, _kernels
from massclock.hilbert import _grid_tables


def _random_problem(seed=0, dim=2, n=512):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
    phases = np.exp(1j * rng.standard_normal((dim, n)))
    return amps, phases, GridSpec(-20.0, 20.0, n)


def test_numpy_phase_multiply_and_moments():
    amps, phases, grid = _random_problem()
    expected = amps * phases
    work = amps.copy()
    _kernels.phase_multiply(work, phases)
    assert np.array_equal(work, expected)
    into = np.empty_like(amps)  # from a source slot into another
    _kernels.phase_multiply(into, phases, work)
    assert np.array_equal(into, expected * phases) and np.array_equal(work, expected)
    x, dx = grid.x(), grid.dx
    m = _kernels.branch_moments(work, _grid_tables(grid).basis)
    w = np.abs(work) ** 2
    assert np.allclose(m[0], w.sum(axis=1) * dx, rtol=1e-13)
    assert np.allclose(m[1], (w @ x) * dx, rtol=1e-12, atol=1e-12)
    assert np.allclose(m[2], (w @ (x * x)) * dx, rtol=1e-13)


@settings(max_examples=200, deadline=None)
@given(log2n=st.integers(3, 12), dim=st.integers(1, 3), x_min=st.floats(-100.0, 50.0),
       length=st.floats(0.5, 200.0), seed=st.integers(0, 2**32 - 1))
def test_branch_moments_match_exact_per_branch_sums(log2n, dim, x_min, length, seed):
    # against correctly rounded sums of sum w dx, sum x w dx, sum x^2 w dx,
    # relative to sum |x|^k w dx (the first moment can cancel to ~0)
    grid = GridSpec(x_min, x_min + length, 2**log2n)
    rng = np.random.default_rng(seed)
    amps = (rng.standard_normal((dim, grid.n_points))
            + 1j * rng.standard_normal((dim, grid.n_points)))
    basis = _grid_tables(grid).basis
    assert not basis.flags.writeable  # one cached basis per grid, shared
    assert basis.shape == (3, 2 * grid.n_points)
    m = _kernels.branch_moments(amps, basis)
    assert m.shape == (3, dim)
    x = grid.x()
    for i in range(dim):
        w = amps[i].real ** 2 + amps[i].imag ** 2
        for k in range(3):
            terms = w * x**k * grid.dx
            exact = math.fsum(terms)
            assert abs(m[k, i] - exact) <= 1e-14 * math.fsum(np.abs(terms))


def test_branch_moments_read_any_layout_as_its_c_ordered_copy():
    # a column-major or strided (dim, N) array gives the bits of its C copy
    amps, _, grid = _random_problem(dim=3)
    table = _grid_tables(grid).basis
    expected = _kernels.branch_moments(amps, table)
    for view in (np.asfortranarray(amps), np.repeat(amps, 2, axis=1)[:, ::2]):
        assert not view.flags.c_contiguous
        assert _kernels.branch_moments(view, table).tobytes() == expected.tobytes()


_COEFFS = st.lists(st.integers(-1000, 1000).map(lambda k: k / 100.0),
                   min_size=4, max_size=4)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(3, 300), dt=st.sampled_from([1e-3, 0.01, 0.1, 0.25, 0.5]),
       coeffs=_COEFFS)
def test_accumulate_phase_exact_on_cubics_at_even_and_quadratics_everywhere(n, dt, coeffs):
    # Composite Simpson is exact on cubics at the even samples; the odd
    # samples close with the quadratic through three samples, exact on
    # quadratics only (on a cubic it misses by O(a3 dt^4)).
    t = np.arange(n) * dt
    for degree in (2, 3):
        a = coeffs[:degree + 1]
        omega = sum(a[k] * t**k for k in range(degree + 1))
        exact = sum(a[k] * t**(k + 1) / (k + 1) for k in range(degree + 1))
        scale = sum(abs(a[k]) * t[-1]**(k + 1) / (k + 1) for k in range(degree + 1))
        err = np.abs(_kernels.accumulate_phase(omega, dt) - exact)
        checked = err if degree == 2 else err[::2]
        assert np.all(checked <= 1e-12 * scale + 1e-300)
