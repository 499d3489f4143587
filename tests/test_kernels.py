import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from massclock import _kernels


def _random_problem(seed=0, dim=2, n=512):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
    phases = np.exp(1j * rng.standard_normal((dim, n)))
    x = np.linspace(-20.0, 20.0, n)
    return amps, phases, x


def test_numpy_phase_multiply_and_moments():
    amps, phases, x = _random_problem()
    expected = amps * phases
    work = amps.copy()
    _kernels.phase_multiply(work, phases)
    assert np.array_equal(work, expected)
    m = _kernels.branch_moments(work, x)
    w = np.abs(work) ** 2
    assert np.allclose(m[:, 0], w.sum(axis=1), rtol=1e-13)
    assert np.allclose(m[:, 1], w @ x, rtol=1e-12, atol=1e-12)


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
