import numpy as np

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
