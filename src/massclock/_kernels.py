"""Numpy step and quadrature kernels.

The propagator spends its time in FFTs and in elementwise phase
multiplications over the (level, grid point) amplitude array.  The work
that runs once per time step, and the trajectory quadrature, lives here:

* ``phase_multiply``   -- in-place  amps *= phases  (one Strang substep)
* ``branch_moments``   -- per-branch norm / <x> / <x^2> weights as one
                          matmul |a|^2 @ basis against the grid's (N, 3)
                          moment basis [1, x, x^2] dx, used for the per-step
                          boundary-clearance and norm checks
* ``accumulate_phase`` -- cumulative Simpson integration of a sampled
                          frequency (semiclassical clock phase)

All three are bit-reproducible: same inputs, same output bits.
"""

from __future__ import annotations

import numpy as np


def phase_multiply(amps: np.ndarray, phases: np.ndarray) -> None:
    amps *= phases


def branch_moments(amps: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Per-branch [sum w dx, sum x w dx, sum x^2 w dx] with w = |a|^2, for
    the (N, 3) moment basis [1, x, x^2] dx of the grid."""
    return (amps.real ** 2 + amps.imag ** 2) @ basis


def accumulate_phase(omega: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative integral of omega(t) on a uniform grid.

    Composite Simpson on even sample indices; odd indices close the last
    interval with the quadratic through the three latest samples.  One
    ``cumsum`` adds the Simpson panels left to right starting from
    phi[0] = 0, so every sample is rounded exactly as by the sequential
    recurrence phi[k] = phi[k - 2] + panel.
    """
    omega = np.asarray(omega, dtype=float)
    dt = float(dt)
    n = omega.shape[0]
    phi = np.zeros(n)
    if n < 2:
        return phi
    if n == 2:
        phi[1] = 0.5 * dt * (omega[0] + omega[1])
        return phi
    even = np.zeros((n + 1) // 2)
    even[1:] = dt * (omega[:-2:2] + 4.0 * omega[1:-1:2] + omega[2::2]) / 3.0
    phi[::2] = np.cumsum(even)
    phi[1] = dt * (5.0 * omega[0] + 8.0 * omega[1] - omega[2]) / 12.0
    phi[3::2] = phi[2:-1:2] + dt * (-omega[1:-2:2] + 8.0 * omega[2:-1:2] + 5.0 * omega[3::2]) / 12.0
    return phi
