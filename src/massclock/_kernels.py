"""Numpy step and quadrature kernels.

The propagator spends its time in FFTs and in elementwise phase
multiplications over the (level, grid point) amplitude array.  The work
that runs once per time step or batch of steps, and the trajectory
quadrature, lives here:

* ``phase_multiply``   -- amps = source * phases, in place by default (one
                          Strang substep)
* ``branch_moments``   -- per-branch norm / <x> / <x^2> weights: one square
                          of the amplitudes' float view (re^2, im^2 side by
                          side) contracted with the grid's (3, 2N)
                          ``moment_table``, each of [1, x, x^2] dx twice in
                          a row, as one table @ squares.T product, (3, rows);
                          used for the boundary-clearance and norm checks,
                          once per batch of propagation steps over all the
                          batch's rows, and once per map
* ``accumulate_phase`` -- cumulative Simpson integration of a sampled
                          frequency (semiclassical clock phase)

All three are bit-reproducible: same inputs, same output bits.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def phase_multiply(amps: np.ndarray, phases: np.ndarray,
                   source: Optional[np.ndarray] = None) -> None:
    """amps = source * phases, elementwise; ``source`` defaults to ``amps``,
    so the product is taken in place."""
    np.multiply(amps if source is None else source, phases, out=amps)


def moment_table(x: np.ndarray, dx: float) -> np.ndarray:
    """The (3, 2N) table ``branch_moments`` reads for grid positions x:
    rows [1, x, x^2] dx, each entry twice in a row, once for the real and
    once for the imaginary part."""
    return np.repeat(np.stack((np.ones_like(x), x, x * x)) * dx, 2, axis=1)


def branch_moments(amps: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per-branch [sum w dx, sum x w dx, sum x^2 w dx] with w = |a|^2, as a
    (3, rows) array, for the grid's ``moment_table``: row 0 holds every
    branch's probability, row 1 its sum x w dx, row 2 its sum x^2 w dx.

    The float view of a complex row holds its (re, im) pairs, so one
    contiguous square holds re^2 and im^2 side by side, and the table,
    which repeats each weight once per part, sums both in one product.
    Amplitudes in another layout are copied to C order first.
    """
    w = np.ascontiguousarray(amps).view(np.float64)
    return table @ (w * w).T


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
