"""Independent oracles the tests freeze expected values from.

Everything here deliberately avoids the package's own pipelines: dense
matrices instead of FFT pipelines, closed forms instead of propagators,
pointwise coordinate maps instead of the group composition law.
"""

import math

import numpy as np

from massclock.errors import BoundaryViolationError, PreconditionError


# --- dense-matrix unitaries (vs the spectral pipeline) ------------------------

def dft_matrix(n: int) -> np.ndarray:
    """Matrix of np.fft.fft: F[k, m] = exp(-2 pi i k m / n)."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def dense_translation(grid, a: float, hbar: float) -> np.ndarray:
    n = grid.n_points
    f = dft_matrix(n)
    f_inv = np.conj(f).T / n
    phase = np.exp(-1j * grid.p(hbar) * a / hbar)
    return f_inv @ np.diag(phase) @ f


def dense_boost(grid, mass: float, w: float, hbar: float) -> np.ndarray:
    return np.diag(np.exp(1j * mass * w * grid.x() / hbar))


def dense_loop_matrix(grid, mass: float, a: float, w: float, hbar: float) -> np.ndarray:
    """U(g_-a) U(g_-w) U(g_a) U(g_w) as one dense matrix."""
    return (dense_translation(grid, -a, hbar)
            @ dense_boost(grid, mass, -w, hbar)
            @ dense_translation(grid, a, hbar)
            @ dense_boost(grid, mass, w, hbar))


def dense_loop_phase(grid, mass: float, a: float, w: float, hbar: float,
                     psi: np.ndarray) -> float:
    """Branch phase of the dense-matrix loop applied to one wavefunction."""
    looped = dense_loop_matrix(grid, mass, a, w, hbar) @ psi
    return float(np.angle(np.sum(np.conj(psi) * looped) * grid.dx))


# --- out-of-place Strang step (vs the in-place propagator step) ---------------

def strang_step(amps: np.ndarray, exp_v_half: np.ndarray,
                exp_t: np.ndarray) -> np.ndarray:
    """One Strang step with a fresh array per stage.

    The operands keep the order of ``amps *= phases``: numpy's complex
    product is not bitwise commutative, so ``phases * amps`` can differ in
    the last bit.
    """
    return np.fft.ifft(np.fft.fft(amps * exp_v_half, axis=1) * exp_t, axis=1) * exp_v_half


def per_run_strang(initial, tables, steps: int, sample_every: int):
    """Each run stepped alone on its own (dim, N) buffer.

    ``initial`` holds each run's amplitudes and ``tables`` its
    ``(exp_v_half, exp_t)``.  A free run, whose ``exp_v_half`` is constant
    along every row, is stepped on its spectrum ``np.fft.fft(initial)``:
    V half, T and V half multiply it, in that order and out of place, and
    one ``np.fft.ifft`` gives its amplitudes.  Any other run is stepped by
    ``strang_step``.  Returns, at step 0 and after every ``sample_every``
    steps, the list of every run's amplitudes.  The reference a stacked
    buffer must match bit for bit, run by run.
    """
    amps = [np.array(a) for a in initial]
    spectra = [np.fft.fft(a, axis=1) if np.all(v_half == v_half[:, :1]) else None
               for a, (v_half, _) in zip(amps, tables)]
    samples = [amps]
    for k in range(1, steps + 1):
        stepped = []
        for r, (a, (v_half, t)) in enumerate(zip(amps, tables)):
            if spectra[r] is None:
                stepped.append(strang_step(a, v_half, t))
            else:
                spectra[r] = spectra[r] * v_half * t * v_half
                stepped.append(np.fft.ifft(spectra[r], axis=1))
        amps = stepped
        if k % sample_every == 0:
            samples.append(amps)
    return samples


def per_run_check(grid, moments, rows, step_no: int):
    """The step check run by run, each run read alone from its own rows.

    ``moments`` holds one ``[prob, sum x w dx, sum x^2 w dx]`` list per
    buffer row and ``rows`` each run's slice of them.  A run fails the norm
    rule on its total first, then the clearance rule on its first populated
    branch whose <x> +/- 4 sigma_x leaves the domain; the first failing run
    raises, with the message text of its rule.  Returns every run's total.
    The reference ``hilbert._check_steps`` must match, refusal for refusal.
    """
    totals = []
    for run_rows in rows:
        own = moments[run_rows]
        total = sum(row[0] for row in own)
        if not abs(total - 1.0) <= 1e-10:
            raise PreconditionError(f"step {step_no}: total probability {total!r} "
                                    "deviates from 1 beyond 1e-10")
        for i, (prob, sx, sxx) in enumerate(own):
            if prob <= 1e-12:
                continue
            mean = sx / prob
            var = max(sxx / prob - mean**2, 0.0)
            half = 4.0 * math.sqrt(var)
            if mean - half < grid.x_min or mean + half > grid.x_max:
                raise BoundaryViolationError(
                    f"step {step_no}: branch {i}: <x>={mean:.3f}, 4.0 sigma_x={half:.3f} "
                    f"leaves [{grid.x_min}, {grid.x_max}]")
        totals.append(total)
    return totals


def per_step_run(grid, initial, tables, steps: int):
    """Each run stepped alone as ``per_run_strang`` steps it, with every
    step checked by ``per_run_check`` on moments summed by numpy from the
    rows of that step: returns the first refusal (None if no step is
    refused) and every run's amplitudes after the last step.  The
    reference for a propagation whose free runs are checked in x space
    only where they are read."""
    x = grid.x()
    rows, lo = [], 0
    for amps in initial:
        rows.append(slice(lo, lo + len(amps)))
        lo += len(amps)
    samples = per_run_strang(initial, tables, steps, 1)
    for k in range(1, steps + 1):
        w = np.abs(np.concatenate(samples[k])) ** 2
        moments = np.stack([w.sum(1), (w * x).sum(1), (w * x * x).sum(1)], axis=1) * grid.dx
        try:
            per_run_check(grid, moments.tolist(), rows, k)
        except (PreconditionError, BoundaryViolationError) as refusal:
            return refusal, None
    return None, samples[-1]


def per_run_band(grid, initial, v_tables, hbars, total_time: float):
    """The momentum-band rule run by run, read from the definitions: each
    branch's momentum distribution |fft(psi)|^2 over ``grid.p(hbar)``,
    summed with ``math.fsum``, and its slope dV/dx as forward differences
    of its row of ``v_tables``.  Returns ``(run, branch, lo, hi)`` of the
    first populated branch whose band [min(<p> - max V' T, <p>),
    max(<p> - min V' T, <p>)] +/- 4 sigma_p leaves +/- pi hbar / dx, or
    None.  The reference ``_Plan.require_band`` must match."""
    for r, (amps, v_table, hbar) in enumerate(zip(initial, v_tables, hbars)):
        p = grid.p(hbar)
        limit = math.pi * hbar / grid.dx
        for i, (row, v) in enumerate(zip(amps, v_table)):
            w = np.abs(np.fft.fft(row)) ** 2
            total = math.fsum(w)
            if total * grid.dx / grid.n_points <= 1e-12:
                continue
            mean = math.fsum(w * p) / total
            sigma = math.sqrt(max(math.fsum(w * (p - mean) ** 2) / total, 0.0))
            slopes = (v[1:] - v[:-1]) / grid.dx
            lo = min(mean - slopes.max() * total_time, mean) - 4.0 * sigma
            hi = max(mean - slopes.min() * total_time, mean) + 4.0 * sigma
            if not -limit < lo <= hi < limit:
                return r, i, lo, hi
    return None

# --- per-sample references (vs the blocked residual and the cached frame path) --

def per_sample_residual(history, dt: float, t_table: np.ndarray, v_table: np.ndarray,
                        masses: np.ndarray, hbar: float,
                        non_inertial_accel=None) -> float:
    """Max || i hbar d phi/dt - H phi || over the interior samples, one
    sample at a time, from the kind's (dim, N) tables T_i(p_k), V_i(x_n)
    and the branch mass-energies.

    The reference the blocked ``schrodinger_residual`` must match bit for bit.
    """
    grid = history[0].grid
    x = grid.x()
    worst = 0.0
    for k in range(1, len(history) - 1):
        phi = history[k].amplitudes
        dphi = (history[k + 1].amplitudes - history[k - 1].amplitudes) / (2.0 * dt)
        h_phi = np.fft.ifft(t_table * np.fft.fft(phi, axis=1), axis=1) + v_table * phi
        if non_inertial_accel is not None:
            h_phi = h_phi + (masses[:, None] * non_inertial_accel[k]) * x[None, :] * phi
        resid = 1j * hbar * dphi - h_phi
        worst = max(worst, float(np.sqrt(np.sum(np.abs(resid) ** 2) * grid.dx)))
    return worst


def translate_amplitudes(amps: np.ndarray, grid, a: float) -> np.ndarray:
    """Raw (dim, N) amplitudes shifted by a, with ``exp`` of a complex
    argument over the full fresh frequency table, all N entries, and
    out-of-place FFTs.

    The reference ``symmetry._translate`` must match bit for bit.
    """
    phase = np.exp(-2j * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx) * a)
    return np.fft.ifft(np.fft.fft(amps, axis=1) * phase, axis=1)


def frame_transform_amplitudes(amps: np.ndarray, grid, masses: np.ndarray,
                               xi: float, v: float, action: float, hbar: float) -> np.ndarray:
    """Moving-frame map of raw (dim, N) amplitudes with complex phase
    arguments and ``translate_amplitudes``.

    The reference ``frame_transform`` must match bit for bit.
    """
    x = grid.x()
    phase = np.exp(-1j * (masses[:, None] * (v * x[None, :] + action)) / hbar)
    return translate_amplitudes(amps, grid, -xi) * phase


# --- closed forms --------------------------------------------------------------

def gaussian_overlap_modulus(d: float, sigma: float) -> float:
    """|<g(x0)|g(x0+d)>| for two equal-width normalized Gaussians."""
    return float(np.exp(-d**2 / (8.0 * sigma**2)))


def spectral_mean_momentum(grid, psi: np.ndarray, hbar: float) -> float:
    """<p> by spectral differentiation: Re int conj(psi) (-i hbar d/dx) psi."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
    dpsi = np.fft.ifft(1j * k * np.fft.fft(psi))
    val = np.sum(np.conj(psi) * (-1j * hbar) * dpsi) * grid.dx
    return float(val.real)


# --- coordinate actions ---------------------------------------------------------

def galilei_point(w: float, a: float, b: float, x: float, t: float):
    return x + w * t + a, t + b


def extended_point(alpha: float, w: float, a: float, b: float,
                   q: float, x: float, t: float):
    return (q + alpha - w * x - 0.5 * w**2 * t, x + w * t + a, t + b)


def chain_galilei_points(elements, x: float, t: float):
    """Apply a sequence of (w, a, b) actions, first element first."""
    for (w, a, b) in elements:
        x, t = galilei_point(w, a, b, x, t)
    return x, t


def chain_extended_points(elements, q: float, x: float, t: float):
    """Apply a sequence of (alpha, w, a, b) actions, first element first."""
    for (alpha, w, a, b) in elements:
        q, x, t = extended_point(alpha, w, a, b, q, x, t)
    return q, x, t


# --- sequential quadrature (vs the vectorized kernel) ---------------------------

def sequential_simpson(omega: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative Simpson as a plain loop, one sample at a time.

    The reference the vectorized ``accumulate_phase`` must match bit for bit.
    """
    n = omega.shape[0]
    phi = np.zeros(n)
    for k in range(1, n):
        if k == 1:
            if n > 2:
                phi[1] = dt * (5.0 * omega[0] + 8.0 * omega[1] - omega[2]) / 12.0
            else:
                phi[1] = 0.5 * dt * (omega[0] + omega[1])
        elif k % 2 == 0:
            phi[k] = phi[k - 2] + dt * (omega[k - 2] + 4.0 * omega[k - 1] + omega[k]) / 3.0
        else:
            phi[k] = phi[k - 1] + dt * (-omega[k - 2] + 8.0 * omega[k - 1] + 5.0 * omega[k]) / 12.0
    return phi


# --- misc -----------------------------------------------------------------------

def l2_distance(grid, amps_a: np.ndarray, amps_b: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(amps_a - amps_b) ** 2) * grid.dx))


def finite_difference_slope(times: np.ndarray, values: np.ndarray) -> float:
    """Mean rate over the window by first/last difference."""
    return float((values[-1] - values[0]) / (times[-1] - times[0]))
