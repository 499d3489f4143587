"""Galilei group, its central extension, and their action on states.

Abstract layer: group elements (w, a, b) composing through their action on
spacetime points g(x, t) = (x + w t + a, t + b), and extended elements
(alpha; w, a, b) acting additionally on an internal coordinate q as
q -> q + alpha - w x - w^2 t / 2.  The translate-boost-untranslate-unboost
loop is the identity in the plain group but shifts q by w*a in the
extension.

Unitary layer: on a CompositeState, translations act as exp(-i p a / hbar)
and a boost at time t acts branch-wise as exp(+i w (M_i x - t p) / hbar),
i.e. at t = 0 branch i picks up exp(i M_i w x / hbar) and gains momentum
M_i w.  With these conventions the loop multiplies branch i by
exp(-i M_i a w / hbar): the representation is projective even though the
abstract loop is trivial.  Boosts and the moving frames of
``dynamics.frame_transform`` are one map, ``_galilei_map``: a translation
by a, then the branch phase exp(i M_i (u x + phi) / hbar).  A translation's
or a map's output, and the state a commutator residual reads, pass
``hilbert._check`` (the norm rule, then the clearance rule, from one
moments pass), whose refusal names the operation and its inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import PreconditionError
from .hilbert import (
    _POPULATED,
    BranchPhase,
    CompositeState,
    PhysicalParams,
    _check,
    _GridTables,
    _grid_tables,
    _require_finite,
    branch_phase,
)

# --- abstract group ---------------------------------------------------------


@dataclass(frozen=True)
class GalileiElement:
    """Boost w, space translation a, time translation b (rotation = identity)."""

    w: float = 0.0
    a: float = 0.0
    b: float = 0.0

    @classmethod
    def identity(cls) -> "GalileiElement":
        return cls(0.0, 0.0, 0.0)

    def action(self, x, t):
        """Apply to a spacetime point: (x, t) -> (x + w t + a, t + b)."""
        return x + self.w * t + self.a, t + self.b

    def is_identity(self) -> bool:
        return self.w == 0.0 and self.a == 0.0 and self.b == 0.0


def translation_element(a: float) -> GalileiElement:
    return GalileiElement(a=a)


def boost_element(w: float) -> GalileiElement:
    return GalileiElement(w=w)


def time_shift_element(b: float) -> GalileiElement:
    return GalileiElement(b=b)


def compose_galilei(g2: GalileiElement, g1: GalileiElement) -> GalileiElement:
    """Element acting as g2 after g1 on every spacetime point."""
    return GalileiElement(
        w=g1.w + g2.w,
        a=g1.a + g2.a + g2.w * g1.b,
        b=g1.b + g2.b,
    )


def invert_galilei(g: GalileiElement) -> GalileiElement:
    return GalileiElement(w=-g.w, a=g.w * g.b - g.a, b=-g.b)


def bargmann_loop_element(a: float, w: float) -> GalileiElement:
    """g_{-a} g_{-w} g_{a} g_{w}; equals the identity element exactly."""
    seq = compose_galilei(translation_element(a), boost_element(w))
    seq = compose_galilei(boost_element(-w), seq)
    return compose_galilei(translation_element(-a), seq)


@dataclass(frozen=True)
class ExtendedGalileiElement:
    """Central-extension element: internal shift alpha plus a Galilei part."""

    alpha: float
    g: GalileiElement

    @classmethod
    def translation(cls, a: float) -> "ExtendedGalileiElement":
        return cls(0.0, translation_element(a))

    @classmethod
    def boost(cls, w: float) -> "ExtendedGalileiElement":
        return cls(0.0, boost_element(w))

    def action(self, q, x, t):
        """(q, x, t) -> (q + alpha - w x - w^2 t / 2, x + w t + a, t + b)."""
        g = self.g
        return (
            q + self.alpha - g.w * x - 0.5 * g.w**2 * t,
            x + g.w * t + g.a,
            t + g.b,
        )


def compose_extended(h2: ExtendedGalileiElement,
                     h1: ExtendedGalileiElement) -> ExtendedGalileiElement:
    """Defined so the composite's action equals action(h2) after action(h1)."""
    g1, g2 = h1.g, h2.g
    alpha = h1.alpha + h2.alpha - g2.w * g1.a - 0.5 * g2.w**2 * g1.b
    return ExtendedGalileiElement(alpha=alpha, g=compose_galilei(g2, g1))


def extended_loop_element(a: float, w: float) -> ExtendedGalileiElement:
    """The four-step loop in the extension: Galilei part is the identity,
    while the internal coordinate shifts by alpha = w * a."""
    seq = compose_extended(ExtendedGalileiElement.translation(a),
                           ExtendedGalileiElement.boost(w))
    seq = compose_extended(ExtendedGalileiElement.boost(-w), seq)
    return compose_extended(ExtendedGalileiElement.translation(-a), seq)


# --- unitary representation on CompositeState -------------------------------


def _translate(tables: _GridTables, amps: np.ndarray, a: float) -> np.ndarray:
    """Raw (dim, N) amplitudes on the grid of ``tables`` shifted by a, as a
    fresh array: exp(-i p_k a / hbar) in Fourier space, where
    p_k a / hbar = 2 pi k a / L is hbar-free on the grid.

    ``exp`` runs on k = 0 .. N/2 only, on the real argument
    (-2 pi k / L) a, which has the bits of the imaginary part of the
    complex product -2j pi (k / L) a.  The negative frequencies take the
    complex conjugate of their mirror entry, and that is exact:
    freq[N - k] = -freq[k] bit for bit, so each argument is the exact
    negative of its partner's, and exp(+-0 + i theta) is
    (cos theta, sin theta) with cos even and sin odd bit for bit.  The
    Nyquist entry k = N/2 is computed directly."""
    rate = tables.shift_rate
    half = rate.size - 1
    phase = np.zeros(2 * half, dtype=complex)
    head = phase[:half + 1]
    np.multiply(rate, a, out=head.imag)
    np.exp(head, out=head)
    np.conjugate(phase[half - 1:0:-1], out=phase[half + 1:])
    out = np.fft.fft(amps, axis=1)
    out *= phase
    return np.fft.ifft(out, axis=1, out=out)


def apply_translation(state: CompositeState, a: float) -> CompositeState:
    """Psi(x) -> Psi(x - a), spectrally: multiply by exp(-i p_k a / hbar)."""
    _require_finite("a", a)
    tables = _grid_tables(state.grid)
    out = _translate(tables, state.amplitudes, a)
    _check(tables, out, "translation by a={}", a)
    return state._with_owned_amplitudes(out)


def seam_mismatch(state: CompositeState, w: float, params: PhysicalParams) -> np.ndarray:
    """Per-branch |exp(i M_i w L / hbar) - 1|.

    Zero exactly when the boost phase is commensurate with the grid; for
    incommensurate boosts the boost factor is discontinuous at the seam and
    spectral operations stay accurate only for states negligible there.
    """
    masses = state.internal.mass_energies(params.c)
    theta = masses * w * state.grid.length / params.hbar
    return np.abs(np.exp(1j * theta) - 1.0)


def _galilei_map(state: CompositeState, a: float, u: float, phi: float,
                 params: PhysicalParams, where: str, *args) -> CompositeState:
    """Translate by a, then multiply branch i by exp(i M_i (u x + phi) / hbar).

    The real argument ((x u) + phi) M_i (1 / hbar) is built in a contiguous
    float array, (N,) until the mass column widens it to (dim, N), and
    ``exp`` runs once on i times it.  The output passes ``hilbert._check``,
    whose refusal names ``where.format(*args)``."""
    tables = _grid_tables(state.grid)
    theta = tables.x * u
    theta += phi
    theta = theta * state.internal.mass_energies(params.c)[:, None]
    theta *= 1.0 / params.hbar  # as numpy divides complex by real: bits of the oracle
    phase = np.exp(1j * theta)
    amps = _translate(tables, state.amplitudes, a)
    amps *= phase
    _check(tables, amps, where, *args)
    return state._with_owned_amplitudes(amps)


def apply_boost(state: CompositeState, w: float, t: float,
                params: PhysicalParams) -> CompositeState:
    """Branch-wise exp(+i w (M_i x - t p) / hbar).

    The operator factorizes into a translation by w t followed by the
    phase exp(i M_i (w x - w^2 t / 2) / hbar) per branch; at t = 0 it
    multiplies branch i by exp(i M_i w x / hbar), raising its mean
    momentum by M_i w.  The mass column is read once, by the map: the seam
    rule reads it too only for a state with amplitude at the seam.
    """
    params.check_internal(state.internal)
    _require_finite("w", w)
    _require_finite("t", t)
    # phase corruption scales with the probability mass at the seam;
    # amplitude 1e-4 ~ mass 1e-8, the package's phase-tolerance scale
    edge = np.max(np.abs(state.amplitudes[:, [0, -1]])) * np.sqrt(state.grid.dx)
    if edge > 1e-4:
        mismatch = seam_mismatch(state, w, params)
        if np.any(mismatch > 1e-8):
            warnings.warn(
                f"incommensurate boost (seam mismatch up to {mismatch.max():.3g}) "
                f"on a state with seam amplitude {edge:.3g}; spectral accuracy "
                "relies on compact support away from the boundary",
                stacklevel=2,
            )
    return _galilei_map(state, w * t, w, -0.5 * w * w * t, params,
                        "boost w={} at t={}", w, t)


def loop_phase(state: CompositeState, a: float, w: float,
               params: PhysicalParams) -> List[BranchPhase]:
    """Phases picked up under the unitary loop U(g_-a) U(g_-w) U(g_a) U(g_w).

    Run at t = 0, so boosts are pure phase multiplications.  Returns one
    (phase, fidelity) pair per branch; for branch mass M_i the phase equals
    -M_i a w / hbar modulo 2 pi.
    """
    looped = apply_boost(state, w, 0.0, params)
    looped = apply_translation(looped, a)
    looped = apply_boost(looped, -w, 0.0, params)
    looped = apply_translation(looped, -a)
    return [branch_phase(state, looped, i) for i in range(state.internal.dim)]


def commutator_residual(state: CompositeState, t: float,
                        params: PhysicalParams) -> np.ndarray:
    """Per-branch || (pK - Kp) Psi_i + i hbar M_i Psi_i || / || Psi_i ||.

    K_i = M_i x - t p with spectral p and pointwise x; the residual probes
    the central term of the algebra, [p, K] = -i hbar M, and stays below
    1e-6 for packets well clear of the seam.  The state passes
    ``hilbert._check``, and every branch must be populated: ||Psi_i||^2 is
    that check's probability, and above ``hilbert._POPULATED``.
    """
    params.check_internal(state.internal)
    _require_finite("t", t)
    grid = state.grid
    tables = _grid_tables(grid)
    _, probs = _check(tables, state.amplitudes, "commutator residual")
    for i, prob in enumerate(probs):
        if prob <= _POPULATED:
            raise PreconditionError(f"branch {i} norm too small for a commutator residual")
    hbar = params.hbar
    x = tables.x
    p = grid.p(hbar)
    masses = state.internal.mass_energies(params.c)

    def apply_p(arr):
        return np.fft.ifft(p * np.fft.fft(arr))

    out = np.empty(state.internal.dim)
    dx = grid.dx
    for i in range(state.internal.dim):
        psi = state.amplitudes[i]
        p_psi = apply_p(psi)
        k_psi = masses[i] * x * psi - t * p_psi
        k_p_psi = masses[i] * x * p_psi - t * apply_p(p_psi)
        resid = apply_p(k_psi) - k_p_psi + 1j * hbar * masses[i] * psi
        out[i] = np.sqrt(np.sum(np.abs(resid) ** 2) * dx / probs[i])
    return out
