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
abstract loop is trivial.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List

import numpy as np

from .hilbert import (
    BranchPhase,
    CompositeState,
    PhysicalParams,
    _check_clearance,
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

    def is_identity(self, tol: float = 0.0) -> bool:
        return abs(self.w) <= tol and abs(self.a) <= tol and abs(self.b) <= tol


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
    def identity(cls) -> "ExtendedGalileiElement":
        return cls(0.0, GalileiElement.identity())

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


def _translate(grid, amps: np.ndarray, a: float) -> np.ndarray:
    """Raw (dim, N) amplitudes shifted by a: exp(-i p_k a / hbar) in Fourier
    space, where p_k a / hbar = 2 pi k a / L is hbar-free on the grid."""
    phase = np.exp(-2j * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx) * a)
    return np.fft.ifft(np.fft.fft(amps, axis=1) * phase, axis=1)


def apply_translation(state: CompositeState, a: float) -> CompositeState:
    """Psi(x) -> Psi(x - a), spectrally: multiply by exp(-i p_k a / hbar)."""
    out = _translate(state.grid, state.amplitudes, a)
    _check_clearance(state.grid, out, f"translation by a={a}")
    return state.with_amplitudes(out)


def seam_mismatch(state: CompositeState, w: float, params: PhysicalParams) -> np.ndarray:
    """Per-branch |exp(i M_i w L / hbar) - 1|.

    Zero exactly when the boost phase is commensurate with the grid; for
    incommensurate boosts the boost factor is discontinuous at the seam and
    spectral operations stay accurate only for states negligible there.
    """
    masses = state.internal.mass_energies(params.c)
    theta = masses * w * state.grid.length / params.hbar
    return np.abs(np.exp(1j * theta) - 1.0)


def apply_boost(state: CompositeState, w: float, t: float,
                params: PhysicalParams) -> CompositeState:
    """Branch-wise exp(+i w (M_i x - t p) / hbar).

    At t = 0 this multiplies branch i by exp(i M_i w x / hbar), raising its
    mean momentum by M_i w.  At t != 0 the operator factorizes into a
    translation by w t, the position phase, and a global phase
    exp(-i M_i w^2 t / 2 hbar) per branch.
    """
    params.check_internal(state.internal)
    grid = state.grid
    masses = state.internal.mass_energies(params.c)
    mismatch = seam_mismatch(state, w, params)
    if np.any(mismatch > 1e-8):
        # phase corruption scales with the probability mass at the seam;
        # amplitude 1e-4 ~ mass 1e-8, the package's phase-tolerance scale
        edge = np.max(np.abs(state.amplitudes[:, [0, -1]])) * np.sqrt(grid.dx)
        if edge > 1e-4:
            warnings.warn(
                f"incommensurate boost (seam mismatch up to {mismatch.max():.3g}) "
                f"on a state with seam amplitude {edge:.3g}; spectral accuracy "
                "relies on compact support away from the boundary",
                stacklevel=2,
            )
    amps = np.array(state.amplitudes)
    if t != 0.0:
        amps = _translate(grid, amps, w * t)
    x = grid.x()
    phases = np.exp(1j * (masses[:, None] * w * x[None, :]) / params.hbar)
    if t != 0.0:
        phases = phases * np.exp(-1j * masses * w**2 * t / (2.0 * params.hbar))[:, None]
    amps *= phases
    _check_clearance(grid, amps, f"boost w={w} at t={t}")
    return state.with_amplitudes(amps)


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
    1e-6 for packets well clear of the seam.
    """
    params.check_internal(state.internal)
    grid = state.grid
    _check_clearance(grid, state.amplitudes, "commutator residual")
    hbar = params.hbar
    x = grid.x()
    p = grid.p(hbar)
    masses = state.internal.mass_energies(params.c)

    def apply_p(arr):
        return np.fft.ifft(p * np.fft.fft(arr))

    out = np.empty(state.internal.dim)
    dx = grid.dx
    for i in range(state.internal.dim):
        psi = state.amplitudes[i]
        k_psi = masses[i] * x * psi - t * apply_p(psi)
        p_psi = apply_p(psi)
        k_p_psi = masses[i] * x * p_psi - t * apply_p(p_psi)
        resid = apply_p(k_psi) - k_p_psi + 1j * hbar * masses[i] * psi
        out[i] = np.sqrt(np.sum(np.abs(resid) ** 2) * dx
                         / (np.sum(np.abs(psi) ** 2) * dx))
    return out
