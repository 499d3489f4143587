"""Desk-scale simulator for quantum particles with dynamical mass-energy.

Low-energy composite particles carry internal levels whose energies add to
the rest mass; this package propagates such particles on a 1D spectral
grid, represents the Galilei group and its central extension on them, and
ships seven scripted experiments checking loop phases, clock time dilation,
frame-transformation phases, free-fall universality and the convergence to
ordinary Newtonian dynamics.

``import massclock`` loads the physics layers only; the runners, their
registry and ``interferometer_on_paths`` live in ``massclock.experiments``.
"""

__version__ = "0.1.0"

from .errors import (
    AliasingError,
    BoundaryViolationError,
    BranchDeformedError,
    ConfigError,
    GridResolutionError,
    IncompatibleSpacesError,
    MassclockError,
    PreconditionError,
    SpreadDominatedError,
    SuperluminalError,
    TrajectoryError,
)
from .hilbert import (
    BranchPhase,
    CompositeState,
    GridSpec,
    InternalSpace,
    PhysicalParams,
    Potential,
    branch_phase,
    expectation_p,
    expectation_x,
    gaussian_packet,
    internal_space_from_masses,
    make_superposition,
    overlap,
    wrap_angle,
)
from .symmetry import (
    ExtendedGalileiElement,
    GalileiElement,
    apply_boost,
    apply_translation,
    bargmann_loop_element,
    boost_element,
    commutator_residual,
    compose_extended,
    compose_galilei,
    extended_loop_element,
    invert_galilei,
    loop_phase,
    seam_mismatch,
    time_shift_element,
    translation_element,
)
from .dynamics import (
    HamiltonianKind,
    ProperTimeResult,
    Trajectory,
    bump_trajectory,
    closed_path_phase,
    expectation_velocity,
    fit_clock_rate,
    fit_phase_rate,
    frame_transform,
    internal_frequency,
    propagate,
    propagate_history,
    proper_time,
    schrodinger_residual,
    semiclassical_clock_phases,
    sinusoidal_trajectory,
    static_trajectory,
    triangular_trajectory,
)
