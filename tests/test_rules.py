"""One home per rule: the Python call and the CLI refuse the same inputs.

Each config-time rule is a function its runner calls; the registry names
it by its key, so ``exp_*(...)`` raises PreconditionError, and ``massclock
run`` and ``massclock validate`` exit 2 with ``config error: <key>: `` and
the same text.  An input a runner handles (it drops a clock or relative
row) runs from the CLI too, with the rows of the Python call.  Every
constant passes one positive-and-finite rule, every speed one rule below c,
and every quantity that may be zero or negative one finite rule.
"""

import json
import math

import numpy as np
import pytest

from massclock import (
    GridSpec,
    HamiltonianKind,
    InternalSpace,
    PhysicalParams,
    Potential,
    PreconditionError,
    SuperluminalError,
    Trajectory,
    apply_boost,
    apply_translation,
    bump_trajectory,
    commutator_residual,
    gaussian_packet,
    internal_frequency,
    internal_space_from_masses,
    make_superposition,
    propagate,
    propagate_history,
    schrodinger_residual,
    sinusoidal_trajectory,
    static_trajectory,
    triangular_trajectory,
)
from massclock.cli import EXIT_CONFIG, EXIT_PASS, main
from massclock.dynamics import _require_subluminal
from massclock.experiments import (
    EXPERIMENTS,
    exp_bargmann,
    exp_clock_semiclassical,
    exp_clock_wavepacket,
    exp_frame_phase,
    exp_interferometer,
    exp_newtonian_sweep,
    exp_wep,
)

ONE_LEVEL = InternalSpace(E0=100.0, levels=(0.0,))

# (experiment, the Python call, CLI overrides, the key the CLI names, the
# rule's text): the Python call and both CLI commands must refuse it.
CONFIG_TIME = {
    "wavepacket-one-level": (
        "exp_clock_wavepacket", lambda: exp_clock_wavepacket(internal=ONE_LEVEL),
        ["internal.levels=[0.0]"],
        "internal.levels", "the clock needs two internal levels with E_1 > E_0"),
    "wavepacket-equal-levels": (
        "exp_clock_wavepacket",
        lambda: exp_clock_wavepacket(internal=InternalSpace(E0=100.0, levels=(0.5, 0.5))),
        ["internal.levels=[0.5,0.5]"],
        "internal.levels", "the clock needs two internal levels with E_1 > E_0"),
    "sweep-m-zero": (
        "exp_newtonian_sweep", lambda: exp_newtonian_sweep(m=0.0), ["params.m=0.0"],
        "params.m", "m must be positive and finite, got 0.0"),
    "sweep-m-negative": (
        "exp_newtonian_sweep", lambda: exp_newtonian_sweep(m=-1.0), ["params.m=-1.0"],
        "params.m", "m must be positive and finite, got -1.0"),
    "sweep-one-eps": (
        "exp_newtonian_sweep", lambda: exp_newtonian_sweep(epsilons=[1e-2]),
        ["params.epsilons=[0.01]"],
        "params.epsilons", "sweep needs at least two eps values"),
    "sweep-eps-out-of-range": (
        "exp_newtonian_sweep", lambda: exp_newtonian_sweep(epsilons=[1e-3, 0.6]),
        ["params.epsilons=[0.001,0.6]"],
        "params.epsilons", "eps values must be in (0, 0.5)"),
    "sweep-eps-under-a-decade": (
        "exp_newtonian_sweep", lambda: exp_newtonian_sweep(epsilons=[1e-2, 5e-2]),
        ["params.epsilons=[0.01,0.05]"],
        "params.epsilons", "eps values must span at least a decade"),
    "bargmann-no-mass": (
        "exp_bargmann", lambda: exp_bargmann(masses=[]), ["params.masses=[]"],
        "params.masses", "need at least one mass"),
    "bargmann-mass-zero": (
        "exp_bargmann", lambda: exp_bargmann(masses=[0.0, 1.0]),
        ["params.masses=[0.0,1.0]"],
        "params.masses", "masses must be positive and finite, got 0.0"),
    "bargmann-mass-negative": (
        "exp_bargmann", lambda: exp_bargmann(masses=[-1.0, 1.0]),
        ["params.masses=[-1.0,1.0]"],
        "params.masses", "masses must be positive and finite, got -1.0"),
    "bargmann-unsorted": (
        "exp_bargmann", lambda: exp_bargmann(masses=[1.1, 1.0]),
        ["params.masses=[1.1,1.0]"],
        "params.masses", "masses must be sorted ascending"),
    "wep-exact-kind": (
        "exp_wep", lambda: exp_wep(kinds=["exact"]), ['params.kinds=["exact"]'],
        "params.kinds", "'exact' is not an exp_wep kind"),
    "wep-rest-alias": (
        "exp_wep", lambda: exp_wep(kinds=["dynamical_mass+rest"]),
        ['params.kinds=["dynamical_mass+rest"]'], "params.kinds",
        "unknown Hamiltonian kind 'dynamical_mass+rest'; "
        "known: exact, dynamical_mass, low_energy, split, newtonian"),
    "wep-c-zero": (
        "exp_wep", lambda: exp_wep(c=0.0), ["physical.c=0.0"],
        "physical", "c must be positive and finite, got 0.0"),
    "frame-c-negative": (
        "exp_frame_phase", lambda: exp_frame_phase(c=-1.0), ["physical.c=-1.0"],
        "physical", "c must be positive and finite, got -1.0"),
    "wep-e0-zero": (
        "exp_wep", lambda: exp_wep(internal=InternalSpace(E0=0.0, levels=(0.0, 0.01))),
        ["internal.E0=0.0"], "internal", "E0 must be positive and finite, got 0.0"),
    "wavepacket-e0-negative": (
        "exp_clock_wavepacket",
        lambda: exp_clock_wavepacket(internal=InternalSpace(E0=-1.0, levels=(0.0, 0.5))),
        ["internal.E0=-1.0"], "internal", "E0 must be positive and finite, got -1.0"),
}


def _cli(capsys, tmp_path, name, overrides):
    """Exit codes and stderr of ``massclock validate`` and ``massclock run``."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": name}))
    sets = [arg for override in overrides for arg in ("--set", override)]
    codes = (main(["validate", "--config", str(path), *sets]),
             main(["run", name, *sets, "--out", str(tmp_path / "o")]))
    return codes, capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(CONFIG_TIME))
def test_config_time_rule_refuses_alike_in_python_and_cli(tmp_path, capsys, case):
    name, call, overrides, key, text = CONFIG_TIME[case]
    with pytest.raises(PreconditionError) as info:
        call()
    assert text in str(info.value)
    codes, err = _cli(capsys, tmp_path, name, overrides)
    assert codes == (EXIT_CONFIG, EXIT_CONFIG)
    assert err.count(f"config error: {key}: {info.value}\n") == 2
    assert not (tmp_path / "o").exists()


def test_every_registered_rule_is_in_the_table():
    registered = {(name, key) for name, exp in EXPERIMENTS.items() for key in exp.rules}
    assert registered <= {(name, key) for name, _, _, key, _ in CONFIG_TIME.values()}


_SMALL = {"grid": GridSpec(-40.0, 40.0, 256)}

# (runner, Python keyword arguments, CLI overrides, rows): inputs a runner
# handles by dropping a row; the CLI runs them, with the Python call's rows.
HANDLED = {
    "bargmann-one-mass": (
        exp_bargmann, {"masses": [1.0], "pairs": [(0.5, 0.8)]},
        ["params.masses=[1.0]", "params.pairs=[[0.5,0.8]]"], 1),
    "sweep-two-eps": (
        exp_newtonian_sweep, {**_SMALL, "epsilons": [0.01, 0.1], "total_time": 0.21},
        ["grid.n_points=256", "params.epsilons=[0.01,0.1]", "params.total_time=0.21"], 2),
    "sweep-three-eps": (
        exp_newtonian_sweep,
        {**_SMALL, "epsilons": [0.001, 0.01, 0.1], "total_time": 0.21},
        ["grid.n_points=256", "params.epsilons=[0.001,0.01,0.1]",
         "params.total_time=0.21"], 3),
    "wep-one-level": (
        exp_wep, {**_SMALL, "internal": ONE_LEVEL, "kinds": ["low_energy"],
                  "total_time": 1.0},
        ["grid.n_points=256", "internal.levels=[0.0]", 'params.kinds=["low_energy"]',
         "params.total_time=1.0"], 1),
    "frame-one-level": (
        exp_frame_phase, {"internal": ONE_LEVEL}, ["internal.levels=[0.0]"], 1),
}


@pytest.mark.parametrize("case", sorted(HANDLED))
def test_input_a_runner_handles_runs_from_the_cli(tmp_path, case):
    runner, kwargs, overrides, n_rows = HANDLED[case]
    result = runner(**kwargs)
    assert len(result.rows) == n_rows
    assert not any(row.get("branch") == "relative" or row.get("quantity") == "clock_shift"
                   for row in result.rows)
    sets = [arg for override in overrides for arg in ("--set", override)]
    assert main(["run", runner.__name__, *sets, "--format", "json",
                 "--out", str(tmp_path)]) == EXIT_PASS
    rows = json.loads((next(tmp_path.iterdir()) / "rows.json").read_text())
    assert rows == result.rows


# --- the positive-constant rule ---------------------------------------------------

_GRID = GridSpec(-20.0, 20.0, 256)
_STATE = make_superposition(_GRID, ONE_LEVEL, [1.0], gaussian_packet(_GRID, 0.0, 0.0, 1.0))
_PARAMS = PhysicalParams(hbar=1.0, c=10.0, E0=100.0)
_KIND = HamiltonianKind.low_energy()
_HISTORY = propagate_history(_STATE, _KIND, _PARAMS, 1e-3, 3)[1]

# Per constant, the calls that take it, each with the bad value v.
POSITIVE = {
    "dt": [lambda v: propagate(_STATE, _KIND, _PARAMS, v, 1),
           lambda v: schrodinger_residual(_HISTORY, v, _KIND, _PARAMS),
           lambda v: exp_wep(dt=v),
           lambda v: exp_newtonian_sweep(dt=v),
           lambda v: exp_clock_wavepacket(dt=v)],
    "hbar": [lambda v: PhysicalParams(hbar=v)],
    "c": [lambda v: PhysicalParams(c=v), lambda v: exp_interferometer(c=v),
          lambda v: exp_frame_phase(c=v)],
    "E0": [lambda v: PhysicalParams(E0=v),
           lambda v: InternalSpace(E0=v, levels=(0.0,))],
    "m": [lambda v: exp_newtonian_sweep(m=v)],
    "masses": [lambda v: internal_space_from_masses([v, 1.0], 1.0),
               lambda v: exp_bargmann(masses=[1.0, v])],
    "sigma": [lambda v: gaussian_packet(_GRID, 0.0, 0.0, v)],
    "total_time": [lambda v: exp_interferometer(total_time=v),
                   lambda v: exp_frame_phase(total_time=v),
                   lambda v: triangular_trajectory(1.0, v, 5),
                   lambda v: sinusoidal_trajectory(1.0, v, 5),
                   lambda v: bump_trajectory(1.0, v, 5),
                   lambda v: static_trajectory(0.0, v, 5)],
}


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(POSITIVE))
def test_every_constant_must_be_positive_and_finite(name, value):
    for call in POSITIVE[name]:
        with pytest.raises(PreconditionError,
                           match=rf"^{name} must be positive and finite, got {value!r}$"):
            call(value)


# Per quantity that may be zero or negative, the calls that take it.
FINITE = {
    "levels": [lambda v: InternalSpace(E0=100.0, levels=(0.0, v)),
               lambda v: InternalSpace(E0=100.0, levels=(v, 0.0))],
    "x_min": [lambda v: GridSpec(v, 40.0, 64)],
    "x_max": [lambda v: GridSpec(-40.0, v, 64)],
    "g": [lambda v: Potential.uniform_field(v), lambda v: exp_wep(g=v),
          lambda v: exp_interferometer(g=v)],
    "xs": [lambda v: Potential.tabulated([0.0, v], [0.0, 1.0])],
    "phis": [lambda v: Potential.tabulated([0.0, 1.0], [v, 1.0])],
    "x0": [lambda v: gaussian_packet(_GRID, v, 0.0, 1.0), lambda v: exp_wep(x0=v)],
    "p0": [lambda v: gaussian_packet(_GRID, 0.0, v, 1.0)],
    "total_time": [lambda v: exp_wep(total_time=v), lambda v: exp_newtonian_sweep(total_time=v),
                   lambda v: exp_clock_wavepacket(total_time=v)],
    "v_over_c": [lambda v: exp_clock_semiclassical(v_over_c=[v]),
                 lambda v: exp_clock_wavepacket(v_over_c=[0.1, v])],
    "gh_over_c2": [lambda v: exp_clock_semiclassical(gh_over_c2=[v]),
                   lambda v: exp_clock_wavepacket(gh_over_c2=[v])],
    "a": [lambda v: exp_bargmann(pairs=[(v, 0.5)]),
          lambda v: apply_translation(_STATE, v)],
    "w": [lambda v: exp_bargmann(pairs=[(0.5, 0.8), (1.0, v)]),
          lambda v: apply_boost(_STATE, v, 0.0, _PARAMS)],
    "t": [lambda v: apply_boost(_STATE, 0.5, v, _PARAMS),
          lambda v: commutator_residual(_STATE, v, _PARAMS)],
    "xi": [lambda v: Trajectory(times=[0.0, 1.0, 2.0], xi=[0.0, v, 0.0])],
    "xi_dot": [lambda v: Trajectory(times=[0.0, 1.0, 2.0], xi=[0.0] * 3,
                                    xi_dot=[v, 0.0, 0.0])],
    "xi_ddot": [lambda v: Trajectory(times=[0.0, 1.0, 2.0], xi=[0.0] * 3,
                                     xi_ddot=[0.0, 0.0, v])],
    "delta_e": [lambda v: exp_interferometer(delta_e=v)],
    "height": [lambda v: exp_interferometer(height=v),
               lambda v: bump_trajectory(v, 1.0, 5)],
    "speed": [lambda v: exp_frame_phase(speed=v), lambda v: triangular_trajectory(v, 1.0, 5)],
    "amplitude": [lambda v: sinusoidal_trajectory(v, 1.0, 5)],
    "position": [lambda v: static_trajectory(v, 1.0, 5)],
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(FINITE))
def test_every_quantity_that_may_be_zero_or_negative_must_be_finite(name, value):
    for call in FINITE[name]:
        with pytest.raises(PreconditionError, match=rf"^{name} must be finite, got {value!r}$"):
            call(value)


def test_a_nan_step_gives_no_residual():
    # a NaN dt used to read as a perfect residual of 0.0
    with pytest.raises(PreconditionError, match="dt must be positive"):
        schrodinger_residual(_HISTORY, math.nan, _KIND, _PARAMS)
    assert schrodinger_residual(_HISTORY, 1e-3, _KIND, _PARAMS) > 0.0


@pytest.mark.parametrize("leaf, name", [
    ("physical.c", "exp_wep"), ("internal.E0", "exp_frame_phase"),
    ("params.m", "exp_newtonian_sweep"), ("params.masses", "exp_bargmann")])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_constant_never_reaches_a_runner_from_the_cli(
        tmp_path, capsys, leaf, name, value):
    # JSON parsing accepts NaN and Infinity; the config refuses them by key
    raw = f"[1.0,{value}]" if leaf == "params.masses" else value
    codes, err = _cli(capsys, tmp_path, name, [f"{leaf}={raw}"])
    assert codes == (EXIT_CONFIG, EXIT_CONFIG)
    assert err.count(f"config error: {leaf}") == 2 and "must be a finite number" in err


# --- the speed rule ----------------------------------------------------------------

@pytest.mark.parametrize("v", [10.0, -10.0, math.inf, math.nan, [0.0, math.nan]])
def test_every_speed_must_stay_below_c(v):
    with pytest.raises(SuperluminalError, match="must stay below c = 10.0"):
        internal_frequency(1.0, v, 0.0, _PARAMS)
    vmax = float(np.max(np.abs(v)))
    with pytest.raises(SuperluminalError, match="must stay below c = 10.0"):
        _require_subluminal(vmax, 10.0)


def test_an_empty_speed_array_passes_the_speed_rule():
    assert internal_frequency(1.0, [], 0.0, _PARAMS).shape == (0,)
