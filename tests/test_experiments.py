import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from massclock import (
    GridSpec,
    InternalSpace,
    PhysicalParams,
    Potential,
    PreconditionError,
    TrajectoryError,
    bump_trajectory,
    static_trajectory,
    wrap_angle,
)
from massclock import dynamics, experiments
from massclock.errors import GridResolutionError, SpreadDominatedError
from massclock.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    exp_bargmann,
    exp_clock_semiclassical,
    exp_clock_wavepacket,
    exp_frame_phase,
    exp_interferometer,
    exp_newtonian_sweep,
    exp_wep,
    interferometer_on_paths,
    path_proper_time_difference,
    predicted_loop_phase,
)

# Twice the points of the three propagating runners' default grid, N = 256
# on [-40, 40].  The momentum grid converges spectrally, so the move to 2N
# bounds the grid error at N.
DOUBLED_GRID = GridSpec(-40.0, 40.0, 512)


class TestBargmann:
    def test_equal_masses_trivial_relative_phase(self):
        r = exp_bargmann(masses=[1.0, 1.0], pairs=[(0.5, 0.8)])
        rel = [row for row in r.rows if row["branch"] == "relative"][0]
        assert rel["phase_measured"] == pytest.approx(0.0, abs=1e-10)
        assert r.passed

    def test_default_sweep_passes(self):
        r = exp_bargmann()
        assert r.passed
        assert r.details["abstract_loop_is_identity"]
        assert len(r.rows) == 5 * 3  # two branches + relative, five pairs
        assert all(row["abs_error"] < 1e-8 for row in r.rows)

    def test_relative_phase_value(self):
        r = exp_bargmann(pairs=[(0.5, 0.8)])
        rel = [row for row in r.rows if row["branch"] == "relative"][0]
        assert rel["phase_measured"] == pytest.approx(0.04, abs=1e-8)

    def test_deterministic_rows(self):
        a = exp_bargmann(pairs=[(0.5, 0.8)])
        b = exp_bargmann(pairs=[(0.5, 0.8)])
        assert a.rows == b.rows

    def test_no_masses_refused(self):
        with pytest.raises(PreconditionError, match="at least one mass"):
            exp_bargmann(masses=[])

    @pytest.mark.parametrize("masses", [[1.0, 2.5], [0.5, 2.0], [0.1, 7.0]])
    def test_masses_far_apart_match_the_relative_prediction(self, masses):
        # M_2 >= 2 M_1 was refused by the low-energy split rule, which the
        # loop phase never uses
        a, w = 0.5, 0.8
        r = exp_bargmann(masses=masses, pairs=[(a, w)])
        rel = [row for row in r.rows if row["branch"] == "relative"][0]
        # the relative row is the loop-phase formula at M_1 - M_2, with the
        # bits of (M_2 - M_1) a w, since fl(M_2 - M_1) = -fl(M_1 - M_2)
        expected = predicted_loop_phase(masses[0] - masses[1], a, w)
        assert expected == wrap_angle((masses[1] - masses[0]) * a * w)
        assert rel["phase_predicted"] == expected
        assert abs(wrap_angle(rel["phase_measured"] - expected)) < 1e-8
        assert r.passed


class TestClockDilation:
    def test_semiclassical_zero_case(self):
        r = exp_clock_semiclassical(v_over_c=[0.0], gh_over_c2=[])
        assert r.rows[0]["shift_measured"] == pytest.approx(0.0, abs=1e-12)
        assert r.passed

    def test_semiclassical_defaults(self):
        r = exp_clock_semiclassical()
        assert r.passed
        for row in r.rows:
            assert row["rel_error"] < 1e-6

    def test_wavepacket_v_row(self):
        r = exp_clock_wavepacket(v_over_c=[0.1], gh_over_c2=[])
        assert r.passed
        assert r.rows[0]["rel_error"] < 2e-2
        assert r.rows[0]["shift_measured"] < 0  # moving clock runs slow

    def test_doubling_the_grid_keeps_the_rows_inside_their_budget(self):
        # budget: 1 % of the 2 % tolerance, relative to each row's
        # predicted shift (and of the tolerance itself for rel_error)
        default, doubled = exp_clock_wavepacket(), exp_clock_wavepacket(DOUBLED_GRID)
        for row, full in zip(doubled.rows, default.rows):
            budget = 0.01 * default.tolerance["shift_rel"]
            assert row["shift_predicted"] == full["shift_predicted"]
            for key in ("shift_measured", "abs_error"):
                assert abs(row[key] - full[key]) <= budget * abs(full["shift_predicted"]), key
            assert abs(row["rel_error"] - full["rel_error"]) <= budget

    def test_a_fall_that_outruns_the_momentum_grid_is_refused_before_any_step(
            self, no_step):
        # the raised clock falls M g T = 5.03 in 10 time units; with
        # 4 sigma_p = 0.5 it leaves pi / dx = 5.03 of 128 points
        with pytest.raises(GridResolutionError,
                           match=r"^run 0, kind low_energy: branch 0: momentum band "
                                 r"\[-5\.500, 0\.500\] leaves .* of grid\.n_points=128"):
            exp_clock_wavepacket(GridSpec(-40.0, 40.0, 128), v_over_c=[],
                                 gh_over_c2=[0.01], total_time=10.0)

    def test_ratio_must_be_small(self):
        with pytest.raises(PreconditionError):
            exp_clock_semiclassical(v_over_c=[0.9])

    def test_spread_dominated_rejected(self):
        with pytest.raises(SpreadDominatedError):
            exp_clock_wavepacket(v_over_c=[0.05], gh_over_c2=[], sigma=1.0)


class TestInterferometer:
    PARAMS = PhysicalParams(hbar=1.0, c=10.0, E0=100.0,
                            potential=Potential.uniform_field(1.0))

    def test_runner_defaults_pass(self):
        # a static path and a bump of height 3 in a uniform field g = 1
        r = exp_interferometer()
        assert r.passed and len(r.rows) == 1
        assert r.rows[0]["delta_e"] == 10.0

    def test_identical_paths_full_visibility(self):
        t1 = bump_trajectory(2.0, 10.0, 1001)
        r = interferometer_on_paths(t1, t1, delta_e=10.0, params=self.PARAMS)
        assert r.rows[0]["visibility_measured"] == pytest.approx(1.0, abs=1e-12)

    def test_pi_phase_kills_visibility(self):
        t1 = static_trajectory(0.0, 10.0, 1001)
        t2 = bump_trajectory(3.0, 10.0, 1001)
        dtau = path_proper_time_difference(t1, t2, self.PARAMS)
        delta_e = math.pi * self.PARAMS.hbar / dtau
        r = interferometer_on_paths(t1, t2, delta_e=delta_e, params=self.PARAMS)
        assert r.rows[0]["visibility_measured"] == pytest.approx(0.0, abs=1e-9)
        assert r.passed

    def test_half_pi_gives_cos_quarter_pi(self):
        t1 = static_trajectory(0.0, 10.0, 1001)
        t2 = bump_trajectory(3.0, 10.0, 1001)
        dtau = path_proper_time_difference(t1, t2, self.PARAMS)
        delta_e = 0.5 * math.pi * self.PARAMS.hbar / dtau
        r = interferometer_on_paths(t1, t2, delta_e=delta_e, params=self.PARAMS)
        assert r.rows[0]["visibility_measured"] == pytest.approx(
            math.cos(math.pi / 4), abs=1e-6)
        assert r.passed

    def test_mismatched_endpoints_rejected(self):
        t1 = static_trajectory(1.0, 10.0, 101)
        t2 = bump_trajectory(3.0, 10.0, 101)
        with pytest.raises(TrajectoryError):
            interferometer_on_paths(t1, t2, delta_e=1.0, params=self.PARAMS)

    @pytest.mark.parametrize("t2, match", [
        pytest.param(static_trajectory(0.0, 10.0, 201), "the same time samples",
                     id="sample-count"),
        pytest.param(static_trajectory(0.0, 12.0, 101), "the same time samples",
                     id="window"),
        pytest.param(static_trajectory(1.0, 10.0, 101), "endpoints", id="endpoints"),
    ])
    def test_paths_that_do_not_pair_rejected(self, t2, match):
        t1 = static_trajectory(0.0, 10.0, 101)
        with pytest.raises(TrajectoryError, match=match):
            interferometer_on_paths(t1, t2, delta_e=1.0, params=self.PARAMS)


class TestNewtonianSweep:
    def test_zero_internal_energy_gives_identical_propagation(self):
        # eps = 0 limit checked directly: the two kinds are the same operator
        from massclock import HamiltonianKind, gaussian_packet, make_superposition, overlap, propagate

        grid = GridSpec(-40.0, 40.0, 1024)
        internal = InternalSpace(E0=100.0, levels=(0.0, 0.0))
        params = PhysicalParams(hbar=1.0, c=10.0, E0=100.0,
                                potential=Potential.uniform_field(0.5))
        psi = gaussian_packet(grid, 0.0, 1.0, 2.0)
        state = make_superposition(grid, internal, np.full(2, 2**-0.5), psi)
        a = propagate(state, HamiltonianKind.split(), params, 1e-3, 1000)
        b = propagate(state, HamiltonianKind.newtonian(), params, 1e-3, 1000)
        assert abs(1.0 - abs(overlap(a, b)) ** 2) < 1e-10

    def test_slope_is_one(self, default_sweep):
        r = default_sweep
        assert abs(r.details["slope"] - 1.0) <= 0.1
        assert r.passed

    def test_rows_match_closed_form(self):
        r = exp_newtonian_sweep(epsilons=[1e-3, 1e-2, 1e-1])
        for row in r.rows:
            assert row["phase_discrepancy_measured"] == pytest.approx(
                row["phase_discrepancy_predicted"],
                rel=0.25 * max(row["epsilon"] / 1e-3, 1.0) * 1e-2 + 1e-3)

    def test_doubling_time_doubles_free_discrepancy(self):
        kw = dict(epsilons=[1e-2, 1e-1], g=0.0, p0=1.0, dt=1e-3)
        short = exp_newtonian_sweep(total_time=2.0, **kw)
        long = exp_newtonian_sweep(total_time=4.0, **kw)
        for r_s, r_l in zip(short.rows, long.rows):
            assert r_l["phase_discrepancy_measured"] == pytest.approx(
                2.0 * r_s["phase_discrepancy_measured"], rel=1e-3)

    def test_residual_of_the_prediction_is_second_order(self, default_sweep):
        # the prediction is the whole first-order discrepancy; the run's
        # residual slope is the one its rows give
        r = default_sweep
        eps = [row["epsilon"] for row in r.rows]
        resid = [abs(row["phase_discrepancy_measured"] - row["phase_discrepancy_predicted"])
                 for row in r.rows]
        slope = np.polyfit(np.log(eps), np.log(resid), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)
        assert r.details["residual_slope"] == pytest.approx(slope, abs=1e-12)

    def test_a_prediction_off_by_a_first_order_term_fails(self, monkeypatch):
        # 1 % of the prediction is a first-order residual: the slope of
        # measured alone (C08) cannot see it, the residual slope can
        exact = experiments.predicted_sweep_discrepancy
        monkeypatch.setattr(experiments, "predicted_sweep_discrepancy",
                            lambda *args: 1.01 * exact(*args))
        r = exp_newtonian_sweep(epsilons=[1e-3, 1e-1])
        assert abs(r.details["slope"] - 1.0) <= 0.1
        assert abs(r.details["residual_slope"] - 2.0) > 0.1
        assert not r.passed

    def test_halving_dt_keeps_the_strang_error_inside_its_budget(self, default_sweep):
        # budget: 1 % of what a check reads from each column, the row's
        # residual for the discrepancy and the value for the others.  For a
        # second-order step the move to dt/2 is 3/4 of the error at dt, so
        # a move within 1/4 of the budget bounds that error by a third of it.
        # Every run of the stack keeps the bits it has alone, so two eps
        # values stand for the rows of the full sweep.
        half = exp_newtonian_sweep(epsilons=[1e-3, 1e-1], dt=1.5e-3)
        rows = {row["epsilon"]: row for row in default_sweep.rows}
        for row in half.rows:
            full = rows[row["epsilon"]]
            resid = abs(full["phase_discrepancy_measured"] - full["phase_discrepancy_predicted"])
            for key, read in (("phase_discrepancy_measured", resid),
                              ("state_distance", full["state_distance"]),
                              ("infidelity", full["infidelity"])):
                assert abs(row[key] - full[key]) <= 0.25 * 0.01 * read + 1e-12, key

    def test_doubling_the_grid_keeps_the_rows_inside_their_budget(self, default_sweep):
        # the budget of the dt test: 1 % of the row's residual for the
        # discrepancy and of the value for the others; two eps values stand
        # for the sweep, as there
        doubled = exp_newtonian_sweep(DOUBLED_GRID, epsilons=[1e-3, 1e-1])
        rows = {row["epsilon"]: row for row in default_sweep.rows}
        for row in doubled.rows:
            full = rows[row["epsilon"]]
            assert row["phase_discrepancy_predicted"] == full["phase_discrepancy_predicted"]
            resid = abs(full["phase_discrepancy_measured"] - full["phase_discrepancy_predicted"])
            for key, read in (("phase_discrepancy_measured", resid),
                              ("state_distance", full["state_distance"]),
                              ("infidelity", full["infidelity"])):
                assert abs(row[key] - full[key]) <= 0.01 * read, key

    def test_a_launch_beyond_the_momentum_grid_is_refused_before_any_step(self, no_step):
        # the launch p0 + 4 sigma_p = 5.17 is past pi / dx = 5.03 of 128
        # points already at t = 0, so the packet is refused as it is built
        with pytest.raises(GridResolutionError,
                           match=r"^packet momentum band \[3\.833, 5\.167\] leaves "
                                 r".* of grid\.n_points=128"):
            exp_newtonian_sweep(GridSpec(-40.0, 40.0, 128), sigma=3.0, p0=4.5)

    def test_c_cancels_from_the_rows(self, default_sweep, monkeypatch):
        # the run's fixed c is not a quantity of the rows: 10 -> 100 moves
        # every cell by round-off only
        monkeypatch.setattr(experiments, "DEFAULT_C", 100.0)
        at_100 = exp_newtonian_sweep()
        for row, other in zip(default_sweep.rows, at_100.rows):
            for key, value in row.items():
                assert abs(other[key] - value) <= 1e-12, key

    def test_discrepancy_reaching_half_pi_refused(self):
        # the final-state angle is principal-valued; p0 = 5 predicts 1.74 rad
        with pytest.raises(PreconditionError, match="pi/2"):
            exp_newtonian_sweep(p0=5.0)

    def test_state_distance_scales_linearly(self, default_sweep):
        r = default_sweep
        eps = [row["epsilon"] for row in r.rows]
        dist = [row["state_distance"] for row in r.rows]
        slope = np.polyfit(np.log(eps), np.log(dist), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_precondition_validation(self):
        with pytest.raises(PreconditionError):
            exp_newtonian_sweep(epsilons=[1e-2, 2e-2])  # less than a decade
        with pytest.raises(PreconditionError):
            exp_newtonian_sweep(epsilons=[0.9, 1e-3])


class TestWep:
    def test_defaults_pass(self, default_wep):
        r = default_wep
        assert r.passed
        accel = [row for row in r.rows if row["quantity"] == "acceleration"]
        assert len(accel) == 8  # 4 kinds x 2 branches
        for row in accel:
            assert row["rel_error"] < 1e-6

    def test_halving_dt_keeps_the_strang_error_inside_its_budget(self, default_wep):
        # budget: 1 % of the tightest tolerance reading each column, the
        # 1e-6 |g| acceleration bound (g = 1) and, for the newtonian clock,
        # its 1e-8 bound; as for the sweep, a move within 1/4 of it bounds
        # the error at dt by a third.  Sampling every 2 steps keeps the
        # sample times.  The field's exact steps use 0.60 % of this
        # allowance; plain Strang at the default dt would use 12.5 times it
        # and the correction with its sign flipped 25 times.
        half = exp_wep(dt=5e-3, sample_every=2)
        tol = default_wep.tolerance
        for row, full in zip(half.rows, default_wep.rows):
            newtonian_clock = full["kind"] == "newtonian" and full["quantity"] == "clock_shift"
            budget = 0.01 * (tol["newtonian_shift_abs"] if newtonian_clock
                             else tol["accel_rel"])
            assert row["predicted"] == full["predicted"]
            assert abs(row["measured"] - full["measured"]) <= 0.25 * budget + 1e-13

    def test_a_heavier_clock_at_the_default_dt_passes(self):
        # c = 20, E0 = 400: low_energy's rest term H_r dt is 4.0 rad, a
        # branch phase the alias rule does not read; the kinetic spread is
        # 0.505 rad
        r = exp_wep(internal=InternalSpace(E0=400.0, levels=(0.0, 0.04)), c=20.0,
                    dt=0.01, sample_every=1)
        assert r.passed

    def test_doubling_the_grid_keeps_the_rows_inside_their_budget(self, default_wep):
        # the budget of the dt test, 1 % of the 1e-6 |g| acceleration bound
        # and of the newtonian clock's 1e-8 bound, for every float column of
        # the row
        doubled = exp_wep(DOUBLED_GRID)
        tol = default_wep.tolerance
        for row, full in zip(doubled.rows, default_wep.rows):
            newtonian_clock = full["kind"] == "newtonian" and full["quantity"] == "clock_shift"
            budget = 0.01 * (tol["newtonian_shift_abs"] if newtonian_clock
                             else tol["accel_rel"])
            assert row["predicted"] == full["predicted"]
            for key in ("measured", "abs_error", "rel_error"):
                assert abs(row[key] - full[key]) <= budget, key

    def test_a_fall_that_outruns_the_momentum_grid_is_refused_before_any_step(
            self, no_step):
        # M g T = 12 at g = 4: the band [-13, 1] leaves pi / dx = 10.05
        with pytest.raises(GridResolutionError,
                           match=r"^run 0, kind dynamical_mass: branch 0: momentum band "
                                 r"\[-13\.000, 1\.000\] leaves \+/-pi hbar/dx = \+/-10\.053 "
                                 r"of grid\.n_points=256"):
            exp_wep(g=4.0)

    def test_without_the_band_rule_the_wrapped_fall_is_mis_measured(self, monkeypatch):
        # what the rule refuses is a real fault: the packet wraps around the
        # momentum grid and the fitted fall is nowhere near -g
        monkeypatch.setattr(dynamics, "_require_band", lambda *args: None)
        r = exp_wep(g=4.0)
        accel = [row for row in r.rows if row["quantity"] == "acceleration"]
        assert not r.passed and all(row["rel_error"] > 0.1 for row in accel)

    def test_newtonian_branches_share_acceleration(self):
        r = exp_wep(kinds=["newtonian"])
        accel = [row for row in r.rows if row["quantity"] == "acceleration"]
        assert accel[0]["measured"] == pytest.approx(accel[1]["measured"], rel=1e-12)

    def test_clock_rates_differ_only_for_relativistic_kinds(self):
        r = exp_wep(kinds=["low_energy", "newtonian"])
        clock = {row["kind"]: row for row in r.rows if row["quantity"] == "clock_shift"}
        assert abs(clock["newtonian"]["measured"]) < 1e-8
        assert abs(clock["low_energy"]["measured"]) > 1e-3
        assert clock["low_energy"]["rel_error"] < 0.1

    def test_exact_kind_rejected(self):
        # v = -g t / sqrt(1 + g^2 t^2 / c^2) is not the predicted -g fall
        with pytest.raises(PreconditionError, match="exact"):
            exp_wep(kinds=["low_energy", "exact"])

    def test_zero_field(self):
        r = exp_wep(kinds=["newtonian"], g=0.0, x0=0.0)
        accel = [row for row in r.rows if row["quantity"] == "acceleration"]
        for row in accel:
            assert abs(row["measured"]) < 1e-10


class TestFramePhase:
    def test_static_path_gives_zero_phases(self):
        r = exp_frame_phase(speed=0.0, total_time=1.0)
        for row in r.rows:
            assert row["phase_measured"] == pytest.approx(0.0, abs=1e-10)
        assert r.passed

    def test_defaults(self):
        r = exp_frame_phase()
        assert r.passed
        by_branch = {row["branch"]: row for row in r.rows}
        assert by_branch["1"]["phase_measured"] == pytest.approx(0.5, abs=1e-6)
        assert by_branch["2"]["phase_measured"] == pytest.approx(0.55, abs=1e-6)
        assert by_branch["relative"]["phase_measured"] == pytest.approx(0.05, abs=1e-6)

    def test_proper_time_gap_is_second_order(self):
        r = exp_frame_phase()
        row = {row["branch"]: row for row in r.rows}["1"]
        # (v/c)^2 / 4 of the phase itself, roughly
        assert 0.0 < row["proper_time_gap"] < 0.01 * row["phase_measured"]

    def test_relative_phase_matches_bargmann_of_equal_area(self):
        # triangle with speed 1, T = 1 encloses S = 0.5; the boost-translate
        # rectangle with a w = 0.5 must give the same relative phase
        frame = exp_frame_phase(speed=1.0, total_time=1.0)
        frame_rel = {row["branch"]: row for row in frame.rows}["relative"]
        barg = exp_bargmann(pairs=[(0.625, 0.8)])  # a w = 0.5
        barg_rel = [row for row in barg.rows if row["branch"] == "relative"][0]
        assert frame_rel["phase_measured"] == pytest.approx(
            barg_rel["phase_measured"], abs=1e-6)


class TestRegistry:
    def test_seven_experiments_registered(self):
        assert list(EXPERIMENTS) == [
            "exp_bargmann", "exp_clock_semiclassical", "exp_clock_wavepacket",
            "exp_interferometer", "exp_newtonian_sweep", "exp_wep",
            "exp_frame_phase",
        ]

    def test_the_package_root_loads_the_physics_layers_only(self):
        # a fresh interpreter: this process has imported the runners already
        code = ("import json, sys, massclock\n"
                "loaded = [m for m in ('massclock.experiments', 'massclock.cli')"
                " if m in sys.modules]\n"
                "from massclock.experiments import EXPERIMENTS\n"
                "print(json.dumps([loaded, hasattr(massclock, 'exp_wep'), list(EXPERIMENTS)]))")
        src = str(Path(experiments.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == [[], False, list(EXPERIMENTS)]
        assert len(EXPERIMENTS) == 7

    def test_every_entry_has_anchor_and_its_runners_name(self):
        for name, exp in EXPERIMENTS.items():
            assert exp.anchor.startswith("Eq")
            assert exp.name == exp.runner.__name__ == name
            assert set(exp.defaults) == {"grid", "internal", "physical", "params"}


class TestExperimentResult:
    ROW = {"branch": "1", "measured": 0.5, "abs_error": 0.0}

    @pytest.mark.parametrize("second", [
        pytest.param({"branch": "2", "measured": 0.5}, id="missing-key"),
        pytest.param({**ROW, "extra": 1.0}, id="extra-key"),
        pytest.param({"measured": 0.5, "branch": "2", "abs_error": 0.0}, id="reordered"),
    ])
    def test_rows_that_differ_in_keys_are_rejected(self, second):
        with pytest.raises(PreconditionError, match="row 1 has keys"):
            ExperimentResult(rows=[dict(self.ROW), second], tolerance={}, passed=True)
