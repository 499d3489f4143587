import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massclock.cli import (
    EXIT_CONFIG,
    EXIT_PASS,
    EXIT_PRECONDITION,
    EXIT_TOLERANCE,
    RunConfig,
    _leaf_paths,
    main,
    parse_config,
    run,
)
from massclock.errors import ConfigError
from massclock.experiments import (
    EXPERIMENTS,
    exp_bargmann,
    exp_clock_dilation,
    exp_frame_phase,
)

FAST_BARGMANN = ["--set", "params.pairs=[[0.5,0.8]]",
                 "--set", "grid.n_points=1024"]

GOLDEN_COLUMNS = {
    "exp_bargmann": ("branch", "a", "w", "phase_measured", "phase_predicted",
                     "abs_error"),
    "exp_clock_dilation": ("mode", "v_over_c", "gh_over_c2", "shift_measured",
                           "shift_predicted", "abs_error", "rel_error"),
    "exp_interferometer": ("delta_e", "delta_tau", "visibility_measured",
                           "visibility_predicted", "abs_error"),
    "exp_newtonian_sweep": ("epsilon", "phase_discrepancy_measured",
                            "phase_discrepancy_predicted", "state_distance",
                            "infidelity"),
    "exp_wep": ("kind", "quantity", "branch", "measured", "predicted",
                "abs_error", "rel_error"),
    "exp_frame_phase": ("branch", "phase_measured", "phase_predicted",
                        "abs_error", "phase_proper_time", "proper_time_gap"),
}


class TestParseConfig:
    def test_minimal_config_applies_defaults(self):
        cfg = parse_config(experiment="exp_bargmann")
        assert cfg.grid == {"x_min": -40.0, "x_max": 40.0, "n_points": 2048}
        assert cfg.params["sigma"] == 1.0
        assert "grid.x_min" in cfg.defaulted
        assert "params.sigma" in cfg.defaulted

    def test_unknown_key_suggestion(self):
        with pytest.raises(ConfigError, match="sigma"):
            parse_config({"experiment": "exp_bargmann", "params": {"sigm": 2.0}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"experiment": "exp_bargmann", "grd": {}})

    def test_invariant_violation_names_section(self):
        with pytest.raises(ConfigError, match="internal"):
            parse_config({"experiment": "exp_bargmann",
                          "internal": {"E0": 100.0, "levels": [0.0, 200.0]}})

    def test_unknown_experiment_suggestion(self):
        with pytest.raises(ConfigError, match="exp_bargmann"):
            parse_config(experiment="exp_bargman")

    def test_experiment_mismatch(self):
        with pytest.raises(ConfigError, match="mismatch"):
            parse_config({"experiment": "exp_wep"}, experiment="exp_bargmann")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/config.json")

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(bad)

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "exp_bargmann",
                                    "params": {"sigma": 2.0}}))
        cfg = parse_config(path, overrides=["params.sigma=3.0"])
        assert cfg.params["sigma"] == 3.0
        assert "params.sigma" not in cfg.defaulted

    def test_override_unknown_path(self):
        with pytest.raises(ConfigError, match="did you mean"):
            parse_config(experiment="exp_bargmann", overrides=["params.sigm=1"])

    def test_sweep_needs_four_points(self):
        with pytest.raises(ConfigError, match=">= 4"):
            parse_config({"experiment": "exp_newtonian_sweep",
                          "params": {"epsilons": [1e-2]}})

    def test_file_and_positional_equal_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "exp_bargmann"}))
        assert parse_config(path) == parse_config(experiment="exp_bargmann")

    @pytest.mark.parametrize("source, overrides, match", [
        pytest.param({"experiment": "exp_bargmann", "jobs": 2}, [],
                     "unknown key 'jobs'", id="jobs"),
        pytest.param({"experiment": "exp_interferometer",
                      "physical": {"potential": {"kind": "uniform", "g": 1.0}}}, [],
                     "potential", id="potential"),
        pytest.param({"experiment": "exp_interferometer", "grid": {"n_points": 512}}, [],
                     "n_points", id="interferometer-grid"),
        pytest.param({"experiment": "exp_interferometer"}, ["grid.n_points=512"],
                     "n_points", id="interferometer-grid-set"),
        pytest.param({"experiment": "exp_newtonian_sweep",
                      "internal": {"E0": 100.0, "levels": [0.0, 1.0]}}, [],
                     "levels", id="sweep-levels"),
    ])
    def test_key_outside_the_schema_rejected(self, source, overrides, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(source, overrides=overrides)

    @pytest.mark.parametrize("name, override, match", [
        pytest.param("exp_bargmann", 'internal.levels="05"', "internal: levels",
                     id="string-levels"),
        pytest.param("exp_bargmann", "internal.levels=5", "internal: levels",
                     id="number-levels"),
        pytest.param("exp_frame_phase", 'params.sigma="x"', "params.sigma must be a number",
                     id="string-for-number"),
        pytest.param("exp_frame_phase", "params.sigma=true", "params.sigma must be a number",
                     id="bool-for-number"),
        pytest.param("exp_frame_phase", "params.sigma=[1.0]", "params.sigma must be a number",
                     id="list-for-number"),
        pytest.param("exp_bargmann", "params.pairs=0.5", "params.pairs must be a list",
                     id="number-for-list"),
        pytest.param("exp_clock_dilation", "params.mode=1", "params.mode must be a str",
                     id="number-for-string"),
        pytest.param("exp_newtonian_sweep", "params.epsilons=null",
                     "params.epsilons must be a list", id="null-for-list"),
    ])
    def test_wrong_typed_value_rejected(self, name, override, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(experiment=name, overrides=[override])

    def test_int_and_float_are_both_numbers(self):
        cfg = parse_config(experiment="exp_frame_phase",
                           overrides=["params.sigma=2", "params.n_samples=2001.0"])
        assert cfg.params["sigma"] == 2 and cfg.params["n_samples"] == 2001.0


class TestRun:
    def _config(self, tmp_path, **extra):
        overrides = ["params.pairs=[[0.5,0.8]]", "grid.n_points=1024"]
        overrides += [f"{k}={v}" for k, v in extra.items()]
        cfg = parse_config(experiment="exp_bargmann", overrides=overrides)
        cfg.output = str(tmp_path / "runs")
        return cfg

    def test_writes_rows_and_meta(self, tmp_path):
        cfg = self._config(tmp_path)
        assert run(cfg, echo=lambda *a: None) == EXIT_PASS
        run_dir = next((tmp_path / "runs").iterdir())
        rows = (run_dir / "rows.csv").read_text().splitlines()
        assert rows[0] == ",".join(GOLDEN_COLUMNS["exp_bargmann"])
        assert len(rows) == 4  # header + 2 branches + relative
        meta = json.loads((run_dir / "meta.json").read_text())
        assert meta["passed"] is True
        assert meta["artifact_version"]
        assert "params.sigma" in meta["defaulted_keys"]

    def test_meta_config_round_trips(self, tmp_path):
        cfg = self._config(tmp_path)
        run(cfg, echo=lambda *a: None)
        run_dir = next((tmp_path / "runs").iterdir())
        meta = json.loads((run_dir / "meta.json").read_text())
        rebuilt = parse_config(meta["config"])
        assert rebuilt == RunConfig(**{**meta["config"]})

    def test_bit_identical_reruns(self, tmp_path):
        cfg = self._config(tmp_path)
        run(cfg, echo=lambda *a: None)
        run(cfg, echo=lambda *a: None)
        dirs = sorted((tmp_path / "runs").iterdir())
        assert len(dirs) == 2
        a = (dirs[0] / "rows.csv").read_bytes()
        b = (dirs[1] / "rows.csv").read_bytes()
        assert a == b

    def test_json_rows_format(self, tmp_path):
        cfg = self._config(tmp_path)
        cfg.format = "json"
        run(cfg, echo=lambda *a: None)
        run_dir = next((tmp_path / "runs").iterdir())
        rows = json.loads((run_dir / "rows.json").read_text())
        assert rows[0]["branch"] == "1"
        assert set(rows[0]) == set(GOLDEN_COLUMNS["exp_bargmann"])

    def test_zero_tolerance_fails_with_worst_row(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        cfg.params["tolerance"] = 0.0
        lines = []
        assert run(cfg, echo=lines.append) == EXIT_TOLERANCE
        assert any("worst row" in line for line in lines)

    @pytest.mark.parametrize("name, fast", [
        ("exp_bargmann", ["params.pairs=[[0.5,0.8]]", "grid.n_points=1024"]),
        ("exp_frame_phase", []),
    ])
    def test_parameters_echo_the_configured_internal_space(self, tmp_path, name, fast):
        # E0 and levels reach the experiment as configured, not rebuilt
        # from the branch masses (which moves E0 to M_1 c^2 = 95 here)
        cfg = parse_config(experiment=name,
                           overrides=["internal.levels=[-5.0,10.0]", *fast])
        cfg.output = str(tmp_path)
        run(cfg, echo=lambda *a: None)
        meta = json.loads((next(tmp_path.iterdir()) / "meta.json").read_text())
        assert meta["parameters"]["E0"] == meta["config"]["internal"]["E0"] == 100.0
        assert meta["parameters"]["levels"] == meta["config"]["internal"]["levels"]

    @pytest.mark.parametrize("name, fn", [
        ("exp_bargmann", exp_bargmann),
        ("exp_frame_phase", exp_frame_phase),
        ("exp_clock_dilation", exp_clock_dilation),
    ])
    def test_cli_defaults_equal_python_defaults(self, tmp_path, name, fn):
        cfg = parse_config(experiment=name)
        cfg.output = str(tmp_path)
        cfg.format = "json"
        run(cfg, echo=lambda *a: None)
        cli_rows = json.loads((next(tmp_path.iterdir()) / "rows.json").read_text())
        result = fn()
        assert cli_rows == [{col: row[col] for col in result.columns}
                            for row in result.rows]

    def test_csv_floats_have_17_significant_digits(self, tmp_path):
        cfg = self._config(tmp_path)
        run(cfg, echo=lambda *a: None)
        run_dir = next((tmp_path / "runs").iterdir())
        body = (run_dir / "rows.csv").read_text().splitlines()[1]
        assert "0.80000000000000004" in body  # repr-exact 0.8


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5000),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4),
    st.lists(st.floats(-1.0, 1.0), max_size=5))


@st.composite
def _overrides(draw):
    name = draw(st.sampled_from(sorted(EXPERIMENTS)))
    leaves = _leaf_paths(EXPERIMENTS[name].defaults) + ["output", "format"]
    paths = draw(st.lists(st.sampled_from(leaves), max_size=4))
    return name, [f"{path}={json.dumps(draw(_JSON_VALUES))}" for path in paths]


class TestConfigRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(_overrides())
    def test_resolved_config_reproduces_itself(self, case):
        name, overrides = case
        try:
            cfg = parse_config(experiment=name, overrides=overrides)
        except ConfigError:
            return
        assert parse_config(cfg.as_dict()) == cfg


class TestGoldenSchemas:
    def test_columns_frozen(self):
        from massclock.experiments import EXPERIMENTS

        for name, columns in GOLDEN_COLUMNS.items():
            assert EXPERIMENTS[name].columns == columns


class TestShippedConfigs:
    def test_all_shipped_configs_validate(self):
        from pathlib import Path

        configs = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
        assert len(configs) >= 3
        for path in configs:
            cfg = parse_config(path)
            assert cfg.experiment in GOLDEN_COLUMNS


class TestMain:
    def test_list_text(self, capsys):
        assert main(["list"]) == EXIT_PASS
        out = capsys.readouterr().out
        for name in GOLDEN_COLUMNS:
            assert name in out
        assert "Eq. (2)" in out

    def test_list_json(self, capsys):
        assert main(["list", "--format", "json"]) == EXIT_PASS
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 6
        assert entries[0]["name"] == "exp_bargmann"
        assert entries[0]["anchor"] == "Eq. (2)"

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_validate(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "exp_bargmann"}))
        assert main(["validate", "--config", str(path)]) == EXIT_PASS
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["experiment"] == "exp_bargmann"
        assert resolved["grid"]["n_points"] == 2048

    def test_validate_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "exp_bargmann",
                                    "params": {"sigm": 1.0}}))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG

    def test_run_happy_path(self, tmp_path, capsys):
        code = main(["run", "exp_bargmann", *FAST_BARGMANN,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PASS
        assert (tmp_path / "o").exists()

    def test_run_numerical_precondition_exit_3(self, tmp_path, capsys):
        code = main(["run", "exp_frame_phase", "--set", "params.dt=0.1",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION

    def test_jobs_flag_rejected(self, tmp_path, capsys):
        code = main(["run", "exp_bargmann", *FAST_BARGMANN, "--jobs", "2",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, override", [
        ("exp_bargmann", 'internal.levels="05"'),
        ("exp_frame_phase", 'params.sigma="x"'),
    ])
    def test_wrong_typed_value_exits_2(self, tmp_path, capsys, name, override):
        code = main(["run", name, "--set", override, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_phase_fit_below_100_samples_exits_3(self, tmp_path, capsys):
        # 50 steps sampled every 10 leave 6 samples for the clock-rate fit
        code = main(["run", "exp_wep", "--set", 'params.kinds=["newtonian"]',
                     "--set", "params.total_time=0.05", "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert ">= 100 samples (design rule), got 6" in capsys.readouterr().out

    def test_run_sweep_too_few_points_exit_2(self, tmp_path, capsys):
        code = main(["run", "exp_newtonian_sweep",
                     "--set", "params.epsilons=[0.01]",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
