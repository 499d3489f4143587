import csv
import functools
import json
import math
import re
import tempfile
from pathlib import Path

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
    write_rows_csv,
)
from massclock.errors import ConfigError
from massclock.experiments import (
    DEFAULT_BARGMANN_PAIRS,
    EXPERIMENTS,
    exp_bargmann,
    exp_clock_semiclassical,
    exp_frame_phase,
)

FAST_BARGMANN = ["--set", "params.pairs=[[0.5,0.8]]"]

GOLDEN_COLUMNS = {
    "exp_bargmann": ("branch", "a", "w", "phase_measured", "phase_predicted",
                     "abs_error"),
    "exp_clock_semiclassical": ("mode", "v_over_c", "gh_over_c2", "shift_measured",
                                "shift_predicted", "abs_error", "rel_error"),
    "exp_clock_wavepacket": ("mode", "v_over_c", "gh_over_c2", "shift_measured",
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
        cfg = parse_config(experiment="exp_wep")
        assert cfg.grid == {"x_min": -40.0, "x_max": 40.0, "n_points": 256}
        assert cfg.params["sigma"] == 2.0
        assert "grid.x_min" in cfg.defaulted
        assert "params.sigma" in cfg.defaulted

    def test_unknown_key_suggestion(self):
        with pytest.raises(ConfigError, match="sigma"):
            parse_config({"experiment": "exp_wep", "params": {"sigm": 2.0}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"experiment": "exp_bargmann", "grd": {}})

    def test_misspelt_experiment_key_suggests_it(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experimnt": "exp_wep"}))
        assert main(["run", "exp_wep", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err == ("config error: unknown key 'experimnt' in "
                                           "config; did you mean 'experiment'?\n")

    def test_set_names_the_experiment_as_the_file_key_does(self):
        assert (parse_config({}, overrides=["experiment=exp_bargmann"])
                == parse_config(experiment="exp_bargmann"))
        with pytest.raises(ConfigError, match="experiment mismatch"):
            parse_config(experiment="exp_wep", overrides=["experiment=exp_bargmann"])

    @pytest.mark.parametrize("config, overrides, source", [
        (None, ["experiment=exp_bargmann"], "--set experiment"),
        ({"experiment": "exp_wep"}, ["experiment=exp_bargmann"], "--set experiment"),
        ({"experiment": "exp_bargmann"}, [], "config file"),
        ({"experiment": "exp_bargmann"}, ["params.sigma=2.0"], "config file"),
    ], ids=["set", "set_over_file", "file", "file_with_other_set"])
    def test_mismatch_names_where_the_name_came_from(self, tmp_path, capsys, config,
                                                      overrides, source):
        args = ["run", "exp_wep", "--out", str(tmp_path / "o")]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            args += ["--config", str(path)]
        for raw in overrides:
            args += ["--set", raw]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: experiment mismatch: command line says 'exp_wep', "
            f"{source} says 'exp_bargmann'\n")

    def test_of_two_errors_the_first_in_the_defaults_order_is_reported(self):
        # grid comes before params in the defaults, whatever the user's order
        with pytest.raises(ConfigError, match=r"^grid\.x_min must be a number, got True$"):
            parse_config(experiment="exp_wep",
                         overrides=["params.sigmaa=1", "grid.x_min=true"])

    def test_invariant_violation_names_section(self):
        with pytest.raises(ConfigError, match="internal"):
            parse_config({"experiment": "exp_frame_phase",
                          "internal": {"E0": 100.0, "levels": [0.0, 200.0]}})

    def test_unknown_experiment_suggestion(self):
        with pytest.raises(ConfigError, match="exp_bargmann"):
            parse_config(experiment="exp_bargman")

    @pytest.mark.parametrize("source, overrides", [
        pytest.param({"experiment": ["exp_wep"]}, [], id="list"),
        pytest.param({"experiment": 5}, [], id="number"),
        pytest.param({}, ["experiment.x=1"], id="object-from-set"),
    ])
    def test_an_experiment_that_is_not_a_string_is_unknown(self, source, overrides):
        # a list or an object used to escape as a Python TypeError (unhashable)
        with pytest.raises(ConfigError, match="^unknown experiment "):
            parse_config(source, overrides=overrides)

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
        path.write_text(json.dumps({"experiment": "exp_wep",
                                    "params": {"sigma": 2.0}}))
        cfg = parse_config(path, overrides=["params.sigma=3.0"])
        assert cfg.params["sigma"] == 3.0
        assert "params.sigma" not in cfg.defaulted

    def test_override_unknown_path(self):
        with pytest.raises(ConfigError, match="did you mean"):
            parse_config(experiment="exp_wep", overrides=["params.sigm=1"])

    def test_sweep_needs_two_points(self):
        with pytest.raises(ConfigError,
                           match="params.epsilons: sweep needs at least two eps values"):
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
                      "internal": {"levels": [0.0, 1.0]}}, [],
                     "levels", id="sweep-levels"),
    ])
    def test_key_outside_the_schema_rejected(self, source, overrides, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(source, overrides=overrides)

    @pytest.mark.parametrize("name, override, match", [
        pytest.param("exp_frame_phase", 'internal.levels="05"',
                     "internal.levels must be a list", id="string-levels"),
        pytest.param("exp_frame_phase", "internal.levels=5",
                     "internal.levels must be a list", id="number-levels"),
        pytest.param("exp_frame_phase", "internal.levels=[0,true]",
                     r"internal\.levels\[1\] must be a number, got True", id="bool-level"),
        pytest.param("exp_wep", "grid.n_points=2048.5",
                     "grid.n_points must be an integer, got 2048.5", id="number-for-n-points"),
        pytest.param("exp_frame_phase", 'internal.E0="x"',
                     "internal.E0 must be a number, got 'x'", id="string-for-e0"),
        pytest.param("exp_frame_phase", "physical.c=[1]",
                     r"physical\.c must be a number, got \[1\]", id="list-for-c"),
        pytest.param("exp_wep", "params.kinds=[1]",
                     r"params\.kinds\[0\] must be a string, got 1", id="number-for-string"),
        pytest.param("exp_frame_phase", 'params.speed="x"', "params.speed must be a number",
                     id="string-for-number"),
        pytest.param("exp_frame_phase", "params.speed=true", "params.speed must be a number",
                     id="bool-for-number"),
        pytest.param("exp_frame_phase", "params.speed=[1.0]", "params.speed must be a number",
                     id="list-for-number"),
        pytest.param("exp_bargmann", "params.pairs=0.5", "params.pairs must be a list",
                     id="number-for-list"),
        pytest.param("exp_wep", "params.sample_every=10.0",
                     "params.sample_every must be an integer", id="number-for-integer"),
        pytest.param("exp_newtonian_sweep", "params.epsilons=null",
                     "params.epsilons must be a list", id="null-for-list"),
        pytest.param("exp_bargmann", "params.pairs=[[0.5]]",
                     r"params\.pairs\[0\] must have 2 items, got \[0\.5\]", id="short-pair"),
        pytest.param("exp_bargmann", "params.pairs=[0.5]",
                     r"params\.pairs\[0\] must be a list, got 0\.5", id="number-for-pair"),
        pytest.param("exp_clock_semiclassical", 'params.v_over_c=[0.1,"a"]',
                     r"params\.v_over_c\[1\] must be a number", id="string-item"),
    ])
    def test_wrong_typed_value_rejected(self, name, override, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(experiment=name, overrides=[override])

    def test_non_finite_number_in_a_dict_tuple_rejected(self):
        # a dict config from Python may hold tuples, which JSON never does
        with pytest.raises(ConfigError,
                           match=r"internal\.levels\[1\] must be a finite number"):
            parse_config({"experiment": "exp_frame_phase",
                          "internal": {"levels": (0.0, float("nan"))}})

    def test_a_tuple_from_python_reads_as_a_list(self):
        cfg = parse_config({"experiment": "exp_frame_phase",
                            "internal": {"levels": (0.0, 10.0)}})
        assert cfg.internal["levels"] == (0.0, 10.0)

    @pytest.mark.parametrize("source, overrides, match", [
        pytest.param([{"experiment": "exp_wep"}], [], "unsupported config source list",
                     id="list-source"),
        pytest.param({}, [], "no experiment named", id="no-experiment"),
        pytest.param({"experiment": "exp_wep", "grid": 5}, [], "'grid' must be an object",
                     id="section-not-an-object"),
        pytest.param({"experiment": "exp_wep"}, ["params.sigma"],
                     "--set needs key=value, got 'params.sigma'", id="set-without-value"),
        pytest.param({"experiment": "exp_wep"}, ["params.sigma=2.0", "params.sigma.x=1"],
                     "--set path 'params.sigma.x' descends into a non-section key",
                     id="set-below-a-leaf"),
        pytest.param({"experiment": "exp_wep"}, ["grid.n_points=100"],
                     "grid: n_points must be a power of two >= 8, got 100",
                     id="grid-invariant"),
    ])
    def test_malformed_config_refused(self, source, overrides, match):
        with pytest.raises(ConfigError, match=re.escape(match)):
            parse_config(source, overrides=overrides)

    def test_config_file_root_must_be_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('["exp_wep"]')
        with pytest.raises(ConfigError, match="config root must be a JSON object"):
            parse_config(path)

    def test_set_value_that_is_not_json_is_a_bare_string(self):
        cfg = parse_config(experiment="exp_wep", overrides=["format=json"])
        assert cfg.format == "json"

    def test_int_and_float_are_both_numbers(self):
        # a float default takes any number; an int default only an integer
        cfg = parse_config(experiment="exp_wep", overrides=["params.g=2"])
        assert cfg.params["g"] == 2
        with pytest.raises(ConfigError, match="params.sample_every must be an integer"):
            parse_config(experiment="exp_wep",
                         overrides=["params.g=2", "params.sample_every=10.0"])


class TestRun:
    def _config(self, tmp_path, **extra):
        overrides = ["params.pairs=[[0.5,0.8]]"]
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
        assert "params.masses" in meta["defaulted_keys"]

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

    @pytest.mark.parametrize("name, x_min, cause", [
        # a packet 4.4 sigma from the grid's edge at its lowest falls
        # 4.6e-6 relative off -g
        pytest.param("exp_wep", "-6.0",
                     r"worst row 0: \{'kind': 'low_energy', 'quantity': 'acceleration', ",
                     id="exp_wep-worst-row"),
        # the sweep's verdict reads two slopes, and its rows have no abs_error
        pytest.param("exp_newtonian_sweep", "-9.0",
                     r"details \{'slope': 1\.0\d*, 'residual_slope': 1\.7\d*\} against "
                     r"tolerance \{'slope': 0\.1, 'residual_slope': 0\.1\}$",
                     id="exp_newtonian_sweep-details"),
    ])
    def test_a_failing_run_names_its_cause(self, tmp_path, name, x_min, cause):
        cfg = parse_config(experiment=name,
                           overrides=[*_LEAVES[name][0], f"grid.x_min={x_min}"])
        cfg.output = str(tmp_path)
        lines = []
        assert run(cfg, echo=lines.append) == EXIT_TOLERANCE
        assert re.match("TOLERANCE FAIL; " + cause, lines[-1])

    @pytest.mark.parametrize("name, overrides, section, echo", [
        ("exp_bargmann", ["params.masses=[0.95,1.1]", "params.pairs=[[0.5,0.8]]"],
         "params", {"masses": [0.95, 1.1], "pairs": [[0.5, 0.8]]}),
        ("exp_frame_phase", ["internal.levels=[-5.0,10.0]"],
         "internal", {"E0": 100.0, "levels": [-5.0, 10.0]}),
    ])
    def test_meta_is_the_run_record(self, tmp_path, name, overrides, section, echo):
        # config is the only echo of the settings; the masses, or E0 and the
        # levels, stay as configured, not rebuilt from each other
        # (E0 = M_1 c^2 = 95 in units c = 1 for the masses)
        cfg = parse_config(experiment=name, overrides=overrides)
        cfg.output = str(tmp_path)
        lines = []
        assert run(cfg, echo=lines.append) == EXIT_PASS
        meta = json.loads((next(tmp_path.iterdir()) / "meta.json").read_text())
        assert set(meta) == {"artifact_version", "experiment", "passed", "tolerance",
                             "runtime_seconds", "columns", "details",
                             "defaulted_keys", "config"}
        assert meta["experiment"] == name
        assert meta["runtime_seconds"] > 0
        assert lines[-1] == f"PASS ({meta['runtime_seconds']:.2f}s)"
        assert meta["config"][section] == echo

    @pytest.mark.parametrize("name, fn", [
        ("exp_bargmann", exp_bargmann),
        ("exp_frame_phase", exp_frame_phase),
        ("exp_clock_semiclassical", exp_clock_semiclassical),
    ])
    def test_cli_defaults_equal_python_defaults(self, tmp_path, name, fn):
        cfg = parse_config(experiment=name)
        cfg.output = str(tmp_path)
        cfg.format = "json"
        run(cfg, echo=lambda *a: None)
        cli_rows = json.loads((next(tmp_path.iterdir()) / "rows.json").read_text())
        assert cli_rows == fn().rows

    def test_csv_floats_have_17_significant_digits(self, tmp_path):
        cfg = self._config(tmp_path)
        run(cfg, echo=lambda *a: None)
        run_dir = next((tmp_path / "runs").iterdir())
        body = (run_dir / "rows.csv").read_text().splitlines()[1]
        assert "0.80000000000000004" in body  # repr-exact 0.8

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=8))
    def test_csv_round_trips_every_finite_float(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            write_rows_csv(path, [{"x": v} for v in values])
            with path.open(newline="", encoding="utf-8") as fh:
                cells = [row[0] for row in csv.reader(fh)][1:]
        back = [float(cell) for cell in cells]
        assert back == values
        assert [math.copysign(1.0, v) for v in back] == [math.copysign(1.0, v)
                                                        for v in values]


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

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(EXPERIMENTS)), st.data())
    def test_the_walk_defaults_exactly_the_leaves_not_given(self, name, data):
        defaults = {**EXPERIMENTS[name].defaults, "output": "runs", "format": "csv"}
        leaves = _leaf_paths(defaults)
        given_ = data.draw(st.sets(st.sampled_from(leaves)))
        user = {"experiment": name}
        for path in given_:
            _set_leaf(user, path, _leaf(defaults, path))
        cfg = parse_config(user)
        assert cfg.defaulted == tuple(sorted(set(leaves) - given_))
        assert cfg.as_dict() == parse_config(experiment=name).as_dict()

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(EXPERIMENTS)), st.data())
    def test_a_bad_value_at_any_leaf_is_refused_by_its_path(self, name, data):
        defaults = {**EXPERIMENTS[name].defaults, "output": "runs", "format": "csv"}
        path = data.draw(st.sampled_from(_leaf_paths(defaults)))
        wrong_type = 1.0 if isinstance(_leaf(defaults, path), str) else "x"
        bad = data.draw(st.sampled_from([math.nan, math.inf, wrong_type]))
        user = {"experiment": name}
        _set_leaf(user, path, bad)
        with pytest.raises(ConfigError) as info:
            parse_config(user)
        text = str(info.value)
        assert text.startswith(f"{path} must be ")
        assert ("a finite number" in text) == (bad is not wrong_type)


def _leaf(tree: dict, path: str):
    for part in path.split("."):
        tree = tree[part]
    return tree


def _set_leaf(tree: dict, path: str, value) -> None:
    *sections, leaf = path.split(".")
    for part in sections:
        tree = tree.setdefault(part, {})
    tree[leaf] = value


class TestGoldenSchemas:
    @pytest.mark.parametrize("name", sorted(GOLDEN_COLUMNS))
    def test_columns_frozen(self, name):
        # columns of the cached base runs that TestNoDeadKey makes anyway
        columns = tuple(_outcome(name, _LEAVES[name][0])[1][0])
        assert columns == GOLDEN_COLUMNS[name]


class TestShippedConfigs:
    def test_all_shipped_configs_validate(self):
        from pathlib import Path

        configs = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
        assert len(configs) >= 3
        for path in configs:
            cfg = parse_config(path)
            assert cfg.experiment in GOLDEN_COLUMNS

    @pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "configs").glob("*.json")),
                             ids=lambda path: path.name)
    def test_a_shipped_config_resolves_to_its_experiments_defaults(self, path):
        # each shipped config writes out (some of) its runner's defaults, so
        # a default that moves without its config fails here
        cfg = parse_config(path)
        assert cfg == parse_config(experiment=cfg.experiment)


class TestMain:
    def test_list_text(self, capsys):
        assert main(["list"]) == EXIT_PASS
        out = capsys.readouterr().out
        for name in GOLDEN_COLUMNS:
            assert name in out
        assert "Eq. (2)" in out
        assert "keys: params.gh_over_c2, params.v_over_c\n" in out

    def test_list_json(self, capsys):
        assert main(["list", "--format", "json"]) == EXIT_PASS
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 7
        assert entries[0]["name"] == "exp_bargmann"
        assert entries[0]["anchor"] == "Eq. (2)"
        keys = {e["name"]: e["keys"] for e in entries}
        assert keys["exp_clock_semiclassical"] == ["params.gh_over_c2", "params.v_over_c"]
        for name, exp in EXPERIMENTS.items():
            assert keys[name] == sorted(_leaf_paths(exp.defaults))

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_validate(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "exp_bargmann"}))
        assert main(["validate", "--config", str(path)]) == EXIT_PASS
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["experiment"] == "exp_bargmann"
        assert resolved["grid"] == {}  # the loop phase is read on the probe packet
        assert resolved["params"] == {"masses": [1.0, 1.1],
                                      "pairs": [list(p) for p in DEFAULT_BARGMANN_PAIRS]}

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

    def test_out_and_format_are_overrides_that_win_over_set(self, tmp_path, monkeypatch,
                                                           capsys):
        # --out and --format go through the config walk after --set: they are
        # recorded as given, not as defaulted, and --out wins over --set output;
        # a directory name that parses as JSON stays a string
        monkeypatch.chdir(tmp_path)
        for flags in (["--out", "123", "--format", "json"],
                      ["--set", "output=from_set", "--set", "format=csv",
                       "--out", "123", "--format", "json"]):
            assert main(["run", "exp_interferometer", *flags]) == EXIT_PASS
        assert not (tmp_path / "from_set").exists()
        run_dirs = sorted((tmp_path / "123").iterdir())
        assert len(run_dirs) == 2
        for run_dir in run_dirs:
            meta = json.loads((run_dir / "meta.json").read_text())
            assert {"output", "format"}.isdisjoint(meta["defaulted_keys"])
            assert (meta["config"]["output"], meta["config"]["format"]) == ("123", "json")
            assert (run_dir / "rows.json").exists()

    def test_run_numerical_precondition_exit_3(self, tmp_path, capsys):
        # dt = 0.075 (40 steps) puts the kinetic phase spread per step,
        # 50.5 dt = 3.790 rad, above pi: the alias limit
        code = main(["run", "exp_wep", "--set", "params.dt=0.075",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert ("kinetic phase spread per step dt*(max T - min T)/hbar = 3.790 >= pi"
                in capsys.readouterr().out)
        assert not (tmp_path / "o").exists()

    def test_jobs_flag_rejected(self, tmp_path, capsys):
        code = main(["run", "exp_bargmann", *FAST_BARGMANN, "--jobs", "2",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, override", [
        ("exp_frame_phase", 'internal.levels="05"'),
        ("exp_frame_phase", 'params.speed="x"'),
        ("exp_frame_phase", "params.total_time=[1.0]"),
        ("exp_wep", "params.sample_every=2001.0"),
        ("exp_newtonian_sweep", 'params.m="x"'),
        ("exp_bargmann", "params.masses=[1.0,NaN]"),
        ("exp_wep", "params.total_time=NaN"),
        ("exp_wep", "params.total_time=Infinity"),
        ("exp_wep", "params.g=NaN"),
        ("exp_newtonian_sweep", "params.epsilons=[NaN,0.01,0.1,0.05]"),
        ("exp_wep", "grid.x_max=Infinity"),
        ("exp_bargmann", "params.pairs=[[0.5,-Infinity]]"),
        ("exp_bargmann", "params.pairs=[[0.5]]"),
        ("exp_bargmann", "params.pairs=[[0.5,0.8,0.1]]"),
        ("exp_bargmann", "params.pairs=[0.5]"),
        ("exp_bargmann", 'params.pairs=[[0.5,"a"]]'),
        ("exp_clock_semiclassical", 'params.v_over_c=["a"]'),
        ("exp_newtonian_sweep", 'params.epsilons=["x",0.01,0.1,0.05]'),
        ("exp_wep", "params.kinds=[[]]"),
    ])
    def test_wrong_typed_value_exits_2(self, tmp_path, capsys, name, override):
        code = main(["run", name, "--set", override, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        assert override.partition("=")[0].rpartition(".")[2] in err  # names the key
        assert not (tmp_path / "o").exists()

    def test_non_finite_number_in_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"experiment": "exp_newtonian_sweep", '
                        '"params": {"epsilons": [0.001, 0.01, 0.1, NaN]}}')
        assert main(["run", "--config", str(path), "exp_newtonian_sweep",
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert ("config error: params.epsilons[3] must be a finite number, got nan"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_phase_fit_below_100_samples_exits_3(self, tmp_path, capsys):
        # 50 steps sampled every 10 leave 6 samples for the clock-rate fit
        code = main(["run", "exp_wep", "--set", 'params.kinds=["newtonian"]',
                     "--set", "params.total_time=0.05", "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert ">= 100 samples (design rule), got 6" in capsys.readouterr().out

    @pytest.mark.parametrize("name, override", [
        ("exp_wep", "params.kinds=[1]"),
        ("exp_wep", 'params.kinds=["nope"]'),
        ("exp_wep", 'params.kinds=["exact"]'),
    ])
    def test_runner_rule_checked_at_config_time(self, tmp_path, capsys, name, override):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": name}))
        assert main(["validate", "--config", str(path), "--set", override]) == EXIT_CONFIG
        code = main(["run", name, "--set", override, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.count("config error: params.") == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, leaf", [
        (name, leaf) for name, exp in EXPERIMENTS.items()
        for leaf in ("physical.c", "internal.E0", "params.m")
        if leaf in _leaf_paths(exp.defaults)])
    def test_non_positive_constant_exits_2(self, tmp_path, capsys, name, leaf):
        code = main(["run", name, "--set", f"{leaf}=0.0", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "must be positive" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_wavepacket_window_below_100_samples_exits_3(self, tmp_path, capsys):
        # 50 steps sampled every 10 leave 6 history samples, too few for any fit
        code = main(["run", "exp_clock_wavepacket", "--set", "params.total_time=0.1",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert ">= 100 samples (design rule), got 6" in capsys.readouterr().out

    @pytest.mark.parametrize("dt", ["0.0", "-0.001"])
    @pytest.mark.parametrize("name", ["exp_wep", "exp_newtonian_sweep",
                                      "exp_clock_wavepacket"])
    def test_non_positive_dt_exits_3(self, tmp_path, capsys, name, dt):
        # the step count total_time / dt is taken only after dt is checked
        code = main(["run", name, "--set", f"params.dt={dt}",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert "dt must be positive" in capsys.readouterr().out
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("total_time", ["0.0", "-0.5", "0.0004"])
    @pytest.mark.parametrize("name", ["exp_wep", "exp_newtonian_sweep",
                                      "exp_clock_wavepacket"])
    def test_window_without_a_step_exits_3(self, tmp_path, capsys, name, total_time):
        # every runner that counts Strang steps refuses a window of none
        code = main(["run", name, "--set", f"params.total_time={total_time}",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert "must round to at least one step" in capsys.readouterr().out
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("total_time", ["0.0", "-1.0"])
    @pytest.mark.parametrize("name", ["exp_interferometer", "exp_frame_phase"])
    def test_path_window_of_no_time_exits_3(self, tmp_path, capsys, name, total_time):
        # the trajectory factories own the window rule, and it names the key
        code = main(["run", name, "--set", f"params.total_time={total_time}",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert (f"total_time must be positive and finite, got {float(total_time)!r}"
                in capsys.readouterr().out)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["exp_wep", "exp_newtonian_sweep",
                                      "exp_clock_wavepacket"])
    def test_window_of_a_fraction_of_a_step_exits_3(self, tmp_path, capsys, name):
        # the predictions read total_time, so the run must propagate it
        code = main(["run", name, "--set", "params.total_time=1.0001",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert "must be a whole number of steps" in capsys.readouterr().out
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("masses, match", [
        ("[]", "need at least one mass"),
        ("[1.1,1.0]", "sorted ascending"),
        ("[0.0,1.0]", "must be positive"),
    ])
    def test_masses_without_an_internal_space_exit_2(self, tmp_path, capsys, masses,
                                                      match):
        code = main(["run", "exp_bargmann", "--set", f"params.masses={masses}",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: params.masses: " in err and match in err
        assert not (tmp_path / "o").exists()

    def test_masses_far_apart_run_and_pass(self, tmp_path):
        # M_2 >= 2 M_1 makes an internal space: it is referred to the heavier
        code = main(["run", "exp_bargmann", "--set", "params.masses=[1.0,2.5]",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PASS
        meta = json.loads((next((tmp_path / "o").iterdir()) / "meta.json").read_text())
        assert meta["passed"] is True
        assert meta["config"]["params"]["masses"] == [1.0, 2.5]

    def test_sweep_discrepancy_reaching_half_pi_exits_3(self, tmp_path, capsys):
        code = main(["run", "exp_newtonian_sweep", "--set", "params.p0=5.0",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert "reaches pi/2" in capsys.readouterr().out
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides, band, n_points", [
        # at N = 1024 the default dt 1e-2 is past the alias limit (8.08 rad)
        pytest.param(("params.g=14.0", "params.x0=30.0", "grid.n_points=1024",
                      "params.dt=2.5e-3", "params.sample_every=4"),
                     r"\[-43\.000, 1\.000\]", 1024, id="g14-x0-30-N1024"),
        pytest.param(("params.g=4.0",), r"\[-13\.000, 1\.000\]", 256, id="g4-default-grid"),
    ])
    def test_a_fall_that_outruns_the_momentum_grid_exits_3(self, tmp_path, capsys,
                                                           overrides, band, n_points):
        # the falling packet's M g T passes pi hbar / dx: it would wrap
        # around the momentum grid and read a wrong acceleration (exit 4)
        sets = [arg for override in overrides for arg in ("--set", override)]
        code = main(["run", "exp_wep", *sets, "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION and not (tmp_path / "o").exists()
        assert re.search(rf"kind dynamical_mass: branch 0: momentum band {band} leaves "
                         rf"\+/-pi hbar/dx = .* of grid\.n_points={n_points}",
                         capsys.readouterr().out)

    def test_a_launch_wrapped_around_the_momentum_grid_exits_3(self, tmp_path, capsys):
        # p0 = 14 is past pi hbar / dx = 10.053 of the default grid: built
        # unrefused, the packet would read <p> ~ -6 and the sweep would
        # report rows for a packet moving the wrong way
        sets = ["params.p0=14.0", "params.g=0.0", "params.epsilons=[1e-6, 1e-5]"]
        code = main(["run", "exp_newtonian_sweep", *(arg for s in sets for arg in ("--set", s)),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION and not (tmp_path / "o").exists()
        assert re.search(r"packet momentum band \[13\.000, 15\.000\] leaves "
                         r"\+/-pi hbar/dx = \+/-10\.053 of grid\.n_points=256",
                         capsys.readouterr().out)

    @pytest.mark.parametrize("x0", [3.0, 8.0])
    def test_the_free_fall_benchmark_range_passes(self, x0):
        # perfbench's free_fall draws params.x0 from [3, 8] at the defaults
        assert _outcome("exp_wep", (f"params.x0={x0!r}",))[0] == EXIT_PASS

    def test_run_sweep_too_few_points_exit_2(self, tmp_path, capsys):
        code = main(["run", "exp_newtonian_sweep",
                     "--set", "params.epsilons=[0.01]",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("name, overrides", [
        ("exp_wep", ["params.kinds=[]"]),
        ("exp_bargmann", ["params.pairs=[]"]),
        ("exp_clock_semiclassical", ["params.v_over_c=[]", "params.gh_over_c2=[]"]),
        ("exp_clock_wavepacket", ["params.v_over_c=[]", "params.gh_over_c2=[]"]),
    ])
    def test_run_with_no_rows_exits_3(self, tmp_path, capsys, name, overrides):
        sets = [arg for override in overrides for arg in ("--set", override)]
        code = main(["run", name, *sets, "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert "at least one row (design rule)" in capsys.readouterr().out
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, override", [
        ("exp_clock_semiclassical", "params.mode=semiclassical"),
        ("exp_clock_wavepacket", "params.mode=wavepacket"),
        ("exp_clock_semiclassical", "grid.n_points=8"),
        ("exp_clock_semiclassical", "params.sigma=0.001"),
        ("exp_clock_semiclassical", "params.dt=123.0"),
        ("exp_clock_wavepacket", "params.n_samples=2001"),
        ("exp_frame_phase", "params.dt=0.001"),
        # keys whose quantity cancels from the rows
        *[("exp_bargmann", key) for key in (
            "grid.x_min=-40.0", "grid.x_max=40.0", "grid.n_points=2048",
            "params.sigma=1.0", "params.x0=0.0", "params.p0=0.0")],
        *[("exp_frame_phase", key) for key in (
            "grid.x_min=-40.0", "grid.x_max=40.0", "grid.n_points=1024",
            "params.sigma=1.0", "params.x0=0.0", "params.n_samples=2001")],
        *[("exp_clock_semiclassical", key) for key in (
            "internal.E0=100.0", "internal.levels=[0.0,0.5]", "physical.hbar=1.0",
            "physical.c=10.0", "params.total_time=10.0", "params.n_samples=2001")],
        ("exp_interferometer", "internal.E0=100.0"),
        ("exp_interferometer", "internal.levels=[0.0,10.0]"),
        # keys removed with units hbar = 1 and one key per quantity
        *[(name, "physical.hbar=1.0") for name in (
            "exp_bargmann", "exp_clock_wavepacket", "exp_interferometer",
            "exp_newtonian_sweep", "exp_wep", "exp_frame_phase")],
        *[("exp_bargmann", key) for key in (
            "internal.E0=100.0", "internal.levels=[0.0,10.0]", "physical.c=10.0")],
        *[("exp_newtonian_sweep", key) for key in (
            "internal.E0=100.0", "physical.c=10.0", "params.sample_every=10")],
        ("exp_interferometer", "params.n_samples=2001"),
        # pass bounds, fixed in each runner
        *[(name, "params.tolerance=1.0") for name in (
            "exp_bargmann", "exp_interferometer", "exp_frame_phase")],
        ("exp_newtonian_sweep", "params.slope_tolerance=1.0"),
        ("exp_wep", "params.accel_tolerance=1.0"),
    ])
    def test_key_a_runner_does_not_read_exits_2(self, tmp_path, capsys, name,
                                                      override):
        code = main(["run", name, "--set", override, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "config error: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": name}))
        assert main(["validate", "--config", str(path), "--set", override]) == EXIT_CONFIG
        assert "config error: unknown key" in capsys.readouterr().err

    def test_old_clock_name_suggests_a_new_one(self, tmp_path, capsys):
        code = main(["run", "exp_clock_dilation", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "did you mean 'exp_clock_semiclassical'" in capsys.readouterr().err

    def test_wavepacket_clock_passes_at_its_defaults(self, tmp_path, capsys):
        code = main(["run", "exp_clock_wavepacket", "--format", "json",
                     "--out", str(tmp_path)])
        assert code == EXIT_PASS
        rows = json.loads((next(tmp_path.iterdir()) / "rows.json").read_text())
        assert len(rows) == 5
        assert all(row["mode"] == "wavepacket" and row["rel_error"] < 2e-2
                   for row in rows)


@functools.lru_cache(maxsize=None)
def _outcome(name, overrides):
    """(exit code, rows) of ``massclock run name --set ...``; rows is None
    when the run writes none."""
    with tempfile.TemporaryDirectory() as tmp:
        sets = [arg for override in overrides for arg in ("--set", override)]
        code = main(["run", name, *sets, "--format", "json", "--out", tmp])
        written = list(Path(tmp).glob("*/rows.json"))
        return code, json.loads(written[0].read_text()) if written else None


def _drift(rows, other) -> float:
    """Largest move of a float cell between two row lists; inf when they
    differ in length, keys or a cell that is not a float."""
    if len(rows) != len(other) or any(list(a) != list(b) for a, b in zip(rows, other)):
        return math.inf
    moves = [abs(a[k] - b[k]) if isinstance(a[k], float) else
             (0.0 if a[k] == b[k] else math.inf) for a, b in zip(rows, other) for k in a]
    return max(moves)


# A small passing base config per runner (one row where the runner allows)
# and, for every config leaf, a value that must move a float cell of the
# rows by more than 1e-9 or turn exit 0 into exit 4.
_LEAVES = {
    "exp_bargmann": (
        ("params.pairs=[[0.5,0.8]]",),
        {"params.masses": "[1.0,1.2]", "params.pairs": "[[0.4,0.8]]"}),
    "exp_clock_semiclassical": (
        ("params.v_over_c=[0.1]", "params.gh_over_c2=[]"),
        {"params.v_over_c": "[0.2]", "params.gh_over_c2": "[0.01]"}),
    "exp_clock_wavepacket": (
        ("params.v_over_c=[]", "params.gh_over_c2=[0.01]", "params.total_time=2.0",
         "grid.n_points=512"),
        {"grid.x_min": "-20.0", "grid.x_max": "20.0",
         "internal.E0": "200.0", "internal.levels": "[0.0,1.0]", "physical.c": "20.0",
         "params.v_over_c": "[0.1]", "params.gh_over_c2": "[0.02]",
         "params.sigma": "6.0", "params.total_time": "3.0", "params.dt": "1e-3"}),
    "exp_interferometer": (
        (),
        {"physical.c": "20.0", "params.delta_e": "5.0", "params.height": "2.0",
         "params.total_time": "8.0", "params.g": "0.5"}),
    "exp_newtonian_sweep": (
        ("params.epsilons=[0.001,0.01,0.1,0.05]", "params.total_time=0.21",
         "grid.n_points=256"),
        {"grid.x_min": "-9.0", "grid.x_max": "11.0", "params.m": "2.0",
         "params.epsilons": "[0.002,0.01,0.1,0.05]", "params.p0": "2.0",
         "params.g": "1.0", "params.total_time": "0.3", "params.sigma": "3.0",
         "params.x0": "2.0"}),
    "exp_wep": (
        ('params.kinds=["low_energy"]', "params.total_time=2.0", "grid.n_points=256"),
        {"grid.x_min": "-8.0", "grid.x_max": "15.0", "internal.E0": "200.0",
         "internal.levels": "[0.0,0.02]", "physical.c": "20.0",
         "params.kinds": '["split"]', "params.g": "2.0", "params.total_time": "1.5",
         "params.sigma": "3.0", "params.x0": "2.0", "params.dt": "5e-4",
         "params.sample_every": "2"}),
    "exp_frame_phase": (
        (),
        {"internal.E0": "250.0", "internal.levels": "[0.0,20.0]",
         "physical.c": "20.0", "params.speed": "2.0",
         "params.total_time": "2.0"}),
}

# Leaves that stay although they move rows only at round-off, each with a
# value, the reason it stays and the largest drift measured from the base.
_EXEMPT = {
    "exp_clock_wavepacket": {
        "grid.n_points": ("256", "sets the resolution, which the sigma >= 4 dx, alias and "
                                 "momentum-band rules bound (exit 3); 512 -> 256 or 1024: "
                                 "<= 4.8e-13")},
    "exp_newtonian_sweep": {
        "grid.n_points": ("512", "as for exp_clock_wavepacket; 256 -> 512: 1.8e-14"),
        "params.dt": ("1e-2", "sets the step, which the alias rule bounds (exit 3); every "
                              "run is in a uniform field, where the steps are exact: "
                              "3e-3 -> 1e-2: 1.1e-14")},
    "exp_wep": {
        "grid.n_points": ("512", "as for exp_clock_wavepacket; 256 -> 512: 6.8e-13, "
                                 "-> 1024 at dt 2.5e-3: 1.7e-12")},
}


class TestNoDeadKey:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_leaf_table_is_the_schema(self, name):
        live, exempt = set(_LEAVES[name][1]), set(_EXEMPT.get(name, {}))
        assert not live & exempt
        assert live | exempt == set(_leaf_paths(EXPERIMENTS[name].defaults))

    @pytest.mark.parametrize("name, leaf", [
        (name, leaf) for name, (_, values) in _LEAVES.items() for leaf in values])
    def test_leaf_moves_rows_or_fails_the_tolerance(self, name, leaf):
        base, values = _LEAVES[name]
        code, rows = _outcome(name, base)
        assert code == EXIT_PASS
        new_code, new_rows = _outcome(name, base + (f"{leaf}={values[leaf]}",))
        assert new_code == EXIT_TOLERANCE or (new_code == EXIT_PASS
                                              and _drift(rows, new_rows) > 1e-9)

    @pytest.mark.parametrize("name, leaf", [
        (name, leaf) for name, leaves in _EXEMPT.items() for leaf in leaves])
    def test_exempt_leaf_moves_rows_only_at_round_off(self, name, leaf):
        base = _LEAVES[name][0]
        code, rows = _outcome(name, base)
        new_code, new_rows = _outcome(name, base + (f"{leaf}={_EXEMPT[name][leaf][0]}",))
        assert code == new_code == EXIT_PASS
        assert _drift(rows, new_rows) <= 1e-9


# The c-direction: c x 2 with every energy x 4 keeps every mass.  A runner
# that keeps c must move a float cell under it, one that does not echo an
# input (the hbar-direction, hbar x 2 with every energy x 2, moves no row of
# any runner, so every runner works in units hbar = 1 and takes no hbar).
_C_DIRECTION = {
    "exp_clock_wavepacket": ("physical.c=20.0", "internal.E0=400.0",
                             "internal.levels=[0.0,2.0]"),
    "exp_interferometer": ("physical.c=20.0", "params.delta_e=40.0"),
    "exp_wep": ("physical.c=20.0", "internal.E0=400.0", "internal.levels=[0.0,0.04]"),
    "exp_frame_phase": ("physical.c=20.0", "internal.E0=400.0",
                        "internal.levels=[0.0,40.0]"),
}
_ECHO_COLUMNS = ("a", "w", "v_over_c", "gh_over_c2", "delta_e", "epsilon")


class TestScalingDirection:
    def test_direction_table_is_the_runners_that_take_c(self):
        assert set(_C_DIRECTION) == {name for name, exp in EXPERIMENTS.items()
                                     if "physical.c" in _leaf_paths(exp.defaults)}

    @pytest.mark.parametrize("name", sorted(_C_DIRECTION))
    def test_c_direction_moves_a_computed_cell(self, name):
        base = _LEAVES[name][0]
        code, rows = _outcome(name, base)
        new_code, new_rows = _outcome(name, base + _C_DIRECTION[name])
        assert code == new_code == EXIT_PASS

        def computed(rows):
            return [{k: v for k, v in row.items() if k not in _ECHO_COLUMNS}
                    for row in rows]

        assert _drift(computed(rows), computed(new_rows)) > 1e-9
