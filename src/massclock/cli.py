"""Command-line entry point.

Subcommands::

    massclock run <experiment> [--config FILE] [--set k=v]...
                  [--out DIR] [--format csv|json]
    massclock list [--format text|json]
    massclock validate --config FILE [--set k=v]...

Config files are JSON with the schema (all keys optional; defaults are
echoed into the output metadata)::

    {
      "experiment": "exp_bargmann",
      "grid":      {"x_min": -40.0, "x_max": 40.0, "n_points": 2048},
      "internal":  {"E0": 100.0, "levels": [0.0, 10.0]},
      "physical":  {"hbar": 1.0, "c": 10.0},
      "params":    { ... experiment-specific ... },
      "output":    "runs",
      "format":    "csv"
    }

The experiment's runner is the single source of its defaults: ``grid``,
``internal`` (or ``internal.E0`` alone), ``hbar``, ``c`` and one
``params`` key per keyword argument, read from its signature.  A section
the runner takes nothing from is empty (``exp_interferometer`` has no
grid; ``exp_newtonian_sweep`` sets its own levels).

Unknown keys anywhere are a hard error (with a nearest-key suggestion).
``--set a.b=value`` overrides file values; values parse as JSON fragments,
falling back to bare strings.

Every run writes ``<output>/<experiment>-<timestamp>/rows.{csv|json}`` plus
``meta.json`` holding the fully resolved config (which reproduces the same
RunConfig when fed back through ``parse_config``), tolerances, pass/fail,
runtime and the artifact version.

Exit codes: 0 pass, 2 config error, 3 numerical precondition, 4 tolerance
fail.
"""

from __future__ import annotations

import argparse
import copy
import csv
import difflib
import json
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence, Tuple

from . import __version__
from .errors import ConfigError, MassclockError, PreconditionError
from .experiments import EXPERIMENTS, ExperimentResult
from .hilbert import GridSpec, InternalSpace, PhysicalParams

EXIT_PASS = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_TOLERANCE = 4

_SECTIONS = ("grid", "internal", "physical", "params")
_RUN_DEFAULTS = {"output": "runs", "format": "csv"}
_TOP_KEYS = ("experiment",) + _SECTIONS + tuple(_RUN_DEFAULTS)
# What building a physics object from a config value can raise.
_BAD_VALUE = (MassclockError, TypeError, ValueError)


@dataclass
class RunConfig:
    experiment: str
    grid: dict
    internal: dict
    physical: dict
    params: dict
    output: str
    format: str
    defaulted: Tuple[str, ...] = field(default=(), compare=False)

    def as_dict(self) -> dict:
        d = asdict(self)
        d.pop("defaulted")
        return d


# --- config parsing -----------------------------------------------------------


def _unknown_key(key: str, allowed: Sequence[str], where: str) -> ConfigError:
    hint = difflib.get_close_matches(key, allowed, n=1)
    suffix = f"; did you mean {hint[0]!r}?" if hint else ""
    return ConfigError(f"unknown key {key!r} in {where}{suffix}")


def _check_keys(user: dict, allowed: Sequence[str], where: str) -> None:
    for key in user:
        if key not in allowed:
            raise _unknown_key(key, allowed, where)


def _merge(base: dict, user: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in user.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _leaf_paths(tree: dict, prefix: str = "") -> list:
    paths = []
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            paths.extend(_leaf_paths(value, path + "."))
        else:
            paths.append(path)
    return paths


def _parse_set_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _apply_override(user: dict, dotted: str, raw: str, schema: dict) -> None:
    """Set ``dotted`` in the user tree, validating the path against the
    experiment's defaults tree."""
    parts = dotted.split(".")
    node_schema = schema
    node = user
    for depth, part in enumerate(parts):
        allowed = list(node_schema) if isinstance(node_schema, dict) else []
        if part not in allowed:
            where = ".".join(parts[:depth]) or "config"
            raise _unknown_key(part, allowed, where)
        last = depth == len(parts) - 1
        if last:
            node[part] = _parse_set_value(raw)
        else:
            node_schema = node_schema[part]
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {dotted!r} descends into a non-section key")


def _json_type(value) -> str:
    """'number' for an int or a float, else the Python type name."""
    return "number" if type(value) in (int, float) else type(value).__name__


def _validate_user_tree(user: dict, defaults: dict) -> None:
    _check_keys(user, _TOP_KEYS, "config")
    for section in _SECTIONS:
        if section in user:
            if not isinstance(user[section], dict):
                raise ConfigError(f"{section!r} must be an object")
            _check_keys(user[section], list(defaults[section]), section)
    for key, value in user.get("params", {}).items():
        want = _json_type(defaults["params"][key])
        if _json_type(value) != want:
            raise ConfigError(f"params.{key} must be a {want}, got {value!r}")


def build_objects(config: "RunConfig") -> dict:
    """The runner's keyword arguments for a RunConfig.

    Builds the GridSpec and InternalSpace the runner takes and re-runs every
    GridSpec/InternalSpace/PhysicalParams invariant; any violation, or a
    value of the wrong type, surfaces as a ConfigError naming the section.
    """
    kwargs = {**config.params, **config.physical}
    try:
        if config.grid:
            kwargs["grid"] = GridSpec(**config.grid)
    except _BAD_VALUE as exc:
        raise ConfigError(f"grid: {exc}") from exc
    try:
        if "levels" in config.internal:
            kwargs["internal"] = InternalSpace(**config.internal)
        else:  # a runner that sets its own levels takes E0 alone
            kwargs.update(config.internal)
    except _BAD_VALUE as exc:
        raise ConfigError(f"internal: {exc}") from exc
    try:
        PhysicalParams(hbar=config.physical["hbar"], c=config.physical["c"],
                       E0=config.internal["E0"])
    except _BAD_VALUE as exc:
        raise ConfigError(f"physical: {exc}") from exc
    return kwargs


def parse_config(source=None, experiment: Optional[str] = None,
                 overrides: Sequence[str] = ()) -> RunConfig:
    """Resolve a RunConfig from a JSON file path (or dict) plus overrides.

    ``experiment`` (e.g. the CLI positional) wins over the file value; every
    key the user did not supply is filled from the experiment defaults and
    recorded in ``defaulted``.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            user = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    elif isinstance(source, dict):
        user = copy.deepcopy(source)
    elif source is None:
        user = {}
    else:
        raise ConfigError(f"unsupported config source {type(source).__name__}")
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")

    file_experiment = user.pop("experiment", None)
    name = experiment or file_experiment
    if name is None:
        raise ConfigError("no experiment named (positional argument or 'experiment' key)")
    if experiment and file_experiment and experiment != file_experiment:
        raise ConfigError(
            f"experiment mismatch: command line says {experiment!r}, "
            f"config file says {file_experiment!r}")
    if name not in EXPERIMENTS:
        hint = difflib.get_close_matches(name, EXPERIMENTS, n=1)
        suffix = f"; did you mean {hint[0]!r}?" if hint else ""
        raise ConfigError(f"unknown experiment {name!r}{suffix}")

    exp = EXPERIMENTS[name]
    defaults = {**exp.defaults, **_RUN_DEFAULTS}

    for raw in overrides:
        if "=" not in raw:
            raise ConfigError(f"--set needs key=value, got {raw!r}")
        dotted, _, value = raw.partition("=")
        _apply_override(user, dotted.strip(), value, defaults)
    _validate_user_tree(user, defaults)

    merged = _merge(defaults, user)
    user_paths = set(_leaf_paths(user))
    defaulted = tuple(sorted(p for p in _leaf_paths(merged) if p not in user_paths))

    if merged["format"] not in ("csv", "json"):
        raise ConfigError("'format' must be 'csv' or 'json'")

    config = RunConfig(
        experiment=name,
        grid=merged["grid"], internal=merged["internal"],
        physical=merged["physical"], params=merged["params"],
        output=str(merged["output"]), format=merged["format"],
        defaulted=defaulted,
    )
    build_objects(config)  # re-validate all physical invariants at load time
    if exp.validate is not None:
        exp.validate({"grid": config.grid, "internal": config.internal,
                      "physical": config.physical, "params": config.params})
    return config


# --- output writers -------------------------------------------------------------


def _fmt_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return value


def write_rows_csv(path: Path, columns: Sequence[str], rows: Sequence[dict]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(row[col]) for col in columns])


def write_rows_json(path: Path, columns: Sequence[str], rows: Sequence[dict]) -> None:
    payload = [{col: row[col] for col in columns} for row in rows]
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _run_directory(base: Path, experiment: str) -> Path:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    candidate = base / f"{experiment}-{stamp}"
    n = 1
    while candidate.exists():
        n += 1
        candidate = base / f"{experiment}-{stamp}-{n}"
    candidate.mkdir(parents=True)
    return candidate


def run(config: RunConfig, echo=print) -> int:
    """Execute one experiment and persist rows + metadata; returns the exit
    status (0 pass, 3 precondition, 4 tolerance fail)."""
    exp = EXPERIMENTS[config.experiment]
    kwargs = build_objects(config)
    try:
        result: ExperimentResult = exp.runner(**kwargs)
    except PreconditionError as exc:
        echo(f"numerical precondition violated: {exc}")
        return EXIT_PRECONDITION

    out_dir = _run_directory(Path(config.output), config.experiment)
    rows_path = out_dir / f"rows.{config.format}"
    if config.format == "csv":
        write_rows_csv(rows_path, result.columns, result.rows)
    else:
        write_rows_json(rows_path, result.columns, result.rows)
    meta = {
        "artifact_version": __version__,
        "experiment": result.name,
        "passed": result.passed,
        "tolerance": result.tolerance,
        "runtime_seconds": result.runtime,
        "columns": list(result.columns),
        "details": result.details,
        "parameters": result.parameters,
        "defaulted_keys": list(config.defaulted),
        "config": config.as_dict(),
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n",
                                       encoding="utf-8")
    echo(f"wrote {rows_path}")
    if not result.passed:
        worst = result.worst_row()
        if worst is not None:
            echo(f"TOLERANCE FAIL; worst row {worst}: {result.rows[worst]}")
        else:
            echo("TOLERANCE FAIL")
        return EXIT_TOLERANCE
    echo(f"PASS ({result.runtime:.2f}s)")
    return EXIT_PASS


def list_experiments(fmt: str = "text", echo=print) -> int:
    """Table of experiment names, required keys and formula anchors."""
    entries = [
        {"name": d.name, "anchor": d.anchor, "description": d.description,
         "required_keys": list(d.required_keys)}
        for d in EXPERIMENTS.values()
    ]
    if fmt == "json":
        echo(json.dumps(entries, indent=2))
        return EXIT_PASS
    width = max(len(e["name"]) for e in entries)
    for e in entries:
        echo(f"{e['name']:<{width}}  {e['anchor']:<14} {e['description']}")
        echo(f"{'':<{width}}  keys: {', '.join(e['required_keys'])}")
    return EXIT_PASS


# --- argument parsing -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="massclock",
        description="desk-scale simulator for quantum particles with "
                    "dynamical mass-energy (internal clocks)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("experiment", help="experiment name (see 'massclock list')")
    p_run.add_argument("--config", help="JSON config file")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (dotted path)")
    p_run.add_argument("--out", help="output directory (default from config)")
    p_run.add_argument("--format", choices=("csv", "json"), help="row format")

    p_list = sub.add_parser("list", help="list experiments")
    p_list.add_argument("--format", choices=("text", "json"), default="text")

    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("--config", required=True, help="JSON config file")
    p_val.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0

    try:
        if args.command == "list":
            return list_experiments(args.format)
        if args.command == "validate":
            config = parse_config(args.config, overrides=args.overrides)
            print(json.dumps(config.as_dict(), indent=2))
            return EXIT_PASS
        # run
        config = parse_config(args.config, experiment=args.experiment,
                              overrides=args.overrides)
        if args.out:
            config.output = args.out
        if args.format:
            config.format = args.format
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PreconditionError as exc:
        print(f"numerical precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
