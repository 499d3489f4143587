"""Command-line entry point.

Subcommands::

    massclock run <experiment> [--config FILE] [--set k=v]...
                  [--out DIR] [--format csv|json]
    massclock list [--format text|json]
    massclock validate --config FILE [--set k=v]...

Config files are JSON with the schema (all keys optional; defaults are
echoed into the output metadata)::

    {
      "experiment": "exp_wep",
      "grid":      {"x_min": -40.0, "x_max": 40.0, "n_points": 256},
      "internal":  {"E0": 100.0, "levels": [0.0, 0.01]},
      "physical":  {"c": 10.0},
      "params":    { ... experiment-specific ... },
      "output":    "runs",
      "format":    "csv"
    }

The experiment's runner is the single source of its defaults: ``grid``,
``internal``, ``c`` and one ``params`` key per keyword argument, read from
its signature.  A runner takes one key per quantity that moves its rows
(units hbar = 1), so a section it takes nothing from is empty; ``massclock
list`` prints each runner's keys.  Every value in the tree, in a section
or not, has the JSON type of its default: an integer default takes only an
integer, a float default any number, a list default a list whose items
have the type of the default's items (a pair stays a pair).  NaN and
+-Infinity, which JSON parsing accepts, are a config error anywhere in the
tree.  One walk along the defaults tree (``_resolve``) checks every key,
section and leaf, merges the user's values over the defaults and records
the defaulted keys.  Of several errors it reports the first it meets: an
unknown key of a section before its values, and the values in the
defaults' order (``experiment``, grid, internal, physical, params,
output, format), whatever the order of the file or the ``--set`` flags.

A runner's rules are its own: the objects built from a config apply their
invariants (each constant positive and finite), then each rule the
registry names by key, so ``run``, ``validate`` and the Python call refuse
the same inputs with the same text (exit 2, ``<key>: <text>``).  Rules on
the run as a whole (dt, the window, alias, clearance, fits) are exit 3.

Unknown keys anywhere are a hard error (with a nearest-key suggestion).
``--set a.b=value`` overrides file values, ``experiment`` too; values parse
as JSON fragments, falling back to bare strings.  ``run --out DIR`` and
``--format F`` are the overrides ``output`` and ``format``, applied after
every ``--set``, so they win and are never recorded as defaulted.

Every run writes ``<output>/<experiment>-<timestamp>/rows.{csv|json}`` plus
``meta.json``, the run record: artifact version, experiment, pass/fail,
tolerances, ``runtime_seconds`` (``run`` times the runner call),
``columns`` (the keys of the first row, which every row shares), details,
defaulted keys and ``config``, the fully resolved config and the only echo
of the run's settings (fed back through ``parse_config`` it reproduces the
same RunConfig).

Exit codes: 0 pass, 2 config error, 3 numerical precondition, 4 tolerance
fail.  The tolerances are the runner's own pass bounds, fixed in its code
and echoed into ``meta.json``; no config key sets one, so a config naming
``params.tolerance`` is an unknown key (exit 2).
"""

from __future__ import annotations

import argparse
import copy
import csv
import difflib
import json
import math
import sys
import time
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

_RUN_DEFAULTS = {"output": "runs", "format": "csv"}
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


def _apply_override(user: dict, dotted: str, raw: str) -> None:
    """Set ``dotted`` in the user tree; ``_resolve`` checks the result."""
    *sections, leaf = dotted.split(".")
    node = user
    for part in sections:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {dotted!r} descends into a non-section key")
    node[leaf] = _parse_set_value(raw)


# The JSON type of a value, with its article; a tuple from Python reads as a list.
_JSON_TYPES = {int: "an integer", float: "a number", str: "a string",
               bool: "a boolean", list: "a list", tuple: "a list",
               dict: "an object", type(None): "null"}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), f"a {type(value).__name__}")


def _check_leaf(value, default, path: str, fixed_length: bool = False) -> None:
    """Reject a leaf that is not finite (NaN and +-Infinity, which JSON
    parsing accepts) or whose JSON type differs from its default's.  The
    items of a list take the type of the default's first item; a list
    inside a list (a pair) keeps its length, item by item."""
    want, got = _json_type(default), _json_type(value)
    if got == "a number" and not math.isfinite(value):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    if got != want and (want, got) != ("a number", "an integer"):
        raise ConfigError(f"{path} must be {want}, got {value!r}")
    if got != "a list" or not default:
        return
    if fixed_length and len(value) != len(default):
        raise ConfigError(f"{path} must have {len(default)} items, got {value!r}")
    for i, item in enumerate(value):
        _check_leaf(item, default[i] if fixed_length else default[0],
                    f"{path}[{i}]", fixed_length=True)


def _resolve(user: dict, defaults: dict, where: str = "") -> Tuple[dict, list]:
    """The merged tree of ``user`` over ``defaults`` and the dotted paths
    of the leaves it took from ``defaults``, in one walk.  Every user key
    must be known, every section an object and every leaf pass
    ``_check_leaf``: a section's unknown key is raised first, then the
    first error in the defaults' order."""
    for key in user:
        if key not in defaults:
            raise _unknown_key(key, list(defaults), where or "config")
    merged, defaulted = {}, []
    for key, default in defaults.items():
        path = f"{where}.{key}" if where else key
        if isinstance(default, dict):
            section = user.get(key, {})
            if not isinstance(section, dict):
                raise ConfigError(f"{path!r} must be an object")
            merged[key], below = _resolve(section, default, path)
            defaulted += below
        elif key in user:
            _check_leaf(user[key], default, path)
            merged[key] = user[key]
        else:
            merged[key] = default
            defaulted.append(path)
    return merged, defaulted


def build_objects(config: "RunConfig") -> dict:
    """The runner's keyword arguments for a RunConfig.

    Builds the GridSpec and InternalSpace the runner takes and re-runs the
    GridSpec/InternalSpace/PhysicalParams invariants on the sections it
    takes; any violation, or a value of the wrong type, surfaces as a
    ConfigError naming the section.
    """
    kwargs = {**config.params, **config.physical}
    try:
        if config.grid:
            kwargs["grid"] = GridSpec(**config.grid)
    except _BAD_VALUE as exc:
        raise ConfigError(f"grid: {exc}") from exc
    try:
        if config.internal:
            kwargs["internal"] = InternalSpace(**config.internal)
    except _BAD_VALUE as exc:
        raise ConfigError(f"internal: {exc}") from exc
    try:  # c, if the runner takes it; InternalSpace has checked E0
        PhysicalParams(**config.physical)
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

    source_says = "config file says"
    for raw in overrides:
        if "=" not in raw:
            raise ConfigError(f"--set needs key=value, got {raw!r}")
        dotted, _, value = raw.partition("=")
        _apply_override(user, dotted.strip(), value)
        if dotted.strip() == "experiment":
            source_says = "--set experiment says"

    file_experiment = user.get("experiment")
    name = experiment or file_experiment
    if name is None:
        raise ConfigError("no experiment named (positional argument or 'experiment' key)")
    if experiment and file_experiment and experiment != file_experiment:
        raise ConfigError(
            f"experiment mismatch: command line says {experiment!r}, "
            f"{source_says} {file_experiment!r}")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        hint = difflib.get_close_matches(str(name), EXPERIMENTS, n=1)
        suffix = f"; did you mean {hint[0]!r}?" if hint else ""
        raise ConfigError(f"unknown experiment {name!r}{suffix}")

    exp = EXPERIMENTS[name]
    user["experiment"] = name  # named, so never a defaulted key
    merged, defaulted = _resolve(user, {"experiment": name, **exp.defaults, **_RUN_DEFAULTS})
    if merged["format"] not in ("csv", "json"):
        raise ConfigError("'format' must be 'csv' or 'json'")
    config = RunConfig(**merged, defaulted=tuple(sorted(defaulted)))
    kwargs = build_objects(config)  # the physical invariants, at load time
    for key, rule in exp.rules.items():  # and the runner's own rules
        section, _, leaf = key.partition(".")
        try:
            rule(kwargs[section if section in ("grid", "internal") else leaf])
        except _BAD_VALUE as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return config


# --- output writers -------------------------------------------------------------


def _fmt_cell(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return value


def write_rows_csv(path: Path, rows: Sequence[dict]) -> None:
    columns = list(rows[0])
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(row[col]) for col in columns])


def write_rows_json(path: Path, rows: Sequence[dict]) -> None:
    path.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")


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
    status (0 pass, 3 precondition, 4 tolerance fail).  A failing run
    echoes its cause: the row of the largest ``abs_error``, or, when no
    row has one, the run's ``details`` against its ``tolerance``."""
    exp = EXPERIMENTS[config.experiment]
    kwargs = build_objects(config)
    start = time.perf_counter()
    try:
        result: ExperimentResult = exp.runner(**kwargs)
    except PreconditionError as exc:
        echo(f"numerical precondition violated: {exc}")
        return EXIT_PRECONDITION
    runtime = time.perf_counter() - start

    out_dir = _run_directory(Path(config.output), config.experiment)
    rows_path = out_dir / f"rows.{config.format}"
    if config.format == "csv":
        write_rows_csv(rows_path, result.rows)
    else:
        write_rows_json(rows_path, result.rows)
    meta = {
        "artifact_version": __version__,
        "experiment": config.experiment,
        "passed": result.passed,
        "tolerance": result.tolerance,
        "runtime_seconds": runtime,
        "columns": list(result.columns),
        "details": result.details,
        "defaulted_keys": list(config.defaulted),
        "config": config.as_dict(),
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n",
                                       encoding="utf-8")
    echo(f"wrote {rows_path}")
    if not result.passed:
        worst = result.worst_row()
        cause = (f"worst row {worst}: {result.rows[worst]}" if worst is not None
                 else f"details {result.details} against tolerance {result.tolerance}")
        echo(f"TOLERANCE FAIL; {cause}")
        return EXIT_TOLERANCE
    echo(f"PASS ({runtime:.2f}s)")
    return EXIT_PASS


def list_experiments(fmt: str = "text", echo=print) -> int:
    """Table of experiment names, formula anchors and dotted config keys."""
    entries = [
        {"name": d.name, "anchor": d.anchor, "description": d.description,
         "keys": sorted(_leaf_paths(d.defaults))}
        for d in EXPERIMENTS.values()
    ]
    if fmt == "json":
        echo(json.dumps(entries, indent=2))
        return EXIT_PASS
    width = max(len(e["name"]) for e in entries)
    for e in entries:
        echo(f"{e['name']:<{width}}  {e['anchor']:<14} {e['description']}")
        echo(f"{'':<{width}}  keys: {', '.join(e['keys'])}")
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
        # run: --out and --format are overrides after the --set values, so they win
        flags = [f"{key}={json.dumps(value)}"
                 for key, value in (("output", args.out), ("format", args.format)) if value]
        config = parse_config(args.config, experiment=args.experiment,
                              overrides=[*args.overrides, *flags])
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
