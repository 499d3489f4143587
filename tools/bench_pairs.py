"""Record alternating parent/change pairs of the benchmark as BENCH_<label>.json.

Usage, from the repository root::

    python3 tools/bench_pairs.py --parent ../parent --change . --label <label> \\
        --parent-commit <sha> --note "what the change does" --claim "what it claims"

For every workload of ``BENCHMARK.json`` and pair i = 1..10,
``perfbench/run.py --workload <w> --seed i --seconds <run_seconds> --trace 0``
runs once in each checkout, back to back with the same seed; the side that
runs first alternates between pairs.  Each run is a fresh process, started
in its side's copy of its checkout, so it imports that checkout's
``src/``.  The record holds, per workload and side, every run's end-to-end
metrics with their median and interquartile range, the attempted and
failed iteration counts and the rows digests; per workload, the
change/parent ratio of the medians, the number of pairs the change wins
(lower is better for every metric), the two verdicts ``claim_met`` and
``within_bound`` (see ``compare``) and whether the two sides wrote the
same rows in every pair.  Each workload also carries ``control``, an A/A
control: the parent against a second fresh copy of the parent (in the
change's place), in ``CONTROL_PAIRS`` more pairs of the same alternating
protocol, with the same per-side records and verdicts, so a workload's
ratio can be read against what identical code reads.

Two more records come from the same alternating fresh processes, each
importing its checkout's ``src/``.  ``runners`` times every registered
runner's default call (``EXPERIMENTS[name].runner()``, the runner call
alone), once per side in each of the same ``PAIRS`` pairs, with the
medians, their ratio and the pairs the change wins; the process then
calls the runner again, and ``repeat`` holds that second call's record,
so the first call's extra cost (a CLI run is always a first call) is
the difference of the two.  Each runner's record also keeps each side's
default rows (``rows``) and ``rows_drift``, the largest move of a float
cell between the sides, so a change that moves rows names its drift in
the record, and ``control``, an A/A control: the same first and repeat
records, in the same alternating pairs, of the parent against a second
fresh copy of the parent (in the ``change`` place), so a runner ratio can
be read against the spread of identical code.  ``tier1`` times one
Tier-1 run (``python -m pytest -q``) per side and keeps its summary line.
The record is written at the root of the repository this file sits in.
Only the standard library is used.

Both sides compile their own code alike and read the installed bytecode
of numpy, the standard library and pytest alike: each side runs from one
fresh copy of its checkout with no ``__pycache__`` (``fresh_copy``), made
once per invocation in a temporary directory, and every process it starts
runs with ``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPYCACHEPREFIX``, so
no ``.pyc`` left in either checkout is read and none is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
SECONDS = BENCHMARK["run_seconds"]
PAIRS = 10
# Pairs of the per-workload A/A control: fewer than PAIRS, since each pair
# costs two full benchmark runs.
CONTROL_PAIRS = 5
# A fresh process that prints the registered runner names, or the seconds
# of a first and a second default call of the runner named by its argument
# with the rows of that call.
RUNNERS = ("import json; from massclock.experiments import EXPERIMENTS; "
           "print(json.dumps(list(EXPERIMENTS)))")
RUNNER_TIMER = ("import json, sys, time; from massclock.experiments import EXPERIMENTS; "
                "runner = EXPERIMENTS[sys.argv[1]].runner; seconds = []\n"
                "for _ in range(2):\n"
                "    start = time.perf_counter(); rows = runner().rows; "
                "seconds.append(time.perf_counter() - start)\n"
                "print(json.dumps({'seconds': seconds, 'rows': rows}))")
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def order(pair: int, sides: tuple = ("parent", "change")) -> tuple:
    """The side that runs first alternates between pairs."""
    return sides if pair % 2 else sides[::-1]


def fresh_copy(checkout: Path, into: Path) -> Path:
    """A copy of ``checkout`` at ``into`` with no ``__pycache__``, bytecode,
    ``.git`` or tool caches, so that its processes compile its modules."""
    shutil.copytree(checkout, into, ignore=shutil.ignore_patterns(
        "__pycache__", "*.pyc", ".git", ".pytest_cache", ".hypothesis"))
    return into


def _python(checkout: Path, args: list, check: bool = True) -> subprocess.CompletedProcess:
    """A fresh Python process in ``checkout`` that imports its ``src/`` and
    writes no bytecode; it reads the installed packages' bytecode as a
    normal run does."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPYCACHEPREFIX", None)
    return subprocess.run([sys.executable, *args], cwd=checkout, env=env,
                          capture_output=True, text=True, check=check)


def runner_names(checkout: Path) -> list:
    return json.loads(_python(checkout, ["-c", RUNNERS]).stdout)


def time_runner(checkout: Path, name: str) -> tuple:
    """Seconds of the first and the second default call of the runner
    ``name`` in one fresh process, and the rows of that call."""
    out = json.loads(_python(checkout, ["-c", RUNNER_TIMER, name]).stdout.splitlines()[-1])
    return out["seconds"], out["rows"]


def rows_drift(parent: list, change: list):
    """Largest move of a float cell between two row lists; None when they
    differ in length, keys or a cell that is not a float."""
    if len(parent) != len(change) or any(list(p) != list(c) for p, c in zip(parent, change)):
        return None
    moves = [abs(p[k] - c[k]) if isinstance(p[k], float) and isinstance(c[k], float)
             else (0.0 if p[k] == c[k] else None)
             for p, c in zip(parent, change) for k in p]
    return None if None in moves else max(moves, default=0.0)


def time_tier1(checkout: Path) -> dict:
    """Wall seconds, exit code and summary line of one Tier-1 run."""
    start = time.perf_counter()
    proc = _python(checkout, TIER1, check=False)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - start, "returncode": proc.returncode,
            "summary": lines[-1] if lines else ""}


def runner_pairs(sides: dict, name: str, pair_of: tuple) -> tuple:
    """The first-call and repeat-call seconds of the runner ``name`` on the
    two sides ``pair_of`` of ``sides``, in ``PAIRS`` alternating pairs of
    fresh processes, and each side's last rows."""
    first, repeat, rows = {s: [] for s in pair_of}, {s: [] for s in pair_of}, {}
    for pair in range(1, PAIRS + 1):
        for side in order(pair, pair_of):
            seconds, rows[side] = time_runner(sides[side], name)
            first[side].append(seconds[0])
            repeat[side].append(seconds[1])
    return first, repeat, rows


def runner_record(parent: list, change: list) -> dict:
    """The two sides' default-call seconds of one runner, pair by pair."""
    p, c = summary(parent), summary(change)
    return {"parent": p, "change": c, "median_ratio": c["median"] / p["median"],
            "change_wins_pairs": sum(cv < pv for cv, pv in zip(change, parent))}


def workload_pairs(sides: dict, workload: str, pair_of: tuple, pairs: int) -> dict:
    """The runs of ``workload`` on the two sides ``pair_of`` of ``sides``,
    by side, in ``pairs`` alternating pairs, pair i with seed i."""
    runs = {side: [] for side in pair_of}
    for seed in range(1, pairs + 1):
        for side in order(seed, pair_of):
            run = run_once(sides[side], workload, seed)
            runs[side].append(run)
            wall = run["result"]["metrics"]["wall_s"]["value"]
            print(f"{workload} pair {seed} {side}: wall_s {wall:.4f}", flush=True)
    return runs


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``checkout``: its result line and rows digests."""
    proc = _python(checkout, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                              "--seconds", str(SECONDS), "--trace", "0"])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    digests = sorted({it["rows_sha256"] for it in record["iterations"]})
    return {"result": result, "digests": digests, "environment": record["environment"]}


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1, "values": values}


def side_record(runs: list) -> dict:
    out = {"runs": len(runs),
           "attempted": sum(r["result"]["attempted"] for r in runs),
           "failed": sum(r["result"]["failed"] for r in runs)}
    for metric in METRICS:
        out[metric] = summary([r["result"]["metrics"][metric]["value"] for r in runs])
    out["rows_sha256_prefixes"] = [",".join(d[:16] for d in r["digests"]) for r in runs]
    return out


def compare(parent: dict, change: dict) -> dict:
    """Per metric, the change against the parent, pair by pair (lower wins;
    a tie counts for neither side).

    ``claim_met``: the change wins at least nine tenths of the pairs, and
    the parent median exceeds the change median by more than the parent's
    interquartile range.  ``within_bound``: the change median is at most
    the parent median times (1 + the metric's bound in BENCHMARK.json).
    """
    out = {}
    for metric in METRICS:
        p, c = parent[metric], change[metric]
        wins = sum(cv < pv for cv, pv in zip(c["values"], p["values"]))
        out[metric] = {
            "median_ratio": c["median"] / p["median"],
            "change_wins_pairs": wins,
            "claim_met": (wins >= 0.9 * len(p["values"])
                          and p["median"] - c["median"] > p["iqr"]),
            "within_bound": c["median"] <= p["median"] * (1.0 + BOUNDS[metric]),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--note", required=True, help="what the change does")
    parser.add_argument("--claim", default="none")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {side: fresh_copy(path.resolve(), Path(tmp) / side)
                 for side, path in (("parent", args.parent), ("change", args.change),
                                    ("control", args.parent))}
        record = measure(sides, args)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


def measure(sides: dict, args: argparse.Namespace) -> dict:
    """The record of the workload pairs, the runners and Tier-1 for the
    checkouts ``sides`` (``parent``, ``change`` and ``control``, a second
    copy of the parent)."""
    workloads, environment = {}, None
    for workload in WORKLOADS:
        runs = workload_pairs(sides, workload, ("parent", "change"), PAIRS)
        environment = runs["change"][-1]["environment"]
        aa = workload_pairs(sides, workload, ("parent", "control"), CONTROL_PAIRS)
        parent, change = side_record(runs["parent"]), side_record(runs["change"])
        aa_parent, aa_control = side_record(aa["parent"]), side_record(aa["control"])
        workloads[workload] = {
            "parent": parent, "change": change,
            "change_vs_parent": compare(parent, change),
            "rows_sha256_equal_per_pair": [p["digests"] == c["digests"] for p, c
                                           in zip(runs["parent"], runs["change"])],
            "control": {"parent": aa_parent, "control": aa_control,
                        "control_vs_parent": compare(aa_parent, aa_control)},
        }
    runners = {}
    for name in runner_names(sides["change"]):
        first, repeat, rows = runner_pairs(sides, name, ("parent", "change"))
        drift = rows_drift(rows["parent"], rows["change"])
        aa_first, aa_repeat, _ = runner_pairs(sides, name, ("parent", "control"))
        runners[name] = {**runner_record(first["parent"], first["change"]),
                         "repeat": runner_record(repeat["parent"], repeat["change"]),
                         "rows": rows, "rows_drift": drift,
                         "control": {**runner_record(aa_first["parent"], aa_first["control"]),
                                     "repeat": runner_record(aa_repeat["parent"],
                                                             aa_repeat["control"])}}
        print(f"{name}: median ratio {runners[name]['median_ratio']:.3f}, "
              f"A/A {runners[name]['control']['median_ratio']:.3f}, "
              f"rows drift {drift}", flush=True)
    tier1 = {side: time_tier1(sides[side]) for side in order(1)}
    record = {
        "parent_commit": args.parent_commit,
        "change": args.note,
        "claim": args.claim,
        "command": (f"python3 perfbench/run.py --workload <w> --seed <pair> "
                    f"--seconds {SECONDS:g} --trace 0"),
        "protocol": (f"{PAIRS} pairs per workload; parent and change run back to "
                     "back with the same seed, the side that runs first alternating "
                     "between pairs; parent is the commit this change sits on, run "
                     "from a separate checkout; each workload's A/A control "
                     f"(control): {CONTROL_PAIRS} more pairs of the parent against a "
                     "second fresh copy of the parent, in the change's place, in the "
                     "same alternating protocol (seeds 1 .. "
                     f"{CONTROL_PAIRS}); runners: the same alternating pairs "
                     "of fresh processes, a first and a repeat default runner call "
                     "each, with each side's default rows and the largest float move "
                     "between them (rows_drift, null when the rows differ in shape), "
                     "and an A/A control (control): the parent against a second fresh "
                     "copy of the parent, in the change's place, in the same "
                     "alternating pairs; "
                     "tier1: one run per side; each side runs from one fresh "
                     "copy of its checkout with no __pycache__, made once per "
                     "invocation, and every process runs with PYTHONDONTWRITEBYTECODE=1 "
                     "and no PYTHONPYCACHEPREFIX, so each side compiles its own "
                     "modules and both read the installed packages' bytecode"),
        "workloads": workloads,
        "runners": runners,
        "tier1": tier1,
        "environment": environment or {"python": platform.python_version()},
    }
    return record


if __name__ == "__main__":
    sys.exit(main())
