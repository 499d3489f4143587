import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.02, 1.04, 1.06, 1.08, 1.10, 1.12, 1.14, 1.16, 1.18]


def _sides(change_values, parent_values=PARENT):
    """Parent and change records with the same values for every metric."""
    parent = {m: bench_pairs.summary(list(parent_values)) for m in bench_pairs.METRICS}
    change = {m: bench_pairs.summary(list(change_values)) for m in bench_pairs.METRICS}
    return parent, change


def _verdicts(change_values, parent_values=PARENT):
    return bench_pairs.compare(*_sides(change_values, parent_values))["wall_s"]


def test_parent_spread_is_its_interquartile_range():
    # inclusive quartiles of 1.00 .. 1.18 in steps of 0.02: 1.045 and 1.135
    assert bench_pairs.summary(PARENT)["iqr"] == pytest.approx(0.09)
    assert bench_pairs.summary(PARENT)["median"] == pytest.approx(1.09)


def test_claim_met_when_nine_of_ten_pairs_win_beyond_the_parent_iqr():
    change = [v - 0.2 for v in PARENT]
    change[3] = PARENT[3] + 0.5  # one lost pair of ten is allowed
    out = _verdicts(change)
    assert out["change_wins_pairs"] == 9
    assert out["claim_met"] and out["within_bound"]


def test_claim_not_met_on_eight_wins():
    change = [v - 0.2 for v in PARENT]
    change[0] = change[1] = 2.0
    out = _verdicts(change)
    assert out["change_wins_pairs"] == 8 and not out["claim_met"]


def test_ties_count_for_neither_side():
    change = [v - 0.2 for v in PARENT]
    change[0], change[1] = PARENT[0], PARENT[1]
    out = _verdicts(change)
    assert out["change_wins_pairs"] == 8 and not out["claim_met"]


def test_claim_not_met_when_the_gap_is_inside_the_parent_iqr():
    # every pair won, but the medians differ by 0.05 < IQR 0.09
    out = _verdicts([v - 0.05 for v in PARENT])
    assert out["change_wins_pairs"] == 10 and not out["claim_met"]
    assert out["median_ratio"] == pytest.approx(1.04 / 1.09)


@pytest.mark.parametrize("metric", bench_pairs.METRICS)
def test_within_bound_is_the_median_against_the_metrics_bound(metric):
    bound = bench_pairs.BOUNDS[metric]
    parent = [2.0] * 10
    at_bound = bench_pairs.compare(*_sides([2.0 * (1.0 + bound)] * 10, parent))[metric]
    past = bench_pairs.compare(*_sides([2.0 * (1.0 + bound) * 1.001] * 10, parent))[metric]
    assert at_bound["within_bound"] and not past["within_bound"]
    assert not at_bound["claim_met"] and at_bound["change_wins_pairs"] == 0


def test_the_first_side_alternates_between_pairs():
    assert bench_pairs.order(1) == ("parent", "change")
    assert bench_pairs.order(2) == ("change", "parent")
    assert bench_pairs.order(2, ("parent", "control")) == ("control", "parent")


def test_runner_record_compares_pair_by_pair():
    out = bench_pairs.runner_record(PARENT, [v - 0.01 for v in PARENT[:9]] + [2.0])
    assert out["change_wins_pairs"] == 9
    assert out["parent"]["median"] == pytest.approx(1.09)
    assert out["median_ratio"] == pytest.approx(out["change"]["median"] / 1.09)


def test_a_runner_is_timed_in_a_fresh_process_of_its_checkout():
    from massclock.experiments import EXPERIMENTS, exp_clock_semiclassical

    root = Path(__file__).resolve().parents[1]
    assert bench_pairs.runner_names(root) == list(EXPERIMENTS)
    (first, repeat), rows = bench_pairs.time_runner(root, "exp_clock_semiclassical")
    assert 0.0 < first < 60.0 and 0.0 < repeat < 60.0
    # the default rows, every float with its bits
    assert rows == exp_clock_semiclassical().rows


_ROWS = [{"kind": "a", "measured": 1.0, "abs_error": 0.5},
         {"kind": "b", "measured": 2.0, "abs_error": 0.25}]


def test_rows_drift_is_the_largest_move_of_a_float_cell():
    moved = [dict(_ROWS[0], measured=1.0 + 3e-13), dict(_ROWS[1], abs_error=0.25 - 1e-12)]
    assert bench_pairs.rows_drift(_ROWS, _ROWS) == 0.0
    assert bench_pairs.rows_drift(_ROWS, moved) == pytest.approx(1e-12, rel=1e-3)


@pytest.mark.parametrize("change", [
    pytest.param(_ROWS[:1], id="fewer-rows"),
    pytest.param([_ROWS[0], {"kind": "b", "measured": 2.0}], id="other-keys"),
    pytest.param([_ROWS[0], dict(_ROWS[1], kind="c")], id="other-label"),
])
def test_rows_that_differ_in_shape_have_no_drift(change):
    assert bench_pairs.rows_drift(_ROWS, change) is None


_SIDES = {"parent": "parent", "change": "change", "control": "control"}
_ARGS = bench_pairs.argparse.Namespace(parent_commit="abc", note="n", claim="none")


def test_the_runner_record_keeps_each_sides_rows_and_their_drift(monkeypatch):
    rows = {"parent": _ROWS, "change": [dict(_ROWS[0], measured=1.5), _ROWS[1]],
            "control": _ROWS}
    monkeypatch.setattr(bench_pairs, "WORKLOADS", [])
    monkeypatch.setattr(bench_pairs, "runner_names", lambda checkout: ["exp_x"])
    monkeypatch.setattr(bench_pairs, "time_runner",
                        lambda checkout, name: ([0.2, 0.1], rows[checkout]))
    monkeypatch.setattr(bench_pairs, "time_tier1", lambda checkout: {})
    out = bench_pairs.measure(_SIDES, _ARGS)["runners"]["exp_x"]
    assert out["rows"] == {side: rows[side] for side in ("parent", "change")}
    assert out["rows_drift"] == 0.5
    assert out["change_wins_pairs"] == 0 and out["repeat"]["parent"]["median"] == 0.1


def test_each_runner_record_carries_an_a_a_control_of_the_parent(monkeypatch):
    # the control is the parent against its second copy, in its own
    # alternating pairs, after the parent/change pairs of the same runner
    calls = []
    seconds = {"parent": [1.0, 0.5], "change": [3.0, 2.0], "control": [1.1, 0.4]}

    def fake_time_runner(checkout, name):
        calls.append(checkout)
        return seconds[checkout], _ROWS

    monkeypatch.setattr(bench_pairs, "WORKLOADS", [])
    monkeypatch.setattr(bench_pairs, "runner_names", lambda checkout: ["exp_x"])
    monkeypatch.setattr(bench_pairs, "time_runner", fake_time_runner)
    monkeypatch.setattr(bench_pairs, "time_tier1", lambda checkout: {})
    out = bench_pairs.measure(_SIDES, _ARGS)["runners"]["exp_x"]
    pairs = bench_pairs.PAIRS
    assert calls[:2 * pairs] == [side for pair in range(1, pairs + 1)
                                 for side in bench_pairs.order(pair)]
    assert calls[2 * pairs:] == [side for pair in range(1, pairs + 1)
                                 for side in bench_pairs.order(pair, ("parent", "control"))]
    control = out["control"]
    assert out["median_ratio"] == pytest.approx(3.0)
    assert control["median_ratio"] == pytest.approx(1.1)
    assert control["change"]["values"] == [1.1] * pairs
    assert control["change_wins_pairs"] == 0
    assert control["repeat"]["median_ratio"] == pytest.approx(0.8)
    assert control["repeat"]["change_wins_pairs"] == pairs


def test_each_workload_record_carries_an_a_a_control_of_the_parent(monkeypatch):
    # after the parent/change pairs of a workload, CONTROL_PAIRS pairs of the
    # parent against its second copy, alternating, seed i in pair i
    calls = []
    walls = {"parent": 1.0, "change": 0.5, "control": 1.02}

    def fake_run_once(checkout, workload, seed):
        calls.append((workload, checkout, seed))
        metrics = {m: {"value": walls[checkout]} for m in bench_pairs.METRICS}
        return {"result": {"attempted": 3, "failed": 0, "metrics": metrics},
                "digests": ["ab" * 32], "environment": {"python": "x"}}

    monkeypatch.setattr(bench_pairs, "WORKLOADS", ["w"])
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.setattr(bench_pairs, "runner_names", lambda checkout: [])
    monkeypatch.setattr(bench_pairs, "time_tier1", lambda checkout: {})
    record = bench_pairs.measure(_SIDES, _ARGS)
    pairs, control_pairs = bench_pairs.PAIRS, bench_pairs.CONTROL_PAIRS
    assert 0 < control_pairs < pairs
    assert calls == ([("w", side, pair) for pair in range(1, pairs + 1)
                      for side in bench_pairs.order(pair)]
                     + [("w", side, pair) for pair in range(1, control_pairs + 1)
                        for side in bench_pairs.order(pair, ("parent", "control"))])
    out = record["workloads"]["w"]
    assert out["change_vs_parent"]["wall_s"]["median_ratio"] == pytest.approx(0.5)
    assert out["rows_sha256_equal_per_pair"] == [True] * pairs
    control = out["control"]
    assert control["parent"]["runs"] == control["control"]["runs"] == control_pairs
    assert control["control"]["wall_s"]["values"] == [1.02] * control_pairs
    verdict = control["control_vs_parent"]["wall_s"]
    assert verdict["median_ratio"] == pytest.approx(1.02)
    assert verdict["change_wins_pairs"] == 0 and not verdict["claim_met"]
    assert f"A/A control (control): {control_pairs} more pairs" in record["protocol"]


def test_tier1_record_keeps_the_summary_line(monkeypatch):
    monkeypatch.setattr(bench_pairs, "TIER1", ["-c", "print('x'); print('3 passed in 0.1s')"])
    out = bench_pairs.time_tier1(Path(__file__).resolve().parents[1])
    assert out["summary"] == "3 passed in 0.1s" and out["returncode"] == 0
    assert out["wall_s"] > 0.0


def _checkout(root: Path) -> Path:
    """A checkout with a module, its bytecode, a .git and a benchmark record."""
    cache = root / "src" / "pkg" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "mod.cpython-311.pyc").write_bytes(b"")
    (root / "src" / "pkg" / "mod.py").write_text("")
    (root / ".git").mkdir()
    out = root / "perfbench" / "out"
    out.mkdir(parents=True)
    (out / "w-seed1-trace0.json").write_text('{"iterations": [], "environment": {}}')
    return root


def test_every_process_compiles_with_no_cached_bytecode(monkeypatch, tmp_path):
    copy = bench_pairs.fresh_copy(_checkout(tmp_path / "checkout"), tmp_path / "copy")
    assert (copy / "src" / "pkg" / "mod.py").exists()
    assert not any(copy.rglob("__pycache__")) and not any(copy.rglob("*.pyc"))
    assert not (copy / ".git").exists()
    seen = []

    def fake_run(args, cwd, env, **kwargs):
        seen.append((cwd, env["PYTHONDONTWRITEBYTECODE"], "PYTHONPYCACHEPREFIX" in env,
                     any(Path(cwd).rglob("__pycache__"))))
        stdout = ('{"metrics": {}}' if "perfbench/run.py" in args else
                  '{"seconds": [0.1, 0.2], "rows": []}' if bench_pairs.RUNNER_TIMER in args
                  else "[0.1, 0.2]")
        return bench_pairs.subprocess.CompletedProcess(args, 0, stdout=stdout, stderr="")

    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "inherited"))
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    bench_pairs.run_once(copy, "w", 1)
    bench_pairs.runner_names(copy)
    bench_pairs.time_runner(copy, "x")
    bench_pairs.time_tier1(copy)
    # benchmark run, runner list, runner timer, Tier-1: each in the copy, with
    # no bytecode written, no cache prefix (so the installed packages' own
    # bytecode is read) and no __pycache__ of the checkout's modules
    assert seen == [(copy, "1", False, False)] * 4


def test_each_side_runs_from_one_fresh_copy_per_invocation(monkeypatch, tmp_path):
    copies, measured = [], []
    real_copy = bench_pairs.fresh_copy

    def counting_copy(checkout, into):
        copies.append(checkout)
        return real_copy(checkout, into)

    def fake_measure(sides, args):
        measured.append({side: (path, any(path.rglob("__pycache__")))
                         for side, path in sides.items()})
        return {}

    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    monkeypatch.setattr(bench_pairs, "fresh_copy", counting_copy)
    monkeypatch.setattr(bench_pairs, "measure", fake_measure)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--label", "t",
                             "--parent-commit", "abc", "--note", "n"]) == 0
    # the A/A control is a second fresh copy of the parent
    assert copies == [parent, change, parent] and len(measured) == 1
    (sides,) = measured
    assert {side: dirty for side, (_, dirty) in sides.items()} == {
        "parent": False, "change": False, "control": False}
    assert sides["control"][0] != sides["parent"][0]
    # the copies are gone when the invocation ends; the checkouts are untouched
    assert not any(path.exists() for path, _ in sides.values())
    assert any(parent.rglob("__pycache__")) and (tmp_path / "BENCH_t.json").exists()
