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


def test_runner_record_compares_pair_by_pair():
    out = bench_pairs.runner_record(PARENT, [v - 0.01 for v in PARENT[:9]] + [2.0])
    assert out["change_wins_pairs"] == 9
    assert out["parent"]["median"] == pytest.approx(1.09)
    assert out["median_ratio"] == pytest.approx(out["change"]["median"] / 1.09)


def test_a_runner_is_timed_in_a_fresh_process_of_its_checkout():
    from massclock.experiments import EXPERIMENTS

    root = Path(__file__).resolve().parents[1]
    assert bench_pairs.runner_names(root) == list(EXPERIMENTS)
    first, repeat = bench_pairs.time_runner(root, "exp_clock_semiclassical")
    assert 0.0 < first < 60.0 and 0.0 < repeat < 60.0


def test_tier1_record_keeps_the_summary_line(monkeypatch):
    monkeypatch.setattr(bench_pairs, "TIER1", ["-c", "print('x'); print('3 passed in 0.1s')"])
    out = bench_pairs.time_tier1(Path(__file__).resolve().parents[1])
    assert out["summary"] == "3 passed in 0.1s" and out["returncode"] == 0
    assert out["wall_s"] > 0.0


def test_every_process_compiles_with_no_cached_bytecode(monkeypatch, tmp_path):
    seen, caches = [], []

    def fake_run(args, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((env["PYTHONDONTWRITEBYTECODE"], list(cache.iterdir())))
        caches.append(cache)
        stdout = '{"metrics": {}}' if "perfbench/run.py" in args else "[0.1, 0.2]"
        return bench_pairs.subprocess.CompletedProcess(args, 0, stdout=stdout, stderr="")

    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    (out / "w-seed1-trace0.json").write_text('{"iterations": [], "environment": {}}')
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    bench_pairs.run_once(tmp_path, "w", 1)
    bench_pairs.runner_names(tmp_path)
    bench_pairs.time_runner(tmp_path, "x")
    bench_pairs.time_tier1(tmp_path)
    # benchmark run, runner list, runner timer, Tier-1: each with no bytecode
    # written and a fresh, empty cache directory of its own
    assert seen == [("1", [])] * 4
    assert len(set(caches)) == 4 and not any(c.exists() for c in caches)
