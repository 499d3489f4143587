"""Tests of the benchmark itself: seeded inputs, hook restore, absent hooks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import massclock as mc  # noqa: E402
from tracer import EXACT_COUNTS, HOOKS, Hook, Tracer, _bindings, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _small_run():
    """A few steps of history plus frame transforms on a small grid."""
    grid = mc.GridSpec(-20.0, 20.0, 256)
    internal = mc.InternalSpace(E0=100.0, levels=(0.0, 1.0))
    params = mc.PhysicalParams(hbar=1.0, c=10.0, E0=100.0)
    state = mc.make_superposition(grid, internal, [2**-0.5, 2**-0.5],
                                  mc.gaussian_packet(grid, 0.0, 0.5, 1.0))
    kind = mc.HamiltonianKind.low_energy()
    times, hist = mc.propagate_history(state, kind, params, 1e-3, 10, sample_every=2)
    traj = mc.sinusoidal_trajectory(1e-3, 0.01, 11)
    for s, t in zip(hist, times):
        mc.frame_transform(s, traj, t, params)
    mc.propagate(state, kind, params, 1e-3, 4)


def _snapshot():
    return {(id(owner), attr): vars(owner)[attr]
            for hook in HOOKS for owner, attr in _bindings(hook)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    draw = WORKLOADS[name].draw
    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_hooks_are_restored_after_a_traced_run():
    before = _snapshot()
    with Tracer() as tracer:
        _small_run()
        assert _snapshot() != before
    assert _snapshot() == before
    assert not tracer.absent
    spans = tracer.take()
    metrics = layer_metrics(spans)
    assert metrics["dynamics.strang_steps"] == 14
    assert metrics["dynamics.history_states"] == 6
    assert metrics["dynamics.frame_transform_calls"] == 6
    assert metrics["kernels.phase_multiply_calls"] == 3 * 14


def test_exact_counts_repeat():
    tracer = Tracer()
    runs = []
    for _ in range(2):
        with tracer:
            _small_run()
        runs.append(layer_metrics(tracer.take()))
    assert {m: runs[0][m] for m in EXACT_COUNTS} == {m: runs[1][m] for m in EXACT_COUNTS}


def test_missing_hook_yields_absent_metric_not_error():
    hooks = tuple(h for h in HOOKS if not h.name.startswith("kernels."))
    hooks += (Hook("kernels.phase_multiply", "massclock._no_such_module", "phase_multiply"),
              Hook("kernels.branch_moments", "massclock._kernels", "no_such_function"),
              Hook("kernels.accumulate_phase", "massclock._kernels", "at", owner="NoClass"))
    with Tracer(hooks) as tracer:
        _small_run()
    assert tracer.absent == {"kernels.phase_multiply", "kernels.branch_moments",
                             "kernels.accumulate_phase"}
    metrics = layer_metrics(tracer.take(), tracer.absent)
    assert not any(m.startswith("kernels.") for m in metrics)
    assert "dynamics.step_bytes_computed" not in metrics
    assert metrics["numpy.fft_calls"] > 0


def test_self_time_subtracts_child_spans():
    spans = [("cli.run", -1, 0.0, 10.0, None),
             ("cli.parse_config", 0, 1.0, 3.0, None),
             ("experiments.runner", 0, 4.0, 9.0, None),
             ("dynamics.propagate", 2, 5.0, 8.0, (100, 0, 0)),
             None]  # a call that raised
    metrics = layer_metrics(spans)
    assert metrics["cli.run_self_s"] == pytest.approx(3.0)
    assert metrics["experiments.self_s"] == pytest.approx(2.0)
    assert metrics["experiments.sweep_points"] == 1
    assert metrics["dynamics.step_us"] == pytest.approx(3e4)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                           "propagate_long", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_check_rejects_a_wrong_result():
    work = WORKLOADS["propagate_long"](mc, WORKLOADS["propagate_long"].draw(3), BENCH)
    shifted = work.state.with_amplitudes(np.roll(work.state.amplitudes, 5, axis=1))
    assert not work.check(shifted).ok
