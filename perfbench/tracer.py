"""Out-of-program tracing for the massclock benchmark.

A traced run wraps public functions of each massclock layer (cli,
experiments, dynamics, _kernels, hilbert, symmetry) and numpy.fft.fft/ifft
at the attribute where their callers look them up: every binding of the
function in a loaded ``massclock*`` module, a class attribute for methods,
and the experiment registry's ``runner`` field.  Nothing inside the package
is edited.  Each call appends one span ``(name, parent, start, end, extra)``
to an in-memory list; ``extra`` is a per-hook count (steps, bytes, samples).

A hook whose target no longer exists is recorded as absent and the metrics
built on it are left out: a refactor that deletes ``_kernels`` or reshapes
the step must not have to edit the benchmark.  ``Tracer.restore`` puts every
original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


def _steps(fn, args, kwargs):
    """The ``steps`` argument of a propagation call, read through its signature."""
    return inspect.signature(fn).bind(*args, **kwargs).arguments.get("steps")


def _history_extra(fn, args, kwargs, result):
    states = result[1]
    return _steps(fn, args, kwargs), len(states), sum(s.amplitudes.nbytes for s in states)


@dataclass(frozen=True)
class Hook:
    """One span name and where its target lives.

    ``home`` is a module path; ``owner`` names a class in it (for methods)
    or is ``"EXPERIMENTS"`` for the runners in the experiment registry.
    """

    name: str
    home: str
    attr: str
    owner: str = ""
    extra: Optional[Callable] = None


HOOKS = (
    Hook("cli.main", "massclock.cli", "main"),
    Hook("cli.parse_config", "massclock.cli", "parse_config"),
    Hook("cli.run", "massclock.cli", "run"),
    Hook("cli.write_rows", "massclock.cli", "write_rows_csv"),
    Hook("cli.write_rows", "massclock.cli", "write_rows_json"),
    Hook("experiments.runner", "massclock.experiments", "runner", owner="EXPERIMENTS"),
    Hook("dynamics.propagate", "massclock.dynamics", "propagate",
         extra=lambda fn, a, k, r: (_steps(fn, a, k), 0, 0)),
    Hook("dynamics.propagate_history", "massclock.dynamics", "propagate_history",
         extra=_history_extra),
    Hook("dynamics.expectation_velocity", "massclock.dynamics", "expectation_velocity"),
    Hook("dynamics.fit_clock_rate", "massclock.dynamics", "fit_clock_rate"),
    Hook("dynamics.frame_transform", "massclock.dynamics", "frame_transform"),
    Hook("dynamics.schrodinger_residual", "massclock.dynamics", "schrodinger_residual"),
    # The span keeps the trajectory alive, so distinct ids are distinct paths.
    Hook("dynamics.trajectory_at", "massclock.dynamics", "at", owner="Trajectory",
         extra=lambda fn, a, k, r: a[0]),
    Hook("kernels.phase_multiply", "massclock._kernels", "phase_multiply",
         extra=lambda fn, a, k, r: 2 * a[0].nbytes + a[1].nbytes),
    Hook("kernels.branch_moments", "massclock._kernels", "branch_moments",
         extra=lambda fn, a, k, r: a[0].nbytes + a[1].nbytes),
    Hook("kernels.accumulate_phase", "massclock._kernels", "accumulate_phase",
         extra=lambda fn, a, k, r: len(a[0])),
    Hook("numpy.fft", "numpy.fft", "fft", extra=lambda fn, a, k, r: a[0].nbytes + r.nbytes),
    Hook("numpy.fft", "numpy.fft", "ifft", extra=lambda fn, a, k, r: a[0].nbytes + r.nbytes),
    Hook("hilbert.with_amplitudes", "massclock.hilbert", "with_amplitudes",
         owner="CompositeState"),
    Hook("hilbert.branch_overlap", "massclock.hilbert", "branch_overlap",
         owner="CompositeState"),
    Hook("symmetry.apply_translation", "massclock.symmetry", "apply_translation"),
)


def _set(owner, attr, value) -> None:
    try:
        setattr(owner, attr, value)
    except AttributeError:  # frozen dataclass instance (registry entries)
        object.__setattr__(owner, attr, value)


def _bindings(hook: Hook):
    """(owner, attribute) pairs through which callers reach the hook's target."""
    try:
        home = importlib.import_module(hook.home)
    except ImportError:
        return []
    if hook.owner == "EXPERIMENTS":
        registry = getattr(home, "EXPERIMENTS", {})
        return [(d, hook.attr) for d in registry.values() if hasattr(d, hook.attr)]
    if hook.owner:
        cls = getattr(home, hook.owner, None)
        return [(cls, hook.attr)] if hook.attr in getattr(cls, "__dict__", {}) else []
    target = getattr(home, hook.attr, None)
    if target is None:
        return []
    found = [(home, hook.attr)]
    for mod_name, mod in list(sys.modules.items()):
        if mod is home or not mod_name.startswith("massclock"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is target:
                found.append((mod, attr))
    return found


class Tracer:
    """Installs the hooks, collects spans, restores the originals."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list = []
        self.last: list = []  # spans of the last traced iteration, for the record
        self.stack = [-1]
        self.absent: set = set()
        self._saved: list = []

    def _wrap(self, name: str, fn: Callable, extra: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            info = None
            if extra is not None:
                try:
                    info = extra(fn, args, kwargs, result)
                except Exception:  # a count the hook cannot read is left out
                    info = None
            spans[sid] = (name, parent, t0, t1, info)
            return result

        return traced

    def install(self) -> "Tracer":
        present = set()
        for hook in self.hooks:
            for owner, attr in _bindings(hook):
                original = vars(owner).get(attr, getattr(owner, attr))
                self._saved.append((owner, attr, original))
                _set(owner, attr, self._wrap(hook.name, original, hook.extra))
                present.add(hook.name)
        self.absent = {h.name for h in self.hooks} - present
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            _set(owner, attr, original)

    def take(self) -> list:
        """Spans since the last take; a call that raised leaves ``None``."""
        out = list(self.spans)
        self.spans.clear()
        return out

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


# --- per-layer metrics ---------------------------------------------------------

_PROPAGATION = ("dynamics.propagate", "dynamics.propagate_history")
_STEP_KERNELS = ("kernels.phase_multiply", "kernels.branch_moments", "numpy.fft")

# metric -> (unit, hooks it is built from)
LAYER_METRICS = {
    "cli.parse_config_s": ("s", ("cli.parse_config",)),
    "cli.write_rows_s": ("s", ("cli.write_rows",)),
    "cli.run_self_s": ("s", ("cli.main", "cli.run")),
    "cli.bytes_written": ("bytes", ()),
    "experiments.runner_s": ("s", ("experiments.runner",)),
    "experiments.self_s": ("s", ("experiments.runner",)),
    "experiments.sweep_points": ("count", ("experiments.runner",) + _PROPAGATION),
    "dynamics.propagate_s": ("s", ("dynamics.propagate",)),
    "dynamics.propagate_history_s": ("s", ("dynamics.propagate_history",)),
    "dynamics.propagate_history_calls": ("count", ("dynamics.propagate_history",)),
    "dynamics.strang_steps": ("count", _PROPAGATION),
    "dynamics.step_us": ("us", _PROPAGATION + ("hilbert.with_amplitudes",)),
    "dynamics.step_bytes_computed": ("bytes", _PROPAGATION + _STEP_KERNELS),
    "dynamics.history_states": ("count", ("dynamics.propagate_history",)),
    "dynamics.history_bytes_computed": ("bytes", ("dynamics.propagate_history",)),
    "dynamics.expectation_velocity_s": ("s", ("dynamics.expectation_velocity",)),
    "dynamics.expectation_velocity_calls": ("count", ("dynamics.expectation_velocity",)),
    "dynamics.fit_clock_rate_s": ("s", ("dynamics.fit_clock_rate",)),
    "dynamics.frame_transform_s": ("s", ("dynamics.frame_transform",)),
    "dynamics.frame_transform_calls": ("count", ("dynamics.frame_transform",)),
    "dynamics.trajectory_at_s": ("s", ("dynamics.trajectory_at",)),
    "dynamics.trajectory_at_calls": ("count", ("dynamics.trajectory_at",)),
    "dynamics.schrodinger_residual_s": ("s", ("dynamics.schrodinger_residual",)),
    "kernels.phase_multiply_s": ("s", ("kernels.phase_multiply",)),
    "kernels.phase_multiply_calls": ("count", ("kernels.phase_multiply",)),
    "kernels.branch_moments_s": ("s", ("kernels.branch_moments",)),
    "kernels.branch_moments_calls": ("count", ("kernels.branch_moments",)),
    "kernels.accumulate_phase_s": ("s", ("kernels.accumulate_phase",)),
    "kernels.accumulate_phase_calls": ("count", ("kernels.accumulate_phase",)),
    "kernels.accumulate_phase_samples": ("count", ("kernels.accumulate_phase",)),
    "kernels.quadrature_redundancy": ("ratio", ("kernels.accumulate_phase",
                                                "dynamics.trajectory_at")),
    "numpy.fft_s": ("s", ("numpy.fft",)),
    "numpy.fft_calls": ("count", ("numpy.fft",)),
    "hilbert.with_amplitudes_s": ("s", ("hilbert.with_amplitudes",)),
    "hilbert.with_amplitudes_calls": ("count", ("hilbert.with_amplitudes",)),
    "hilbert.branch_overlap_s": ("s", ("hilbert.branch_overlap",)),
    "hilbert.branch_overlap_calls": ("count", ("hilbert.branch_overlap",)),
    "symmetry.apply_translation_s": ("s", ("symmetry.apply_translation",)),
    "symmetry.apply_translation_calls": ("count", ("symmetry.apply_translation",)),
    "trace.overhead_s": ("s", ()),
}

# Counts that must repeat exactly between traced iterations of one input.
EXACT_COUNTS = tuple(m for m in LAYER_METRICS
                     if m.endswith(("_calls", "_computed"))
                     or m in ("dynamics.strang_steps", "dynamics.history_states",
                              "kernels.accumulate_phase_samples"))


def layer_metrics(spans: list, absent: set = frozenset()) -> dict:
    """Per-layer numbers of one traced iteration: metric -> value.

    Busy time (``_s``) is inclusive span time; self time subtracts the child
    spans.  ``dynamics.step_us`` is propagation time minus the history states
    it builds, per Strang step; ``dynamics.step_bytes_computed`` is the bytes
    the step's phase multiplies, FFT pair and moment pass read and write,
    computed from array sizes, per step.
    """
    incl = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)
    done = [s for s in spans if s is not None]
    for name, parent, t0, t1, _ in done:
        incl[name] += t1 - t0
        calls[name] += 1
        if parent >= 0:
            child[parent] += t1 - t0
    self_time = defaultdict(float)
    for sid, span in enumerate(spans):
        if span is not None:
            self_time[span[0]] += (span[3] - span[2]) - child[sid]

    names = [s and s[0] for s in spans]
    steps = hist_states = hist_bytes = sweep = 0
    sampling = step_bytes = 0.0
    samples = 0
    trajectories = {}
    for name, parent, t0, t1, info in done:
        up = names[parent] if parent >= 0 else None
        if name in _PROPAGATION:
            s, n, b = info or (0, 0, 0)
            steps += s or 0
            hist_states += n
            hist_bytes += b
            sweep += up == "experiments.runner"
        elif up in _PROPAGATION:
            if name == "hilbert.with_amplitudes":
                sampling += t1 - t0
            elif name in _STEP_KERNELS:
                step_bytes += info or 0
        if name == "kernels.accumulate_phase":
            samples += info or 0
        elif name == "dynamics.trajectory_at" and info is not None:
            trajectories[id(info)] = len(info.times)

    propagation = incl["dynamics.propagate"] + incl["dynamics.propagate_history"]
    traj_samples = sum(trajectories.values())
    values = {
        "cli.parse_config_s": incl["cli.parse_config"],
        "cli.write_rows_s": incl["cli.write_rows"],
        "cli.run_self_s": self_time["cli.main"] + self_time["cli.run"],
        "experiments.runner_s": incl["experiments.runner"],
        "experiments.self_s": self_time["experiments.runner"],
        "experiments.sweep_points": sweep,
        "dynamics.propagate_s": incl["dynamics.propagate"],
        "dynamics.propagate_history_s": incl["dynamics.propagate_history"],
        "dynamics.propagate_history_calls": calls["dynamics.propagate_history"],
        "dynamics.strang_steps": steps,
        "dynamics.step_us": 1e6 * (propagation - sampling) / steps if steps else 0.0,
        "dynamics.step_bytes_computed": step_bytes / steps if steps else 0.0,
        "dynamics.history_states": hist_states,
        "dynamics.history_bytes_computed": hist_bytes,
        "dynamics.expectation_velocity_s": incl["dynamics.expectation_velocity"],
        "dynamics.expectation_velocity_calls": calls["dynamics.expectation_velocity"],
        "dynamics.fit_clock_rate_s": incl["dynamics.fit_clock_rate"],
        "dynamics.frame_transform_s": incl["dynamics.frame_transform"],
        "dynamics.frame_transform_calls": calls["dynamics.frame_transform"],
        "dynamics.trajectory_at_s": incl["dynamics.trajectory_at"],
        "dynamics.trajectory_at_calls": calls["dynamics.trajectory_at"],
        "dynamics.schrodinger_residual_s": incl["dynamics.schrodinger_residual"],
        "kernels.phase_multiply_s": incl["kernels.phase_multiply"],
        "kernels.phase_multiply_calls": calls["kernels.phase_multiply"],
        "kernels.branch_moments_s": incl["kernels.branch_moments"],
        "kernels.branch_moments_calls": calls["kernels.branch_moments"],
        "kernels.accumulate_phase_s": incl["kernels.accumulate_phase"],
        "kernels.accumulate_phase_calls": calls["kernels.accumulate_phase"],
        "kernels.accumulate_phase_samples": samples,
        "kernels.quadrature_redundancy": samples / traj_samples if traj_samples else 0.0,
        "numpy.fft_s": incl["numpy.fft"],
        "numpy.fft_calls": calls["numpy.fft"],
        "hilbert.with_amplitudes_s": incl["hilbert.with_amplitudes"],
        "hilbert.with_amplitudes_calls": calls["hilbert.with_amplitudes"],
        "hilbert.branch_overlap_s": incl["hilbert.branch_overlap"],
        "hilbert.branch_overlap_calls": calls["hilbert.branch_overlap"],
        "symmetry.apply_translation_s": incl["symmetry.apply_translation"],
        "symmetry.apply_translation_calls": calls["symmetry.apply_translation"],
    }
    return {m: v for m, v in values.items()
            if not set(LAYER_METRICS[m][1]) & set(absent)}
