"""massclock benchmark: time to a verified result, per workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload propagate_long --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout this file sits in, in
this one process, with no extra threads.  Inputs come from ``--seed``
(see ``workloads.py``).  Each iteration is one call into the program that
must pass its checks; a raised exception, a non-zero exit code,
``passed: false`` or a missed bound counts as a failed iteration.

Host speed.  On a shared machine the same iteration can take 1.5x longer
for minutes at a time, and CPU time tracks wall time, so the slowdown is
the host's throughput, not waiting.  So a fixed calibration kernel that
never calls massclock (``KERNELS``; each workload names the one shaped
like its work) runs between every two timed calls, and between the
program calls inside one iteration too.  Each call's seconds are rescaled
to the host speed at which the kernel takes ``REF_CAL_S``, using the mean
of the kernels on either side.  ``wall_s`` and ``setup_s`` are those
reference-speed seconds; the raw medians are printed next to them and
kept in the run record.  A change to the program moves them; a change of
host speed, which moves the kernel as much, does not.

``--trace 0`` times iterations for ``--seconds`` with no hooks installed and
reports the end-to-end metrics:

* ``wall_s``      median reference-speed seconds per iteration;
* ``setup_s``     median reference-speed seconds of several set-ups, each a
                  fresh ``import massclock`` (package modules purged first;
                  numpy stays loaded) plus building the workload's inputs;
* ``peak_rss_mb`` peak resident memory of this process.

The failure ratio is ``failed / attempted`` in the result line.

``--trace 1`` spends the first half of ``--seconds`` on untraced iterations
and the rest on at least two traced ones (``tracer.py``), and reports the
per-layer metrics; the exact counts must repeat between traced iterations.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
record of the run (environment, inputs, per-iteration times and result
digests) and, for traced runs, the spans of the last traced iteration are
written under ``perfbench/out/``.  Without ``src/massclock`` next to this
directory the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from tracer import EXACT_COUNTS, LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
REF_CAL_S = 0.045  # a calibration kernel's typical time on a 2-core x86-64 VM


_FFT, _IFFT = np.fft.fft, np.fft.ifft  # bound before any hook is installed


def _int_loop() -> None:
    total = 0
    for i in range(200_000):
        total += i % 7


def array_kernel() -> None:
    """FFT pair, phase multiply and moment pass on a 2 x 2048 array, then a
    plain Python loop: the mix of a Strang step and its per-call overhead."""
    x = np.linspace(-1.0, 1.0, 2048)
    amps = np.exp(-8.0 * x**2 + 40j * np.outer([1.0, 2.0], x))
    phase = np.exp(-1j * np.outer([1.0, 1.1], x**2))
    for _ in range(250):
        amps = _IFFT(_FFT(amps, axis=1) * phase, axis=1)
        _ = (amps.real ** 2 + amps.imag ** 2) @ x
    _int_loop()


def scalar_kernel() -> None:
    """A Python loop over numpy scalars, then a plain Python loop: the mix of
    per-sample quadrature and per-call work on small arrays."""
    x = np.linspace(-1.0, 1.0, 2048)
    total = 0.0
    for i in range(60_000):
        total += 0.5 * x[i & 2047] - x[(i + 1) & 2047]
    _int_loop()


# Host slowdowns hit FFT-bound and interpreter-bound code differently, so
# each workload is calibrated with the kernel closest to its own work.
KERNELS = {"array": array_kernel, "scalar": scalar_kernel}


def calibrate(kernel) -> float:
    """Seconds for one run of a calibration kernel.  The kernels never call
    massclock or a hooked function, so only the host's current speed moves
    them."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class HostClock:
    """Times program calls in segments with a calibration kernel between them.

    Each segment's seconds are rescaled by ``REF_CAL_S`` over the mean of the
    kernels before and after it.  ``start`` opens a timed call, ``lap`` ends
    the running segment and opens the next; a workload that makes several
    program calls per iteration passes ``lap`` between them, so no segment
    runs long while the host changes speed.
    """

    def __init__(self, kernel):
        self._kernel = kernel
        self._cal = calibrate(kernel)
        self.start()

    def start(self) -> None:
        self.raw_s = self.ref_s = 0.0
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        seconds = time.perf_counter() - self._t0
        cal = calibrate(self._kernel)
        self.raw_s += seconds
        self.ref_s += seconds * REF_CAL_S / (0.5 * (self._cal + cal))
        self._cal = cal
        self._t0 = time.perf_counter()


@dataclass
class Timed:
    """One timed call: raw seconds and seconds at the reference host speed."""

    raw_s: float
    ref_s: float
    outcome: Optional[Outcome] = None
    layer: Optional[dict] = None


def timed_calls(call, kernel, min_calls: int, seconds: float = 0.0):
    """Run ``call(clock)`` until ``seconds`` have passed and ``min_calls`` are
    done; ``call`` returns ``(outcome, layer metrics)``."""
    out = []
    clock = HostClock(kernel)
    start = time.perf_counter()
    while len(out) < min_calls or time.perf_counter() - start < seconds:
        outcome, layer = call(clock)
        out.append(Timed(clock.raw_s, clock.ref_s, outcome, layer))
    return out


def _purge_package() -> None:
    for name in [m for m in sys.modules if m == "massclock" or m.startswith("massclock.")]:
        del sys.modules[name]


def set_up(workload, inputs: dict, workdir: Path, clock: HostClock):
    """Fresh import of the package plus the workload's inputs, timed."""
    _purge_package()
    clock.start()
    for module in workload.modules:
        importlib.import_module(module)
    work = workload(sys.modules["massclock"], inputs, workdir)
    clock.lap()
    return work


def iterate(work, clock: HostClock) -> Outcome:
    """One timed run of the program and its untimed check."""
    clock.start()
    try:
        result = work.run(clock.lap)
    except Exception as exc:  # every failure is counted, the run goes on
        clock.lap()
        return Outcome(False, f"{type(exc).__name__}: {exc}")
    clock.lap()
    try:
        return work.check(result)
    except Exception as exc:
        return Outcome(False, f"check raised {type(exc).__name__}: {exc}")


def traced_iterate(work, clock: HostClock, tracer: Tracer):
    """``iterate`` with the hooks installed; keeps the spans on the tracer."""
    with tracer:
        outcome = iterate(work, clock)
    tracer.last = tracer.take()
    return outcome, layer_metrics(tracer.last, tracer.absent)


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when not found."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
    }


def layer_summary(traced: list, untraced: list):
    """Per-layer metrics (medians over traced iterations) and count repeat check."""
    per_iter = [t.layer for t in traced]
    metrics = {m: statistics.median(it[m] for it in per_iter) for m in per_iter[0]}
    mismatched = sorted(m for m in EXACT_COUNTS if m in metrics
                        and len({it[m] for it in per_iter}) > 1)
    metrics["cli.bytes_written"] = statistics.median(t.outcome.bytes_written for t in traced)
    metrics["trace.overhead_s"] = (statistics.median(t.ref_s for t in traced)
                                   - statistics.median(t.ref_s for t in untraced))
    return metrics, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "massclock" / "__init__.py").is_file():
        print(f"perfbench: no massclock sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.draw(args.seed)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    latest = {}

    def one_setup(clock):  # keeps only the newest package copy alive
        latest["work"] = set_up(workload, inputs, workdir, clock)
        return None, None

    kernel = KERNELS[workload.calibration]
    setups = timed_calls(one_setup, kernel, SETUP_REPEATS)
    work = latest.pop("work")
    imported_from = Path(sys.modules["massclock"].__file__).resolve()
    if SRC.resolve() not in imported_from.parents:
        print(f"perfbench: massclock imported from {imported_from}, not {SRC}", file=sys.stderr)
        return 2

    tracer = Tracer()
    if args.trace:
        untraced = timed_calls(lambda clock: (iterate(work, clock), None), kernel, 1,
                               args.seconds / 2)
        traced = timed_calls(lambda clock: traced_iterate(work, clock, tracer), kernel, 2,
                             args.seconds / 2)
        records = untraced + traced
        metrics, mismatched = layer_summary(traced, untraced)
        units = {m: LAYER_METRICS[m][0] for m in metrics}
    else:
        records = timed_calls(lambda clock: (iterate(work, clock), None), kernel, 1,
                              args.seconds)
        mismatched = []
        metrics = {
            "wall_s": statistics.median(t.ref_s for t in records),
            "setup_s": statistics.median(t.ref_s for t in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    shutil.rmtree(workdir, ignore_errors=True)

    raw_wall = statistics.median(t.raw_s for t in records)
    raw_setup = statistics.median(t.raw_s for t in setups)
    failed = sum(not t.outcome.ok for t in records)
    digests = sorted({t.outcome.rows_sha256 for t in records})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": inputs, "environment": environment(), "ref_cal_s": REF_CAL_S,
        "setups": [{"raw_s": t.raw_s, "ref_s": t.ref_s} for t in setups],
        "iterations": [{"raw_s": t.raw_s, "ref_s": t.ref_s, "traced": t.layer is not None,
                        "ok": t.outcome.ok, "detail": t.outcome.detail,
                        "rows_sha256": t.outcome.rows_sha256} for t in records],
        "absent_hooks": sorted(tracer.absent),
        "count_mismatches": mismatched,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        rows = [s and s[:4] for s in tracer.last]  # name, parent index, start, end
        (OUT / f"{tag}-spans.json").write_text(json.dumps(rows) + "\n", encoding="utf-8")

    print(f"perfbench {tag}: {len(records)} iterations, {failed} failed "
          f"(fail_ratio {failed / len(records):.3g}); inputs {json.dumps(inputs)}")
    for t in records:
        if not t.outcome.ok:
            print(f"  FAILED: {t.outcome.detail}")
    print(f"  rows_sha256 {', '.join(d[:16] for d in digests)} (information only)")
    if mismatched:
        print(f"  counts differ between traced iterations: {', '.join(mismatched)}")
    if tracer.absent:
        print(f"  absent hooks: {', '.join(sorted(tracer.absent))}")
    notes = {"wall_s": f"median of {len(records)} iterations; raw {raw_wall:.6g} s",
             "setup_s": f"median of {len(setups)} set-ups; raw {raw_setup:.6g} s"}
    for name, value in metrics.items():
        print(f"  {name:<36} {value:.6g} {units[name]}  {notes.get(name, '')}".rstrip())
    print(f"  environment {json.dumps(record['environment'])}")
    result = {
        "correct": failed == 0 and not mismatched,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
