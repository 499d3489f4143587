"""The benchmark's workloads: seeded inputs and one verified result each.

Grid sizes, step counts and sample counts are fixed per workload; the seed
draws only physical inputs, from ranges in which every check passes, so
every seed does the same amount of work.  A workload object is built from
the imported package (its set-up), ``run(lap)`` is the timed work, which
calls ``lap`` between its program calls when it makes several, and
``check`` verifies the result outside the timed region.  ``calibration``
names the host-speed kernel in ``run.py`` whose work is closest to the
workload's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Outcome:
    ok: bool
    detail: str
    rows_sha256: str = ""
    bytes_written: int = 0


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class PropagateLong:
    """One long ``propagate`` of a two-level packet, no history."""

    modules = ("massclock",)
    calibration = "array"
    N, X_MIN, X_MAX = 2048, -40.0, 40.0
    E0, C, HBAR = 100.0, 10.0, 1.0
    DT, STEPS = 5e-4, 10_000
    NORM_DRIFT = 1e-10      # acceptance check C10
    CENTROID_TOL = 1e-8     # free motion: <x>_i(T) = x0 + p0 c^2 T / H_r,i

    @staticmethod
    def draw(seed: int) -> dict:
        rng = random.Random(seed)
        return {"x0": rng.uniform(-4.0, 4.0), "p0": rng.uniform(-1.0, 1.0),
                "sigma": rng.uniform(0.9, 1.4), "level": rng.uniform(2.0, 10.0),
                "theta": rng.uniform(math.pi / 8, 3 * math.pi / 8)}

    def __init__(self, mc, inputs: dict, workdir: Path):
        self.mc, self.inputs = mc, inputs
        grid = mc.GridSpec(self.X_MIN, self.X_MAX, self.N)
        internal = mc.InternalSpace(E0=self.E0, levels=(0.0, inputs["level"]))
        self.params = mc.PhysicalParams(hbar=self.HBAR, c=self.C, E0=self.E0)
        psi = mc.gaussian_packet(grid, inputs["x0"], inputs["p0"], inputs["sigma"])
        weights = [math.cos(inputs["theta"]), math.sin(inputs["theta"])]
        self.state = mc.make_superposition(grid, internal, weights, psi)
        self.kind = mc.HamiltonianKind.low_energy()

    def run(self, lap):
        return self.mc.propagate(self.state, self.kind, self.params, self.DT, self.STEPS)

    def check(self, final) -> Outcome:
        amps = np.asarray(final.amplitudes)
        digest = _sha256(amps.tobytes())
        drift = abs(final.norm() - 1.0)
        if not drift < self.NORM_DRIFT:
            return Outcome(False, f"norm drift {drift:.3e}", digest)
        x = self.state.grid.x()
        w = amps.real ** 2 + amps.imag ** 2
        t = self.DT * self.STEPS
        for i, level in enumerate((0.0, self.inputs["level"])):
            h_r = self.E0 + level
            predicted = self.inputs["x0"] + self.inputs["p0"] * self.C ** 2 * t / h_r
            measured = float(w[i] @ x / w[i].sum())
            if not abs(measured - predicted) < self.CENTROID_TOL:
                return Outcome(False, f"branch {i} <x> = {measured!r}, "
                                      f"free motion gives {predicted!r}", digest)
        return Outcome(True, f"norm drift {drift:.1e}", digest)


class FreeFall:
    """``massclock run exp_wep --out <dir>`` in-process, shipped defaults."""

    modules = ("massclock", "massclock.cli")
    calibration = "array"
    ROWS = 12  # 4 kinds x (2 branch accelerations + 1 clock shift)

    @staticmethod
    def draw(seed: int) -> dict:
        return {"x0": random.Random(seed).uniform(3.0, 8.0)}

    def __init__(self, mc, inputs: dict, workdir: Path):
        self.cli = mc.cli
        self.x0 = inputs["x0"]
        self.workdir = workdir
        self.runs = 0

    def run(self, lap):
        self.runs += 1
        out = self.workdir / f"run{self.runs}"
        argv = ["run", "exp_wep", "--out", str(out), "--set", f"params.x0={self.x0!r}"]
        echo = io.StringIO()
        with contextlib.redirect_stdout(echo):
            code = self.cli.main(argv)
        return code, out, echo.getvalue()

    def check(self, result) -> Outcome:
        code, out, echo = result
        try:
            if code != 0:
                return Outcome(False, f"exit code {code}: {echo.strip()}")
            (run_dir,) = out.iterdir()
            rows = (run_dir / "rows.csv").read_bytes()
            meta = json.loads((run_dir / "meta.json").read_text(encoding="utf-8"))
            written = sum(p.stat().st_size for p in run_dir.iterdir())
            digest = _sha256(rows)
            if meta.get("passed") is not True:
                return Outcome(False, "meta.json says passed: false", digest, written)
            if meta["config"]["params"]["x0"] != self.x0:
                return Outcome(False, "meta.json does not echo params.x0", digest, written)
            n_rows = len(rows.decode("utf-8").splitlines()) - 1
            if n_rows != self.ROWS:
                return Outcome(False, f"{n_rows} rows, expected {self.ROWS}", digest, written)
            return Outcome(True, "passed", digest, written)
        finally:
            shutil.rmtree(out, ignore_errors=True)


class PrimedFrame:
    """Acceptance check C07 through the public API."""

    modules = ("massclock",)
    calibration = "scalar"
    DTS = (2e-3, 1e-3, 5e-4)
    MIN_ORDER = 1.9
    LAP_EVERY = 250  # frame transforms between host-speed calibrations

    @staticmethod
    def draw(seed: int) -> dict:
        return {"amplitude": random.Random(seed).uniform(0.3, 0.7)}

    def __init__(self, mc, inputs: dict, workdir: Path):
        self.mc = mc
        self.amplitude = inputs["amplitude"]
        self.grid = mc.GridSpec(-20.0, 20.0, 512)
        self.internal = mc.InternalSpace(E0=100.0, levels=(0.0,))
        self.params = mc.PhysicalParams(hbar=1.0, c=10.0, E0=100.0)
        self.kind = mc.HamiltonianKind.dynamical_mass()

    def _residual(self, dt: float, with_term: bool, lap) -> float:
        mc = self.mc
        steps = int(round(1.0 / dt))
        traj = mc.sinusoidal_trajectory(self.amplitude, 1.0, steps + 1)
        psi = mc.gaussian_packet(self.grid, 0.0, 0.0, 1.0)
        state = mc.make_superposition(self.grid, self.internal, [1.0], psi)
        times, hist = mc.propagate_history(state, self.kind, self.params, dt, steps)
        primed = []
        for k, (s, t) in enumerate(zip(hist, times)):
            if k % self.LAP_EVERY == 0:
                lap()
            primed.append(mc.frame_transform(s, traj, t, self.params))
        lap()
        acc = traj.acceleration() if with_term else None
        return mc.schrodinger_residual(primed, dt, self.kind, self.params,
                                       non_inertial_accel=acc)

    def run(self, lap):
        res, neg = [], []
        for out, with_term in ((res, True), (neg, False)):
            for dt in self.DTS:
                out.append(self._residual(dt, with_term, lap))
                lap()
        return res, neg

    def check(self, result) -> Outcome:
        res, neg = result
        digest = _sha256(repr([float(v) for v in res + neg]).encode())
        orders = [math.log2(res[i] / res[i + 1]) for i in range(len(res) - 1)]
        stalls = neg[-1] > 0.5 * neg[0] and neg[-1] > 100.0 * res[-1]
        detail = (f"orders {orders[0]:.3f}, {orders[1]:.3f}; control "
                  f"{neg[-1]:.2e} vs {res[-1]:.2e}")
        return Outcome(min(orders) >= self.MIN_ORDER and stalls, detail, digest)


WORKLOADS = {"propagate_long": PropagateLong, "free_fall": FreeFall,
             "primed_frame": PrimedFrame}
