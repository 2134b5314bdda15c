"""The benchmark's workloads: seeded inputs, timed stages and their gates.

A workload writes its inputs as a Matrix Market bundle, loads it through
the package, then runs its stages in iterations.  Each stage is followed
by a cheap gate; gates are timed apart from the stages and excluded from
the pass's time.  Checks that need the benchmark's own factorizations run
once, in ``verify``, after timing and after peak memory has been read,
so that neither the timings nor ``peak_rss_mb`` include them.

The package is driven only from outside, through public functions looked
up on the ``ekstab`` modules at call time, so that tracing wrappers
installed on those modules see every call.
"""

import contextlib
import csv
import gc
import io
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import scipy.io as sio

import checks
import ekstab
import ekstab.cli
import inputs
import reference
from checks import require

RICCATI_TOL = 1e-8
ORDER = 20  # Arnoldi steps of every reduction
STEP = 0.05  # implicit-Euler step
SWEEP = dict(w_lo=1e-5, w_hi=1e5, n_points=200)  # the ``bode`` CLI defaults
MAX_SWEEP_ERROR = 1e-6  # relative full-vs-reduced error over the sweep
ORTHO_TOL = 1e-10
# Two runs of one stage on identical inputs in one process must agree to
# rounding; in practice they agree bit for bit.
REPEAT_TOL = 1e-12


@dataclass
class Iteration:
    """One pass over a workload's stages."""

    stages: dict = field(default_factory=dict)  # stage -> seconds
    passed: list = field(default_factory=list)  # stages that passed their gate
    total: float = 0.0  # wall time of the pass minus its gates
    peak_kib: int = 0  # the process's peak resident memory at the end of the pass
    readings: list = field(default_factory=list)  # reference seconds sampled in the stages
    attempted: int = 0
    failed: int = 0


def orthonormality(V):
    return float(np.linalg.norm(V.T @ V - np.eye(V.shape[1])))


class Workload:
    """Inputs, stages and checks of one workload.

    ``grid`` and ``unstable`` default to the benchmark's sizes; the
    smoke test passes smaller ones.
    """

    name = ""
    grid = 0
    unstable = 0

    def __init__(self, workdir, seed, grid=None, unstable=None):
        self.grid = grid or type(self).grid
        self.unstable = type(self).unstable if unstable is None else unstable
        self.workdir = workdir
        self.problem = inputs.grid_system(self.grid, seed, self.unstable)
        p = self.problem
        self.manifest = ekstab.write_system(
            ekstab.DescriptorSystem(M=p.M, A=p.A, G=p.G, B=p.B, C=p.C),
            os.path.join(workdir, "bundle"),
        )
        self.sys = None
        self.first = {}

    def load(self):
        """Parse and validate the bundle: the set-up a user of the package pays."""
        self.sys = ekstab.load_bundle(self.manifest)

    def bundle_mb(self):
        folder = os.path.dirname(self.manifest)
        return sum(os.path.getsize(os.path.join(folder, f)) for f in os.listdir(folder)) / 1e6

    def stages(self):
        """(name, stage, gate) triples run in order; a stage stores results on ctx."""
        raise NotImplementedError

    def verify(self):
        """Own-reference checks after timing; returns {stage or 'inputs': message}."""
        loaded = max(
            checks.relative(getattr(self.sys, k), getattr(self.problem, k))
            for k in ("M", "A", "G", "B", "C")
        )
        failures = {}
        if loaded > 1e-15:
            failures["inputs"] = f"loaded bundle differs from the generated system by {loaded:.1e}"
        return failures

    def _repeatable(self, key, value):
        """The first iteration's value is kept; later iterations must reproduce it."""
        first = self.first.setdefault(key, value)
        dev = checks.relative(value, first)
        require(dev <= REPEAT_TOL, f"{key} differs from the first iteration by {dev:.1e}")


class Stabilize(Workload):
    name = "stabilize-200"
    grid = 200
    unstable = 3
    steps = 200

    def stages(self):
        return (
            ("gain", self._gain, self._check_gain),
            ("closedloop", self._closedloop, self._check_closedloop),
            ("simulate", self._simulate, self._check_simulate),
        )

    def _gain(self, ctx):
        ctx.solution = ekstab.ebara_solve(self.sys, tol=RICCATI_TOL)
        ctx.gain = ekstab.feedback_gain(ctx.solution.z, self.sys)

    def _check_gain(self, ctx):
        sol = ctx.solution
        require(sol.converged, f"riccati stopped with status {sol.status}")
        final = sol.residual_history[-1][1]
        require(final < RICCATI_TOL, f"riccati residual {final:.2e} >= {RICCATI_TOL}")
        K = ctx.gain.matrix()
        require(np.all(np.isfinite(K)), "gain has non-finite entries")
        self._repeatable("gain", K)

    def _closedloop(self, ctx):
        ctx.closed = ekstab.ClosedLoopSystem(self.sys, ctx.gain)
        ctx.basis, ctx.model = ekstab.reduce_closed_loop(ctx.closed, ORDER)

    def _check_closedloop(self, ctx):
        dev = orthonormality(ctx.basis.V())
        require(dev < ORTHO_TOL, f"closed-loop basis orthonormality {dev:.1e}")
        top = np.linalg.eigvals(ctx.model.a).real.max()
        require(top < 0.0, f"reduced closed loop has an eigenvalue at Re {top:.3e}")
        self._repeatable("reduced", ctx.model.a)

    def _simulate(self, ctx):
        u = np.ones(self.sys.n_b)
        ctx.traj = ekstab.simulate_dae(ctx.closed, u, h=STEP, t_end=self.steps * STEP)

    def _check_simulate(self, ctx):
        y = ctx.traj.outputs
        shape = (self.steps + 1, self.sys.n_c)
        require(y.shape == shape, f"trajectory shape {y.shape}, expected {shape}")
        require(np.all(np.isfinite(y)), "trajectory has non-finite outputs")
        self._repeatable("trajectory", y)

    def verify(self):
        failures = super().verify()
        p = self.problem
        found, lam = checks.count_unstable(p.M, p.A, p.G, self.unstable)
        if found != self.unstable:
            failures["inputs"] = f"open loop has {found} unstable modes near 0: {lam}"
        if "gain" not in self.first:
            return failures
        K = self.first["gain"]
        found, lam = checks.count_unstable(p.M, p.A, p.G, 0, U=p.B, V=K.T)
        if found:
            failures["gain"] = f"closed loop A - B K keeps {found} unstable modes: {lam}"
        if "trajectory" in self.first:
            # First implicit-Euler step from rest: (M - h (A - B K)) v1 = h B u.
            euler = checks.SaddleSolver(
                (p.M - STEP * p.A).tocsc(), p.G, U=-STEP * p.B, V=K.T
            )
            y1 = p.C @ euler.solve(STEP * (p.B @ np.ones(p.B.shape[1])))
            dev = checks.relative(self.first["trajectory"][1], y1)
            if dev > 1e-9:
                failures["simulate"] = f"first Euler step off by {dev:.1e}"
        return failures


class Bode(Workload):
    name = "bode-60"
    grid = 60
    # Sweep points also evaluated with the benchmark's own LU.
    samples = (0, 50, 100, 150, 199)

    def stages(self):
        return (("bode", self._bode, self._check_bode),)

    def _bode(self, ctx):
        ctx.basis = ekstab.ekba_basis(self.sys, ORDER)
        ctx.model = ekstab.build_reduced(ctx.basis)
        ctx.sweep = ekstab.frequency_sweep(self.sys, ctx.model, **SWEEP)

    def _check_bode(self, ctx):
        sweep = ctx.sweep
        require(not sweep.skipped, f"sweep skipped points {sweep.skipped}")
        worst = float(np.max(sweep.errors / sweep.full.norms))
        require(worst < MAX_SWEEP_ERROR, f"sweep relative error {worst:.2e}")
        dev = orthonormality(ctx.basis.V())
        require(dev < ORTHO_TOL, f"basis orthonormality {dev:.1e}")
        values = [(sweep.full.values[i], sweep.reduced.values[i]) for i in self.samples]
        self._repeatable("samples", np.array(values))
        self.first.setdefault("omegas", sweep.full.omegas[list(self.samples)])

    def verify(self):
        failures = super().verify()
        if "samples" not in self.first:
            return failures
        for w, (full, reduced) in zip(self.first["omegas"], self.first["samples"]):
            own = checks.transfer_function(self.problem, 1j * w)
            if checks.relative(full, own) > 1e-9 or checks.relative(reduced, own) > MAX_SWEEP_ERROR:
                failures["bode"] = (
                    f"at omega {w:.3g}: full {checks.relative(full, own):.1e}, "
                    f"reduced {checks.relative(reduced, own):.1e} from own evaluation"
                )
        return failures


class Simulate(Workload):
    name = "simulate-120"
    grid = 120
    horizon = 100.0
    u = (1.0, 1.0)

    def __init__(self, workdir, seed, grid=None, unstable=None):
        super().__init__(workdir, seed, grid, unstable)
        p = self.problem
        self.K = 0.5 * (p.M @ p.B).T
        self.gain_path = os.path.join(workdir, "K.mtx")
        sio.mmwrite(self.gain_path, self.K, precision=17)
        self.config = os.path.join(workdir, "simulate.cfg")
        with open(self.config, "w") as f:
            f.write("# reduced-model order; 0 simulates the full model only\nm = 0\n")
        self.out = os.path.join(workdir, "out")
        self.steps = int(round(self.horizon / STEP))

    def stages(self):
        return (("cli", self._cli, self._check_cli),)

    def argv(self):
        return [
            "simulate",
            "--bundle", self.manifest,
            "--config", self.config,
            "--gain", self.gain_path,
            "--input", "const:" + ",".join(f"{v:g}" for v in self.u),
            "--h", f"{STEP}",
            "--horizon", f"{self.horizon:g}",
            "--out", self.out,
        ]

    def _cli(self, ctx):
        with contextlib.redirect_stdout(io.StringIO()):
            ctx.status = ekstab.cli.main(self.argv())

    def _check_cli(self, ctx):
        require(ctx.status == 0, f"cli exited with {ctx.status}")
        with open(os.path.join(self.out, "trajectory.csv"), newline="") as f:
            rows = list(csv.reader(f))
        n_c, n_b = self.problem.C.shape[0], self.problem.B.shape[1]
        header = ["t"] + [f"y_{i + 1}" for i in range(n_c)] + [f"u_{i + 1}" for i in range(n_b)]
        require(rows[0] == header, f"trajectory header {rows[0]}")
        require(len(rows) == self.steps + 2, f"trajectory has {len(rows) - 1} rows")
        with open(os.path.join(self.out, "run_manifest.json")) as f:
            steps = json.load(f)["steps"]
        require(steps == self.steps, f"manifest records {steps} steps")
        self._repeatable("last_output", np.array([float(v) for v in rows[-1][1 : 1 + n_c]]))

    def verify(self):
        failures = super().verify()
        if "last_output" not in self.first:
            return failures
        # Steady state of the closed loop: (A - B K) v + G p = -B u, G^T v = 0.
        p = self.problem
        solver = checks.SaddleSolver(p.A, p.G, U=p.B, V=self.K.T)
        y = p.C @ solver.solve(-(p.B @ np.asarray(self.u)))
        dev = checks.relative(self.first["last_output"], y)
        if dev > 1e-9:
            failures["cli"] = f"final output is {dev:.1e} from the steady state"
        return failures


WORKLOADS = {w.name: w for w in (Stabilize, Bode, Simulate)}


def run_iteration(workload, tracer=None, sampler=None):
    """Run every stage once, each followed by its gate.

    With a sampler, the reference is sampled while each stage runs and
    the sampling time is left out of the stage's time and of the total.
    """
    ctx = SimpleNamespace()
    it = Iteration()
    gates = sampling = 0.0
    start = time.perf_counter()
    for name, stage, gate in workload.stages():
        it.attempted += 1
        if it.failed:  # later stages consume the failed stage's output
            it.failed += 1
            continue
        try:
            timing = sampler.timing() if sampler else reference.unsampled()
            span = tracer.span("stage." + name) if tracer else contextlib.nullcontext()
            try:
                with timing as clock, span:
                    stage(ctx)
            finally:
                sampling += clock.spent
                it.readings += clock.readings
            it.stages[name] = clock.seconds
            t = time.perf_counter()
            try:
                gate(ctx)
            finally:
                gates += time.perf_counter() - t
            it.passed.append(name)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            it.failed += 1
    it.total = time.perf_counter() - start - gates - sampling
    it.peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return it


def measure(workload, seconds, sampler=None):
    """Iterate until the next pass would end after ``seconds``; at least once."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_iteration(workload, sampler=sampler))
        gc.collect()
        if time.perf_counter() - start + passes[-1].total > seconds:
            return passes


def apply_verdicts(passes, failures):
    """Count every pass of a stage that failed its own-reference check as failed."""
    failed = sum(p.failed for p in passes)
    for p in passes:
        failed += sum(1 for name in p.passed if name in failures)
    return failed
