"""In-memory span tracing of the package's public functions.

``Tracer.install`` replaces each traced function at every attribute of
every loaded ``ekstab`` module that holds it, so internal callers that
imported the function by name (``riccati`` imports ``ekba_step`` from
``arnoldi``, ``cli`` imports ``simulate_dae``) are traced as well as
callers going through the defining module.  Methods are replaced on
their class.  ``uninstall`` puts every original back.

A span records name, start, end, parent span and run id, plus a few
attributes read from arguments and results.  Readings that depend on a
non-public field (the LU factors behind ``SaddleFactorization``) are
optional: when the field is missing the attribute is None and the
metrics derived from it are left out, never faked.
"""

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

FACTOR_KINDS = ("mass", "stiffness", "shifted", "euler")
# Percentiles tried, highest first, for a tail latency with at least
# TAIL_BEYOND samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# Bytes per stored LU entry moved by one triangular solve column: the
# value plus a 4-byte row index.  Computed, not measured.
INDEX_BYTES = 4


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "attrs")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self, index):
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
            **self.attrs,
        }


def _nnz(X):
    return int(X.nnz) if hasattr(X, "nnz") else int(np.count_nonzero(X))


def _factor_attrs(attrs, args, kwargs, fact):
    W, G = args[:2]
    attrs["kind"] = fact.kind
    attrs["nnz_saddle"] = _nnz(W) + 2 * _nnz(G)
    lu = getattr(fact, "_lu", None)
    try:
        attrs["nnz_lu"] = int(lu.L.nnz + lu.U.nnz - lu.shape[0])
    except AttributeError:
        attrs["nnz_lu"] = None


def _solve_attrs(attrs, args, kwargs, x):
    fact, rhs = args[:2]
    rhs = np.asarray(rhs)
    attrs["cols"] = 1 if rhs.ndim == 1 else int(rhs.shape[1])
    lu = getattr(fact, "_lu", None)
    try:
        nnz = int(lu.L.nnz + lu.U.nnz - lu.shape[0])
        # A complex right-hand side on a real factor takes two solves.
        passes = 2 if np.iscomplexobj(rhs) and lu.U.dtype.kind != "c" else 1
        entry = lu.U.dtype.itemsize + INDEX_BYTES
        attrs["bytes"] = nnz * entry * attrs["cols"] * passes
    except AttributeError:
        attrs["bytes"] = None


def _riccati_attrs(attrs, args, kwargs, sol):
    attrs["iterations"] = sol.iterations
    attrs["rank"] = sol.rank
    attrs["converged"] = bool(sol.converged)
    history = sol.residual_history
    attrs["final_residual"] = float(history[-1][1]) if history else None


def _simulate_attrs(attrs, args, kwargs, traj):
    attrs["steps"] = len(traj.times) - 1


# (module, attribute or Class.method, span name, attribute hook)
TARGETS = (
    ("ekstab.kernels", "factor_saddle", "kernels.factor", _factor_attrs),
    ("ekstab.kernels", "solve_saddle", "kernels.solve", _solve_attrs),
    ("ekstab.kernels", "block_gram_schmidt", "kernels.gram_schmidt", None),
    ("ekstab.kernels", "thin_qr", "kernels.thin_qr", None),
    ("ekstab.arnoldi", "ekba_init", "arnoldi.init", None),
    ("ekstab.arnoldi", "ekba_step", "arnoldi.step", None),
    ("ekstab.riccati", "ebara_solve", "riccati.solve", _riccati_attrs),
    ("ekstab.riccati", "care_dense", "riccati.care_dense", None),
    ("ekstab.riccati", "feedback_gain", "riccati.feedback_gain", None),
    ("ekstab.reduction", "build_reduced", "reduction.build_reduced", None),
    ("ekstab.reduction", "eval_full_tf", "reduction.eval_full_tf", None),
    ("ekstab.reduction", "eval_reduced_tf", "reduction.eval_reduced_tf", None),
    ("ekstab.reduction", "frequency_sweep", "reduction.sweep", None),
    ("ekstab.closedloop", "ClosedLoopSystem.__init__", "closedloop.setup", None),
    (
        "ekstab.closedloop",
        "ClosedLoopSystem.euler_corrector",
        "closedloop.euler_corrector",
        None,
    ),
    ("ekstab.closedloop", "reduce_closed_loop", "closedloop.reduce", None),
    ("ekstab.closedloop", "simulate_dae", "closedloop.simulate", _simulate_attrs),
    ("ekstab.closedloop", "write_trajectory_csv", "cli.write_trajectory", None),
    ("ekstab.sysmodel", "load_bundle", "sysmodel.load_bundle", None),
    ("ekstab.cli", "main", "cli.main", None),
)


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans = []
        self.run = None
        self.installed = set()
        self._stack = []
        self._undo = []

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.run))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["raised"] = True
                raise
            finally:
                self._close(span)
            if hook is not None:
                try:
                    hook(span.attrs, args, kwargs, result)
                except Exception:  # an optional reading; its metric stays absent
                    span.attrs["hook_failed"] = True
            return result

        return traced

    def install(self):
        """Replace every target that exists; missing targets stay untraced."""
        for module_name, attr, name, hook in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = owner.__dict__.get(member) if owner is not None else None
                if original is None:
                    continue
                setattr(owner, member, self._wrap(original, name, hook))
                self._undo.append((owner, member, original))
            else:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, name, hook)
                for mod in _package_modules(module_name.partition(".")[0]):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, original))
            self.installed.add(name)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as f:
            for i, span in enumerate(self.spans):
                f.write(json.dumps(span.as_dict(i), default=str) + "\n")


def _package_modules(package):
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == package or key.startswith(package + "."))
    ]


def tail(values):
    """(percentile, value) at the highest TAIL_LADDER percentile with enough samples beyond it."""
    n = len(values)
    if not n:
        return 0.0, 0.0
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            return p, float(np.percentile(values, p))
    return 50.0, float(np.median(values))


class _Run:
    """Spans of one run grouped by name, with self times."""

    def __init__(self):
        self.by_name = defaultdict(list)

    def spans(self, name):
        return [s for s, _, _ in self.by_name.get(name, ())]

    def count(self, name):
        return len(self.by_name.get(name, ()))

    def total(self, name):
        return sum(s.duration for s in self.spans(name))

    def self_time(self, name):
        return sum(own for _, own, _ in self.by_name.get(name, ()))

    def kids(self, name):
        return [k for _, _, kids in self.by_name.get(name, ()) for k in kids]


def group_runs(spans):
    """Map run id -> _Run, with each span's self time and direct children."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    runs = defaultdict(_Run)
    for i, s in enumerate(spans):
        own = s.duration - sum(k.duration for k in kids[i])
        runs[s.run].by_name[s.name].append((s, own, kids[i]))
    return runs


def run_metrics(run, installed):
    """Per-layer metrics of one run; layers whose target is not installed are absent."""
    m = {}
    if "kernels.factor" in installed:
        facts = run.spans("kernels.factor")
        for kind in ("",) + FACTOR_KINDS:
            group = [s for s in facts if not kind or s.attrs.get("kind") == kind]
            sfx = f".{kind}" if kind else ""
            m["kernels.factor.count" + sfx] = len(group)
            m["kernels.factor.s" + sfx] = sum(s.duration for s in group)
            nnz = [s.attrs.get("nnz_lu") for s in group]
            if None not in nnz:
                big = max(group, key=lambda s: s.attrs["nnz_lu"], default=None)
                m["kernels.factor.nnz_lu" + sfx] = big.attrs["nnz_lu"] if big else 0
                m["kernels.factor.fill_ratio" + sfx] = (
                    big.attrs["nnz_lu"] / big.attrs["nnz_saddle"] if big else 0.0
                )
    if "kernels.solve" in installed:
        solves = run.spans("kernels.solve")
        ms = [1e3 * s.duration for s in solves]
        pct, high = tail(ms)
        m["kernels.solve.count"] = len(solves)
        m["kernels.solve.cols"] = sum(s.attrs.get("cols", 0) for s in solves)
        m["kernels.solve.s"] = sum(s.duration for s in solves)
        m["kernels.solve.ms.p50"] = float(np.median(ms)) if ms else 0.0
        m["kernels.solve.ms.tail"] = high
        m["kernels.solve.ms.tail_pct"] = pct
        moved = [s.attrs.get("bytes") for s in solves]
        if None not in moved:
            m["kernels.solve.gb_computed"] = sum(moved) / 1e9
    if "kernels.gram_schmidt" in installed:
        m["kernels.gram_schmidt.count"] = run.count("kernels.gram_schmidt")
        m["kernels.gram_schmidt.s"] = run.total("kernels.gram_schmidt")
    if "kernels.thin_qr" in installed:
        m["kernels.thin_qr.s"] = run.total("kernels.thin_qr")
    if "arnoldi.init" in installed:
        m["arnoldi.init.s"] = run.total("arnoldi.init")
    if "arnoldi.step" in installed:
        m["arnoldi.steps"] = run.count("arnoldi.step")
        m["arnoldi.step.s"] = run.total("arnoldi.step")
        m["arnoldi.step.self_s"] = run.self_time("arnoldi.step")
    if "riccati.solve" in installed:
        solves = run.spans("riccati.solve")
        last = solves[-1].attrs if solves else {}
        for key in ("iterations", "rank", "final_residual"):
            if not solves or last.get(key) is not None:
                m[f"riccati.{key}"] = last.get(key, 0)
        m["riccati.self_s"] = run.self_time("riccati.solve")
    if "riccati.care_dense" in installed:
        cares = run.spans("riccati.care_dense")
        m["riccati.care_dense.count"] = len(cares)
        m["riccati.care_dense.s"] = sum(s.duration for s in cares)
        m["riccati.care_dense.last_ms"] = 1e3 * cares[-1].duration if cares else 0.0
    if "reduction.eval_full_tf" in installed:
        ms = [1e3 * s.duration for s in run.spans("reduction.eval_full_tf")]
        pct, high = tail(ms)
        m["reduction.eval_full_tf.count"] = len(ms)
        m["reduction.eval_full_tf.s"] = sum(ms) / 1e3
        m["reduction.eval_full_tf.ms.p50"] = float(np.median(ms)) if ms else 0.0
        m["reduction.eval_full_tf.ms.tail"] = high
        m["reduction.eval_full_tf.ms.tail_pct"] = pct
    for name in ("reduction.eval_reduced_tf", "reduction.build_reduced"):
        if name in installed:
            m[name + ".s"] = run.total(name)
    if "reduction.sweep" in installed:
        m["reduction.sweep.self_s"] = run.self_time("reduction.sweep")
    for name in ("closedloop.setup", "closedloop.reduce", "closedloop.simulate"):
        if name in installed:
            m[name + ".s"] = run.total(name)
    if "closedloop.simulate" in installed:
        steps = sum(s.attrs.get("steps", 0) for s in run.spans("closedloop.simulate"))
        # Time before the first step: the stepping factorization and the
        # SMW set-up, whether traced as a corrector or as a factorization.
        prologue = sum(
            k.duration
            for k in run.kids("closedloop.simulate")
            if k.name in ("closedloop.euler_corrector", "kernels.factor")
        )
        per = 1e3 / steps if steps else 0.0
        m["closedloop.step.ms"] = (run.total("closedloop.simulate") - prologue) * per
        m["closedloop.step.self_ms"] = run.self_time("closedloop.simulate") * per
    if "cli.main" in installed:
        m["cli.main.s"] = run.total("cli.main")
        m["cli.self_s"] = run.self_time("cli.main")
    if "cli.write_trajectory" in installed:
        m["cli.write_trajectory.s"] = run.total("cli.write_trajectory")
    return m


def median_metrics(per_run):
    """Median of each metric over runs; a metric absent from any run is absent."""
    keys = set.intersection(*(set(m) for m in per_run)) if per_run else set()
    return {k: statistics.median(m[k] for m in per_run) for k in sorted(keys)}
