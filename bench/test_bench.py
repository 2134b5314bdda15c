"""Smoke tests of the benchmark at toy size (20 x 20 grid)."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg as la

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import ekstab  # noqa: E402

TOY = 20


def dense_spectrum(p):
    """All finite pencil eigenvalues, from an orthonormal basis of null(G^T)."""
    q, _ = la.qr(p.G.toarray(), mode="full")
    N = q[:, p.n_p :]
    return la.eigvals(N.T @ (p.A @ N), N.T @ (p.M @ N))


def test_generator_is_deterministic_for_a_seed():
    a, b, c = (inputs.grid_system(TOY, seed, 2) for seed in (3, 3, 4))
    for key in ("M", "A", "G"):
        assert (getattr(a, key) != getattr(b, key)).nnz == 0
    assert np.array_equal(a.B, b.B) and np.array_equal(a.C, b.C)
    assert (a.A != c.A).nnz > 0 and not np.array_equal(a.B, c.B)


@pytest.mark.parametrize("unstable", [0, 1, 2])
def test_generator_plants_the_requested_unstable_modes(unstable):
    p = inputs.grid_system(TOY, 5, unstable)
    assert int(np.sum(dense_spectrum(p).real > 0.0)) == unstable
    assert checks.count_unstable(p.M, p.A, p.G, unstable)[0] == unstable


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_gates_and_traces_every_layer(name, tmp_path):
    kind = workloads.WORKLOADS[name]
    w = kind(str(tmp_path), 1, grid=TOY, unstable=min(kind.unstable, 2))
    originals = {k: getattr(ekstab, k) for k in ("factor_saddle", "ebara_solve")}
    tracer, untraced, traced = harness.alternate(w, 0.0)
    assert {k: getattr(ekstab, k) for k in originals} == originals

    measured = workloads.measure(w, 0.0, reference.Sampler())
    assert all(harness.in_reference_units(p) > 0 for p in measured)
    failures = w.verify()
    assert not failures
    assert workloads.apply_verdicts(untraced + traced + measured, failures) == 0
    assert tracer.installed == {t[2] for t in tracing.TARGETS}
    values = harness.layer_values(w, tracer, untraced, traced, 1)
    assert set(values) == {m[0] for m in metrics.PER_LAYER}
    stage_sum = sum(traced[0].stages.values())
    assert abs(traced[0].total - stage_sum) < 0.05 * traced[0].total


def test_sampler_leaves_its_own_time_out_and_restores_the_signal():
    sampler = reference.Sampler(period=0.01)
    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with sampler.timing() as clock:
        while time.perf_counter() - start < 0.2:
            pass
    wall = time.perf_counter() - start
    assert len(clock.readings) >= 2
    assert clock.spent >= sum(clock.readings)
    assert abs(clock.seconds + clock.spent - wall) < 0.01
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_tracer_wraps_every_lookup_site_and_restores_it():
    import ekstab.arnoldi
    import ekstab.cli
    import ekstab.closedloop
    import ekstab.riccati

    sites = (
        (ekstab.arnoldi, "ekba_step"),
        (ekstab.riccati, "ekba_step"),
        (ekstab.cli, "simulate_dae"),
        (ekstab.cli, "load_bundle"),
        (ekstab, "factor_saddle"),
    )
    before = [getattr(mod, name) for mod, name in sites]
    init = ekstab.closedloop.ClosedLoopSystem.__init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, name), original in zip(sites, before):
            assert getattr(mod, name).__wrapped__ is original
        assert ekstab.cli.ClosedLoopSystem.__init__.__wrapped__ is init
    finally:
        tracer.uninstall()
    assert [getattr(mod, name) for mod, name in sites] == before
    assert ekstab.closedloop.ClosedLoopSystem.__init__ is init


def test_readings_of_private_fields_are_absent_when_the_field_is(monkeypatch):
    p = inputs.grid_system(TOY, 1)
    real = ekstab.kernels.factor_saddle

    def without_lu(*args, **kwargs):
        fact = real(*args, **kwargs)
        object.__setattr__(fact, "_lu", None)
        return fact

    monkeypatch.setattr(ekstab.kernels, "factor_saddle", without_lu)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ekstab.kernels.factor_saddle(p.M, p.G, kind="mass")
    finally:
        tracer.uninstall()
    values = tracing.run_metrics(tracing.group_runs(tracer.spans)[None], tracer.installed)
    assert values["kernels.factor.count.mass"] == 1
    assert "kernels.factor.nnz_lu" not in values
    assert "kernels.factor.fill_ratio.mass" not in values


def test_benchmark_json_declares_the_same_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bode-60", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
