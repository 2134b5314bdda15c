"""One benchmark run: inputs, set-up probes, timed passes, checks, result line."""

import contextlib
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import metrics
import reference
import tracing
import workloads

# Fresh interpreters started to time set-up; the median is reported.
SETUP_PROBES = 5
# Imports the package and loads a bundle in a fresh interpreter, then
# prints the monotonic clock, which all processes share.
PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import ekstab\n"
    "ekstab.load_bundle(sys.argv[2])\n"
    "print(time.monotonic())\n"
)
STAGES = ("gain", "closedloop", "simulate", "bode", "cli")


def setup_seconds(src, manifest):
    """Seconds from starting an interpreter to a loaded, validated bundle."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", PROBE, src, manifest],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.split()[-1]) - start


def run(args, bench, src, threads, environment):
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = os.path.join(bench, ".work")
    rundir = os.path.join(work, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        w = workloads.WORKLOADS[args.workload](rundir, args.seed)
        detail = {"workload": w.name, "seed": args.seed, "environment": environment}
        if args.trace:
            tracer, untraced, traced = alternate(w, args.seconds)
            tracer.dump(os.path.join(work, f"trace-{w.name}-{args.seed}.jsonl"))
            passes = untraced + traced
            values = layer_values(w, tracer, untraced, traced, threads)
            wanted = metrics.PER_LAYER
        else:
            probes = [setup_seconds(src, w.manifest) for _ in range(SETUP_PROBES)]
            w.load()
            passes = workloads.measure(w, args.seconds, reference.Sampler())
            values = {
                "total_ref": statistics.median(in_reference_units(p) for p in passes),
                "setup_s": statistics.median(probes),
                # After one pass, as a user running the pipeline once sees it;
                # later passes only add allocator fragmentation.
                "peak_rss_mb": passes[0].peak_kib * 1024 / 1e6,
            }
            detail["setup_probes_s"] = probes
            wanted = metrics.END_TO_END
        failures = w.verify()
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    failed = workloads.apply_verdicts(passes, failures)
    detail["passes"] = [
        {"total_s": p.total, "ref_ms": 1e3 * statistics.fmean(p.readings) if p.readings else None,
         **p.stages}
        for p in passes
    ]
    detail["failures"] = failures
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0 and not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, *_ in wanted
            if name in values
        },
    }
    print(json.dumps(result))
    return 0


def in_reference_units(it):
    """A pass's time over the mean reading of the reference sampled during it."""
    return it.total / statistics.fmean(it.readings)


def alternate(w, seconds):
    """Load traced, then alternate untraced and traced passes for ``seconds``.

    Alternating keeps slow drifts of the machine out of the tracing
    overhead, the difference between the two medians.  The untraced
    passes sample the reference as the end-to-end run does.
    """
    tracer = tracing.Tracer()
    with installed(tracer):
        tracer.run = "load"
        w.load()
    sampler = reference.Sampler()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(workloads.run_iteration(w, sampler=sampler))
        gc.collect()
        with installed(tracer):
            tracer.run = len(traced)
            traced.append(workloads.run_iteration(w, tracer))
        gc.collect()
        elapsed = time.perf_counter() - start
        if elapsed + traced[-1].total + untraced[-1].total > seconds:
            return tracer, untraced, traced


@contextlib.contextmanager
def installed(tracer):
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def layer_values(w, tracer, untraced, traced, threads):
    """Per-layer metrics of the traced passes, plus run-level readings."""
    runs = tracing.group_runs(tracer.spans)
    values = tracing.median_metrics(
        [tracing.run_metrics(runs[i], tracer.installed) for i in range(len(traced))]
    )
    loads = [s.duration for s in tracer.spans if s.name == "sysmodel.load_bundle"]
    if loads:
        values["sysmodel.load_bundle.s"] = statistics.median(loads)
    values["sysmodel.bundle_mb"] = w.bundle_mb()
    for name in STAGES:
        values[f"{name}_s"] = statistics.median(p.stages.get(name, 0.0) for p in untraced)
    values["total_s"] = statistics.median(p.total for p in untraced)
    values["ref_ms"] = 1e3 * statistics.median(r for p in untraced for r in p.readings)
    values["trace.total_s"] = statistics.median(p.total for p in traced)
    values["trace.overhead_s"] = values["trace.total_s"] - values["total_s"]
    values["trace.unattributed_s"] = statistics.median(
        p.total - sum(p.stages.values()) for p in traced
    )
    values["trace.spans"] = sum(s.run != "load" for s in tracer.spans) / len(traced)
    values["trace.iterations"] = len(traced)
    values["env.blas_threads"] = threads
    values["env.nproc"] = len(os.sched_getaffinity(0))
    return values
