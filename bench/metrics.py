"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same metrics; ``test_bench.py`` checks that
the two agree.  A metric whose layer does not run on a workload reads 0.
"""

END_TO_END = (
    # (name, unit, better, bound): bound is the share of the parent's
    # median by which the metric may worsen before a change is rejected.
    # total_ref: the pass's wall time over the reference's (reference.py).
    ("total_ref", "ref", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
)

_FACTOR = []
for _kind in ("", ".mass", ".stiffness", ".shifted", ".euler"):
    _FACTOR += [
        (f"kernels.factor.count{_kind}", "count", "lower"),
        (f"kernels.factor.s{_kind}", "s", "lower"),
        (f"kernels.factor.nnz_lu{_kind}", "count", "lower"),
        (f"kernels.factor.fill_ratio{_kind}", "ratio", "lower"),
    ]

PER_LAYER = tuple(
    [
        ("sysmodel.load_bundle.s", "s", "lower"),
        ("sysmodel.bundle_mb", "MB", "lower"),
    ]
    + _FACTOR
    + [
        ("kernels.solve.count", "count", "lower"),
        ("kernels.solve.cols", "count", "lower"),
        ("kernels.solve.s", "s", "lower"),
        ("kernels.solve.ms.p50", "ms", "lower"),
        ("kernels.solve.ms.tail", "ms", "lower"),
        ("kernels.solve.ms.tail_pct", "%", "higher"),
        ("kernels.solve.gb_computed", "GB", "lower"),
        ("kernels.gram_schmidt.count", "count", "lower"),
        ("kernels.gram_schmidt.s", "s", "lower"),
        ("kernels.thin_qr.s", "s", "lower"),
        ("arnoldi.steps", "count", "lower"),
        ("arnoldi.init.s", "s", "lower"),
        ("arnoldi.step.s", "s", "lower"),
        ("arnoldi.step.self_s", "s", "lower"),
        ("riccati.iterations", "count", "lower"),
        ("riccati.rank", "count", "lower"),
        ("riccati.final_residual", "ratio", "lower"),
        ("riccati.care_dense.count", "count", "lower"),
        ("riccati.care_dense.s", "s", "lower"),
        ("riccati.care_dense.last_ms", "ms", "lower"),
        ("riccati.self_s", "s", "lower"),
        ("reduction.eval_full_tf.count", "count", "lower"),
        ("reduction.eval_full_tf.s", "s", "lower"),
        ("reduction.eval_full_tf.ms.p50", "ms", "lower"),
        ("reduction.eval_full_tf.ms.tail", "ms", "lower"),
        ("reduction.eval_full_tf.ms.tail_pct", "%", "higher"),
        ("reduction.eval_reduced_tf.s", "s", "lower"),
        ("reduction.build_reduced.s", "s", "lower"),
        ("reduction.sweep.self_s", "s", "lower"),
        ("closedloop.setup.s", "s", "lower"),
        ("closedloop.reduce.s", "s", "lower"),
        ("closedloop.simulate.s", "s", "lower"),
        ("closedloop.step.ms", "ms", "lower"),
        ("closedloop.step.self_ms", "ms", "lower"),
        ("cli.main.s", "s", "lower"),
        ("cli.write_trajectory.s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        # Untraced stage times of the same run, one per workload stage.
        ("gain_s", "s", "lower"),
        ("closedloop_s", "s", "lower"),
        ("simulate_s", "s", "lower"),
        ("bode_s", "s", "lower"),
        ("cli_s", "s", "lower"),
        # Untraced wall time of a pass, and one reading of the reference.
        ("total_s", "s", "lower"),
        ("ref_ms", "ms", "lower"),
        ("trace.total_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.iterations", "count", "higher"),
        ("env.blas_threads", "count", "lower"),
        ("env.nproc", "count", "higher"),
    ]
)
