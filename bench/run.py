"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The seed makes the inputs; the run measures for about
``--seconds`` seconds and prints, as the last line of standard output,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` the run measures half the time untraced and half
traced, and reports the per-layer metrics and the tracing overhead.

One process per run, apart from the short-lived interpreters that time
set-up.  The run fixes its environment, then re-executes itself so that
it applies from interpreter start, in this process and its children:

* BLAS and OpenMP run single-threaded: on a 2-core machine shared with
  other work, two BLAS threads made the stabilize pipeline slower
  (10.9 s against 8.8 s) and noisier;
* glibc keeps freed memory for reuse (mmap threshold at its 32 MiB
  maximum, trimming only above 32 MiB).  With the default, whether a
  pass re-faults its work arrays from the kernel depended on the state
  of the heap: bode-60 passes took 4.0 to 6.0 s, the slow ones with
  about 1 s of system time, against 3.9 to 5.0 s with these settings.
"""

import argparse
import os
import sys

THREADS = 1
ENVIRONMENT = {
    "OMP_NUM_THREADS": str(THREADS),
    "OPENBLAS_NUM_THREADS": str(THREADS),
    "MKL_NUM_THREADS": str(THREADS),
    "GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=33554432"
    ":glibc.malloc.trim_threshold=33554432",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    bench = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(bench), "src")
    if not os.path.isfile(os.path.join(src, "ekstab", "__init__.py")):
        print(f"error: no package source under {src}", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in ENVIRONMENT.items()):
        os.environ.update(ENVIRONMENT)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])
    sys.path.insert(0, src)
    import harness

    return harness.run(args, bench, src, THREADS, ENVIRONMENT)


if __name__ == "__main__":
    sys.exit(main())
