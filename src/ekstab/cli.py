"""Batch command-line front end for the reduction/stabilization pipeline.

Subcommands wire generate/ingest -> reduce -> sweep -> Riccati ->
stabilize -> simulate.  Each is a function ``(args, sys_) -> (exit
status, manifest fields)``; ``main`` applies the config file (flags
given win), checks the knobs, loads ``--bundle``, times the command and writes
``run_manifest.json``.  Artifacts go into ``--out``, created on first
use.  Numeric artifacts are deterministic for a fixed seed and
configuration.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, oracle
from .arnoldi import ekba_basis
from .closedloop import (
    ClosedLoopSystem,
    read_input_csv,
    reduce_closed_loop,
    simulate_dae,
    simulate_reduced,
    step_input,
    write_trajectory_csv,
    zero_input,
)
from .errors import EkstabError, ParseError, ValidationError
from .reduction import (
    GENERALIZED,
    STATE_SPACE,
    build_reduced,
    frequency_sweep,
    write_sweep_csv,
)
from .riccati import FeedbackGain, ebara_solve, feedback_gain, write_residual_csv
from .sysmodel import (
    GridSpec,
    SyntheticSpec,
    Unstable,
    _read_matrix,
    _write_matrix,
    generate_synthetic,
    load_bundle,
    read_key_values,
    write_system,
)


# The OpenBLAS that the numpy and scipy wheels load: the package, the
# library file in its ``<package>.libs`` folder and the suffix of the
# library's thread-count symbols.
_OPENBLAS = (("numpy", "libscipy_openblas64_*", "64_"), ("scipy", "libscipy_openblas*", ""))


def _openblas_threads():
    """(set, get) thread-count functions of each OpenBLAS numpy and scipy loaded.

    A package that is not imported, or a library or symbol that is not
    there, is skipped.
    """
    found = []
    for package, pattern, suffix in _OPENBLAS:
        module = sys.modules.get(package)
        if module is None:
            continue
        folder = os.path.join(os.path.dirname(module.__file__), os.pardir, f"{package}.libs")
        for path in sorted(glob.glob(os.path.join(folder, f"{pattern}.so*"))):
            try:
                lib = ctypes.CDLL(path)
                found.append(
                    tuple(
                        getattr(lib, f"scipy_openblas_{verb}_num_threads{suffix}")
                        for verb in ("set", "get")
                    )
                )
            except (OSError, AttributeError):
                continue
    return found


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with one thread in each OpenBLAS that numpy and scipy loaded.

    The sweep's and the Arnoldi process's own threads then do not compete
    with BLAS's, and the results do not depend on the cores.  Yields 1,
    or None when no such library was found; each library's count is
    restored on exit, so an in-process caller keeps its own.
    """
    libraries = _openblas_threads()
    before = [get() for _, get in libraries]
    for set_threads, _ in libraries:
        set_threads(1)
    try:
        yield 1 if libraries else None
    finally:
        for (set_threads, _), count in zip(libraries, before):
            set_threads(count)


def _config_defaults(path, actions):
    """The config file's values for the command's flags, by destination.

    Each value is converted with its flag's own argparse ``type`` and
    checked against its ``choices``; keys that name no flag of the
    command are ignored.
    """
    defaults = {}
    for key, raw in read_key_values(path, "config").items():
        key = key.replace("-", "_")
        action = actions.get(key)
        if action is None:
            continue
        try:
            value = action.type(raw) if action.type else raw
        except ValueError as exc:
            raise ParseError(f"config {key} = {raw!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise ParseError(f"config {key} = {raw!r}: not one of {action.choices}")
        defaults[key] = value
    return defaults


def _out(args, name):
    """Path of artifact ``name`` in ``--out``, creating the directory."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _check_knobs(args, actions):
    """Reject out-of-range numeric knobs before touching any files.

    Every float-typed flag must be finite; ``actions`` maps each flag's
    destination to its argparse action.
    """
    for name, action in actions.items():
        if action.type is float and not math.isfinite(getattr(args, name)):
            raise ValidationError(f"config: {name} must be finite")
    # simulate --m 0 means the full model only; the other commands reduce.
    m_min = 0 if args.command == "simulate" else 1
    checks = (
        ("tol", lambda v: v > 0.0, "tol must be positive"),
        ("dtol", lambda v: v > 0.0, "dtol must be positive"),
        ("mmax", lambda v: v >= 1, "mmax must be >= 1"),
        ("m", lambda v: v >= m_min, f"m must be >= {m_min}"),
        ("points", lambda v: v >= 2, "points must be >= 2"),
        ("wlo", lambda v: v > 0.0, "wlo must be positive"),
        ("h", lambda v: v > 0.0, "h must be positive"),
        ("horizon", lambda v: v > 0.0, "horizon must be positive"),
    )
    for name, good, message in checks:
        if hasattr(args, name) and not good(getattr(args, name)):
            raise ValidationError(f"config: {message}")
    if hasattr(args, "wlo") and not args.wlo < args.whi:
        raise ValidationError("config: need wlo < whi")
    if hasattr(args, "h") and args.h > args.horizon:
        raise ValidationError("config: need h <= horizon")


def _parse_input_spec(spec, n_b):
    """Input-signal flag: const[:v1,v2], step[:t_on[:v1,v2]], zero, csv:PATH.

    A value or time that is not finite is a ParseError; the stepper
    checks the signal's width, as it does for every input.
    """
    if spec.startswith("csv:"):
        return read_input_csv(spec.split(":", 1)[1])
    if spec == "zero":
        return zero_input(n_b)
    kind, *parts = spec.split(":")
    if kind not in ("const", "step") or len(parts) > (1 if kind == "const" else 2):
        raise ParseError(f"unrecognized input spec {spec!r}")
    try:
        t_on = float(parts.pop(0)) if kind == "step" and parts else 0.0
        values = [float(v) for v in parts[0].split(",")] if parts else [1.0] * n_b
    except ValueError as exc:
        raise ParseError(f"input spec {spec!r}: {exc}") from exc
    if not np.isfinite([t_on, *values]).all():
        raise ParseError(f"input spec {spec!r} has a non-finite value")
    return step_input(values, t_on if kind == "step" else -np.inf)


def _cmd_gen(args, _):
    unstable = (
        Unstable(args.unstable, args.shift) if args.unstable else None
    )
    grid = (
        GridSpec(args.grid[0], args.grid[1], args.viscosity)
        if args.grid
        else None
    )
    if args.nv is None:
        if grid is None:
            raise ValidationError("config: gen needs --nv or --grid NX NY")
        args.nv = grid.nx * grid.ny
    spec = SyntheticSpec(
        n_v=args.nv,
        n_p=args.np,
        n_b=args.nb,
        n_c=args.nc,
        seed=args.seed,
        unstable=unstable,
        grid=grid,
    )
    sys_ = generate_synthetic(spec)
    manifest = write_system(sys_, args.out)
    print(f"wrote {manifest}")
    return 0, {"system_manifest": manifest, "dims": sys_.dims}


def _cmd_reduce(args, sys_):
    basis = ekba_basis(sys_, args.m)
    form = GENERALIZED if args.form == "generalized" else STATE_SPACE
    model = build_reduced(basis, form)
    names = {"a": "T_m" if form == STATE_SPACE else "A_m", "b": "B_m", "c": "C_m"}
    for attr, name in names.items():
        _write_matrix(_out(args, f"{name}.mtx"), getattr(model, attr))
    if model.mass is not None:
        _write_matrix(_out(args, "M_m.mtx"), model.mass)
    print(f"reduced model of order {model.order} written to {args.out}")
    return 0, {"order": model.order, "breakdown_at": basis.breakdown_at}


def _sweep(args, target, model, csv_name):
    """Sweep ``target`` against ``model``, write ``csv_name``; the manifest fields."""
    sweep = frequency_sweep(
        target, model, w_lo=args.wlo, w_hi=args.whi, n_points=args.points
    )
    write_sweep_csv(_out(args, csv_name), sweep)
    return {
        "hinf_sample": sweep.hinf_sample,
        "skipped_points": sweep.skipped,
        "sweep_workers": sweep.workers,
        "sweep_factorizations": sweep.factorizations,
        "sweep_fallbacks": sweep.fallbacks,
    }


def _max_real(model):
    """Largest real part of the reduced state-space model's spectrum."""
    return float(np.linalg.eigvals(model.a).real.max())


def _real_factors(sys_):
    """The mass and stiffness factors, taken while a basis still holds them.

    The sweep's real processes solve with both; held past the bases that
    made them, neither is factored again.
    """
    return sys_.saddle("mass"), sys_.saddle("stiffness")


def _cmd_bode(args, sys_):
    basis = ekba_basis(sys_, args.m)
    model = build_reduced(basis)
    factors = _real_factors(sys_)
    del basis
    fields = _sweep(args, sys_, model, "sweep.csv")
    del factors
    print(
        f"sweep written to {_out(args, 'sweep.csv')} "
        f"(hinf sample {fields['hinf_sample']:.6e})"
    )
    return 0, {"order": model.order, **fields}


def _riccati_gain(args, sys_):
    """Solve for the feedback gain and write Z.mtx, K.mtx and residuals.csv.

    Returns the solution, gain, exit status (3 when the tolerance was not
    met; the partial gain is still written) and manifest fields.
    """
    solution = ebara_solve(sys_, tol=args.tol, dtol=args.dtol, m_max=args.mmax)
    gain = feedback_gain(solution.z, sys_)
    if solution.z.size:
        _write_matrix(_out(args, "Z.mtx"), solution.z)
    _write_matrix(_out(args, "K.mtx"), gain.matrix())
    write_residual_csv(_out(args, "residuals.csv"), solution)
    fields = {
        "iterations": solution.iterations,
        "converged": solution.converged,
        "status": solution.status,
        "rank": solution.rank,
        "final_relative_residual": solution.residual_history[-1][1],
    }
    return solution, gain, 0 if solution.converged else 3, fields


def _cmd_riccati(args, sys_):
    _, _, status, fields = _riccati_gain(args, sys_)
    print(
        f"riccati: {fields['status']} after {fields['iterations']} iterations, "
        f"rank {fields['rank']}, final residual {fields['final_relative_residual']}"
    )
    return status, fields


def _cmd_stabilize(args, sys_):
    solution, gain, status, fields = _riccati_gain(args, sys_)
    cl = ClosedLoopSystem(sys_, gain)
    model = reduce_closed_loop(cl, args.m)[1]
    # Held through the reduction, which shares the mass, stiffness and
    # identity factors of the Riccati basis; the sweep reads neither basis,
    # only the mass and stiffness factors.
    factors = _real_factors(sys_)
    del solution
    fields.update(_sweep(args, cl, model, "closedloop_sweep.csv"))
    del factors
    fields["reduced_order"] = model.order
    fields["reduced_max_real"] = _max_real(model)
    if sys_.n_v <= oracle.size_cap():
        spectrum = oracle.pencil_finite_spectrum(sys_, gain)
        fields["closed_loop_max_real"] = float(spectrum.real.max())
    print(
        f"stabilize: gain rank {gain.rank}, closed-loop reduced order "
        f"{model.order} written to {args.out}"
    )
    return status, fields


def _cmd_simulate(args, sys_):
    target = sys_
    if args.gain:
        k = _read_matrix(args.gain, dense=True)
        target = ClosedLoopSystem(sys_, FeedbackGain(left=np.eye(k.shape[0]), right=k))
    u = _parse_input_spec(args.input, sys_.n_b)
    traj = simulate_dae(target, u, h=args.h, t_end=args.horizon)
    csv_path = _out(args, "trajectory.csv")
    write_trajectory_csv(csv_path, traj)
    fields = dict(steps=len(traj.times) - 1, max_output_error=None, reduced_max_real=None)
    if args.m:
        if args.gain:
            model = reduce_closed_loop(target, args.m)[1]
        else:
            model = build_reduced(ekba_basis(sys_, args.m))
        red = simulate_reduced(model, u, h=args.h, t_end=args.horizon)
        write_trajectory_csv(_out(args, "trajectory_reduced.csv"), red)
        errors = np.linalg.norm(traj.outputs - red.outputs, axis=1)
        fields["max_output_error"] = float(errors.max())
        fields["reduced_max_real"] = _max_real(model)
    print(f"trajectory written to {csv_path}")
    return 0, fields


def _cmd_verify(args, sys_):
    proj = oracle.build_projector(sys_, cap=args.cap)
    pi, tl, tr = proj.pi, proj.theta_l, proj.theta_r
    eye = np.eye(sys_.n_v - sys_.n_p)
    m = sys_.M.toarray()
    spectrum = oracle.pencil_finite_spectrum(sys_, cap=args.cap)
    checks = [
        ("pi idempotent", np.linalg.norm(pi @ pi - pi, 2)),
        ("pi annihilates G", np.linalg.norm(pi @ sys_.G.toarray(), 2)),
        ("pi M symmetry", np.linalg.norm(pi @ m - m @ pi.T, 2)),
        ("theta product", np.linalg.norm(tl @ tr.T - pi, 2)),
        ("theta biorthogonal", np.linalg.norm(tl.T @ tr - eye, 2)),
        ("finite eigenvalue count", float(abs(spectrum.size - (sys_.n_v - sys_.n_p)))),
    ]
    status = 0
    for name, dev in checks:
        ok = dev <= 1e-9
        status |= 0 if ok else 1
        print(f"{name}: {'PASS' if ok else 'FAIL'} (deviation {dev:.3e})")
    print(
        f"pencil: {spectrum.size} finite eigenvalues, "
        f"max real part {spectrum.real.max():.6e}"
    )
    return status, None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ekstab",
        description=(
            "Reduce index-2 descriptor systems with extended block Krylov "
            "projections and stabilize them with Riccati-based LQR feedback."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Flag groups shared by several subcommands, each declared once.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bundle", required=True, help="system.manifest path")
    common.add_argument("--config", help="key-value config file (flags win)")
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument("--m", type=int, default=20)
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--wlo", type=float, default=1e-5)
    sweep.add_argument("--whi", type=float, default=1e5)
    sweep.add_argument("--points", type=int, default=200)
    riccati = argparse.ArgumentParser(add_help=False)
    riccati.add_argument("--tol", type=float, default=1e-8)
    riccati.add_argument("--dtol", type=float, default=1e-12)
    riccati.add_argument("--mmax", type=int, default=100)

    gen = sub.add_parser(
        "gen", parents=[out], help="generate a synthetic Matrix Market bundle"
    )
    gen.add_argument("--nv", type=int, help="velocity nodes (default NX*NY with --grid)")
    gen.add_argument("--np", type=int, required=True)
    gen.add_argument("--nb", type=int, default=2)
    gen.add_argument("--nc", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--unstable", type=int, default=0, metavar="K")
    gen.add_argument("--shift", type=float, default=0.5)
    gen.add_argument("--grid", type=int, nargs=2, metavar=("NX", "NY"))
    gen.add_argument("--viscosity", type=float, default=1.0)
    gen.set_defaults(func=_cmd_gen)

    red = sub.add_parser(
        "reduce", parents=[common, order, out], help="build a reduced model"
    )
    red.add_argument(
        "--form", choices=["state-space", "generalized"], default="state-space"
    )
    red.set_defaults(func=_cmd_reduce)

    bode = sub.add_parser(
        "bode",
        parents=[common, order, sweep, out],
        help="frequency sweep of full vs reduced",
    )
    bode.set_defaults(func=_cmd_bode)

    ric = sub.add_parser(
        "riccati",
        parents=[common, riccati, out],
        help="solve the projected Riccati equation",
    )
    ric.set_defaults(func=_cmd_riccati)

    stab = sub.add_parser(
        "stabilize",
        parents=[common, riccati, order, sweep, out],
        help="Riccati gain plus closed-loop reduction and sweep",
    )
    stab.set_defaults(func=_cmd_stabilize)

    sim = sub.add_parser(
        "simulate", parents=[common, out], help="implicit-Euler time response"
    )
    sim.add_argument("--input", default="const", help="const[:v,..]|step[:t[:v,..]]|zero|csv:PATH")
    sim.add_argument("--h", type=float, default=0.05)
    sim.add_argument("--horizon", type=float, default=30.0, metavar="T")
    sim.add_argument("--gain", help="Matrix Market file with an n_b x n_v gain")
    sim.add_argument("--m", type=int, default=0, help="also simulate a reduced model")
    sim.set_defaults(func=_cmd_simulate)

    ver = sub.add_parser(
        "verify", parents=[common], help="dense oracle checks on a bundle"
    )
    ver.add_argument("--cap", type=int, default=None)
    ver.set_defaults(func=_cmd_verify)
    parser.subcommands = sub
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    command_parser = parser.subcommands.choices[args.command]
    actions = {
        action.dest: action
        for action in command_parser._actions
        if action.dest != "help"
    }
    try:
        if getattr(args, "config", None):
            # Parsed again over the config as defaults: every flag given wins.
            command_parser.set_defaults(**_config_defaults(args.config, actions))
            args = parser.parse_args(argv)
        _check_knobs(args, actions)
        with _one_blas_thread() as blas_threads:
            sys_ = load_bundle(args.bundle) if "bundle" in actions else None
            t0 = time.perf_counter()
            status, fields = args.func(args, sys_)
        if fields is not None:
            payload = {
                "command": args.command,
                "version": __version__,
                "config": {
                    k: v for k, v in sorted(vars(args).items()) if k != "func"
                },
                **fields,
                "blas_threads": blas_threads,
                "wall_time_s": time.perf_counter() - t0,
            }
            with open(_out(args, "run_manifest.json"), "w") as f:
                # A numpy scalar is written as its Python value; anything
                # else unserializable still raises TypeError.
                json.dump(payload, f, indent=2, default=np.generic.item)
                f.write("\n")
        return status
    except (EkstabError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
