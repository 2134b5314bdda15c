"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines.  Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import scipy.linalg as la

from ekstab import oracle
from ekstab.arnoldi import ADJOINT, FORWARD, ekba_basis
from ekstab.cli import main
from ekstab.closedloop import (
    ClosedLoopSystem,
    constant_input,
    reduce_closed_loop,
    simulate_dae,
    simulate_reduced,
)
from ekstab.reduction import build_reduced, eval_full_tf, frequency_sweep
from ekstab.riccati import (
    care_dense,
    care_newton_kleinman,
    ebara_solve,
    feedback_gain,
)
from ekstab.sysmodel import (
    SyntheticSpec,
    Unstable,
    generate_synthetic,
)


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_01_projector_identity_suite():
    start = time.perf_counter()
    cases = [
        (20 + 9 * i, 3 + i % 7, i) for i in range(20)
    ]  # n_v in [20, 191], all <= 200
    worst = 0.0
    for n_v, n_p, seed in cases:
        s = generate_synthetic(SyntheticSpec(n_v, n_p, seed=seed))
        proj = oracle.build_projector(s)
        pi, tl, tr = proj.pi, proj.theta_l, proj.theta_r
        m = s.M.toarray()
        eye = np.eye(n_v - n_p)
        devs = (
            la.norm(pi @ pi - pi, 2),
            la.norm(pi @ s.G.toarray(), 2),
            la.norm(pi @ m - m @ pi.T, 2),
            la.norm(tl @ tr.T - pi, 2),
            la.norm(tl.T @ tr - eye, 2),
        )
        worst = max(worst, *devs)
    elapsed = time.perf_counter() - start
    _report(
        "01 projector-identities",
        worst <= 1e-9 and elapsed < 10.0,
        f"20 systems, max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_02_basis_suite(sys60, proj60):
    g = sys60.G.toarray()
    gn = la.norm(g, 2)
    worst_orth, worst_constraint = 0.0, 0.0
    basis = ekba_basis(sys60, 100, FORWARD)  # runs to exhaustion
    for m in range(1, basis.m + 1):
        v = basis.V(m)
        worst_orth = max(worst_orth, la.norm(v.T @ v - np.eye(v.shape[1]), 2))
        worst_constraint = max(worst_constraint, la.norm(g.T @ v, 2) / gn)
    rel = {}
    for mode, adjoint in ((FORWARD, False), (ADJOINT, True)):
        b = ekba_basis(sys60, 5, mode)
        f = oracle.projected_operator(sys60, proj60, adjoint=adjoint)
        tbar = b.Tbar(5)
        rel[mode] = la.norm(f @ b.V(5) - b.V(6) @ tbar, 2) / la.norm(tbar, 2)
    tsys = oracle.theta_system(sys60, proj60)
    v_theta, _ = oracle.theta_arnoldi(tsys, 5)
    mapped = proj60.theta_r @ v_theta[:, : 5 * basis.width]
    angle = la.subspace_angles(ekba_basis(sys60, 5, FORWARD).V(5), mapped).max()
    ok = (
        worst_orth <= 1e-10
        and worst_constraint <= 1e-10
        and max(rel.values()) <= 1e-8
        and angle <= 1e-8
    )
    _report(
        "02 basis-suite",
        ok,
        f"orth {worst_orth:.2e}, constraint {worst_constraint:.2e}, "
        f"relation {max(rel.values()):.2e}, angle {angle:.2e}",
    )


def test_03_transfer_function_identity(sys60, proj60):
    tsys = oracle.theta_system(sys60, proj60)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10):
        s = complex(rng.uniform(0.3, 3.0), rng.uniform(-30.0, 30.0))
        f = eval_full_tf(sys60, s)
        ref = oracle.theta_transfer(tsys, s)
        worst = max(worst, la.norm(f - ref, 2) / max(1.0, la.norm(ref, 2)))
    _report(
        "03 transfer-function-identity",
        worst <= 1e-8,
        f"10 shifts, max relative deviation {worst:.2e}",
    )


def test_04_mor_exactness_and_monotonicity(sys200):
    start = time.perf_counter()
    exact_m = (sys200.n_v - sys200.n_p) // (2 * sys200.n_b)
    basis = ekba_basis(sys200, exact_m, FORWARD)
    errors = {}
    for m in (2, 4, 8, exact_m):
        model = build_reduced(basis, order=m)
        sweep = frequency_sweep(sys200, model, n_points=200)
        errors[m] = float(np.nanmax(sweep.errors))
    elapsed = time.perf_counter() - start
    ok = (
        errors[exact_m] <= 1e-8
        and errors[2] > errors[4] > errors[8]
        and elapsed < 60.0
    )
    _report(
        "04 mor-exactness",
        ok,
        f"errors m=2/4/8: {errors[2]:.2e}/{errors[4]:.2e}/{errors[8]:.2e}, "
        f"exact {errors[exact_m]:.2e}, {elapsed:.1f}s",
    )


def test_05_care_scalar_and_cross_check():
    dev1 = abs(care_dense([[-1.0]], [[1.0]], [[1.0]])[0, 0] - (np.sqrt(2.0) - 1.0))
    dev2 = abs(care_dense([[0.0]], [[1.0]], [[1.0]])[0, 0] - 1.0)
    rng = np.random.default_rng(42)
    t = rng.standard_normal((4, 4))
    t -= (np.max(la.eigvals(t).real) + 1.0) * np.eye(4)
    bt = rng.standard_normal((4, 2))
    ct = rng.standard_normal((4, 2))
    y_schur = care_dense(t, bt, ct)
    y_newton = care_newton_kleinman(t, bt, ct)
    cross = la.norm(y_schur - y_newton, "fro") / la.norm(y_schur, "fro")
    ok = dev1 <= 1e-12 and dev2 <= 1e-12 and cross <= 1e-9
    _report(
        "05 care-dense",
        ok,
        f"scalars {dev1:.2e}/{dev2:.2e}, Schur-vs-Newton {cross:.2e}",
    )


def test_06_residual_formula(sys60u, proj60u):
    sol = ebara_solve(sys60u, tol=1e-8, keep_iterates=True)
    lam11 = sol.basis.lam11
    scale = la.norm(lam11 @ lam11.T, 2)
    width = sol.basis.width
    worst = 0.0
    for m, y in sol.iterates:
        cheap = la.norm(sol.basis.t_next(m) @ y[-width:, :], 2)
        x = sol.basis.V(m) @ y @ sol.basis.V(m).T
        dense = oracle.dense_gare_residual(sys60u, X=x, proj=proj60u)
        worst = max(worst, abs(cheap - dense) / max(scale, cheap))
    final = sol.residual_history[-1][1]
    ok = sol.converged and worst <= 1e-8 and final < 1e-8
    _report(
        "06 residual-formula",
        ok,
        f"{sol.iterations} iterations, max formula deviation {worst:.2e}, "
        f"final residual {final:.2e}",
    )


def test_07_stabilization():
    start = time.perf_counter()
    details = []
    ok = True
    for n_v, n_p in ((60, 8), (200, 20)):
        sys_ = generate_synthetic(
            SyntheticSpec(n_v, n_p, n_b=2, n_c=2, seed=7, unstable=Unstable(2, 0.5))
        )
        sol = ebara_solve(sys_, tol=1e-8)
        gain = feedback_gain(sol.z, sys_)
        spectrum = oracle.pencil_finite_spectrum(sys_, gain)
        stable = bool(np.all(spectrum.real < 0.0))
        u = constant_input(np.ones(sys_.n_b))
        open_traj = simulate_dae(sys_, u, h=0.05, t_end=60.0)
        grew = bool(np.abs(open_traj.outputs).max() > 1e6)
        cl = ClosedLoopSystem(sys_, gain)
        closed_traj = simulate_dae(cl, u, h=0.05, t_end=60.0)
        settled = bool(
            np.abs(closed_traj.outputs).max() < 1e3
            and np.abs(closed_traj.outputs[-1] - closed_traj.outputs[-21]).max()
            <= 1e-4
        )
        exact_m = (n_v - n_p) // (2 * sys_.n_b)
        _, model = reduce_closed_loop(cl, exact_m)
        red = simulate_reduced(model, u, h=0.05, t_end=60.0)
        err = la.norm(closed_traj.outputs - red.outputs, axis=1)
        half = len(err) // 2
        flat = bool(err[half:].max() <= err[:half].max() * 1.1 + 1e-14)
        ok = ok and stable and grew and settled and flat
        details.append(
            f"{n_v}/{n_p}: maxRe {spectrum.real.max():.3f}, open "
            f"{np.abs(open_traj.outputs).max():.1e}, err flat {flat}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report("07 stabilization", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_08_smw_equivalence():
    worst = 0.0
    from ekstab.riccati import FeedbackGain

    for n_b in (1, 2, 4):
        sys_ = generate_synthetic(SyntheticSpec(50, 6, n_b=n_b, n_c=2, seed=4))
        rng = np.random.default_rng(n_b)
        k = 0.3 * rng.standard_normal((n_b, 50))
        cl = ClosedLoopSystem(
            sys_, FeedbackGain(left=np.eye(n_b), right=k)
        )
        rhs = rng.standard_normal((50, 3))
        x = cl.solve_stiff(rhs)
        blk = np.block(
            [
                [sys_.A.toarray() - sys_.B @ k, sys_.G.toarray()],
                [sys_.G.toarray().T, np.zeros((6, 6))],
            ]
        )
        ref = la.solve(blk, np.vstack([rhs, np.zeros((6, 3))]))[:50]
        worst = max(worst, la.norm(x - ref, 2) / la.norm(ref, 2))
    _report(
        "08 smw-equivalence",
        worst <= 1e-10,
        f"ranks 1/2/4, max relative deviation {worst:.2e}",
    )


def test_09_integrator_order():
    sys_ = generate_synthetic(SyntheticSpec(40, 5, n_b=1, n_c=1, seed=3))
    proj = oracle.build_projector(sys_)
    tsys = oracle.theta_system(sys_, proj)
    f = la.solve(tsys.m, tsys.a)
    g = la.solve(tsys.m, tsys.b)
    horizon = 2.0
    x_exact = la.solve(f, (la.expm(f * horizon) - np.eye(f.shape[0])) @ g[:, 0])
    y_exact = (tsys.c @ x_exact)[0]
    errors = {}
    for h in (0.02, 0.01):
        traj = simulate_dae(sys_, constant_input([1.0]), h=h, t_end=horizon)
        errors[h] = abs(traj.outputs[-1, 0] - y_exact)
    ratio = errors[0.02] / errors[0.01]
    _report(
        "09 integrator-order",
        1.7 <= ratio <= 2.3,
        f"halving h scales the error by {ratio:.3f}",
    )


def test_10_cli_determinism(tmp_path):
    artifacts = []
    for name in ("run1", "run2"):
        base = tmp_path / name
        gen = base / "gen"
        assert main(
            ["gen", "--nv", "60", "--np", "8", "--unstable", "2", "--seed", "7",
             "--out", str(gen)]
        ) == 0
        ric = base / "ric"
        assert main(
            ["riccati", "--bundle", str(gen / "system.manifest"),
             "--out", str(ric)]
        ) == 0
        bode = base / "bode"
        assert main(
            ["bode", "--bundle", str(gen / "system.manifest"), "--m", "6",
             "--points", "50", "--out", str(bode)]
        ) == 0
        artifacts.append(
            (
                (ric / "residuals.csv").read_bytes(),
                (ric / "K.mtx").read_bytes(),
                (bode / "sweep.csv").read_bytes(),
            )
        )
    ok = artifacts[0] == artifacts[1]
    _report("10 cli-determinism", ok, "residuals.csv, K.mtx, sweep.csv byte-identical")
