import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from ekstab import arnoldi, kernels, oracle
from ekstab.arnoldi import (
    ADJOINT,
    FORWARD,
    OperatorPair,
    ekba_basis,
    ekba_init,
    ekba_step,
    projected_input,
)
from ekstab.closedloop import ClosedLoopSystem, reduce_closed_loop
from ekstab.errors import (
    Breakdown,
    DimensionMismatch,
    ModeMismatch,
    RankDeficient,
    SingularSaddle,
)
from ekstab.riccati import ebara_solve, feedback_gain
from ekstab.sysmodel import (
    DescriptorSystem,
    GridSpec,
    SyntheticSpec,
    Unstable,
    generate_synthetic,
)


def _spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestInit:
    def test_constraint_on_first_block(self, sys60):
        basis = ekba_init(sys60, FORWARD)
        g = sys60.G.toarray()
        v = basis.V()
        assert la.norm(g.T @ v, 2) <= 1e-10 * la.norm(g, 2)

    def test_colinear_start_breaks_down(self):
        # M = I, A = -I, G^T B = 0 makes the two start solves colinear.
        n = 6
        G = sp.csc_matrix(np.eye(n)[:, :2])
        B = np.eye(n)[:, 2:4]
        sys_ = DescriptorSystem(
            M=sp.eye(n, format="csc"),
            A=(-sp.eye(n)).tocsc(),
            G=G,
            B=B,
            C=np.ones((1, n)),
        )
        with pytest.raises(RankDeficient):
            ekba_init(sys_, FORWARD)

    def test_zero_input_breaks_down(self, sys60):
        broken = DescriptorSystem(
            M=sys60.M, A=sys60.A, G=sys60.G, B=np.zeros_like(sys60.B), C=sys60.C
        )
        with pytest.raises(RankDeficient):
            ekba_init(broken, FORWARD)

    def test_adjoint_uses_output_map(self, sys60):
        basis = ekba_init(sys60, ADJOINT)
        assert basis.width == 2 * sys60.n_c

    @pytest.mark.parametrize("adjoint, mode", [(False, ADJOINT), (True, FORWARD)])
    def test_prebuilt_pair_of_the_other_direction(self, sys60, adjoint, mode):
        with pytest.raises(ModeMismatch):
            ekba_init(OperatorPair(sys60, adjoint=adjoint), mode)


    @pytest.mark.parametrize(
        "build",
        [ekba_init, lambda sys_, mode: ekba_basis(sys_, 2, mode)],
        ids=["init", "basis"],
    )
    @pytest.mark.parametrize("mode", ["Adjoint", "backward", None])
    def test_unknown_mode_rejected(self, sys60, build, mode):
        with pytest.raises(ModeMismatch, match="unknown"):
            build(sys60, mode)


class TestStep:
    def test_orthonormality_one_step(self, sys60):
        basis = ekba_basis(sys60, 1, FORWARD)
        v = basis.V(2)
        assert la.norm(v.T @ v - np.eye(v.shape[1]), 2) <= 1e-12

    def test_invariants_all_orders(self, sys60, proj60):
        g = sys60.G.toarray()
        basis = ekba_init(sys60, FORWARD)
        for _ in range(6):
            ekba_step(basis)
            v = basis.V()
            assert la.norm(v.T @ v - np.eye(v.shape[1]), 2) <= 1e-10
            assert la.norm(g.T @ v, 2) <= 1e-10 * la.norm(g, 2)
        # Every basis column is a fixed point of the transposed projector.
        assert la.norm(proj60.pi.T @ v - v, 2) <= 1e-9

    def test_arnoldi_relation_vs_oracle(self, sys60, proj60):
        m = 5
        basis = ekba_basis(sys60, m, FORWARD)
        F = oracle.projected_operator(sys60, proj60)
        tbar = basis.Tbar(m)
        lhs = F @ basis.V(m)
        assert la.norm(lhs - basis.V(m + 1) @ tbar, 2) <= 1e-8 * la.norm(tbar, 2)

    def test_square_block_vs_oracle(self, sys60, proj60):
        m = 5
        basis = ekba_basis(sys60, m, FORWARD)
        F = oracle.projected_operator(sys60, proj60)
        ref = basis.V(m).T @ F @ basis.V(m)
        assert la.norm(basis.Tm(m) - ref, 2) <= 1e-8 * la.norm(ref, 2)

    def test_adjoint_relation_vs_oracle(self, sys60, proj60):
        m = 4
        basis = ekba_basis(sys60, m, ADJOINT)
        F = oracle.projected_operator(sys60, proj60, adjoint=True)
        tbar = basis.Tbar(m)
        lhs = F @ basis.V(m)
        assert la.norm(lhs - basis.V(m + 1) @ tbar, 2) <= 1e-8 * la.norm(tbar, 2)

    def test_hessenberg_structural_zeros(self, sys60):
        m = 5
        basis = ekba_basis(sys60, m, FORWARD)
        tbar = basis.Tbar(m)
        w = basis.width
        for j in range(m):
            assert np.all(tbar[(j + 2) * w :, j * w : (j + 1) * w] == 0.0)

    def test_span_matches_theta_algorithm(self, sys60, proj60):
        m = 4
        basis = ekba_basis(sys60, m, FORWARD)
        tsys = oracle.theta_system(sys60, proj60)
        v_theta, _ = oracle.theta_arnoldi(tsys, m)
        mapped = proj60.theta_r @ v_theta[:, : m * basis.width]
        angles = la.subspace_angles(basis.V(m), mapped)
        assert angles.max() <= 1e-8

    def test_exhaustion_breakdown(self, sys60):
        basis = ekba_basis(sys60, 100, FORWARD)
        d = sys60.n_v - sys60.n_p
        assert basis.breakdown_at == d // basis.width
        assert basis.m * basis.width == d
        with pytest.raises(Breakdown):
            ekba_step(basis)

    def test_square_t_available_after_breakdown(self, sys60, proj60):
        basis = ekba_basis(sys60, 100, FORWARD)
        t = basis.Tm()
        F = oracle.projected_operator(sys60, proj60)
        v = basis.V()
        # Exhausted space is invariant: the square projection is exact.
        assert la.norm(F @ v - v @ t, 2) <= 1e-8 * la.norm(t, 2)

    def test_degenerate_unconstrained(self):
        # n_p = 0 reduces to the standard extended Krylov process on
        # (M^-1 A, M^-1 B), here refereed by the dense oracle with an
        # identity projector.
        rng = np.random.default_rng(21)
        n = 16
        m_mat = _spd(rng, n)
        a = rng.standard_normal((n, n))
        a -= (np.max(la.eigvals(a).real) + 1.0) * np.eye(n)
        sys_ = DescriptorSystem(
            M=sp.csc_matrix(m_mat),
            A=sp.csc_matrix(a),
            G=sp.csc_matrix((n, 0)),
            B=rng.standard_normal((n, 1)),
            C=rng.standard_normal((1, n)),
        )
        m = 3
        basis = ekba_basis(sys_, m, FORWARD)
        proj = oracle.build_projector(sys_)
        assert np.array_equal(proj.pi, np.eye(n))
        tsys = oracle.theta_system(sys_, proj)
        v_theta, _ = oracle.theta_arnoldi(tsys, m)
        angles = la.subspace_angles(basis.V(m), v_theta[:, : m * basis.width])
        assert angles.max() <= 1e-8


@pytest.fixture(scope="module")
def grid20():
    return generate_synthetic(
        SyntheticSpec(400, 25, n_b=2, n_c=2, seed=3, grid=GridSpec(20, 20))
    )


def _orthogonal_projector(sys_):
    g = sys_.G.toarray()
    return np.eye(sys_.n_v) - g @ la.solve(g.T @ g, g.T)


class TestReproject:
    @pytest.mark.parametrize("name", ["sys60", "grid20"])
    def test_equals_orthogonal_projector(self, name, request):
        sys_ = request.getfixturevalue(name)
        ops = ekba_init(sys_, FORWARD).ops
        X = np.random.default_rng(31).standard_normal((sys_.n_v, 4))
        ref = _orthogonal_projector(sys_) @ X
        assert la.norm(ops.reproject(X) - ref, 2) <= 1e-12 * la.norm(X, 2)

    @pytest.mark.parametrize("name", ["sys60", "grid20"])
    def test_no_op_on_the_constraint_manifold(self, name, request):
        sys_ = request.getfixturevalue(name)
        ops = ekba_init(sys_, FORWARD).ops
        rng = np.random.default_rng(32)
        X = _orthogonal_projector(sys_) @ rng.standard_normal((sys_.n_v, 4))
        assert la.norm(sys_.G.T @ X, 2) <= 1e-12 * la.norm(X, 2)
        assert la.norm(ops.reproject(X) - X, 2) <= 1e-12 * la.norm(X, 2)

    def test_step_solve_columns_per_block(self, sys60, monkeypatch):
        basis = ekba_init(sys60, FORWARD)
        b = basis.width // 2
        cols = {}
        real = kernels.solve_saddle

        def counting(fact, rhs, *args, **kwargs):
            cols[fact.kind] = cols.get(fact.kind, 0) + (1 if rhs.ndim == 1 else rhs.shape[1])
            return real(fact, rhs, *args, **kwargs)

        monkeypatch.setattr(kernels, "solve_saddle", counting)
        ekba_step(basis)
        assert cols == {"mass": 2 * b, "stiffness": b, "identity": 2 * b}


class TestContiguousBasis:
    def test_views_share_one_array(self, sys60):
        basis = ekba_basis(sys60, 3, FORWARD)
        assert np.shares_memory(basis.V(2), basis.V())
        assert np.shares_memory(basis.block(3), basis.V())
        assert not basis.V().flags.writeable

    def test_hessenberg_views_share_one_array(self, sys60):
        m = 3
        basis = ekba_basis(sys60, m, FORWARD)
        tm, tbar, t_next = basis.Tm(m), basis.Tbar(m), basis.t_next(m)
        assert np.shares_memory(tm, tbar) and np.shares_memory(tbar, t_next)
        assert not any(v.flags.writeable for v in (tm, tbar, t_next))
        assert np.array_equal(tm, tbar[: m * basis.width])

    @pytest.mark.parametrize("order", [0, 4, -1])
    def test_t_next_outside_the_completed_steps(self, sys60, order):
        basis = ekba_basis(sys60, 3, FORWARD)
        with pytest.raises(DimensionMismatch):
            basis.t_next(order)

    @pytest.mark.parametrize(
        "view, index", [("block", -1), ("block", 4), ("V", 0), ("V", 5)]
    )
    def test_view_outside_the_basis_rejected(self, sys60, view, index):
        basis = ekba_basis(sys60, 3, FORWARD)
        assert basis.m == 4
        with pytest.raises(DimensionMismatch, match="basis holds 4 blocks"):
            getattr(basis, view)(index)

    def test_reserve_is_capped_at_a_full_basis(self, sys60):
        basis = ekba_basis(sys60, 10**12, FORWARD)
        assert basis.m * basis.width == sys60.n_v - sys60.n_p

    def test_growth_past_the_reserve_matches_reserved_basis(self, sys60):
        m = 6
        grown = ekba_init(sys60, FORWARD)
        for _ in range(m):
            ekba_step(grown)
        reserved = ekba_basis(sys60, m, FORWARD)
        assert grown.m == reserved.m == m + 1
        assert la.norm(grown.V() - reserved.V(), 2) <= 1e-14
        assert la.norm(grown.Tbar() - reserved.Tbar(), 2) <= 1e-14 * la.norm(
            reserved.Tbar(), 2
        )


class TestProjectedInput:
    def test_first_order_shape(self, sys60):
        basis = ekba_init(sys60, FORWARD)
        bm = projected_input(basis, 1)
        assert bm.shape == (basis.width, sys60.n_b)
        assert np.array_equal(bm[: sys60.n_b], basis.lam11)
        assert np.all(bm[sys60.n_b :] == 0.0)

    @pytest.mark.parametrize("order", [0, 5])
    def test_order_outside_the_basis_rejected(self, sys60, order):
        basis = ekba_basis(sys60, 3, FORWARD)
        with pytest.raises(DimensionMismatch, match=f"order {order} out of range"):
            projected_input(basis, order)

    def test_matches_saddle_solve(self, sys60):
        m = 4
        basis = ekba_basis(sys60, m, FORWARD)
        bm = projected_input(basis, m)
        x = kernels.solve_saddle(basis.ops.fact_mass, sys60.B)
        assert la.norm(bm - basis.V(m).T @ x, 2) <= 1e-12

    def test_matches_theta_oracle(self, sys60, proj60):
        m = 4
        basis = ekba_basis(sys60, m, FORWARD)
        tsys = oracle.theta_system(sys60, proj60)
        v_theta, _ = oracle.theta_arnoldi(tsys, m)
        ref = v_theta[:, : m * basis.width].T @ la.solve(tsys.m, tsys.b)
        # Identical subspaces, possibly different orthonormal representations:
        # compare the lifted quantities V B_m.
        lifted = basis.V(m) @ projected_input(basis, m)
        lifted_ref = (proj60.theta_r @ v_theta[:, : m * basis.width]) @ ref
        assert la.norm(lifted - lifted_ref, 2) <= 1e-8


class _Synchronous:
    """Executor stand-in that runs each task on the caller when it is submitted."""

    def submit(self, fn):
        future = Future()
        try:
            future.set_result(fn())
        except BaseException as exc:
            future.set_exception(exc)
        return future


def _grid_system():
    """A fresh 20 x 20 grid system, so every factorization is made anew."""
    return generate_synthetic(
        SyntheticSpec(
            400, 25, n_b=2, n_c=2, seed=3, grid=GridSpec(20, 20),
            unstable=Unstable(2, 0.5),
        )
    )


def _riccati(sys_):
    sol = ebara_solve(sys_, tol=1e-8, m_max=30)
    return [sol.z, np.array([r for _, r in sol.residual_history])]


def _basis(mode):
    def run(sys_):
        basis = ekba_basis(sys_, 6, mode)
        return [basis.V(), basis.Tbar(), basis.lam]

    return run


def _closed_loop(sys_):
    sol = ebara_solve(sys_, tol=1e-8, m_max=30)
    basis, model = reduce_closed_loop(
        ClosedLoopSystem(sys_, feedback_gain(sol.z, sys_)), 6
    )
    return [basis.V(), basis.Tbar(), model.a]


class TestOverlappedSolves:
    @pytest.mark.parametrize(
        "run",
        [_riccati, _basis(FORWARD), _basis(ADJOINT), _closed_loop],
        ids=["ebara_solve", "forward", "adjoint", "reduce_closed_loop"],
    )
    def test_results_do_not_depend_on_the_overlap(self, monkeypatch, run):
        overlapped = run(_grid_system())
        monkeypatch.setattr(arnoldi, "_worker", _Synchronous)
        serial = run(_grid_system())
        assert all(np.array_equal(a, b) for a, b in zip(overlapped, serial))

    def test_mass_block_solves_run_on_the_worker(self, monkeypatch):
        threads = {}
        real = kernels.solve_saddle

        def recording(fact, rhs, *args, **kwargs):
            threads.setdefault(fact.kind, set()).add(threading.get_ident())
            return real(fact, rhs, *args, **kwargs)

        monkeypatch.setattr(kernels, "solve_saddle", recording)
        basis = ekba_init(_grid_system(), FORWARD)
        ekba_step(basis)
        caller = {threading.get_ident()}
        assert threads["stiffness"] == threads["identity"] == caller
        assert len(threads["mass"]) == 1 and threads["mass"] != caller

    def test_both_blocks_singular_raises_the_mass_error(self, sys60, monkeypatch):
        # Two equal columns make G rank-deficient, so both saddle blocks
        # are singular.  The mass factorization is held back, so the
        # stiffness one fails first.
        g = sys60.G.toarray()
        rank_deficient = DescriptorSystem(
            M=sys60.M, A=sys60.A, G=sp.csc_matrix(np.hstack([g, g[:, :1]])),
            B=sys60.B, C=sys60.C,
        )
        tried, running = [], []
        real = kernels.factor_saddle

        def held_back(W, G, kind="custom"):
            tried.append(kind)
            running.append(kind)
            try:
                if kind == "mass":
                    time.sleep(0.2)
                return real(W, G, kind=kind)
            finally:
                running.remove(kind)

        monkeypatch.setattr(kernels, "factor_saddle", held_back)
        with pytest.raises(SingularSaddle, match=r"\(mass\)"):
            ekba_init(rank_deficient, FORWARD)
        assert sorted(tried) == ["mass", "stiffness"]
        assert running == []


class _Recording:
    """Executor stand-in that hands each task to the real worker and keeps its future."""

    def __init__(self, worker):
        self.worker = worker
        self.futures = []

    def submit(self, fn):
        future = self.worker.submit(fn)
        self.futures.append(future)
        return future


class TestNoTaskOutlivesTheStep:
    @pytest.fixture
    def hold_back(self, monkeypatch):
        """Call to hold back the mass-block solves; returns the worker's futures."""

        def install():
            recording = _Recording(arnoldi._worker())
            monkeypatch.setattr(arnoldi, "_worker", lambda: recording)
            real = kernels.solve_saddle

            def slow(fact, rhs, *args, **kwargs):
                if fact.kind == "mass":
                    time.sleep(0.2)
                return real(fact, rhs, *args, **kwargs)

            monkeypatch.setattr(kernels, "solve_saddle", slow)
            return recording.futures

        return install

    def test_failed_reprojection(self, sys60, hold_back, monkeypatch):
        basis = ekba_init(sys60, FORWARD)

        def failing(self, X):
            raise RuntimeError("reprojection failed")

        monkeypatch.setattr(OperatorPair, "reproject", failing)
        futures = hold_back()
        with pytest.raises(RuntimeError, match="reprojection failed"):
            ekba_step(basis)
        assert len(futures) >= 2
        assert all(f.done() for f in futures)

    def test_failed_hessenberg_solve(self, sys60, hold_back, monkeypatch):
        # The step's second mass-block solve, the Hessenberg-only one, runs
        # on the worker in the second overlap and fails after the caller's
        # Gram-Schmidt passes are done.
        basis = ekba_init(sys60, FORWARD)
        m, steps = basis.m, basis.steps
        calls = []
        real = OperatorPair.solve_mass

        def failing(self, rhs):
            calls.append(threading.get_ident())
            if len(calls) == 2:
                time.sleep(0.2)
                raise RuntimeError("Hessenberg solve failed")
            return real(self, rhs)

        monkeypatch.setattr(OperatorPair, "solve_mass", failing)
        futures = hold_back()
        with pytest.raises(RuntimeError, match="Hessenberg solve failed"):
            ekba_step(basis)
        assert len(calls) == 2 and threading.get_ident() not in calls
        assert len(futures) >= 2
        assert all(f.done() for f in futures)
        assert (basis.m, basis.steps) == (m, steps)

    def test_breakdown_records_the_column(self, sys60, hold_back):
        # sys60's space null(G^T) holds 13 blocks, so the 13th step's
        # candidate is rank-deficient.
        basis = ekba_basis(sys60, 12, FORWARD)
        assert basis.m == 13 and basis.breakdown_at is None
        ops = basis.ops
        images = ops.solve_mass(ops.apply(basis.block(12)))
        futures = hold_back()
        with pytest.raises(Breakdown):
            ekba_step(basis)
        assert len(futures) >= 2
        assert all(f.done() for f in futures)
        assert basis.breakdown_at == 13 and basis.steps == 13
        column = basis.Tm()[:, -basis.width :]
        ref = basis.V().T @ images
        assert la.norm(column - ref, 2) <= 1e-12 * la.norm(ref, 2)
