import numpy as np
import pytest
import scipy.linalg as la

from ekstab import oracle, riccati
from ekstab.errors import DimensionMismatch, NoStabilizingSolution, ValidationError
from ekstab.riccati import (
    FeedbackGain,
    care_dense,
    care_newton_kleinman,
    ebara_solve,
    feedback_gain,
    truncate_lowrank,
    write_residual_csv,
)
from ekstab.sysmodel import DescriptorSystem


class TestCareDense:
    def test_scalar_stable(self):
        y = care_dense([[-1.0]], [[1.0]], [[1.0]])
        assert abs(y[0, 0] - (np.sqrt(2.0) - 1.0)) <= 1e-12

    def test_scalar_marginal(self):
        y = care_dense([[0.0]], [[1.0]], [[1.0]])
        assert abs(y[0, 0] - 1.0) <= 1e-12

    def test_cross_check_newton_kleinman(self):
        rng = np.random.default_rng(42)
        t = rng.standard_normal((4, 4))
        t -= (np.max(la.eigvals(t).real) + 1.0) * np.eye(4)
        bt = rng.standard_normal((4, 2))
        ct = rng.standard_normal((4, 2))
        y_schur = care_dense(t, bt, ct)
        y_newton = care_newton_kleinman(t, bt, ct)
        assert la.norm(y_schur - y_newton, "fro") <= 1e-9 * la.norm(y_schur, "fro")

    def test_solution_properties(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((6, 6))  # generally unstable
        bt = rng.standard_normal((6, 2))
        ct = rng.standard_normal((6, 3))
        y = care_dense(t, bt, ct)
        assert la.norm(y - y.T, "fro") <= 1e-12 * max(1.0, la.norm(y, "fro"))
        assert la.eigvalsh(y).min() >= -1e-10 * la.norm(y, 2)
        closed = t - y @ bt @ bt.T
        assert np.max(la.eigvals(closed).real) < 0.0

    def test_residual_contract(self):
        rng = np.random.default_rng(10)
        t = rng.standard_normal((5, 5))
        bt = rng.standard_normal((5, 1))
        ct = rng.standard_normal((5, 2))
        y = care_dense(t, bt, ct)
        d = bt @ bt.T
        res = la.norm(t @ y + y @ t.T - y @ d @ y + ct @ ct.T, "fro")
        assert res <= 1e-10 * max(1.0, la.norm(y, "fro") ** 2 * la.norm(d, "fro"))

    def test_unstabilizable_pair_raises(self):
        # Unstable mode outside range(B): no stabilizing solution exists.
        t = np.diag([1.0, -2.0])
        bt = np.array([[0.0], [1.0]])
        ct = np.array([[1.0], [1.0]])
        with pytest.raises(NoStabilizingSolution):
            care_dense(t, bt, ct)

    def test_newton_needs_stabilizing_start(self):
        with pytest.raises(NoStabilizingSolution):
            care_newton_kleinman([[1.0]], [[0.0]], [[1.0]])

    def test_newton_out_of_iterations_raises(self):
        # From Y = 0 one step solves only the Lyapunov equation; its Y
        # leaves the Riccati residual -Y B B^T Y, nonzero here.
        with pytest.raises(NoStabilizingSolution, match="in 1 iterations"):
            care_newton_kleinman([[-1.0]], [[1.0]], [[1.0]], max_iter=1)


class TestEbaraSolve:
    def test_converges_on_unstable_system(self, sys60u):
        sol = ebara_solve(sys60u, tol=1e-8)
        assert sol.converged
        assert sol.status == "converged"
        assert sol.residual_history[-1][1] < 1e-8
        assert sol.z.shape[0] == sys60u.n_v
        assert sol.rank <= 2 * sol.iterations * sys60u.n_c
        assert la.norm(sol.y - sol.y.T, 2) <= 1e-12 * max(1.0, la.norm(sol.y, 2))
        assert la.eigvalsh(0.5 * (sol.y + sol.y.T)).min() >= -1e-10 * la.norm(
            sol.y, 2
        )

    def test_zero_output_map(self, sys60):
        quiet = DescriptorSystem(
            M=sys60.M, A=sys60.A, G=sys60.G, B=sys60.B, C=np.zeros_like(sys60.C)
        )
        sol = ebara_solve(quiet)
        assert sol.converged
        assert sol.iterations == 1
        assert sol.rank == 0
        assert sol.z.shape == (sys60.n_v, 0)

    def test_history_matches_recomputation_exactly(self, sys60u):
        sol = ebara_solve(sys60u, tol=1e-8, keep_iterates=True)
        lam11 = sol.basis.lam11
        denom = la.norm(lam11 @ lam11.T, 2)
        width = sol.basis.width
        recomputed = {
            m: la.norm(sol.basis.t_next(m) @ y[-width:, :], 2) / denom
            for m, y in sol.iterates
        }
        for m, stored in sol.residual_history:
            assert recomputed[m] == stored

    def test_galerkin_consistency(self, sys60u):
        sol = ebara_solve(sys60u, tol=1e-8)
        m = sol.iterations
        t = sol.basis.Tm(m)
        bt = sol.basis.V(m).T @ sys60u.B
        from ekstab.arnoldi import projected_input

        ct = projected_input(sol.basis, m)
        res = t @ sol.y + sol.y @ t.T - sol.y @ bt @ bt.T @ sol.y + ct @ ct.T
        # Re-substitution bound scaled like the dense-solver contract: the
        # evaluation itself carries rounding proportional to ||Y||^2 ||D||.
        d_norm = la.norm(bt @ bt.T, "fro")
        assert la.norm(res, "fro") <= 1e-10 * max(
            1.0, la.norm(sol.y, "fro") ** 2 * d_norm
        )

    def test_projected_input_grows_by_one_block_per_order(self, sys60u, monkeypatch):
        # V^T B reaches the dense solver with one block's rows appended per
        # order, not recomputed over the whole basis.
        seen = []
        real = riccati.care_dense

        def recording(t, bt, ct):
            seen.append(np.array(bt))
            return real(t, bt, ct)

        monkeypatch.setattr(riccati, "care_dense", recording)
        sol = ebara_solve(sys60u, tol=1e-8)
        assert len(seen) == sol.iterations
        for m, bt in enumerate(seen, start=1):
            ref = sol.basis.V(m).T @ sys60u.B
            assert la.norm(bt - ref) <= 1e-14 * la.norm(ref)
        orders = [m for m, _ in sol.residual_history]
        assert orders == list(range(1, sol.iterations + 1))

    def test_order_without_stabilizing_solution_only_enlarges_the_space(
        self, sys60u, monkeypatch
    ):
        orders = []
        real = riccati.care_dense

        def failing_at_order_one(t, bt, ct):
            orders.append(t.shape[0])
            if len(orders) == 1:
                raise NoStabilizingSolution("planted at order 1")
            return real(t, bt, ct)

        monkeypatch.setattr(riccati, "care_dense", failing_at_order_one)
        sol = ebara_solve(sys60u, tol=1e-8)
        assert sol.converged
        assert sol.residual_history[0][0] == 2
        assert len(orders) == sol.iterations

    def test_no_stabilizing_solution_at_the_last_order_raises(
        self, sys60u, monkeypatch
    ):
        def failing(t, bt, ct):
            raise NoStabilizingSolution("planted at every order")

        monkeypatch.setattr(riccati, "care_dense", failing)
        with pytest.raises(NoStabilizingSolution):
            ebara_solve(sys60u, tol=1e-8, m_max=3)

    def test_order_cap_beyond_a_full_basis(self, sys60u):
        sol = ebara_solve(sys60u, tol=1e-8, m_max=10**15)
        assert sol.converged
        assert sol.residual_history == ebara_solve(sys60u, tol=1e-8).residual_history

    def test_residual_formula_vs_oracle(self, sys60u, proj60u):
        # Cheap continuation-block formula against the assembled dense
        # residual, relative to the stopping-rule scale.
        sol = ebara_solve(sys60u, tol=1e-8, keep_iterates=True)
        lam11 = sol.basis.lam11
        scale = la.norm(lam11 @ lam11.T, 2)
        width = sol.basis.width
        for m, y in sol.iterates:
            cheap = la.norm(sol.basis.t_next(m) @ y[-width:, :], 2)
            x = sol.basis.V(m) @ y @ sol.basis.V(m).T
            dense = oracle.dense_gare_residual(sys60u, X=x, proj=proj60u)
            assert abs(cheap - dense) <= 1e-8 * max(scale, cheap)

    def test_projection_fixed_point_on_factor(self, sys60u, proj60u):
        sol = ebara_solve(sys60u, tol=1e-8)
        z = sol.z
        assert la.norm(proj60u.pi.T @ z - z, 2) <= 1e-9 * la.norm(z, 2)
        g = sys60u.G.toarray()
        assert la.norm(g.T @ z, 2) <= 1e-9 * la.norm(z, 2) * la.norm(g, 2)

    def test_max_iterations_flagged(self, sys60u):
        sol = ebara_solve(sys60u, tol=1e-14, m_max=3)
        assert not sol.converged
        assert sol.status == "max_iterations"
        assert sol.iterations == 3
        assert sol.z.size > 0

    @pytest.mark.parametrize("m_max", [0, -1])
    def test_nonpositive_m_max_is_a_package_error(self, sys60u, m_max):
        with pytest.raises(DimensionMismatch, match="m_max must be >= 1"):
            ebara_solve(sys60u, m_max=m_max)

    def test_residual_csv(self, sys60u, tmp_path):
        sol = ebara_solve(sys60u, tol=1e-8)
        path = tmp_path / "residuals.csv"
        write_residual_csv(path, sol)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,residual"
        assert len(lines) == len(sol.residual_history) + 1


class TestTruncateLowrank:
    def test_zero_solution(self, sys60u):
        sol = ebara_solve(sys60u, tol=1e-8)
        z = truncate_lowrank(np.zeros((4, 4)), sol.basis, 1e-12, order=1)
        assert z.shape == (sys60u.n_v, 0)

    def test_identity_reduced_solution(self, sys60u):
        sol = ebara_solve(sys60u, tol=1e-8)
        width = sol.basis.width
        z = truncate_lowrank(np.eye(width), sol.basis, 1e-12, order=1)
        v = sol.basis.V(1)
        assert np.allclose(z @ z.T, v @ v.T, atol=1e-14)

    def test_rank_cut(self, sys60u):
        sol = ebara_solve(sys60u, tol=1e-8)
        rng = np.random.default_rng(3)
        width = sol.basis.width
        q, _ = la.qr(rng.standard_normal((width, width)))
        y = q @ np.diag([1.0, 1e-4, 1e-15, 0.0][:width]) @ q.T
        z = truncate_lowrank(y, sol.basis, 1e-12, order=1)
        assert z.shape[1] == 2
        v = sol.basis.V(1)
        assert la.norm(v @ y @ v.T - z @ z.T, 2) <= 1e-14


class TestFeedbackGain:
    def test_empty_factor_gives_zero_gain(self, sys60):
        gain = feedback_gain(np.zeros((sys60.n_v, 0)), sys60)
        k = gain.matrix()
        assert k.shape == (sys60.n_b, sys60.n_v)
        assert np.all(k == 0.0)

    def test_factors_reproduce_gain(self, sys60u):
        sol = ebara_solve(sys60u, tol=1e-8)
        gain = feedback_gain(sol.z, sys60u)
        ref = sys60u.B.T @ sol.z @ sol.z.T @ sys60u.M.toarray()
        assert la.norm(gain.matrix() - ref, 2) <= 1e-13 * max(1.0, la.norm(ref, 2))
        assert gain.matrix().shape == (sys60u.n_b, sys60u.n_v)

    def test_holds_only_the_gain_matrix(self, sys60u):
        z = ebara_solve(sys60u, tol=1e-8).z
        gain = feedback_gain(z, sys60u)
        held = [
            v
            for v in vars(gain).values()
            if isinstance(v, np.ndarray) and sys60u.n_v in v.shape
        ]
        assert len(held) == 1 and held[0] is gain.matrix()
        assert gain.matrix() is gain.matrix()
        assert np.array_equal(gain.matrix(), (sys60u.B.T @ z) @ (sys60u.M @ z).T)
        assert (gain.n_b, gain.n_v, gain.rank) == (sys60u.n_b, sys60u.n_v, z.shape[1])

    def test_non_finite_factor_refused_before_k_is_formed(self):
        k = np.ones((2, 5))
        k[1, 2] = np.inf
        with pytest.raises(ValidationError, match="finite: K "):
            FeedbackGain(left=np.eye(2), right=k)

    def test_closed_loop_pencil_stable(self, sys60u):
        sol = ebara_solve(sys60u, tol=1e-8)
        gain = feedback_gain(sol.z, sys60u)
        spectrum = oracle.pencil_finite_spectrum(sys60u, gain)
        assert np.all(spectrum.real < 0.0)
