import numpy as np
import pytest
import scipy.linalg as la

from ekstab import oracle
from ekstab.errors import Breakdown, SizeCapExceeded
from ekstab.reduction import eval_full_tf
from ekstab.sysmodel import SyntheticSpec, generate_synthetic


class TestProjector:
    def test_hand_case(self):
        import scipy.sparse as sp
        from ekstab.sysmodel import DescriptorSystem

        sys_ = DescriptorSystem(
            M=sp.eye(2, format="csc"),
            A=(-sp.eye(2)).tocsc(),
            G=sp.csc_matrix(np.array([[1.0], [0.0]])),
            B=np.ones((2, 1)),
            C=np.ones((1, 2)),
        )
        proj = oracle.build_projector(sys_)
        assert np.allclose(proj.pi, np.diag([0.0, 1.0]), atol=1e-14)

    def test_identities_random(self):
        for n_v, n_p, seed in ((30, 4, 0), (80, 10, 1), (150, 15, 2)):
            s = generate_synthetic(SyntheticSpec(n_v, n_p, seed=seed))
            proj = oracle.build_projector(s)
            pi = proj.pi
            m = s.M.toarray()
            eye = np.eye(n_v - n_p)
            assert la.norm(pi @ pi - pi, 2) <= 1e-10
            assert la.norm(pi @ s.G.toarray(), 2) <= 1e-10
            assert la.norm(pi @ m - m @ pi.T, 2) <= 1e-10
            assert la.norm(proj.theta_l @ proj.theta_r.T - pi, 2) <= 1e-9
            assert la.norm(proj.theta_l.T @ proj.theta_r - eye, 2) <= 1e-9

    def test_constraint_equivalence_both_directions(self, sys60, proj60):
        rng = np.random.default_rng(5)
        g = sys60.G.toarray()
        for _ in range(5):
            r = rng.standard_normal(sys60.n_v)
            v = proj60.pi.T @ r  # satisfies G^T v = 0
            assert la.norm(g.T @ v) <= 1e-10 * la.norm(v) * la.norm(g, 2)
            assert la.norm(proj60.pi.T @ v - v) <= 1e-10 * la.norm(v)

    def test_mass_weighted_chain(self, sys60, proj60):
        m = sys60.M.toarray()
        tsys = oracle.theta_system(sys60, proj60)
        lhs = la.solve(m, proj60.theta_l)
        rhs = proj60.theta_r @ la.inv(tsys.m)
        assert la.norm(lhs - rhs, 2) <= 1e-9
        assert la.norm(
            proj60.theta_r @ la.inv(tsys.m) @ proj60.theta_r.T
            - la.solve(m, proj60.pi),
            2,
        ) <= 1e-9

    def test_size_cap(self, sys60):
        with pytest.raises(SizeCapExceeded):
            oracle.build_projector(sys60, cap=10)

    def test_env_cap_override(self, sys60, monkeypatch):
        monkeypatch.setenv(oracle.SIZE_CAP_ENV, "10")
        with pytest.raises(SizeCapExceeded):
            oracle.build_projector(sys60)


class TestThetaArnoldi:
    def test_projected_relation(self, sys60, proj60):
        tsys = oracle.theta_system(sys60, proj60)
        m = 5
        v, tbar = oracle.theta_arnoldi(tsys, m)
        f = la.solve(tsys.m, tsys.a)
        width = 2 * sys60.n_b
        assert la.norm(f @ v[:, : m * width] - v @ tbar, 2) <= 1e-10

    def test_exhaustion_breaks_down(self, sys60, proj60):
        tsys = oracle.theta_system(sys60, proj60)
        with pytest.raises(Breakdown):
            oracle.theta_arnoldi(tsys, 100)

    def test_transfer_identity(self, sys60, proj60):
        tsys = oracle.theta_system(sys60, proj60)
        rng = np.random.default_rng(9)
        for _ in range(10):
            s = complex(rng.uniform(0.3, 3.0), rng.uniform(-20.0, 20.0))
            ref = oracle.theta_transfer(tsys, s)
            f = eval_full_tf(sys60, s)
            assert la.norm(f - ref, 2) <= 1e-8 * max(1.0, la.norm(ref, 2))


class TestProjectorBuiltOnDemand:
    def test_theta_system(self, sys60, proj60):
        built = oracle.theta_system(sys60)
        given = oracle.theta_system(sys60, proj60)
        for name in ("m", "a", "b", "c"):
            assert np.array_equal(getattr(built, name), getattr(given, name)), name

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_projected_operator(self, sys60, proj60, adjoint):
        built = oracle.projected_operator(sys60, adjoint=adjoint)
        given = oracle.projected_operator(sys60, proj60, adjoint=adjoint)
        assert np.array_equal(built, given)

    def test_dense_gare_residual(self, sys60, proj60):
        z = np.random.default_rng(12).standard_normal((sys60.n_v, 2))
        built = oracle.dense_gare_residual(sys60, Z=z)
        assert built == oracle.dense_gare_residual(sys60, Z=z, proj=proj60)


class TestGareResidual:
    def test_zero_solution_gives_constant_term(self, sys60, proj60):
        m = sys60.M.toarray()
        q = la.solve(m, proj60.pi @ sys60.C.T)
        expected = la.norm(q @ q.T, 2)
        value = oracle.dense_gare_residual(sys60, proj=proj60)
        assert abs(value - expected) <= 1e-12 * expected

    def test_accepts_factor_form(self, sys60, proj60):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((sys60.n_v, 3))
        from_x = oracle.dense_gare_residual(sys60, X=z @ z.T, proj=proj60)
        from_z = oracle.dense_gare_residual(sys60, Z=z, proj=proj60)
        assert abs(from_x - from_z) <= 1e-12 * max(1.0, from_x)

    def test_converged_solution_below_tolerance(self, sys60u, proj60u):
        from ekstab.riccati import ebara_solve

        sol = ebara_solve(sys60u, tol=1e-8)
        lam11 = sol.basis.lam11
        denom = la.norm(lam11 @ lam11.T, 2)
        value = oracle.dense_gare_residual(sys60u, Z=sol.z, proj=proj60u)
        assert value / denom < 1e-8 * (1.0 + 1e-6)


class TestPencilSpectrum:
    def test_count_always_matches(self):
        for n_v, n_p, seed in ((20, 3, 0), (60, 8, 7), (100, 11, 3)):
            s = generate_synthetic(SyntheticSpec(n_v, n_p, seed=seed))
            spectrum = oracle.pencil_finite_spectrum(s)
            assert spectrum.size == n_v - n_p

    def test_stable_synthetic(self, sys60):
        assert np.all(oracle.pencil_finite_spectrum(sys60).real < 0.0)

    def test_cap_guard(self, sys200):
        with pytest.raises(SizeCapExceeded):
            oracle.pencil_finite_spectrum(sys200, cap=100)
