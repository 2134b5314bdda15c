import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from ekstab.errors import (
    DimensionMismatch,
    RankDeficient,
    SingularSaddle,
)
from ekstab.kernels import (
    REORTH_RATIO,
    block_gram_schmidt,
    dense_generalized_eigen,
    dense_svd,
    factor_saddle,
    solve_saddle,
    thin_qr,
)
from ekstab.sysmodel import GridSpec, SyntheticSpec, generate_synthetic


def _assemble(W, G):
    n_p = G.shape[1]
    if n_p == 0:
        return np.asarray(W, dtype=float)
    return np.block(
        [
            [np.asarray(W, dtype=float), np.asarray(G, dtype=float)],
            [np.asarray(G, dtype=float).T, np.zeros((n_p, n_p))],
        ]
    )


def _spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestFactorSaddle:
    def test_hand_3x3(self):
        f = factor_saddle(np.eye(2), np.array([[1.0], [0.0]]))
        x = solve_saddle(f, np.array([0.0, 1.0]))
        assert np.allclose(x, [0.0, 1.0], atol=1e-14)

    def test_rank_deficient_g(self):
        with pytest.raises(SingularSaddle):
            factor_saddle(np.eye(2), np.array([[0.0], [0.0]]))

    def test_nearly_equal_g_columns(self):
        rng = np.random.default_rng(9)
        W = _spd(rng, 12)
        g = rng.standard_normal(12)
        G = np.column_stack([g, g * (1.0 + 1e-15)])
        with pytest.raises(SingularSaddle):
            factor_saddle(W, G)

    def test_factor_builds_no_copy_of_l_and_u(self):
        # scipy builds L and U as sparse copies on first access and keeps
        # them with the factors; numpy's allocations are traced, SuperLU's
        # own are not.
        s = generate_synthetic(SyntheticSpec(900, 100, seed=1, grid=GridSpec(30, 30)))
        W = (1j * s.M - s.A).tocsc()
        tracemalloc.start()
        try:
            f = factor_saddle(W, s.G, kind="shifted")
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        lu = f._lu
        lu_bytes = (lu.L.nnz + lu.U.nnz) * (lu.U.dtype.itemsize + 4)
        assert f.is_complex and f.dtype == np.complex128
        assert grown < 0.25 * lu_bytes

    def test_random_spd_vs_dense_lu(self):
        rng = np.random.default_rng(0)
        W = _spd(rng, 20)
        G = rng.standard_normal((20, 4))
        f = factor_saddle(W, G)
        rhs = rng.standard_normal((20, 3))
        x = solve_saddle(f, rhs)
        full = la.solve(_assemble(W, G), np.vstack([rhs, np.zeros((4, 3))]))
        assert la.norm(x - full[:20]) <= 1e-10 * la.norm(full[:20])

    def test_reconstruction(self):
        # Pr K Pc = L U reproduces the factored (scaled) block matrix to
        # 1e-12 relative; Pr K = K[argsort(perm_r)], K Pc = K[:, argsort(perm_c)].
        rng = np.random.default_rng(1)
        W = _spd(rng, 15)
        G = rng.standard_normal((15, 3))
        f = factor_saddle(W, G)
        lu = f._lu
        D = np.diag(np.r_[np.ones(15), np.full(3, f.scale)])
        K = D @ _assemble(W, G) @ D
        recon = (lu.L @ lu.U).toarray()
        pr, pc = np.argsort(lu.perm_r), np.argsort(lu.perm_c)
        assert la.norm(recon - K[pr][:, pc], "fro") <= 1e-12 * la.norm(K, "fro")

    def test_resolve_residual(self):
        rng = np.random.default_rng(2)
        W = _spd(rng, 25)
        G = rng.standard_normal((25, 5))
        f = factor_saddle(W, G)
        b = rng.standard_normal(25)
        x = solve_saddle(f, b)
        y = la.lstsq(G, b - W @ x)[0]  # recover the discarded multiplier
        resid = np.concatenate([W @ x + G @ y - b, G.T @ x])
        assert la.norm(resid) <= 1e-10 * la.norm(b)

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            factor_saddle(np.ones((2, 3)), np.ones((2, 1)))
        f = factor_saddle(np.eye(2), np.array([[1.0], [0.0]]))
        with pytest.raises(DimensionMismatch):
            solve_saddle(f, np.ones(3))

    def test_constraint_block_of_the_wrong_height_rejected(self):
        with pytest.raises(DimensionMismatch, match="2 rows, expected 3"):
            factor_saddle(np.eye(3), np.ones((2, 1)))


class TestSolveSaddle:
    def test_rhs_in_range_of_g(self):
        # rhs in range(G) is annihilated: G^T x = 0 forces x = 0.
        f = factor_saddle(np.eye(2), np.array([[1.0], [0.0]]))
        x = solve_saddle(f, np.array([1.0, 0.0]))
        assert np.allclose(x, 0.0, atol=1e-14)

    def test_random_vs_dense_block(self):
        rng = np.random.default_rng(3)
        W = _spd(rng, 30)
        G = rng.standard_normal((30, 6))
        f = factor_saddle(W, G)
        rhs = rng.standard_normal((30, 2))
        x = solve_saddle(f, rhs)
        full = la.solve(_assemble(W, G), np.vstack([rhs, np.zeros((6, 2))]))
        assert la.norm(x - full[:30]) <= 1e-10 * la.norm(full[:30])

    def test_divergence_free(self):
        rng = np.random.default_rng(4)
        for seed in range(3):
            s = generate_synthetic(SyntheticSpec(50, 6, n_b=2, n_c=1, seed=seed))
            f = factor_saddle(s.M, s.G, kind="mass")
            x = solve_saddle(f, rng.standard_normal((50, 3)))
            assert la.norm(s.G.T @ x) <= 1e-10 * la.norm(x) * sp.linalg.norm(s.G)

    def test_mass_solve_matches_projector_oracle(self):
        from ekstab import oracle

        rng = np.random.default_rng(5)
        for n_v, n_p, seed in ((40, 5, 0), (120, 12, 1), (200, 20, 2)):
            s = generate_synthetic(SyntheticSpec(n_v, n_p, seed=seed))
            proj = oracle.build_projector(s)
            f = factor_saddle(s.M, s.G, kind="mass")
            rhs = rng.standard_normal((n_v, 2))
            x = solve_saddle(f, rhs)
            ref = la.solve(s.M.toarray(), proj.pi @ rhs)
            assert la.norm(x - ref) <= 1e-9 * la.norm(ref)

    def test_factor_once_solve_many_bitwise(self):
        rng = np.random.default_rng(6)
        s = generate_synthetic(SyntheticSpec(40, 5, seed=3))
        f = factor_saddle(s.M, s.G)
        rhs = rng.standard_normal((40, 2))
        assert np.array_equal(solve_saddle(f, rhs), solve_saddle(f, rhs))

    def test_complex_rhs_on_real_factor(self):
        rng = np.random.default_rng(7)
        W = _spd(rng, 10)
        G = rng.standard_normal((10, 2))
        f = factor_saddle(W, G)
        rhs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        x = solve_saddle(f, rhs)
        full = la.solve(
            _assemble(W, G).astype(complex), np.concatenate([rhs, np.zeros(2)])
        )
        assert la.norm(x - full[:10]) <= 1e-10 * la.norm(full[:10])

    def test_adjoint_solve_on_forward_factor(self):
        # [[A, G], [G^T, 0]]^T = [[A^T, G], [G^T, 0]]: one factor serves both.
        rng = np.random.default_rng(8)
        s = generate_synthetic(SyntheticSpec(60, 8, n_b=2, n_c=2, seed=7))
        forward = factor_saddle(s.A, s.G, kind="stiffness")
        transposed = factor_saddle(s.A.T.tocsc(), s.G, kind="stiffness")
        rhs = rng.standard_normal((60, 3))
        x = solve_saddle(forward, rhs, adjoint=True)
        ref = solve_saddle(transposed, rhs)
        assert la.norm(x - ref) <= 1e-12 * la.norm(ref)


def _nnz_lu(fact):
    lu = fact._lu
    return lu.L.nnz + lu.U.nnz - lu.shape[0]


class TestScaledSaddle:
    @pytest.mark.parametrize("c", [1e-4, 1e4])
    def test_solve_does_not_depend_on_the_scale_of_g(self, c):
        rng = np.random.default_rng(17)
        s = generate_synthetic(SyntheticSpec(60, 8, n_b=2, n_c=2, seed=7))
        rhs = rng.standard_normal((60, 3))
        for W in (s.A, (1j * s.M - s.A).tocsc()):
            base = factor_saddle(W, s.G)
            scaled = factor_saddle(W, c * s.G)
            assert scaled.scale == pytest.approx(base.scale / c)
            for adjoint in (False, True):
                ref = solve_saddle(base, rhs, adjoint=adjoint)
                x = solve_saddle(scaled, rhs, adjoint=adjoint)
                assert la.norm(x - ref) <= 1e-12 * la.norm(ref)

    def test_fill_does_not_depend_on_kind_or_shift(self):
        # Unscaled, pivoting off the small pressure pivots of the large-shift
        # blocks adds 22% to their fill here (and 20x on a 120^2 grid).
        s = generate_synthetic(
            SyntheticSpec(900, 100, n_b=2, n_c=2, seed=1, grid=GridSpec(30, 30))
        )
        blocks = [("stiffness", None), ("euler", 0.05), ("euler", 100.0)]
        blocks += [("shifted", w) for w in (1e-5j, 1j, 1e3j, 1e5j)]
        nnz = [_nnz_lu(s.saddle(kind, shift)) for kind, shift in blocks]
        assert max(nnz) <= 1.1 * min(nnz)


def _mac_stokes(N):
    """Stokes on N x N MAC cells of the unit square: velocities on the
    interior faces, a 5-point Dirichlet Laplacian per component, and
    G = -D^T without the last pressure."""
    h = 1.0 / N
    lap = lambda n: sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / h**2
    diff = sp.diags([1.0, -1.0], [0, -1], shape=(N, N - 1)) / h  # cell from its faces
    I, J = sp.eye(N), sp.eye(N - 1)
    A = sp.block_diag(
        [sp.kron(lap(N - 1), I) + sp.kron(J, lap(N)),
         sp.kron(lap(N), J) + sp.kron(I, lap(N - 1))]
    ).tocsc()
    D = sp.hstack([sp.kron(diff, I), sp.kron(I, diff)])
    return A, (-D.T).tocsc()[:, :-1]


class TestTiedSaddle:
    def test_mac_stiffness_saddle_fills_at_most_25_times(self):
        # SuperLU's count of its stored factors; minimum degree on the
        # untied pattern eliminates the zero-diagonal pressures early and
        # fills 44x here, the tied pattern 22x.
        A, G = _mac_stokes(16)
        assert A.shape == (480, 480) and G.shape == (480, 255)
        f = factor_saddle(A, G, kind="stiffness")
        assert f._lu.nnz <= 25 * (A.nnz + 2 * G.nnz)

    @pytest.mark.parametrize("shift", [None, 3.0 + 2.0j])
    def test_tie_changes_no_value(self, shift):
        rng = np.random.default_rng(5)
        s = generate_synthetic(SyntheticSpec(144, 9, seed=2, grid=GridSpec(12, 12)))
        W = s.A if shift is None else (shift * s.M - s.A).tocsc()
        n_v, n_p = s.G.shape
        f = factor_saddle(W, s.G)
        lu = f._lu
        G = f.scale * s.G
        K = sp.bmat([[W, G], [G.T, None]]).toarray()
        recon = (lu.L @ lu.U).toarray()
        pr, pc = np.argsort(lu.perm_r), np.argsort(lu.perm_c)
        assert la.norm(recon - K[pr][:, pc], "fro") <= 1e-12 * la.norm(K, "fro")
        rhs = rng.standard_normal((n_v, 3))
        full = np.vstack([rhs, np.zeros((n_p, 3))])
        for adjoint in (False, True):
            ref = la.solve(K.T if adjoint else K, full)[:n_v]
            x = solve_saddle(f, rhs, adjoint=adjoint)
            assert la.norm(x - ref) <= 1e-12 * la.norm(ref)
        G = s.G.tolil()
        G[:, 4] = 0.0
        G = G.tocsc()
        assert G.nnz == s.G.nnz - s.G[:, 4].nnz and G[:, 4].nnz == 0
        with pytest.raises(SingularSaddle):
            factor_saddle(W, G)


@st.composite
def _saddle_cases(draw):
    """Nonsymmetric sparse W with a dominant Hermitian part, a sparse
    full-rank G (a column selection of I plus a small perturbation), a
    complex shift and a power of ten scaling G."""
    n_v = draw(st.integers(2, 14))
    n_p = draw(st.integers(1, n_v - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = complex(draw(st.floats(0.0, 1e3)), draw(st.floats(-1e5, 1e5)))
    k = draw(st.integers(-6, 6))
    uniform = lambda lo, hi: lambda size: rng.uniform(lo, hi, size)
    R = sp.random(n_v, n_v, density=0.3, random_state=rng, data_rvs=uniform(-1, 1))
    W = ((n_v + 1 + shift) * sp.eye(n_v) + R).tocsc()
    pick = rng.permutation(n_v)[:n_p]
    G = np.eye(n_v)[:, pick] + sp.random(
        n_v, n_p, density=0.3, random_state=rng, data_rvs=uniform(-0.5 / n_p, 0.5 / n_p)
    ).toarray()
    return W, G, 10.0**k, rng


@settings(max_examples=40, deadline=None)
@given(case=_saddle_cases())
def test_scaled_saddle_solves_match_dense(case):
    W, G, c, rng = case
    n_v, n_p = G.shape
    # Velocity rows do not depend on c, so the dense solve with G is the reference.
    f = factor_saddle(W, c * G)
    rhs = rng.standard_normal((n_v, 2))
    K = np.block([[W.toarray(), G], [G.T, np.zeros((n_p, n_p))]])
    full = np.vstack([rhs, np.zeros((n_p, 2))])
    for adjoint in (False, True):
        x = solve_saddle(f, rhs, adjoint=adjoint)
        ref = la.solve(K.T if adjoint else K, full)[:n_v]
        assert la.norm(x - ref) <= 1e-10 * la.norm(ref)
    deficient = G.copy()
    deficient[:, -1] = deficient[:, 0] * rng.uniform(0.5, 2.0) if n_p > 1 else 0.0
    with pytest.raises(SingularSaddle):
        factor_saddle(W, c * deficient)


class TestThinQR:
    def test_identity_columns(self):
        X = np.eye(3)[:, :2]
        f = thin_qr(X)
        assert np.allclose(f.q, X)
        assert np.allclose(f.r, np.eye(2))

    def test_duplicated_columns(self):
        rng = np.random.default_rng(8)
        col = rng.standard_normal((10, 1))
        with pytest.raises(RankDeficient):
            thin_qr(np.hstack([col, col]))

    def test_recomposition(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 6))
        f = thin_qr(X)
        assert la.norm(f.q.T @ f.q - np.eye(6)) <= 1e-12
        assert la.norm(f.q @ f.r - X) <= 1e-12 * la.norm(X)

    def test_nonnegative_diagonal(self):
        rng = np.random.default_rng(10)
        f = thin_qr(rng.standard_normal((12, 5)))
        assert np.all(np.diag(f.r) >= 0.0)

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(DimensionMismatch, match="n >= k"):
            thin_qr(np.ones((2, 3)))


class TestBlockGramSchmidt:
    def test_empty_existing(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((20, 4))
        coeffs, out = block_gram_schmidt(X, np.empty((20, 0)))
        assert coeffs.shape == (0, 4)
        assert np.array_equal(out, X)

    def test_annihilates_span(self):
        rng = np.random.default_rng(12)
        V = thin_qr(rng.standard_normal((30, 4))).q
        cand = V @ rng.standard_normal((4, 4))
        _, out = block_gram_schmidt(cand, V)
        assert la.norm(out) <= 1e-10 * la.norm(cand)

    def test_orthogonal_against_blocks(self):
        rng = np.random.default_rng(13)
        q = thin_qr(rng.standard_normal((50, 12))).q
        blocks = [q[:, :4], q[:, 4:8], q[:, 8:12]]
        cand = rng.standard_normal((50, 4))
        coeffs, out = block_gram_schmidt(cand, q)
        assert coeffs.shape == (12, 4)
        for v in blocks:
            assert la.norm(v.T @ out) <= 1e-12 * max(1.0, la.norm(out))

    def test_reconstruction_from_coefficients(self):
        rng = np.random.default_rng(14)
        q = thin_qr(rng.standard_normal((40, 8))).q
        cand = rng.standard_normal((40, 4))
        coeffs, out = block_gram_schmidt(cand, q)
        recon = out + q @ coeffs
        assert la.norm(recon - cand) <= 1e-13 * la.norm(cand)

    @pytest.mark.parametrize("mix", [0.0, 0.99])
    def test_matches_block_by_block_loop(self, mix):
        # Reference: one pass block by block, repeated under the same rule.
        rng = np.random.default_rng(17)
        q = thin_qr(rng.standard_normal((60, 16))).q
        blocks = [q[:, i : i + 4] for i in range(0, 16, 4)]
        cand = mix * q @ rng.standard_normal((16, 4)) + (1.0 - mix) * (
            rng.standard_normal((60, 4))
        )
        W, ref = cand.copy(), np.zeros((16, 4))
        before = la.norm(W, axis=0)
        for _ in range(2):
            for i, v in enumerate(blocks):
                h = v.T @ W
                W -= v @ h
                ref[4 * i : 4 * i + 4] += h
            if np.all(la.norm(W, axis=0) >= REORTH_RATIO * before):
                break
        coeffs, out = block_gram_schmidt(cand, q)
        assert la.norm(coeffs - ref) <= 1e-13 * la.norm(cand)
        assert la.norm(out - W) <= 1e-13 * la.norm(cand)


class TestDenseBackends:
    def test_svd_diagonal(self):
        _, s, _ = dense_svd(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(s, [3.0, 2.0, 1.0])

    def test_generalized_eigen_counts_finite(self):
        s = generate_synthetic(SyntheticSpec(10, 2, seed=5))
        pa = _assemble(s.A.toarray(), s.G.toarray())
        pm = np.zeros_like(pa)
        pm[:10, :10] = s.M.toarray()
        _, finite = dense_generalized_eigen(pa, pm)
        assert int(finite.sum()) == 8
