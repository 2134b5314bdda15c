"""Sparse and dense linear-algebra kernels.

Saddle-point factorization and solve (forward and transposed), solves
with a low-rank Sherman-Morrison-Woodbury correction of the leading
block, block Gram-Schmidt with conditional reorthogonalization, thin QR
with breakdown detection, plus thin wrappers around the dense
decompositions used for truncation and spectrum checks.

Every saddle matrix [[W, G], [G^T, 0]] is factored with its constraint
block scaled to the size of W, as [[W, aG], [aG^T, 0]] with
a = max|W| / max|G|, and with one SuperLU setting for every kind and
shift: minimum-degree ordering on K^T + K with diagonal pivots preferred
(``SPLU_OPTIONS``).  Unscaled, the pressure pivots of a shifted block
sM - A are tiny beside its entries, which grow with |s|; SuperLU swaps
rows off the diagonal and the ordering is lost (on a 120^2 grid at s = 1e3j, L + U holds 14.9 M
entries unscaled against 0.76 M scaled); scaled, the fill is the same
for every kind and shift.

The ordering sees a tied pattern: each pressure's row and column also
hold explicit zeros in the pattern of its anchor velocity's row of
|W| + |W|^T, the anchor being the row of its largest |G| entry.  Plain
minimum degree takes each zero-diagonal pressure for a low-degree node
and eliminates it early; tied, it eliminates the pressure together with
its anchor, the compressed-graph idea for 2 x 2 pivots of Duff & Pralet
(SIMAX 27, 2005).  The values factored do not change.  In SuperLU's
nnz(L+U) over nnz(K), the fill falls 13-19% on the benchmark's 60^2 to
300^2 grids (10.1x to 8.4x at 120^2) and 5x on a MAC Stokes stiffness
block (187x to 38x on 32 x 32 cells), but rises on the package's
synthetic family at 120^2 and 200^2 (9.6x to 11.4x at 200^2).

Factorizations and matrices are immutable after construction; solves
against a shared factorization may run concurrently.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import (
    DimensionMismatch,
    NoConvergence,
    RankDeficient,
    SingularCapture,
    SingularSaddle,
)

# Relative diagonal threshold signalling Arnoldi breakdown in thin_qr.
RANK_TOL = 1e-12
# Kahan-Parlett style norm-drop ratio triggering one extra Gram-Schmidt pass.
REORTH_RATIO = 0.7
# Relative forward error of the factors' solve of K x = K z, for a fixed z,
# above which the factored saddle is flagged singular.
SOLVE_CHECK_TOL = 1e-3
# Condition-number cap of the SMW capture matrix.
CAPTURE_COND_CAP = 1e12
# The one SuperLU setting used for every saddle factorization.
SPLU_OPTIONS = dict(
    permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.1,
    options=dict(SymmetricMode=True),
)


@dataclass(frozen=True)
class SaddleFactorization:
    """Sparse LU factors of the block matrix [[W, G], [G^T, 0]].

    ``kind`` labels which leading block was factored ("mass", "stiffness",
    "shifted", "euler", "identity"); the shift of a shifted block is held
    by the key of the system's factor cache, and the ordering is the one
    of ``SPLU_OPTIONS`` on the tied pattern.  The factors are those of
    [[W, scale G], [scale G^T, 0]]; the velocity rows of a solve do not
    depend on ``scale``; with n_p = 0 the matrix factored is W alone.
    ``dtype`` is the factors' dtype, read without building SuperLU's
    copies of L and U.
    """

    kind: str
    n_v: int
    n_p: int
    scale: float = 1.0
    dtype: np.dtype = np.dtype(float)
    _lu: object = field(default=None, repr=False, compare=False)

    @property
    def is_complex(self):
        return np.issubdtype(self.dtype, np.complexfloating)


def factor_saddle(W, G, kind="custom"):
    """Factor the saddle-point matrix [[W, G], [G^T, 0]] once for reuse.

    The matrix factored is D K D with D = diag(I, scale I) and
    scale = max|W| / max|G| (1 when either block is zero), under the
    fixed ``SPLU_OPTIONS``, with each pressure tied to its anchor
    velocity by explicit zeros (``_tied``) so that minimum degree
    eliminates the two together.  The pressure right-hand side of every
    solve is zero and the multiplier is discarded, so solves return the same
    velocity rows as with K, forward and transposed; the scaling keeps
    the pressure pivots of the same size as those of W, so the
    symmetric-mode ordering survives pivoting for every kind and shift
    (unscaled, a shifted block on a 120^2 grid at s = 1e3j fills L + U
    with 14.9 M entries instead of 0.76 M).

    Parameters
    ----------
    W : sparse or dense n_v x n_v matrix
        Leading block; the mass matrix, the system matrix, or a shifted
        combination of the two.
    G : sparse or dense n_v x n_p matrix
        Constraint block, full column rank.
    kind : str
        Label stored on the factorization and named in its errors.

    Returns
    -------
    SaddleFactorization

    Raises
    ------
    SingularSaddle
        If the LU factorization fails or its solve of K x = K z, for the
        fixed z = cos(1..n), misses z by more than ``SOLVE_CHECK_TOL``
        relative, signalling a rank-deficient G or a singular projected
        W.  The check reads neither L nor U: scipy builds both as sparse
        copies on first access and keeps them for the factors' lifetime.
    """
    W = sp.csc_matrix(W)
    G = sp.csc_matrix(G)
    n_v = W.shape[0]
    if W.shape[0] != W.shape[1]:
        raise DimensionMismatch(f"leading block must be square, got {W.shape}")
    if G.shape[0] != n_v:
        raise DimensionMismatch(
            f"constraint block has {G.shape[0]} rows, expected {n_v}"
        )
    n_p = G.shape[1]
    w_max = np.abs(W.data).max() if W.nnz else 0.0
    g_max = np.abs(G.data).max() if G.nnz else 0.0
    scale = float(w_max / g_max) if w_max and g_max else 1.0
    C = _tied(W, scale * G)
    K = sp.bmat([[W, C], [C.T, None]], format="csc")
    try:
        lu = splu(K, **SPLU_OPTIONS)
    except RuntimeError as exc:
        raise SingularSaddle(f"saddle factorization ({kind}) failed: {exc}") from exc
    z = np.cos(np.arange(1.0, K.shape[0] + 1.0))
    x = lu.solve(K @ z)
    err = np.linalg.norm(x - z) / np.linalg.norm(z) if z.size else 0.0
    if not err <= SOLVE_CHECK_TOL:
        raise SingularSaddle(
            f"saddle factorization ({kind}) is numerically singular "
            f"(forward error {err:.2e} of a check solve)"
        )
    return SaddleFactorization(
        kind=kind, n_v=n_v, n_p=n_p, scale=scale, dtype=x.dtype, _lu=lu
    )


def _tied(W, G):
    """The constraint block G in COO, plus explicit zeros that tie each pressure.

    The anchor v(j) of pressure j is the first row of G's column j with the
    largest |entry|; column j of the block, and so pressure row and column
    j of the saddle, gets the pattern of row v(j) of |W| + |W|^T, so
    minimum degree sees p_j and v(j) as near indistinguishable and
    eliminates them together.  An empty column of G gets no tie.  W and G
    are CSC.
    """
    col = np.repeat(np.arange(G.shape[1]), np.diff(G.indptr))
    size = np.abs(G.data)
    order = np.lexsort((G.indices, -size, col))
    order = order[size[order] > 0]
    tied, first = np.unique(col[order], return_index=True)
    anchors = G.indices[order[first]]
    # Row v of |W| + |W|^T is the pattern of column v and row v of W.
    links = (W[:, anchors], W.tocsr()[anchors])
    vel = np.concatenate([link.indices for link in links])
    at = np.concatenate([np.repeat(tied, np.diff(link.indptr)) for link in links])
    G = G.tocoo()
    data = np.r_[G.data, np.zeros(vel.size, G.dtype)]
    rows, cols = np.r_[G.row, vel], np.r_[G.col, at]
    return sp.coo_matrix((data, (rows, cols)), shape=G.shape)


def solve_saddle(fact, rhs, adjoint=False):
    """Solve [[W, G], [G^T, 0]] [x; *] = [rhs; 0] and return x.

    Only the first n_v rows of the block solve are returned; the
    multiplier block is discarded.  Accepts a vector or an n_v x k
    matrix right-hand side; the result matches the input shape.  With
    ``adjoint`` the transposed block [[W^T, G], [G^T, 0]] is solved with
    the same factors, so the adjoint operator needs no factorization of
    its own.
    """
    rhs = np.asarray(rhs)
    one_d = rhs.ndim == 1
    if one_d:
        rhs = rhs[:, None]
    if rhs.ndim != 2 or rhs.shape[0] != fact.n_v:
        raise DimensionMismatch(
            f"rhs has shape {rhs.shape}, expected ({fact.n_v}, k)"
        )
    full = np.zeros((fact.n_v + fact.n_p, rhs.shape[1]), dtype=rhs.dtype)
    full[: fact.n_v] = rhs
    trans = "T" if adjoint else "N"
    if np.iscomplexobj(full) and not fact.is_complex:
        x = fact._lu.solve(full.real, trans) + 1j * fact._lu.solve(full.imag, trans)
    else:
        x = fact._lu.solve(np.asarray(full, dtype=fact.dtype), trans)
    x = x[: fact.n_v]
    return x[:, 0] if one_d else x


class SmwCorrector:
    """Solves [[W - c B K, G], [G^T, 0]] through the factorization of W's block.

    Caches the block solve of B and the LU factors of the n_b x n_b
    capture matrix I - c K W_blk^-1 B, checked for singularity when the
    corrector is made; each corrected solve then costs one base solve
    plus a small dense solve, and the dense product B K is never formed.
    The corrected solve of B itself (``solve_b``) costs no base solve.
    """

    def __init__(self, fact, B, K, c):
        self.fact = fact
        self.K = K
        self.c = c
        self.ainv_b = solve_saddle(fact, B)
        capture = np.eye(B.shape[1]) - c * (K @ self.ainv_b)
        # The capture matrix is a perturbation of the identity, so absolute
        # near-singularity matters as much as the condition number.
        sv = la.svdvals(capture)
        if sv[-1] <= 1e-12 * max(1.0, sv[0]) or sv[0] > CAPTURE_COND_CAP * sv[-1]:
            raise SingularCapture(
                f"capture matrix is numerically singular "
                f"(singular values {sv[0]:.2e} .. {sv[-1]:.2e})"
            )
        self.capture_lu = la.lu_factor(capture)

    def solve(self, rhs):
        return self._corrected(solve_saddle(self.fact, rhs))

    def solve_b(self):
        """``solve(B)`` from the cached base solve of B, the same arithmetic."""
        return self._corrected(self.ainv_b)

    def _corrected(self, x):
        corr = la.lu_solve(self.capture_lu, self.c * (self.K @ x))
        return x + self.ainv_b @ corr


@dataclass(frozen=True)
class BlockQR:
    """Economy QR factors with the R diagonal forced nonnegative."""

    q: np.ndarray
    r: np.ndarray


def thin_qr(X, rank_scale=None):
    """Economy QR with a deterministic sign convention and rank check.

    The diagonal of R is made nonnegative by column sign flips so bases
    are reproducible across runs.  A diagonal entry below
    ``RANK_TOL * rank_scale`` raises RankDeficient; ``rank_scale``
    defaults to the 2-norm of X and should be set to the
    pre-orthogonalization scale when detecting Arnoldi breakdown.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, k = X.shape
    if n < k:
        raise DimensionMismatch(f"thin_qr needs n >= k, got {X.shape}")
    q, r = la.qr(X, mode="economic")
    flip = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    q = q * flip
    r = flip[:, None] * r
    if rank_scale is None:
        rank_scale = la.norm(X, 2) if X.size else 0.0
    if k and (rank_scale == 0.0 or np.min(np.diag(r)) < RANK_TOL * rank_scale):
        raise RankDeficient(
            f"thin_qr diagonal {np.min(np.diag(r)):.3e} below "
            f"{RANK_TOL:.0e} * {rank_scale:.3e}"
        )
    return BlockQR(q=q, r=r)


def block_gram_schmidt(candidate, basis):
    """Orthogonalize a block against the columns of an orthonormal matrix.

    ``basis`` is the n x k orthonormal matrix (k may be 0), real or
    complex.  One classical Gram-Schmidt pass h = V^H W, W -= V h is two
    matrix products over all k columns at once, with a single
    reorthogonalization pass applied when any column norm drops by more
    than REORTH_RATIO.  V^H W is taken as the conjugate of V^T conj(W),
    so no conjugate copy of V is made (and none of W when it is real).
    Returns the k x b coefficient matrix (second-pass corrections
    accumulated) and the orthogonalized candidate, a copy.
    """
    W = np.array(candidate, copy=True)
    before = la.norm(W, axis=0)
    coeffs = (basis.T @ W.conj()).conj()
    W -= basis @ coeffs
    after = la.norm(W, axis=0)
    scale = np.where(before > 0.0, before, 1.0)
    if np.any(after < REORTH_RATIO * scale):
        h = (basis.T @ W.conj()).conj()
        W -= basis @ h
        coeffs += h
    return coeffs, W


def dense_svd(X):
    """Thin SVD wrapper; raises NoConvergence instead of LinAlgError."""
    try:
        return la.svd(np.asarray(X, dtype=float), full_matrices=False)
    except la.LinAlgError as exc:
        raise NoConvergence(f"SVD failed to converge: {exc}") from exc


def dense_generalized_eigen(A, B):
    """Generalized eigenvalues of the pencil (A, B) with infinity flags.

    Returns ``(values, finite)`` where ``finite`` marks eigenvalues whose
    beta exceeds 1e-12 * ||B||; the remaining entries of ``values`` are
    set to complex infinity.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    try:
        ab = la.eig(A, B, right=False, homogeneous_eigvals=True)
    except la.LinAlgError as exc:
        raise NoConvergence(f"QZ iteration failed: {exc}") from exc
    alpha, beta = ab[0], ab[1]
    finite = np.abs(beta) > 1e-12 * la.norm(B, 2)
    values = np.full(alpha.shape, np.inf + 0j, dtype=complex)
    values[finite] = alpha[finite] / beta[finite]
    return values, finite
