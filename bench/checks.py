"""Correctness references that do not call the code under test.

Every check here factors its own saddle-point matrices with scipy's
``splu`` and applies feedback through its own Woodbury update, so a
defect in the package's kernels cannot make its own output look right.
"""

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import LinearOperator, eigs, splu

# Shift of the shift-invert eigensolves: just right of the imaginary axis,
# so the eigenvalues nearest to it are the unstable ones and the least
# damped stable ones.
EIG_SHIFT = 0.2


class GateError(Exception):
    """An output of the program failed a correctness check."""


def require(ok, message):
    if not ok:
        raise GateError(message)


class SaddleSolver:
    """Solves [[W - U V^T, G], [G^T, 0]] [x; *] = [r; 0] and returns x.

    ``W`` is factored once inside the saddle matrix; the optional rank-k
    term ``U V^T`` is applied by the Woodbury identity, so ``U V^T`` is
    never formed.
    """

    def __init__(self, W, G, U=None, V=None):
        self.n_v = W.shape[0]
        self.n_p = G.shape[1]
        K = sp.bmat([[W, G], [G.T, None]], format="csc")
        self._lu = splu(K)
        self._u = None
        if U is not None:
            self._v = np.asarray(V)
            self._u = self._base(np.asarray(U, dtype=K.dtype))
            cap = np.eye(self._u.shape[1]) - self._v.T @ self._u
            self._cap = la.lu_factor(cap)

    def _base(self, rhs):
        rhs = rhs.reshape(self.n_v, -1)
        full = np.zeros((self.n_v + self.n_p, rhs.shape[1]), dtype=rhs.dtype)
        full[: self.n_v] = rhs
        if np.iscomplexobj(full) and self._lu.U.dtype.kind != "c":
            x = self._lu.solve(full.real) + 1j * self._lu.solve(full.imag)
        else:
            x = self._lu.solve(full)
        return x[: self.n_v]

    def solve(self, rhs):
        rhs = np.asarray(rhs)
        x = self._base(rhs)
        if self._u is not None:
            x = x + self._u @ la.lu_solve(self._cap, self._v.T @ x)
        return x.reshape(rhs.shape)


def eigenvalues_near_shift(M, A, G, k, U=None, V=None, sigma=EIG_SHIFT):
    """The k finite eigenvalues of (A - U V^T, M) on G^T v = 0 nearest sigma.

    Shift-invert Arnoldi on x -> (A - U V^T - sigma M)^-1 M x restricted to
    the constraint manifold; infinite eigenvalues map to zero and are
    never returned.  Sorted by decreasing real part.
    """
    solver = SaddleSolver((A - sigma * M).tocsc(), G, U, V)
    op = LinearOperator(
        (M.shape[0], M.shape[0]), matvec=lambda x: solver.solve(M @ x), dtype=float
    )
    mu = eigs(op, k=k, which="LM", return_eigenvectors=False, tol=1e-10)
    lam = sigma + 1.0 / mu
    return lam[np.argsort(-lam.real)]


def count_unstable(M, A, G, expected, U=None, V=None):
    """Number of eigenvalues with positive real part among the nearest to the shift.

    Looks at ``expected + 3`` eigenvalues, so a count above ``expected``
    still shows.
    """
    lam = eigenvalues_near_shift(M, A, G, expected + 3, U, V)
    return int(np.sum(lam.real > 0.0)), lam


def transfer_function(sys_, s):
    """C (s M - A)^-1 B on G^T v = 0, through the benchmark's own complex LU."""
    solver = SaddleSolver((s * sys_.M - sys_.A).tocsc().astype(complex), -sys_.G)
    return sys_.C @ solver.solve(sys_.B.astype(complex))


def relative(a, b):
    """||a - b|| / ||b|| in the Frobenius norm, for dense or sparse operands."""
    norm = spla.norm if sp.issparse(b) else np.linalg.norm
    return float(norm(a - b) / max(norm(b), 1e-300))
