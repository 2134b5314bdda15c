"""Galerkin projection of the generalized algebraic Riccati equation.

The outer iteration grows an extended block Krylov basis in adjoint mode,
solves the projected low-dimensional Riccati equation densely at each
order, and monitors the residual of the full equation through the cheap
continuation-block formula, so the large solution is never formed.  At
convergence the reduced solution is truncated to a low-rank factor and
the LQR feedback gain is formed as the n_b x n_v matrix B^T Z Z^T M.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .arnoldi import ADJOINT, ekba_init, ekba_step, projected_input
from .errors import Breakdown, DimensionMismatch, NoStabilizingSolution, ValidationError
from .kernels import dense_svd
from .sysmodel import write_csv

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"

# Relative residual bound accepted from the dense solver.
_CARE_RESID_TOL = 1e-10
_ILL_COND_CAP = 1e12


def _care_residual(t, d, q, y):
    return t @ y + y @ t.T - y @ d @ y + q


def _care_schur(a, d, q):
    """Stabilizing solution of A^T Y + Y A - Y D Y + Q = 0.

    Ordered real Schur form of the Hamiltonian [[A, -D], [-Q, -A^T]];
    the stable invariant subspace [X1; X2] yields Y = X2 X1^-1.
    """
    k = a.shape[0]
    ham = np.block([[a, -d], [-q, -a.T]])
    s, u, sdim = la.schur(ham, output="real", sort="lhp")
    if sdim != k:
        raise NoStabilizingSolution(
            f"stable Hamiltonian subspace has dimension {sdim}, expected {k}"
        )
    x1 = u[:k, :k]
    x2 = u[k:, :k]
    if np.linalg.cond(x1) > _ILL_COND_CAP:
        raise NoStabilizingSolution(
            f"stable-subspace basis is ill-conditioned "
            f"(cond {np.linalg.cond(x1):.2e})"
        )
    y = la.solve(x1.T, x2.T).T
    return 0.5 * (y + y.T)


def care_dense(t, bt, ct):
    """Solve T Y + Y T^T - Y Bt Bt^T Y + Ct Ct^T = 0 for the stabilizing Y.

    Hamiltonian ordered-Schur extraction followed by one Newton step
    (a Bartels-Stewart Lyapunov solve on the closed-loop matrix), kept
    when it reduces the residual.  The returned Y is symmetric positive
    semidefinite and makes T - Y Bt Bt^T stable.

    Raises
    ------
    NoStabilizingSolution
        If the stable subspace has the wrong dimension, its basis is
        ill-conditioned, the refined residual exceeds the contract
        bound, or the closed loop fails to be stable.
    """
    t = np.atleast_2d(np.asarray(t, dtype=float))
    bt = np.atleast_2d(np.asarray(bt, dtype=float))
    ct = np.atleast_2d(np.asarray(ct, dtype=float))
    d = bt @ bt.T
    q = ct @ ct.T
    # The equation in Y is the standard CARE written for A := T^T.
    y = _care_schur(t.T, d, q)
    res = la.norm(_care_residual(t, d, q, y), "fro")
    closed = t - y @ d
    try:
        refined = la.solve_continuous_lyapunov(closed, -(q + y @ d @ y))
        refined = 0.5 * (refined + refined.T)
        res_ref = la.norm(_care_residual(t, d, q, refined), "fro")
        if res_ref < res:
            y, res = refined, res_ref
    except la.LinAlgError:
        pass
    bound = _CARE_RESID_TOL * max(1.0, la.norm(y, "fro") ** 2 * la.norm(d, "fro"))
    if res > bound:
        raise NoStabilizingSolution(
            f"Riccati residual {res:.3e} exceeds bound {bound:.3e}"
        )
    if np.any(la.eigvals(t - y @ d).real >= 0.0):
        raise NoStabilizingSolution("closed-loop spectrum is not stable")
    return y


def care_newton_kleinman(t, bt, ct, y0=None, tol=1e-13, max_iter=60):
    """Newton-Kleinman iteration for the same equation as care_dense.

    Each step solves one Lyapunov equation by Bartels-Stewart.  Needs a
    stabilizing starting guess; the default zero only works when T is
    already stable.  Kept as an algorithmically independent cross-check
    of the Schur path.
    """
    t = np.atleast_2d(np.asarray(t, dtype=float))
    d = np.atleast_2d(bt) @ np.atleast_2d(bt).T
    q = np.atleast_2d(ct) @ np.atleast_2d(ct).T
    y = np.zeros_like(t) if y0 is None else np.asarray(y0, dtype=float)
    if np.any(la.eigvals(t - y @ d).real >= 0.0):
        raise NoStabilizingSolution("Newton-Kleinman needs a stabilizing start")
    scale = max(1.0, la.norm(q, "fro"))
    for _ in range(max_iter):
        closed = t - y @ d
        y = la.solve_continuous_lyapunov(closed, -(q + y @ d @ y))
        y = 0.5 * (y + y.T)
        if la.norm(_care_residual(t, d, q, y), "fro") <= tol * scale:
            return y
    raise NoStabilizingSolution(
        f"Newton-Kleinman did not reach {tol:.1e} in {max_iter} iterations"
    )


@dataclass
class RiccatiSolution:
    """Low-rank solution of the projected Riccati equation.

    ``y`` solves the reduced equation at the final order, ``z`` is the
    lifted low-rank factor (X ~ Z Z^T), and ``residual_history`` records
    (iteration, relative residual) at every order with a reduced solution.
    """

    y: np.ndarray
    z: np.ndarray
    rank: int
    residual_history: list
    iterations: int
    converged: bool
    status: str
    basis: object = None
    iterates: list = field(default_factory=list)


def truncate_lowrank(y, basis, dtol, order=None):
    """SVD truncation of the reduced solution lifted through the basis.

    Keeps the singular values at or above ``dtol`` and returns
    Z = V U_r S_r^(1/2); the dropped tail bounds the 2-norm
    reconstruction error by the first discarded singular value.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if y.size == 0 or not np.any(y):
        return np.zeros((basis.ops.sys.n_v, 0))
    u, s, _ = dense_svd(0.5 * (y + y.T))
    r = int(np.sum(s >= dtol))
    v = basis.V(order)
    return v @ (u[:, :r] * np.sqrt(s[:r]))


class FeedbackGain:
    """LQR gain K = (B^T Z)(Z^T M), kept only as its n_b x n_v array and Z's rank.

    A NaN or Inf entry in either factor is a ValidationError
    (``finite: K ...``), raised before K is formed.
    """

    def __init__(self, left, right):
        if not (np.isfinite(left).all() and np.isfinite(right).all()):
            raise ValidationError("finite: K has a NaN or Inf entry")
        self._k = left @ right
        self.rank = left.shape[1]
        self.n_b, self.n_v = self._k.shape

    def matrix(self):
        return self._k


def feedback_gain(z, sys_):
    """Form the feedback gain from a low-rank Riccati factor."""
    z = np.asarray(z, dtype=float)
    return FeedbackGain(left=sys_.B.T @ z, right=(sys_.M @ z).T)


def ebara_solve(sys_, tol=1e-8, dtol=1e-12, m_max=50, keep_iterates=False):
    """Extended block Arnoldi iteration for the projected Riccati equation.

    Grows the adjoint-mode basis one block per iteration; at every order
    solves the low-dimensional Riccati equation
    T Y + Y T^T - Y (V^T B)(V^T B)^T Y + (E1 L11)(E1 L11)^T = 0
    and stops when ||T_{m+1,m} E_m^T Y|| / ||L11 L11^T|| < tol.  The
    denominator equals the norm of the constant term of the full
    equation by the orthonormality of the first basis block, so nothing
    large is ever assembled.  Subspace exhaustion makes the continuation
    block vanish, which counts as convergence at that order.  A reduced
    equation without a stabilizing solution only enlarges the space,
    unless no further growth is possible, where it is raised.

    Returns a RiccatiSolution; ``status`` is "max_iterations" when the
    tolerance was not met (partial solution returned, not raised).
    """
    if m_max < 1:
        raise DimensionMismatch(f"m_max must be >= 1, got {m_max}")
    if not np.any(sys_.C):
        # Zero constant term: the zero solution satisfies the equation and
        # the stopping rule degenerates; nothing to iterate.
        return RiccatiSolution(
            y=np.zeros((0, 0)),
            z=np.zeros((sys_.n_v, 0)),
            rank=0,
            residual_history=[(1, 0.0)],
            iterations=1,
            converged=True,
            status=CONVERGED,
        )
    basis = ekba_init(sys_, ADJOINT)
    basis.reserve(m_max + 1)
    lam11 = basis.lam11
    denominator = la.norm(lam11 @ lam11.T, 2)
    w = basis.width
    # V^T B, one block's rows appended per order, for at most a full basis.
    vtb = np.empty((min(m_max, sys_.n_v // w) * w, sys_.n_b))
    history = []
    iterates = []
    for m in range(1, m_max + 1):
        try:
            ekba_step(basis)
        except Breakdown:
            pass
        last = basis.breakdown_at is not None or m == m_max
        vtb[(m - 1) * w : m * w] = basis.block(m - 1).T @ sys_.B
        try:
            y = care_dense(basis.Tm(m), vtb[: m * w], projected_input(basis, m))
        except NoStabilizingSolution:
            if last:
                raise
            continue
        rel = la.norm(basis.t_next(m) @ y[-w:, :], 2) / denominator
        history.append((m, rel))
        if keep_iterates:
            iterates.append((m, y.copy()))
        if rel < tol or last:
            break
    z = truncate_lowrank(y, basis, dtol, order=m)
    converged = bool(rel < tol)
    return RiccatiSolution(
        y=y,
        z=z,
        rank=z.shape[1],
        residual_history=history,
        iterations=m,
        converged=converged,
        status=CONVERGED if converged else MAX_ITERATIONS,
        basis=basis,
        iterates=iterates,
    )


def write_residual_csv(path, solution):
    """Residual history CSV with columns iteration, residual."""
    write_csv(path, ["iteration", "residual"], solution.residual_history)
