"""Dense brute-force references for everything the main path avoids forming.

Explicit projector, its biorthogonal decomposition, the textbook extended
block Arnoldi process on the dense projected system, the dense Riccati
residual, and pencil spectra: the tests' referee, and the dense checks
of ``generate_synthetic``, ``validate`` and CLI ``stabilize``/``verify``.
Every entry point is guarded by one size cap, read by ``size_cap()``
only: 500 unless ``EKSTAB_ORACLE_CAP`` overrides it, and a value that is
not an integer of at least 1 is a ParseError.  Each desk-scale gate
outside this module compares with ``size_cap()`` too, so the override
moves them all.
"""

import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from . import kernels
from .errors import Breakdown, EkstabError, ParseError, SizeCapExceeded

# Desk-scale limit of every dense computation, read only as ``size_cap()``'s
# default: up to it the oracle runs and systems get dense SPD, rank and
# spectrum checks.
SIZE_CAP_DEFAULT = 500
SIZE_CAP_ENV = "EKSTAB_ORACLE_CAP"


def size_cap():
    value = os.environ.get(SIZE_CAP_ENV)
    if not value:
        return SIZE_CAP_DEFAULT
    try:
        cap = int(value)
    except ValueError as exc:
        raise ParseError(f"{SIZE_CAP_ENV}={value!r} is not an integer") from exc
    if cap < 1:
        raise ParseError(f"{SIZE_CAP_ENV}={value!r} is below 1")
    return cap


def _check_cap(n_v, cap):
    cap = size_cap() if cap is None else cap
    if n_v > cap:
        raise SizeCapExceeded(f"dense oracle requested for n_v = {n_v} > cap = {cap}")


@dataclass(frozen=True)
class DenseProjector:
    """Explicit pressure-eliminating projector Pi = I - G (G^T M^-1 G)^-1 G^T M^-1.

    theta_l theta_r^T = Pi with theta_l^T theta_r = I; both factors come
    from the thin SVD of Pi, whose idempotency forces W1^T U1 = S1^-1 and
    hence (U1 S1)^T W1 = I.
    """

    pi: np.ndarray
    theta_l: np.ndarray
    theta_r: np.ndarray


@dataclass(frozen=True)
class ThetaSystem:
    """Dense ODE realization on the (n_v - n_p)-dimensional constraint manifold."""

    m: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def build_projector(sys_, cap=None):
    """Form the dense projector and its biorthogonal factors."""
    _check_cap(sys_.n_v, cap)
    n_v, n_p = sys_.n_v, sys_.n_p
    if n_p == 0:
        eye = np.eye(n_v)
        return DenseProjector(pi=eye, theta_l=eye.copy(), theta_r=eye.copy())
    M = sys_.M.toarray()
    G = sys_.G.toarray()
    MiG = la.solve(M, G, assume_a="pos")
    pi = np.eye(n_v) - G @ la.solve(G.T @ MiG, MiG.T)
    u, s, wt = la.svd(pi)
    r = n_v - n_p
    theta_l = u[:, :r] * s[:r]
    theta_r = wt[:r].T
    return DenseProjector(pi=pi, theta_l=theta_l, theta_r=theta_r)


def theta_system(sys_, proj=None, cap=None):
    """Project the descriptor system onto the constraint manifold."""
    if proj is None:
        proj = build_projector(sys_, cap=cap)
    tr = proj.theta_r
    return ThetaSystem(
        m=tr.T @ (sys_.M.toarray() @ tr),
        a=tr.T @ (sys_.A.toarray() @ tr),
        b=tr.T @ sys_.B,
        c=sys_.C @ tr,
    )


def theta_transfer(tsys, s):
    """Transfer function C (s M - A)^-1 B of the dense projected system."""
    return tsys.c @ la.solve(s * tsys.m - tsys.a, tsys.b)


def theta_arnoldi(tsys, m, adjoint=False):
    """Textbook extended block Arnoldi on the dense projected pair.

    Operates on (M^-1 A, M^-1 B), or on (M^-1 A^T, M^-1 C^T) when
    ``adjoint`` is set.  Returns the orthonormal basis including the
    next block (n x 2(m+1)b) and the rectangular projected-operator
    Hessenberg matrix (2(m+1)b x 2mb), computed by explicit projection.
    Deliberately self-contained so it can referee the sparse process.
    """
    a = tsys.a.T if adjoint else tsys.a
    start = tsys.c.T if adjoint else tsys.b
    m_lu = la.lu_factor(tsys.m)
    a_lu = la.lu_factor(a)
    b = start.shape[1]

    def fwd(x):
        return la.lu_solve(m_lu, a @ x)

    def inv(x):
        return la.lu_solve(a_lu, tsys.m @ x)

    first = np.column_stack([la.lu_solve(m_lu, start), la.lu_solve(a_lu, start)])
    q, r = la.qr(first, mode="economic")
    if np.min(np.abs(np.diag(r))) < 1e-12 * la.norm(first, 2):
        raise Breakdown("rank-deficient starting block at step 0")
    blocks = [q]
    images = []
    for j in range(m):
        v1, v2 = blocks[-1][:, :b], blocks[-1][:, b:]
        img = fwd(blocks[-1])
        images.append(img)
        cand = np.column_stack([img[:, :b], inv(v2)])
        scale = la.norm(cand, 2)
        w = cand.copy()
        for _ in range(2):
            for v in blocks:
                w -= v @ (v.T @ w)
        q, r = la.qr(w, mode="economic")
        if np.min(np.abs(np.diag(r))) < 1e-12 * scale:
            raise Breakdown(f"space exhausted at step {j + 1}")
        flip = np.where(np.diag(r) < 0.0, -1.0, 1.0)
        blocks.append(q * flip)
    v_all = np.column_stack(blocks)
    tbar = v_all.T @ np.column_stack(images)
    # Enforce the exact block Hessenberg structure.
    for j in range(m):
        tbar[2 * b * (j + 2) :, 2 * b * j : 2 * b * (j + 1)] = 0.0
    return v_all, tbar


def projected_operator(sys_, proj=None, adjoint=False, cap=None):
    """Dense M^-1 Pi A (or M^-1 Pi A^T), the operator the sparse process realizes."""
    if proj is None:
        proj = build_projector(sys_, cap=cap)
    a = sys_.A.toarray()
    if adjoint:
        a = a.T
    return la.solve(sys_.M.toarray(), proj.pi @ a, assume_a="pos")


def dense_gare_residual(sys_, X=None, Z=None, proj=None, cap=None):
    """2-norm of the explicitly assembled Riccati residual at X (or Z Z^T).

    The residual of the projected-equation form scaled by M^-1 on both
    sides: M^-1 Pi A^T X + X A Pi^T M^-1 - X B B^T X + M^-1 Pi C^T C Pi^T M^-1.
    """
    _check_cap(sys_.n_v, cap)
    if proj is None:
        proj = build_projector(sys_, cap=cap)
    if X is None:
        X = np.zeros((sys_.n_v, sys_.n_v)) if Z is None else Z @ Z.T
    M = sys_.M.toarray()
    term = la.solve(M, proj.pi @ (sys_.A.toarray().T @ X), assume_a="pos")
    q = la.solve(M, proj.pi @ sys_.C.T, assume_a="pos")
    res = term + term.T - X @ sys_.B @ (sys_.B.T @ X) + q @ q.T
    return la.norm(res, 2)


def pencil_finite_spectrum(sys_, gain=None, cap=None):
    """Finite eigenvalues of ([[A - B K, G], [G^T, 0]], [[M, 0], [0, 0]]).

    K is ``gain.matrix()`` of a FeedbackGain, or zero without one.  The
    count must equal n_v - n_p; a mismatch signals a numerically
    degenerate pencil and raises.
    """
    _check_cap(sys_.n_v, cap)
    n_v, n_p = sys_.n_v, sys_.n_p
    a = sys_.A.toarray()
    if gain is not None:
        a = a - sys_.B @ gain.matrix()
    g = sys_.G.toarray()
    pa = np.block([[a, g], [g.T, np.zeros((n_p, n_p))]])
    pm = np.zeros_like(pa)
    pm[:n_v, :n_v] = sys_.M.toarray()
    values, finite = kernels.dense_generalized_eigen(pa, pm)
    if int(finite.sum()) != n_v - n_p:
        raise EkstabError(
            f"pencil produced {int(finite.sum())} finite eigenvalues, "
            f"expected {n_v - n_p}"
        )
    return values[finite]
