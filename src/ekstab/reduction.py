"""Reduced models, transfer-function evaluation, and frequency sweeps.

Two reduced forms are built from an extended Arnoldi basis: the
state-space form driven by the projected-operator Hessenberg matrix
(cheapest; no products with the full system matrices) and the
generalized form from congruence projections of M and A.  An exact
transfer function at one shift takes one complex sparse saddle
factorization (``eval_full_tf``); a frequency sweep takes one per group
of shifts within a decade, and serves the group's other shifts by a
shifted block Krylov process on the solves with that factorization,
whose projected systems are solved in one batch per block step.  The
dense projector is never formed.
"""

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from . import kernels
from .arnoldi import FORWARD, as_pair, projected_input
from .errors import (
    DimensionMismatch,
    ModeMismatch,
    SingularCapture,
    SingularSaddle,
    SingularShift,
)
from .sysmodel import write_csv

STATE_SPACE = "state_space"
GENERALIZED = "generalized"

# Block steps of a sweep anchor's shifted Krylov process before its open
# points go to the next anchor.
SWEEP_BLOCKS = 30
# Residual, relative to the start block, at which a sweep shift is accepted.
SWEEP_TOL = 1e-13
# Reciprocal condition of a projected matrix below which its shift goes
# to the next anchor.
SWEEP_RCOND = 1e-12


@dataclass(frozen=True)
class ReducedModel:
    """Reduced LTI model in state-space or generalized form.

    ``mass`` tells the form.  State-space: v' = a v + b u, y = c v
    (mass is None).  Generalized: m v' = a v + b u, y = c v with m
    symmetric positive definite inherited from the full mass matrix.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    mass: np.ndarray | None = None

    @property
    def order(self):
        return self.a.shape[0]

    @property
    def n_inputs(self):
        return self.b.shape[1]

    @property
    def n_outputs(self):
        return self.c.shape[0]


def build_reduced(basis, form=STATE_SPACE, order=None):
    """Project the full system onto the basis.

    The state-space form uses the leading square block of the
    projected-operator Hessenberg matrix, the triangular projected input
    map, and C V.  The generalized form uses congruence projections
    V^T M V, V^T A V, V^T B and C V.  A closed loop is reduced from the
    same open-loop basis (``closedloop.reduce_closed_loop``).
    """
    if basis.mode != FORWARD:
        raise ModeMismatch(
            f"reduction requires a forward-pair basis, got {basis.mode!r}"
        )
    avail = basis.steps
    order = avail if order is None else order
    if order < 1 or order > avail:
        raise DimensionMismatch(
            f"reduction order {order}: basis supports 1..{avail}"
        )
    sys_ = basis.ops.sys
    V = basis.V(order)
    c = sys_.C @ V
    if form == STATE_SPACE:
        return ReducedModel(
            a=basis.Tm(order),
            b=projected_input(basis, order),
            c=c,
        )
    if form == GENERALIZED:
        return ReducedModel(
            a=V.T @ basis.ops.apply(V),
            b=V.T @ basis.ops.start,
            c=c,
            mass=V.T @ basis.ops.apply_mass(V),
        )
    raise ModeMismatch(f"unknown reduced form {form!r}")


def _anchor(pair, s):
    """(S, S B), S the pair's shifted saddle solve at s, SMW-corrected for a gain."""
    try:
        return pair.solver("shifted", s, with_start=True)
    except (SingularSaddle, SingularCapture) as exc:
        raise SingularShift(f"shift {s} hits the pencil spectrum: {exc}") from exc


def eval_full_tf(system, s):
    """Exact transfer function [C 0] [[sM-A, -G], [-G^T, 0]]^-1 [B; 0].

    ``system`` is a DescriptorSystem or a forward operator pair; for a
    ClosedLoopSystem A is A - B K, solved through the shifted
    factorization plus an SMW correction.  One sparse factorization of
    the shifted saddle matrix, real for a float s, and n_b columns of
    solves; the sign of the constraint blocks only flips the discarded
    multiplier.  It is the sweep's anchor at one point.
    """
    pair = as_pair(system)
    return pair.sys.C @ _anchor(pair, s)[1]


def eval_reduced_tf(model, s):
    """Reduced transfer function c (s I - a)^-1 b (or c (s m - a)^-1 b)."""
    lhs = s * np.eye(model.order) if model.mass is None else s * model.mass
    try:
        x = np.linalg.solve(lhs - model.a, model.b)
    except np.linalg.LinAlgError as exc:
        raise SingularShift(f"shift {s} is a reduced-model eigenvalue") from exc
    return model.c @ x


def _finite_max(x):
    """Largest finite entry of x; NaN when there is none."""
    finite = x[np.isfinite(x)]
    return float(finite.max()) if finite.size else np.nan


@dataclass(frozen=True)
class FrequencyResponse:
    """Transfer matrices on a grid, an (n_points, n_c, n_b) array, and their 2-norms.

    A skipped point's matrix and norm are NaN.
    """

    omegas: np.ndarray
    values: np.ndarray
    norms: np.ndarray

    @property
    def hinf_sample(self):
        """Grid maximum of the 2-norms; a lower bound on the true Hinf norm."""
        return _finite_max(self.norms)


@dataclass(frozen=True)
class SweepResult:
    """Exact and reduced responses on one grid, and how they were computed.

    ``errors`` is sigma_max(F - F_m) per point, NaN at a skipped point.
    ``workers`` counts the threads of the sweep, ``factorizations`` the
    shifted factorizations attempted, one per anchor, and ``fallbacks``
    the anchors beyond one per group.
    """

    full: FrequencyResponse
    reduced: FrequencyResponse
    errors: np.ndarray
    workers: int
    factorizations: int
    fallbacks: int

    @property
    def hinf_sample(self):
        """Grid maximum of the error; a lower bound on the true Hinf error norm."""
        return _finite_max(self.errors)

    @property
    def skipped(self):
        """Indices of the skipped points, as Python ints."""
        return np.flatnonzero(np.isnan(self.errors)).tolist()


def _process_cpus():
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _sweep_groups(omegas):
    """Consecutive index ranges of the grid, each within one decade.

    Point i joins group floor(log10(omega_i / omega_0)), except that the
    last point closes the last full decade instead of opening one of its
    own: the default 200-point grid over ten decades gives 10 groups of
    20.  The rule reads the grid only.
    """
    decades = np.log10(omegas / omegas[0])
    # A last point past a decade boundary by rounding only opens no group.
    last = max(int(np.ceil(decades[-1] - 1e-9)) - 1, 0)
    label = np.minimum(np.floor(decades), last)
    bounds = [0, *(np.flatnonzero(np.diff(label)) + 1), len(omegas)]
    return [range(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _projected_solve(lhs, rhs):
    """(y, reciprocal 1-norm condition of lhs) with lhs y = rhs; (None, 0) if lhs is singular."""
    getrf, getrs, gecon = la.get_lapack_funcs(("getrf", "getrs", "gecon"), (lhs,))
    lu, piv, info = getrf(lhs)
    if info != 0:
        return None, 0.0
    return getrs(lu, piv, rhs)[0], gecon(lu, la.norm(lhs, 1))[0]


def _shifted_krylov(solve, sys_, x0, sigma, shifts):
    """{i: C x(s_i)} for the shifts s_i it accepts, from the solves at sigma.

    With S the saddle solve at sigma, the solution x(s) of the block at s
    satisfies (I - (sigma - s) S M) x(s) = S B = x0 = Q_0 R_0.  One block
    Arnoldi process on S M from Q_0 (``kernels.block_gram_schmidt``:
    full classical Gram-Schmidt, repeated when a column's norm drops) gives
    S M V_k = V_k H_k + Q_k R_k E_k^T (Q_k R_k the QR of the k-th step's
    orthogonalized block), so the Galerkin solution V_k y of
    (I - (sigma - s) H_k) y = E_1 R_0 leaves the residual
    (sigma - s) Q_k R_k y_last, known without forming V_k y.  Each block
    step solves the projected systems of all open shifts in one batched
    call; a shift whose projected matrix is exactly singular (a zero
    determinant) drops out of that step's batch and stays open.  A shift
    is accepted once its residual is at most ``SWEEP_TOL`` ||R_0||, with
    C x(s) = (C V_k) y, unless its projected matrix has a reciprocal
    condition below ``SWEEP_RCOND``; a shift still open after
    ``SWEEP_BLOCKS`` steps, or after the null(G^T) the basis lives in is
    spanned, is left out.  The basis is allocated once, at its cap.
    """
    n_v, nb = x0.shape
    blocks = min(SWEEP_BLOCKS, (n_v - sys_.n_p) // nb)
    basis = np.empty((n_v, blocks * nb), dtype=complex, order="F")
    hess = np.zeros(((blocks + 1) * nb, blocks * nb), dtype=complex)
    cv = np.empty((sys_.n_c, blocks * nb), dtype=complex)
    q, r0 = np.linalg.qr(x0)
    tol = SWEEP_TOL * la.norm(r0)
    open_ = dict(shifts)
    done = {}
    for k in range(1, blocks + 1):
        if not open_:
            break
        cols = k * nb
        basis[:, cols - nb : cols] = q
        cv[:, cols - nb : cols] = sys_.C @ q
        v = basis[:, :cols]
        w = solve(sys_.M @ q)
        hess[:cols, cols - nb : cols], w = kernels.block_gram_schmidt(w, v)
        q, r = np.linalg.qr(w)
        hess[cols : cols + nb, cols - nb : cols] = r
        rhs = np.zeros((cols, nb), dtype=complex)
        rhs[:nb] = r0
        gap = sigma - np.array(list(open_.values()))
        lhs = np.eye(cols) - gap[:, None, None] * hess[:cols, :cols]
        regular = np.linalg.slogdet(lhs)[0] != 0
        keys = [i for i, ok in zip(open_, regular) if ok]
        if not keys:
            continue
        gap, lhs = gap[regular], lhs[regular]
        y = np.linalg.solve(lhs, rhs)
        residual = np.abs(gap) * np.linalg.norm(r @ y[:, -nb:], axis=(1, 2))
        for j in np.flatnonzero(residual <= tol):
            del open_[keys[j]]
            if _projected_solve(lhs[j], rhs)[1] >= SWEEP_RCOND:
                done[keys[j]] = cv[:, :cols] @ y[j]
    return done


def _group_responses(pair, model, omegas, group):
    """(rows, anchors): one finished row per point of the group, and its anchor count.

    A row is (F, F_m, ||F||_2, ||F_m||_2, ||F - F_m||_2), all NaN for a
    skipped point: one no anchor served, or on a reduced-model pole.  The
    middle open point is the anchor: its response is C S B (``_anchor``),
    and ``_shifted_krylov`` serves the open points it accepts; the rest
    stay open for the next.  An anchor that hits the spectrum is skipped.
    Each anchor is dropped before the next.
    """
    full = {}
    open_ = list(group)
    anchors = 0
    while open_:
        anchor = open_[len(open_) // 2]
        sigma = 1j * omegas[anchor]
        shifts = {i: 1j * omegas[i] for i in open_ if i != anchor}
        anchors += 1
        try:
            solve, x0 = _anchor(pair, sigma)
        except SingularShift:
            open_ = list(shifts)
            continue
        full[anchor] = pair.sys.C @ x0
        full.update(_shifted_krylov(solve, pair.sys, x0, sigma, shifts))
        del solve
        open_ = [i for i in shifts if i not in full]
    nan = np.full((model.n_outputs, model.n_inputs), np.nan, dtype=complex)
    rows = []
    for i in group:
        try:
            f, g = full[i], eval_reduced_tf(model, 1j * omegas[i])
        except (KeyError, SingularShift):
            rows.append((nan, nan, np.nan, np.nan, np.nan))
            continue
        rows.append((f, g, la.norm(f, 2), la.norm(g, 2), la.norm(f - g, 2)))
    return rows, anchors


def frequency_sweep(system, model, w_lo=1e-5, w_hi=1e5, n_points=200):
    """Sample the exact and reduced responses over a log-spaced grid.

    ``system`` is a DescriptorSystem or a ClosedLoopSystem.  Records
    sigma_max(F(jw) - F_m(jw)) per point.  The worker of a point's group
    finishes it (``_group_responses``); this function only stacks the
    rows, so ``values`` are (n_points, n_c, n_b) arrays.  A point that
    hits the spectrum or a reduced-model pole is a NaN row, listed in
    ``skipped``, and the sweep continues.  ``hinf_sample`` is the grid
    maximum of the error, a lower bound on the true Hinf error norm.

    The grid is cut into groups of consecutive points within one decade
    (``_sweep_groups``; 10 groups of 20 on the default grid).  Each group
    costs one complex shifted factorization, at its middle point sigma: a
    shifted block Krylov process on the solves at sigma gives the full
    responses at the other points (``_shifted_krylov``, one batched
    projected solve per block step), each accepted once its residual is
    below 1e-13 of the start block's, and within about 1e-13 relative of
    the per-shift ``eval_full_tf``.  A point not accepted within
    ``SWEEP_BLOCKS`` block steps, whose projected matrix is numerically
    singular, or whose anchor hits the spectrum stays open for the next
    anchor, the middle open point, so a point on the spectrum is skipped.

    The groups are evaluated by a pool of one thread per CPU of the
    process's affinity mask (at most one per group; ``workers`` records
    the count).  SuperLU releases the interpreter lock, so the anchor
    factorizations and solves run in parallel; peak memory grows by one
    anchor factorization and basis per extra worker.  Each group is
    computed alone and collected in grid order, so the result does not
    depend on the number of workers, bit for bit.
    """
    integral = isinstance(n_points, numbers.Integral) and not isinstance(n_points, bool)
    if not integral or n_points < 1:
        raise DimensionMismatch(f"n_points must be a positive integer, got {n_points!r}")
    if not w_lo > 0:
        raise DimensionMismatch(f"w_lo must be positive, got {w_lo}")
    if not w_lo < w_hi < np.inf:
        raise DimensionMismatch(f"need w_lo < w_hi < inf, got {w_lo}, {w_hi}")
    omegas = np.logspace(np.log10(w_lo), np.log10(w_hi), n_points)
    groups = _sweep_groups(omegas)
    pair = as_pair(system)
    workers = max(1, min(_process_cpus(), len(groups)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(
            pool.map(lambda g: _group_responses(pair, model, omegas, g), groups)
        )
    rows = [row for group_rows, _ in results for row in group_rows]
    full, reduced, full_norms, red_norms, errors = map(np.array, zip(*rows))
    factorizations = sum(n for _, n in results)
    return SweepResult(
        full=FrequencyResponse(omegas=omegas, values=full, norms=full_norms),
        reduced=FrequencyResponse(omegas=omegas, values=reduced, norms=red_norms),
        errors=errors,
        workers=workers,
        factorizations=factorizations,
        fallbacks=factorizations - len(groups),
    )


def write_sweep_csv(path, sweep):
    """One row per grid point: omega, norm_full, norm_reduced, error."""
    columns = (sweep.full.omegas, sweep.full.norms, sweep.reduced.norms, sweep.errors)
    write_csv(path, ["omega", "norm_full", "norm_reduced", "error"], zip(*columns))
