"""Reduced models, transfer-function evaluation, and frequency sweeps.

Two reduced forms are built from an extended Arnoldi basis: the
state-space form driven by the projected-operator Hessenberg matrix
(cheapest; no products with the full system matrices) and the
generalized form from congruence projections of M and A.  An exact
transfer function at one shift takes one complex sparse saddle
factorization (``eval_full_tf``).  A frequency sweep serves its shifts
by shifted block Krylov processes, whose projected systems are solved
in one batch per block step: first two real ones, at sigma = 0 on the
stiffness solve and at sigma = infinity on the mass solve (the two
sides of the extended Krylov space, on factors the reduction already
made), then one per group of the shifts they leave open, on the
solves with a complex factorization at the group's middle open shift.
The dense projector is never formed.
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
    factorization plus an SMW correction.  An adjoint pair is a
    ModeMismatch from ``as_pair``, raised before anything is factored.
    One sparse factorization of the shifted saddle matrix, real for a
    float s, and n_b columns of solves; the sign of the constraint blocks
    only flips the discarded multiplier.  It is the sweep's anchor at
    one point.
    """
    pair = as_pair(system)
    return pair.sys.C @ _anchor(pair, s)[1]


def _solve_regular(lhs, rhs):
    """(y, regular): y[k] solves lhs[regular][k] y[k] = rhs, in one batch.

    ``regular`` marks the members of the stack ``lhs`` that are not
    exactly singular (a solve raises only on a zero determinant), and y
    holds their solutions only.  Batched, each member's solution is the
    same arithmetic, bit for bit, as its own.
    """
    try:
        return np.linalg.solve(lhs, rhs), np.ones(len(lhs), dtype=bool)
    except np.linalg.LinAlgError:
        regular = np.linalg.slogdet(lhs)[0] != 0
        return np.linalg.solve(lhs[regular], rhs), regular


def _reduced_responses(model, shifts):
    """(values, regular): c (s I - a)^-1 b (or c (s m - a)^-1 b) at every shift, in one batch.

    ``regular`` marks the shifts that are no reduced-model eigenvalue
    (``_solve_regular``); the value at one that is is NaN.
    """
    eye = np.eye(model.order) if model.mass is None else model.mass
    y, regular = _solve_regular(shifts[:, None, None] * eye - model.a, model.b)
    x = np.full((len(shifts), *model.b.shape), np.nan, dtype=y.dtype)
    x[regular] = y
    return model.c @ x, regular


def eval_reduced_tf(model, s):
    """Reduced transfer function c (s I - a)^-1 b (or c (s m - a)^-1 b)."""
    values, regular = _reduced_responses(model, np.array([s]))
    if not regular[0]:
        raise SingularShift(f"shift {s} is a reduced-model eigenvalue")
    return values[0]


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
    complex shifted factorizations attempted, one per anchor (the two
    real processes make none), and ``fallbacks`` the anchors beyond the
    first of each group of the points the real processes left open.
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


def _open_groups(omegas, open_):
    """Runs of consecutive points of ``open_``, each cut into equal parts of at most a decade.

    The whole grid gives the groups of the real processes' windows and
    of the reduced responses: 10 groups of 20 on the default 200-point
    grid.  The points the real processes leave open give the anchors'
    groups; a run of them straddles decades, and cut at the grid's
    decades instead, a point or two past a decade edge made a group, and
    a factorization, of their own.  The rule reads the grid and the open
    points only; a last point past a decade by rounding only opens no
    part, and a run has no more parts than points.
    """
    runs = np.split(np.array(open_, dtype=int), np.flatnonzero(np.diff(open_) > 1) + 1)
    parts = []
    for run in runs:
        if run.size:
            decades = np.log10(omegas[run[-1]] / omegas[run[0]])
            parts += np.array_split(run, min(max(int(np.ceil(decades - 1e-9)), 1), run.size))
    return [p.tolist() for p in parts]


def _projected_solve(lhs, rhs):
    """(y, reciprocal 1-norm condition of lhs) with lhs y = rhs; (None, 0) if lhs is singular."""
    getrf, getrs, gecon = la.get_lapack_funcs(("getrf", "getrs", "gecon"), (lhs,))
    lu, piv, info = getrf(lhs)
    if info != 0:
        return None, 0.0
    return getrs(lu, piv, rhs)[0], gecon(lu, la.norm(lhs, 1))[0]


def _shifted_krylov(op, sys_, x0, windows, by_output=False):
    """{i: C y_i} for the shifts i it accepts, (I - c_i T) y_i = x0 with T = op.

    ``windows`` lists dicts {i: c_i}, one per group of shifts, in order
    from the process's sigma.  With x0 = Q_0 R_0, one block Arnoldi
    process on T from Q_0 (``kernels.block_gram_schmidt``: full classical
    Gram-Schmidt, repeated when a column's norm drops) gives
    T V_k = V_k H_k + Q_k R_k E_k^T (Q_k R_k the QR of the k-th step's
    orthogonalized block), so the Galerkin solution V_k y of
    (I - c H_k) y = E_1 R_0 leaves the residual c Q_k R_k y_last, known
    without forming V_k y.  Each block step solves the projected systems
    of the open shifts of the first window that has any in one batched
    call, and takes the next window in the same step once that one is
    closed, so a step's dense work is bounded by one group; a shift whose
    projected matrix is exactly singular (``_solve_regular``) drops out
    of that step and stays open.  A shift is accepted once its residual
    is at most ``SWEEP_TOL`` ||R_0||, and with ``by_output`` also at most
    ``SWEEP_TOL`` ||C y|| / ||C||_2: the residual relative to the
    response, for a process whose start block is not of the size of the
    responses it serves.  C y = (C V_k) y is
    kept unless the projected matrix has a reciprocal condition below
    ``SWEEP_RCOND``; a shift still open after ``SWEEP_BLOCKS`` steps, or
    after the null(G^T) the basis lives in is spanned, is left out.  The
    basis has the dtype of x0, so a real operator from a real start
    keeps it real, and is allocated once, at its cap.
    """
    n_v, nb = x0.shape
    blocks = min(SWEEP_BLOCKS, (n_v - sys_.n_p) // nb)
    basis = np.empty((n_v, blocks * nb), dtype=x0.dtype, order="F")
    hess = np.zeros(((blocks + 1) * nb, blocks * nb), dtype=x0.dtype)
    cv = np.empty((sys_.n_c, blocks * nb), dtype=x0.dtype)
    q, r0 = np.linalg.qr(x0)
    tol = SWEEP_TOL * la.norm(r0)
    c_norm = la.norm(sys_.C, 2) if by_output else None
    pending = [dict(w) for w in windows if w]
    done = {}
    for k in range(1, blocks + 1):
        if not pending:
            break
        cols = k * nb
        basis[:, cols - nb : cols] = q
        cv[:, cols - nb : cols] = sys_.C @ q
        v = basis[:, :cols]
        hess[:cols, cols - nb : cols], w = kernels.block_gram_schmidt(op(q), v)
        q, r = np.linalg.qr(w)
        hess[cols : cols + nb, cols - nb : cols] = r
        rhs = np.zeros((cols, nb), dtype=complex)
        rhs[:nb] = r0
        while pending:
            window = pending[0]
            keys = list(window)
            coef = np.array(list(window.values()))
            lhs = np.eye(cols) - coef[:, None, None] * hess[:cols, :cols]
            y, regular = _solve_regular(lhs, rhs)
            keys = [i for i, ok in zip(keys, regular) if ok]
            coef, lhs = coef[regular], lhs[regular]
            residual = np.abs(coef) * np.linalg.norm(r @ y[:, -nb:], axis=(1, 2))
            out = cv[:, :cols] @ y
            bound = tol
            if by_output:
                bound = np.minimum(tol, SWEEP_TOL * np.linalg.norm(out, axis=(1, 2)) / c_norm)
            for j in np.flatnonzero(residual <= bound):
                del window[keys[j]]
                if _projected_solve(lhs[j], rhs)[1] >= SWEEP_RCOND:
                    done[keys[j]] = out[j]
            if window:
                break
            pending.pop(0)
    return done


def _from_zero(pair, omegas, groups):
    """{i: F(j w_i)} served by the sigma = 0 process on the stiffness solve.

    With S the stiffness solve (of A - B K for a gain), x(s) solves
    (I - s S M) x(s) = -S B, a real operator from a real start; the
    groups are taken from the lowest up.  A singular stiffness block or
    capture matrix serves nothing.
    """
    try:
        solve, x0 = pair.solver("stiffness", with_start=True)
    except (SingularSaddle, SingularCapture):
        return {}
    windows = [{i: 1j * omegas[i] for i in g} for g in groups]
    served = _shifted_krylov(
        lambda q: solve(pair.apply_mass(q)), pair.sys, x0, windows, by_output=True
    )
    return {i: -f for i, f in served.items()}


def _from_infinity(pair, omegas, groups):
    """{i: F(j w_i)} served by the sigma = infinity process on the mass solve.

    With S_M the pair's mass solve and mu = 1/s, x(s) = mu y(s) with
    (I - mu S_M A') y(s) = S_M B, A' the pair's product (A - B K for a
    gain), a real operator from a real start; the groups are taken from
    the highest down.  A singular mass block serves nothing.
    """
    try:
        x0 = pair.solve_mass(pair.start)
    except SingularSaddle:
        return {}
    windows = [{i: 1 / (1j * omegas[i]) for i in reversed(g)} for g in reversed(groups)]
    served = _shifted_krylov(
        lambda q: pair.solve_mass(pair.apply(q)), pair.sys, x0, windows, by_output=True
    )
    return {i: f / (1j * omegas[i]) for i, f in served.items()}


def _group_responses(pair, omegas, group):
    """(full, anchors): {i: F(j w_i)} for the open points of a group it serves, and its anchor count.

    The middle open point is the anchor: its response is C S B
    (``_anchor``), and ``_shifted_krylov`` on S M serves the open points
    it accepts; the rest stay open for the next.  An anchor that hits
    the spectrum serves nothing.  Each anchor is dropped before the next.
    """
    full = {}
    open_ = list(group)
    anchors = 0
    while open_:
        anchor = open_[len(open_) // 2]
        sigma = 1j * omegas[anchor]
        coefs = {i: sigma - 1j * omegas[i] for i in open_ if i != anchor}
        anchors += 1
        try:
            solve, x0 = _anchor(pair, sigma)
        except SingularShift:
            open_ = list(coefs)
            continue
        full[anchor] = pair.sys.C @ x0
        full.update(_shifted_krylov(lambda q: solve(pair.apply_mass(q)), pair.sys, x0, [coefs]))
        del solve
        open_ = [i for i in coefs if i not in full]
    return full, anchors


def frequency_sweep(system, model, w_lo=1e-5, w_hi=1e5, n_points=200):
    """Sample the exact and reduced responses over a log-spaced grid.

    ``system`` is a DescriptorSystem or a forward operator pair such as a
    ClosedLoopSystem; an adjoint pair is a ModeMismatch from ``as_pair``,
    raised before anything is factored.  Records
    sigma_max(F(jw) - F_m(jw)) per point.  A point that hits the spectrum
    or a reduced-model pole is a NaN row, listed in ``skipped``, and the
    sweep continues.  ``hinf_sample`` is the grid maximum of the error, a
    lower bound on the true Hinf error norm.

    The full responses come from shifted block Krylov processes
    (``_shifted_krylov``, one batched projected solve per block step).
    Two real processes run first, on the mass and stiffness factors the
    reduction already made, so they make no complex factorization: one
    at sigma = 0 on the stiffness solve (``_from_zero``), one at
    sigma = infinity on the mass solve (``_from_infinity``).  Each takes
    its groups in order from its sigma and accepts a point once its
    residual is below 1e-13 of the start block's and of the response's.
    The points they leave open go to anchors: they are cut into groups,
    each run of consecutive open points into equal parts of at most a
    decade (``_open_groups``), and each group costs one complex shifted
    factorization at its middle open point sigma, whose process serves
    its open points once their residual is below 1e-13 of its start
    block's (``_group_responses``).  Either way a full value is
    within about 1e-13 relative of the per-shift ``eval_full_tf``.  A
    point an anchor does not accept within ``SWEEP_BLOCKS`` block steps,
    whose projected matrix is numerically singular, or whose anchor hits
    the spectrum stays open for the next anchor, the middle open point,
    so a point on the spectrum is skipped.  A singular stiffness block or
    capture matrix leaves the sigma = 0 process's points to the others,
    and a singular mass block the sigma = infinity process's.
    The reduced responses are one batched call per group
    (``_reduced_responses``; one call for the whole grid held a stack of
    n_points reduced-order matrices, 40 MB at order 80), and the three
    2-norms of every point one call.

    The two real processes, then the groups of open points and the
    reduced responses, run on a pool of one thread per CPU of the process's affinity mask (at most one
    per group; ``workers`` records the count).  SuperLU releases the
    interpreter lock, so the factorizations and solves run in parallel;
    peak memory grows by one anchor factorization and basis per extra
    worker.  Each task is computed alone and merged in a fixed order (the
    sigma = 0 value wins a point both real processes serve), so the
    result does not depend on the number of workers, bit for bit.
    """
    integral = isinstance(n_points, numbers.Integral) and not isinstance(n_points, bool)
    if not integral or n_points < 1:
        raise DimensionMismatch(f"n_points must be a positive integer, got {n_points!r}")
    if not w_lo > 0:
        raise DimensionMismatch(f"w_lo must be positive, got {w_lo}")
    if not w_lo < w_hi < np.inf:
        raise DimensionMismatch(f"need w_lo < w_hi < inf, got {w_lo}, {w_hi}")
    omegas = np.logspace(np.log10(w_lo), np.log10(w_hi), n_points)
    groups = _open_groups(omegas, range(n_points))
    pair = as_pair(system)
    workers = max(1, min(_process_cpus(), len(groups)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        zero, infinity = pool.map(
            lambda serve: serve(pair, omegas, groups), (_from_zero, _from_infinity)
        )
        full = {**infinity, **zero}
        left = _open_groups(omegas, [i for i in range(n_points) if i not in full])
        results = pool.map(lambda g: _group_responses(pair, omegas, g), left)
        # Queued behind the anchors, so a worker whose anchors are done takes them.
        chunks = pool.map(lambda g: _reduced_responses(model, 1j * omegas[g]), groups)
        results = list(results)
        reduced, regular = map(np.concatenate, zip(*chunks))
    for served, _ in results:
        full.update(served)
    factorizations = sum(n for _, n in results)
    rows = np.array([i in full for i in range(n_points)]) & regular
    values = np.full(reduced.shape, np.nan, dtype=complex)
    values[rows] = [full[i] for i in np.flatnonzero(rows)]
    reduced[~rows] = np.nan
    norms = np.full((3, n_points), np.nan)
    stack = np.concatenate([values[rows], reduced[rows], values[rows] - reduced[rows]])
    norms[:, rows] = np.linalg.norm(stack, 2, axis=(1, 2)).reshape(3, -1)
    return SweepResult(
        full=FrequencyResponse(omegas=omegas, values=values, norms=norms[0]),
        reduced=FrequencyResponse(omegas=omegas, values=reduced, norms=norms[1]),
        errors=norms[2],
        workers=workers,
        factorizations=factorizations,
        fallbacks=factorizations - len(left),
    )


def write_sweep_csv(path, sweep):
    """One row per grid point: omega, norm_full, norm_reduced, error."""
    columns = (sweep.full.omegas, sweep.full.norms, sweep.reduced.norms, sweep.errors)
    write_csv(path, ["omega", "norm_full", "norm_reduced", "error"], zip(*columns))
