"""Reduced models, transfer-function evaluation, and frequency sweeps.

Two reduced forms are built from an extended Arnoldi basis: the
state-space form driven by the projected-operator Hessenberg matrix
(cheapest; no products with the full system matrices) and the
generalized form from congruence projections of M and A.  Exact transfer
functions are evaluated through one complex sparse saddle factorization
per shift; the dense projector is never formed.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

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


@dataclass(frozen=True)
class ReducedModel:
    """Reduced LTI model in state-space or generalized form.

    State-space: v' = a v + b u, y = c v  (mass is None).
    Generalized: m v' = a v + b u, y = c v  with m symmetric positive
    definite inherited from the full mass matrix.
    """

    form: str
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
            form=form,
            a=basis.Tm(order),
            b=projected_input(basis, order),
            c=c,
        )
    if form == GENERALIZED:
        return ReducedModel(
            form=form,
            a=V.T @ basis.ops.apply(V),
            b=V.T @ basis.ops.start,
            c=c,
            mass=V.T @ basis.ops.apply_mass(V),
        )
    raise ModeMismatch(f"unknown reduced form {form!r}")


def eval_full_tf(system, s):
    """Exact transfer function [C 0] [[sM-A, -G], [-G^T, 0]]^-1 [B; 0].

    ``system`` is a DescriptorSystem or an operator pair; for a
    ClosedLoopSystem A is A - B K, solved through the shifted
    factorization plus an SMW correction.  One complex sparse
    factorization of the shifted saddle matrix and n_b solves; the sign
    of the constraint blocks only flips the discarded multiplier.
    """
    pair = as_pair(system)
    try:
        x = pair.solver("shifted", s)(pair.sys.B.astype(complex))
    except (SingularSaddle, SingularCapture) as exc:
        raise SingularShift(f"shift {s} hits the pencil spectrum: {exc}") from exc
    return pair.sys.C @ x


def eval_reduced_tf(model, s):
    """Reduced transfer function c (s I - a)^-1 b (or c (s m - a)^-1 b)."""
    lhs = s * np.eye(model.order) if model.mass is None else s * model.mass
    try:
        x = la.solve(lhs - model.a, model.b.astype(complex))
    except la.LinAlgError as exc:
        raise SingularShift(f"shift {s} is a reduced-model eigenvalue") from exc
    return model.c @ x


@dataclass(frozen=True)
class FrequencyResponse:
    """Per-frequency transfer matrices and their largest singular values."""

    omegas: np.ndarray
    values: list
    norms: np.ndarray

    @property
    def hinf_sample(self):
        """Grid maximum of the 2-norms; a lower bound on the true Hinf norm."""
        finite = self.norms[np.isfinite(self.norms)]
        return float(finite.max()) if finite.size else np.nan


@dataclass(frozen=True)
class SweepResult:
    """Exact and reduced responses on one grid, and the threads that ran it."""

    full: FrequencyResponse
    reduced: FrequencyResponse
    errors: np.ndarray
    hinf_sample: float
    workers: int
    skipped: list = field(default_factory=list)


def _process_cpus():
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _responses(system, model, w):
    """(F(jw), F_m(jw)), or None where jw hits either spectrum."""
    s = 1j * w
    try:
        return eval_full_tf(system, s), eval_reduced_tf(model, s)
    except SingularShift:
        return None


def frequency_sweep(system, model, w_lo=1e-5, w_hi=1e5, n_points=200):
    """Sample the exact and reduced responses over a log-spaced grid.

    ``system`` is a DescriptorSystem or a ClosedLoopSystem.  Records
    sigma_max(F(jw) - F_m(jw)) per point; a shift that hits the spectrum
    is recorded in ``skipped`` and the sweep continues.  ``hinf_sample``
    is the grid maximum of the error, a lower bound on the true Hinf
    error norm.

    The points are evaluated by a pool of one thread per CPU of the
    process's affinity mask (at most one per point; ``workers`` records
    the count).  SuperLU releases the interpreter lock, so the shifted
    factorizations run in parallel; peak memory grows by one shifted
    factorization per extra worker.  Each point is computed alone and
    collected in grid order, so the result does not depend on the number
    of workers, bit for bit.
    """
    if not w_lo > 0:
        raise DimensionMismatch(f"w_lo must be positive, got {w_lo}")
    if not w_lo < w_hi < np.inf:
        raise DimensionMismatch(f"need w_lo < w_hi < inf, got {w_lo}, {w_hi}")
    omegas = np.logspace(np.log10(w_lo), np.log10(w_hi), n_points)
    workers = max(1, min(_process_cpus(), n_points))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        points = list(pool.map(lambda w: _responses(system, model, w), omegas))
    shape = (model.n_outputs, model.n_inputs)
    full_vals, red_vals = [], []
    full_norms = np.full(n_points, np.nan)
    red_norms = np.full(n_points, np.nan)
    errors = np.full(n_points, np.nan)
    skipped = []
    for i, point in enumerate(points):
        if point is None:
            skipped.append(i)
            full_vals.append(np.full(shape, np.nan, dtype=complex))
            red_vals.append(np.full(shape, np.nan, dtype=complex))
            continue
        f, g = point
        full_vals.append(f)
        red_vals.append(g)
        full_norms[i] = la.norm(f, 2)
        red_norms[i] = la.norm(g, 2)
        errors[i] = la.norm(f - g, 2)
    finite = errors[np.isfinite(errors)]
    return SweepResult(
        full=FrequencyResponse(omegas=omegas, values=full_vals, norms=full_norms),
        reduced=FrequencyResponse(omegas=omegas, values=red_vals, norms=red_norms),
        errors=errors,
        hinf_sample=float(finite.max()) if finite.size else np.nan,
        workers=workers,
        skipped=skipped,
    )


def write_sweep_csv(path, sweep):
    """One row per grid point: omega, norm_full, norm_reduced, error."""
    columns = (sweep.full.omegas, sweep.full.norms, sweep.reduced.norms, sweep.errors)
    write_csv(path, ["omega", "norm_full", "norm_reduced", "error"], zip(*columns))
