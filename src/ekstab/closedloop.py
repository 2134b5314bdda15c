"""Stabilized-system machinery: closed-loop reduction and simulation.

The closed loop A - B K is a rank-n_b update of the open loop.  It is
reduced on the open-loop Arnoldi basis, and its saddle problems
[[W - c B K, G], [G^T, 0]] are solved with the factorization of the
uncorrected block plus a rank-n_b Sherman-Morrison-Woodbury update
(``OperatorPair.solver``), so the dense product B K is never assembled.
An implicit-Euler step is one plain solve S with the factors of M - h A
and then v = y + (h S'B)(u - K y), S' the solve with M - h (A - B K):
the input and the gain both enter through S'B, which the same seam
(``OperatorPair.solver``) makes once per run (``_implicit_euler``).
"""

import csv
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from . import kernels
from .arnoldi import FORWARD, OperatorPair, as_pair, ekba_basis
from .errors import (
    DimensionMismatch,
    InvalidInitialState,
    ParseError,
    SimulationDiverged,
)
from .reduction import STATE_SPACE, build_reduced
from .sysmodel import write_csv


class ClosedLoopSystem(OperatorPair):
    """Descriptor system with a low-rank LQR feedback A -> A - B K.

    The forward pair holding the gain only as its n_b x n_v array,
    ``k_matrix`` (``gain.matrix()``).  Its products (``apply``) and its
    saddle solves, each SMW corrector built on first use, are those of
    A - B K; the mass and identity solves hold no A and are the open
    loop's.  ``ekba_init`` refuses it, and ``reduce_closed_loop`` reduces
    it on the open-loop basis.
    """

    def __init__(self, sys_, gain):
        if (gain.n_b, gain.n_v) != (sys_.n_b, sys_.n_v):
            raise DimensionMismatch(
                f"gain is {gain.n_b} x {gain.n_v}, system needs {sys_.n_b} x {sys_.n_v}"
            )
        super().__init__(sys_)
        self.k_matrix = gain.matrix()

    def euler_corrector(self, h):
        """Solve function for M - h (A - B K)  =  (M - h A) + h B K."""
        return self.solver("euler", h)


def reduce_closed_loop(cl, m, form=STATE_SPACE):
    """Extended Arnoldi reduction of the stabilized system.

    K acts only through span B, so the basis is the open-loop one: (A - B K)
    B lies in span{B, A B} and (A - B K)^-1 B = A^-1 B (I - K A^-1 B)^-1.
    Returns it and the open-loop model with a <- a - b (K V), in either form.
    """
    basis = ekba_basis(cl.sys, m, FORWARD)
    model = build_reduced(basis, form)
    kv = cl.k_matrix @ basis.V(basis.steps)
    return basis, replace(model, a=model.a - model.b @ kv)


def constant_input(values):
    """u(t) = values for all t."""
    return step_input(values, -np.inf)


def step_input(values, t_on=0.0):
    """u(t) = values once t >= t_on, zero before."""
    return sampled_input([t_on], [np.atleast_1d(values)])


def zero_input(n_b):
    return constant_input(np.zeros(n_b))


def sampled_input(times, values):
    """Zero-order hold through sample points (zero before the first)."""
    times = np.asarray(times, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    zero = np.zeros(values.shape[1])

    def u(t):
        i = np.searchsorted(times, t, side="right") - 1
        return values[i] if i >= 0 else zero

    return u


def read_input_csv(path):
    """Input signal from a CSV with columns t, u_1..u_nb (zero-order hold).

    Times must increase strictly and every entry must be finite, else the
    hold would serve the wrong sample or a NaN; either is a ParseError.
    """
    times, rows = [], []
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None or not header or header[0].strip() != "t":
                raise ParseError(f"input CSV {path} must start with a 't' header")
            for row in reader:
                if not row:
                    continue
                times.append(float(row[0]))
                rows.append([float(v) for v in row[1:]])
        times, rows = np.asarray(times), np.asarray(rows)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read input CSV {path}: {exc}") from exc
    if not (np.isfinite(times).all() and np.isfinite(rows).all()):
        raise ParseError(f"input CSV {path} has a non-finite entry")
    if np.any(np.diff(times) <= 0.0):
        raise ParseError(f"input CSV {path}: times must increase strictly")
    return sampled_input(times, rows)


def _sample_input(u, times, table):
    """Fill ``table``, one row of n_b entries per time, with the input's samples.

    ``None`` is zero.  An array or scalar is read flat and held for all t;
    one entry is broadcast to all n_b.  A callable is called once at each
    time.  Every sample must have shape (n_b,), else it is a
    DimensionMismatch: this is the one width check of every input.  A
    non-finite sample is kept; the step it enters diverges.
    """
    n_b = table.shape[1]
    if not callable(u):
        flat = np.ravel(np.asarray(0.0 if u is None else u, dtype=float))
        u = constant_input(np.full(n_b, flat[0]) if flat.size == 1 else flat)
    for k, t in enumerate(times):
        sample = u(t)
        if np.shape(sample) != (n_b,):
            raise DimensionMismatch(
                f"input at t = {t:.6g} has shape {np.shape(sample)}, expected ({n_b},)"
            )
        table[k] = sample


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid simulation record: outputs y(t_k) and applied inputs u(t_k).

    ``states`` holds the velocity iterates when requested, None otherwise.
    """

    times: np.ndarray
    outputs: np.ndarray
    inputs: np.ndarray
    states: np.ndarray | None = None


def _implicit_euler(stepping, mass, n_b, c, u, h, t_end, v, blowup, keep_states=False):
    """Implicit Euler (mass - h (a - b k)) v_k = mass v_{k-1} + h b u(t_k), y_k = c v_k.

    A step is the one plain solve y = S(mass v_{k-1}), S the solve with the
    uncorrected stepping matrix mass - h a, and then
    v_k = y + (h S'b)(u(t_k) - k y), S' the solve with mass - h (a - b k):
    by Sherman-Morrison-Woodbury S' = S - S b C^-1 h k S with
    C = I + h k S b, so S'b = S b C^-1 and the two agree.  Without a gain
    k y is dropped and S' = S.  ``stepping(h)`` returns
    ``(solve, h S'b, k or None)``, formed once per run.

    ``stepping(h)`` is called once ``h`` and ``t_end`` are checked, the
    record is allocated and ``_sample_input`` has filled its input table
    (checking the input's width), so a bad step or input factors nothing.
    ``h`` and ``t_end`` must be finite and positive and make at least one
    step, and no more than an array can hold.  A state whose norm is not
    at most ``blowup``, NaN and inf included, raises SimulationDiverged;
    the steps run without overflow warnings, so that error is the only
    report of an overflowing step.
    """
    if not (0 < h < np.inf and 0 < t_end < np.inf):
        raise DimensionMismatch(f"need finite h > 0 and t_end > 0, got {h}, {t_end}")
    try:
        n_steps = int(round(t_end / h))
        times = h * np.arange(n_steps + 1)
        outputs = np.empty((n_steps + 1, c.shape[0]))
        inputs = np.empty((n_steps + 1, n_b))
        states = np.empty((n_steps + 1, v.size)) if keep_states else None
    except (OverflowError, ValueError, MemoryError) as exc:
        raise DimensionMismatch(f"h = {h} makes too many steps: {exc}") from exc
    if n_steps == 0:
        raise DimensionMismatch(f"h = {h} makes no step up to t_end = {t_end}")
    _sample_input(u, times, inputs)
    solve, hsb, gain = stepping(h)
    # An overflowing step is the blow-up check's one error, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, t in enumerate(times):
            if k:
                y = solve(mass @ v)
                v = y + hsb @ (inputs[k] if gain is None else inputs[k] - gain @ y)
                if not np.linalg.norm(v) <= blowup:
                    raise SimulationDiverged(f"state blew up at t = {t:.6g}")
            outputs[k] = c @ v
            if keep_states:
                states[k] = v
    return Trajectory(times=times, outputs=outputs, inputs=inputs, states=states)


def simulate_dae(sys_or_cl, u, h, t_end, v0=None, blowup=1e100, keep_states=False):
    """Implicit Euler on the index-2 DAE, one factorization for the run.

    Each step solves the stepping saddle system
    [[M - h A', G], [G^T, 0]] [v_{ k+1 }; *] = [M v_k + h B u_{k+1}; 0]
    with A' = A (open loop) or A - B K; the multiplier block is
    discarded, outputs are y_k = C v_k.  It is one plain solve with the
    factors of M - h A and then v = y + (h S'B)(u - K y), where S'B, the
    solve of B with M - h A', comes once per run from the pair's gain
    seam ``solver("euler", h, with_start=True)`` (see ``_implicit_euler``).
    The plain solve is ``kernels.solve_saddle`` as that module holds it
    when the run starts, so a wrapper installed there sees every step.
    ``u`` is None (zero), a scalar or an array read flat (one entry or
    n_b, held for all t), or a callable giving (n_b,) samples, called
    once per grid time.  An input of another width (DimensionMismatch)
    and an adjoint pair, whose start block is C^T (ModeMismatch from
    ``as_pair``), are rejected before anything is factored.  The scaling
    of the constraint blocks does not affect the returned velocity rows.
    """
    pair = as_pair(sys_or_cl)
    sys_ = pair.sys
    if v0 is None:
        v = np.zeros(sys_.n_v)
    else:
        v = np.asarray(v0, dtype=float).copy()
        # The sparse 2-norm needs two columns; one column's 2-norm is its length.
        gnorm = spla.norm(sys_.G, 2) if sys_.n_p > 1 else spla.norm(sys_.G)
        if sys_.n_p and np.linalg.norm(sys_.G.T @ v) > 1e-8 * max(
            np.linalg.norm(v), 1e-30
        ) * max(gnorm, 1e-30):
            raise InvalidInitialState("initial state violates G^T v0 = 0")

    def stepping(step):
        solve = partial(kernels.solve_saddle, sys_.saddle("euler", step))
        _, sb = pair.solver("euler", step, with_start=True)
        return solve, step * sb, pair.k_matrix

    return _implicit_euler(
        stepping, sys_.M.tocsr(), sys_.n_b, sys_.C, u, h, t_end, v, blowup,
        keep_states,
    )


def simulate_reduced(model, u, h, t_end, blowup=1e100):
    """Implicit Euler on a reduced model from a zero initial state.

    The same loop as ``simulate_dae``, with S the dense LU solve of
    mass - h a and S b from it.
    """
    mass = np.eye(model.order) if model.mass is None else model.mass

    def stepping(step):
        solve = partial(la.lu_solve, la.lu_factor(mass - step * model.a))
        return solve, step * solve(model.b), None

    return _implicit_euler(
        stepping, mass, model.b.shape[1], model.c, u, h, t_end,
        np.zeros(model.order), blowup,
    )


def cost_quadrature(traj):
    """Trapezoidal quadrature of (1/2) integral (y^T y + u^T u) dt."""
    integrand = np.sum(traj.outputs**2, axis=1) + np.sum(traj.inputs**2, axis=1)
    if not np.all(np.isfinite(integrand)):
        raise SimulationDiverged("trajectory contains non-finite samples")
    return 0.5 * float(np.trapezoid(integrand, traj.times))


def write_trajectory_csv(path, traj):
    """Columns t, y_1..y_nc, u_1..u_nb; one row per grid point."""
    header = ["t"] + [f"y_{i + 1}" for i in range(traj.outputs.shape[1])]
    header += [f"u_{i + 1}" for i in range(traj.inputs.shape[1])]
    write_csv(path, header, np.column_stack((traj.times, traj.outputs, traj.inputs)))
