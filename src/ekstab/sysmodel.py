"""Descriptor-system data model, Matrix Market ingestion, and synthetic problems.

The central object is the sparse quintuple (M, A, G, B, C) of an index-2
DAE from a discretized incompressible-flow problem: M symmetric positive
definite, A generally nonsymmetric, G the full-column-rank discrete
gradient.  Systems are ingested pre-assembled from Matrix Market bundles
or generated synthetically on a 1-D or 2-D grid stencil.
"""

import csv
import os
import weakref
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.io as sio
import scipy.linalg as la
import scipy.sparse as sp

from . import kernels, oracle
from .errors import (
    DimensionMismatch,
    InfeasibleSpec,
    ParseError,
    RankDeficient,
    ValidationError,
)

SYM_TOL = 1e-12

MANIFEST_NAME = "system.manifest"
_MATRIX_KEYS = ("M", "A", "G", "B", "C")
# Significant digits of every artifact number: 17 read back as the same float.
DIGITS = 17


# One row per kind of saddle block [[W, G], [G^T, 0]]: W from the system s
# and the shift, whether the kind takes a shift, and the coefficient c of A
# in W that the feedback correction W - c B K reads (None: W holds no A).
_Kind = namedtuple("_Kind", "block takes_shift a_coef")
_SADDLE_KINDS = {
    "mass": _Kind(lambda s, _: s.M, False, None),
    "stiffness": _Kind(lambda s, _: s.A, False, lambda _: 1.0),
    "shifted": _Kind(lambda s, x: (x * s.M - s.A).tocsc(), True, lambda _: -1.0),
    "euler": _Kind(lambda s, h: (s.M - h * s.A).tocsc(), True, lambda h: -h),
    "identity": _Kind(lambda s, _: sp.identity(s.n_v, format="csc"), False, None),
}


@dataclass(frozen=True, eq=False)
class DescriptorSystem:
    """Index-2 descriptor system M v' = A v + G p + B u,  G^T v = 0,  y = C v.

    Making one refuses a NaN or Inf entry in M, A, G, B or C as a
    ValidationError (``finite: <key> ...``), however it is made; the
    other invariants are checked by ``validate``.
    """

    M: sp.csc_matrix
    A: sp.csc_matrix
    G: sp.csc_matrix
    B: np.ndarray
    C: np.ndarray
    _factors: weakref.WeakValueDictionary = field(
        default_factory=weakref.WeakValueDictionary,
        init=False,
        repr=False,
        compare=False,
    )

    def __post_init__(self):
        for key in _MATRIX_KEYS:
            mat = getattr(self, key)
            if not np.isfinite(mat.data if sp.issparse(mat) else mat).all():
                raise ValidationError(f"finite: {key} has a NaN or Inf entry")

    def saddle(self, kind, shift=None):
        """Sparse LU factors of the saddle block [[W, G], [G^T, 0]].

        ``kind`` selects W by its row of ``_SADDLE_KINDS``: "mass" (M),
        "stiffness" (A), "shifted" (shift M - A), "euler" (M - shift A)
        or "identity" (I, whose solve is the orthogonal projection onto
        null(G^T)).  An unknown kind, a shift given to a shiftless kind or
        a missing one is a DimensionMismatch, raised before anything is
        factored.  A factorization is held weakly, keyed by (kind, shift):
        every caller asking while another object still holds it gets the
        same factors, and it is freed with its last holder, so a
        long-lived system accumulates nothing.
        """
        row = _SADDLE_KINDS.get(kind)
        if row is None:
            raise DimensionMismatch(f"unknown saddle kind {kind!r}")
        if row.takes_shift != (shift is not None):
            need = "needs a shift" if row.takes_shift else "takes no shift"
            raise DimensionMismatch(f"saddle kind {kind!r} {need}, got {shift!r}")
        key = (kind, shift)
        fact = self._factors.get(key)
        if fact is None:
            W = row.block(self, shift)
            fact = kernels.factor_saddle(W, self.G, kind=kind)
            self._factors[key] = fact
        return fact

    @property
    def n_v(self):
        return self.M.shape[0]

    @property
    def n_p(self):
        return self.G.shape[1]

    @property
    def n_b(self):
        return self.B.shape[1]

    @property
    def n_c(self):
        return self.C.shape[0]

    @property
    def dims(self):
        return (self.n_v, self.n_p, self.n_b, self.n_c)

    def validate(self):
        """Check the structural invariants, naming the violated one on failure.

        Shapes come first: M and A square n_v x n_v, G with n_v rows and
        n_p < n_v columns (n_p = 0 is allowed), B n_v x n_b and C
        n_c x n_v with n_b, n_c >= 1.  Then M must be symmetric within
        ``SYM_TOL`` relative in the Frobenius norm, and at desk scale
        (n_v <= ``oracle.size_cap()``, 500 unless ``EKSTAB_ORACLE_CAP``
        moves it) positive definite with G of full column rank.  A
        malformed cap is a ParseError.  Returns the system.
        """
        n_v = self.M.shape[0]
        if self.M.shape != (n_v, n_v) or self.A.shape != (n_v, n_v):
            raise ValidationError(
                f"dimension: M {self.M.shape} and A {self.A.shape} must be "
                f"{n_v} x {n_v}"
            )
        if self.G.shape[0] != n_v:
            raise ValidationError(
                f"dimension: G has {self.G.shape[0]} rows, expected {n_v}"
            )
        if self.B.ndim != 2 or self.B.shape[0] != n_v or not self.n_b:
            raise ValidationError(f"dimension: B shape {self.B.shape}")
        if self.C.ndim != 2 or self.C.shape[1] != n_v or not self.n_c:
            raise ValidationError(f"dimension: C shape {self.C.shape}")
        if not self.n_p < n_v:
            raise ValidationError(f"dimension: n_p = {self.n_p} must be < n_v = {n_v}")
        nrm = sp.linalg.norm(self.M)
        asym = sp.linalg.norm(self.M - self.M.T)
        if asym > SYM_TOL * nrm:
            raise ValidationError(
                f"symmetry: ||M - M^T|| = {asym:.3e} exceeds {SYM_TOL:.0e} * ||M||"
            )
        if n_v <= oracle.size_cap():
            w = la.eigvalsh(self.M.toarray())
            if w.min() <= 0.0:
                raise ValidationError(
                    f"spd: smallest eigenvalue of M is {w.min():.3e}"
                )
            if self.n_p:
                try:
                    kernels.thin_qr(self.G.toarray())
                except RankDeficient as exc:
                    raise ValidationError(
                        f"rank: G is column rank deficient ({exc})"
                    ) from exc
        return self


def _read_matrix(path, dense=False):
    """The matrix of an array- or coordinate-format Matrix Market file.

    CSC, or a 2-D float array if ``dense``.  The header is read first: a
    complex field, or an array-format file with no entries, is a
    ParseError before the body is read (real, integer and pattern fields
    load).  The entries are only read: a NaN or Inf one is refused by
    the object made from them (``DescriptorSystem``, ``FeedbackGain``).
    """
    try:
        rows, cols, _, fmt, kind, _ = sio.mminfo(path)
        if kind == "complex" or (fmt == "array" and not rows * cols):
            raise ParseError(
                f"unsupported Matrix Market file {path}: {fmt} {kind} {rows} x {cols}"
            )
        mat = sio.mmread(path)
    except (ValueError, OSError, TypeError) as exc:
        raise ParseError(f"cannot read Matrix Market file {path}: {exc}") from exc
    if not dense:
        return sp.csc_matrix(mat)
    mat = mat.toarray() if sp.issparse(mat) else mat
    return np.atleast_2d(np.asarray(mat, dtype=float))


def _write_matrix(path, mat):
    """Matrix Market file of ``mat`` that ``_read_matrix`` reads back exactly."""
    sio.mmwrite(path, mat, precision=DIGITS)


def _csv_field(value):
    return f"{value:.{DIGITS}g}" if isinstance(value, (float, np.floating)) else value


def write_csv(path, header, rows):
    """CSV artifact: ``header``, then one line per row of ``rows``.

    Floats are written with ``DIGITS`` significant digits, so a read
    round-trips them; anything else (an iteration number) as it is.
    """
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([_csv_field(v) for v in row] for row in rows)


def load_system(paths, validate=True):
    """Assemble a DescriptorSystem from per-matrix Matrix Market files.

    ``paths`` maps the keys M, A, G, B, C to file paths; a missing key is
    a ParseError.  Each file is read by ``_read_matrix`` (B and C
    densified).  Making the system refuses a NaN or Inf entry, also with
    ``validate=False``; it is paid twice, since the symmetrizing
    ``replace`` makes the system again.  With ``validate`` the system, M
    as read, is checked by ``DescriptorSystem.validate``, the one
    structural check: shapes, M's symmetry within ``SYM_TOL``, then the
    desk-scale dense checks.  ``validate=False`` skips those.  The
    returned M is symmetrized exactly, (M + M^T) / 2.
    """
    missing = [k for k in _MATRIX_KEYS if k not in paths]
    if missing:
        raise ParseError(f"missing matrix paths: {missing}")
    M, A, G = (_read_matrix(paths[k]) for k in ("M", "A", "G"))
    B, C = (_read_matrix(paths[k], dense=True) for k in ("B", "C"))
    sys_ = DescriptorSystem(M=M, A=A, G=G, B=B, C=C)
    if validate:
        sys_.validate()
    return replace(sys_, M=((M + M.T) * 0.5).tocsc())


def read_key_values(path, what):
    """``key = value`` lines of a file as a dict; blank and '#' lines are skipped.

    ``what`` names the file in error messages ("manifest", "config").
    """
    entries = {}
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParseError(f"malformed {what} line in {path}: {line!r}")
                key, value = line.split("=", 1)
                entries[key.strip()] = value.strip()
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc
    return entries


def load_bundle(manifest_path, validate=True):
    """Load a system from a key-value manifest referencing the matrix files.

    A relative matrix path is taken from the manifest's directory, an
    absolute one as it is.  ``n_v`` and ``n_p``, when present, must be
    counts that match the loaded matrices; ``load_system`` reads and
    checks the rest.
    """
    entries = read_key_values(manifest_path, "manifest")
    base = os.path.dirname(os.path.abspath(manifest_path))
    paths = {k: os.path.join(base, entries[k]) for k in _MATRIX_KEYS if k in entries}
    for key in ("n_v", "n_p"):
        if not entries.get(key, "0").isdecimal():
            raise ParseError(
                f"manifest {manifest_path}: {key} = {entries[key]!r} is not a count"
            )
    sys_ = load_system(paths, validate=validate)
    for key in ("n_v", "n_p"):
        if key in entries and int(entries[key]) != getattr(sys_, key):
            raise ValidationError(
                f"dimension: manifest {key} = {entries[key]} does not match "
                f"loaded {getattr(sys_, key)}"
            )
    return sys_


def write_system(sys_, directory):
    """Write the five matrices plus a manifest; returns the manifest path.

    Each matrix is written by ``_write_matrix``, so a load round-trips the
    entries exactly.
    """
    os.makedirs(directory, exist_ok=True)
    for key in _MATRIX_KEYS:
        _write_matrix(os.path.join(directory, f"{key}.mtx"), getattr(sys_, key))
    manifest = os.path.join(directory, MANIFEST_NAME)
    with open(manifest, "w") as f:
        for key in _MATRIX_KEYS:
            f.write(f"{key} = {key}.mtx\n")
        f.write(f"n_v = {sys_.n_v}\n")
        f.write(f"n_p = {sys_.n_p}\n")
    return manifest


@dataclass(frozen=True)
class Unstable:
    """Request ``count`` finite pencil eigenvalues with real part >= ``shift``."""

    count: int
    shift: float


@dataclass(frozen=True)
class GridSpec:
    """2-D five-point-stencil construction on an nx x ny velocity grid."""

    nx: int
    ny: int
    viscosity: float = 1.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a synthetic stencil-local index-2 system."""

    n_v: int
    n_p: int
    n_b: int = 1
    n_c: int = 1
    seed: int = 0
    unstable: Unstable | None = None
    grid: GridSpec | None = None


def _laplacian_1d(n):
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csc")


def _mass_1d(n):
    return sp.diags([0.25, 1.0, 0.25], [-1, 0, 1], shape=(n, n), format="csc")


def _convection_1d(n):
    return sp.diags([-0.5, 0.5], [-1, 1], shape=(n, n), format="csc")


def _adjacency_1d(n):
    return sp.diags([1.0, 1.0], [-1, 1], shape=(n, n), format="csc")


def _grid_operators(grid):
    nx, ny = grid.nx, grid.ny
    ix, iy = sp.eye(nx, format="csc"), sp.eye(ny, format="csc")
    lap = sp.kron(_laplacian_1d(nx), iy) + sp.kron(ix, _laplacian_1d(ny))
    # Diagonally dominant neighbour-smoothed mass matrix: 1 - 4 * 0.125 > 0.
    mass = sp.eye(nx * ny, format="csc") + 0.125 * (
        sp.kron(_adjacency_1d(nx), iy) + sp.kron(ix, _adjacency_1d(ny))
    )
    conv = sp.kron(_convection_1d(nx), iy)
    return lap.tocsc(), mass.tocsc(), conv.tocsc()


def _gradient_pattern(n_v, n_p, grid=None):
    """Structurally full-rank sparse gradient-like matrix.

    Each column has a dominant anchor entry on a row no other column
    anchors, so the anchor-row submatrix is triangular with diagonal 2.
    On a grid the anchors are the even-even nodes, and the n_p columns
    take picks spread evenly over that whole lattice.
    """
    if grid is None:
        stride = n_v // max(n_p, 1)  # n_p < n_v, so at least 1
        anchors, steps = np.arange(n_p) * stride, np.array([0, 1])
    else:
        nx, ny = grid.nx, grid.ny
        lattice = (2 * ny * np.arange(nx // 2) + 2 * np.arange(ny // 2)[:, None]).ravel()
        if lattice.size < n_p:
            raise InfeasibleSpec(
                f"grid {nx} x {ny} admits at most {lattice.size} pressure nodes"
            )
        picks = ((np.arange(n_p) + 0.5) * lattice.size / n_p).astype(int)
        anchors, steps = lattice[picks], np.array([0, 1, ny])
    # Column p: 2 on its anchor row, -1 on each row ``steps`` past it that exists.
    rows = anchors[:, None] + steps
    cols = np.broadcast_to(np.arange(n_p)[:, None], rows.shape)
    vals = np.broadcast_to(np.where(steps, -1.0, 2.0), rows.shape)
    keep = rows < n_v
    return sp.csc_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n_v, n_p))


def _stencil_skew(n_v, rng, grid=None, scale=0.2):
    """Seeded skew term R - R^T coupling each node to its east and north neighbours.

    Nodes are numbered ``ix * ny + iy``, so east is ``+ny`` and north is
    ``+1``; a node on the east or north edge has no such neighbour, so
    nothing wraps.  The 1-D family is the 1 x n_v grid: it couples i to
    i + 1.
    """
    nx, ny = (grid.nx, grid.ny) if grid is not None else (1, n_v)
    ix, iy = np.divmod(np.arange(n_v), ny)
    east = np.flatnonzero(ix < nx - 1)
    north = np.flatnonzero(iy < ny - 1)
    rows = np.concatenate([east, north])
    cols = np.concatenate([east + ny, north + 1])
    vals = scale * rng.standard_normal(rows.size)
    R = sp.csc_matrix((vals, (rows, cols)), shape=(n_v, n_v))
    return (R - R.T).tocsc()


def _plant_unstable(M, A, G, request):
    """Decouple ``request.count`` constraint-free nodes as exact unstable modes.

    The chosen nodes, spread evenly over those whose row of G is empty,
    lose every coupling in M and A and get M_ii = 1 and
    A_ii = shift * (1.25 + 0.25 j), so each e_i is an exact pencil
    eigenvector.  The rest of the pencil is a principal part of the
    stable one, so its symmetric part of A stays <= -0.5 and M <= 1.5:
    every other finite eigenvalue keeps Re <= -1/3.
    """
    k = request.count
    free = np.flatnonzero(np.diff(G.tocsr().indptr) == 0)
    if free.size < k:
        raise InfeasibleSpec(
            f"cannot place {k} unstable modes: only {free.size} velocity nodes "
            f"are free of the constraint (have an empty row of G)"
        )
    nodes = free[((np.arange(k) + 0.5) * free.size / k).astype(int)]
    keep = np.ones(M.shape[0])
    keep[nodes] = 0.0
    unit, targets = np.zeros_like(keep), np.zeros_like(keep)
    unit[nodes] = 1.0
    targets[nodes] = request.shift * (1.25 + 0.25 * np.arange(k))
    D = sp.diags(keep)
    M = (D @ M @ D + sp.diags(unit)).tocsc()
    return M, (D @ A @ D + sp.diags(targets)).tocsc()


def generate_synthetic(spec):
    """Build a deterministic synthetic index-2 system from a SyntheticSpec.

    Every coupling stays inside the five-point stencil (the 1-D family:
    the three-point one), so saddle factors fill like a grid problem.
    A = -nu lap - 0.5 I + conv + (R - R^T) with a seeded east/north skew
    term, M the neighbour-smoothed mass matrix, G the structural
    gradient pattern.  With nu >= 0 the symmetric part of A is <= -0.5
    and M <= 1.5, so every finite pencil eigenvalue has Re <= -1/3.
    Instability, when requested, is planted exactly on ``count``
    constraint-free nodes (see ``_plant_unstable``), so ``count`` is at
    most the number of empty rows of G; the planted spectrum is checked
    against the dense pencil for n_v <= ``oracle.size_cap()``.  The
    matrices are built without overflow warnings: a spec whose viscosity
    or shift overflows an entry is the system's one-line ValidationError
    ``finite: <key> has a NaN or Inf entry``.
    """
    if spec.n_v <= 0 or spec.n_p < 0 or spec.n_b <= 0 or spec.n_c <= 0:
        raise InfeasibleSpec(f"nonpositive dimensions in {spec}")
    if not spec.n_p < spec.n_v:
        raise InfeasibleSpec(f"n_p = {spec.n_p} must be < n_v = {spec.n_v}")
    if spec.seed < 0:
        raise InfeasibleSpec(f"seed must be nonnegative, got {spec.seed}")
    if spec.unstable is not None:
        if spec.unstable.count <= 0:
            raise InfeasibleSpec(
                f"unstable count must be positive, got {spec.unstable.count}"
            )
        if not 0.0 < spec.unstable.shift < np.inf:
            raise InfeasibleSpec(
                f"unstable shift must be positive and finite, got {spec.unstable.shift}"
            )
    rng = np.random.default_rng(spec.seed)
    n_v = spec.n_v
    if spec.grid is not None:
        if spec.grid.nx <= 0 or spec.grid.ny <= 0 or spec.grid.nx * spec.grid.ny != n_v:
            raise InfeasibleSpec(
                f"{spec.grid} needs positive sides with product n_v = {n_v}"
            )
        if not 0.0 <= spec.grid.viscosity < np.inf:
            raise InfeasibleSpec(
                f"viscosity must be nonnegative and finite, got {spec.grid.viscosity}"
            )
        lap, M, conv = _grid_operators(spec.grid)
        nu = spec.grid.viscosity
    else:
        lap, M, conv = _laplacian_1d(n_v), _mass_1d(n_v), _convection_1d(n_v)
        nu = 1.0
    # A spec that overflows is refused by the system's finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        A = (
            -nu * lap
            - 0.5 * sp.eye(n_v, format="csc")
            + conv
            + _stencil_skew(n_v, rng, spec.grid)
        ).tocsc()
        G = _gradient_pattern(n_v, spec.n_p, spec.grid)
        B = rng.standard_normal((n_v, spec.n_b))
        B /= la.norm(B, axis=0)
        C = rng.standard_normal((spec.n_c, n_v))
        C /= la.norm(C, axis=1)[:, None]
        if spec.unstable is not None:
            M, A = _plant_unstable(M, A, G, spec.unstable)
    sys_ = DescriptorSystem(M=M, A=A, G=G, B=B, C=C).validate()
    if spec.unstable is not None and n_v <= oracle.size_cap():
        _verify_unstable(sys_, spec.unstable)
    return sys_


def _verify_unstable(sys_, request):
    fin = oracle.pencil_finite_spectrum(sys_)
    n_above = int(np.sum(fin.real >= request.shift * (1.0 - 1e-9)))
    if n_above != request.count:
        raise InfeasibleSpec(
            f"spectral shift verification failed: {n_above} of "
            f"{fin.size} finite eigenvalues above {request.shift}"
        )
