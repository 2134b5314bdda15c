"""Descriptor-system data model, Matrix Market ingestion, and synthetic problems.

The central object is the sparse quintuple (M, A, G, B, C) of an index-2
DAE from a discretized incompressible-flow problem: M symmetric positive
definite, A generally nonsymmetric, G the full-column-rank discrete
gradient.  Systems are ingested pre-assembled from Matrix Market bundles
or generated synthetically for desk-scale testing.
"""

import os
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.io as sio
import scipy.linalg as la
import scipy.sparse as sp

from . import kernels
from .errors import (
    DimensionMismatch,
    InfeasibleSpec,
    ParseError,
    RankDeficient,
    ValidationError,
)

# Dense validation (SPD / rank checks) is only attempted up to this size.
VALIDATE_DENSE_CAP = 500
SYM_TOL = 1e-12

MANIFEST_NAME = "system.manifest"
_MATRIX_KEYS = ("M", "A", "G", "B", "C")


@dataclass(frozen=True, eq=False)
class DescriptorSystem:
    """Index-2 descriptor system M v' = A v + G p + B u,  G^T v = 0,  y = C v."""

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

    def saddle(self, kind, shift=None):
        """Sparse LU factors of the saddle block [[W, G], [G^T, 0]].

        ``kind`` selects W: "mass" (M), "stiffness" (A), "shifted"
        (shift M - A), "euler" (M - shift A) or "identity" (I, whose
        solve is the orthogonal projection onto null(G^T)).  A
        factorization is held weakly, keyed by (kind, shift): every
        caller asking while another object still holds it gets the same
        factors, and it is freed with its last holder, so a long-lived
        system accumulates nothing.
        """
        key = (kind, shift)
        fact = self._factors.get(key)
        if fact is None:
            if kind == "mass":
                W = self.M
            elif kind == "stiffness":
                W = self.A
            elif kind == "shifted":
                W = (shift * self.M - self.A).tocsc()
            elif kind == "euler":
                W = (self.M - shift * self.A).tocsc()
            elif kind == "identity":
                W = sp.identity(self.n_v, format="csc")
            else:
                raise DimensionMismatch(f"unknown saddle kind {kind!r}")
            fact = kernels.factor_saddle(W, self.G, kind=kind, shift=shift)
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

    def validate(self, dense_cap=VALIDATE_DENSE_CAP):
        """Check the structural invariants, naming the violated one on failure."""
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
        if self.B.ndim != 2 or self.B.shape[0] != n_v:
            raise ValidationError(f"dimension: B shape {self.B.shape}")
        if self.C.ndim != 2 or self.C.shape[1] != n_v:
            raise ValidationError(f"dimension: C shape {self.C.shape}")
        if not self.n_p < n_v:
            raise ValidationError(f"dimension: n_p = {self.n_p} must be < n_v = {n_v}")
        nrm = sp.linalg.norm(self.M)
        asym = sp.linalg.norm(self.M - self.M.T)
        if asym > SYM_TOL * nrm:
            raise ValidationError(
                f"symmetry: ||M - M^T|| = {asym:.3e} exceeds {SYM_TOL:.0e} * ||M||"
            )
        if n_v <= dense_cap:
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


def _read_matrix(path):
    try:
        mat = sio.mmread(path)
    except (ValueError, OSError, TypeError) as exc:
        raise ParseError(f"cannot read Matrix Market file {path}: {exc}") from exc
    return mat


def load_system(paths, validate=True):
    """Assemble a DescriptorSystem from per-matrix Matrix Market files.

    ``paths`` maps the keys M, A, G, B, C to file paths.  A NaN or Inf
    stored entry in any of them is rejected.  M is symmetrized when its
    relative asymmetry is below 1e-12 and rejected otherwise; B and C
    are densified.
    """
    missing = [k for k in _MATRIX_KEYS if k not in paths]
    if missing:
        raise ParseError(f"missing matrix paths: {missing}")
    raw = {k: _read_matrix(paths[k]) for k in _MATRIX_KEYS}
    M = sp.csc_matrix(raw["M"])
    A = sp.csc_matrix(raw["A"])
    G = sp.csc_matrix(raw["G"])
    B = np.atleast_2d(np.asarray(raw["B"].todense() if sp.issparse(raw["B"]) else raw["B"], dtype=float))
    C = np.atleast_2d(np.asarray(raw["C"].todense() if sp.issparse(raw["C"]) else raw["C"], dtype=float))
    # Before the symmetry check: a NaN norm compares False and passes it.
    for key, mat in zip(_MATRIX_KEYS, (M, A, G, B, C)):
        if not np.isfinite(mat.data if sp.issparse(mat) else mat).all():
            raise ValidationError(f"finite: {key} has a NaN or Inf entry")
    nrm = sp.linalg.norm(M)
    asym = sp.linalg.norm(M - M.T)
    if nrm > 0 and asym > SYM_TOL * nrm:
        raise ValidationError(
            f"symmetry: loaded M has relative asymmetry {asym / nrm:.3e}"
        )
    M = ((M + M.T) * 0.5).tocsc()
    sys_ = DescriptorSystem(M=M, A=A, G=G, B=B, C=C)
    if validate:
        sys_.validate()
    return sys_


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
    """Load a system from a key-value manifest referencing the matrix files."""
    entries = read_key_values(manifest_path, "manifest")
    base = os.path.dirname(os.path.abspath(manifest_path))
    paths = {}
    for key in _MATRIX_KEYS:
        if key not in entries:
            raise ParseError(f"manifest {manifest_path} is missing key {key}")
        p = entries[key]
        paths[key] = p if os.path.isabs(p) else os.path.join(base, p)
    sys_ = load_system(paths, validate=validate)
    for key, attr in (("n_v", "n_v"), ("n_p", "n_p")):
        if key in entries and int(entries[key]) != getattr(sys_, attr):
            raise ValidationError(
                f"dimension: manifest {key} = {entries[key]} does not match "
                f"loaded {getattr(sys_, attr)}"
            )
    return sys_


def write_system(sys_, directory):
    """Write the five matrices plus a manifest; returns the manifest path.

    Values are serialized with 17 significant digits so a load round-trips
    the entries exactly.
    """
    os.makedirs(directory, exist_ok=True)
    files = {
        "M": sys_.M,
        "A": sys_.A,
        "G": sys_.G,
        "B": sys_.B,
        "C": sys_.C,
    }
    for key, mat in files.items():
        sio.mmwrite(os.path.join(directory, f"{key}.mtx"), mat, precision=17)
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
    """Parameters of a synthetic desk-scale index-2 system."""

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
    """
    rows, cols, vals = [], [], []
    if grid is not None:
        nx, ny = grid.nx, grid.ny
        anchors = []
        for j in range(ny // 2):
            for i in range(nx // 2):
                anchors.append((2 * i) * ny + (2 * j))
        if len(anchors) < n_p:
            raise InfeasibleSpec(
                f"grid {nx} x {ny} admits at most {len(anchors)} pressure nodes"
            )
        for p in range(n_p):
            a = anchors[p]
            rows.append(a), cols.append(p), vals.append(2.0)
            if a + 1 < n_v:
                rows.append(a + 1), cols.append(p), vals.append(-1.0)
            if a + ny < n_v:
                rows.append(a + ny), cols.append(p), vals.append(-1.0)
    else:
        stride = max(1, n_v // n_p)  # stride 1 when pressures are dense in n_v
        for p in range(n_p):
            a = p * stride
            rows.append(a), cols.append(p), vals.append(2.0)
            if a + 1 < n_v:
                rows.append(a + 1), cols.append(p), vals.append(-1.0)
    return sp.csc_matrix((vals, (rows, cols)), shape=(n_v, n_p))


def _random_skew(n, rng, nnz, scale=0.2):
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = scale * rng.standard_normal(nnz)
    R = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
    return (R - R.T).tocsc()


def _nullspace_basis(G):
    """Orthonormal basis of null(G^T) via full QR of the dense G."""
    n_v, n_p = G.shape
    if n_p == 0:
        return np.eye(n_v)
    q, _ = la.qr(G.toarray(), mode="full")
    return q[:, n_p:]


def _destabilize(M, A, G, request):
    """Move ``request.count`` finite pencil eigenvalues to Re >= request.shift.

    The shift is applied inside the projected subspace: the leading block
    of an ordered real Schur form of the projected operator is replaced by
    an upper-triangular block carrying the target real eigenvalues, and
    the difference is lifted back as a low-rank correction to A.
    """
    k, sigma = request.count, request.shift
    N = _nullspace_basis(G)
    d = N.shape[1]
    Mn = N.T @ (M @ N)
    An = N.T @ (A @ N)
    F = la.solve(Mn, An)
    eigs = la.eigvals(F)
    # Order the k largest-real-part eigenvalues first; a conjugate pair
    # straddling the cut enlarges the replaced block by one.
    threshold = np.sort(eigs.real)[::-1][k - 1]
    S, Q, sdim = la.schur(
        F, output="real", sort=lambda re, im: re >= threshold - 1e-9
    )
    t = sdim
    if t < k:
        raise InfeasibleSpec(
            f"Schur reordering selected {t} eigenvalues, expected >= {k}"
        )
    S_new = S.copy()
    block = np.triu(S_new[:t, :t])
    targets = sigma * (1.25 + 0.25 * np.arange(k))
    stable_fill = [-max(0.5, abs(S_new[i, i])) for i in range(k, t)]
    np.fill_diagonal(block, np.concatenate([targets, stable_fill]))
    S_new[:t, :t] = block
    dF = Q @ (S_new - S) @ Q.T
    # Lift: N^T dA N = Mn dF, with dA supported on the constraint manifold.
    dA = (M @ N) @ dF @ N.T
    return (A + sp.csc_matrix(dA)).tocsc()


def generate_synthetic(spec):
    """Build a deterministic synthetic index-2 system from a SyntheticSpec.

    The system matrix is a scaled Laplacian plus reaction term (symmetric
    negative definite part) and skew convection/perturbation terms, so the
    stable variant has all finite pencil eigenvalues strictly in the left
    half-plane by construction.  Instability, when requested, is planted
    spectrally and verified for n_v <= 500.
    """
    if spec.n_v <= 0 or spec.n_p < 0 or spec.n_b <= 0 or spec.n_c <= 0:
        raise InfeasibleSpec(f"nonpositive dimensions in {spec}")
    if not spec.n_p < spec.n_v:
        raise InfeasibleSpec(f"n_p = {spec.n_p} must be < n_v = {spec.n_v}")
    if spec.unstable is not None:
        if spec.unstable.count <= 0 or spec.unstable.count > spec.n_v - spec.n_p:
            raise InfeasibleSpec(
                f"cannot place {spec.unstable.count} unstable modes in a "
                f"{spec.n_v - spec.n_p}-dimensional finite spectrum"
            )
        if spec.unstable.shift <= 0.0:
            raise InfeasibleSpec("unstable shift must be positive")
    rng = np.random.default_rng(spec.seed)
    n_v = spec.n_v
    if spec.grid is not None:
        if spec.grid.nx * spec.grid.ny != n_v:
            raise InfeasibleSpec(
                f"grid {spec.grid.nx} x {spec.grid.ny} does not match n_v = {n_v}"
            )
        lap, M, conv = _grid_operators(spec.grid)
        nu = spec.grid.viscosity
    else:
        lap, M, conv = _laplacian_1d(n_v), _mass_1d(n_v), _convection_1d(n_v)
        nu = 1.0
    A = (
        -nu * lap
        - 0.5 * sp.eye(n_v, format="csc")
        + conv
        + _random_skew(n_v, rng, nnz=2 * n_v)
    ).tocsc()
    G = _gradient_pattern(n_v, spec.n_p, spec.grid)
    if spec.n_p:
        G = G + sp.csc_matrix(
            (
                0.2 * rng.standard_normal(2 * spec.n_p),
                (
                    rng.integers(0, n_v, size=2 * spec.n_p),
                    rng.integers(0, spec.n_p, size=2 * spec.n_p),
                ),
            ),
            shape=(n_v, spec.n_p),
        )
    B = rng.standard_normal((n_v, spec.n_b))
    B /= la.norm(B, axis=0)
    C = rng.standard_normal((spec.n_c, n_v))
    C /= la.norm(C, axis=1)[:, None]
    if spec.unstable is not None:
        A = _destabilize(M, A, G, spec.unstable)
    sys_ = DescriptorSystem(M=M, A=A, G=G, B=B, C=C).validate()
    if spec.unstable is not None and n_v <= VALIDATE_DENSE_CAP:
        _verify_unstable(sys_, spec.unstable)
    return sys_


def _verify_unstable(sys_, request):
    pencil_a = np.block(
        [
            [sys_.A.toarray(), sys_.G.toarray()],
            [sys_.G.toarray().T, np.zeros((sys_.n_p, sys_.n_p))],
        ]
    )
    pencil_m = np.zeros_like(pencil_a)
    pencil_m[: sys_.n_v, : sys_.n_v] = sys_.M.toarray()
    values, finite = kernels.dense_generalized_eigen(pencil_a, pencil_m)
    fin = values[finite]
    n_above = int(np.sum(fin.real >= request.shift * (1.0 - 1e-9)))
    if finite.sum() != sys_.n_v - sys_.n_p or n_above != request.count:
        raise InfeasibleSpec(
            f"spectral shift verification failed: {n_above} of "
            f"{int(finite.sum())} finite eigenvalues above {request.shift}"
        )
