"""Seeded input systems of the benchmark, built from numpy and scipy only.

The benchmark owns its generator so that a change to the package's own
synthetic generator cannot change what the benchmark measures.  Every
coupling stays inside the five-point stencil, so the saddle-point LU
fills like a 2-D grid problem, not like a random graph:

* ``A = -lap + conv + skew + reaction``: the five-point
  Laplacian, a constant-coefficient convection in x, a seeded skew term
  that couples each node only to its east and north neighbours, a -0.5
  reaction, and +1.5, +1.65 and +1.8 on up to three 4 x 4 patches of
  nodes that plant the instability;
* ``M = I + 0.125 * adjacency``: the neighbour-smoothed mass matrix;
* ``G``: the anchor-only gradient, one pressure node on every fourth
  grid node in each direction, with entries 2 on the anchor and -1 on
  its east and north neighbours (full column rank by construction);
* ``B``, ``C``: seeded Gaussian columns and rows of unit norm; before
  normalising, each column of ``B`` gets an offset of seeded sign on
  every patch, so that every planted mode is well controllable.  With
  Gaussian columns alone, seed 202 left a mode nearly uncontrollable:
  the Riccati residual of ``ebara_solve`` stalled between 3e-8 and 4e-7
  from order 21 on and the solve stopped at ``max_iterations`` short of
  the 1e-8 tolerance.

Nodes are numbered ``ix * n + iy``, so east is ``+n`` and north is
``+1``.  Without patches the symmetric part of ``A`` is at most ``-0.5``
and ``M <= 1.5``, so every finite pencil eigenvalue has real part at most
``-1/3``.  Each patch binds exactly one mode with positive real part, so
the number of unstable modes equals the number of patches; the smoke
test checks this on a 20 x 20 grid against the dense spectrum, and the
stabilize workload's gate on the 200 x 200 grid.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

PATCH = 4
REACTION = (1.5, 1.65, 1.8)
SKEW_SCALE = 0.2
PATCH_INPUT = 1.0
ANCHOR_STRIDE = 4


@dataclass(frozen=True)
class Inputs:
    """Sparse quintuple (M, A, G, B, C) of an index-2 descriptor system."""

    M: sp.csc_matrix
    A: sp.csc_matrix
    G: sp.csc_matrix
    B: np.ndarray
    C: np.ndarray

    @property
    def n_v(self):
        return self.M.shape[0]

    @property
    def n_p(self):
        return self.G.shape[1]


def _path(n, offsets, values):
    return sp.diags(values, offsets, shape=(n, n), format="csc")


def patch_corners(n, count):
    """Lower-left corners of ``count`` reaction patches spread along the diagonal.

    Corners sit on the anchor lattice, so every patch sees the same
    constraint pattern, and patches are at least PATCH nodes apart.
    """
    if count > len(REACTION):
        raise ValueError(f"at most {len(REACTION)} unstable modes, got {count}")
    corners = [
        ANCHOR_STRIDE * round((n * (k + 1) / (count + 1) - PATCH / 2) / ANCHOR_STRIDE)
        for k in range(count)
    ]
    if corners and (
        corners[0] < PATCH
        or corners[-1] > n - 2 * PATCH
        or min(np.diff(corners), default=2 * PATCH) < 2 * PATCH
    ):
        raise ValueError(f"{count} patches of {PATCH}^2 nodes do not fit a {n}^2 grid")
    return corners


def grid_system(n, seed, unstable=0, n_b=2, n_c=2):
    """Seeded n x n grid system with ``unstable`` planted unstable modes."""
    if n < 2 * ANCHOR_STRIDE or n % ANCHOR_STRIDE:
        raise ValueError(f"grid side must be a multiple of {ANCHOR_STRIDE}, got {n}")
    rng = np.random.default_rng(seed)
    n_v = n * n
    eye = sp.eye(n, format="csc")
    lap1 = _path(n, [-1, 0, 1], [-1.0, 2.0, -1.0])
    adj1 = _path(n, [-1, 1], [1.0, 1.0])
    conv1 = _path(n, [-1, 1], [-0.5, 0.5])
    lap = sp.kron(lap1, eye) + sp.kron(eye, lap1)
    M = (sp.eye(n_v) + 0.125 * (sp.kron(adj1, eye) + sp.kron(eye, adj1))).tocsc()

    ix, iy = np.divmod(np.arange(n_v), n)
    east = np.flatnonzero(ix < n - 1)
    north = np.flatnonzero(iy < n - 1)
    rows = np.concatenate([east, north])
    cols = np.concatenate([east + n, north + 1])
    vals = SKEW_SCALE * rng.standard_normal(rows.size)
    R = sp.csc_matrix((vals, (rows, cols)), shape=(n_v, n_v))

    reaction = np.full(n_v, -0.5)
    patches = []
    for c, strength in zip(patch_corners(n, unstable), REACTION):
        patches.append((ix >= c) & (ix < c + PATCH) & (iy >= c) & (iy < c + PATCH))
        reaction[patches[-1]] += strength
    A = (-lap + sp.kron(conv1, eye) + R - R.T + sp.diags(reaction)).tocsc()

    side = n // ANCHOR_STRIDE
    ax, ay = np.divmod(np.arange(side * side), side)
    anchor = ANCHOR_STRIDE * ax * n + ANCHOR_STRIDE * ay
    cols = np.arange(side * side)
    G = sp.csc_matrix(
        (
            np.repeat([2.0, -1.0, -1.0], cols.size),
            (np.concatenate([anchor, anchor + n, anchor + 1]), np.tile(cols, 3)),
        ),
        shape=(n_v, cols.size),
    )

    B = rng.standard_normal((n_v, n_b))
    for inside in patches:
        B[inside] += PATCH_INPUT * rng.choice([-1.0, 1.0], size=n_b)
    B /= np.linalg.norm(B, axis=0)
    C = rng.standard_normal((n_c, n_v))
    C /= np.linalg.norm(C, axis=1)[:, None]
    return Inputs(M=M, A=A, G=G, B=B, C=C)
