"""Extended block Arnoldi process driven by sparse saddle-point solves.

Builds an orthonormal basis of the extended block Krylov subspace of the
projected operator pair without ever forming the dense projector: every
application of the operator or its inverse is one solve against a cached
saddle-point factorization.  Alongside the basis the process accumulates,
by explicit projection of the operator images, the projected-operator
Hessenberg matrix (one extra mass-block solve per step for the
inverse-branch columns).  The other work of a step is two classical
Gram-Schmidt passes against the contiguous basis with one reprojection
onto G^T v = 0 between them, a solve with the sparse identity block
[[I, G], [G^T, 0]].  Two passes suffice: after one pass of classical
Gram-Schmidt the component along the basis is of the order of the
rounding error times the condition of [V_j, candidate], and while that
product stays below one a second pass leaves the result orthogonal to
working accuracy ("twice is enough", Giraud, Langou & Rozloznik,
Comput. Math. Appl. 50, 2005).  The
reprojection between them is symmetric with norm one and puts back no
component along the basis, and the second pass keeps its conditional
safety pass.

A step is two overlaps of the caller with one worker thread, which run
on two cores because SuperLU and BLAS release the interpreter lock.  In
the first the worker solves the mass block for A V_j^(1) while the
caller solves the stiffness block for M V_j^(2), b columns each.  In the
second the worker takes the rank scale ||candidate||_2, the
Hessenberg-only mass-block solve for A V_j^(2) and the projection V_j^T
of the images, while the caller runs the two Gram-Schmidt passes and the
reprojection between them.  After the second join the caller takes the
QR of the new block and its Hessenberg rows.  Each call is the same
whichever thread runs it, so the basis does not depend on the overlap,
bit for bit, and every worker task has finished when a step returns or
raises.
"""

from concurrent.futures import ThreadPoolExecutor
from functools import cache, cached_property

import numpy as np

from . import kernels
from .errors import Breakdown, DimensionMismatch, ModeMismatch, RankDeficient
from .sysmodel import _SADDLE_KINDS

FORWARD = "forward"
ADJOINT = "adjoint"


class OperatorPair:
    """Saddle-solve realization of the projected operator pair.

    Forward mode operates with (A, B), adjoint mode with (A^T, C^T).  The
    pair is the one place that knows its direction and its gain: ``as_pair``
    checks the direction, and a gain ``k_matrix`` makes both the products
    (``apply``) and the solves (``solver``) those of A - B K.  The
    factorizations come from the system's shared saddle cache on first
    use: ``fact_mass`` and ``fact_identity`` hold the factors behind
    ``solve_mass`` and ``reproject``, and the cached ``solve_stiff``
    closure holds the stiffness factors; adjoint mode solves with the
    transposed forward stiffness factors.  ``k_matrix`` is None: only a
    closed loop carries a gain.
    """

    k_matrix = None

    def __init__(self, sys_, adjoint=False):
        self.sys = sys_
        self.adjoint = adjoint
        self.start = np.asarray(sys_.C.T if adjoint else sys_.B, dtype=float)

    @cached_property
    def fact_mass(self):
        return self.sys.saddle("mass")

    def solver(self, kind, shift=None, with_start=False):
        """Solve function for the saddle block whose leading block holds A.

        ``kind`` is "stiffness" (W = A), "shifted" (W = shift M - A) or
        "euler" (W = M - shift A).  Without a gain the function is a plain
        solve with the block's factors; with one it solves the block with
        W - c B K, c the coefficient of A in W read from ``_SADDLE_KINDS``,
        through an SMW update of those factors, whose capture matrix is
        checked here; any other kind is a DimensionMismatch.  With
        ``with_start`` the pair ``(solve, solve(start))`` is returned; a
        corrector's start solve comes from its cached base solve of B.
        """
        row = _SADDLE_KINDS.get(kind)
        if row is None or row.a_coef is None:
            raise DimensionMismatch(f"no corrected saddle block of kind {kind!r}")
        fact = self.sys.saddle(kind, shift)
        if self.k_matrix is not None:
            c = row.a_coef(shift)
            smw = kernels.SmwCorrector(fact, self.start, self.k_matrix, c)
            return (smw.solve, smw.solve_b()) if with_start else smw.solve
        # A closure over the pair itself would hold its factors in a cycle.
        adjoint = self.adjoint

        def solve(rhs):
            return kernels.solve_saddle(fact, rhs, adjoint=adjoint)

        return (solve, solve(self.start)) if with_start else solve

    @cached_property
    def solve_stiff(self):
        return self.solver("stiffness")

    def apply(self, X):
        """Matrix product with A^T (adjoint mode) or A, less B (K X) for a gain."""
        ax = (self.sys.A.T if self.adjoint else self.sys.A) @ X
        return ax if self.k_matrix is None else ax - self.start @ (self.k_matrix @ X)

    def apply_mass(self, X):
        return self.sys.M @ X

    def solve_mass(self, rhs):
        return kernels.solve_saddle(self.fact_mass, rhs)

    @cached_property
    def fact_identity(self):
        return self.sys.saddle("identity")

    def reproject(self, X):
        """Constraint cleanup via one identity-block solve.

        The solve with [[I, G], [G^T, 0]] applies the orthogonal
        projector P = I - G (G^T G)^-1 G^T onto null(G^T).  P is an exact
        no-op on blocks that already satisfy G^T X = 0, so applied after
        Gram-Schmidt it removes only the rounding-level part off the
        constraint manifold, keeping that noise from being amplified when
        a nearly exhausted candidate block is normalized.  Being
        symmetric with norm one, P cannot enlarge the candidate, and
        V^T P X = V^T X for a basis V inside null(G^T), so it puts back
        no component along the basis.  The identity block fills far less
        than the mass block, so the solve costs a fraction of a
        mass-block solve.
        """
        return kernels.solve_saddle(self.fact_identity, X)


def as_pair(source, adjoint=False):
    """The operator pair of ``source`` in the direction ``adjoint`` asks for.

    A DescriptorSystem gets a new open-loop pair; a prebuilt pair is
    returned unchanged, and one of the other direction is a ModeMismatch.
    This is the one direction check of every caller.
    """
    if not isinstance(source, OperatorPair):
        return OperatorPair(source, adjoint=adjoint)
    if bool(source.adjoint) != bool(adjoint):
        raise ModeMismatch(f"the pair is not the {ADJOINT if adjoint else FORWARD} one")
    return source


def _readonly(view):
    view.flags.writeable = False
    return view


class ExtendedBasis:
    """Orthonormal blocks plus Hessenberg data from the extended Arnoldi process.

    The blocks are column slices of one Fortran-ordered n_v x (capacity 2b)
    array: ``block(j)`` is the j-th n_v x 2b orthonormal block and ``V(m)``
    the first m blocks, both read-only views, never copies.  ``m`` counts
    the blocks, so the projection space of order k uses the first k
    blocks.  ``append`` doubles the capacity when the array is full;
    ``reserve`` sets it ahead, and pages of the array that no block has
    reached stay untouched.  ``lam`` is the 2b x 2b triangular factor of
    the initial QR.  The projected-operator Hessenberg matrix is one
    zero-initialized array grown with the basis, one block row taller than
    wide; step j writes block column j, and ``Tm``, ``Tbar`` and
    ``t_next`` are read-only views of it.  ``mode`` is the pair's direction.
    """

    def __init__(self, ops, first, lam):
        self.ops = ops
        self.lam = lam
        self.width = first.shape[1]
        self.m = 0
        self.steps = 0
        self._store = np.empty((first.shape[0], self.width), order="F")
        self._hess = np.zeros((2 * self.width, self.width))
        self.breakdown_at = None
        self.append(first)

    @property
    def mode(self):
        return ADJOINT if self.ops.adjoint else FORWARD

    @property
    def lam11(self):
        b = self.width // 2
        return self.lam[:b, :b]

    def reserve(self, blocks):
        """Make room for ``blocks`` blocks, at most the n_v // 2b of a full basis."""
        n_v, cols = self._store.shape
        blocks = min(blocks, n_v // self.width)
        if blocks * self.width > cols:
            store = np.empty((n_v, blocks * self.width), order="F")
            used = self.m * self.width
            store[:, :used] = self._store[:, :used]
            self._store = store
            hess = np.zeros(((blocks + 1) * self.width, blocks * self.width))
            hess[: cols + self.width, :cols] = self._hess
            self._hess = hess

    def append(self, q):
        """Store the next orthonormal block, doubling the capacity when full."""
        start = self.m * self.width
        if start == self._store.shape[1]:
            self.reserve(2 * self.m)
        self._store[:, start : start + self.width] = q
        self.m += 1

    def record(self, *rows):
        """Store V^T images as the Hessenberg block column of the next step.

        ``rows`` are its row blocks, top to bottom, m blocks' rows in all.
        """
        k, w = self.steps * self.width, self.width
        np.concatenate(rows, out=self._hess[: self.m * w, k : k + w])
        self.steps += 1

    def block(self, j):
        """The j-th orthonormal block (0-based)."""
        if not 0 <= j < self.m:
            raise DimensionMismatch(f"basis holds {self.m} blocks, requested block {j}")
        return _readonly(self._store[:, j * self.width : (j + 1) * self.width])

    def V(self, m=None):
        """The orthonormal matrix formed by the first m blocks."""
        m = self.m if m is None else m
        if not 1 <= m <= self.m:
            raise DimensionMismatch(f"basis holds {self.m} blocks, requested {m}")
        return _readonly(self._store[:, : m * self.width])

    def _columns(self, m, top):
        """Column count 2mb of the order-m Hessenberg views; m defaults to top."""
        m = top if m is None else m
        if not 1 <= m <= top:
            raise DimensionMismatch(
                f"Hessenberg order {m} outside 1..{top} "
                f"({self.steps} steps completed, {self.m} blocks)"
            )
        return m * self.width

    def Tm(self, m=None):
        """Square leading block of the projected-operator Hessenberg, 2mb x 2mb."""
        k = self._columns(m, self.steps)
        return _readonly(self._hess[:k, :k])

    def Tbar(self, m=None):
        """Rectangular projected-operator Hessenberg, 2(m+1)b x 2mb."""
        k = self._columns(m, min(self.steps, self.m - 1))
        return _readonly(self._hess[: k + self.width, :k])

    def t_next(self, m):
        """Subdiagonal continuation block T_{m+1,m}; zero after breakdown."""
        k = self._columns(m, self.steps)
        return _readonly(self._hess[k : k + self.width, k - self.width : k])


@cache
def _worker():
    """The one worker thread of the process's Arnoldi steps, started on first use."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="ekstab-arnoldi")


def _overlapped(background, foreground):
    """(background(), foreground()), background on the worker thread.

    Nothing is raised before the worker's call has finished, so no task
    outlives this call; when both fail, the worker's error is raised.
    """
    future = _worker().submit(background)
    try:
        front = foreground()
    finally:
        back = future.result()
    return back, front


def ekba_init(source, mode=FORWARD):
    """Run the starting saddle solves and first QR of the Arnoldi process.

    ``source`` is a DescriptorSystem or a prebuilt operator pair.  The two
    start blocks solve [[M, G], [G^T, 0]] [x; *] = [S; 0] and
    [[A, G], [G^T, 0]] [x; *] = [S; 0] with S the input map (the output
    map transposed in adjoint mode); their joint QR yields the first
    basis block and the triangular factor reused throughout.  The
    mass-block solve runs on the worker thread while the caller does the
    stiffness-block solve, so their first-use factorizations overlap;
    when both fail, the mass block's error is raised.  A prebuilt pair
    of the other direction is refused by ``as_pair``, and one that carries
    a gain here: a closed loop is reduced on its open-loop basis
    (``reduce_closed_loop``).  Both are ModeMismatch.
    """
    if mode not in (FORWARD, ADJOINT):
        raise ModeMismatch(f"unknown Arnoldi mode {mode!r}")
    ops = as_pair(source, adjoint=(mode == ADJOINT))
    if ops.k_matrix is not None:
        raise ModeMismatch("the Arnoldi process takes an open-loop pair, not a gain")
    s = ops.start
    v1, v2 = _overlapped(lambda: ops.solve_mass(s), lambda: ops.solve_stiff(s))
    first = np.column_stack([v1, v2])
    qr = kernels.thin_qr(first)
    return ExtendedBasis(ops=ops, first=qr.q, lam=qr.r)


def ekba_step(basis):
    """Advance the process by one block, updating the Hessenberg data in place.

    Two ``_overlapped`` calls.  In the first the worker thread solves the
    mass-block saddle with right-hand side A V_j^(1) while the caller
    solves the stiffness-block saddle with right-hand side M V_j^(2).  In
    the second the worker computes the rank scale, solves the mass block
    once more for A V_j^(2) (needed only for the operator-Hessenberg
    column) and projects the images onto V_j, while the caller runs one
    Gram-Schmidt pass, the reprojection and a second pass, with its
    conditional safety pass.  After the join the caller takes the QR of
    the new block and its rows V_{j+1}^T images of the column.  No worker
    task outlives the step; when one fails, its error is raised and the
    basis is unchanged.  On a rank-deficient candidate the step raises
    Breakdown after recording the column V_j^T images, so the square
    projected operator of the basis built so far stays available.
    """
    if basis.breakdown_at is not None:
        raise Breakdown(f"process already broke down at step {basis.breakdown_at}")
    j = basis.m
    vj = basis.block(j - 1)
    vs = basis.V(j)
    b = basis.width // 2
    ops = basis.ops
    forward, inverse = _overlapped(
        lambda: ops.solve_mass(ops.apply(vj[:, :b])),
        lambda: ops.solve_stiff(ops.apply_mass(vj[:, b:])),
    )
    cand = np.column_stack([forward, inverse])

    def hessenberg():
        images = np.column_stack([forward, ops.solve_mass(ops.apply(vj[:, b:]))])
        return np.linalg.norm(cand, 2), images, vs.T @ images

    def orthogonalize():
        w = ops.reproject(cand - vs @ (vs.T @ cand))
        return kernels.block_gram_schmidt(w, vs)[1]

    (scale, images, head), w = _overlapped(hessenberg, orthogonalize)
    try:
        qr = kernels.thin_qr(w, rank_scale=scale)
    except RankDeficient as exc:
        basis.record(head)
        basis.breakdown_at = j
        raise Breakdown(f"rank-deficient candidate block at step {j}") from exc
    basis.append(qr.q)
    basis.record(head, qr.q.T @ images)
    return basis


def ekba_basis(source, m, mode=FORWARD):
    """Initialize and run ``m`` Arnoldi steps, tolerating exhaustion.

    Returns a basis with up to m+1 blocks.  When the subspace exhausts
    before the requested order, the basis built so far is returned with
    ``breakdown_at`` set.
    """
    basis = ekba_init(source, mode)
    basis.reserve(m + 1)
    for _ in range(m):
        try:
            ekba_step(basis)
        except Breakdown:
            break
    return basis


def projected_input(basis, m=None):
    """Projected input map [Lambda^{11}; 0; ...; 0] of the reduced systems.

    Equals V_m^T M^-1 Pi S with S the start block, by the triangular
    structure of the initial QR; no product with the system matrices is
    performed.
    """
    m = basis.m if m is None else m
    if m < 1 or m > basis.m:
        raise DimensionMismatch(f"projected_input order {m} out of range")
    b = basis.width // 2
    out = np.zeros((m * basis.width, b))
    out[:b] = basis.lam11
    return out
