import os
import sys

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from ekstab import kernels, oracle, reduction
from ekstab.arnoldi import ADJOINT, FORWARD, OperatorPair, as_pair, ekba_basis
from ekstab.closedloop import ClosedLoopSystem, reduce_closed_loop
from ekstab.errors import DimensionMismatch, ModeMismatch, SingularShift
from ekstab.reduction import (
    GENERALIZED,
    STATE_SPACE,
    ReducedModel,
    build_reduced,
    eval_full_tf,
    eval_reduced_tf,
    frequency_sweep,
    write_sweep_csv,
)
from ekstab.riccati import FeedbackGain
from ekstab.sysmodel import DescriptorSystem, SyntheticSpec, generate_synthetic


def _exactness_order(sys_):
    return (sys_.n_v - sys_.n_p) // (2 * sys_.n_b)


def _oscillator():
    """Undamped oscillator whose eigenvalues +-i sit on the sampling axis."""
    return DescriptorSystem(
        M=sp.eye(2, format="csc"),
        A=sp.csc_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]])),
        G=sp.csc_matrix((2, 0)),
        B=np.array([[1.0], [0.0]]),
        C=np.array([[0.0, 1.0]]),
    )


def _first_order_model():
    return ReducedModel(
        a=np.array([[-1.0]]),
        b=np.array([[1.0]]),
        c=np.array([[1.0]]),
    )


def _serial_responses(system, model, omegas):
    """The sweep's reference: every point in turn in the calling thread."""
    full = [eval_full_tf(system, 1j * w) for w in omegas]
    reduced = [eval_reduced_tf(model, 1j * w) for w in omegas]
    return np.array(full), np.array(reduced)


def _oscillator_bank(n_osc=16, pole=True, integrator=False, algebraic=False):
    """Damped oscillators at 0.5..2 rad/s: a spectrum the real processes cannot serve.

    Their 2 n_osc states outnumber the 30 one-column steps of a sweep
    process.  ``pole`` adds the undamped oscillator whose eigenvalues +-i
    sit on the grid point omega = 1, ``integrator`` a state with A = 0,
    which makes the stiffness block singular, and ``algebraic`` a state
    with M = 0 and A = -1, which makes the mass block singular.
    """
    blocks = [np.array([[0.0, w], [-w, -0.1 * w]]) for w in np.geomspace(0.5, 2.0, n_osc)]
    if pole:
        blocks.append(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    if integrator:
        blocks.append(np.zeros((1, 1)))
    if algebraic:
        blocks.append(-np.ones((1, 1)))
    A = sp.block_diag(blocks, format="csc")
    n_v = A.shape[0]
    mass = np.ones(n_v)
    if algebraic:
        mass[-1] = 0.0
    rng = np.random.default_rng(0)
    return DescriptorSystem(
        M=sp.diags(mass, format="csc"),
        A=A,
        G=sp.csc_matrix((n_v, 0)),
        B=rng.standard_normal((n_v, 1)),
        C=rng.standard_normal((1, n_v)),
    )


def _anchor_process(pair, sigma, shifts):
    """The operator, start block and coefficients of the anchor process at sigma."""
    solve, x0 = reduction._anchor(pair, sigma)
    M = pair.sys.M
    return (lambda q: solve(M @ q)), x0, {i: sigma - s for i, s in shifts.items()}


def _per_shift_krylov(op, sys_, x0, coefs):
    """``reduction._shifted_krylov`` with one projected solve per open shift per step."""
    n_v, nb = x0.shape
    blocks = min(reduction.SWEEP_BLOCKS, (n_v - sys_.n_p) // nb)
    basis = np.empty((n_v, blocks * nb), dtype=complex, order="F")
    hess = np.zeros(((blocks + 1) * nb, blocks * nb), dtype=complex)
    cv = np.empty((sys_.n_c, blocks * nb), dtype=complex)
    q, r0 = np.linalg.qr(x0)
    tol = reduction.SWEEP_TOL * la.norm(r0)
    open_, done = dict(coefs), {}
    for k in range(1, blocks + 1):
        cols = k * nb
        basis[:, cols - nb : cols] = q
        cv[:, cols - nb : cols] = sys_.C @ q
        w = op(q)
        hess[:cols, cols - nb : cols], w = kernels.block_gram_schmidt(w, basis[:, :cols])
        q, r = np.linalg.qr(w)
        hess[cols : cols + nb, cols - nb : cols] = r
        rhs = np.zeros((cols, nb), dtype=complex)
        rhs[:nb] = r0
        for i, c in list(open_.items()):
            lhs = np.eye(cols) - c * hess[:cols, :cols]
            y, rcond = reduction._projected_solve(lhs, rhs)
            if y is None or not abs(c) * la.norm(r @ y[-nb:]) <= tol:
                continue
            del open_[i]
            if rcond >= reduction.SWEEP_RCOND:
                done[i] = cv[:, :cols] @ y
    return done


def _assert_same_sweep(a, b):
    assert np.array_equal(a.full.omegas, b.full.omegas)
    for part in ("full", "reduced"):
        x, y = getattr(a, part), getattr(b, part)
        assert np.array_equal(np.array(x.values), np.array(y.values), equal_nan=True)
        assert np.array_equal(x.norms, y.norms, equal_nan=True)
    assert np.array_equal(a.errors, b.errors, equal_nan=True)
    assert a.skipped == b.skipped
    assert a.hinf_sample == b.hinf_sample


@pytest.fixture(params=["open_loop", "closed_loop"])
def swept(request, sys60):
    """A system and a reduced model of it, open loop or with a feedback gain."""
    if request.param == "closed_loop":
        gain = FeedbackGain(left=np.eye(sys60.n_b), right=0.5 * sys60.B.T)
        system = ClosedLoopSystem(sys60, gain)
        return system, reduce_closed_loop(system, 3)[1]
    return sys60, build_reduced(ekba_basis(sys60, 3, FORWARD), STATE_SPACE)


@pytest.fixture(scope="module", params=[2, 3], ids=["n_c_is_n_b", "n_c_is_not_n_b"])
def adjoint_pair(request):
    """An adjoint pair and a one-state model of the forward system's shape.

    With n_c == n_b its C S C^T has the shape of a forward response, so
    only the direction check tells the two apart.
    """
    sys_ = generate_synthetic(SyntheticSpec(60, 8, n_b=2, n_c=request.param, seed=7))
    model = ReducedModel(
        a=-np.eye(1), b=np.ones((1, sys_.n_b)), c=np.ones((sys_.n_c, 1))
    )
    return OperatorPair(sys_, adjoint=True), model


class TestBuildReduced:
    def test_generalized_mass_symmetric_spd(self, sys60):
        basis = ekba_basis(sys60, 4, FORWARD)
        model = build_reduced(basis, GENERALIZED)
        assert la.norm(model.mass - model.mass.T, 2) <= 1e-12
        assert la.eigvalsh(model.mass).min() > 0.0

    def test_forms_agree_at_exactness(self, sys60):
        # The two projections coincide once the basis spans the whole
        # constraint manifold; below exactness they differ by the
        # moment-mismatch of the generalized form.
        m = _exactness_order(sys60)
        basis = ekba_basis(sys60, m, FORWARD)
        ss = build_reduced(basis, STATE_SPACE)
        gen = build_reduced(basis, GENERALIZED)
        fs = eval_reduced_tf(ss, 1j)
        fg = eval_reduced_tf(gen, 1j)
        assert la.norm(fs - fg, 2) <= 1e-8

    def test_exactness_reproduces_full_tf(self, sys60):
        m = _exactness_order(sys60)
        basis = ekba_basis(sys60, m, FORWARD)
        model = build_reduced(basis, STATE_SPACE)
        for w in (1e-5, 1.0, 1e5):
            f = eval_full_tf(sys60, 1j * w)
            g = eval_reduced_tf(model, 1j * w)
            assert la.norm(f - g, 2) <= 1e-8

    def test_adjoint_basis_rejected(self, sys60):
        basis = ekba_basis(sys60, 2, ADJOINT)
        with pytest.raises(ModeMismatch):
            build_reduced(basis, STATE_SPACE)

    @pytest.mark.parametrize("order", [0, 4])
    def test_order_outside_the_basis_rejected(self, sys60, order):
        basis = ekba_basis(sys60, 3, FORWARD)
        with pytest.raises(DimensionMismatch, match="basis supports 1..3"):
            build_reduced(basis, STATE_SPACE, order=order)

    def test_unknown_form_rejected(self, sys60):
        basis = ekba_basis(sys60, 2, FORWARD)
        with pytest.raises(ModeMismatch, match="unknown reduced form"):
            build_reduced(basis, "descriptor")


class TestEvalFullTF:
    def test_matches_theta_oracle(self, sys60, proj60):
        tsys = oracle.theta_system(sys60, proj60)
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = complex(rng.uniform(0.5, 2.0), rng.uniform(-10.0, 10.0))
            f = eval_full_tf(sys60, s)
            ref = oracle.theta_transfer(tsys, s)
            assert la.norm(f - ref, 2) <= 1e-8 * max(1.0, la.norm(ref, 2))

    def test_strictly_proper_decay(self, sys60):
        f_large = eval_full_tf(sys60, 1e8 + 0j)
        f_unit = eval_full_tf(sys60, 1j)
        assert la.norm(f_large, 2) <= 1e-6 * la.norm(f_unit, 2)

    def test_unconstrained_matches_dense(self, siso):
        f = eval_full_tf(siso, 2.0 + 0j)
        assert abs(f[0, 0] - 1.0 / 3.0) <= 1e-14

    def test_spectrum_hit_raises(self, siso):
        # s = -1 is the single eigenvalue of the unconstrained SISO system.
        with pytest.raises(SingularShift):
            eval_full_tf(siso, -1.0 + 0j)

    def test_adjoint_pair_rejected_before_factoring(self, adjoint_pair, kinds):
        pair, _ = adjoint_pair
        with pytest.raises(ModeMismatch):
            eval_full_tf(pair, 1j)
        assert kinds == []

    def test_closed_loop_solves_b_once(self, sys60, monkeypatch):
        # The SMW corrector's base solve of B is the only saddle solve: the
        # corrected S B is computed from it.
        gain = FeedbackGain(left=np.eye(sys60.n_b), right=0.5 * sys60.B.T)
        cl = ClosedLoopSystem(sys60, gain)
        calls = []
        real = kernels.solve_saddle

        def counting(fact, rhs, *args, **kwargs):
            calls.append(fact.kind)
            return real(fact, rhs, *args, **kwargs)

        monkeypatch.setattr(kernels, "solve_saddle", counting)
        f = eval_full_tf(cl, 1j)
        assert calls == ["shifted"]
        ref = sys60.C @ cl.solver("shifted", 1j)(sys60.B.astype(complex))
        assert np.array_equal(f, ref)


class TestEvalReducedTF:
    def test_scalar_analytic(self):
        model = ReducedModel(
            a=np.array([[-1.0]]),
            b=np.array([[1.0]]),
            c=np.array([[1.0]]),
        )
        assert abs(eval_reduced_tf(model, 0.0)[0, 0] - 1.0) <= 1e-15

    def test_matches_dense_resolvent(self, sys60):
        basis = ekba_basis(sys60, 3, FORWARD)
        model = build_reduced(basis, STATE_SPACE)
        s = 0.7 + 1.3j
        ref = model.c @ la.inv(s * np.eye(model.order) - model.a) @ model.b
        assert la.norm(eval_reduced_tf(model, s) - ref, 2) <= 1e-12 * la.norm(ref, 2)


class TestFrequencySweep:
    def test_exact_model_error_floor(self, sys60):
        m = _exactness_order(sys60)
        basis = ekba_basis(sys60, m, FORWARD)
        model = build_reduced(basis, STATE_SPACE)
        sweep = frequency_sweep(sys60, model, n_points=50)
        assert np.nanmax(sweep.errors) <= 1e-8
        assert not sweep.skipped

    def test_siso_analytic_response(self, siso):
        model = ReducedModel(
            a=np.array([[-1.0]]),
            b=np.array([[1.0]]),
            c=np.array([[1.0]]),
        )
        sweep = frequency_sweep(siso, model, n_points=40)
        expected = 1.0 / np.sqrt(1.0 + sweep.full.omegas**2)
        assert np.allclose(sweep.full.norms, expected, atol=1e-12)
        assert abs(sweep.full.hinf_sample - 1.0) <= 1e-9
        assert np.nanmax(sweep.errors) <= 1e-12

    def test_error_invariant_under_input_permutation(self, sys60):
        basis = ekba_basis(sys60, 3, FORWARD)
        model = build_reduced(basis, STATE_SPACE)
        perm = [1, 0]
        permuted_sys = DescriptorSystem(
            M=sys60.M, A=sys60.A, G=sys60.G, B=sys60.B[:, perm], C=sys60.C
        )
        permuted_model = ReducedModel(
            a=model.a, b=model.b[:, perm], c=model.c
        )
        s1 = frequency_sweep(sys60, model, n_points=25)
        s2 = frequency_sweep(permuted_sys, permuted_model, n_points=25)
        assert np.allclose(s1.errors, s2.errors, rtol=1e-12, atol=1e-14)

    def test_output_error_bound_per_sample(self, sys60):
        # ||(F - F_m) u|| <= sigma_max(F - F_m) for unit-norm harmonic input.
        basis = ekba_basis(sys60, 3, FORWARD)
        model = build_reduced(basis, STATE_SPACE)
        rng = np.random.default_rng(8)
        for w in (1e-3, 1.0, 1e3):
            diff = eval_full_tf(sys60, 1j * w) - eval_reduced_tf(model, 1j * w)
            bound = la.norm(diff, 2)
            for _ in range(5):
                u = rng.standard_normal(sys60.n_b) + 1j * rng.standard_normal(
                    sys60.n_b
                )
                u /= la.norm(u)
                assert la.norm(diff @ u) <= bound * (1.0 + 1e-12)

    def test_singular_points_skipped_not_fatal(self):
        # Purely imaginary eigenvalues +-i sit exactly on the sampling axis;
        # the hit grid point is skipped and the sweep completes.
        osc, model = _oscillator(), _first_order_model()
        sweep = frequency_sweep(osc, model, w_lo=1e-2, w_hi=1e2, n_points=9)
        # omega = 1 is the middle grid point of this log-symmetric grid
        assert 4 in sweep.skipped
        assert np.isnan(sweep.errors[4])
        assert np.isfinite(sweep.errors[0])

    def test_only_the_singular_point_is_skipped(self):
        sweep = frequency_sweep(
            _oscillator(), _first_order_model(), w_lo=1e-2, w_hi=1e2, n_points=9
        )
        assert sweep.skipped == [4]

    def test_singular_point_inside_a_group_is_skipped(self):
        # omega = 1 (grid index 10) is not its group's middle point here; its
        # projected matrix is singular in both real processes, so it is the
        # group's one open point and its anchor, on the spectrum.
        sweep = frequency_sweep(
            _oscillator(), _first_order_model(), w_lo=0.1, w_hi=10.0, n_points=21
        )
        assert sweep.skipped == [10]
        assert sweep.factorizations == 1
        assert sweep.fallbacks == 0

    def test_point_on_a_reduced_pole_is_a_nan_row(self, siso):
        # The reduced model's poles +-i sit on the grid at omega = 1 (index
        # 4); the full model is finite there, the reduced one is not.
        model = ReducedModel(
            a=np.array([[0.0, 1.0], [-1.0, 0.0]]),
            b=np.array([[0.0], [1.0]]),
            c=np.array([[1.0, 0.0]]),
        )
        sweep = frequency_sweep(siso, model, w_lo=1e-2, w_hi=1e2, n_points=9)
        assert sweep.skipped == [4]
        assert all(type(i) is int for i in sweep.skipped)
        for column in (sweep.errors, sweep.full.norms, sweep.reduced.norms):
            assert np.isnan(column[4])
            assert np.isfinite(np.delete(column, 4)).all()
        assert sweep.full.values.shape == sweep.reduced.values.shape == (9, 1, 1)
        assert np.isnan(sweep.full.values[4]).all()
        assert np.isnan(sweep.reduced.values[4]).all()
        assert np.isfinite(np.delete(sweep.reduced.values, 4, axis=0)).all()

    def test_real_processes_leave_only_the_pole_to_an_anchor(self):
        # The grid is one group; the two-state oscillator's real processes
        # span its whole space and serve every point but the pole, omega = 1
        # (index 10), whose anchor hits the spectrum.
        osc, model = _oscillator(), _first_order_model()
        sweep = frequency_sweep(
            osc, model, w_lo=10**-0.25, w_hi=10**0.25, n_points=21
        )
        assert sweep.skipped == [10]
        assert sweep.factorizations == 1
        assert sweep.fallbacks == 0
        rest = [i for i in range(21) if i != 10]
        full, _ = _serial_responses(osc, model, sweep.full.omegas[rest])
        for i, ref in zip(rest, full):
            f = sweep.full.values[i]
            assert la.norm(f - ref, 2) <= 1e-12 * la.norm(ref, 2)

    def test_anchor_on_the_pole_hands_its_group_to_the_next_anchor(self):
        # The grid is one group that the real processes cannot serve, whose
        # first anchor, omega = 1 (index 10), is the pole: the middle of the
        # 20 open points is the second anchor, and its Krylov process
        # serves the other 19.
        bank, model = _oscillator_bank(), _first_order_model()
        sweep = frequency_sweep(
            bank, model, w_lo=10**-0.25, w_hi=10**0.25, n_points=21
        )
        omegas = sweep.full.omegas
        groups = reduction._open_groups(omegas, range(21))
        pair = as_pair(bank)
        assert reduction._from_zero(pair, omegas, groups) == {}
        assert reduction._from_infinity(pair, omegas, groups) == {}
        assert sweep.skipped == [10]
        assert sweep.factorizations == 2
        assert sweep.fallbacks == 1
        rest = [i for i in range(21) if i != 10]
        full, _ = _serial_responses(bank, model, omegas[rest])
        for i, ref in zip(rest, full):
            f = sweep.full.values[i]
            assert la.norm(f - ref, 2) <= 1e-12 * la.norm(ref, 2)

    def test_matches_a_serial_loop_bit_for_bit(self, swept):
        # The grouped shifted Krylov process agrees with the per-shift
        # factorizations to rounding (measured 1e-13); the reduced side is
        # the same arithmetic, bit for bit.
        system, model = swept
        sweep = frequency_sweep(system, model, n_points=30)
        full, reduced = _serial_responses(system, model, sweep.full.omegas)
        for f, ref in zip(sweep.full.values, full):
            assert la.norm(f - ref, 2) <= 1e-12 * la.norm(ref, 2)
        assert np.array_equal(np.array(sweep.reduced.values), reduced)
        errors = [la.norm(f - g, 2) for f, g in zip(sweep.full.values, reduced)]
        assert np.array_equal(sweep.errors, errors)
        assert not sweep.skipped

    def test_capped_krylov_falls_back_to_the_serial_loop(self, swept, monkeypatch):
        # One block step accepts no neighbour of an anchor, so every
        # non-anchor point is evaluated by its own factorization.
        system, model = swept
        monkeypatch.setattr(reduction, "SWEEP_BLOCKS", 1)
        sweep = frequency_sweep(system, model, n_points=30)
        full, _ = _serial_responses(system, model, sweep.full.omegas)
        assert np.array_equal(np.array(sweep.full.values), full)
        anchors = sweep.factorizations - sweep.fallbacks
        assert sweep.fallbacks == 30 - anchors > 0

    def test_default_grid_takes_one_factorization_per_half_decade(self, swept, kinds):
        system, model = swept
        sweep = frequency_sweep(system, model)
        assert sweep.fallbacks == 0
        assert sweep.factorizations == kinds.count("shifted") <= 20

    def test_real_processes_serve_the_default_grid_without_a_factorization(
        self, swept, kinds
    ):
        system, model = swept
        sweep = frequency_sweep(system, model)
        assert sweep.factorizations == kinds.count("shifted") == 0
        assert sweep.fallbacks == 0

    @pytest.mark.parametrize("blocks", [reduction.SWEEP_BLOCKS, 1])
    def test_closed_loop_anchor_reuses_the_corrector_solve_of_b(
        self, sys60, monkeypatch, blocks
    ):
        # The SMW corrector of every anchor and of the sigma = 0 process
        # already holds its base solve of B, so the start block S B costs
        # no saddle solve of its own.  One block step leaves every point to
        # the anchors.
        monkeypatch.setattr(reduction, "SWEEP_BLOCKS", blocks)
        gain = FeedbackGain(left=np.eye(sys60.n_b), right=0.5 * sys60.B.T)
        system = ClosedLoopSystem(sys60, gain)
        model = reduce_closed_loop(system, 3)[1]
        calls = []
        real = kernels.solve_saddle

        def counting(fact, rhs, *args, **kwargs):
            calls.append(fact.kind)
            return real(fact, rhs, *args, **kwargs)

        monkeypatch.setattr(kernels, "solve_saddle", counting)
        sweep = frequency_sweep(system, model, n_points=30)
        reused = len(calls)
        calls.clear()
        monkeypatch.setattr(
            kernels.SmwCorrector,
            "solve_b",
            lambda smw: smw.solve(sys60.B.astype(complex) if smw.fact.is_complex else sys60.B),
        )
        reference = frequency_sweep(system, model, n_points=30)
        assert len(calls) - reused == sweep.factorizations + 1
        _assert_same_sweep(sweep, reference)

    def test_full_values_match_the_theta_oracle(self, sys60, proj60):
        tsys = oracle.theta_system(sys60, proj60)
        model = build_reduced(ekba_basis(sys60, 3, FORWARD), STATE_SPACE)
        sweep = frequency_sweep(sys60, model, n_points=60)
        for w, f in zip(sweep.full.omegas, sweep.full.values):
            ref = oracle.theta_transfer(tsys, 1j * w)
            assert la.norm(f - ref, 2) <= 1e-10 * la.norm(ref, 2)

    def test_adjoint_pair_rejected_before_factoring(self, adjoint_pair, kinds):
        pair, model = adjoint_pair
        with pytest.raises(ModeMismatch):
            frequency_sweep(pair, model, n_points=20)
        assert kinds == []

    @pytest.mark.parametrize("n_points", [0, -1, 2.5, True])
    def test_bad_point_count_rejected_before_factoring(self, sys60, n_points, kinds):
        model = build_reduced(ekba_basis(sys60, 2, FORWARD), STATE_SPACE)
        made = len(kinds)
        with pytest.raises(DimensionMismatch, match="n_points"):
            frequency_sweep(sys60, model, n_points=n_points)
        assert len(kinds) == made

    @pytest.mark.parametrize("cpus", [{0}, set(range(8))], ids=["one", "eight"])
    def test_result_does_not_depend_on_the_worker_count(
        self, swept, cpus, monkeypatch
    ):
        # Eight workers, more than most machines running this have cores,
        # under a short switch interval interleave their use of the shared
        # factor cache as much as the interpreter allows.
        system, model = swept
        reference = frequency_sweep(system, model, n_points=30)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sweep = frequency_sweep(system, model, n_points=30)
        finally:
            sys.setswitchinterval(interval)
        assert sweep.workers == len(cpus)
        _assert_same_sweep(sweep, reference)

    def test_workers_capped_by_points_and_cpu_count(self, sys60, monkeypatch):
        model = build_reduced(ekba_basis(sys60, 2, FORWARD), STATE_SPACE)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert frequency_sweep(sys60, model, n_points=10).workers == 3
        assert frequency_sweep(sys60, model, n_points=2).workers == 2

    @pytest.mark.parametrize("w_lo", [0.0, -1.0])
    def test_nonpositive_lower_frequency_rejected(self, sys60, w_lo):
        model = build_reduced(ekba_basis(sys60, 2, FORWARD), STATE_SPACE)
        with pytest.raises(DimensionMismatch, match="positive"):
            frequency_sweep(sys60, model, w_lo=w_lo, n_points=10)

    @pytest.mark.parametrize("w_hi", [np.inf, np.nan])
    def test_non_finite_upper_frequency_rejected(self, sys60, w_hi):
        model = build_reduced(ekba_basis(sys60, 2, FORWARD), STATE_SPACE)
        with pytest.raises(DimensionMismatch, match="w_hi"):
            frequency_sweep(sys60, model, w_hi=w_hi, n_points=10)

    def test_csv_output(self, sys60, tmp_path):
        basis = ekba_basis(sys60, 2, FORWARD)
        model = build_reduced(basis, STATE_SPACE)
        sweep = frequency_sweep(sys60, model, n_points=10)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweep)
        lines = path.read_text().splitlines()
        assert lines[0] == "omega,norm_full,norm_reduced,error"
        assert len(lines) == 11
        first = [float(v) for v in lines[1].split(",")]
        assert abs(first[0] - 1e-5) <= 1e-18


class TestOpenGroups:
    omegas = np.logspace(-5, 5, 200)

    def test_the_whole_default_grid_is_ten_groups_of_twenty(self):
        groups = reduction._open_groups(self.omegas, range(200))
        assert groups == [list(range(20 * g, 20 * g + 20)) for g in range(10)]

    def test_last_point_past_a_decade_by_rounding_opens_no_group(self):
        omegas = np.array([1.0, 3.0, 10.0 * (1.0 + 1e-15)])
        assert np.log10(omegas[-1] / omegas[0]) > 1.0
        assert reduction._open_groups(omegas, range(3)) == [[0, 1, 2]]
        # Past it by more than rounding, the run is cut in two.
        omegas[-1] = 10.0**1.01
        assert reduction._open_groups(omegas, range(3)) == [[0, 1], [2]]

    @pytest.mark.parametrize(
        "omegas",
        [np.logspace(0, 0.9, 7), np.logspace(-3, -2, 11), np.array([2.0])],
        ids=["inside", "one_decade", "one_point"],
    )
    def test_a_grid_within_one_decade_is_one_group(self, omegas):
        n = len(omegas)
        assert reduction._open_groups(omegas, range(n)) == [list(range(n))]

    def test_run_across_a_decade_edge_is_cut_into_equal_parts(self):
        # The open points of the 60-by-60 benchmark input (seed 3): cut at
        # the decade edge, 95..99 and 100..118 took three anchors.
        groups = reduction._open_groups(self.omegas, list(range(95, 119)))
        assert groups == [list(range(95, 107)), list(range(107, 119))]

    def test_each_run_is_cut_on_its_own(self):
        open_ = [3, *range(90, 100), 150, 151]
        groups = reduction._open_groups(self.omegas, open_)
        assert groups == [[3], list(range(90, 100)), [150, 151]]

    def test_a_part_is_never_empty(self):
        # A run of two points five decades apart is two parts, not five.
        assert reduction._open_groups(self.omegas[::100], range(2)) == [[0], [1]]

    def test_no_open_point_is_no_group(self):
        assert reduction._open_groups(self.omegas, []) == []


class TestRealProcesses:
    @pytest.mark.parametrize("serve", [reduction._from_zero, reduction._from_infinity])
    def test_served_values_match_the_per_shift_factorization(self, swept, serve):
        system, _ = swept
        omegas = np.logspace(-5, 5, 200)
        groups = reduction._open_groups(omegas, range(200))
        served = serve(as_pair(system), omegas, groups)
        # Each process reaches the decade edge on its own side of the grid.
        edge = 0 if serve is reduction._from_zero else 199
        assert edge in served
        for i, f in served.items():
            ref = eval_full_tf(system, 1j * omegas[i])
            assert la.norm(f - ref, 2) <= 1e-12 * la.norm(ref, 2), i

    def test_serve_the_decade_edges_of_the_default_grid(self, swept):
        system, _ = swept
        omegas = np.logspace(-5, 5, 200)
        groups = reduction._open_groups(omegas, range(200))
        pair = as_pair(system)
        served = {
            **reduction._from_infinity(pair, omegas, groups),
            **reduction._from_zero(pair, omegas, groups),
        }
        edges = {i for g in groups for i in (g[0], g[-1])}
        assert edges <= set(served)

    def test_make_no_complex_factorization_or_solve(self, swept, kinds, monkeypatch):
        system, _ = swept
        omegas = np.logspace(-5, 5, 200)
        groups = reduction._open_groups(omegas, range(200))
        pair = as_pair(system)
        held = pair.sys.saddle("mass"), pair.sys.saddle("stiffness")
        complex_solves = []
        real = kernels.solve_saddle

        def looking(fact, rhs, *args, **kwargs):
            if fact.is_complex or np.iscomplexobj(rhs):
                complex_solves.append(fact.kind)
            return real(fact, rhs, *args, **kwargs)

        monkeypatch.setattr(kernels, "solve_saddle", looking)
        made = len(kinds)
        for serve in (reduction._from_zero, reduction._from_infinity):
            assert serve(pair, omegas, groups)
        assert kinds[made:] == []
        assert complex_solves == []
        del held

    @pytest.mark.parametrize("singular", ["stiffness", "capture", "mass"])
    def test_singular_real_block_leaves_its_points_to_the_others(self, singular):
        # A state with A = 0 makes the stiffness block singular; a gain
        # K = w^T / (w^T A^-1 B) makes the capture matrix I - K A^-1 B
        # singular.  Either puts a pole at s = 0.  A state with M = 0 makes
        # the mass block singular.  None is an error: the other real
        # process and the anchors serve every point.
        bank = _oscillator_bank(
            pole=False,
            integrator=singular == "stiffness",
            algebraic=singular == "mass",
        )
        system = bank
        if singular == "capture":
            w = np.ones((1, bank.n_v))
            ainv_b = np.linalg.solve(bank.A.toarray(), bank.B)
            system = ClosedLoopSystem(
                bank, FeedbackGain(left=np.eye(1), right=w / (w @ ainv_b))
            )
        blind, other = reduction._from_zero, reduction._from_infinity
        if singular == "mass":
            blind, other = other, blind
        model = _first_order_model()
        sweep = frequency_sweep(system, model, w_lo=1e-2, w_hi=1e2, n_points=40)
        omegas = sweep.full.omegas
        pair = as_pair(system)
        groups = reduction._open_groups(omegas, range(40))
        assert blind(pair, omegas, groups) == {}
        assert other(pair, omegas, groups)
        assert sweep.factorizations >= len(groups) // 2
        assert not sweep.skipped
        full, _ = _serial_responses(system, model, omegas)
        for f, ref in zip(sweep.full.values, full):
            assert la.norm(f - ref, 2) <= 1e-12 * la.norm(ref, 2)


class TestShiftedKrylov:
    def test_batch_serves_what_a_per_shift_loop_serves(self, swept):
        system, _ = swept
        pair = as_pair(system)
        omegas = np.logspace(-5, 5, 200)
        for group in reduction._open_groups(omegas, range(200)):
            anchor = group[len(group) // 2]
            sigma = 1j * omegas[anchor]
            shifts = {i: 1j * omegas[i] for i in group if i != anchor}
            op, x0, coefs = _anchor_process(pair, sigma, shifts)
            done = reduction._shifted_krylov(op, pair.sys, x0, [coefs])
            ref = _per_shift_krylov(op, pair.sys, x0, coefs)
            assert sorted(done) == sorted(ref)
            for i, f in done.items():
                assert la.norm(f - ref[i], 2) <= 1e-13 * la.norm(ref[i], 2)

    def test_exactly_singular_projected_matrix_leaves_only_its_shift_open(self):
        # At sigma = 0 the oscillator's saddle solve is S = A, and the Krylov
        # process runs on integers: after two steps the projected matrix at
        # s = i is I + i H_2 with H_2 a signed permutation similar to A,
        # singular with an exactly zero pivot, as I + i A is.
        osc = _oscillator()
        pair = as_pair(osc)
        lhs = np.eye(2) + 1j * osc.A.toarray()
        assert reduction._projected_solve(lhs, np.ones((2, 1), dtype=complex)) == (None, 0.0)
        shifts = {0: 0.5j, 1: 1j, 2: 2j}
        op, x0, coefs = _anchor_process(pair, 0j, shifts)
        done = reduction._shifted_krylov(op, osc, x0, [coefs])
        assert sorted(done) == [0, 2]
        assert sorted(_per_shift_krylov(op, osc, x0, coefs)) == [0, 2]
        for i in done:
            ref = eval_full_tf(osc, shifts[i])
            assert la.norm(done[i] - ref, 2) <= 1e-14 * la.norm(ref, 2)
