import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from ekstab import kernels, oracle
from ekstab.arnoldi import FORWARD, OperatorPair, ekba_basis, ekba_init
from ekstab.closedloop import (
    ClosedLoopSystem,
    constant_input,
    cost_quadrature,
    read_input_csv,
    reduce_closed_loop,
    sampled_input,
    simulate_dae,
    simulate_reduced,
    step_input,
    write_trajectory_csv,
    zero_input,
    Trajectory,
)
from ekstab.errors import (
    DimensionMismatch,
    InvalidInitialState,
    ModeMismatch,
    ParseError,
    SimulationDiverged,
    SingularCapture,
)
from ekstab.reduction import GENERALIZED, STATE_SPACE, build_reduced, eval_reduced_tf
from ekstab.riccati import FeedbackGain, ebara_solve, feedback_gain
from ekstab.sysmodel import DescriptorSystem, SyntheticSpec, Unstable, generate_synthetic


@pytest.fixture(scope="module")
def gain60(sys60u):
    return feedback_gain(ebara_solve(sys60u, tol=1e-8).z, sys60u)


@pytest.fixture(scope="module")
def cl60(sys60u, gain60):
    return ClosedLoopSystem(sys60u, gain60)


def _dense_corrected_solve(sys_, k, rhs):
    n_v, n_p = sys_.n_v, sys_.n_p
    blk = np.block(
        [
            [sys_.A.toarray() - sys_.B @ k, sys_.G.toarray()],
            [sys_.G.toarray().T, np.zeros((n_p, n_p))],
        ]
    )
    rhs_full = np.vstack([rhs, np.zeros((n_p, rhs.shape[1]))])
    return la.solve(blk, rhs_full)[:n_v]


class TestSmwSolve:
    def test_zero_gain_identical_to_plain(self, sys60u):
        zero_gain = FeedbackGain(
            left=np.zeros((sys60u.n_b, 0)), right=np.zeros((0, sys60u.n_v))
        )
        cl = ClosedLoopSystem(sys60u, zero_gain)
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal((sys60u.n_v, 2))
        plain = kernels.solve_saddle(cl.sys.saddle("stiffness"), rhs)
        corrected = cl.solve_stiff(rhs)
        assert la.norm(corrected - plain, 2) <= 1e-14 * la.norm(plain, 2)

    def test_matches_dense_oracle(self, sys60u, cl60):
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal((sys60u.n_v, 3))
        x = cl60.solve_stiff(rhs)
        ref = _dense_corrected_solve(sys60u, cl60.k_matrix, rhs)
        assert la.norm(x - ref, 2) <= 1e-10 * la.norm(ref, 2)

    def test_zero_rhs(self, cl60, sys60u):
        x = cl60.solve_stiff(np.zeros((sys60u.n_v, 2)))
        assert np.all(x == 0.0)

    @pytest.mark.parametrize("n_b", [1, 2, 4])
    def test_rank_sweep_vs_dense(self, n_b):
        sys_ = generate_synthetic(SyntheticSpec(50, 6, n_b=n_b, n_c=2, seed=4))
        rng = np.random.default_rng(n_b)
        k = 0.3 * rng.standard_normal((n_b, 50))
        gain = FeedbackGain(left=np.eye(n_b), right=k)
        cl = ClosedLoopSystem(sys_, gain)
        rhs = rng.standard_normal((50, 2))
        x = cl.solve_stiff(rhs)
        ref = _dense_corrected_solve(sys_, k, rhs)
        assert la.norm(x - ref, 2) <= 1e-10 * la.norm(ref, 2)

    @pytest.mark.parametrize(
        "kind, shift",
        [("stiffness", None), ("shifted", 0.3 + 2j), ("euler", 0.1)],
        ids=["stiffness", "shifted", "euler"],
    )
    def test_euler_kind_vs_dense(self, sys60u, cl60, kind, shift):
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal((sys60u.n_v, 2))
        x = cl60.solver(kind, shift)(rhs)
        n_v, n_p = sys60u.n_v, sys60u.n_p
        m, a = sys60u.M.toarray(), sys60u.A.toarray()
        if kind == "stiffness":
            w, c = a, 1.0
        elif kind == "shifted":
            w, c = shift * m - a, -1.0
        else:
            w, c = m - shift * a, -shift
        blk = np.block(
            [
                [w - c * (sys60u.B @ cl60.k_matrix), sys60u.G.toarray()],
                [sys60u.G.toarray().T, np.zeros((n_p, n_p))],
            ]
        )
        ref = la.solve(blk, np.vstack([rhs, np.zeros((n_p, 2))]))[:n_v]
        assert la.norm(x - ref, 2) <= 1e-10 * la.norm(ref, 2)

    def test_unknown_kind_rejected(self, cl60):
        with pytest.raises(DimensionMismatch):
            cl60.solver("mass")

    @pytest.mark.parametrize(
        "kind, shift",
        [("stiffness", 5.0), ("euler", None), ("shifted", None), ("identity", None),
         ("bogus", None)],
    )
    def test_block_without_a_or_with_a_bad_shift_rejected(
        self, cl60, kinds, kind, shift
    ):
        with pytest.raises(DimensionMismatch):
            cl60.solver(kind, shift)
        assert kinds == []

    def test_singular_capture_detected(self, sys60u):
        sys_ = generate_synthetic(SyntheticSpec(40, 5, n_b=1, n_c=1, seed=2))
        fact = kernels.factor_saddle(sys_.A, sys_.G, kind="stiffness")
        ainvb = kernels.solve_saddle(fact, sys_.B)
        k = ainvb.T / (ainvb.T @ ainvb).item()  # makes K A^-1 B = 1 exactly
        gain = FeedbackGain(left=np.eye(1), right=k)
        with pytest.raises(SingularCapture):
            ClosedLoopSystem(sys_, gain).solve_stiff(sys_.B)


class TestClosedLoopSystem:
    def test_k_matrix_is_the_gain_array(self, sys60u, gain60):
        assert ClosedLoopSystem(sys60u, gain60).k_matrix is gain60.matrix()

    @pytest.mark.parametrize("n_b, n_v", [(2, 59), (3, 60)], ids=["n_v", "n_b"])
    def test_gain_of_the_wrong_shape_rejected(self, sys60u, n_b, n_v):
        gain = FeedbackGain(left=np.eye(n_b), right=np.zeros((n_b, n_v)))
        with pytest.raises(DimensionMismatch):
            ClosedLoopSystem(sys60u, gain)

    def test_apply_is_the_closed_loop_product(self, sys60u, gain60):
        x = np.random.default_rng(8).standard_normal((sys60u.n_v, 3))
        ref = sys60u.A @ x - sys60u.B @ (gain60.matrix() @ x)
        got = ClosedLoopSystem(sys60u, gain60).apply(x)
        assert la.norm(got - ref) <= 1e-14 * la.norm(ref)

    def test_euler_corrector_is_the_euler_solver(self, sys60u, cl60):
        rhs = np.random.default_rng(6).standard_normal((sys60u.n_v, 2))
        x = cl60.euler_corrector(0.1)(rhs)
        assert np.array_equal(x, cl60.solver("euler", 0.1)(rhs))


class TestReduceClosedLoop:
    def test_zero_gain_matches_open_loop(self, sys60u):
        zero_gain = FeedbackGain(
            left=np.zeros((sys60u.n_b, 0)), right=np.zeros((0, sys60u.n_v))
        )
        cl = ClosedLoopSystem(sys60u, zero_gain)
        basis_cl, _ = reduce_closed_loop(cl, 4)
        basis_ol = ekba_basis(sys60u, 4, FORWARD)
        assert la.norm(basis_cl.V() - basis_ol.V(), 2) <= 1e-12

    def test_reduced_operator_stable_at_exactness(self, sys60u, gain60, cl60):
        m = (sys60u.n_v - sys60u.n_p) // (2 * sys60u.n_b)
        basis, model = reduce_closed_loop(cl60, m)
        assert np.max(la.eigvals(model.a).real) < 0.0
        # At exactness the reduced spectrum is the closed-loop finite spectrum.
        spectrum = oracle.pencil_finite_spectrum(sys60u, gain60)
        assert np.allclose(
            np.sort(la.eigvals(model.a).real), np.sort(spectrum.real), atol=1e-7
        )

    def test_closed_loop_sweep_error(self, sys60u, cl60):
        from ekstab.reduction import frequency_sweep
        from ekstab.sysmodel import DescriptorSystem
        import scipy.sparse as sp

        m = (sys60u.n_v - sys60u.n_p) // (2 * sys60u.n_b)
        _, model = reduce_closed_loop(cl60, m)
        closed_sys = DescriptorSystem(
            M=sys60u.M,
            A=sp.csc_matrix(sys60u.A.toarray() - sys60u.B @ cl60.k_matrix),
            G=sys60u.G,
            B=sys60u.B,
            C=sys60u.C,
        )
        sweep = frequency_sweep(closed_sys, model, n_points=40)
        assert np.nanmax(sweep.errors) <= 1e-6

    @pytest.mark.parametrize("form", [STATE_SPACE, GENERALIZED])
    @pytest.mark.parametrize("m", [3, 10])
    def test_matches_arnoldi_on_explicit_closed_loop(self, sys60u, cl60, m, form):
        # The reference runs the process on A - B K assembled explicitly.
        explicit = DescriptorSystem(
            M=sys60u.M,
            A=sp.csc_matrix(sys60u.A.toarray() - sys60u.B @ cl60.k_matrix),
            G=sys60u.G,
            B=sys60u.B,
            C=sys60u.C,
        )
        ref = build_reduced(ekba_basis(explicit, m, FORWARD), form)
        _, model = reduce_closed_loop(cl60, m, form)
        for w in np.logspace(-3, 3, 5):
            f = eval_reduced_tf(ref, 1j * w)
            g = eval_reduced_tf(model, 1j * w)
            assert la.norm(g - f, 2) <= 1e-10 * la.norm(f, 2)

    def test_runs_the_open_loop_process(self, sys60u, gain60, monkeypatch):
        solves = []
        real = kernels.solve_saddle

        def counting(*args, **kwargs):
            solves.append(args[0].kind)
            return real(*args, **kwargs)

        def no_corrector(*args, **kwargs):
            raise AssertionError("closed-loop reduction built an SMW corrector")

        monkeypatch.setattr(kernels, "solve_saddle", counting)
        monkeypatch.setattr(kernels, "SmwCorrector", no_corrector)
        cl = ClosedLoopSystem(sys60u, gain60)
        reduce_closed_loop(cl, 4)
        closed = sorted(solves)
        solves.clear()
        ekba_basis(cl.sys, 4, FORWARD)
        assert closed == sorted(solves)

    @pytest.mark.parametrize(
        "build", [ekba_init, lambda cl: ekba_basis(cl, 2)], ids=["init", "basis"]
    )
    def test_arnoldi_refuses_a_pair_with_a_gain(self, cl60, build):
        with pytest.raises(ModeMismatch):
            build(cl60)


class TestSharedFactors:
    @pytest.fixture
    def fresh(self):
        return generate_synthetic(
            SyntheticSpec(60, 8, n_b=2, n_c=2, seed=7, unstable=Unstable(2, 0.5))
        )

    def test_one_factor_per_block_across_stages(self, fresh, kinds):
        solution = ebara_solve(fresh, tol=1e-8)
        cl = ClosedLoopSystem(fresh, feedback_gain(solution.z, fresh))
        basis, _ = reduce_closed_loop(cl, 4)
        assert sorted(kinds) == ["identity", "mass", "stiffness"]
        simulate_dae(cl, constant_input(np.ones(fresh.n_b)), h=0.05, t_end=1.0)
        assert sorted(kinds) == ["euler", "identity", "mass", "stiffness"]

    def test_simulation_factors_only_the_stepping_block(self, fresh, kinds):
        k = 0.3 * np.random.default_rng(1).standard_normal((fresh.n_b, fresh.n_v))
        cl = ClosedLoopSystem(fresh, FeedbackGain(left=np.eye(fresh.n_b), right=k))
        simulate_dae(cl, constant_input(np.ones(fresh.n_b)), h=0.05, t_end=1.0)
        assert kinds == ["euler"]

    def test_factors_freed_with_their_last_holder(self, fresh, kinds):
        solution = ebara_solve(fresh, tol=1e-8)
        cl = ClosedLoopSystem(fresh, feedback_gain(solution.z, fresh))
        basis, _ = reduce_closed_loop(cl, 4)
        del solution, cl, basis
        ebara_solve(fresh, tol=1e-8)
        assert sorted(kinds) == [
            "identity",
            "identity",
            "mass",
            "mass",
            "stiffness",
            "stiffness",
        ]


class TestSimulateDae:
    def test_zero_everything(self, sys60):
        traj = simulate_dae(sys60, zero_input(sys60.n_b), h=0.1, t_end=2.0)
        assert np.all(traj.outputs == 0.0)

    def test_steady_state(self, sys60):
        fact = kernels.factor_saddle(sys60.A, sys60.G, kind="stiffness")
        v_star = kernels.solve_saddle(fact, -sys60.B @ np.ones(sys60.n_b))
        y_star = sys60.C @ v_star
        traj = simulate_dae(sys60, constant_input(np.ones(sys60.n_b)), h=0.02, t_end=40.0)
        assert np.abs(traj.outputs[-1] - y_star).max() <= 1e-6

    def test_open_loop_growth_closed_loop_settles(self, sys60u, cl60):
        open_traj = simulate_dae(
            sys60u, constant_input(np.ones(sys60u.n_b)), h=0.05, t_end=60.0
        )
        assert np.abs(open_traj.outputs).max() > 1e6
        closed_traj = simulate_dae(
            cl60, constant_input(np.ones(sys60u.n_b)), h=0.05, t_end=60.0
        )
        assert np.abs(closed_traj.outputs).max() < 1e3
        tail_change = np.abs(closed_traj.outputs[-1] - closed_traj.outputs[-21]).max()
        assert tail_change <= 1e-6

    def test_constraint_preserved_along_trajectory(self, sys60):
        traj = simulate_dae(
            sys60,
            constant_input(np.ones(sys60.n_b)),
            h=0.1,
            t_end=3.0,
            keep_states=True,
        )
        g = sys60.G.toarray()
        gnorm = la.norm(g, 2)
        for v in traj.states[1:]:
            assert la.norm(g.T @ v) <= 1e-8 * la.norm(v) * gnorm

    def test_divergence_raises(self, sys60u):
        with pytest.raises(SimulationDiverged):
            simulate_dae(
                sys60u,
                constant_input(np.ones(sys60u.n_b)),
                h=0.05,
                t_end=60.0,
                blowup=1e6,
            )

    @pytest.mark.parametrize(
        "h, t_end",
        [
            (np.inf, 1.0), (np.nan, 1.0), (0.1, np.inf), (0.1, np.nan), (10.0, 1.0),
            (1e-300, 1.0), (1e-320, 1.0),
        ],
    )
    def test_non_finite_or_stepless_run_rejected(self, sys60, kinds, h, t_end):
        with pytest.raises(DimensionMismatch):
            simulate_dae(sys60, zero_input(sys60.n_b), h=h, t_end=t_end)
        assert kinds == []

    @pytest.mark.parametrize(
        "closed, u, signal",
        [
            (True, np.ones(2), constant_input(np.ones(2))),
            (False, 0.5, constant_input([0.5, 0.5])),
            (False, None, zero_input(2)),
            (False, np.ones((2, 1)), constant_input(np.ones(2))),
        ],
        ids=["array", "scalar", "none", "column"],
    )
    def test_array_scalar_and_none_inputs(self, sys60u, cl60, closed, u, signal):
        # An array is how a caller passes a constant input without building
        # a signal; it runs exactly as the signal it stands for.
        target = cl60 if closed else sys60u
        traj = simulate_dae(target, u, h=0.1, t_end=2.0)
        ref = simulate_dae(target, signal, h=0.1, t_end=2.0)
        assert np.array_equal(traj.inputs, ref.inputs)
        assert np.array_equal(traj.outputs, ref.outputs)

    def test_input_array_of_the_wrong_size_rejected(self, sys60, kinds):
        with pytest.raises(DimensionMismatch):
            simulate_dae(sys60, np.ones(3), h=0.1, t_end=1.0)
        assert kinds == []

    def test_signal_whose_sample_shape_changes_mid_run_rejected(self, sys60, kinds):
        # Every sample is checked, not only the first: a narrow sample at
        # t = 0.5 is refused before anything is factored.
        def u(t):
            return np.ones(2) if t < 0.5 else np.ones(1)

        with pytest.raises(DimensionMismatch, match=r"t = 0\.5 .*\(1,\)"):
            simulate_dae(sys60, u, h=0.1, t_end=1.0)
        assert kinds == []

    def test_invalid_initial_state(self, sys60):
        rng = np.random.default_rng(3)
        v0 = rng.standard_normal(sys60.n_v)  # violates G^T v = 0
        with pytest.raises(InvalidInitialState):
            simulate_dae(sys60, zero_input(sys60.n_b), h=0.1, t_end=1.0, v0=v0)

    def test_admissible_initial_state(self, sys60):
        rng = np.random.default_rng(4)
        fact = kernels.factor_saddle(sys60.M, sys60.G, kind="mass")
        v0 = kernels.solve_saddle(fact, rng.standard_normal(sys60.n_v))
        traj = simulate_dae(sys60, zero_input(sys60.n_b), h=0.1, t_end=1.0, v0=v0)
        assert np.all(np.isfinite(traj.outputs))

    def test_admissible_initial_state_single_pressure(self):
        sys_ = generate_synthetic(SyntheticSpec(20, 1, n_b=1, n_c=1, seed=5))
        v0 = kernels.solve_saddle(sys_.saddle("mass"), np.ones(sys_.n_v))
        traj = simulate_dae(sys_, zero_input(1), h=0.1, t_end=1.0, v0=v0)
        assert np.all(np.isfinite(traj.outputs))

    def test_first_order_convergence(self):
        sys_ = generate_synthetic(SyntheticSpec(40, 5, n_b=1, n_c=1, seed=3))
        proj = oracle.build_projector(sys_)
        tsys = oracle.theta_system(sys_, proj)
        f = la.solve(tsys.m, tsys.a)
        g = la.solve(tsys.m, tsys.b)
        horizon = 2.0
        x_exact = la.solve(f, (la.expm(f * horizon) - np.eye(f.shape[0])) @ g[:, 0])
        y_exact = (tsys.c @ x_exact)[0]
        errors = {}
        for h in (0.02, 0.01):
            traj = simulate_dae(sys_, constant_input([1.0]), h=h, t_end=horizon)
            errors[h] = abs(traj.outputs[-1, 0] - y_exact)
        ratio = errors[0.02] / errors[0.01]
        assert 1.7 <= ratio <= 2.3


class TestSimulateReduced:
    def test_zero_input(self, sys60):
        basis = ekba_basis(sys60, 3, FORWARD)
        model = build_reduced(basis)
        traj = simulate_reduced(model, zero_input(sys60.n_b), h=0.1, t_end=2.0)
        assert np.all(traj.outputs == 0.0)

    def test_input_of_wrong_width(self, sys60):
        model = build_reduced(ekba_basis(sys60, 2, FORWARD))
        u = sampled_input([0.0], [[1.0] * (sys60.n_b + 1)])
        with pytest.raises(DimensionMismatch):
            simulate_reduced(model, u, h=0.1, t_end=1.0)

    def test_exactness_matches_full(self, sys60):
        m = (sys60.n_v - sys60.n_p) // (2 * sys60.n_b)
        basis = ekba_basis(sys60, m, FORWARD)
        model = build_reduced(basis)
        u = constant_input(np.ones(sys60.n_b))
        full = simulate_dae(sys60, u, h=0.05, t_end=10.0)
        red = simulate_reduced(model, u, h=0.05, t_end=10.0)
        assert np.max(la.norm(full.outputs - red.outputs, axis=1)) <= 1e-6

    def test_closed_loop_error_does_not_grow(self, sys60u, cl60):
        m = (sys60u.n_v - sys60u.n_p) // (2 * sys60u.n_b)
        _, model = reduce_closed_loop(cl60, m)
        u = constant_input(np.ones(sys60u.n_b))
        full = simulate_dae(cl60, u, h=0.05, t_end=40.0)
        red = simulate_reduced(model, u, h=0.05, t_end=40.0)
        err = la.norm(full.outputs - red.outputs, axis=1)
        half = len(err) // 2
        assert err[half:].max() <= err[:half].max() * 1.1 + 1e-14

    def test_generalized_form_simulation(self, sys60):
        from ekstab.reduction import GENERALIZED

        m = (sys60.n_v - sys60.n_p) // (2 * sys60.n_b)
        basis = ekba_basis(sys60, m, FORWARD)
        model = build_reduced(basis, GENERALIZED)
        u = constant_input(np.ones(sys60.n_b))
        full = simulate_dae(sys60, u, h=0.05, t_end=5.0)
        red = simulate_reduced(model, u, h=0.05, t_end=5.0)
        assert np.max(la.norm(full.outputs - red.outputs, axis=1)) <= 1e-6


# Two switches after the first sample; h = 0.05 puts them on grid points.
SWITCHING = dict(times=[0.0, 2.0, 6.0], values=[[1.0, -0.5], [0.3, 2.0], [-1.0, 0.0]])
EULER_H = 0.05
EULER_STEPS = 200


def _dense_euler(mass, a, g, b, c, u, v0):
    """Explicit dense implicit Euler on [[mass - h a, g], [g^T, 0]]: outputs, states."""
    n_v, n_p = a.shape[0], g.shape[1]
    lu = la.lu_factor(
        np.block([[mass - EULER_H * a, g], [g.T, np.zeros((n_p, n_p))]])
    )
    states = [v0]
    for k in range(1, EULER_STEPS + 1):
        rhs = mass @ states[-1] + EULER_H * (b @ u(EULER_H * k))
        states.append(la.lu_solve(lu, np.concatenate([rhs, np.zeros(n_p)]))[:n_v])
    states = np.array(states)
    return states @ c.T, states


def _relative(x, ref):
    return la.norm(x - ref) / la.norm(ref)


class TestEulerStep:
    @pytest.fixture
    def v0(self, sys60u):
        rhs = np.random.default_rng(8).standard_normal(sys60u.n_v)
        return kernels.solve_saddle(sys60u.saddle("mass"), rhs)

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_matches_dense_saddle_stepping(self, sys60u, gain60, v0, closed):
        u = sampled_input(**SWITCHING)
        a = sys60u.A.toarray()
        if closed:
            a = a - sys60u.B @ gain60.matrix()
        outputs, states = _dense_euler(
            sys60u.M.toarray(), a, sys60u.G.toarray(), sys60u.B, sys60u.C, u, v0
        )
        traj = simulate_dae(
            ClosedLoopSystem(sys60u, gain60) if closed else sys60u,
            u, h=EULER_H, t_end=EULER_STEPS * EULER_H, v0=v0, keep_states=True,
        )
        assert _relative(traj.outputs, outputs) <= 1e-12
        assert _relative(traj.states, states) <= 1e-12

    @pytest.mark.parametrize("form", [STATE_SPACE, GENERALIZED])
    def test_reduced_matches_dense_lu_stepping(self, sys60u, cl60, form):
        _, model = reduce_closed_loop(cl60, 4, form)
        mass = np.eye(model.order) if model.mass is None else model.mass
        u = sampled_input(**SWITCHING)
        lu = la.lu_factor(mass - EULER_H * model.a)
        v = np.zeros(model.order)
        outputs = [model.c @ v]
        for k in range(1, EULER_STEPS + 1):
            v = la.lu_solve(lu, mass @ v + EULER_H * (model.b @ u(EULER_H * k)))
            outputs.append(model.c @ v)
        traj = simulate_reduced(model, u, h=EULER_H, t_end=EULER_STEPS * EULER_H)
        assert _relative(traj.outputs, np.array(outputs)) <= 1e-12

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_one_euler_solve_per_step_and_one_for_b(
        self, sys60u, gain60, monkeypatch, closed
    ):
        solves = []
        real = kernels.solve_saddle

        def counting(fact, rhs, *args, **kwargs):
            solves.append((fact.kind, np.shape(rhs)))
            return real(fact, rhs, *args, **kwargs)

        def unreachable(*args, **kwargs):
            raise AssertionError("a step went through the SMW corrected solve")

        monkeypatch.setattr(kernels, "solve_saddle", counting)
        monkeypatch.setattr(kernels.SmwCorrector, "solve", unreachable)
        n_steps = 30
        simulate_dae(
            ClosedLoopSystem(sys60u, gain60) if closed else sys60u,
            constant_input(np.ones(sys60u.n_b)), h=EULER_H, t_end=n_steps * EULER_H,
        )
        assert len(solves) == n_steps + 1
        assert {kind for kind, _ in solves} == {"euler"}
        assert sorted(shape for _, shape in solves)[-1] == (sys60u.n_v, sys60u.n_b)

    def test_singular_capture_raised_before_the_first_step(self, monkeypatch):
        sys_ = generate_synthetic(SyntheticSpec(40, 5, n_b=1, n_c=1, seed=2))
        fact = sys_.saddle("euler", EULER_H)
        sb = kernels.solve_saddle(fact, sys_.B)
        k = -sb.T / (EULER_H * (sb.T @ sb).item())  # makes I + h K S B = 0 exactly
        gain = FeedbackGain(left=np.eye(1), right=k)
        steps = []
        real = kernels.solve_saddle

        def counting(fact, rhs, *args, **kwargs):
            steps.append(np.ndim(rhs))
            return real(fact, rhs, *args, **kwargs)

        monkeypatch.setattr(kernels, "solve_saddle", counting)
        with pytest.raises(SingularCapture):
            simulate_dae(
                ClosedLoopSystem(sys_, gain), constant_input([1.0]),
                h=EULER_H, t_end=EULER_STEPS * EULER_H,
            )
        assert 1 not in steps

    def test_adjoint_pair_rejected_before_factoring(self, sys60, kinds):
        with pytest.raises(ModeMismatch):
            simulate_dae(
                OperatorPair(sys60, adjoint=True), constant_input(np.ones(sys60.n_b)),
                h=EULER_H, t_end=EULER_STEPS * EULER_H,
            )
        assert kinds == []

    @pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
    def test_nan_input_diverges_at_the_first_step(self, sys60u, gain60, closed):
        with pytest.raises(SimulationDiverged, match=r"at t = 0\.05$"):
            simulate_dae(
                ClosedLoopSystem(sys60u, gain60) if closed else sys60u,
                constant_input([np.nan, 1.0]), h=EULER_H, t_end=1.0,
            )


class TestCostAndSignals:
    def test_zero_cost(self):
        traj = Trajectory(
            times=np.linspace(0.0, 1.0, 11),
            outputs=np.zeros((11, 1)),
            inputs=np.zeros((11, 1)),
        )
        assert cost_quadrature(traj) == 0.0

    def test_constant_output_cost(self):
        traj = Trajectory(
            times=np.linspace(0.0, 2.0, 21),
            outputs=np.ones((21, 1)),
            inputs=np.zeros((21, 1)),
        )
        assert abs(cost_quadrature(traj) - 1.0) <= 1e-12

    def test_stabilized_cost_growth_bounded(self, sys60u, cl60):
        u = constant_input(np.ones(sys60u.n_b))
        short = simulate_dae(cl60, u, h=0.05, t_end=20.0)
        long = simulate_dae(cl60, u, h=0.05, t_end=40.0)
        growth = cost_quadrature(long) - cost_quadrature(short)
        # Settled outputs: cost grows at most linearly over the second window.
        tail = np.sum(long.outputs[-1] ** 2) + np.sum(long.inputs[-1] ** 2)
        assert growth <= 0.5 * tail * 20.0 * 1.2

    def test_step_input(self):
        u = step_input([2.0], t_on=1.0)
        assert u(0.5)[0] == 0.0
        assert u(1.0)[0] == 2.0

    def test_sampled_input_zero_order_hold(self):
        u = sampled_input([0.0, 1.0, 2.0], [[1.0], [2.0], [3.0]])
        assert u(-0.1)[0] == 0.0
        assert u(0.0)[0] == 1.0
        assert u(1.5)[0] == 2.0
        assert u(5.0)[0] == 3.0

    def test_input_csv_round_trip(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("t,u_1,u_2\n0.0,1.0,0.5\n2.0,0.0,1.5\n")
        u = read_input_csv(path)
        assert np.allclose(u(0.5), [1.0, 0.5])
        assert np.allclose(u(3.0), [0.0, 1.5])

    @pytest.mark.parametrize(
        "rows",
        ["2,5\n0,1\n1,3\n", "0,1\n0,3\n", "0,1\n1,nan\n", "inf,1\n", "0,1\n1,2,3\n"],
        ids=["unsorted", "repeated", "nan", "inf-time", "ragged"],
    )
    def test_input_csv_it_cannot_honour(self, tmp_path, rows):
        path = tmp_path / "u.csv"
        path.write_text("t,u_1\n" + rows)
        with pytest.raises(ParseError):
            read_input_csv(path)

    @pytest.mark.parametrize(
        "text", ["", "\nt,u_1\n0,1\n", "time,u_1\n0,1\n"], ids=["empty", "blank", "time"]
    )
    def test_input_csv_needs_a_t_header(self, tmp_path, text):
        path = tmp_path / "u.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="'t' header"):
            read_input_csv(path)

    def test_input_csv_skips_a_blank_line(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("t,u_1,u_2\n0.0,1.0,0.5\n\n2.0,0.0,1.5\n")
        u = read_input_csv(path)
        assert np.array_equal(u(0.5), [1.0, 0.5])
        assert np.array_equal(u(3.0), [0.0, 1.5])

    def test_non_finite_trajectory_has_no_cost(self):
        traj = Trajectory(
            times=np.linspace(0.0, 1.0, 3),
            outputs=np.array([[0.0], [np.nan], [1.0]]),
            inputs=np.zeros((3, 1)),
        )
        with pytest.raises(SimulationDiverged):
            cost_quadrature(traj)

    def test_trajectory_csv(self, sys60, tmp_path):
        traj = simulate_dae(sys60, constant_input(np.ones(sys60.n_b)), h=0.5, t_end=2.0)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,y_1,y_2,u_1,u_2"
        assert len(lines) == len(traj.times) + 1
