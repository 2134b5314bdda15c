"""Extended block Krylov reduction and LQR stabilization of index-2 descriptor systems.

The package operates directly on the sparse quintuple (M, A, G, B, C) of
a discretized incompressible-flow DAE: all projected-space computations
are realized through saddle-point solves, so the dense pressure-
eliminating projector never appears outside the dense test oracle.
"""

__version__ = "0.1.0"

from .arnoldi import (
    ADJOINT,
    FORWARD,
    ExtendedBasis,
    OperatorPair,
    ekba_basis,
    ekba_init,
    ekba_step,
    projected_input,
)
from .closedloop import (
    ClosedLoopSystem,
    Trajectory,
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
)
from .errors import (
    Breakdown,
    DimensionMismatch,
    EkstabError,
    InfeasibleSpec,
    InvalidInitialState,
    ModeMismatch,
    NoConvergence,
    NoStabilizingSolution,
    ParseError,
    RankDeficient,
    SimulationDiverged,
    SingularCapture,
    SingularSaddle,
    SingularShift,
    SizeCapExceeded,
    ValidationError,
)
from .kernels import (
    BlockQR,
    SaddleFactorization,
    block_gram_schmidt,
    dense_generalized_eigen,
    dense_svd,
    factor_saddle,
    solve_saddle,
    thin_qr,
)
from .reduction import (
    GENERALIZED,
    STATE_SPACE,
    FrequencyResponse,
    ReducedModel,
    SweepResult,
    build_reduced,
    eval_full_tf,
    eval_reduced_tf,
    frequency_sweep,
    write_sweep_csv,
)
from .riccati import (
    FeedbackGain,
    RiccatiSolution,
    care_dense,
    care_newton_kleinman,
    ebara_solve,
    feedback_gain,
    truncate_lowrank,
    write_residual_csv,
)
from .sysmodel import (
    DescriptorSystem,
    GridSpec,
    SyntheticSpec,
    Unstable,
    generate_synthetic,
    load_bundle,
    load_system,
    write_system,
)
