"""Feasibility-pump laboratory for mixed-binary linear programs.

Instances are rows over binary columns x and free continuous columns y.
The lab provides the alternating projection/rounding pump, minimal
infeasibility certificates at stalling points, certificate-guided
randomized escapes, instance generators with planted feasible points,
text formats, and a benchmark harness.
"""

from .errors import (
    DimensionMismatch,
    EmptyCertificateSupport,
    FormatError,
    InstanceInfeasible,
    InvalidInstance,
    NoFixpoint,
    NonBinaryVector,
    NotACertificate,
    PumpLabError,
    SolverFailure,
)
from .model import (
    Block,
    LinearRow,
    MixedBinaryInstance,
    MixedPoint,
    Objective,
    Sense,
    check_feasible,
    dense_objective,
    dense_rows,
    detect_blocks,
    normalize,
)
from .lp import CompiledInstance, LpProblem, LpSolution, LpStatus, SimplexSolver
from .projection import (
    ProjectionEntry,
    ProjectionOracle,
    alt_proj_star,
    as_binary,
    round_binary,
)
from .certificate import (
    CertificateOracle,
    ProjectedCertificate,
    cert_supp_bound,
)
from .perturb import (
    DEFAULT_TT_RANGE,
    PerturbOutcome,
    make_rng,
    original_perturb,
    original_perturb_zero_frac,
    perturb_l,
    restart_mask,
    restart_perturb,
    wfpbase_perturb,
)
from .pump import (
    ALGORITHMS,
    BoundReport,
    PumpTrace,
    TraceRecord,
    run_mb_walksat,
    run_naive_fp,
    run_original_fp,
    run_wfp,
    run_wfp_compressed,
    run_wfpbase_fp,
    theorem_bound,
)
from .gen import (
    BlockSpec,
    GenResult,
    fractional_stall_instance,
    gen_decomposable,
    gen_subset_sum,
    gen_two_stage,
    zero_frac_stall_instance,
)
from .formats import parse_mps, read_native, write_mps, write_native
from .bench import (
    BenchConfig,
    BenchResult,
    BenchRow,
    BenchTable,
    BoundSuiteResult,
    run_benchmark,
    run_bound_suite,
    shifted_geomean,
    subset_sum_suite,
    two_stage_suite,
    write_csv,
)

__version__ = "0.1.0"
