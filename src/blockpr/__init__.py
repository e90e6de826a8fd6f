"""Block-based phase retrieval.

Splits a phase retrieval problem with a K-rectangular-block-diagonal
measurement matrix into K independent sub-problems, solves them with a
pluggable base solver (optionally in parallel), recovers the K per-block
phase factors from a small set of extra global measurements, and merges.
"""

from .bench import (
    ExperimentConfig,
    SweepRow,
    SweepTable,
    TrialRecord,
    emit_report,
    gen_instance,
    run_trial,
    select_k,
    sweep,
)
from .core import (
    BlockPartition,
    BlockPRInstance,
    KRBDMatrix,
    PRInstance,
    concat_blocks,
)
from .forward import (
    NoiseSpec,
    add_noise_intensity,
    align_global_phase,
    apply,
    magnitudes_from_intensity,
    measure,
    nmse,
)
from .io import BPR1Error, load_bpr1, save_bpr1
from .pipeline import (
    BlockSolveError,
    BlockSolveOutput,
    StageTimes,
    block_pr_solve,
    block_seed,
    build_tuning_matrix,
    merge,
    phase_tune,
    solve_blocks,
)
from .rng import generator, mix_seed
from .solvers import (
    APParams,
    Diverged,
    NonProgress,
    RankDeficient,
    SolverReport,
    SolverSpec,
    WFParams,
    altproj_solve,
    pinv_factor,
    solve_pr,
    spectral_init,
    unit_modulus_tune,
    wf_solve,
)

__version__ = "0.1.0"
