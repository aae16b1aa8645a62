"""squeezelab: exact desk-scale study of probability squeezing in RL.

Tabular softmax policies over enumerable path tasks make the effects that
are only measurable indirectly at language-model scale exact here: how a
negative update to one token or sequence sharpens the whole distribution,
how the group-relative objectives (GRPO, DAPO, GSPO) differ, and how an
alternating IRL stage fit to low-likelihood rollouts pushes back.
"""
from __future__ import annotations

from .config import ExperimentConfig, parse_config_text
from .errors import (
    CheckpointCorrupt,
    ConfigError,
    EmptyTrajectory,
    GenerationFailed,
    InsufficientSamples,
    InvalidLogits,
    InvalidToken,
    KExceedsN,
    MissingArtifacts,
    NoRollouts,
    NotASqueezeSetting,
    NumericOverflow,
    OneSidedGroup,
    PrefixExhausted,
    SpaceTooLarge,
    SqueezeLabError,
    SuiteCorrupt,
)
from .metrics import (
    AccuracyHistogram,
    CoverageRecord,
    PassAtKEstimate,
    SampleMatrix,
    accuracy_histogram,
    avg_at_k,
    evaluation_report,
    greedy_logprob_report,
    mean_mass_on_correct,
    pass_at_k_exact,
    pass_at_k_mc,
    pass_at_k_unbiased,
    sample_matrix,
    similarity,
    support_coverage,
)
from .objectives import (
    ClipConfig,
    ContrastiveRecord,
    ObjectiveReport,
    StepRecord,
    contrastive_decomposition,
    dapo_filter,
    dapo_objective,
    group_advantages,
    grpo_objective,
    gspo_objective,
    rl_step,
    sequence_ratio_gspo,
)
from .policy import (
    Gradient,
    PolicyTable,
    Prefix,
    TokenDistribution,
    Trajectory,
    Vocab,
    apply_update,
    derive_rng,
    entropy,
    grad_log_prob,
    greedy_decode,
    greedy_decode_batch,
    load_checkpoint,
    prefix_id,
    prefix_ids,
    prefix_key,
    prefix_rows,
    sample_trajectory,
    save_checkpoint,
    score_gradient,
    softmax,
    token_distribution,
    trajectory_log_prob,
)
from .rollouts import RolloutGroup, Rollouts, sample_trajectories
from .runner import RunManifest, compare, run
from .sps import (
    DemoEntry,
    DemoSet,
    SpsConfig,
    TrainTrace,
    TraceRecord,
    grpo_baseline_loop,
    irl_loss,
    irl_step,
    l2te_select,
    sps_loop,
)
from .squeeze import (
    SequenceSqueezeReport,
    SqueezeReport,
    enumerate_sequence_space,
    peakedness_trace,
    penalize_token,
    sequence_squeeze,
    verify_squeeze,
)
from .tasks import (
    FamilyParams,
    PathTaskSpec,
    Suite,
    TaskInstance,
    ValidatorResult,
    build_suite_policy,
    enumerate_correct,
    load_suite,
    make_benchmark_suite,
    skewed_base_policy,
    suite_json,
    validate,
)

__version__ = "0.1.0"
