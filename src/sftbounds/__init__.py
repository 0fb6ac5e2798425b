"""Effective-uniqueness machinery for subshifts of finite type: Parry measure,
entropy gaps, transfer-operator decay, hole pruning, and dimension bounds."""

from .bounds import (
    BoundReport,
    GapIdentity,
    PinskerResult,
    ScanSummary,
    StepBound,
    effective_bound_verify,
    gap_identity_check,
    phi_divergence,
    pinsker_verify,
    ratio_scan,
    step_bound_verify,
)
from .errors import (
    CeilingError,
    ConvergenceError,
    InputError,
    NotPrimitiveError,
    VerificationError,
)
from .holes import (
    HoleFamilyScan,
    PrunedSystem,
    dim_upper_bound,
    higher_block_prune,
    hole_family_scan,
    prune_words,
    pruned_word_count,
    survivor_entropy,
)
from .measures import (
    LocallyConstantFunction,
    MarkovMeasure,
    centered,
    conditional_vectors,
    constant_function,
    cylinder_measure,
    entropy,
    indicator,
    information_mean,
    integrate,
    markov_measure,
    parry_measure,
    random_function,
    sample_markov,
    sample_markov_batch,
    stationary_vector,
)
from .models import (
    BallCover,
    Branch,
    CylinderInterval,
    DimensionReport,
    ExpandingModel,
    ball_to_cylinders,
    build_model,
    cylinder_interval,
    exceptional_dimension_bound,
    model_preset,
)
from .sft import (
    TransitionMatrix,
    Word,
    enumerate_words,
    full_shift,
    golden_mean_shift,
    is_admissible,
    predecessors,
    transition_matrix,
    word_array,
    word_count,
    word_str,
)
from .spectral import PerronData, perron_eigendata, subdominant_modulus
from .transfer import (
    DecayEstimate,
    conditional_expectation_check,
    decay_estimate,
    lip_seminorm,
    mean_zero_probes,
    supnorm,
    transfer_apply,
    transfer_matrix,
)

__version__ = "0.1.0"
