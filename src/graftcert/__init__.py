"""graftcert: linear-activation grafting and robustness certification
for small dense ReLU classifiers.

The package trains a classifier adversarially, scores hidden neurons by
instability and significance, grafts trainable linear activations onto the
unstable-but-insignificant ones, fine-tunes, and certifies l-inf
robustness with interval / backward linear bounds (incomplete) and
branch-and-bound over unstable ReLU neurons (complete).
"""

from .bounds import (
    Box,
    LayerBounds,
    NeuronStatus,
    SplitAssignment,
    StabilityTally,
    classify_neurons,
    compute_bounds,
    crown_lower_bound,
    ibp,
    input_region,
    interval_spec_lower,
    tally_stability,
)
from .data import Dataset, gaussian_blobs, load_dataset, two_moons
from .errors import (
    DivergenceError,
    DomainError,
    FormatError,
    GraftcertError,
    PipelineError,
    StructuralError,
    UndecidableRegion,
    UsageError,
)
from .grafting import (
    GraftPlan,
    NeuronScore,
    baseline_select,
    default_gamma_schedule,
    instability_scores,
    load_plan,
    rank_normalize,
    save_plan,
    score_neurons,
    select_neurons,
    significance_scores,
)
from .network import (
    ActivationKind,
    AffineLayer,
    GradientBundle,
    GraftedLinear,
    Network,
    ReLU,
    apply_graft,
    backward,
    forward,
    forward_batch,
    load_checkpoint,
    make_mlp,
    save_checkpoint,
)
from .training import (
    AttackConfig,
    FinetuneConfig,
    TrainConfig,
    finetune_grafted,
    gradual_graft,
    train,
)
from .verifier import (
    Specification,
    VerdictRecord,
    VerdictStatus,
    VerifyBudget,
    bab_verify,
    build_specs,
    oracle_input_split,
    pgd_attack,
)

__version__ = "0.1.0"
