"""Finite-dimensional effect-algebra toolkit: states, effects, operational
superpositions, multi-channel measurements, and executable verifiers for the
non-coincidence and objectivity claims they support."""

__version__ = "0.1.0"

from .linalg import (
    DEFAULT_RANK_CUTOFF,
    DEFAULT_TOL,
    DimensionMismatch,
    Effect,
    State,
    StateStack,
    ValidationError,
    basis_vector,
    complement,
    kernel_projector,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    prob,
    prob_batch,
    pure_state,
    random_effect,
    random_orthonormal,
    random_state,
    stack_states,
    support_projector,
)
from .superposition import (
    SuperpositionSpec,
    is_member,
    is_member_batch,
    is_orthogonal,
    superposition_family,
    superposition_members,
)
from .discrimination import (
    DiscriminationError,
    best_discrimination_error,
    discriminates,
    synthesize_discriminator,
)
from .measurement import (
    ChannelLayout,
    MeasurementModel,
    ReadingSet,
    build_premeasurement,
    discriminating_reading,
    draw_patterns,
    joint_outcome_distribution,
    m_eval,
    m_eval_batch,
    realized_effect,
    reduced_channel_state,
    sample_events,
    verify_separability,
)
from .theorems import (
    Report,
    counterexample_search,
    degrade_reading,
    inclusion_exclusion_batch,
    inclusion_exclusion_distribution,
    membership_violation,
    verify_theorem1,
    verify_theorem1_prime,
    verify_theorem2,
)
from .scenarios import ScenarioConfig, run_scenario
