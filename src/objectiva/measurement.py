"""Multi-channel measurement models.

A premeasurement copies which-branch information onto two or more pointer
channels and keeps the object register (the first detector transmits rather
than absorbs): V = sum_k (tensor_mu p_k^mu) (x) B_k, one pointer pair per
channel and two complementary branch projectors. A model stores exactly
those. Since B_1 B_2 = 0, coincidence effects, channel states and the joint
outcome law have closed forms in the pointers, so no production path builds the dense isometry; the
dense Kronecker route (`isometry`, `embed`, `_coincidence_effect`) is kept
only as the oracle the closed forms are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from math import prod

import numpy as np

from .discrimination import synthesize_discriminator
from .linalg import (
    DEFAULT_TOL,
    DimensionMismatch,
    Effect,
    State,
    StateStack,
    ValidationError,
    check_tolerance,
    clamp_probabilities,
    complement,
    hermiticity_residual,
    prob_batch,
    stack_states,
    support_projector,
)
from .superposition import is_orthogonal

MAX_SAMPLED_CHANNELS = 20


@dataclass(frozen=True)
class ChannelLayout:
    """Ordered pointer channels; a measurement needs at least two."""

    channel_dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.channel_dims)
        if len(dims) < 2:
            raise ValidationError("a measurement needs at least two separated channels")
        if any(d < 2 for d in dims):
            raise ValidationError("every channel needs dimension >= 2")
        object.__setattr__(self, "channel_dims", dims)

    @property
    def n_channels(self) -> int:
        return len(self.channel_dims)


@dataclass(frozen=True)
class MeasurementModel:
    """Premeasurement V = sum_k (tensor_mu p_k^mu) (x) B_k into channels x
    object, stored as one pointer pair per channel and the branch projectors.

    Pointers must be unit vectors but need not be orthogonal (a deficient
    channel cannot discriminate); the branches must be orthogonal projectors
    with V^dag V = sum_ij (prod_mu <p_i^mu|p_j^mu>) B_i B_j = I.
    """

    layout: ChannelLayout
    pointers: tuple
    branches: tuple
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        check_tolerance(self.tol)
        if len(self.pointers) != self.layout.n_channels:
            raise ValidationError("one pointer pair per channel is required")
        pointers = tuple(tuple(np.array(p, dtype=np.complex128).reshape(-1) for p in pair)
                         for pair in self.pointers)
        for mu, (p1, p2) in enumerate(pointers):
            d = self.layout.channel_dims[mu]
            if p1.shape != (d,) or p2.shape != (d,):
                raise DimensionMismatch(f"pointer vectors on channel {mu} must have dim {d}")
            if abs(np.linalg.norm(p1) - 1) > self.tol or abs(np.linalg.norm(p2) - 1) > self.tol:
                raise ValidationError(f"pointer vectors on channel {mu} are not normalized")
        b1, b2 = (np.array(b, dtype=np.complex128) for b in self.branches)
        if b1.ndim != 2 or b1.shape[0] != b1.shape[1] or b2.shape != b1.shape:
            raise DimensionMismatch(f"branch projectors of shapes {b1.shape} and "
                                    f"{b2.shape} are not square on one object space")
        b11, b22, b12 = b1 @ b1, b2 @ b2, b1 @ b2
        split = max(hermiticity_residual(b1), hermiticity_residual(b2),
                    np.max(np.abs(b11 - b1)), np.max(np.abs(b22 - b2)), np.max(np.abs(b12)))
        if split > self.tol:
            raise ValidationError(f"branches are not orthogonal projectors: residual {split:.3e}")
        overlap = prod(np.vdot(p1, p2) for p1, p2 in pointers)
        v_dag_v = b11 + b22 + overlap * b12 + np.conj(overlap) * b12.conj().T
        residual = float(np.max(np.abs(v_dag_v - np.eye(len(b1)))))
        if residual > self.tol:
            raise ValidationError(f"branches do not resolve the identity: isometry "
                                  f"residual {residual:.3e} > {self.tol:.3e}")
        for a in (b1, b2, *(p for pair in pointers for p in pair)):
            a.setflags(write=False)
        object.__setattr__(self, "pointers", pointers)
        object.__setattr__(self, "branches", (b1, b2))

    @property
    def object_dim(self) -> int:
        return len(self.branches[0])

    @property
    def isometry(self) -> np.ndarray:
        """The dense (prod(channel_dims) * d x d) isometry; oracle use only."""
        return sum(np.kron(reduce(np.kron, (pair[k] for pair in self.pointers))[:, None], b)
                   for k, b in enumerate(self.branches))

    def embed(self, x: State) -> State:
        """V X V^dag on channels x object; oracle use only."""
        v = self.isometry
        return State(v @ x.matrix @ v.conj().T, self.tol)


@dataclass(frozen=True)
class ReadingSet:
    """Channel index -> effect read on that channel. Unlisted channels are unread."""

    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           {int(k): v for k, v in self.entries.items()})

    @property
    def channels(self) -> tuple:
        return tuple(sorted(self.entries))

    def validate_against(self, layout: ChannelLayout):
        for mu, eff in self.entries.items():
            if not 0 <= mu < layout.n_channels:
                raise DimensionMismatch(f"channel index {mu} outside layout")
            if eff.dim != layout.channel_dims[mu]:
                raise DimensionMismatch(
                    f"reading on channel {mu} has dim {eff.dim}, "
                    f"channel dim is {layout.channel_dims[mu]}")


def build_premeasurement(x1: State, x2: State, layout: ChannelLayout,
                         pointer_pairs, pad_remainder: bool = False,
                         tol: float = DEFAULT_TOL) -> MeasurementModel:
    """Premeasurement sending the X1 branch to one pointer product and the X2
    branch (plus, optionally, the orthogonal remainder of the object space) to
    the other, while keeping the object register intact.

    Non-orthogonal pointer pairs are rejected: the result would still be an
    isometry, but the channel could not discriminate. A deliberately
    deficient model is built as a `MeasurementModel` directly.
    """
    check_tolerance(tol)
    if not is_orthogonal(x1, x2, tol):
        raise ValidationError("branch states must be orthogonal")
    b1 = support_projector(x1).matrix
    b2 = support_projector(x2).matrix
    remainder = np.eye(x1.dim) - b1 - b2
    deficiency = float(np.max(np.abs(remainder)))
    if deficiency > np.sqrt(tol):
        if not pad_remainder:
            raise ValidationError(
                "branch supports do not span the object space; "
                "set pad_remainder=True to route the remainder with the second branch")
        b2 = b2 + remainder
    model = MeasurementModel(layout, pointer_pairs, (b1, b2), tol)
    for mu, (p1, p2) in enumerate(model.pointers):
        if abs(np.vdot(p1, p2)) > tol:
            raise ValidationError(f"pointer vectors on channel {mu} are not orthogonal")
    return model


def _coincidence_effect(model: MeasurementModel, readings: ReadingSet) -> np.ndarray:
    """The dense product effect on channels x object; oracle use only."""
    readings.validate_against(model.layout)
    e = np.ones((1, 1), dtype=np.complex128)
    for mu, d in enumerate(model.layout.channel_dims):
        block = readings.entries[mu].matrix if mu in readings.entries else np.eye(d)
        e = np.kron(e, block)
    return np.kron(e, np.eye(model.object_dim))


def _pointer_expectations(model: MeasurementModel, readings: ReadingSet) -> list:
    """q_k^mu = <p_k^mu|A_mu|p_k^mu>: one list per branch k, one value per
    read channel mu in channel order."""
    readings.validate_against(model.layout)
    return [[np.vdot(model.pointers[mu][k], readings.entries[mu].matrix
                     @ model.pointers[mu][k]).real for mu in readings.channels]
            for k in range(len(model.branches))]


def realized_effect(model: MeasurementModel, readings: ReadingSet) -> Effect:
    """The single object-space effect reproducing the coincidence probability:
    sum_k (prod_mu q_k^mu) B_k over the read channels."""
    m = 0
    for q, b in zip(_pointer_expectations(model, readings), model.branches):
        m = m + prod(q) * b
    return Effect(m, model.tol)


def m_eval_batch(model: MeasurementModel, readings: ReadingSet,
                 states: StateStack) -> np.ndarray:
    """Coincidence probabilities of one reading set over a stack of object
    states (see `linalg.stack_states`); the reading set is realized once."""
    return prob_batch(realized_effect(model, readings), states)


def m_eval(model: MeasurementModel, readings: ReadingSet, x: State) -> float:
    """Probability that every read channel fires (the coincidence event):
    the one-state case of `m_eval_batch`."""
    if x.dim != model.object_dim:
        raise DimensionMismatch(f"state dim {x.dim} != object dim {model.object_dim}")
    return float(m_eval_batch(model, readings, stack_states([x], x.dim))[0])


def verify_separability(model: MeasurementModel, x: State, mu: int, nu: int,
                        a_mu: Effect, a_nu: Effect) -> float:
    """Residual of the non-disturbance identity m(A,B) + m(A,~B) = m(A)."""
    if mu == nu:
        raise ValidationError("separability needs two distinct channels")
    both = m_eval(model, ReadingSet({mu: a_mu, nu: a_nu}), x)
    other = m_eval(model, ReadingSet({mu: a_mu, nu: complement(a_nu)}), x)
    alone = m_eval(model, ReadingSet({mu: a_mu}), x)
    return abs(both + other - alone)


def reduced_channel_state(model: MeasurementModel, x: State, mu: int) -> State:
    """State seen by one channel after the premeasurement:
    sum_k Tr(B_k X) |p_k^mu><p_k^mu|."""
    if not 0 <= mu < model.layout.n_channels:
        raise DimensionMismatch(f"channel index {mu} outside layout")
    if x.dim != model.object_dim:
        raise DimensionMismatch(f"state dim {x.dim} != object dim {model.object_dim}")
    m = 0
    for b, p in zip(model.branches, model.pointers[mu]):
        m = m + np.einsum("ij,ji->", b, x.matrix).real * np.outer(p, p.conj())
    return State(m, model.tol)


def discriminating_reading(model: MeasurementModel, mu: int,
                           x1: State, x2: State) -> Effect:
    """Canonical reading on channel mu answering 1 on X1 and 0 on X2."""
    r1 = reduced_channel_state(model, x1, mu)
    r2 = reduced_channel_state(model, x2, mu)
    return synthesize_discriminator(r1, r2, tol=model.tol)


def joint_outcome_distribution(model: MeasurementModel, readings: ReadingSet,
                               x: State) -> dict:
    """Probability of every fire/no-fire pattern over the read channels.

    Patterns are tuples of bits ordered by channel index, all-fire first;
    each probability is the coincidence value with non-firing channels read
    through the complement effect. The table sums to one.

    Since B_1 B_2 = 0, the table is a mixture of two product laws: branch k
    has weight Tr(B_k X), and under it channel mu fires independently with
    probability q_k^mu (see `_pointer_expectations`).
    """
    channels = readings.channels
    if len(channels) > MAX_SAMPLED_CHANNELS:
        raise ValidationError(f"distribution table over {len(channels)} channels is too large")
    if x.dim != model.object_dim:
        raise DimensionMismatch(f"state dim {x.dim} != object dim {model.object_dim}")
    expectations = _pointer_expectations(model, readings)
    traces = np.array([np.einsum("ij,ji->", b, x.matrix) for b in model.branches])
    weights = clamp_probabilities(traces, model.tol + x.tol, "branch")
    # axis mu holds (fires, stays idle) for the mu-th read channel
    law = np.zeros((2,) * len(channels))
    for w, q in zip(weights, expectations):
        law += reduce(np.multiply.outer, ([qm, 1.0 - qm] for qm in q), w)
    total = float(law.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"outcome table sums to {total!r}, expected 1")
    return dict(zip(product((1, 0), repeat=len(channels)), law.ravel().tolist()))


def draw_patterns(model: MeasurementModel, readings: ReadingSet, x: State,
                  trials: int, seed) -> tuple:
    """Draw one fire/no-fire pattern per trial, deterministic per seed.

    Returns the patterns of `joint_outcome_distribution` as a list and the
    drawn pattern index of every trial as an array.
    """
    if trials < 0:
        raise ValidationError("trials must be nonnegative")
    dist = joint_outcome_distribution(model, readings, x)
    patterns = list(dist)
    weights = np.array([dist[p] for p in patterns], dtype=float)
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    return patterns, rng.choice(len(patterns), size=trials, p=weights)


def sample_events(model: MeasurementModel, readings: ReadingSet, x: State,
                  trials: int, seed) -> list:
    """Per-trial fire/no-fire records of `draw_patterns`."""
    channels = readings.channels
    patterns, draws = draw_patterns(model, readings, x, trials, seed)
    return [
        {"trial": t, "outcomes": {mu: patterns[k][i] for i, mu in enumerate(channels)}}
        for t, k in enumerate(draws)
    ]
