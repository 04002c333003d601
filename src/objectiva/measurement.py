"""Multi-channel measurement models.

A measurement copies which-branch information onto two or more pointer
channels through an isometry that keeps the object register (the first
detector transmits rather than absorbs). Coincidence probabilities of channel
readings are tensor-product effect expectations on the embedded state, which
makes convex linearity and mutual non-disturbance of channels hold by
construction; both are still verified numerically in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import prod

import numpy as np

from .discrimination import synthesize_discriminator
from .linalg import (
    DEFAULT_TOL,
    DimensionMismatch,
    Effect,
    State,
    ValidationError,
    complement,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    prob_batch,
    support_projector,
)
from .superposition import is_orthogonal

MAX_SAMPLED_CHANNELS = 20


@dataclass(frozen=True)
class ChannelLayout:
    """Ordered pointer channels; a measurement needs at least two."""

    channel_dims: tuple
    labels: tuple | None = None

    def __post_init__(self):
        dims = tuple(int(d) for d in self.channel_dims)
        if len(dims) < 2:
            raise ValidationError("a measurement needs at least two separated channels")
        if any(d < 2 for d in dims):
            raise ValidationError("every channel needs dimension >= 2")
        object.__setattr__(self, "channel_dims", dims)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != len(dims):
                raise ValidationError("label count does not match channel count")
            object.__setattr__(self, "labels", labels)

    @property
    def n_channels(self) -> int:
        return len(self.channel_dims)

    @property
    def env_dim(self) -> int:
        return prod(self.channel_dims)


@dataclass(frozen=True)
class MeasurementModel:
    """Premeasurement isometry from the object space into channels x object."""

    object_dim: int
    layout: ChannelLayout
    isometry: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        v = np.array(self.isometry, dtype=np.complex128)
        expected = (self.layout.env_dim * self.object_dim, self.object_dim)
        if v.shape != expected:
            raise DimensionMismatch(f"isometry shape {v.shape}, expected {expected}")
        residual = np.max(np.abs(v.conj().T @ v - np.eye(self.object_dim)))
        if residual > self.tol:
            raise ValidationError(f"isometry residual {residual:.3e} > {self.tol:.3e}")
        v.setflags(write=False)
        object.__setattr__(self, "isometry", v)

    @property
    def output_dims(self) -> tuple:
        return self.layout.channel_dims + (self.object_dim,)

    def embed(self, x: State) -> State:
        return State(self.isometry @ x.matrix @ self.isometry.conj().T, self.tol)

    def to_json_dict(self) -> dict:
        return {
            "object_dim": self.object_dim,
            "channel_dims": list(self.layout.channel_dims),
            "isometry": {
                "rows": self.isometry.shape[0],
                "cols": self.isometry.shape[1],
                "re": self.isometry.real.tolist(),
                "im": self.isometry.imag.tolist(),
            },
        }

    @classmethod
    def from_json_dict(cls, obj: dict, tol: float = DEFAULT_TOL) -> "MeasurementModel":
        iso = obj["isometry"]
        v = np.asarray(iso["re"], dtype=float) + 1j * np.asarray(iso["im"], dtype=float)
        return cls(int(obj["object_dim"]),
                   ChannelLayout(tuple(obj["channel_dims"])), v, tol)


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
                         allow_degenerate_pointers: bool = False,
                         tol: float = DEFAULT_TOL) -> MeasurementModel:
    """Isometry sending the X1 branch to one pointer product and the X2 branch
    (plus, optionally, the orthogonal remainder of the object space) to the
    other, while keeping the object register intact.

    Non-orthogonal pointer pairs are rejected by default; the result would
    still be an isometry (the branch supports stay orthogonal) but the channel
    could not discriminate. `allow_degenerate_pointers` admits them for
    deliberately deficient models.
    """
    if x1.dim != x2.dim:
        raise DimensionMismatch(f"state dims differ: {x1.dim} vs {x2.dim}")
    if not is_orthogonal(x1, x2, tol):
        raise ValidationError("branch states must be orthogonal")
    if len(pointer_pairs) != layout.n_channels:
        raise ValidationError("one pointer pair per channel is required")

    unit_pointers = []
    for mu, (p1, p2) in enumerate(pointer_pairs):
        p1 = np.asarray(p1, dtype=np.complex128).reshape(-1)
        p2 = np.asarray(p2, dtype=np.complex128).reshape(-1)
        d = layout.channel_dims[mu]
        if p1.shape != (d,) or p2.shape != (d,):
            raise DimensionMismatch(f"pointer vectors on channel {mu} must have dim {d}")
        if abs(np.linalg.norm(p1) - 1) > tol or abs(np.linalg.norm(p2) - 1) > tol:
            raise ValidationError(f"pointer vectors on channel {mu} are not normalized")
        if abs(np.vdot(p1, p2)) > tol and not allow_degenerate_pointers:
            raise ValidationError(f"pointer vectors on channel {mu} are not orthogonal")
        unit_pointers.append((p1, p2))

    u1 = np.ones(1, dtype=np.complex128)
    u2 = np.ones(1, dtype=np.complex128)
    for p1, p2 in unit_pointers:
        u1 = np.kron(u1, p1)
        u2 = np.kron(u2, p2)

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

    v = np.kron(u1[:, None], b1) + np.kron(u2[:, None], b2)
    return MeasurementModel(x1.dim, layout, v, tol)


def _coincidence_effect(model: MeasurementModel, readings: ReadingSet) -> np.ndarray:
    readings.validate_against(model.layout)
    e = np.ones((1, 1), dtype=np.complex128)
    for mu, d in enumerate(model.layout.channel_dims):
        block = readings.entries[mu].matrix if mu in readings.entries else np.eye(d)
        e = np.kron(e, block)
    return np.kron(e, np.eye(model.object_dim))


def realized_effect(model: MeasurementModel, readings: ReadingSet) -> Effect:
    """The single object-space effect reproducing the coincidence probability."""
    e = _coincidence_effect(model, readings)
    v = model.isometry
    return Effect(v.conj().T @ e @ v, model.tol)


def m_eval_batch(model: MeasurementModel, readings: ReadingSet,
                 matrices: np.ndarray, tols) -> np.ndarray:
    """Coincidence probabilities of one reading set over a stack of object
    states (see `linalg.stack_states`); the reading set is realized once."""
    return prob_batch(realized_effect(model, readings), matrices, tols)


def m_eval(model: MeasurementModel, readings: ReadingSet, x: State) -> float:
    """Probability that every read channel fires (the coincidence event):
    the one-state case of `m_eval_batch`."""
    if x.dim != model.object_dim:
        raise DimensionMismatch(f"state dim {x.dim} != object dim {model.object_dim}")
    return float(m_eval_batch(model, readings, x.matrix[None], x.tol)[0])


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
    """State seen by one channel after the premeasurement."""
    if not 0 <= mu < model.layout.n_channels:
        raise DimensionMismatch(f"channel index {mu} outside layout")
    rho = model.embed(x)
    return State(partial_trace(rho.matrix, model.output_dims, {mu}), model.tol)


def discriminating_reading(model: MeasurementModel, mu: int,
                           x1: State, x2: State) -> Effect:
    """Canonical reading on channel mu answering 1 on X1 and 0 on X2."""
    r1 = reduced_channel_state(model, x1, mu)
    r2 = reduced_channel_state(model, x2, mu)
    return synthesize_discriminator(r1, r2, tol=model.tol)


def joint_outcome_distribution(model: MeasurementModel, readings: ReadingSet,
                               x: State) -> dict:
    """Probability of every fire/no-fire pattern over the read channels.

    Patterns are tuples of bits ordered by channel index; each probability is
    the coincidence value with non-firing channels read through the
    complement effect. The table sums to one.
    """
    channels = readings.channels
    if len(channels) > MAX_SAMPLED_CHANNELS:
        raise ValidationError(f"distribution table over {len(channels)} channels is too large")
    dist = {}
    for bits in product((1, 0), repeat=len(channels)):
        picked = {
            mu: readings.entries[mu] if bit else complement(readings.entries[mu])
            for mu, bit in zip(channels, bits)
        }
        dist[bits] = m_eval(model, ReadingSet(picked), x)
    total = sum(dist.values())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"outcome table sums to {total!r}, expected 1")
    return dist


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
