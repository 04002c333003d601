"""Operational superposition sets between two orthogonal states.

A two-branch set is pinned down by the branch states and their weights.
Membership is decided by a block characterization: a candidate belongs to the
set iff compressing it to the kernel of either branch reproduces the other
branch at its weight. The test suite validates this against a brute-force
sampling oracle over random effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DimensionMismatch,
    State,
    StateStack,
    ValidationError,
    _first,
    _overlap,
    check_tolerance,
    kernel_projector,
)

DEFAULT_COHERENCE_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_PHASE_GRID = tuple(2.0 * np.pi * k / 8 for k in range(8))

PURITY_TOL = 1e-9


def _check_weights(w1: float, w2: float, tol: float) -> None:
    """Each weight in [0, 1] (written so that NaN fails), then their sum
    within tol of 1: the one weight rule of specs and scenario configs."""
    if not (0 <= w1 <= 1 and 0 <= w2 <= 1):
        raise ValidationError(f"weights ({w1}, {w2}) outside [0, 1]")
    if abs(w1 + w2 - 1.0) > tol:
        raise ValidationError(f"weights sum to {w1 + w2!r}, expected 1")


def is_orthogonal(x1: State, x2: State, tol: float = DEFAULT_TOL) -> bool:
    """True iff Tr(X1 X2) vanishes (disjoint supports for PSD operators)."""
    return _overlap(x1, x2) <= tol


@dataclass(frozen=True)
class SuperpositionSpec:
    """Two orthogonal branch states with weights summing to one."""

    x1: State
    x2: State
    w1: float
    w2: float
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        check_tolerance(self.tol)
        overlap = _overlap(self.x1, self.x2)
        _check_weights(self.w1, self.w2, self.tol)
        if overlap > self.tol:
            raise ValidationError(f"branch states are not orthogonal: overlap {overlap:.3e}")

    @property
    def dim(self) -> int:
        return self.x1.dim

    @cached_property
    def kernel_projectors(self) -> tuple:
        """Kernel projector matrices (Q1, Q2) of the two branches, computed
        on first use and kept for the life of the spec."""
        return kernel_projector(self.x1).matrix, kernel_projector(self.x2).matrix

    @cached_property
    def branch_vectors(self) -> tuple | None:
        """Unit vectors (v1, v2) of pure branches, or None when either branch
        is mixed (purity below 1 - PURITY_TOL); decided once per spec."""
        if min(self.x1.purity(), self.x2.purity()) < 1 - PURITY_TOL:
            return None
        return tuple(np.linalg.eigh(x.matrix)[1][:, -1] for x in (self.x1, self.x2))

    def incoherent_mixture(self) -> State:
        return State(self.w1 * self.x1.matrix + self.w2 * self.x2.matrix, self.tol)


def superposition_members(spec: SuperpositionSpec, coherences, phases) -> StateStack:
    """The coherence x phase grid of members (coherence outer, phase inner) as
    one validated stack: the incoherent mixture plus a scaled cross block
    coherence * sqrt(w1 w2) * exp(i phase) |v1><v2| + h.c.

    Requires pure branches whenever a coherence is > 0; coherence 0 always
    yields the incoherent mixture.
    """
    coherences = tuple(coherences)
    c = np.array(coherences, dtype=float)
    ph = np.array(tuple(phases), dtype=float)
    # written so that NaN fails too
    if (k := _first(~((c >= 0.0) & (c <= 1.0)))) is not None:
        raise ValidationError(f"coherence {coherences[k]!r} outside [0, 1]")
    d = spec.dim
    mixture = spec.w1 * spec.x1.matrix + spec.w2 * spec.x2.matrix
    m = np.broadcast_to(mixture, (c.size, ph.size, d, d)).copy()
    coherent = c > 0.0
    if coherent.any():
        if spec.branch_vectors is None:
            raise ValidationError("coherent members are constructible for pure branches only")
        v1, v2 = spec.branch_vectors
        amp = c[coherent, None] * np.sqrt(spec.w1 * spec.w2) * np.exp(1j * ph)
        cross = amp[..., None, None] * np.outer(v1, v2.conj())
        m[coherent] = mixture + cross + cross.conj().swapaxes(-1, -2)
    return StateStack(m.reshape(-1, d, d), spec.tol)


def superposition_family(spec: SuperpositionSpec, coherence: float,
                         phase: float = 0.0) -> State:
    """One member: the one-member case of `superposition_members`."""
    return superposition_members(spec, (coherence,), (phase,))[0]


def is_member_batch(matrices: np.ndarray, spec: SuperpositionSpec,
                    tol: float | None = None) -> np.ndarray:
    """Block test over a stack of (n, d, d) candidate matrices: True where
    Q1 X Q1 == w2 X2 and Q2 X Q2 == w1 X1 for kernel projectors Q, each side
    formed transposed by two GEMMs over the whole stack, (X Q)^T Q^T."""
    d = spec.dim
    if matrices.shape[1:] != (d, d):
        raise DimensionMismatch(f"candidate dim {matrices.shape[-1]} != spec dim {d}")
    tol = spec.tol if tol is None else tol
    check_tolerance(tol)
    n = len(matrices)
    flat = matrices.reshape(n * d, d)
    residuals = []
    for q, target in zip(spec.kernel_projectors,
                         (spec.w2 * spec.x2.matrix, spec.w1 * spec.x1.matrix)):
        xq_t = (flat @ q).reshape(n, d, d).swapaxes(1, 2).reshape(n * d, d)
        qxq_t = (xq_t @ q.T).reshape(n, d * d)
        residuals.append(np.abs(qxq_t - target.T.ravel()).max(axis=1))
    return np.maximum(*residuals) <= tol


def is_member(x: State, spec: SuperpositionSpec, tol: float | None = None) -> bool:
    """Block test of one candidate: the one-state case of `is_member_batch`."""
    return bool(is_member_batch(x.matrix[None], spec, tol)[0])

