"""Effects that perfectly separate orthogonal states, and the optimal bound
when perfect separation is impossible."""

from __future__ import annotations

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Effect,
    State,
    ValidationError,
    _overlap,
    _require_same_dim,
    _spectral_projector,
    prob,
)


class DiscriminationError(ValidationError):
    """Perfect discrimination is impossible; carries the state overlap."""

    def __init__(self, overlap: float):
        super().__init__(f"states are not orthogonal: overlap {overlap:.3e}")
        self.overlap = overlap


def discriminates(a: Effect, x1: State, x2: State) -> bool:
    """True iff the effect answers 1 on one state and 0 on the other."""
    lo, hi = sorted((prob(a, x1), prob(a, x2)))
    return lo <= DEFAULT_TOL and abs(hi - 1.0) <= DEFAULT_TOL


def synthesize_discriminator(x1: State, x2: State, tol: float = DEFAULT_TOL) -> Effect:
    """Projector onto the positive eigenspace of X1 - X2.

    Deterministic canonical choice; requires orthogonal inputs and answers
    (1, 0) on (X1, X2). Eigenvalues within the cutoff band around zero are
    excluded to keep the joint-kernel directions out of the projector.
    """
    overlap = _overlap(x1, x2)
    if overlap > tol:
        raise DiscriminationError(overlap)
    return _spectral_projector(x1.matrix - x2.matrix, tol)


def best_discrimination_error(x1: State, x2: State, prior: float = 0.5) -> float:
    """Minimum error probability for distinguishing the weighted pair.

    (1 - trace_norm(prior*X1 - (1-prior)*X2)) / 2; zero exactly when the pair
    is perfectly distinguishable at that prior.
    """
    if not 0.0 <= prior <= 1.0:
        raise ValidationError(f"prior {prior!r} outside [0, 1]")
    _require_same_dim(x1, x2)
    diff = prior * x1.matrix - (1.0 - prior) * x2.matrix
    trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
    return 0.5 * (1.0 - trace_norm)
