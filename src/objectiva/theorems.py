"""Executable verifiers for the core claims.

Each verifier evaluates both sides of its claim numerically and reports
residuals and witnesses; none of them assumes the result it checks, so a
deliberately broken model fails them. Reports are structured values suitable
for machine checking and JSON emission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Effect,
    State,
    StateStack,
    ValidationError,
    _first,
    check_tolerance,
    complement,
    prob,
    prob_batch,
    stack_states,
)
from .measurement import (
    MeasurementModel,
    ReadingSet,
    m_eval_batch,
)
from .superposition import (
    DEFAULT_PHASE_GRID,
    SuperpositionSpec,
    is_member_batch,
)

DEFAULT_WEIGHT_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class Report:
    """Structured verification outcome: pass flag, residuals, witnesses."""

    theorem: str
    passed: bool
    preconditions: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "pass": self.passed,
            "preconditions": self.preconditions,
            "residuals": self.residuals,
            "witnesses": self.witnesses,
        }


def verify_theorem1(a: Effect, psi1, psi2, tol: float = DEFAULT_TOL) -> Report:
    """A positive operator vanishing on two vectors vanishes on every
    superposition of them.

    The grid sweeps the coefficient weight and relative phase; the exact
    witness |A psi1| + |A psi2| certifies that zero expectation on a PSD
    operator forces the vectors into its kernel.
    """
    check_tolerance(tol)
    v1 = np.asarray(psi1, dtype=np.complex128).reshape(-1)
    v2 = np.asarray(psi2, dtype=np.complex128).reshape(-1)
    if abs(np.linalg.norm(v1) - 1) > tol or abs(np.linalg.norm(v2) - 1) > tol:
        raise ValidationError("component vectors must be normalized")
    if abs(np.vdot(v1, v2)) > tol:
        raise ValidationError("component vectors must be orthogonal")
    lo = float(np.min(np.linalg.eigvalsh(a.matrix)))
    if lo < -tol:
        raise ValidationError(f"operator is not PSD: min eigenvalue {lo:.3e}")

    pre1 = float(np.vdot(v1, a.matrix @ v1).real)
    pre2 = float(np.vdot(v2, a.matrix @ v2).real)
    preconditions = {"expectation_psi1": pre1, "expectation_psi2": pre2,
                     "satisfied": max(pre1, pre2) <= tol}
    witness = float(np.linalg.norm(a.matrix @ v1) + np.linalg.norm(a.matrix @ v2))
    if not preconditions["satisfied"]:
        return Report("theorem1", False, preconditions,
                      {"max_grid_expectation": None},
                      {"kernel_witness": witness})

    worst = 0.0
    for w1, ph in product(DEFAULT_WEIGHT_GRID, DEFAULT_PHASE_GRID):
        psi = np.sqrt(w1) * v1 + np.sqrt(1.0 - w1) * np.exp(1j * ph) * v2
        worst = max(worst, float(np.vdot(psi, a.matrix @ psi).real))
    return Report("theorem1", worst <= tol, preconditions,
                  {"max_grid_expectation": worst},
                  {"kernel_witness": witness})


def _member_stack(spec: SuperpositionSpec, members, tol: float) -> StateStack:
    """`stack_states` of the members, which must pass the block test."""
    states = stack_states(members, spec.dim)
    if (k := _first(~is_member_batch(states.matrices, spec, tol=max(tol, spec.tol)))) is not None:
        raise ValidationError(f"member {k} fails the superposition-set test")
    return states


def _disagreement(model: MeasurementModel, mu: int, nu: int, a_mu: Effect,
                  a_nu: Effect, states: StateStack) -> np.ndarray:
    """P(A_mu, not A_nu) + P(not A_mu, A_nu), negated through this module's `complement`."""
    def m(b_mu: Effect, b_nu: Effect) -> np.ndarray:
        return m_eval_batch(model, ReadingSet({mu: b_mu, nu: b_nu}), states)
    return m(a_mu, complement(a_nu)) + m(complement(a_mu), a_nu)


def verify_theorem1_prime(a: Effect, spec: SuperpositionSpec, members,
                          tol: float = DEFAULT_TOL) -> Report:
    """Extension to mixed states: an effect blind to both branches is blind to
    every member of the superposition set."""
    pre1 = prob(a, spec.x1)
    pre2 = prob(a, spec.x2)
    preconditions = {"prob_x1": pre1, "prob_x2": pre2,
                     "satisfied": max(pre1, pre2) <= tol}
    states = _member_stack(spec, members, tol)
    if not preconditions["satisfied"]:
        return Report("theorem1_prime", False, preconditions,
                      {"max_member_prob": None}, {})
    worst = float(np.max(prob_batch(a, states), initial=0.0))
    return Report("theorem1_prime", worst <= tol, preconditions,
                  {"max_member_prob": worst}, {"members_checked": len(members)})


def verify_theorem2(model: MeasurementModel, mu: int, nu: int,
                    a_mu: Effect, a_nu: Effect, spec: SuperpositionSpec,
                    members, tol: float = DEFAULT_TOL) -> Report:
    """Two discriminating channel readings agree with certainty and fire with
    the first branch weight, on every member of the superposition set."""
    preconditions = {"satisfied": True, "failing_channels": []}
    branches = stack_states([spec.x1, spec.x2], spec.dim)
    for name, ch, eff in (("mu", mu, a_mu), ("nu", nu, a_nu)):
        p1, p2 = (float(p) for p in m_eval_batch(model, ReadingSet({ch: eff}), branches))
        preconditions[f"m_{name}_x1"] = p1
        preconditions[f"m_{name}_x2"] = p2
        if abs(p1 - 1.0) > tol or p2 > tol:
            preconditions["satisfied"] = False
            preconditions["failing_channels"].append(ch)
    states = _member_stack(spec, members, tol)
    if not preconditions["satisfied"]:
        return Report("theorem2", False, preconditions, {}, {})
    firing = [m_eval_batch(model, ReadingSet(r), states)
              for r in ({mu: a_mu, nu: a_nu}, {mu: a_mu}, {nu: a_nu})]
    worst_agree = float(max(np.max(np.abs(f - spec.w1), initial=0.0) for f in firing))
    worst_disagree = float(np.max(_disagreement(model, mu, nu, a_mu, a_nu, states),
                                  initial=0.0))
    passed = worst_agree <= tol and worst_disagree <= tol
    return Report("theorem2", passed, preconditions,
                  {"max_firing_deviation": worst_agree,
                   "max_disagreement": worst_disagree},
                  {"members_checked": len(members), "expected_rate": spec.w1})


def inclusion_exclusion_batch(model: MeasurementModel, readings: ReadingSet,
                              states: StateStack) -> dict:
    """Joint outcome tables over a stack of states, rebuilt from plain
    coincidence probabilities only.

    Independent of the complement operator: the probability of a pattern is
    the alternating-sign sum of coincidence values over supersets of its
    firing channels, summed one channel axis at a time (a channel that does
    not fire is unread minus read). Each pattern maps to an array with one
    value per state.
    Used as the oracle against the direct product-effect table.
    """
    channels = readings.channels
    table = np.empty((2,) * len(channels) + (len(states),))
    for read in product((0, 1), repeat=len(channels)):
        picked = ReadingSet({c: readings.entries[c] for c, r in zip(channels, read) if r})
        table[read] = m_eval_batch(model, picked, states)
    for axis in range(len(channels)):
        unread, fired = np.moveaxis(table, axis, 0)
        unread -= fired
    return {bits: table[bits] for bits in product((1, 0), repeat=len(channels))}


def inclusion_exclusion_distribution(model: MeasurementModel,
                                     readings: ReadingSet, x: State) -> dict:
    """Joint outcome table of one state: the one-state case of
    `inclusion_exclusion_batch`."""
    table = inclusion_exclusion_batch(model, readings, stack_states([x], model.object_dim))
    return {bits: float(p[0]) for bits, p in table.items()}


def degrade_reading(a: Effect, noise: float) -> Effect:
    """Detector imperfection: mix the reading with the maximally mixed effect."""
    if not 0.0 <= noise < 1.0:
        raise ValidationError(f"noise {noise!r} outside [0, 1)")
    d = a.dim
    return Effect((1.0 - noise) * a.matrix + noise * np.eye(d) / d, a.tol)


def counterexample_search(model: MeasurementModel, mu: int, nu: int,
                          a_mu: Effect, a_nu: Effect, spec: SuperpositionSpec,
                          noise: float, members,
                          tol: float = DEFAULT_TOL) -> Report:
    """Show that exact discrimination is necessary: degraded readings leak a
    strictly positive disagreement probability for any positive noise.

    The direct value is cross-checked against the inclusion-exclusion oracle;
    the degraded both-fire deviation from the first branch weight is reported
    alongside.
    """
    check_tolerance(tol)
    b_mu = degrade_reading(a_mu, noise)
    b_nu = degrade_reading(a_nu, noise)
    states = stack_states(members, model.object_dim)
    disagreement = _disagreement(model, mu, nu, b_mu, b_nu, states)
    oracle = inclusion_exclusion_batch(model, ReadingSet({mu: b_mu, nu: b_nu}), states)
    oracle_disagree = oracle[(1, 0)] + oracle[(0, 1)]
    worst = float(np.max(disagreement, initial=0.0))
    worst_mismatch = float(np.max(np.abs(disagreement - oracle_disagree), initial=0.0))
    # the both-fire pattern has no superset term: it is the plain coincidence value
    worst_both = float(np.max(np.abs(oracle[(1, 1)] - spec.w1), initial=0.0))
    passed = worst_mismatch <= tol and (worst <= tol if noise == 0.0 else worst > tol)
    return Report("discrimination_necessity", passed,
                  {"noise": noise},
                  {"max_disagreement": worst, "oracle_mismatch": worst_mismatch,
                   "max_both_fire_deviation": worst_both},
                  {"members_checked": len(members)})


def membership_violation(x: State, spec: SuperpositionSpec,
                         samples: int = 1000, seed=0) -> float:
    """Brute-force membership oracle: max violation of the defining identities
    over random effects blind to one branch.

    For effects A supported on the kernel of X1 the candidate must satisfy
    Tr(A X) = w2 Tr(A X2), and symmetrically. Vectorized over a batch of
    trace-normalized Wishart effects; shares only the spec's kernel
    projectors with the block test.
    """
    rng = np.random.default_rng(seed)
    d = spec.dim
    g = rng.standard_normal((samples, d, d)) + 1j * rng.standard_normal((samples, d, d))
    b = g @ g.conj().transpose(0, 2, 1)
    b /= np.trace(b, axis1=1, axis2=2).real[:, None, None]
    q1, q2 = spec.kernel_projectors

    def side(q, target, weight):
        a = q[None] @ b @ q[None]
        lhs = np.einsum("nij,ji->n", a, x.matrix).real
        rhs = weight * np.einsum("nij,ji->n", a, target.matrix).real
        return float(np.max(np.abs(lhs - rhs)))

    return max(side(q1, spec.x2, spec.w2), side(q2, spec.x1, spec.w1))
