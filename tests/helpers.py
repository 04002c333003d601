import numpy as np

from objectiva import (State, SuperpositionSpec, degrade_reading, pure_state,
                       random_orthonormal, superposition_members, verify_theorem2)
from objectiva.scenarios import fig1c_setup

# Both fig1c readings fire on the wrong branch with probability eta / 2, so
# they disagree with probability eta - eta^2 / 2, which is above TOL; either
# of its two terms alone is half of that, which is below TOL.
FALSE_PASS_ETA, FALSE_PASS_TOL = 1.5e-3, 1e-3


def orthogonal_mixed_pair(dim, rng, rank1=None, rank2=None):
    """Two random states with disjoint supports inside the same space."""
    rank1 = rank1 or int(rng.integers(1, dim))
    rank2 = rank2 or int(rng.integers(1, dim - rank1 + 1))
    cols = random_orthonormal(dim, rank1 + rank2, rng)

    def mixed(basis):
        w = rng.uniform(0.2, 1.0, size=basis.shape[1])
        w /= w.sum()
        return State(sum(wi * np.outer(b, b.conj())
                         for wi, b in zip(w, basis.T)))

    return mixed(cols[:, :rank1]), mixed(cols[:, rank1:rank1 + rank2])


def orthogonal_pure_pair(dim, rng):
    cols = random_orthonormal(dim, 2, rng)
    return pure_state(cols[:, 0]), pure_state(cols[:, 1])


def block_test_loop(matrices, spec, tol):
    """Reference block test, one candidate at a time: True where
    Q1 X Q1 == w2 X2 and Q2 X Q2 == w1 X1 up to the largest entry modulus."""
    q1, q2 = spec.kernel_projectors
    t1, t2 = spec.w2 * spec.x2.matrix, spec.w1 * spec.x1.matrix
    return np.array([max(np.max(np.abs(q1 @ x @ q1 - t1)),
                         np.max(np.abs(q2 @ x @ q2 - t2))) <= tol for x in matrices],
                    dtype=bool)


def false_pass_case():
    """The fig1c model, its two readings degraded by FALSE_PASS_ETA, and a
    w1 = 0.3 spec with coherent members: (model, readings, degraded, spec,
    members)."""
    model, readings, x1, x2 = fig1c_setup()
    spec = SuperpositionSpec(x1, x2, 0.3, 0.7)
    members = superposition_members(spec, (0.0, 0.5, 1.0), (0.0, 1.0))
    degraded = {mu: degrade_reading(readings[mu], FALSE_PASS_ETA) for mu in (0, 1)}
    return model, readings, degraded, spec, members


def false_pass_theorem2():
    """Theorem 2's report on `false_pass_case` at FALSE_PASS_TOL."""
    model, _, degraded, spec, members = false_pass_case()
    return verify_theorem2(model, 0, 1, degraded[0], degraded[1], spec, members,
                           FALSE_PASS_TOL)
