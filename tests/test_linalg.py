import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objectiva import (
    DEFAULT_RANK_CUTOFF,
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
    pure_state,
    random_effect,
    random_state,
    support_projector,
    synthesize_discriminator,
)

from helpers import orthogonal_mixed_pair

PLUS = pure_state(np.array([1, 1]) / np.sqrt(2))


class TestValidation:
    def test_state_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            State([[0.5, 1.0], [0.0, 0.5]])

    def test_state_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="PSD"):
            State([[1.5, 0], [0, -0.5]])

    def test_state_rejects_wrong_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            State(np.eye(2))

    def test_effect_rejects_spectrum_above_one(self):
        with pytest.raises(ValidationError, match="spectrum"):
            Effect(1.5 * np.eye(2))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="NaN"):
            Effect([[np.nan, 0], [0, 0]])

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf, 1.0])
    def test_rejects_a_tolerance_outside_the_unit_interval(self, tol):
        m = np.diag([0.5, 0.5])
        for make in (State, Effect, lambda m, tol: StateStack(m[None], tol)):
            with pytest.raises(ValidationError, match="tolerance must be nonnegative"):
                make(m, tol)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            Effect(np.zeros((2, 3)))

    def test_matrices_are_immutable(self):
        x = random_state(3, 0)
        with pytest.raises(ValueError):
            x.matrix[0, 0] = 1.0


class TestProb:
    def test_identity_gives_one(self):
        for seed in range(5):
            assert prob(Effect(np.eye(4)), random_state(4, seed)) == pytest.approx(1.0)

    def test_basis_effect_on_plus_state(self):
        a = Effect(np.diag([1.0, 0.0]))
        assert prob(a, PLUS) == pytest.approx(0.5)

    def test_support_projector_on_equal_superposition_member(self):
        # both-branch blind projector sees exactly the branch weight
        x1 = pure_state(basis_vector(2, 0))
        member = PLUS
        assert prob(support_projector(x1), member) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"^effect dim 3 != state dim 2$"):
            prob(Effect(np.eye(3)), random_state(2, 0))

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 6),
           w=st.floats(0.0, 1.0))
    def test_convex_linearity(self, seed, dim, w):
        a = random_effect(dim, seed)
        x1 = random_state(dim, seed + 1)
        x2 = random_state(dim, seed + 2)
        mixed = State(w * x1.matrix + (1 - w) * x2.matrix)
        assert prob(a, mixed) == pytest.approx(
            w * prob(a, x1) + (1 - w) * prob(a, x2), abs=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 6))
    def test_range(self, seed, dim):
        p = prob(random_effect(dim, seed), random_state(dim, seed + 7))
        assert 0.0 <= p <= 1.0


class TestComplement:
    def test_identity_and_zero(self):
        assert np.allclose(complement(Effect(np.eye(3))).matrix, 0)
        assert np.allclose(complement(Effect(np.zeros((3, 3)))).matrix, np.eye(3))

    def test_spectral_mapping(self):
        a = Effect(np.diag([0.3, 0.7]))
        assert np.allclose(np.linalg.eigvalsh(complement(a).matrix), [0.3, 0.7])

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 6))
    def test_involution_to_one_ulp(self, seed, dim):
        a = random_effect(dim, seed)
        assert np.max(np.abs(complement(complement(a)).matrix - a.matrix)) <= 1e-15

    def test_probability_complement(self):
        a = random_effect(4, 3)
        x = random_state(4, 4)
        assert prob(complement(a), x) == pytest.approx(1 - prob(a, x), abs=1e-12)


class TestSupportKernel:
    def test_pure_state(self):
        x = pure_state(basis_vector(2, 0))
        assert np.allclose(support_projector(x).matrix, np.diag([1.0, 0.0]))
        assert np.allclose(kernel_projector(x).matrix, np.diag([0.0, 1.0]))

    def test_maximally_mixed(self):
        x = State(np.eye(3) / 3)
        assert np.allclose(support_projector(x).matrix, np.eye(3))
        assert np.allclose(kernel_projector(x).matrix, 0)

    def test_rank_two_diagonal(self):
        x = State(np.diag([0.7, 0.3, 0.0]))
        assert np.allclose(support_projector(x).matrix, np.diag([1.0, 1.0, 0.0]))
        assert np.allclose(kernel_projector(x).matrix, np.diag([0.0, 0.0, 1.0]))

    def test_idempotent_and_complementary(self, rng):
        for _ in range(20):
            x = random_state(int(rng.integers(2, 7)), int(rng.integers(2**32)))
            p = support_projector(x).matrix
            q = kernel_projector(x).matrix
            assert np.max(np.abs(p @ p - p)) < 1e-10
            assert np.max(np.abs(q @ q - q)) < 1e-10
            assert np.allclose(p + q, np.eye(x.dim))
            assert np.trace(p @ x.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_projectors_match_the_former_formulas_bit_for_bit(self, rng):
        # support_projector cut on the top eigenvalue, synthesize_discriminator
        # on the largest magnitude; both now share one helper
        def former(h, top):
            vals, vecs = np.linalg.eigh(h)
            v = vecs[:, vals > DEFAULT_RANK_CUTOFF * top(vals)]
            p = v @ v.conj().T
            return 0.5 * (p + p.conj().T)

        def last(vals):
            return float(vals[-1])

        def largest(vals):
            return float(np.max(np.abs(vals)))

        for k in range(300):
            dim = 2 + k % 7
            x1, x2 = orthogonal_mixed_pair(dim, rng)
            for x in (x1, x2, random_state(dim, int(rng.integers(2**32)))):
                assert np.array_equal(support_projector(x).matrix, former(x.matrix, last))
            assert np.array_equal(synthesize_discriminator(x1, x2).matrix,
                                  former(x1.matrix - x2.matrix, largest))
        # an eigenvalue of X1 - X2 between the two cutoffs: the rules differ
        x1 = State(np.diag([0.2] * 4 + [0.2 - 5e-11, 5e-11, 0.0]))
        x2 = pure_state(basis_vector(7, 6))
        diff = x1.matrix - x2.matrix
        assert not np.array_equal(former(diff, last), former(diff, largest))
        assert np.array_equal(synthesize_discriminator(x1, x2).matrix, former(diff, largest))
        assert np.array_equal(support_projector(x1).matrix, former(x1.matrix, last))


class TestTensorAndPartialTrace:
    def test_tensor_identities(self):
        assert np.allclose(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_partial_trace_of_product(self):
        x1 = random_state(2, 1).matrix
        x2 = random_state(3, 2).matrix
        assert np.allclose(partial_trace(np.kron(x1, x2), [2, 3], {0}), x1)
        assert np.allclose(partial_trace(np.kron(x1, x2), [2, 3], {1}), x2)

    def test_bell_state_marginals(self):
        bell = (np.kron(basis_vector(2, 0), basis_vector(2, 0))
                + np.kron(basis_vector(2, 1), basis_vector(2, 1))) / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        assert np.allclose(partial_trace(rho, [2, 2], {0}), np.eye(2) / 2)
        assert np.allclose(partial_trace(rho, [2, 2], {1}), np.eye(2) / 2)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10**6), da=st.integers(2, 3), db=st.integers(2, 4))
    def test_trace_preserved(self, seed, da, db):
        m = random_state(da * db, seed).matrix
        reduced = partial_trace(m, [da, db], {0})
        assert np.trace(reduced) == pytest.approx(np.trace(m), abs=1e-12)

    def test_bad_factorization(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(6), [2, 2], {0})


class TestRandomGenerators:
    def test_determinism(self):
        assert np.array_equal(random_state(4, 11).matrix, random_state(4, 11).matrix)
        assert np.array_equal(random_effect(4, 11).matrix, random_effect(4, 11).matrix)

    def test_invariants_hold_by_construction(self):
        # constructors validate; surviving construction is the assertion
        for seed in range(200):
            random_state(4, seed)
            random_effect(4, seed)

    def test_mean_state_approaches_maximally_mixed(self):
        mean = sum(random_state(4, seed).matrix for seed in range(1000)) / 1000
        assert np.max(np.abs(mean - np.eye(4) / 4)) < 0.05 / 4


class TestJsonExchange:
    def test_round_trip(self):
        m = random_state(3, 5).matrix
        obj = matrix_to_json(m)
        assert json.loads(json.dumps(obj)) == obj
        assert np.allclose(matrix_from_json(obj), m)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"dim": 3, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]})
