import warnings

import numpy as np
import pytest

from objectiva import (
    DimensionMismatch,
    Effect,
    State,
    SuperpositionSpec,
    ValidationError,
    basis_vector,
    best_discrimination_error,
    is_member,
    is_orthogonal,
    membership_violation,
    prob,
    pure_state,
    random_effect,
    superposition_family,
    synthesize_discriminator,
)
from objectiva.linalg import kernel_projector

from helpers import orthogonal_mixed_pair, orthogonal_pure_pair

E0, E1 = basis_vector(2, 0), basis_vector(2, 1)


def half_spec(dim=2, rng=None):
    if rng is None:
        return SuperpositionSpec(pure_state(basis_vector(dim, 0)),
                                 pure_state(basis_vector(dim, 1)), 0.5, 0.5)
    x1, x2 = orthogonal_pure_pair(dim, rng)
    return SuperpositionSpec(x1, x2, 0.5, 0.5)


class TestOrthogonality:
    def test_basis_states(self):
        assert is_orthogonal(pure_state(E0), pure_state(E1))

    def test_overlapping_states(self):
        assert not is_orthogonal(pure_state(E0), pure_state((E0 + E1) / np.sqrt(2)))

    def test_mixed_diagonal_pair(self):
        x1 = State(np.diag([0.5, 0.5, 0.0, 0.0]))
        x2 = State(np.diag([0.0, 0.0, 1 / 3, 2 / 3]))
        assert is_orthogonal(x1, x2)

    def test_spec_rejects_non_orthogonal_branches(self):
        with pytest.raises(ValidationError, match="orthogonal"):
            SuperpositionSpec(pure_state(E0), pure_state((E0 + E1) / np.sqrt(2)), 0.5, 0.5)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_spec_and_block_test_reject_a_non_finite_tolerance(self, tol):
        tilted = pure_state(np.array([1.0, 1.0]) / np.sqrt(2))  # overlap 0.5 with |0>
        for x2 in (pure_state(E1), tilted):
            with pytest.raises(ValidationError, match="tolerance must be nonnegative"):
                SuperpositionSpec(pure_state(E0), x2, 0.5, 0.5, tol)
        spec = half_spec()
        with pytest.raises(ValidationError, match="tolerance must be nonnegative"):
            is_member(spec.incoherent_mixture(), spec, tol=tol)

    @pytest.mark.parametrize("check", [
        pytest.param(lambda x1, x2: SuperpositionSpec(x1, x2, 0.5, 0.5), id="spec"),
        pytest.param(synthesize_discriminator, id="discriminator"),
        pytest.param(is_orthogonal, id="is_orthogonal"),
        pytest.param(best_discrimination_error, id="best_discrimination_error"),
    ])
    def test_mismatched_state_dims_share_one_message(self, check):
        with pytest.raises(DimensionMismatch, match=r"^state dims differ: 2 vs 3$"):
            check(pure_state(E0), pure_state(basis_vector(3, 1)))

    def test_block_test_names_a_mismatched_candidate(self):
        with pytest.raises(DimensionMismatch, match=r"^candidate dim 3 != spec dim 2$"):
            is_member(pure_state(basis_vector(3, 0)), half_spec())

    def test_spec_rejects_bad_weights(self):
        with pytest.raises(ValidationError, match="weights"):
            SuperpositionSpec(pure_state(E0), pure_state(E1), 0.7, 0.7)

    @pytest.mark.parametrize("w1,w2", [(1 + 5e-11, -5e-11), (-5e-11, 1 + 5e-11),
                                       (np.nan, 0.5), (0.5, np.nan)])
    def test_spec_rejects_a_weight_outside_the_unit_interval(self, w1, w2):
        # a weight within tol below 0 once passed, and its coherent members then
        # took sqrt(w1 w2) of a negative number
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
                SuperpositionSpec(pure_state(E0), pure_state(E1), w1, w2)


class TestMakePureSuperposition:
    """Pure superpositions come from `superposition_family` at coherence 1, or
    from `pure_state` of c1 v1 + c2 v2."""

    def test_trivial_coefficient(self):
        spec = SuperpositionSpec(pure_state(E0), pure_state(E1), 1.0, 0.0)
        x = superposition_family(spec, 1.0, 0.0)
        assert np.allclose(x.matrix, pure_state(E0).matrix)

    def test_equal_split(self):
        x = superposition_family(half_spec(), 1.0, 0.0)
        assert prob(Effect(np.outer(E0, E0)), x) == pytest.approx(0.5)

    def test_relative_phase_rotates_cross_block(self):
        theta = 0.7
        a = superposition_family(half_spec(), 1.0, 0.0).matrix
        b = superposition_family(half_spec(), 1.0, theta).matrix
        assert np.allclose(np.diag(a), np.diag(b))
        # the phase is that of the |v1><v2| block
        assert b[0, 1] == pytest.approx(a[0, 1] * np.exp(1j * theta))

    def test_global_phase_invariance_exact(self):
        c = (0.6, 0.8j)
        a = pure_state(c[0] * E0 + c[1] * E1)
        phase = np.exp(1j * 1.234)
        b = pure_state(c[0] * phase * E0 + c[1] * phase * E1)
        assert np.allclose(a.matrix, b.matrix, atol=1e-15)

    def test_rejects_non_orthogonal_components(self):
        with pytest.raises(ValidationError):
            SuperpositionSpec(pure_state(E0), pure_state((E0 + E1) / np.sqrt(2)), 0.36, 0.64)

    def test_rejects_unnormalized_coefficients(self):
        with pytest.raises(ValidationError):
            pure_state(0.9 * E0 + 0.9 * E1)


class TestFamily:
    def test_zero_coherence_is_incoherent_mixture(self):
        spec = half_spec()
        x = superposition_family(spec, 0.0, 1.3)
        assert np.allclose(x.matrix, np.eye(2) / 2)

    def test_full_coherence_is_pure(self):
        x = superposition_family(half_spec(), 1.0, 0.0)
        assert x.purity() == pytest.approx(1.0, abs=1e-12)

    def test_all_grid_points_are_members(self, rng):
        spec = half_spec(4, rng)
        for c in (0.0, 0.25, 0.5, 0.75, 1.0):
            for ph in np.linspace(0, 2 * np.pi, 8, endpoint=False):
                assert is_member(superposition_family(spec, c, ph), spec, tol=1e-10)

    def test_rejects_out_of_range_coherence(self):
        with pytest.raises(ValidationError):
            superposition_family(half_spec(), 1.5)

    def test_rejects_mixed_branches_with_coherence(self, rng):
        x1, x2 = orthogonal_mixed_pair(5, rng, rank1=2, rank2=2)
        spec = SuperpositionSpec(x1, x2, 0.5, 0.5)
        with pytest.raises(ValidationError, match="pure"):
            superposition_family(spec, 0.5)
        # the incoherent mixture is always constructible
        assert is_member(superposition_family(spec, 0.0), spec)
        assert spec.branch_vectors is None

    def test_branch_vectors_decided_once_per_spec(self, rng, monkeypatch):
        x1, x2 = orthogonal_pure_pair(3, rng)
        spec = SuperpositionSpec(x1, x2, 0.3, 0.7)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(m, *args, **kwargs):
            calls.append(np.shape(m))
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        members = [superposition_family(spec, c, ph)
                   for c in (0.25, 0.5, 1.0) for ph in (0.0, 1.0, 2.0)]
        assert len(calls) == 2
        v1, v2 = spec.branch_vectors
        assert np.allclose(np.outer(v1, v1.conj()), x1.matrix)
        assert np.allclose(np.outer(v2, v2.conj()), x2.matrix)
        assert all(is_member(x, spec, tol=1e-10) for x in members)


class TestMembership:
    def test_incoherent_mixture_is_member(self, rng):
        x1, x2 = orthogonal_mixed_pair(5, rng)
        spec = SuperpositionSpec(x1, x2, 0.3, 0.7)
        assert is_member(spec.incoherent_mixture(), spec)

    def test_branch_state_is_not_member(self):
        spec = half_spec()
        assert not is_member(spec.x1, spec)

    def test_degenerate_weight_makes_branch_a_member(self):
        x1, x2 = pure_state(E0), pure_state(E1)
        spec = SuperpositionSpec(x1, x2, 1.0, 0.0)
        assert is_member(x1, spec)

    def test_convexity_of_member_set(self, rng):
        spec = half_spec(4, rng)
        a = superposition_family(spec, 0.8, 0.4)
        b = superposition_family(spec, 0.2, 2.0)
        for w in (0.25, 0.5, 0.9):
            assert is_member(State(w * a.matrix + (1 - w) * b.matrix), spec)

    def test_block_test_agrees_with_sampling_oracle(self, rng):
        # mandatory validation of the block characterization
        for k in range(40):
            dim = int(rng.integers(2, 7))
            x1, x2 = orthogonal_pure_pair(dim, rng)
            w1 = float(rng.uniform(0.1, 0.9))
            spec = SuperpositionSpec(x1, x2, w1, 1 - w1)
            if k % 2 == 0:
                x = superposition_family(spec, float(rng.uniform()),
                                         float(rng.uniform(0, 2 * np.pi)))
            else:
                x = spec.x1 if k % 4 == 1 else spec.x2
            block = is_member(x, spec, tol=1e-9)
            oracle = membership_violation(x, spec, samples=500,
                                          seed=int(rng.integers(2**32))) <= 1e-9
            assert block == oracle

    def test_eq2_restatement_via_compressed_effects(self, rng):
        spec = half_spec(5, rng)
        q1 = kernel_projector(spec.x1).matrix
        x = superposition_family(spec, 0.6, 0.9)
        for seed in range(50):
            b = random_effect(5, seed)
            a = Effect(q1 @ b.matrix @ q1)
            assert prob(a, x) == pytest.approx(
                spec.w2 * prob(a, spec.x2), abs=1e-9)
