import numpy as np
import pytest

from objectiva import (
    DiscriminationError,
    Effect,
    State,
    ValidationError,
    basis_vector,
    best_discrimination_error,
    complement,
    discriminates,
    is_orthogonal,
    prob,
    pure_state,
    random_state,
    support_projector,
    synthesize_discriminator,
)

from helpers import orthogonal_mixed_pair

E0, E1 = basis_vector(2, 0), basis_vector(2, 1)


class TestDiscriminates:
    def test_basis_projector(self):
        assert discriminates(Effect(np.outer(E0, E0)), pure_state(E0), pure_state(E1))

    def test_half_identity_fails(self):
        assert not discriminates(Effect(np.eye(2) / 2), pure_state(E0), pure_state(E1))

    def test_support_projector_discriminates_orthogonal_pair(self, rng):
        for _ in range(20):
            x1, x2 = orthogonal_mixed_pair(int(rng.integers(2, 7)), rng)
            assert discriminates(support_projector(x1), x1, x2)

    def test_vice_versa_branch_via_complement(self, rng):
        x1, x2 = orthogonal_mixed_pair(4, rng)
        a = synthesize_discriminator(x1, x2)
        assert discriminates(complement(a), x1, x2)


class TestSynthesize:
    def test_qubit_pair(self):
        a = synthesize_discriminator(pure_state(E0), pure_state(E1))
        assert np.allclose(a.matrix, np.diag([1.0, 0.0]))

    def test_rank_two_pair(self):
        x1 = State(np.diag([0.5, 0.5, 0.0, 0.0]))
        x2 = State(np.diag([0.0, 0.0, 1.0, 0.0]))
        a = synthesize_discriminator(x1, x2)
        assert np.allclose(a.matrix, np.diag([1.0, 1.0, 0.0, 0.0]))

    def test_property_run_random_orthogonal_pairs(self, rng):
        for k in range(500):
            dim = 2 + k % 7
            x1, x2 = orthogonal_mixed_pair(dim, rng)
            a = synthesize_discriminator(x1, x2)
            assert discriminates(a, x1, x2)

    def test_non_orthogonal_inputs_raise_with_overlap(self):
        x1 = pure_state(E0)
        x2 = pure_state((E0 + E1) / np.sqrt(2))
        with pytest.raises(DiscriminationError) as err:
            synthesize_discriminator(x1, x2)
        assert err.value.overlap == pytest.approx(0.5)
        assert err.value.overlap == float(np.trace(x1.matrix @ x2.matrix).real)
        assert str(err.value) == "states are not orthogonal: overlap 5.000e-01"

    def test_agrees_with_reverse_complement_on_joint_support(self, rng):
        for _ in range(20):
            x1, x2 = orthogonal_mixed_pair(5, rng)
            a = synthesize_discriminator(x1, x2)
            b = complement(synthesize_discriminator(x2, x1))
            for x in (x1, x2):
                assert prob(a, x) == pytest.approx(prob(b, x), abs=1e-10)


class TestBestDiscriminationError:
    def test_orthogonal_pair_is_error_free(self):
        assert best_discrimination_error(pure_state(E0), pure_state(E1)) \
            == pytest.approx(0.0, abs=1e-12)

    def test_identical_states_are_indistinguishable(self):
        x = random_state(3, 9)
        assert best_discrimination_error(x, x) == pytest.approx(0.5)

    def test_plus_against_zero(self):
        err = best_discrimination_error(pure_state(E0),
                                        pure_state((E0 + E1) / np.sqrt(2)))
        assert err == pytest.approx((1 - 1 / np.sqrt(2)) / 2, abs=1e-12)

    def test_zero_error_iff_orthogonal(self, rng):
        for k in range(30):
            dim = int(rng.integers(2, 6))
            if k % 2 == 0:
                x1, x2 = orthogonal_mixed_pair(dim, rng)
            else:
                x1 = random_state(dim, int(rng.integers(2**32)))
                x2 = random_state(dim, int(rng.integers(2**32)))
            err = best_discrimination_error(x1, x2)
            assert (err < 1e-10) == is_orthogonal(x1, x2)

    @pytest.mark.parametrize("prior", [1.5, -0.1, float("nan")])
    def test_prior_validation(self, prior):
        with pytest.raises(ValidationError, match="outside"):
            best_discrimination_error(random_state(2, 0), random_state(2, 1), prior=prior)
