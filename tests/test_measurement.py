import numpy as np
import pytest

from objectiva import (
    ChannelLayout,
    DiscriminationError,
    Effect,
    MeasurementModel,
    ReadingSet,
    SuperpositionSpec,
    ValidationError,
    basis_vector,
    build_premeasurement,
    complement,
    discriminates,
    discriminating_reading,
    joint_outcome_distribution,
    m_eval,
    prob,
    pure_state,
    random_effect,
    random_state,
    realized_effect,
    reduced_channel_state,
    sample_events,
    superposition_family,
    verify_separability,
)
from objectiva.linalg import random_orthonormal

E0, E1 = basis_vector(2, 0), basis_vector(2, 1)
FIRE = Effect(np.outer(E1, E1))
ZERO_PROJ = Effect(np.outer(E0, E0))


def ghz_model(tol=1e-10):
    """Two dim-2 channels copying the computational branch: |i> -> |ii>|i>."""
    return build_premeasurement(
        pure_state(E0), pure_state(E1), ChannelLayout((2, 2)),
        [(E0, E1), (E0, E1)], tol=tol)


def random_model(rng, object_dim=None, n_channels=None):
    object_dim = object_dim or int(rng.integers(2, 4))
    n_channels = n_channels or int(rng.integers(2, 4))
    cols = random_orthonormal(object_dim, 2, rng)
    pointers = []
    for _ in range(n_channels):
        pc = random_orthonormal(2, 2, rng)
        pointers.append((pc[:, 0], pc[:, 1]))
    return build_premeasurement(pure_state(cols[:, 0]), pure_state(cols[:, 1]),
                                ChannelLayout((2,) * n_channels), pointers,
                                pad_remainder=object_dim > 2)


class TestLayoutAndModel:
    def test_layout_needs_two_channels(self):
        with pytest.raises(ValidationError):
            ChannelLayout((2,))

    def test_ghz_isometry_is_explicit(self):
        v = ghz_model().isometry
        expected = np.zeros((8, 2), dtype=complex)
        expected[0, 0] = 1.0  # |0> -> |00>|0>
        expected[7, 1] = 1.0  # |1> -> |11>|1>
        assert np.allclose(v, expected)

    def test_isometry_residual(self, rng):
        for _ in range(100):
            model = random_model(rng)
            v = model.isometry
            assert np.max(np.abs(v.conj().T @ v - np.eye(model.object_dim))) < 1e-12

    def test_rejects_non_orthogonal_pointers(self):
        skew = (E0 + 0.2 * E1) / np.linalg.norm(E0 + 0.2 * E1)
        with pytest.raises(ValidationError, match="orthogonal"):
            build_premeasurement(pure_state(E0), pure_state(E1),
                                 ChannelLayout((2, 2)), [(E0, skew), (E0, E1)])

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_model_and_builder_reject_a_non_finite_tolerance(self, tol):
        layout = ChannelLayout((2, 2))
        # a valid model, and one whose branches (I, I) are not orthogonal and
        # whose pointer 2 E0 is not a unit vector
        for pointers, branches in (([(E0, E1)] * 2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))),
                                   ([(2 * E0, E1)] * 2, (np.eye(2), np.eye(2)))):
            with pytest.raises(ValidationError, match="tolerance must be nonnegative"):
                MeasurementModel(layout, pointers, branches, tol)
        with pytest.raises(ValidationError, match="tolerance must be nonnegative"):
            build_premeasurement(pure_state(E0), pure_state(E1), layout, [(E0, E1)] * 2,
                                 tol=tol)

    def test_support_deficiency_needs_padding(self):
        x1 = pure_state(basis_vector(3, 0))
        x2 = pure_state(basis_vector(3, 1))
        layout = ChannelLayout((2, 2))
        pointers = [(E0, E1), (E0, E1)]
        with pytest.raises(ValidationError, match="pad_remainder"):
            build_premeasurement(x1, x2, layout, pointers)
        model = build_premeasurement(x1, x2, layout, pointers, pad_remainder=True)
        assert model.object_dim == 3

    def test_single_branch_input_gives_pure_channel_states(self):
        model = ghz_model()
        for mu in (0, 1):
            red = reduced_channel_state(model, pure_state(E0), mu)
            assert red.purity() == pytest.approx(1.0, abs=1e-12)


class TestMEval:
    def test_empty_reading_set_is_certain(self):
        assert m_eval(ghz_model(), ReadingSet({}), random_state(2, 0)) == 1.0

    def test_identity_readings_are_certain(self):
        readings = ReadingSet({0: Effect(np.eye(2)), 1: Effect(np.eye(2))})
        assert m_eval(ghz_model(), readings, random_state(2, 1)) \
            == pytest.approx(1.0, abs=1e-12)

    def test_equal_superposition_coincidence_rate(self):
        x = pure_state((E0 + E1) / np.sqrt(2))
        readings = ReadingSet({0: ZERO_PROJ, 1: ZERO_PROJ})
        assert m_eval(ghz_model(), readings, x) == pytest.approx(0.5, abs=1e-12)

    def test_convex_linearity_in_state(self, rng):
        model = ghz_model()
        readings = ReadingSet({0: random_effect(2, 5), 1: random_effect(2, 6)})
        x1, x2 = random_state(2, 7), random_state(2, 8)
        for w in (0.2, 0.5, 0.9):
            from objectiva import State
            mixed = State(w * x1.matrix + (1 - w) * x2.matrix)
            assert m_eval(model, readings, mixed) == pytest.approx(
                w * m_eval(model, readings, x1) + (1 - w) * m_eval(model, readings, x2),
                abs=1e-12)

    def test_realized_effect_reproduces_m_eval(self, rng):
        for _ in range(30):
            model = random_model(rng)
            readings = ReadingSet({mu: random_effect(2, int(rng.integers(2**32)))
                                   for mu in range(model.layout.n_channels)})
            x = random_state(model.object_dim, int(rng.integers(2**32)))
            a = realized_effect(model, readings)  # validates the effect invariants
            assert prob(a, x) == pytest.approx(m_eval(model, readings, x), abs=1e-12)

    def test_reading_dim_mismatch(self):
        from objectiva import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            m_eval(ghz_model(), ReadingSet({0: Effect(np.eye(3))}), random_state(2, 0))


class TestSeparability:
    def test_identity_partner_is_exact(self):
        model = ghz_model()
        x = random_state(2, 3)
        a = random_effect(2, 4)
        assert verify_separability(model, x, 0, 1, a, Effect(np.eye(2))) < 1e-15

    def test_residual_over_random_draws(self, rng):
        worst = 0.0
        for _ in range(200):
            model = random_model(rng)
            x = random_state(model.object_dim, int(rng.integers(2**32)))
            a = random_effect(2, int(rng.integers(2**32)))
            b = random_effect(2, int(rng.integers(2**32)))
            worst = max(worst, verify_separability(model, x, 0, 1, a, b))
        assert worst <= 1e-12

    def test_unread_channels_do_not_move_marginals(self, rng):
        model = random_model(rng, n_channels=3)
        x = random_state(model.object_dim, 12)
        a = random_effect(2, 13)
        b = random_effect(2, 14)
        alone = m_eval(model, ReadingSet({0: a}), x)
        split = (m_eval(model, ReadingSet({0: a, 2: b}), x)
                 + m_eval(model, ReadingSet({0: a, 2: complement(b)}), x))
        assert split == pytest.approx(alone, abs=1e-12)

    def test_channel_collision_rejected(self):
        with pytest.raises(ValidationError):
            verify_separability(ghz_model(), random_state(2, 0), 1, 1,
                                Effect(np.eye(2)), Effect(np.eye(2)))


class TestDiscriminatingReading:
    def test_ghz_channels_read_the_pointer(self):
        model = ghz_model()
        for mu in (0, 1):
            a = discriminating_reading(model, mu, pure_state(E0), pure_state(E1))
            assert np.allclose(a.matrix, ZERO_PROJ.matrix)

    def test_equal_pointers_leave_channel_blind(self):
        model = MeasurementModel(ChannelLayout((2, 2)), [(E0, E1), (E0, E0)],
                                 (ZERO_PROJ.matrix, FIRE.matrix))
        with pytest.raises(DiscriminationError) as err:
            discriminating_reading(model, 1, pure_state(E0), pure_state(E1))
        assert err.value.overlap == pytest.approx(1.0)

    def test_property_run(self, rng):
        for _ in range(200):
            cols = random_orthonormal(2, 2, rng)
            b1, b2 = pure_state(cols[:, 0]), pure_state(cols[:, 1])
            pointers = []
            for _ in range(2):
                q = random_orthonormal(2, 2, rng)
                pointers.append((q[:, 0], q[:, 1]))
            model = build_premeasurement(b1, b2, ChannelLayout((2, 2)), pointers)
            for mu in (0, 1):
                a = discriminating_reading(model, mu, b1, b2)
                assert discriminates(a, reduced_channel_state(model, b1, mu),
                                     reduced_channel_state(model, b2, mu))
                assert m_eval(model, ReadingSet({mu: a}), b1) == pytest.approx(1.0, abs=1e-10)
                assert m_eval(model, ReadingSet({mu: a}), b2) == pytest.approx(0.0, abs=1e-10)


class TestSampling:
    def test_identity_readings_always_fire(self):
        model = ghz_model()
        readings = ReadingSet({0: Effect(np.eye(2)), 1: Effect(np.eye(2))})
        records = sample_events(model, readings, random_state(2, 0), 100, 1)
        assert all(r["outcomes"] == {0: 1, 1: 1} for r in records)

    def test_discriminating_readings_never_disagree(self):
        model = ghz_model()
        readings = ReadingSet({0: ZERO_PROJ, 1: ZERO_PROJ})
        spec = SuperpositionSpec(pure_state(E0), pure_state(E1), 0.5, 0.5)
        x = superposition_family(spec, 1.0, 0.0)
        records = sample_events(model, readings, x, 10_000, 7)
        assert all(r["outcomes"][0] == r["outcomes"][1] for r in records)
        freq = sum(r["outcomes"][0] for r in records) / len(records)
        assert abs(freq - 0.5) <= 3 * np.sqrt(0.25 / 10_000)

    def test_seed_reproducibility(self):
        model = ghz_model()
        readings = ReadingSet({0: random_effect(2, 1), 1: random_effect(2, 2)})
        x = random_state(2, 3)
        assert sample_events(model, readings, x, 500, 42) \
            == sample_events(model, readings, x, 500, 42)

    def test_distribution_normalizes(self, rng):
        model = random_model(rng, n_channels=3)
        readings = ReadingSet({mu: random_effect(2, int(rng.integers(2**32)))
                               for mu in range(3)})
        dist = joint_outcome_distribution(model, readings,
                                          random_state(model.object_dim, 5))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        assert len(dist) == 8
