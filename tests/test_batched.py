"""The batched evaluation path: one realized effect per reading set, evaluated
on a stacked member array, checked against the per-member calls and against
the dense expectation on the embedded state; the closed-form channel states
checked against the partial trace of the embedded state."""

import numpy as np
import pytest

from objectiva import (
    ChannelLayout,
    DimensionMismatch,
    Effect,
    MeasurementModel,
    ReadingSet,
    SuperpositionSpec,
    ValidationError,
    basis_vector,
    build_premeasurement,
    discriminating_reading,
    is_member,
    m_eval,
    oracle_is_member,
    prob,
    pure_state,
    random_effect,
    random_orthonormal,
    random_state,
    reduced_channel_state,
    superposition_family,
    verify_theorem2,
)
from objectiva import cli, linalg, measurement
from objectiva.linalg import partial_trace, prob_batch, stack_states
from objectiva.measurement import _coincidence_effect, m_eval_batch
from objectiva.scenarios import fig1c_setup
from objectiva.superposition import is_member_batch

from helpers import orthogonal_mixed_pair, orthogonal_pure_pair


def random_pointers(rng, channel_dims):
    pointers = []
    for d in channel_dims:
        q = random_orthonormal(d, 2, rng)
        pointers.append((q[:, 0], q[:, 1]))
    return pointers


def random_model(rng, object_dim, n_channels, channel_dim=2):
    x1, x2 = orthogonal_pure_pair(object_dim, rng)
    return build_premeasurement(x1, x2, ChannelLayout((channel_dim,) * n_channels),
                                random_pointers(rng, (channel_dim,) * n_channels),
                                pad_remainder=object_dim > 2)


def mixed_padded_model(rng):
    """Rank-2 and rank-1 branches in dim 5; the rank-2 remainder joins branch 2."""
    x1, x2 = orthogonal_mixed_pair(5, rng, rank1=2, rank2=1)
    dims = (2, 3, 2)
    return build_premeasurement(x1, x2, ChannelLayout(dims), random_pointers(rng, dims),
                                pad_remainder=True)


def degenerate_model(rng):
    """Built directly: channel 1's pointers overlap, so it cannot discriminate."""
    cols = random_orthonormal(3, 1, rng)
    b1 = np.outer(cols[:, 0], cols[:, 0].conj())
    pointers = random_pointers(rng, (2, 2, 3))
    skew = pointers[1][0] + 0.4 * pointers[1][1]
    pointers[1] = (pointers[1][0], skew / np.linalg.norm(skew))
    return MeasurementModel(ChannelLayout((2, 2, 3)), pointers, (b1, np.eye(3) - b1))


EXTRA_MODELS = {
    "channel-dim-3": lambda rng: random_model(rng, 2, 2, channel_dim=3),
    "four-channels": lambda rng: random_model(rng, 3, 4),
    "five-channels": lambda rng: random_model(rng, 2, 5),
    "pad-remainder-mixed": mixed_padded_model,
    "degenerate-pointers": degenerate_model,
}
ALL_MODELS = {**{f"obj{d}-n{n}": (lambda rng, d=d, n=n: random_model(rng, d, n))
                 for d in (2, 3, 4) for n in (2, 3)},
              **EXTRA_MODELS}


def dense_oracle(model, readings, x):
    """Expectation of the full product effect on the embedded state."""
    return float(np.trace(_coincidence_effect(model, readings)
                          @ model.embed(x).matrix).real)


def random_members(rng, dim, count):
    """Alternating pure and mixed states."""
    members = []
    for k in range(count):
        if k % 2 == 0:
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            members.append(pure_state(v / np.linalg.norm(v)))
        else:
            members.append(random_state(dim, int(rng.integers(2**32))))
    return members


class TestBatchedCoincidence:
    @pytest.mark.parametrize("object_dim", [2, 3, 4])
    @pytest.mark.parametrize("n_channels", [2, 3])
    def test_matches_member_loop_and_dense_oracle(self, rng, object_dim, n_channels):
        self.check_against_dense_oracle(rng, random_model(rng, object_dim, n_channels))

    @pytest.mark.parametrize("kind", EXTRA_MODELS)
    def test_extra_models_match_member_loop_and_dense_oracle(self, rng, kind):
        self.check_against_dense_oracle(rng, EXTRA_MODELS[kind](rng))

    @staticmethod
    def check_against_dense_oracle(rng, model):
        n_channels = model.layout.n_channels
        members = random_members(rng, model.object_dim, 7)
        matrices, tols = stack_states(members, model.object_dim)
        effects = {mu: random_effect(d, int(rng.integers(2**32)))
                   for mu, d in enumerate(model.layout.channel_dims)}
        reading_sets = [ReadingSet({}), ReadingSet({0: effects[0]}),
                        ReadingSet({n_channels - 1: effects[n_channels - 1]}),
                        ReadingSet(effects)]
        for readings in reading_sets:
            batch = m_eval_batch(model, readings, matrices, tols)
            assert batch.shape == (len(members),)
            loop = [m_eval(model, readings, x) for x in members]
            dense = [dense_oracle(model, readings, x) for x in members]
            assert np.max(np.abs(batch - loop)) <= 1e-12
            assert np.max(np.abs(batch - dense)) <= 1e-12

    def test_empty_stack(self, rng):
        model = random_model(rng, 2, 2)
        matrices, tols = stack_states([], 2)
        assert matrices.shape == (0, 2, 2)
        assert m_eval_batch(model, ReadingSet({}), matrices, tols).shape == (0,)

    def test_stack_rejects_wrong_dim(self):
        with pytest.raises(ValueError, match="state 1 has dim 3"):
            stack_states([random_state(2, 0), random_state(3, 1)], 2)

    def test_prob_batch_equals_prob(self, rng):
        states = random_members(rng, 4, 6)
        a = random_effect(4, 5)
        values = prob_batch(a, *stack_states(states, 4))
        assert list(values) == [prob(a, x) for x in states]

    def test_prob_batch_names_the_failing_state(self):
        a = Effect(np.diag([1.0, 0.0]))
        # the second matrix has unit trace but is not PSD: Tr[A X] = 2
        matrices = np.array([np.diag([0.5, 0.5]), np.diag([2.0, -1.0])], dtype=complex)
        with pytest.raises(ValidationError, match="of state 1 outside"):
            prob_batch(a, matrices, 1e-10)


class TestClosedForms:
    @pytest.mark.parametrize("kind", ALL_MODELS)
    def test_reduced_channel_state_matches_partial_trace(self, rng, kind):
        model = ALL_MODELS[kind](rng)
        dims = model.layout.channel_dims + (model.object_dim,)
        for x in random_members(rng, model.object_dim, 3):
            embedded = model.embed(x).matrix
            for mu in range(model.layout.n_channels):
                dense = partial_trace(embedded, dims, {mu})
                closed = reduced_channel_state(model, x, mu).matrix
                assert np.max(np.abs(closed - dense)) <= 1e-12

    def test_model_rejects_wrong_pointer_dim(self):
        e0, e1 = basis_vector(2, 0), basis_vector(2, 1)
        with pytest.raises(DimensionMismatch, match="channel 1 must have dim 3"):
            MeasurementModel(ChannelLayout((2, 3)), [(e0, e1), (e0, e1)],
                             (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))

    def test_model_rejects_unnormalized_pointers(self):
        e0, e1 = basis_vector(2, 0), basis_vector(2, 1)
        with pytest.raises(ValidationError, match="channel 0 are not normalized"):
            MeasurementModel(ChannelLayout((2, 2)), [(e0, 1.1 * e1), (e0, e1)],
                             (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))

    def test_model_rejects_branches_that_do_not_resolve_the_identity(self):
        e0, e1 = basis_vector(2, 0), basis_vector(2, 1)
        pointers = [(e0, e1), (e0, e1)]
        with pytest.raises(ValidationError, match="do not resolve the identity"):
            MeasurementModel(ChannelLayout((2, 2)), pointers,
                             (np.diag([1.0, 0.0]), np.zeros((2, 2))))
        with pytest.raises(ValidationError, match="not orthogonal projectors"):
            MeasurementModel(ChannelLayout((2, 2)), pointers,
                             (np.eye(2) / 2, np.eye(2) / 2))

    def test_sixteen_channels_without_the_dense_route(self, rng, monkeypatch):
        def no_kron(*args, **kwargs):
            raise AssertionError("the dense Kronecker route was used")

        monkeypatch.setattr(np, "kron", no_kron)
        x1, x2 = pure_state(basis_vector(2, 0)), pure_state(basis_vector(2, 1))
        model = build_premeasurement(x1, x2, ChannelLayout((2,) * 16),
                                     random_pointers(rng, (2,) * 16))
        readings = [discriminating_reading(model, mu, x1, x2) for mu in range(16)]
        spec = SuperpositionSpec(x1, x2, 0.3, 0.7)
        members = [superposition_family(spec, c, 0.7) for c in (0.0, 0.5, 1.0)]
        report = verify_theorem2(model, 0, 15, readings[0], readings[15], spec, members)
        assert report.passed, report.to_dict()


class TestBatchedMembership:
    def test_agrees_with_oracle_and_single_test(self, rng):
        for _ in range(6):
            dim = int(rng.integers(2, 6))
            x1, x2 = orthogonal_pure_pair(dim, rng)
            w1 = float(rng.uniform(0.1, 0.9))
            spec = SuperpositionSpec(x1, x2, w1, 1 - w1)
            candidates = [superposition_family(spec, float(rng.uniform()),
                                               float(rng.uniform(0, 2 * np.pi))),
                          spec.incoherent_mixture(), spec.x1, spec.x2,
                          random_state(dim, int(rng.integers(2**32)))]
            mask = is_member_batch(stack_states(candidates, dim)[0], spec, tol=1e-9)
            assert list(mask[:2]) == [True, True]
            for x, verdict in zip(candidates, mask):
                assert verdict == is_member(x, spec, tol=1e-9)
                assert verdict == oracle_is_member(x, spec, samples=300,
                                                   seed=int(rng.integers(2**32)))

    def test_kernel_projectors_computed_once_per_spec(self, rng, monkeypatch):
        x1, x2 = orthogonal_pure_pair(3, rng)
        spec = SuperpositionSpec(x1, x2, 0.5, 0.5)
        members = [superposition_family(spec, c, 0.4) for c in (0.0, 0.5, 1.0)]
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(m, *args, **kwargs):
            calls.append(np.shape(m))
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        for _ in range(5):
            assert all(is_member(x, spec) for x in members)
        assert is_member_batch(stack_states(members, 3)[0], spec).all()
        assert len(calls) == 2
        other = SuperpositionSpec(x1, x2, 0.25, 0.75)
        is_member(other.incoherent_mixture(), other)
        assert len(calls) == 4

    def test_theorem2_names_the_non_member(self):
        model, readings, x1, x2 = fig1c_setup()
        spec = SuperpositionSpec(x1, x2, 0.5, 0.5)
        members = [superposition_family(spec, c, 0.0) for c in (0.0, 0.5)]
        members += [spec.x1, superposition_family(spec, 1.0, 0.3)]
        with pytest.raises(ValidationError, match="member 2 fails"):
            verify_theorem2(model, 0, 1, readings[0], readings[1], spec, members)


class TestDenseRouteStaysIndependent:
    def break_batched_evaluation(self, monkeypatch):
        exact = linalg.prob_batch

        def shifted(a, matrices, tols):
            return exact(a, matrices, tols) * (1.0 - 1e-6)

        monkeypatch.setattr(linalg, "prob_batch", shifted)
        monkeypatch.setattr(measurement, "prob_batch", shifted)

    def test_dense_oracle_does_not_use_the_batched_path(self, rng, monkeypatch):
        model = random_model(rng, 2, 2)
        readings = ReadingSet({0: random_effect(2, 1), 1: random_effect(2, 2)})
        x = random_state(2, 3)
        before = (dense_oracle(model, readings, x), m_eval(model, readings, x))
        self.break_batched_evaluation(monkeypatch)
        assert dense_oracle(model, readings, x) == before[0]
        assert m_eval(model, readings, x) != before[1]

    def test_realized_effect_check_catches_a_broken_batch(self, monkeypatch):
        assert cli._check_realized_effect(0)[0]
        self.break_batched_evaluation(monkeypatch)
        ok, detail = cli._check_realized_effect(0)
        assert not ok, detail
