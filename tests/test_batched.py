"""The batched evaluation path: one realized effect per reading set, evaluated
on a stacked member array, checked against the per-member calls and against
the dense expectation on the embedded state."""

import numpy as np
import pytest

from objectiva import (
    ChannelLayout,
    Effect,
    ReadingSet,
    SuperpositionSpec,
    ValidationError,
    build_premeasurement,
    is_member,
    m_eval,
    oracle_is_member,
    prob,
    pure_state,
    random_effect,
    random_orthonormal,
    random_state,
    superposition_family,
    verify_theorem2,
)
from objectiva import cli, linalg, measurement
from objectiva.linalg import prob_batch, stack_states
from objectiva.measurement import _coincidence_effect, m_eval_batch
from objectiva.scenarios import fig1c_setup
from objectiva.superposition import is_member_batch

from helpers import orthogonal_pure_pair


def random_model(rng, object_dim, n_channels):
    cols = random_orthonormal(object_dim, 2, rng)
    pointers = []
    for _ in range(n_channels):
        q = random_orthonormal(2, 2, rng)
        pointers.append((q[:, 0], q[:, 1]))
    return build_premeasurement(pure_state(cols[:, 0]), pure_state(cols[:, 1]),
                                ChannelLayout((2,) * n_channels), pointers,
                                pad_remainder=object_dim > 2)


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
        model = random_model(rng, object_dim, n_channels)
        members = random_members(rng, object_dim, 7)
        matrices, tols = stack_states(members, object_dim)
        effects = {mu: random_effect(2, int(rng.integers(2**32)))
                   for mu in range(n_channels)}
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
