"""The batched evaluation path: one realized effect per reading set, evaluated
on a stacked member array, checked against the per-member calls and against
the dense expectation on the embedded state; the closed-form channel states
checked against the partial trace of the embedded state."""

from itertools import product

import numpy as np
import pytest

from objectiva import (
    ChannelLayout,
    DimensionMismatch,
    Effect,
    MeasurementModel,
    ReadingSet,
    State,
    StateStack,
    SuperpositionSpec,
    ValidationError,
    basis_vector,
    build_premeasurement,
    complement,
    counterexample_search,
    discriminating_reading,
    inclusion_exclusion_batch,
    is_member,
    joint_outcome_distribution,
    m_eval,
    membership_violation,
    prob,
    pure_state,
    random_effect,
    random_orthonormal,
    random_state,
    reduced_channel_state,
    superposition_family,
    superposition_members,
    verify_theorem1_prime,
    verify_theorem2,
)
from objectiva import cli, linalg, measurement, scenarios, theorems
from objectiva.linalg import partial_trace, prob_batch, stack_states
from objectiva.measurement import _coincidence_effect, m_eval_batch
from objectiva.scenarios import (ScenarioConfig, fig1c_setup, run_fig1a,
                                 stern_gerlach_setup)
from objectiva.superposition import is_member_batch

from helpers import block_test_loop, orthogonal_mixed_pair, orthogonal_pure_pair

TOL = 1e-9


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
        states = stack_states(members, model.object_dim)
        effects = {mu: random_effect(d, int(rng.integers(2**32)))
                   for mu, d in enumerate(model.layout.channel_dims)}
        reading_sets = [ReadingSet({}), ReadingSet({0: effects[0]}),
                        ReadingSet({n_channels - 1: effects[n_channels - 1]}),
                        ReadingSet(effects)]
        for readings in reading_sets:
            batch = m_eval_batch(model, readings, states)
            assert batch.shape == (len(members),)
            loop = [m_eval(model, readings, x) for x in members]
            dense = [dense_oracle(model, readings, x) for x in members]
            assert np.max(np.abs(batch - loop)) <= 1e-12
            assert np.max(np.abs(batch - dense)) <= 1e-12

    def test_empty_stack(self, rng):
        model = random_model(rng, 2, 2)
        states = stack_states([], 2)
        assert isinstance(states, StateStack) and states.matrices.shape == (0, 2, 2)
        assert m_eval_batch(model, ReadingSet({}), states).shape == (0,)

    def test_every_batched_evaluator_accepts_an_empty_list(self):
        model, readings, x1, x2 = fig1c_setup()
        spec = SuperpositionSpec(x1, x2, 0.5, 0.5)
        states = stack_states([], 2)
        both = ReadingSet(readings)
        assert prob_batch(readings[0], states).shape == (0,)
        assert m_eval_batch(model, both, states).shape == (0,)
        table = inclusion_exclusion_batch(model, both, states)
        assert all(p.shape == (0,) for p in table.values())
        assert is_member_batch(states.matrices, spec).shape == (0,)
        assert theorems._disagreement(model, 0, 1, readings[0], readings[1], states).shape == (0,)
        args = (model, 0, 1, readings[0], readings[1], spec)
        for report in (verify_theorem2(*args, []), counterexample_search(*args, 0.0, []),
                       verify_theorem1_prime(Effect(np.zeros((2, 2))), spec, [])):
            assert report.passed and report.witnesses["members_checked"] == 0

    def test_stack_rejects_wrong_dim(self):
        with pytest.raises(ValueError, match="state 1 has dim 3"):
            stack_states([random_state(2, 0), random_state(3, 1)], 2)

    def test_prob_batch_equals_prob(self, rng):
        states = random_members(rng, 4, 6)
        a = random_effect(4, 5)
        values = prob_batch(a, stack_states(states, 4))
        assert list(values) == [prob(a, x) for x in states]

    def test_prob_batch_names_the_failing_state(self):
        a = Effect(np.diag([1.0, 0.0]))
        # doctored past its checks: unit trace but not PSD, so Tr[A X] = 2
        bad = State(np.diag([0.5, 0.5]))
        object.__setattr__(bad, "matrix", np.diag([2.0, -1.0]))
        with pytest.raises(ValidationError, match="of state 1 outside"):
            prob_batch(a, stack_states([State(np.diag([0.5, 0.5])), bad], 2))


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
            mask = is_member_batch(stack_states(candidates, dim).matrices, spec, tol=1e-9)
            assert list(mask[:2]) == [True, True]
            for x, verdict in zip(candidates, mask):
                assert verdict == is_member(x, spec, tol=1e-9)
                assert verdict == (membership_violation(x, spec, samples=300,
                                                        seed=int(rng.integers(2**32))) <= 1e-9)

    @staticmethod
    def block_cases(rng, dim, mixed):
        """A spec with complex branches (a rank-2 first branch when mixed) and
        its candidates: members, the mixture, x1, x2, two random states, and a
        member moved 0.5 tol and 2 tol along the first branch."""
        x1, x2 = (orthogonal_mixed_pair(dim, rng, rank1=2, rank2=1) if mixed
                  else orthogonal_pure_pair(dim, rng))
        w1 = float(rng.uniform(0.1, 0.9))
        spec = SuperpositionSpec(x1, x2, w1, 1 - w1)
        members = superposition_members(spec, (0.0,) if mixed else (0.0, 0.5, 1.0),
                                        rng.uniform(0, 2 * np.pi, size=3))
        v1 = np.linalg.eigh(x1.matrix)[1][:, -1]
        # Q2 keeps v1 and Q1 removes it, so only the Q2 residual moves, by f * TOL
        along_x1 = np.outer(v1, v1.conj()) / np.max(np.abs(np.outer(v1, v1.conj())))
        moved = [members.matrices[-1] + f * TOL * along_x1 for f in (0.5, 2.0)]
        randoms = [random_state(dim, int(rng.integers(2**32))).matrix for _ in range(2)]
        candidates = np.array([*members.matrices, spec.incoherent_mixture().matrix,
                               x1.matrix, x2.matrix, *randoms, *moved])
        expected = [True] * (len(members) + 1) + [False] * 4 + [True, False]
        return spec, members, candidates, expected

    @pytest.mark.parametrize("dim,mixed", [(d, False) for d in range(2, 7)]
                             + [(d, True) for d in range(3, 7)])
    def test_stack_kernel_matches_the_member_loop(self, rng, dim, mixed):
        spec, members, candidates, expected = self.block_cases(rng, dim, mixed)
        verdicts = is_member_batch(candidates, spec, tol=TOL)
        assert verdicts.dtype == bool
        assert list(verdicts) == expected
        assert list(verdicts) == list(block_test_loop(candidates, spec, TOL))
        strided = candidates[::2]
        assert not strided.flags.c_contiguous
        assert list(is_member_batch(strided, spec, tol=TOL)) == expected[::2]
        assert not members.matrices.flags.writeable
        assert is_member_batch(members.matrices, spec, tol=TOL).all()
        empty = is_member_batch(np.zeros((0, dim, dim), dtype=complex), spec, tol=TOL)
        assert empty.shape == (0,) and empty.dtype == bool

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
        assert is_member_batch(stack_states(members, 3).matrices, spec).all()
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

        def shifted(a, states):
            return exact(a, states) * (1.0 - 1e-6)

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


def loop_member(spec, coherence, phase):
    """One member built and validated on its own, as before member stacks:
    the incoherent mixture plus amp |v1><v2| + h.c."""
    if coherence == 0.0:
        return spec.incoherent_mixture()
    v1, v2 = spec.branch_vectors
    amp = coherence * np.sqrt(spec.w1 * spec.w2) * np.exp(1j * phase)
    cross = amp * np.outer(v1, v2.conj())
    return State(spec.w1 * spec.x1.matrix + spec.w2 * spec.x2.matrix + cross + cross.conj().T,
                 spec.tol)


COHERENCES = (0.0, 0.3, 1.0, 0.0, 0.77)
PHASES = (0.0, 1.1, -2.0, np.pi, 2 * np.pi * 4 / 5)


class TestMemberStack:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_stack_equals_the_member_loop(self, rng, dim):
        for w1 in (0.0, 0.2, 0.5, 0.83, 1.0):
            x1, x2 = orthogonal_pure_pair(dim, rng)
            spec = SuperpositionSpec(x1, x2, w1, 1.0 - w1)
            stack = superposition_members(spec, COHERENCES, PHASES)
            assert isinstance(stack, StateStack)
            assert len(stack) == len(COHERENCES) * len(PHASES)
            grid = list(product(COHERENCES, PHASES))
            loop = [loop_member(spec, c, ph) for c, ph in grid]
            assert np.max(np.abs(stack.matrices - stack_states(loop, dim).matrices)) == 0.0
            for k, (c, ph) in enumerate(grid):
                assert np.max(np.abs(stack[k].matrix - loop[k].matrix)) == 0.0
                assert np.max(np.abs(superposition_family(spec, c, ph).matrix
                                     - loop[k].matrix)) == 0.0

    def test_mixed_branches_with_coherence_zero_only(self, rng):
        x1, x2 = orthogonal_mixed_pair(4, rng, rank1=2, rank2=1)
        spec = SuperpositionSpec(x1, x2, 0.4, 0.6)
        stack = superposition_members(spec, (0.0, 0.0), (0.0, 1.0))
        assert len(stack) == 4
        mixture = spec.incoherent_mixture().matrix
        assert all(np.array_equal(m, mixture) for m in stack.matrices)
        with pytest.raises(ValidationError, match="pure branches only"):
            superposition_members(spec, (0.0, 0.5), (0.0,))

    @pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.1])
    def test_rejects_coherence_outside_the_unit_interval(self, rng, bad):
        spec = SuperpositionSpec(*orthogonal_pure_pair(3, rng), 0.5, 0.5)
        message = f"coherence {bad!r} outside \\[0, 1\\]"
        # a grid with no coherence > 0 must not fall through to the mixture
        with pytest.raises(ValidationError, match=message):
            superposition_members(spec, (0.0, bad), (0.0, 1.0))
        with pytest.raises(ValidationError, match=message):
            superposition_family(spec, bad)

    @staticmethod
    def count_eigvalsh(monkeypatch) -> list:
        """The shapes of the matrices passed to `np.linalg.eigvalsh` from now on."""
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(m, *args, **kwargs):
            calls.append(np.shape(m))
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        return calls

    def test_one_eigvalsh_per_grid(self, rng, monkeypatch):
        spec = SuperpositionSpec(*orthogonal_pure_pair(3, rng), 0.3, 0.7)
        spec.branch_vectors  # decided once per spec, before counting
        calls = self.count_eigvalsh(monkeypatch)
        stack = superposition_members(spec, np.linspace(0, 1, 7), np.linspace(0, 6, 9))
        assert calls == [(63, 3, 3)]
        assert stack_states(stack, 3).matrices is stack.matrices
        assert stack_states(stack, 3) is stack

    def test_one_eigvalsh_per_family_member(self, rng, monkeypatch):
        spec = SuperpositionSpec(*orthogonal_pure_pair(3, rng), 0.3, 0.7)
        spec.branch_vectors  # decided once per spec, before counting
        calls = self.count_eigvalsh(monkeypatch)
        x = superposition_family(spec, 0.6, 1.1)
        assert calls == [(1, 3, 3)]
        assert isinstance(x, State) and x.tol == spec.tol and not x.matrix.flags.writeable
        assert np.array_equal(x.matrix, superposition_members(spec, (0.6,), (1.1,)).matrices[0])
        # the unchecked member is what the checks of `State` would store
        assert np.array_equal(State(x.matrix, x.tol).matrix, x.matrix)

    @staticmethod
    def corrupted(k, member):
        stack = np.array([np.diag([0.5, 0.5]), np.diag([0.25, 0.75]), np.diag([1.0, 0.0])],
                         dtype=complex)
        stack[k] = member
        return stack

    @pytest.mark.parametrize("member,message", [
        (np.array([[0.5, 1e-3], [0.0, 0.5]]), "member 1 is not Hermitian"),
        (np.diag([1.5, -0.5]), "member 1 is not PSD"),
        (np.diag([0.6, 0.6]), "member 1 trace is"),
        (np.diag([np.nan, 0.5]), "member 1 contains NaN or Inf"),
        (np.diag([np.inf, 0.5]), "member 1 contains NaN or Inf"),
    ])
    def test_stack_rejects_an_invalid_member(self, member, message):
        with pytest.raises(ValidationError, match=message):
            StateStack(self.corrupted(1, member))
        # the same checks as State, at the same tolerance
        with pytest.raises(ValidationError):
            State(member)

    def test_stack_checks_shape_and_tolerance(self):
        with pytest.raises(ValidationError, match="nonempty square"):
            StateStack(np.zeros((2, 2, 3)))
        with pytest.raises(ValidationError, match="nonnegative"):
            StateStack(self.corrupted(0, np.diag([0.5, 0.5])), tol=-1.0)
        with pytest.raises(DimensionMismatch, match="stack has dim 2"):
            stack_states(StateStack(self.corrupted(0, np.diag([0.5, 0.5]))), 3)

    def test_stack_is_read_only(self):
        stack = StateStack(self.corrupted(0, np.diag([0.5, 0.5])))
        with pytest.raises(ValueError):
            stack.matrices[0, 0, 0] = 1.0

    def test_verifiers_give_the_same_report_for_a_stack_and_a_list(self):
        model, readings, x1, x2 = fig1c_setup()
        spec = SuperpositionSpec(x1, x2, 0.35, 0.65)
        stack = superposition_members(spec, (0.0, 0.3, 1.0), (0.0, 1.0, 2.5))
        members = [stack[k] for k in range(len(stack))]
        args = (model, 0, 1, readings[0], readings[1], spec)
        assert (verify_theorem2(*args, stack).to_dict()
                == verify_theorem2(*args, members).to_dict())
        for noise in (0.0, 0.05):
            assert (counterexample_search(*args, noise, stack).to_dict()
                    == counterexample_search(*args, noise, members).to_dict())
        blind = Effect(np.zeros((2, 2)))
        assert (verify_theorem1_prime(blind, spec, stack).to_dict()
                == verify_theorem1_prime(blind, spec, members).to_dict())

    @pytest.mark.parametrize("w1", [0.123, 0.3, 0.5, 0.7])
    def test_fig1a_fringe_equals_the_prob_loop(self, w1):
        config = ScenarioConfig("fig1a_interference", w1=w1, w2=1.0 - w1)
        spec = scenarios._two_arm_spec(config)
        plus = (basis_vector(2, 0) + basis_vector(2, 1)) / np.sqrt(2)
        port = Effect(np.outer(plus, plus.conj()), config.tol)
        rows = run_fig1a(config)["fringe"]
        for row, c in zip(rows, config.coherence_grid):
            assert row["probabilities"] == [prob(port, loop_member(spec, c, ph))
                                            for ph in config.phase_grid]


class TestStackOperand:
    """`stack_states` gives the one operand of the batched evaluators."""

    def test_a_list_stacks_at_the_largest_member_tolerance(self):
        tols = (1e-12, 1e-8, 1e-10)
        states = [State(np.diag([p, 1.0 - p]), tol) for p, tol in zip((0.2, 0.5, 0.9), tols)]
        stack = stack_states(states, 2)
        assert isinstance(stack, StateStack)
        assert stack.tol == 1e-8
        assert np.array_equal(stack.matrices, np.array([x.matrix for x in states]))
        assert not stack.matrices.flags.writeable

    def test_stacking_a_list_checks_no_member_again(self, rng, monkeypatch):
        states = random_members(rng, 3, 5)
        calls = TestMemberStack.count_eigvalsh(monkeypatch)
        stack = stack_states(states, 3)
        assert calls == []
        assert all(np.array_equal(stack[k].matrix, x.matrix) for k, x in enumerate(states))


def pattern_readings(readings):
    """Every fire/no-fire pattern with its reading set, in table order: a
    channel that does not fire is read through the complement."""
    for bits in product((1, 0), repeat=len(readings.channels)):
        yield bits, ReadingSet({mu: readings.entries[mu] if b else complement(readings.entries[mu])
                                for mu, b in zip(readings.channels, bits)})


def pattern_loop(model, readings, x):
    """The joint table built pattern by pattern, one coincidence value each."""
    return {bits: m_eval(model, picked, x) for bits, picked in pattern_readings(readings)}


def table_cases(rng):
    """(model, reading set) pairs over at most five channels: object dim 3
    with the remainder padded, mixed branches, overlapping pointers, five
    channels, and readings on the channel subset {0, 2} of four."""
    four = random_model(rng, 3, 4)
    models = [four, mixed_padded_model(rng), degenerate_model(rng), random_model(rng, 2, 5)]
    cases = []
    for model in models:
        cases.append((model, ReadingSet({mu: random_effect(d, int(rng.integers(2**32)))
                                         for mu, d in enumerate(model.layout.channel_dims)})))
    cases.append((four, ReadingSet({mu: random_effect(2, int(rng.integers(2**32)))
                                    for mu in (0, 2)})))
    return cases


class TestJointTable:
    def test_no_effect_is_built_per_pattern(self, monkeypatch):
        x1, x2 = pure_state(basis_vector(2, 0)), pure_state(basis_vector(2, 1))
        x = superposition_family(SuperpositionSpec(x1, x2, 0.3, 0.7), 0.8, 1.3)
        setups = {}
        for n in (4, 8):
            model = build_premeasurement(x1, x2, ChannelLayout((2,) * n),
                                         [(basis_vector(2, 1), basis_vector(2, 0))] * n)
            setups[n] = model, ReadingSet({mu: discriminating_reading(model, mu, x1, x2)
                                           for mu in range(n)})
        built = []
        checks = Effect.__post_init__

        def counting(self):
            built.append(self)
            checks(self)

        monkeypatch.setattr(Effect, "__post_init__", counting)
        counts = {}
        for n, (model, readings) in setups.items():
            built.clear()
            assert len(joint_outcome_distribution(model, readings, x)) == 2**n
            counts[n] = len(built)
        assert counts[4] == counts[8]

    def test_matches_the_pattern_loop_and_both_oracles(self, rng):
        for model, readings in table_cases(rng):
            members = random_members(rng, model.object_dim, 4)
            oracle = inclusion_exclusion_batch(model, readings,
                                               stack_states(members, model.object_dim))
            for k, x in enumerate(members):
                table = joint_outcome_distribution(model, readings, x)
                assert list(table) == list(oracle)
                for bits, picked in pattern_readings(readings):
                    assert abs(table[bits] - m_eval(model, picked, x)) <= 1e-15
                    assert abs(table[bits] - oracle[bits][k]) <= 1e-15
                    assert abs(table[bits] - dense_oracle(model, picked, x)) <= 1e-15

    @pytest.mark.parametrize("setup", [fig1c_setup, stern_gerlach_setup])
    def test_scenario_tables_equal_the_pattern_loop(self, setup):
        # `sample` and the stern_gerlach counts draw from these tables
        model, readings, x1, x2 = setup()
        readings = ReadingSet(readings)
        for w1 in (0.0, 0.123, 0.3, 0.5, 0.77, 1.0):
            spec = SuperpositionSpec(x1, x2, w1, 1.0 - w1)
            for x in superposition_members(spec, (0.0, 0.4, 1.0),
                                           np.linspace(0, 2 * np.pi, 7)):
                assert joint_outcome_distribution(model, readings, x) \
                    == pattern_loop(model, readings, x)

    def test_zero_read_channels_give_one_entry(self, rng):
        model = mixed_padded_model(rng)
        x = random_state(model.object_dim, 3)
        table = joint_outcome_distribution(model, ReadingSet({}), x)
        assert list(table) == [()]
        assert abs(table[()] - m_eval(model, ReadingSet({}), x)) <= 1e-15

    def test_errors_keep_their_types(self, rng):
        model = random_model(rng, 3, 4)
        x = random_state(3, 1)
        a = random_effect(2, 2)
        big = build_premeasurement(pure_state(basis_vector(2, 0)),
                                   pure_state(basis_vector(2, 1)),
                                   ChannelLayout((2,) * (measurement.MAX_SAMPLED_CHANNELS + 1)),
                                   [(basis_vector(2, 1), basis_vector(2, 0))]
                                   * (measurement.MAX_SAMPLED_CHANNELS + 1))
        everywhere = ReadingSet({mu: a for mu in range(big.layout.n_channels)})
        with pytest.raises(ValidationError, match="too large"):
            joint_outcome_distribution(big, everywhere, random_state(2, 0))
        with pytest.raises(DimensionMismatch, match="outside layout"):
            joint_outcome_distribution(model, ReadingSet({0: a, 4: a}), x)
        with pytest.raises(DimensionMismatch, match="has dim 3"):
            joint_outcome_distribution(model, ReadingSet({0: a, 1: random_effect(3, 4)}), x)
        with pytest.raises(DimensionMismatch, match="state dim 2"):
            joint_outcome_distribution(model, ReadingSet({0: a}), random_state(2, 5))
