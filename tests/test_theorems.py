import json
from itertools import chain, combinations, product

import numpy as np
import pytest

from objectiva import (
    ChannelLayout,
    Effect,
    ReadingSet,
    SuperpositionSpec,
    ValidationError,
    basis_vector,
    build_premeasurement,
    counterexample_search,
    degrade_reading,
    inclusion_exclusion_batch,
    inclusion_exclusion_distribution,
    joint_outcome_distribution,
    m_eval_batch,
    membership_violation,
    pure_state,
    random_effect,
    random_orthonormal,
    random_state,
    stack_states,
    superposition_family,
    verify_theorem1,
    verify_theorem1_prime,
    verify_theorem2,
)
from objectiva.scenarios import fig1c_setup

from helpers import (FALSE_PASS_ETA, FALSE_PASS_TOL, false_pass_case, false_pass_theorem2,
                     orthogonal_pure_pair)

E0, E1 = basis_vector(2, 0), basis_vector(2, 1)


def blind_effect(dim, psi1, psi2, seed):
    q = np.eye(dim) - np.outer(psi1, np.conj(psi1)) - np.outer(psi2, np.conj(psi2))
    b = random_effect(dim, seed).matrix
    return Effect(q @ b @ q.conj().T)


class TestTheorem1:
    def test_disjoint_projector_passes(self):
        a = Effect(np.diag([0.0, 0.0, 1.0]))
        report = verify_theorem1(a, basis_vector(3, 0), basis_vector(3, 1))
        assert report.passed
        assert report.residuals["max_grid_expectation"] == 0.0

    def test_precondition_failure_is_reported(self):
        plus = (E0 + E1) / np.sqrt(2)
        report = verify_theorem1(Effect(np.outer(plus, plus.conj())), E0, E1)
        assert not report.passed
        assert not report.preconditions["satisfied"]
        assert report.preconditions["expectation_psi1"] == pytest.approx(0.5)

    def test_random_blind_constructions_pass(self, rng):
        for k in range(200):
            dim = 3 + k % 6
            vecs = random_orthonormal(dim, 2, rng)
            a = blind_effect(dim, vecs[:, 0], vecs[:, 1], int(rng.integers(2**32)))
            report = verify_theorem1(a, vecs[:, 0], vecs[:, 1])
            assert report.passed
            assert report.residuals["max_grid_expectation"] <= 1e-10
            assert report.witnesses["kernel_witness"] <= 1e-7

    def test_rejects_non_psd_operator(self):
        bad = Effect(np.diag([1.0, 0.0]))
        object.__setattr__(bad, "matrix", np.diag([0.5, -0.5]))
        with pytest.raises(ValidationError, match="PSD"):
            verify_theorem1(bad, E0, E1)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_rejects_a_non_finite_tolerance(self, tol):
        # the identity is not blind to E0 and E1; an infinite tolerance passed it
        with pytest.raises(ValidationError, match="tolerance must be nonnegative"):
            verify_theorem1(Effect(np.eye(2)), E0, E1, tol=tol)

    def test_report_json_shape(self):
        report = verify_theorem1(Effect(np.diag([0.0, 0.0, 1.0])),
                                 basis_vector(3, 0), basis_vector(3, 1))
        d = json.loads(json.dumps(report.to_dict()))
        assert set(d) == {"theorem", "pass", "preconditions", "residuals", "witnesses"}


class TestTheorem1Prime:
    def spec_and_effect(self, rng, dim=4):
        x1, x2 = orthogonal_pure_pair(dim, rng)
        spec = SuperpositionSpec(x1, x2, 0.5, 0.5)
        vecs = np.column_stack([np.linalg.eigh(x.matrix)[1][:, -1] for x in (x1, x2)])
        a = blind_effect(dim, vecs[:, 0], vecs[:, 1], int(rng.integers(2**32)))
        return spec, a

    def test_incoherent_mixture_only(self, rng):
        spec, a = self.spec_and_effect(rng)
        report = verify_theorem1_prime(a, spec, [spec.incoherent_mixture()])
        assert report.passed
        assert report.residuals["max_member_prob"] <= 1e-12

    def test_full_family_grid(self, rng):
        spec, a = self.spec_and_effect(rng)
        members = [superposition_family(spec, c, ph)
                   for c in (0.0, 0.25, 0.5, 0.75, 1.0)
                   for ph in np.linspace(0, 2 * np.pi, 8, False)]
        report = verify_theorem1_prime(a, spec, members)
        assert report.passed
        assert report.residuals["max_member_prob"] <= 1e-10

    def test_precondition_failure(self, rng):
        spec, _ = self.spec_and_effect(rng)
        leaky = Effect(0.1 * spec.x1.matrix)
        report = verify_theorem1_prime(leaky, spec, [spec.incoherent_mixture()])
        assert not report.passed
        assert not report.preconditions["satisfied"]

    def test_bad_member_raises(self, rng):
        spec, a = self.spec_and_effect(rng)
        with pytest.raises(ValidationError, match="member"):
            verify_theorem1_prime(a, spec, [spec.x1])


class TestTheorem2:
    def members(self, spec, coarse=False):
        cs = (0.0, 1.0) if coarse else (0.0, 0.25, 0.5, 0.75, 1.0)
        return [superposition_family(spec, c, ph)
                for c in cs for ph in np.linspace(0, 2 * np.pi, 8, False)]

    def test_ghz_equal_weights(self):
        model, readings, x1, x2 = fig1c_setup()
        spec = SuperpositionSpec(x1, x2, 0.5, 0.5)
        report = verify_theorem2(model, 0, 1, readings[0], readings[1],
                                 spec, self.members(spec))
        assert report.passed
        assert report.residuals["max_firing_deviation"] <= 1e-10
        assert report.residuals["max_disagreement"] <= 1e-10

    def test_quarter_weight(self):
        model, readings, x1, x2 = fig1c_setup()
        spec = SuperpositionSpec(x1, x2, 0.25, 0.75)
        report = verify_theorem2(model, 0, 1, readings[0], readings[1],
                                 spec, self.members(spec, coarse=True))
        assert report.passed
        assert report.witnesses["expected_rate"] == 0.25

    def test_degenerate_weight_one(self):
        model, readings, x1, x2 = fig1c_setup()
        spec = SuperpositionSpec(x1, x2, 1.0, 0.0)
        report = verify_theorem2(model, 0, 1, readings[0], readings[1], spec, [x1])
        assert report.passed

    def test_precondition_identifies_failing_channel(self):
        model, readings, x1, x2 = fig1c_setup()
        spec = SuperpositionSpec(x1, x2, 0.5, 0.5)
        fuzzy = degrade_reading(readings[1], 0.2)
        report = verify_theorem2(model, 0, 1, readings[0], fuzzy, spec,
                                 [spec.incoherent_mixture()])
        assert not report.passed
        assert report.preconditions["failing_channels"] == [1]

    def test_disagreement_is_the_sum_of_both_mismatches(self):
        # the readings pass the preconditions and the firing checks; only
        # the disagreement, P(1, 0) + P(0, 1), is above the tolerance
        eta, tol = FALSE_PASS_ETA, FALSE_PASS_TOL
        model, readings, degraded, spec, members = false_pass_case()
        report = false_pass_theorem2()
        assert report.preconditions["satisfied"]
        assert report.residuals["max_firing_deviation"] <= tol
        assert not report.passed
        value = report.residuals["max_disagreement"]
        search = counterexample_search(model, 0, 1, readings[0], readings[1], spec, eta,
                                       members, tol)
        assert abs(value - search.residuals["max_disagreement"]) <= 1e-15
        # a route that never reads the complement effect
        tables = [joint_outcome_distribution(model, ReadingSet(degraded), members[k])
                  for k in range(len(members))]
        assert abs(value - max(t[(1, 0)] + t[(0, 1)] for t in tables)) <= 1e-15
        assert value == pytest.approx(eta - eta ** 2 / 2, abs=1e-15)
        assert value > tol


class TestInclusionExclusionOracle:
    def test_matches_complement_route(self, rng):
        model, readings, x1, x2 = fig1c_setup()
        spec = SuperpositionSpec(x1, x2, 0.5, 0.5)
        x = superposition_family(spec, 0.7, 1.1)
        noisy = ReadingSet({0: degrade_reading(readings[0], 0.15),
                            1: degrade_reading(readings[1], 0.15)})
        direct = joint_outcome_distribution(model, noisy, x)
        oracle = inclusion_exclusion_distribution(model, noisy, x)
        for pattern in direct:
            assert direct[pattern] == pytest.approx(oracle[pattern], abs=1e-12)

    @staticmethod
    def superset_sums(model, readings, states):
        """The former construction: each pattern as the alternating-sign sum
        over every superset of its firing channels."""
        channels = readings.channels
        coincidence = {}
        for r in range(len(channels) + 1):
            for subset in combinations(channels, r):
                picked = ReadingSet({c: readings.entries[c] for c in subset})
                coincidence[subset] = m_eval_batch(model, picked, states)
        dist = {}
        for bits in product((1, 0), repeat=len(channels)):
            ones = tuple(c for c, b in zip(channels, bits) if b)
            zeros = [c for c, b in zip(channels, bits) if not b]
            p = 0.0
            for r in range(len(zeros) + 1):
                for extra in combinations(zeros, r):
                    p += (-1) ** r * coincidence[tuple(sorted(chain(ones, extra)))]
            dist[bits] = p
        return dist

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_the_superset_enumeration(self, rng, n):
        x1, x2 = orthogonal_pure_pair(3, rng)
        pointers = []
        for _ in range(n):
            q = random_orthonormal(2, 2, rng)
            pointers.append((q[:, 0], q[:, 1]))
        model = build_premeasurement(x1, x2, ChannelLayout((2,) * n), pointers,
                                     pad_remainder=True)
        readings = ReadingSet({mu: random_effect(2, int(rng.integers(2**32)))
                               for mu in range(n)})
        states = stack_states([random_state(3, int(rng.integers(2**32))) for _ in range(4)], 3)
        table = inclusion_exclusion_batch(model, readings, states)
        former = self.superset_sums(model, readings, states)
        assert list(table) == list(former)
        for bits in former:
            assert np.max(np.abs(table[bits] - former[bits])) <= 1e-14
        if n == 2:  # the entries counterexample_search reads
            for bits in ((1, 1), (1, 0), (0, 1)):
                assert np.array_equal(table[bits], former[bits])


class TestCounterexampleSearch:
    def setup_reports(self, etas):
        model, readings, x1, x2 = fig1c_setup()
        spec = SuperpositionSpec(x1, x2, 0.5, 0.5)
        members = [superposition_family(spec, c, ph)
                   for c in (0.0, 1.0) for ph in (0.0, np.pi / 2)]
        return [counterexample_search(model, 0, 1, readings[0], readings[1],
                                      spec, eta, members) for eta in etas]

    def test_zero_noise_reduces_to_objectivity(self):
        (report,) = self.setup_reports([0.0])
        assert report.passed
        assert report.residuals["max_disagreement"] <= 1e-12
        assert report.residuals["max_both_fire_deviation"] <= 1e-12

    @pytest.mark.parametrize("eta", [0.05, 0.2])
    def test_both_fire_deviation_closed_form(self, eta):
        # degraded fire/idle readings: both fire with w1 (1 - eta/2)^2 + w2 (eta/2)^2
        (report,) = self.setup_reports([eta])
        assert report.residuals["max_both_fire_deviation"] == pytest.approx(
            0.5 * (eta - eta ** 2 / 2), abs=1e-12)

    def test_noise_is_detected_and_monotone(self):
        reports = self.setup_reports([0.01, 0.05, 0.1, 0.2])
        values = [r.residuals["max_disagreement"] for r in reports]
        assert all(r.passed for r in reports)
        assert all(v > 1e-6 for v in values)
        assert values == sorted(values)

    def test_oracle_agreement(self):
        (report,) = self.setup_reports([0.1])
        assert report.residuals["oracle_mismatch"] <= 1e-10

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_rejects_a_non_finite_tolerance(self, tol):
        model, readings, x1, x2 = fig1c_setup()
        spec = SuperpositionSpec(x1, x2, 0.5, 0.5)
        with pytest.raises(ValidationError, match="tolerance must be nonnegative"):
            counterexample_search(model, 0, 1, readings[0], readings[1], spec, 0.1,
                                  [superposition_family(spec, 1.0)], tol=tol)


class TestBruteForceOracle:
    def test_member_identity_holds(self, rng):
        x1, x2 = orthogonal_pure_pair(4, rng)
        spec = SuperpositionSpec(x1, x2, 0.5, 0.5)
        member = superposition_family(spec, 0.8, 0.3)
        assert membership_violation(member, spec, samples=1000, seed=3) <= 1e-10

    def test_non_member_violation_found(self):
        spec = SuperpositionSpec(pure_state(E0), pure_state(E1), 0.5, 0.5)
        violation = membership_violation(spec.x1, spec, samples=1000, seed=4)
        assert violation > 0.05
