"""Standing mutant catalogue: each entry breaks one module attribute of
objectiva and names the check that must catch the break.

A mutant is rebound at every module binding that holds the original, as
`perfbench/tracer.patch_everywhere` does, because ``from .linalg import x``
copies `x` into each importing module. A check returns True when it holds; it
must hold on the unmutated code and fail under its mutant. A mutant that no
route catches is an input guard: its check is the one test that rejects the
bad input the guard exists for.
"""

import io

import numpy as np
import pytest

import objectiva
from objectiva import (ValidationError, basis_vector, cli, discrimination, linalg,
                       measurement, pure_state, scenarios, superposition, theorems)
from objectiva.measurement import ReadingSet, m_eval_batch
from objectiva.superposition import SuperpositionSpec

from helpers import false_pass_theorem2

MODULES = (objectiva, linalg, superposition, discrimination, measurement, theorems,
           scenarios, cli)


def rebind_everywhere(monkeypatch, module, name, replacement):
    original = getattr(module, name)
    bindings = [(m, attr) for m in MODULES for attr, value in vars(m).items()
                if value is original]
    for m, attr in bindings:
        monkeypatch.setattr(m, attr, replacement)
    return bindings


def verify_all_line(name):
    """The check that the `verify-all` line `name` reads PASS at seed 0."""
    def check():
        buf = io.StringIO()
        cli.verify_all(0, stream=buf)
        return ["PASS", name] in [line.split("  ")[:2] for line in buf.getvalue().splitlines()]
    return check


def raises_validation_error(fn, *args) -> bool:
    try:
        fn(*args)
    except ValidationError:
        return True
    return False


# --- mutants ---------------------------------------------------------------

def max_of_both_mismatches(model, mu, nu, a_mu, a_nu, states):
    """The former theorem-2 definition: the larger of the two mismatch terms."""
    def m(b_mu, b_nu):
        return m_eval_batch(model, ReadingSet({mu: b_mu, nu: b_nu}), states)
    return np.maximum(m(a_mu, linalg.complement(a_nu)), m(linalg.complement(a_mu), a_nu))


def reversed_branches(original):
    return lambda model, readings: original(model, readings)[::-1]


def complemented_expectations(original):
    return lambda model, readings: [[1.0 - q for q in qs] for qs in original(model, readings)]


def unchecked_clamp(t, tol, what):
    return np.minimum(np.maximum(t.real, 0.0), 1.0)


def block_test_untransposed_target(matrices, spec, tol=None):
    """The stack block test comparing (Q X Q)^T with each branch target itself,
    not with its transpose: right only where the targets are symmetric."""
    n, d = len(matrices), spec.dim
    tol = spec.tol if tol is None else tol
    residual = np.zeros(n)
    for q, target in zip(spec.kernel_projectors,
                         (spec.w2 * spec.x2.matrix, spec.w1 * spec.x1.matrix)):
        xq_t = (matrices.reshape(n * d, d) @ q).reshape(n, d, d).swapaxes(1, 2)
        qxq_t = (xq_t.reshape(n * d, d) @ q.T).reshape(n, d * d)
        residual = np.maximum(residual, np.max(np.abs(qxq_t - target.reshape(d * d)), axis=1))
    return residual <= tol


# --- checks ------------------------------------------------------------------

def theorem2_rejects_the_false_pass():
    return not false_pass_theorem2().passed


def spec_rejects_overlapping_branches():
    plus = pure_state((basis_vector(2, 0) + basis_vector(2, 1)) / np.sqrt(2))
    return raises_validation_error(SuperpositionSpec, pure_state(basis_vector(2, 0)), plus,
                                   0.5, 0.5)


def prob_batch_rejects_a_trace_outside_the_unit_interval():
    # the second state is doctored past its checks: unit trace but not PSD, so Tr[A X] = 2
    a = linalg.Effect(np.diag([1.0, 0.0]))
    bad = linalg.State(np.diag([0.5, 0.5]))
    object.__setattr__(bad, "matrix", np.diag([2.0, -1.0]))
    states = linalg.stack_states([linalg.State(np.diag([0.5, 0.5])), bad], 2)
    return raises_validation_error(linalg.prob_batch, a, states)


# name -> (module, attribute, replacement given the original, check)
CATALOGUE = {
    "disagreement-max-of-terms": (theorems, "_disagreement",
                                  lambda original: max_of_both_mismatches,
                                  theorem2_rejects_the_false_pass),
    "overlap-always-zero (input guard)": (linalg, "_overlap",
                                          lambda original: lambda x1, x2: 0.0,
                                          spec_rejects_overlapping_branches),
    "pointer-expectations-branches-reversed": (
        measurement, "_pointer_expectations", reversed_branches,
        verify_all_line("realized-effect-routes")),
    "pointer-expectations-complemented": (
        measurement, "_pointer_expectations", complemented_expectations,
        verify_all_line("fig1c-reduction[w1=0.25]")),
    "block-test-always-true": (superposition, "is_member_batch",
                               lambda original: lambda matrices, spec, tol=None:
                               np.ones(len(matrices), dtype=bool),
                               verify_all_line("membership-block-vs-oracle")),
    "block-test-untransposed-target": (superposition, "is_member_batch",
                                       lambda original: block_test_untransposed_target,
                                       verify_all_line("membership-block-vs-oracle")),
    "clamp-without-checks (input guard)": (
        linalg, "clamp_probabilities", lambda original: unchecked_clamp,
        prob_batch_rejects_a_trace_outside_the_unit_interval),
}


@pytest.mark.parametrize("name", CATALOGUE)
def test_check_holds_on_the_unmutated_code(name):
    *_, check = CATALOGUE[name]
    assert check()


@pytest.mark.parametrize("name", CATALOGUE)
def test_mutant_is_caught(name, monkeypatch):
    module, attr, mutate, check = CATALOGUE[name]
    assert rebind_everywhere(monkeypatch, module, attr, mutate(getattr(module, attr)))
    assert not check()
