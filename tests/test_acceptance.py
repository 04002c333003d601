"""Acceptance battery: one test per release criterion, each at its stated
tolerance, printing a single pass/fail line. Run with `pytest -s` to see the
lines as they appear."""

import io

import numpy as np

from objectiva import (
    Effect,
    ReadingSet,
    SuperpositionSpec,
    counterexample_search,
    is_member,
    m_eval,
    membership_violation,
    prob,
    pure_state,
    random_effect,
    random_orthonormal,
    random_state,
    realized_effect,
    sample_events,
    superposition_family,
    verify_separability,
    verify_theorem1,
    verify_theorem2,
)
from objectiva.cli import main, verify_all
from objectiva.measurement import ChannelLayout, build_premeasurement, _coincidence_effect
from objectiva.scenarios import (
    ScenarioConfig,
    fig1c_setup,
    run_fig1b,
    run_fig1c,
    stern_gerlach_setup,
)

WEIGHT_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
PHASES = tuple(np.linspace(0, 2 * np.pi, 8, endpoint=False))
RNG_SEED = 987654321


def announce(number, label, ok):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def grid_members(spec):
    return [superposition_family(spec, c, ph) for c in WEIGHT_GRID for ph in PHASES]


def random_model(rng, object_dim=None, n_channels=2):
    object_dim = object_dim or int(rng.integers(2, 4))
    cols = random_orthonormal(object_dim, 2, rng)
    pointers = []
    for _ in range(n_channels):
        q = random_orthonormal(2, 2, rng)
        pointers.append((q[:, 0], q[:, 1]))
    return build_premeasurement(pure_state(cols[:, 0]), pure_state(cols[:, 1]),
                                ChannelLayout((2,) * n_channels), pointers,
                                pad_remainder=object_dim > 2)


def test_criterion_1_theorem1_random_suite():
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for k in range(500):
        dim = 2 + k % 7
        vecs = random_orthonormal(dim, 2, rng)
        q = np.eye(dim) - np.outer(vecs[:, 0], vecs[:, 0].conj()) \
            - np.outer(vecs[:, 1], vecs[:, 1].conj())
        b = random_effect(dim, int(rng.integers(2**32))).matrix
        a = Effect(q @ b @ q.conj().T)
        report = verify_theorem1(a, vecs[:, 0], vecs[:, 1])
        if not report.passed:
            worst = np.inf
            break
        worst = max(worst, report.residuals["max_grid_expectation"])
    announce(1, f"500 blind PSD effects, max grid expectation {worst:.2e}",
             worst <= 1e-10)


def test_criterion_2_fig1b_no_coincidence():
    report = run_fig1b(ScenarioConfig("fig1b_coincidence"))
    ok = (report["pass"] and report["preconditions"]["satisfied"]
          and report["residuals"]["max_coincidence_probability"] <= 1e-10)
    announce(2, "no coincidence on any superposition, preconditions verified", ok)


def test_criterion_3_fig1c_reduction():
    ok = True
    worst = 0.0
    for w1 in WEIGHT_GRID:
        report = run_fig1c(ScenarioConfig("fig1c_reduction", w1=w1, w2=1 - w1,
                                          trials=0))
        ok &= report["pass"]
        worst = max(worst, report["residuals"]["max_disagreement"],
                    report["residuals"]["max_both_fire_deviation"])
    announce(3, f"stacked detectors agree, max residual {worst:.2e} over weights",
             ok and worst <= 1e-10)


def test_criterion_4_membership_block_vs_oracle():
    rng = np.random.default_rng(RNG_SEED + 1)
    disagreements = 0
    for k in range(200):
        dim = 2 + k % 5
        cols = random_orthonormal(dim, 2, rng)
        w1 = float(rng.choice([0.25, 0.5, 0.75]))
        spec = SuperpositionSpec(pure_state(cols[:, 0]), pure_state(cols[:, 1]),
                                 w1, 1 - w1)
        if k % 2 == 0:
            x = superposition_family(spec, float(rng.uniform()),
                                     float(rng.uniform(0, 2 * np.pi)))
        else:
            x = spec.x1 if k % 4 == 1 else spec.x2
        block = is_member(x, spec, tol=1e-9)
        oracle = membership_violation(x, spec, samples=1000,
                                      seed=int(rng.integers(2**32))) <= 1e-9
        disagreements += block != oracle
    announce(4, f"block test vs 1000-effect oracle on 200 cases, "
                f"{disagreements} disagreements", disagreements == 0)


def test_criterion_5_separability_residual():
    rng = np.random.default_rng(RNG_SEED + 2)
    worst = 0.0
    for k in range(1000):
        model = random_model(rng, n_channels=3 if k % 3 == 0 else 2)
        x = random_state(model.object_dim, int(rng.integers(2**32)))
        a = random_effect(2, int(rng.integers(2**32)))
        b = random_effect(2, int(rng.integers(2**32)))
        worst = max(worst, verify_separability(model, x, 0, 1, a, b))
    announce(5, f"1000 draws incl. 3-channel layouts, max residual {worst:.2e}",
             worst <= 1e-12)


def test_criterion_6_theorem2_scenarios():
    ok = True
    worst = 0.0
    for setup in (fig1c_setup, stern_gerlach_setup):
        model, readings, x1, x2 = setup()
        for w1 in WEIGHT_GRID:
            spec = SuperpositionSpec(x1, x2, w1, 1 - w1)
            report = verify_theorem2(model, 0, 1, readings[0], readings[1],
                                     spec, grid_members(spec))
            ok &= report.passed
            worst = max(worst, report.residuals["max_firing_deviation"],
                        report.residuals["max_disagreement"])
    announce(6, f"objectivity over weight x coherence x phase grid, "
                f"max residual {worst:.2e}", ok and worst <= 1e-10)


def test_criterion_7_sampled_objectivity():
    model, readings, x1, x2 = stern_gerlach_setup()
    spec = SuperpositionSpec(x1, x2, 0.5, 0.5)
    member = superposition_family(spec, 1.0, 0.0)
    records = sample_events(model, ReadingSet(readings), member, 10_000, RNG_SEED)
    disagreements = sum(1 for r in records if r["outcomes"][0] != r["outcomes"][1])
    freq = sum(r["outcomes"][0] for r in records) / len(records)
    sigma = np.sqrt(0.25 / 10_000)
    ok = disagreements == 0 and abs(freq - 0.5) <= 3 * sigma
    announce(7, f"10^4 trials: {disagreements} disagreements, "
                f"frequency {freq:.4f} vs 0.5 +/- {3 * sigma:.4f}", ok)


def test_criterion_8_noise_necessity():
    model, readings, x1, x2 = fig1c_setup()
    spec = SuperpositionSpec(x1, x2, 0.5, 0.5)
    members = [superposition_family(spec, c, ph)
               for c in (0.0, 0.5, 1.0) for ph in (0.0, np.pi / 2)]
    values = []
    ok = True
    for eta in (0.0, 0.01, 0.05, 0.1, 0.2):
        report = counterexample_search(model, 0, 1, readings[0], readings[1],
                                       spec, eta, members)
        ok &= report.residuals["oracle_mismatch"] <= 1e-10
        values.append(report.residuals["max_disagreement"])
    at_01 = values[3]
    ok &= at_01 > 0 and values == sorted(values) and values[0] <= 1e-12
    announce(8, f"disagreement {at_01:.3e} at noise 0.1, nondecreasing in noise, "
                f"oracle-matched", ok)


def test_criterion_9_realized_effect_property():
    rng = np.random.default_rng(RNG_SEED + 3)
    worst = 0.0
    models = [fig1c_setup()[0], stern_gerlach_setup()[0]]
    models += [random_model(rng) for _ in range(20)]
    for model in models:
        readings = ReadingSet({mu: random_effect(2, int(rng.integers(2**32)))
                               for mu in range(model.layout.n_channels)})
        x = random_state(model.object_dim, int(rng.integers(2**32)))
        a = realized_effect(model, readings)  # construction enforces invariants
        direct = float(np.trace(_coincidence_effect(model, readings)
                                @ model.embed(x).matrix).real)
        worst = max(worst, abs(prob(a, x) - m_eval(model, readings, x)),
                    abs(prob(a, x) - direct))
    announce(9, f"realized observable matches both routes, max gap {worst:.2e}",
             worst <= 1e-12)


def test_criterion_10_mutation_sensitivity():
    clean = verify_all(0, stream=io.StringIO())
    flips = {hook: main(["verify-all", "--mutate", hook]) == 1
             for hook in ("broken-psd-projection", "non-orthogonal-pointers",
                          "skipped-complement")}
    ok = clean and all(flips.values())
    announce(10, f"mutation hooks flip verify-all: {flips}", ok)
