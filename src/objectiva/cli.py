"""Command-line runner: scenario execution, the full verification battery,
event sampling, and operator validation.

Mutation hooks (for `verify-all --mutate`, each must flip the exit code):

* ``broken-psd-projection`` - the compression used to build branch-blind
  effects keeps a stray component on the first vector.
* ``non-orthogonal-pointers`` - the stacked-detector model is built with
  overlapping pointer states on the second channel.
* ``skipped-complement`` - the scenario battery evaluates disagreement
  probabilities with the raw reading instead of its complement
  (``scenarios.complement`` is bound to the identity while it runs).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys

import numpy as np

from . import scenarios
from .linalg import (
    Effect,
    State,
    ValidationError,
    basis_vector,
    check_tolerance,
    matrix_from_json,
    prob,
    pure_state,
    random_effect,
    random_orthonormal,
    random_state,
)
from .measurement import (
    ChannelLayout,
    MeasurementModel,
    ReadingSet,
    _coincidence_effect,
    build_premeasurement,
    draw_patterns,
    realized_effect,
    verify_separability,
)
from .scenarios import (
    ScenarioConfig,
    fig1c_setup,
    run_fig1a,
    run_fig1b,
    run_fig1c,
    run_scenario,
    run_stern_gerlach,
    stern_gerlach_setup,
)
from .superposition import (
    SuperpositionSpec,
    is_member,
    superposition_family,
    superposition_members,
)
from .theorems import (
    DEFAULT_WEIGHT_GRID,
    counterexample_search,
    membership_violation,
    verify_theorem1,
    verify_theorem1_prime,
)

MUTATIONS = ("broken-psd-projection", "non-orthogonal-pointers", "skipped-complement")
# trials per text chunk that `sample` writes
CHUNK = 1 << 16


def _blind_effect(dim: int, psi1, psi2, seed, broken: bool = False) -> Effect:
    """Random effect compressed to annihilate both vectors (or, for the
    broken-projection mutation, only the second one fully)."""
    p1 = np.outer(psi1, np.conj(psi1))
    p2 = np.outer(psi2, np.conj(psi2))
    q = np.eye(dim) - (0.5 if broken else 1.0) * p1 - p2
    b = random_effect(dim, seed).matrix
    return Effect(q @ b @ q.conj().T)


def _check_theorem1_suite(seed: int, broken: bool) -> tuple:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(60):
        dim = 3 + k % 6
        vecs = random_orthonormal(dim, 2, rng)
        a = _blind_effect(dim, vecs[:, 0], vecs[:, 1], rng.integers(2**32), broken)
        report = verify_theorem1(a, vecs[:, 0], vecs[:, 1])
        if not report.passed:
            return False, f"draw {k} failed: {report.preconditions}"
        worst = max(worst, report.residuals["max_grid_expectation"])
    return True, f"max grid expectation {worst:.2e} over 60 draws"


def _check_theorem1_prime(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    dim = 4
    vecs = random_orthonormal(dim, 2, rng)
    spec = SuperpositionSpec(pure_state(vecs[:, 0]), pure_state(vecs[:, 1]), 0.5, 0.5)
    a = _blind_effect(dim, vecs[:, 0], vecs[:, 1], rng.integers(2**32))
    members = superposition_members(spec, (0.0, 0.5, 1.0),
                                    np.linspace(0, 2 * np.pi, 8, False))
    report = verify_theorem1_prime(a, spec, members)
    return report.passed, f"max member probability {report.residuals['max_member_prob']:.2e}"


def _check_membership(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    for k in range(12):
        dim = int(rng.integers(2, 7))
        vecs = random_orthonormal(dim, 2, rng)
        w1 = float(rng.uniform())
        spec = SuperpositionSpec(pure_state(vecs[:, 0]), pure_state(vecs[:, 1]),
                                 w1, 1.0 - w1)
        if k % 2 == 0:
            x = superposition_family(spec, float(rng.uniform()),
                                     float(rng.uniform(0, 2 * np.pi)))
        else:
            x = random_state(dim, int(rng.integers(2**32)))
        block = is_member(x, spec, tol=1e-9)
        oracle = membership_violation(x, spec, samples=300,
                                      seed=int(rng.integers(2**32))) <= 1e-9
        if block != oracle:
            return False, f"case {k}: block verdict {block}, oracle verdict {oracle}"
    return True, "12 cases agree with the sampling oracle"


def _random_model(rng) -> MeasurementModel:
    object_dim = int(rng.integers(2, 4))
    n_channels = int(rng.integers(2, 4))
    layout = ChannelLayout((2,) * n_channels)
    vecs = random_orthonormal(object_dim, 2, rng)
    x1 = pure_state(vecs[:, 0])
    x2 = pure_state(vecs[:, 1])
    pointers = []
    for _ in range(n_channels):
        cols = random_orthonormal(2, 2, rng)
        pointers.append((cols[:, 0], cols[:, 1]))
    return build_premeasurement(x1, x2, layout, pointers,
                                pad_remainder=object_dim > 2)


def _check_separability(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(80):
        model = _random_model(rng)
        x = random_state(model.object_dim, int(rng.integers(2**32)))
        a = random_effect(2, int(rng.integers(2**32)))
        b = random_effect(2, int(rng.integers(2**32)))
        worst = max(worst, verify_separability(model, x, 0, 1, a, b))
    return worst <= 1e-12, f"max residual {worst:.2e} over 80 draws"


def _check_realized_effect(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        model = _random_model(rng)
        readings = ReadingSet({mu: random_effect(2, int(rng.integers(2**32)))
                               for mu in range(model.layout.n_channels)})
        x = random_state(model.object_dim, int(rng.integers(2**32)))
        realized = realized_effect(model, readings)  # raises if not an effect
        # independent route: the dense product effect on the embedded state
        direct = float(np.trace(_coincidence_effect(model, readings)
                                @ model.embed(x).matrix).real)
        worst = max(worst, abs(prob(realized, x) - direct))
    return worst <= 1e-12, f"max route mismatch {worst:.2e} over 20 draws"


def _mutated_pointer_model() -> tuple:
    """Stacked-detector model with overlapping pointers on channel 2.

    The branch supports stay orthogonal so the result is still an isometry,
    but the second channel cannot discriminate exactly.
    """
    x1 = pure_state(basis_vector(2, 0))
    x2 = pure_state(basis_vector(2, 1))
    bad = (basis_vector(2, 0) + 0.3 * basis_vector(2, 1))
    bad /= np.linalg.norm(bad)
    model = MeasurementModel(
        ChannelLayout((2, 2)),
        [(basis_vector(2, 1), basis_vector(2, 0)), (basis_vector(2, 1), bad)],
        (x1.matrix, x2.matrix))
    fire = Effect(np.outer(basis_vector(2, 1), basis_vector(2, 1)))
    return model, {0: fire, 1: fire}, x1, x2


def _check_scenarios(seed: int, mutation: str | None) -> list:
    checks = []
    for w1 in DEFAULT_WEIGHT_GRID:
        config = ScenarioConfig("fig1a_interference", w1=w1, w2=1.0 - w1, seed=seed)
        checks.append((f"fig1a-interference[w1={w1}]", run_fig1a(config)["pass"], ""))
    config = ScenarioConfig("fig1b_coincidence", seed=seed)
    checks.append(("fig1b-coincidence", run_fig1b(config)["pass"], ""))

    if mutation == "non-orthogonal-pointers":
        from .theorems import verify_theorem2

        model, readings, x1, x2 = _mutated_pointer_model()
        spec = SuperpositionSpec(x1, x2, 0.5, 0.5)
        members = superposition_members(spec, (0.0, 0.5, 1.0), (0.0,))
        report = verify_theorem2(model, 0, 1, readings[0], readings[1], spec, members)
        checks.append(("fig1c-reduction[mutated-pointers]", report.passed,
                       str(report.preconditions)))
    for w1 in DEFAULT_WEIGHT_GRID:
        config = ScenarioConfig("fig1c_reduction", w1=w1, w2=1.0 - w1,
                                seed=seed, trials=0)
        checks.append((f"fig1c-reduction[w1={w1}]",
                       run_fig1c(config)["pass"], ""))
        config = ScenarioConfig("stern_gerlach", w1=w1, w2=1.0 - w1,
                                seed=seed, trials=2000 if w1 == 0.5 else 0)
        checks.append((f"stern-gerlach[w1={w1}]",
                       run_stern_gerlach(config)["pass"], ""))
    return checks


def _check_necessity(seed: int) -> tuple:
    model, readings, x1, x2 = fig1c_setup()
    spec = SuperpositionSpec(x1, x2, 0.5, 0.5)
    members = superposition_members(spec, (0.0, 1.0), (0.0, np.pi / 3))
    previous = -1.0
    for eta in (0.0, 0.01, 0.05, 0.1, 0.2):
        report = counterexample_search(model, 0, 1, readings[0], readings[1],
                                       spec, eta, members)
        value = report.residuals["max_disagreement"]
        if not report.passed or value < previous:
            return False, f"noise {eta}: disagreement {value:.3e}"
        previous = value
    return True, f"disagreement grows to {previous:.3e} at noise 0.2"


def verify_all(seed: int = 0, mutation: str | None = None, stream=None) -> bool:
    """Run the full verification battery; print one line per check to
    `stream` (the current sys.stdout when None)."""
    if mutation is not None and mutation not in MUTATIONS:
        raise ValidationError(f"unknown mutation hook {mutation!r}")
    if seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    stream = sys.stdout if stream is None else stream
    checks = []

    def guarded(name, fn, *args):
        try:
            ok, detail = fn(*args)
        except ValidationError as exc:
            ok, detail = False, f"error: {exc}"
        checks.append((name, ok, detail))

    guarded("theorem1-random-suite", _check_theorem1_suite, seed,
            mutation == "broken-psd-projection")
    guarded("theorem1-prime-family", _check_theorem1_prime, seed)
    guarded("membership-block-vs-oracle", _check_membership, seed)
    guarded("separability-residual", _check_separability, seed)
    guarded("realized-effect-routes", _check_realized_effect, seed)
    entry_complement = scenarios.complement
    try:
        if mutation == "skipped-complement":
            # the scenario battery reads disagreement with the raw reading
            scenarios.complement = lambda a: a
        checks.extend(_check_scenarios(seed, mutation))
    except ValidationError as exc:
        checks.append(("scenario-battery", False, f"error: {exc}"))
    finally:
        # the binding found on entry, which a tracer may have wrapped
        scenarios.complement = entry_complement
    guarded("discrimination-necessity", _check_necessity, seed)

    all_ok = True
    for name, ok, detail in checks:
        all_ok &= ok
        suffix = f"  ({detail})" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'}  {name}{suffix}", file=stream)
    print(f"{'PASS' if all_ok else 'FAIL'}  verify-all", file=stream)
    return all_ok


def _load_config(path: str, args) -> ScenarioConfig:
    with open(path) as fh:
        payload = json.load(fh)
    config = ScenarioConfig.from_dict(payload)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.tolerance is not None:
        overrides["tol"] = args.tolerance
    # replace re-runs the config checks on the overridden values
    return dataclasses.replace(config, **overrides)


def _emit(chunks, out: str | None):
    """Write an iterable of text chunks to the file `out`, or to stdout."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        for chunk in chunks:
            fh.write(chunk)


def _residual_lines(report: dict, prefix: str = ""):
    """`residual <path>: <value>` for every `residuals` mapping in the report,
    with its enclosing keys as a dotted prefix, in sorted key order."""
    for key, value in sorted(report.items()):
        if key == "residuals":
            for name, r in sorted(value.items()):
                yield f"residual {prefix}{name}: {'null' if r is None else f'{r:.3e}'}"
        elif isinstance(value, dict):
            yield from _residual_lines(value, f"{prefix}{key}.")


def _report_text(report: dict) -> str:
    lines = [f"scenario: {report['scenario']}",
             f"pass: {report['pass']}"]
    if "members_checked" in report:
        lines.append(f"members_checked: {report['members_checked']}")
    return "\n".join([*lines, *_residual_lines(report)]) + "\n"


def _cmd_run(args) -> int:
    config = _load_config(args.config, args)
    report = run_scenario(config)
    if args.format == "json":
        _emit([json.dumps(report, sort_keys=True, indent=2) + "\n"], args.out)
    else:
        _emit([_report_text(report)], args.out)
    return 0 if report["pass"] else 1


def _cmd_sample(args) -> int:
    config = _load_config(args.config, args)
    if config.scenario == "fig1c_reduction":
        model, readings, x1, x2 = fig1c_setup(config.tol)
    elif config.scenario == "stern_gerlach":
        model, readings, x1, x2 = stern_gerlach_setup(config.tol)
    else:
        raise ValidationError(f"sampling is defined for the two-channel "
                              f"scenarios, not {config.scenario!r}")
    spec = SuperpositionSpec(x1, x2, config.w1, config.w2, config.tol)
    member = superposition_family(spec, config.coherence_grid[-1],
                                  config.phase_grid[0])
    readings = ReadingSet(readings)
    # draw before `--out` is opened, so a failing draw leaves the file alone
    patterns, draws = draw_patterns(model, readings, member, config.trials, config.seed)
    _emit(_event_lines(readings.channels, patterns, draws), args.out)
    return 0


def _event_lines(channels, patterns, draws):
    """The records of `measurement.sample_events` as JSON lines with sorted
    keys, CHUNK trials per string. "outcomes" sorts before "trial", so each
    line is its pattern's prefix followed by the trial number."""
    prefixes = [json.dumps({"trial": 0, "outcomes": dict(zip(channels, bits))},
                           sort_keys=True)[:-2] for bits in patterns]
    for start in range(0, len(draws), CHUNK):
        yield "".join([prefixes[k] + str(t) + "}\n"
                       for t, k in enumerate(draws[start:start + CHUNK].tolist(), start)])


def _cmd_validate(args) -> int:
    check_tolerance(args.tolerance)
    with open(args.matrix) as fh:
        m = matrix_from_json(json.load(fh))
    verdicts = {}
    for kind, cls in (("state", State), ("effect", Effect)):
        if args.kind in (kind, "auto"):
            try:
                cls(m, args.tolerance)
                verdicts[kind] = "valid"
            except ValidationError as exc:
                verdicts[kind] = f"invalid: {exc}"
    for kind, verdict in verdicts.items():
        print(f"{kind}: {verdict}")
    return 0 if any(v == "valid" for v in verdicts.values()) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="objectiva",
        description="Effect-algebra scenario runner and theorem verifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tolerance", type=float, default=None)
        p.add_argument("--out", default=None)

    p_run = sub.add_parser("run", help="execute a scenario config and write its report")
    p_run.add_argument("config")
    common(p_run)
    p_run.add_argument("--format", choices=("json", "text"), default="json")

    p_verify = sub.add_parser("verify-all", help="run the full verification battery")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--mutate", choices=MUTATIONS, default=None)

    p_sample = sub.add_parser("sample", help="emit sampled event records as JSON lines")
    p_sample.add_argument("config")
    common(p_sample)

    p_validate = sub.add_parser("validate", help="check a matrix file against the invariants")
    p_validate.add_argument("matrix")
    p_validate.add_argument("--kind", choices=("state", "effect", "auto"), default="auto")
    p_validate.add_argument("--tolerance", type=float, default=1e-10)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify-all":
            return 0 if verify_all(args.seed, args.mutate) else 1
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "validate":
            return _cmd_validate(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
