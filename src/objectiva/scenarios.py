"""Built-in interferometer and pointer-measurement scenarios.

Each runner builds a concrete model (two-arm interferometer, detectors in
both arms, stacked detectors in one arm, or a spin-half beam split onto two
pointer channels), sweeps the configured superposition grid, and returns a
deterministic, JSON-serializable report with a pass flag.

Phase convention: the recombining beam splitter maps the two arm basis
vectors onto (e1 +/- e2)/sqrt(2); the swept phase is the relative phase of
the second arm amplitude.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict
from numbers import Integral, Real

import numpy as np

from . import __version__
from .linalg import (
    DEFAULT_TOL,
    Effect,
    State,
    ValidationError,
    basis_vector,
    check_tolerance,
    complement,
    matrix_from_json,
    prob_batch,
    pure_state,
)
from .measurement import (
    ChannelLayout,
    ReadingSet,
    build_premeasurement,
    discriminating_reading,
    draw_patterns,
    m_eval_batch,
)
from .superposition import (
    DEFAULT_COHERENCE_GRID,
    DEFAULT_PHASE_GRID,
    SuperpositionSpec,
    _check_weights,
    superposition_members,
)
from .theorems import (
    counterexample_search,
    verify_theorem1,
    verify_theorem1_prime,
    verify_theorem2,
)

SCENARIOS = ("fig1a_interference", "fig1b_coincidence", "fig1c_reduction",
             "stern_gerlach", "custom")


def _require_number(name: str, value):
    if isinstance(value, bool) or not isinstance(value, Real) or not np.isfinite(value):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = "fig1a_interference"
    w1: float = 0.5
    w2: float = 0.5
    coherence_grid: tuple = DEFAULT_COHERENCE_GRID
    phase_grid: tuple = DEFAULT_PHASE_GRID
    detector_noise: float = 0.0
    trials: int = 10_000
    seed: int = 0
    tol: float = DEFAULT_TOL
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        # tolerance first: the weight-sum check below depends on it
        _require_number("tolerance", self.tol)
        check_tolerance(self.tol)
        if self.scenario not in SCENARIOS:
            raise ValidationError(f"unknown scenario {self.scenario!r}")
        for name in ("w1", "w2", "detector_noise"):
            _require_number(name, getattr(self, name))
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
                raise ValidationError(f"{name} must be a nonnegative integer, got {value!r}")
        for name in ("coherence_grid", "phase_grid"):
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple)) or not grid:
                raise ValidationError(f"{name} must be a nonempty list of numbers")
            for value in grid:
                _require_number(f"{name} entry", value)
        if not isinstance(self.extra, dict):
            raise ValidationError("extra must be a JSON object")
        _check_weights(self.w1, self.w2, self.tol)
        if not 0.0 <= self.detector_noise < 1.0:
            raise ValidationError("detector_noise must lie in [0, 1)")
        object.__setattr__(self, "coherence_grid", tuple(float(c) for c in self.coherence_grid))
        object.__setattr__(self, "phase_grid", tuple(float(p) for p in self.phase_grid))

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioConfig":
        if not isinstance(obj, dict):
            raise ValidationError(f"config must be a JSON object, got {type(obj).__name__}")
        for first, second in (("weights", "w1"), ("weights", "w2"), ("tolerance", "tol")):
            if first in obj and second in obj:
                raise ValidationError(
                    f"config gives both {first!r} and {second!r}: use one spelling")
        obj = dict(obj)
        kwargs = {}
        if "weights" in obj:
            weights = obj.pop("weights")
            if not isinstance(weights, list) or len(weights) != 2:
                raise ValidationError(f"weights must be a list of two numbers, got {weights!r}")
            for w in weights:
                _require_number("weights entry", w)
            kwargs["w1"], kwargs["w2"] = float(weights[0]), float(weights[1])
        for key in ("scenario", "w1", "w2", "coherence_grid", "phase_grid",
                    "detector_noise", "trials", "seed", "extra"):
            if key in obj:
                kwargs[key] = obj.pop(key)
        for alias in ("tolerance", "tol"):
            if alias in obj:
                value = obj.pop(alias)
                _require_number("tolerance", value)
                kwargs["tol"] = float(value)
        if obj:
            raise ValidationError(f"unknown config keys: {sorted(obj)}")
        return cls(**kwargs)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["coherence_grid"] = list(self.coherence_grid)
        d["phase_grid"] = list(self.phase_grid)
        return d

    def sha256(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def _finalize(report: dict, config: ScenarioConfig) -> dict:
    report["scenario"] = config.scenario
    report["config_sha256"] = config.sha256()
    report["version"] = __version__
    return report


def _two_arm_spec(config: ScenarioConfig) -> SuperpositionSpec:
    return SuperpositionSpec(pure_state(basis_vector(2, 0)), pure_state(basis_vector(2, 1)),
                             config.w1, config.w2, config.tol)


def _grid_members(spec: SuperpositionSpec, config: ScenarioConfig):
    return superposition_members(spec, config.coherence_grid, config.phase_grid)


def run_fig1a(config: ScenarioConfig) -> dict:
    """Open interferometer: one detector behind the recombining beam splitter.

    The fringe follows 1/2 + coherence * sqrt(w1 w2) * cos(phase); visibility
    at full coherence is 2 sqrt(w1 w2). Pass requires the swept fringe to
    match the closed form and the coherence-0 row to be flat.
    """
    spec = _two_arm_spec(config)
    plus = (basis_vector(2, 0) + basis_vector(2, 1)) / np.sqrt(2)
    port = Effect(np.outer(plus, plus.conj()), config.tol)
    members = _grid_members(spec, config)
    grid = prob_batch(port, members).reshape(
        len(config.coherence_grid), len(config.phase_grid))
    rows = []
    worst = 0.0
    for c, row in zip(config.coherence_grid, grid):
        probs = row.tolist()
        expected = [0.5 + c * np.sqrt(config.w1 * config.w2) * np.cos(ph)
                    for ph in config.phase_grid]
        worst = max(worst, float(max(abs(p - e) for p, e in zip(probs, expected))))
        rows.append({"coherence": c, "probabilities": probs,
                     "visibility": float(2 * c * np.sqrt(config.w1 * config.w2))})
    flat = next((r for r in rows if r["coherence"] == 0.0), None)
    flat_residual = (max(abs(p - 0.5) for p in flat["probabilities"])
                     if flat is not None else 0.0)
    passed = worst <= config.tol and flat_residual <= config.tol
    return _finalize({
        "pass": passed,
        "fringe": rows,
        "residuals": {"closed_form": worst, "incoherent_flatness": flat_residual},
    }, config)


def fig1b_arms():
    """Occupation-number arm space: |arm1 occupied>, |arm2 occupied>, and the
    single-quantum coincidence effect |both occupied><both occupied|."""
    phi1 = np.kron(basis_vector(2, 1), basis_vector(2, 0))
    phi2 = np.kron(basis_vector(2, 0), basis_vector(2, 1))
    both = np.kron(basis_vector(2, 1), basis_vector(2, 1))
    return phi1, phi2, Effect(np.outer(both, both.conj()))


def run_fig1b(config: ScenarioConfig) -> dict:
    """Detectors in both arms: coincidences never occur.

    The experimenter's check is that the coincidence effect gives zero on
    either single-arm state (theorem 1); the sweep then confirms zero on every
    superposition member (theorem 1').
    """
    phi1, phi2, a_cc = fig1b_arms()
    theorem1 = verify_theorem1(a_cc, phi1, phi2, tol=config.tol)
    spec = SuperpositionSpec(pure_state(phi1), pure_state(phi2),
                             config.w1, config.w2, config.tol)
    sweep = verify_theorem1_prime(a_cc, spec, _grid_members(spec, config), config.tol)
    pre = theorem1.preconditions
    return _finalize({
        "pass": theorem1.passed and sweep.passed,
        "preconditions": {"arm1_expectation": pre["expectation_psi1"],
                          "arm2_expectation": pre["expectation_psi2"],
                          "satisfied": pre["satisfied"]},
        "residuals": {"max_coincidence_probability": sweep.residuals["max_member_prob"]},
        "theorem1": theorem1.to_dict(),
    }, config)


def _two_channel_setup(pointer_pair: tuple, tol: float):
    """Qubit object with branches |0>, |1>, recorded on two qubit channels
    that both use `pointer_pair`; returns the model, the discriminating
    readings of both channels and the two branch states."""
    x1 = pure_state(basis_vector(2, 0))
    x2 = pure_state(basis_vector(2, 1))
    model = build_premeasurement(x1, x2, ChannelLayout((2, 2)), [pointer_pair] * 2, tol=tol)
    readings = {mu: discriminating_reading(model, mu, x1, x2) for mu in (0, 1)}
    return model, readings, x1, x2


def fig1c_setup(tol: float = DEFAULT_TOL):
    """Two stacked non-absorbing detectors in one arm, watching the same branch."""
    # per channel: branch-1 pointer fires (|1>), branch-2 pointer stays idle (|0>)
    return _two_channel_setup((basis_vector(2, 1), basis_vector(2, 0)), tol)


def stern_gerlach_setup(tol: float = DEFAULT_TOL):
    """Spin-half object, two spatial channels recording the deflection branch."""
    return _two_channel_setup((basis_vector(2, 0), basis_vector(2, 1)), tol)


def _two_channel_battery(model, readings, spec: SuperpositionSpec, members,
                         config: ScenarioConfig) -> dict:
    eta = config.detector_noise
    if eta > 0:
        report = counterexample_search(model, 0, 1, readings[0], readings[1],
                                       spec, eta, members, config.tol)
        passed, residuals = report.passed, report.residuals
    else:
        # computed here, through this module's `complement`, so that binding
        # alone can be swapped for the identity to mutate the scenario battery
        a0, a1 = readings[0], readings[1]
        disagreement = (
            m_eval_batch(model, ReadingSet({0: a0, 1: complement(a1)}), members)
            + m_eval_batch(model, ReadingSet({0: complement(a0), 1: a1}), members))
        both = m_eval_batch(model, ReadingSet({0: a0, 1: a1}), members)
        residuals = {
            "max_disagreement": float(np.max(disagreement, initial=0.0)),
            "max_both_fire_deviation": float(np.max(np.abs(both - config.w1), initial=0.0)),
            "oracle_mismatch": 0.0,
        }
        passed = (residuals["max_disagreement"] <= config.tol
                  and residuals["max_both_fire_deviation"] <= config.tol)
    return {
        "pass": passed,
        "residuals": residuals,
        "expected_both_fire": config.w1,
        "detector_noise": eta,
    }


def run_fig1c(config: ScenarioConfig) -> dict:
    """Stacked detectors in one path: both fire (with the branch weight) or
    neither does; disagreement has probability zero."""
    model, readings, x1, x2 = fig1c_setup(config.tol)
    spec = SuperpositionSpec(x1, x2, config.w1, config.w2, config.tol)
    return _finalize(_two_channel_battery(model, readings, spec,
                                          _grid_members(spec, config), config), config)


def run_stern_gerlach(config: ScenarioConfig) -> dict:
    """Spin-half branch measurement on two channels, with the full objectivity
    check and a sampled-trial comparison against the exact probabilities."""
    model, readings, up, down = stern_gerlach_setup(config.tol)
    spec = SuperpositionSpec(up, down, config.w1, config.w2, config.tol)
    members = _grid_members(spec, config)
    battery = _two_channel_battery(model, readings, spec, members, config)

    theorem2 = verify_theorem2(model, 0, 1, readings[0], readings[1],
                               spec, members, tol=config.tol)
    sampling = {"trials": config.trials}
    sampling_ok = True
    if config.trials > 0 and config.detector_noise == 0.0:
        # patterns are (channel 0, channel 1) bits
        patterns, draws = draw_patterns(model, ReadingSet(readings), members[0],
                                        config.trials, config.seed)
        counts = np.bincount(draws, minlength=len(patterns))
        disagreements = int(sum(n for (b0, b1), n in zip(patterns, counts) if b0 != b1))
        fired = int(sum(n for (b0, _), n in zip(patterns, counts) if b0))
        freq = fired / config.trials
        sigma = float(np.sqrt(max(config.w1 * config.w2, 0.0) / config.trials))
        sampling = {
            "trials": config.trials,
            "disagreements": disagreements,
            "channel1_frequency": freq,
            "expected_frequency": config.w1,
            "binomial_sigma": sigma,
        }
        sampling_ok = disagreements == 0 and abs(freq - config.w1) <= max(3 * sigma, config.tol)
    battery["pass"] = bool(battery["pass"] and theorem2.passed and sampling_ok)
    battery["theorem2"] = theorem2.to_dict()
    battery["sampling"] = sampling
    return _finalize(battery, config)


def run_custom(config: ScenarioConfig) -> dict:
    """User-supplied branch states and channel layout from the config payload.

    Payload keys in `extra`: "x1", "x2" (matrix exchange format) and
    "channel_dims". Pointers default to the first two basis vectors of each
    channel. Runs the objectivity check on the member grid (pure branches) or
    the incoherent mixture (mixed branches).
    """
    extra = config.extra
    for key in ("x1", "x2", "channel_dims"):
        if key not in extra:
            raise ValidationError(f"custom scenario requires extra[{key!r}]")
    x1 = State(matrix_from_json(extra["x1"]), config.tol)
    x2 = State(matrix_from_json(extra["x2"]), config.tol)
    dims = extra["channel_dims"]
    if not isinstance(dims, (list, tuple)) or not all(
            isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise ValidationError(f"extra['channel_dims'] must be a list of integers, got {dims!r}")
    layout = ChannelLayout(tuple(dims))
    pointers = [(basis_vector(d, 0), basis_vector(d, 1))
                for d in layout.channel_dims]
    model = build_premeasurement(x1, x2, layout, pointers,
                                 pad_remainder=bool(extra.get("pad_remainder", False)),
                                 tol=config.tol)
    readings = {mu: discriminating_reading(model, mu, x1, x2)
                for mu in range(layout.n_channels)}
    spec = SuperpositionSpec(x1, x2, config.w1, config.w2, config.tol)
    members = (_grid_members(spec, config) if spec.branch_vectors is not None
               else [spec.incoherent_mixture()])
    theorem2 = verify_theorem2(model, 0, 1, readings[0], readings[1],
                               spec, members, tol=config.tol)
    return _finalize({
        "pass": theorem2.passed,
        "theorem2": theorem2.to_dict(),
        "members_checked": len(members),
    }, config)


RUNNERS = {
    "fig1a_interference": run_fig1a,
    "fig1b_coincidence": run_fig1b,
    "fig1c_reduction": run_fig1c,
    "stern_gerlach": run_stern_gerlach,
    "custom": run_custom,
}


def run_scenario(config: ScenarioConfig) -> dict:
    return RUNNERS[config.scenario](config)
