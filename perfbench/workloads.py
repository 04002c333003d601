"""The four benchmark workloads.

Each workload builds its inputs from the run seed and an operation index,
runs one operation through objectiva's public functions only, and checks the
operation's output. `op` returns what `check` needs; `check` returns
(ok, units, detail), where units are the workload's items verified.

Sizes come in two profiles: "full" (the benchmark) and "tiny" (the smoke
test in selftest.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

# objectiva functions are called through their modules, so that the traced
# run's patched bindings see the calls made from here
from objectiva import (cli, discrimination, linalg, measurement, scenarios,
                       superposition, theorems)

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
TOL = 1e-10
REFERENCE_TOL = 1e-12
SIGMA_GATE = 5.0  # the benchmark's own sampling check
PROGRAM_SIGMA_GATE = 3.0  # the gate stern_gerlach applies to its own pass flag

SIZES = {
    "full": {
        "sg_grid": (51, 64), "sg_trials": 100_000, "fig1c_grid": (26, 32),
        "channels": range(2, 9), "sample_trials": 200_000,
    },
    "tiny": {
        "sg_grid": (6, 8), "sg_trials": 2_000, "fig1c_grid": (3, 4),
        "channels": range(2, 4), "sample_trials": 2_000,
    },
}


# operation indices reserved for inputs drawn outside the timed loop
SETUP_INDEX = 2**32
WARMUP_INDEX = 2**32 + 1


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _grid(n_coherence: int, n_phase: int) -> tuple:
    return (tuple(float(c) for c in np.linspace(0.0, 1.0, n_coherence)),
            tuple(2.0 * math.pi * k / n_phase for k in range(n_phase)))


class VerifyBattery:
    """One `cli.verify_all`; every fourth operation runs a mutation hook."""

    unit = "check-lines"
    # verify_all samples 2000 trials of stern_gerlach at w1 = 0.5 and fails
    # this line when the draw leaves 3 sigma (about 0.3% of seeds)
    SAMPLED_CHECK = "stern-gerlach[w1=0.5]"
    SAMPLED_TRIALS = 2000

    def __init__(self, seed: int, profile: str, workdir: Path):
        self.seed = seed
        self.faulty = False

    @staticmethod
    def mutation(index: int):
        if index % 4 == 3:
            return cli.MUTATIONS[(index // 4) % len(cli.MUTATIONS)]
        return None

    def inject_fault(self) -> None:
        """Run a mutation hook where a clean verdict is expected."""
        self.faulty = True

    def op(self, index: int):
        mutation = self.mutation(index)
        hook = cli.MUTATIONS[index % len(cli.MUTATIONS)] if self.faulty else mutation
        seed = int(op_rng(self.seed, index).integers(2**31))
        buf = io.StringIO()
        ok = cli.verify_all(seed, hook, stream=buf)
        return mutation, seed, ok, buf.getvalue()

    def check(self, out):
        mutation, seed, ok, text = out
        lines = text.splitlines()
        failing = [line.split()[1] for line in lines if line.startswith("FAIL")]
        if mutation is not None:
            good = ok is False and bool(failing)
            return good, len(lines), "" if good else f"mutation {mutation} must fail"
        good = ok is True and bool(lines) and not failing
        if failing == [self.SAMPLED_CHECK, "verify-all"] and ok is False:
            good = self.sampling_false_alarm(seed)
        return good, len(lines), "" if good else f"clean run failed {failing}"

    def sampling_false_alarm(self, seed: int) -> bool:
        """True when the sampled check's failure is the verdict its 3 sigma
        gate must give for this seed's draw: rerun it and check the report."""
        config = scenarios.ScenarioConfig("stern_gerlach", w1=0.5, w2=0.5, seed=seed,
                                          trials=self.SAMPLED_TRIALS)
        report = scenarios.run_scenario(config)
        expected = report["pass"] is False and not _check_stern_gerlach(config, report)
        if expected:
            print(f"seed {seed}: {self.SAMPLED_CHECK} fails as its 3 sigma gate requires")
        return expected


def dense_configs(sizes: dict, seed: int, index: int) -> dict:
    """The two scenario configs of one dense_grid operation."""
    rng = op_rng(seed, index)
    w1 = float(rng.uniform(0.1, 0.9))
    sg_coherence, sg_phase = _grid(*sizes["sg_grid"])
    f_coherence, f_phase = _grid(*sizes["fig1c_grid"])
    return {
        "stern_gerlach": scenarios.ScenarioConfig(
            "stern_gerlach", w1=w1, w2=1.0 - w1, coherence_grid=sg_coherence,
            phase_grid=sg_phase, trials=sizes["sg_trials"],
            seed=int(rng.integers(2**31))),
        "fig1c_reduction": scenarios.ScenarioConfig(
            "fig1c_reduction", w1=w1, w2=1.0 - w1, coherence_grid=f_coherence,
            phase_grid=f_phase, detector_noise=0.05,
            seed=int(rng.integers(2**31))),
    }


def run_configs(configs: dict) -> dict:
    return {name: scenarios.run_scenario(cfg) for name, cfg in configs.items()}


class DenseGrid:
    """stern_gerlach on a dense member grid plus noisy fig1c_reduction."""

    unit = "members"

    def __init__(self, seed: int, profile: str, workdir: Path):
        self.seed = seed
        self.sizes = SIZES[profile]
        self.reference = json.loads(REFERENCE.read_text())[profile]

    def inject_fault(self) -> None:
        """The scenario battery skips the complement (disagreement is read
        with the raw reading), as the skipped-complement hook does."""
        scenarios.complement = lambda a: a

    def op(self, index: int):
        configs = dense_configs(self.sizes, self.seed, index)
        return configs, run_configs(configs)

    def check(self, out):
        configs, reports = out
        problems = _check_stern_gerlach(configs["stern_gerlach"], reports["stern_gerlach"])
        problems += _check_noisy_fig1c(reports["fig1c_reduction"])
        members = sum(len(c.coherence_grid) * len(c.phase_grid) for c in configs.values())
        return not problems, members, "; ".join(problems)

    def reference_check(self) -> list:
        """Seed-0 configs: reports match the recorded reference within 1e-12,
        and two runs of the same config give identical report bytes."""
        configs = dense_configs(self.sizes, 0, 0)
        first = run_configs(configs)
        second = run_configs(configs)
        problems = []
        for name in configs:
            if report_bytes(first[name]) != report_bytes(second[name]):
                problems.append(f"{name}: report bytes differ between two runs")
            problems += [f"{name}: {p}" for p in
                         compare_reference(first[name], self.reference[name])]
        return problems


def report_bytes(report: dict) -> bytes:
    """The bytes `objectiva run --format json` writes for a report."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def compare_reference(value, expected, path: str = "") -> list:
    """Differences between a report and its reference: keys must match,
    numbers within REFERENCE_TOL, everything else exactly."""
    if isinstance(expected, dict):
        if not isinstance(value, dict) or set(value) != set(expected):
            return [f"{path or 'report'} keys differ"]
        return [p for k in expected
                for p in compare_reference(value[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(value, (list, tuple)) or len(value) != len(expected):
            return [f"{path} length differs"]
        return [p for i, (v, e) in enumerate(zip(value, expected))
                for p in compare_reference(v, e, f"{path}[{i}]")]
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        return [] if value == expected else [f"{path} is {value!r}, expected {expected!r}"]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return [f"{path} is {value!r}, expected a number"]
    return [] if abs(value - expected) <= REFERENCE_TOL else [
        f"{path} is {value!r}, expected {expected!r}"]


def _check_stern_gerlach(config, report) -> list:
    problems = []
    for key in ("max_disagreement", "max_both_fire_deviation"):
        if not report["residuals"][key] <= TOL:
            problems.append(f"stern_gerlach residual {key} above tolerance")
    theorem2 = report["theorem2"]
    if theorem2["pass"] is not True or any(
            not v <= TOL for v in theorem2["residuals"].values()):
        problems.append("stern_gerlach theorem2 failed")
    if theorem2["witnesses"]["members_checked"] != (
            len(config.coherence_grid) * len(config.phase_grid)):
        problems.append("stern_gerlach checked the wrong member count")
    sampling = report["sampling"]
    sigma = math.sqrt(config.w1 * config.w2 / config.trials)
    z = abs(sampling["channel1_frequency"] - config.w1) / sigma
    if sampling["disagreements"] != 0:
        problems.append("stern_gerlach sampled disagreeing records")
    if not z <= SIGMA_GATE:
        problems.append(f"stern_gerlach sampled frequency {z:.1f} sigma off")
    # the program fails its own report beyond 3 sigma; that is the expected
    # verdict for such a draw, not a fault
    expected_pass = not problems and z <= PROGRAM_SIGMA_GATE
    if report["pass"] is not expected_pass:
        problems.append(f"stern_gerlach pass is {report['pass']}, expected {expected_pass}")
    return problems


def _check_noisy_fig1c(report) -> list:
    residuals = report["residuals"]
    problems = []
    if report["pass"] is not True:
        problems.append("noisy fig1c_reduction did not pass")
    if not residuals["oracle_mismatch"] <= TOL:
        problems.append("noisy fig1c_reduction oracle mismatch above tolerance")
    if not residuals["max_disagreement"] > TOL:
        problems.append("noisy fig1c_reduction shows no disagreement")
    return problems


class ChannelSweep:
    """Premeasurement, readings, theorem 2 and the joint table for n channels."""

    unit = "channels"

    def __init__(self, seed: int, profile: str, workdir: Path):
        self.seed = seed
        self.x1 = linalg.pure_state(linalg.basis_vector(2, 0))
        self.x2 = linalg.pure_state(linalg.basis_vector(2, 1))
        # fire/idle pointers: branch 1 sets every channel to |1>, branch 2 leaves |0>
        fire_idle = (linalg.basis_vector(2, 1), linalg.basis_vector(2, 0))
        self.setups = [(n, measurement.ChannelLayout((2,) * n), [fire_idle] * n)
                       for n in SIZES[profile]["channels"]]

    def inject_fault(self) -> None:
        """theorem 2 reads disagreement with the raw reading, not its complement."""
        theorems.complement = lambda a: a

    def op(self, index: int):
        rng = op_rng(self.seed, index)
        w1 = float(rng.uniform(0.1, 0.9))
        spec = superposition.SuperpositionSpec(self.x1, self.x2, w1, 1.0 - w1)
        members = [superposition.superposition_family(
                       spec, c, float(rng.uniform(0, 2 * math.pi)))
                   for c in (0.0, float(rng.uniform(0.1, 0.9)),
                             float(rng.uniform(0.1, 0.9)), 1.0)]
        results = []
        for n, layout, pointers in self.setups:
            start = time.perf_counter()
            model = measurement.build_premeasurement(self.x1, self.x2, layout, pointers)
            readings = [measurement.discriminating_reading(model, mu, self.x1, self.x2)
                        for mu in range(n)]
            theorem2 = theorems.verify_theorem2(model, 0, n - 1, readings[0], readings[-1],
                                                spec, members)
            table = measurement.joint_outcome_distribution(
                model, measurement.ReadingSet(dict(enumerate(readings))), members[-1])
            results.append((n, model, readings, theorem2, table,
                            time.perf_counter() - start))
        return spec, results

    def check(self, out):
        spec, results = out
        problems = []
        for n, model, readings, theorem2, table, _ in results:
            for mu, reading in enumerate(readings):
                effect = measurement.realized_effect(model, measurement.ReadingSet({mu: reading}))
                if not discrimination.discriminates(effect, self.x1, self.x2):
                    problems.append(f"n={n}: reading {mu} does not discriminate")
            if not theorem2.passed:
                problems.append(f"n={n}: theorem2 failed")
            expected = {(1,) * n: spec.w1, (0,) * n: spec.w2}
            if len(table) != 2**n or any(
                    not abs(p - expected.get(bits, 0.0)) <= TOL for bits, p in table.items()):
                problems.append(f"n={n}: joint table is wrong")
        return not problems, sum(r[0] for r in results), "; ".join(problems)

    @staticmethod
    def per_n_seconds(out) -> dict:
        return {n: seconds for n, *_, seconds in out[1]}


class SampleStream:
    """One in-process `objectiva sample` of a coherent stern_gerlach member."""

    unit = "trials"

    def __init__(self, seed: int, profile: str, workdir: Path):
        self.seed = seed
        self.w1 = float(op_rng(seed, SETUP_INDEX).uniform(0.1, 0.9))
        self.trials = SIZES[profile]["sample_trials"]
        self.config = workdir / f"sample-{seed}.json"
        # the default coherence grid ends at 1.0, so the sampled member is coherent
        self.config.write_text(json.dumps({
            "scenario": "stern_gerlach", "weights": [self.w1, 1.0 - self.w1],
            "trials": self.trials}))

    def inject_fault(self) -> None:
        """The sampled joint table leaks 1% of the all-fire mass into a
        disagreeing pattern; it still sums to one."""
        exact = measurement.joint_outcome_distribution

        def leaky(*args, **kwargs):
            table = exact(*args, **kwargs)
            ones = max(table)
            leak = 0.01 * table[ones]
            table[ones] -= leak
            table[(1,) + ones[1:-1] + (0,)] += leak
            return table

        measurement.joint_outcome_distribution = leaky

    def op(self, index: int):
        out, err = io.StringIO(), io.StringIO()
        args = ["sample", str(self.config),
                "--seed", str(int(op_rng(self.seed, index).integers(2**31)))]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
        return code, out.getvalue(), err.getvalue()

    def check(self, out):
        code, text, err = out
        if code != 0:
            return False, 0, f"exit code {code}: {err.strip()}"
        # decode record by record from the buffer, so the check holds no
        # second copy of the output and adds little to peak RSS
        decode = json.JSONDecoder().raw_decode
        fired = disagree = records = 0
        pos = 0
        while pos < len(text):
            record, pos = decode(text, pos)
            if text[pos:pos + 1] != "\n":
                return False, 0, f"record {records} is not one JSON line"
            pos += 1
            a, b = record["outcomes"]["0"], record["outcomes"]["1"]
            fired += a
            disagree += a != b
            if record["trial"] != records:
                return False, 0, f"record {records} out of order"
            records += 1
        sigma = math.sqrt(self.w1 * (1.0 - self.w1) / self.trials)
        problems = []
        if records != self.trials:
            problems.append(f"{records} records for {self.trials} trials")
        if disagree:
            problems.append(f"{disagree} disagreeing records")
        if not abs(fired / max(records, 1) - self.w1) <= SIGMA_GATE * sigma:
            problems.append("channel frequency off by more than 5 sigma")
        return not problems, records, "; ".join(problems)


WORKLOADS = {
    "verify_battery": VerifyBattery,
    "dense_grid": DenseGrid,
    "channel_sweep": ChannelSweep,
    "sample_stream": SampleStream,
}
