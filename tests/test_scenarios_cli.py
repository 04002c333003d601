import contextlib
import io
import json

import numpy as np
import pytest

from objectiva import (DimensionMismatch, DiscriminationError, Effect, ValidationError,
                       cli, matrix_to_json, measurement, random_state, scenarios)
from objectiva.cli import CHUNK, main, verify_all
from objectiva.measurement import ReadingSet, sample_events
from objectiva.scenarios import (
    ScenarioConfig,
    fig1b_arms,
    fig1c_setup,
    run_fig1a,
    run_fig1b,
    run_fig1c,
    run_scenario,
    run_stern_gerlach,
    stern_gerlach_setup,
)
from objectiva.superposition import SuperpositionSpec, superposition_family

CUSTOM_EXTRA = {
    "x1": matrix_to_json(np.diag([1.0, 0.0]).astype(complex)),
    "x2": matrix_to_json(np.diag([0.0, 1.0]).astype(complex)),
    "channel_dims": [2, 2],
}
MALFORMED_CONFIGS = [
    pytest.param({"weights": [0.5]}, id="one-weight"),
    pytest.param({"trials": "x"}, id="string-trials"),
    pytest.param([1], id="top-level-array"),
    pytest.param({"scenario": "stern_gerlach", "seed": -1}, id="negative-seed"),
    pytest.param({"tolerance": -1}, id="negative-tolerance"),
    pytest.param({"w1": "0.5", "w2": 0.5}, id="string-weight"),
    pytest.param({"coherence_grid": 0.5}, id="scalar-grid"),
    pytest.param({"phase_grid": [0.0, "x"]}, id="string-grid-entry"),
    pytest.param({"scenario": "custom",
                  "extra": {**CUSTOM_EXTRA, "x1": {"dim": 2, "re": [[1, "a"], [0, 0]],
                                                   "im": [[0, 0], [0, 0]]}}},
                 id="string-matrix-entry"),
    pytest.param({"scenario": "custom",
                  "extra": {**CUSTOM_EXTRA, "channel_dims": ["a", 2]}},
                 id="string-channel-dim"),
    pytest.param({"scenario": "custom",
                  "extra": {**CUSTOM_EXTRA,
                            "x1": matrix_to_json(np.diag([1.0, 0.0, 0.0]).astype(complex))}},
                 id="branch-dims-differ"),
    pytest.param({"scenario": "custom",
                  "extra": {**CUSTOM_EXTRA, "x1": {"re": [[1, 0], [0, 0]],
                                                   "im": [[0, 0], [0, 0]]}}},
                 id="matrix-without-dim"),
]

# The lines of `verify-all --seed 0` in order: perfbench's verify_battery
# workload counts them as its items, so a change here moves its items_per_s.
VERIFY_ALL_NAMES = [
    "theorem1-random-suite", "theorem1-prime-family", "membership-block-vs-oracle",
    "separability-residual", "realized-effect-routes",
    *(f"fig1a-interference[w1={w1}]" for w1 in (0.0, 0.25, 0.5, 0.75, 1.0)),
    "fig1b-coincidence",
    *(f"{name}[w1={w1}]" for w1 in (0.0, 0.25, 0.5, 0.75, 1.0)
      for name in ("fig1c-reduction", "stern-gerlach")),
    "discrimination-necessity", "verify-all",
]


def config(scenario, **kw):
    return ScenarioConfig(scenario, **kw)


class TestConfig:
    def test_round_trip(self):
        c = config("fig1a_interference", w1=0.25, w2=0.75, seed=3)
        assert ScenarioConfig.from_dict(c.to_dict()) == c

    def test_weights_key(self):
        c = ScenarioConfig.from_dict({"scenario": "fig1c_reduction",
                                      "weights": [0.25, 0.75], "trials": 10})
        assert (c.w1, c.w2) == (0.25, 0.75)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown config keys"):
            ScenarioConfig.from_dict({"scenario": "custom", "bogus": 1})

    def test_bad_weights_rejected(self):
        with pytest.raises(ValidationError):
            config("fig1a_interference", w1=0.7, w2=0.7)

    def test_hash_is_stable(self):
        a = config("fig1a_interference")
        assert a.sha256() == config("fig1a_interference").sha256()


    def test_config_and_spec_share_the_weight_rule(self):
        message = r"^weights \(1.5, -0.5\) outside \[0, 1\]$"
        with pytest.raises(ValidationError, match=message):
            config("fig1a_interference", w1=1.5, w2=-0.5)
        *_, x1, x2 = fig1c_setup()
        with pytest.raises(ValidationError, match=message):
            SuperpositionSpec(x1, x2, 1.5, -0.5)

    def test_each_spelling_alone_is_accepted(self):
        assert ScenarioConfig.from_dict({"tolerance": 1e-9}).tol == 1e-9
        assert ScenarioConfig.from_dict({"tol": 1e-9}).tol == 1e-9
        assert ScenarioConfig.from_dict({"w1": 0.25, "w2": 0.75}).w1 == 0.25

    def test_negative_tolerance_is_named(self):
        with pytest.raises(ValidationError, match="tolerance must be nonnegative"):
            ScenarioConfig.from_dict({"tolerance": -1})


class TestFig1a:
    def test_full_coherence_fringe(self):
        report = run_fig1a(config("fig1a_interference"))
        assert report["pass"]
        row = next(r for r in report["fringe"] if r["coherence"] == 1.0)
        for p, ph in zip(row["probabilities"], config("fig1a_interference").phase_grid):
            assert p == pytest.approx((1 + np.cos(ph)) / 2, abs=1e-12)

    def test_incoherent_row_is_flat(self):
        report = run_fig1a(config("fig1a_interference"))
        row = next(r for r in report["fringe"] if r["coherence"] == 0.0)
        assert all(p == pytest.approx(0.5, abs=1e-12) for p in row["probabilities"])

    def test_visibility_equals_coherence_at_half_weights(self):
        report = run_fig1a(config("fig1a_interference"))
        for row in report["fringe"]:
            assert row["visibility"] == pytest.approx(row["coherence"], abs=1e-12)


class TestFig1b:
    def test_coincidence_is_zero_everywhere(self):
        report = run_fig1b(config("fig1b_coincidence"))
        assert report["pass"]
        assert report["preconditions"]["satisfied"]
        assert report["residuals"]["max_coincidence_probability"] <= 1e-10

    def test_basis_state_preconditions(self):
        report = run_fig1b(config("fig1b_coincidence", w1=1.0, w2=0.0))
        assert report["preconditions"]["arm1_expectation"] == pytest.approx(0.0)
        assert report["preconditions"]["arm2_expectation"] == pytest.approx(0.0)

    def test_mutated_effect_flags_precondition(self, monkeypatch):
        phi1, phi2, a_cc = fig1b_arms()
        leaky = Effect(a_cc.matrix + 0.05 * np.outer(phi1, phi1.conj()))
        monkeypatch.setattr(scenarios, "fig1b_arms", lambda: (phi1, phi2, leaky))
        report = run_fig1b(config("fig1b_coincidence"))
        assert not report["pass"]
        assert not report["preconditions"]["satisfied"]
        assert report["preconditions"]["arm1_expectation"] == pytest.approx(0.05)


class TestFig1c:
    @pytest.mark.parametrize("w1", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_reduction_claim(self, w1):
        report = run_fig1c(config("fig1c_reduction", w1=w1, w2=1 - w1, trials=0))
        assert report["pass"]
        assert report["residuals"]["max_disagreement"] <= 1e-10
        assert report["residuals"]["max_both_fire_deviation"] <= 1e-10

    def test_noise_breaks_anticoincidence(self):
        report = run_fig1c(config("fig1c_reduction", detector_noise=0.05, trials=0))
        assert report["pass"]  # with noise the pass criterion is oracle agreement
        assert report["residuals"]["max_disagreement"] > 1e-6
        assert report["residuals"]["oracle_mismatch"] <= 1e-10


class TestSternGerlach:
    def test_equal_weight_battery(self):
        report = run_stern_gerlach(config("stern_gerlach", trials=10_000))
        assert report["pass"]
        assert report["theorem2"]["pass"]
        assert report["sampling"]["disagreements"] == 0
        freq = report["sampling"]["channel1_frequency"]
        assert abs(freq - 0.5) <= 3 * report["sampling"]["binomial_sigma"]

    def test_spin_up_eigenstate_fires_certainly(self):
        report = run_stern_gerlach(config("stern_gerlach", w1=1.0, w2=0.0, trials=500))
        assert report["pass"]
        assert report["sampling"]["channel1_frequency"] == 1.0


class TestCustomScenario:
    def test_runs_from_matrices(self):
        extra = {
            "x1": matrix_to_json(np.diag([1.0, 0.0, 0.0]).astype(complex)),
            "x2": matrix_to_json(np.diag([0.0, 0.5, 0.5]).astype(complex)),
            "channel_dims": [2, 2],
        }
        report = run_scenario(config("custom", w1=0.3, w2=0.7, extra=extra))
        assert report["pass"]
        # mixed second branch: only the incoherent mixture is checked
        assert report["members_checked"] == 1


    def test_sampled_counts_match_the_event_records(self):
        cfg = config("stern_gerlach", w1=0.3, w2=0.7, trials=3000, seed=5)
        sampling = run_stern_gerlach(cfg)["sampling"]
        model, readings, up, down = stern_gerlach_setup()
        member = superposition_family(SuperpositionSpec(up, down, 0.3, 0.7), 0.0)
        records = sample_events(model, ReadingSet(readings), member, 3000, 5)
        outcomes = [(r["outcomes"][0], r["outcomes"][1]) for r in records]
        assert sampling["disagreements"] == sum(a != b for a, b in outcomes)
        assert sampling["channel1_frequency"] == sum(a for a, _ in outcomes) / 3000


class TestDeterminism:
    def test_reports_are_byte_identical(self):
        a = json.dumps(run_fig1c(config("fig1c_reduction", trials=0)), sort_keys=True)
        b = json.dumps(run_fig1c(config("fig1c_reduction", trials=0)), sort_keys=True)
        assert a == b

    def test_sampling_report_deterministic_per_seed(self):
        kw = dict(trials=2000, seed=11)
        a = run_stern_gerlach(config("stern_gerlach", **kw))
        b = run_stern_gerlach(config("stern_gerlach", **kw))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestCli:
    def write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_run_scenario_exit_zero(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"scenario": "fig1a_interference"})
        assert main(["run", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] and report["version"]

    def test_run_writes_report_file(self, tmp_path):
        path = self.write_config(tmp_path, {"scenario": "fig1b_coincidence"})
        out = tmp_path / "report.json"
        assert main(["run", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["scenario"] == "fig1b_coincidence"

    def test_run_text_format(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"scenario": "fig1a_interference"})
        assert main(["run", path, "--format", "text"]) == 0
        assert "pass: True" in capsys.readouterr().out

    def test_text_report_prints_a_null_residual(self, tmp_path, capsys, monkeypatch):
        # a leaky coincidence effect fails theorem 1' preconditions, which
        # leaves max_coincidence_probability null
        phi1, phi2, a_cc = fig1b_arms()
        leaky = Effect(a_cc.matrix + 0.05 * np.outer(phi1, phi1.conj()))
        monkeypatch.setattr(scenarios, "fig1b_arms", lambda: (phi1, phi2, leaky))
        path = self.write_config(tmp_path, {"scenario": "fig1b_coincidence"})
        assert main(["run", path, "--format", "text"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "residual max_coincidence_probability: null" in lines

    @pytest.mark.parametrize("extra,members", [
        pytest.param(CUSTOM_EXTRA, 40, id="pure"),
        pytest.param({"x1": matrix_to_json(np.diag([1.0, 0.0, 0.0]).astype(complex)),
                      "x2": matrix_to_json(np.diag([0.0, 0.5, 0.5]).astype(complex)),
                      "channel_dims": [2, 2]}, 1, id="mixed"),
    ])
    def test_text_report_prints_nested_residuals(self, tmp_path, capsys, extra, members):
        path = self.write_config(tmp_path, {"scenario": "custom", "extra": extra})
        assert main(["run", path, "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["scenario: custom", "pass: True", f"members_checked: {members}"]
        assert [line.split(": ")[0] for line in lines[3:]] == [
            "residual theorem2.max_disagreement", "residual theorem2.max_firing_deviation"]

    def test_text_report_keeps_the_top_level_lines(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"scenario": "stern_gerlach", "w1": 0.3,
                                            "w2": 0.7, "trials": 100})
        assert main(["run", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert main(["run", path, "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        top = [f"residual {k}: {v:.3e}" for k, v in sorted(report["residuals"].items())]
        nested = [f"residual theorem2.{k}: {v:.3e}"
                  for k, v in sorted(report["theorem2"]["residuals"].items())]
        assert lines == ["scenario: stern_gerlach", "pass: True", *top, *nested]

    @pytest.mark.parametrize("payload,keys", [
        pytest.param({"weights": [0.3, 0.7], "w1": 0.6, "w2": 0.4}, ("weights", "w1"),
                     id="weights-then-w1"),
        pytest.param({"w1": 0.6, "w2": 0.4, "weights": [0.3, 0.7]}, ("weights", "w1"),
                     id="w1-then-weights"),
        pytest.param({"w2": 0.4, "weights": [0.3, 0.7]}, ("weights", "w2"),
                     id="w2-then-weights"),
        pytest.param({"tolerance": 1e-9, "tol": 1e-8}, ("tolerance", "tol"),
                     id="tolerance-then-tol"),
        pytest.param({"tol": 1e-8, "tolerance": 1e-9}, ("tolerance", "tol"),
                     id="tol-then-tolerance"),
    ])
    def test_one_value_under_two_spellings_exits_two(self, tmp_path, capsys, payload, keys):
        path = self.write_config(tmp_path, {"scenario": "fig1a_interference", **payload})
        assert main(["run", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(repr(key) in err for key in keys)

    def test_sample_has_no_format_option(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"scenario": "stern_gerlach", "trials": 5})
        with pytest.raises(SystemExit) as exc:
            main(["sample", path, "--format", "text"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_key_error_inside_a_run_is_not_an_input_error(self, tmp_path, monkeypatch):
        def defect(config):
            raise KeyError("defect")

        monkeypatch.setattr(cli, "run_scenario", defect)
        path = self.write_config(tmp_path, {"scenario": "fig1a_interference"})
        with pytest.raises(KeyError, match="defect"):
            main(["run", path])

    def test_failed_run_exits_one_with_report(self, tmp_path, capsys):
        # at tolerance 0 the fringe's rounding error fails the closed-form check
        path = self.write_config(tmp_path, {"scenario": "fig1a_interference",
                                            "weights": [0.0, 1.0], "tolerance": 0.0})
        assert main(["run", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False

    def test_unreadable_config_exits_two(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 2

    def test_invalid_config_exits_two(self, tmp_path):
        path = self.write_config(tmp_path, {"scenario": "no_such"})
        assert main(["run", path]) == 2

    @pytest.mark.parametrize("payload", MALFORMED_CONFIGS)
    def test_malformed_config_exits_two_with_one_line(self, tmp_path, capsys, payload):
        path = self.write_config(tmp_path, payload)
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_sample_emits_json_lines(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"scenario": "stern_gerlach", "trials": 20})
        assert main(["sample", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 20
        record = json.loads(lines[0])
        assert set(record) == {"trial", "outcomes"}
        assert set(record["outcomes"]) == {"0", "1"}

    def test_validate_state_file(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(matrix_to_json(random_state(3, 0).matrix)))
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "state: valid" in out

    def test_validate_rejects_bad_operator(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(matrix_to_json(2.0 * np.eye(2))))
        assert main(["validate", str(path)]) == 1

    @pytest.mark.parametrize("argv", [
        pytest.param(["validate", "MATRIX", "--tolerance", "nan"], id="validate-nan"),
        pytest.param(["validate", "MATRIX", "--tolerance", "inf"], id="validate-inf"),
        pytest.param(["validate", "MATRIX", "--tolerance", "-1"], id="validate-negative"),
        pytest.param(["validate", "MATRIX", "--tolerance", "1"], id="validate-one"),
        pytest.param(["run", "CFG", "--tolerance", "1"], id="run-one"),
        pytest.param(["verify-all", "--seed", "-1"], id="verify-all-negative-seed"),
    ])
    def test_bad_tolerance_or_seed_exits_two_with_one_line(self, tmp_path, capsys, argv):
        paths = {"MATRIX": tmp_path / "m.json", "CFG": tmp_path / "c.json"}
        paths["MATRIX"].write_text(json.dumps(matrix_to_json(np.diag([2.0, 3.0]))))
        paths["CFG"].write_text(json.dumps({"scenario": "fig1a_interference"}))
        assert main([str(paths[a]) if a in paths else a for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_verify_all_exit_codes(self):
        assert main(["verify-all"]) == 0

    @pytest.mark.parametrize("hook", ["broken-psd-projection",
                                      "non-orthogonal-pointers",
                                      "skipped-complement"])
    def test_mutation_hooks_flip_exit_code(self, hook):
        assert main(["verify-all", "--mutate", hook]) == 1

    def test_skipped_complement_restores_the_binding(self):
        entry = scenarios.complement
        assert not verify_all(0, "skipped-complement", stream=io.StringIO())
        assert scenarios.complement is entry
        assert verify_all(0, stream=io.StringIO())

    def test_skipped_complement_restores_the_binding_on_error(self, monkeypatch):
        entry = scenarios.complement

        def boom(seed, mutation):
            raise RuntimeError("scenario battery crashed")

        monkeypatch.setattr(cli, "_check_scenarios", boom)
        with pytest.raises(RuntimeError, match="crashed"):
            verify_all(0, "skipped-complement", stream=io.StringIO())
        assert scenarios.complement is entry

    def test_overrides_keep_the_config_hash(self, tmp_path, capsys):
        payload = {"scenario": "fig1c_reduction", "trials": 0, "seed": 4}
        path = self.write_config(tmp_path, payload)
        assert main(["run", path, "--seed", "9", "--tolerance", "1e-9"]) == 0
        report = json.loads(capsys.readouterr().out)
        expected = ScenarioConfig.from_dict({**payload, "seed": 9, "tolerance": 1e-9})
        assert report["config_sha256"] == expected.sha256()

    def test_negative_seed_override_exits_two(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"scenario": "fig1a_interference"})
        assert main(["run", path, "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be")

    def test_verify_all_prints_per_check_lines(self):
        buf = io.StringIO()
        assert verify_all(0, stream=buf)
        lines = buf.getvalue().splitlines()
        assert all(line.startswith(("PASS", "FAIL")) for line in lines)
        assert any("theorem1-random-suite" in line for line in lines)

    @pytest.mark.parametrize("hook", [None, *cli.MUTATIONS])
    def test_verify_all_check_names_are_pinned(self, hook):
        buf = io.StringIO()
        verify_all(0, hook, stream=buf)
        names = [line.split("  ")[1] for line in buf.getvalue().splitlines()]
        expected = list(VERIFY_ALL_NAMES)
        if hook == "non-orthogonal-pointers":
            expected.insert(expected.index("fig1c-reduction[w1=0.0]"),
                            "fig1c-reduction[mutated-pointers]")
        assert names == expected
        assert len(names) == (24 if hook == "non-orthogonal-pointers" else 23)

    def test_bad_input_errors_are_validation_errors(self):
        assert issubclass(DimensionMismatch, ValidationError)
        assert issubclass(DiscriminationError, ValidationError)

    def test_a_check_raising_dimension_mismatch_is_a_fail_line(self, monkeypatch, capsys):
        def mismatched(seed):
            raise DimensionMismatch("state dim 3 != object dim 2")

        monkeypatch.setattr(cli, "_check_separability", mismatched)
        buf = io.StringIO()
        assert not verify_all(0, stream=buf)
        assert ("FAIL  separability-residual  (error: state dim 3 != object dim 2)"
                in buf.getvalue().splitlines())
        assert main(["verify-all"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL  verify-all"

    def test_verify_all_follows_redirected_stdout(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["verify-all"]) == 0
        lines = buf.getvalue().splitlines()
        assert lines[-1] == "PASS  verify-all"
        assert any("theorem1-random-suite" in line for line in lines)


class TestSampleStream:
    """`sample` writes, CHUNK trials at a time, exactly the bytes of the
    record list `sample_events` describes."""

    SETUPS = {"stern_gerlach": stern_gerlach_setup, "fig1c_reduction": fig1c_setup}

    def write_config(self, tmp_path, scenario, trials):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": scenario, "weights": [0.3, 0.7],
                                    "trials": trials}))
        return str(path)

    def record_lines(self, path, seed):
        with open(path) as fh:
            cfg = ScenarioConfig.from_dict(json.load(fh))
        model, readings, x1, x2 = self.SETUPS[cfg.scenario](cfg.tol)
        member = superposition_family(SuperpositionSpec(x1, x2, cfg.w1, cfg.w2, cfg.tol),
                                      cfg.coherence_grid[-1], cfg.phase_grid[0])
        records = sample_events(model, ReadingSet(readings), member, cfg.trials, seed)
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)

    @pytest.mark.parametrize("trials", [0, 1, CHUNK - 1, CHUNK, 2 * CHUNK + 3])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("scenario", ["stern_gerlach", "fig1c_reduction"])
    def test_output_is_the_record_list_bytes(self, tmp_path, capsys, scenario, seed, trials):
        path = self.write_config(tmp_path, scenario, trials)
        assert main(["sample", path, "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert out == self.record_lines(path, seed)
        target = tmp_path / "events.jsonl"
        assert main(["sample", path, "--seed", str(seed), "--out", str(target)]) == 0
        assert target.read_bytes() == out.encode()

    def test_no_write_holds_more_than_one_chunk(self, tmp_path):
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        path = self.write_config(tmp_path, "stern_gerlach", 2 * CHUNK + 3)
        recorder = Recorder()
        with contextlib.redirect_stdout(recorder):
            assert main(["sample", path, "--seed", "5"]) == 0
        assert max(w.count("\n") for w in recorder.writes) <= CHUNK
        assert "".join(recorder.writes) == self.record_lines(path, 5)

    def test_rejected_scenario_leaves_the_out_file_alone(self, tmp_path):
        path = self.write_config(tmp_path, "fig1b_coincidence", 10)
        target = tmp_path / "events.jsonl"
        target.write_bytes(b"earlier output\n")
        assert main(["sample", path, "--out", str(target)]) == 2
        assert target.read_bytes() == b"earlier output\n"

    def test_failing_draw_leaves_the_out_file_alone(self, tmp_path, monkeypatch):
        def bad_table(*args):
            raise ValidationError("outcome table sums to 0.5, expected 1")

        monkeypatch.setattr(measurement, "joint_outcome_distribution", bad_table)
        path = self.write_config(tmp_path, "stern_gerlach", 10)
        target = tmp_path / "events.jsonl"
        target.write_bytes(b"earlier output\n")
        assert main(["sample", path, "--out", str(target)]) == 2
        assert target.read_bytes() == b"earlier output\n"
