"""The names the benchmark in `perfbench/` reaches in objectiva must resolve,
so that a deletion that would break the benchmark fails here first.

`perfbench/tracer.py` is loaded from its file, unchanged; `workloads.py` is
parsed for the `module.name` references it makes."""

import ast
import importlib.util
import json
from pathlib import Path

import numpy as np

from objectiva import basis_vector, cli, measurement, pure_state, scenarios, theorems
from objectiva.measurement import ReadingSet, draw_patterns
from objectiva.scenarios import ScenarioConfig, fig1c_setup, run_stern_gerlach
from objectiva.superposition import (SuperpositionSpec, superposition_family,
                                     superposition_members)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def objectiva_modules(tracer) -> dict:
    return {m.__name__.rsplit(".", 1)[-1]: m for m in tracer.objectiva_modules()}


def test_every_traced_name_resolves():
    tracer = load_tracer()
    modules = objectiva_modules(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.TRACED.items()
               for name in names if not hasattr(modules[layer], name)]
    assert missing == []


def test_every_name_the_workloads_use_resolves():
    modules = objectiva_modules(load_tracer())
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert ("cli", "MUTATIONS") in used
    assert sorted(f"{m}.{a}" for m, a in used if not hasattr(modules[m], a)) == []


def test_fault_seams_resolve():
    # the benchmark's --fault runs rebind these module attributes
    assert callable(scenarios.complement) and callable(theorems.complement)
    assert callable(measurement.joint_outcome_distribution)
    assert isinstance(cli.MUTATIONS, tuple) and len(cli.MUTATIONS) == 3
    spec = SuperpositionSpec(pure_state(basis_vector(2, 0)), pure_state(basis_vector(2, 1)),
                             0.5, 0.5)
    # channel_sweep builds its members one at a time, by position
    assert abs(superposition_family(spec, 1.0, np.pi / 2).purity() - 1.0) < 1e-12


# A seam that resolves but that the run no longer reads would leave the
# benchmark's --fault runs without a defect to catch.

def test_scenarios_complement_seam_fails_the_noise_zero_battery(monkeypatch):
    monkeypatch.setattr(scenarios, "complement", lambda a: a)
    report = run_stern_gerlach(ScenarioConfig("stern_gerlach"))
    assert not report["pass"]
    assert report["theorem2"]["pass"]  # theorem 2 reads `theorems.complement`
    assert report["residuals"]["max_disagreement"] == 1.0


def test_theorems_complement_seam_fails_theorem2(monkeypatch):
    model, readings, x1, x2 = fig1c_setup()
    spec = SuperpositionSpec(x1, x2, 0.5, 0.5)
    members = superposition_members(spec, (0.0, 1.0), (0.0,))
    args = (model, 0, 1, readings[0], readings[1], spec, members)
    assert theorems.verify_theorem2(*args).passed
    monkeypatch.setattr(theorems, "complement", lambda a: a)
    assert not theorems.verify_theorem2(*args).passed


def test_joint_table_seam_is_the_table_draw_patterns_draws_from(monkeypatch):
    model, readings, x1, _ = fig1c_setup()
    leaky = {(1, 1): 0.0, (1, 0): 1.0, (0, 1): 0.0, (0, 0): 0.0}
    monkeypatch.setattr(measurement, "joint_outcome_distribution", lambda *args: dict(leaky))
    patterns, draws = draw_patterns(model, ReadingSet(readings), x1, 50, 0)
    assert [patterns[k] for k in draws] == [(1, 0)] * 50


def test_joint_table_seam_reaches_the_sample_command(monkeypatch, tmp_path, capsys):
    # sample_stream --fault leaks table mass into a disagreeing pattern
    leaky = {(1, 1): 0.0, (1, 0): 1.0, (0, 1): 0.0, (0, 0): 0.0}
    monkeypatch.setattr(measurement, "joint_outcome_distribution", lambda *args: dict(leaky))
    path = tmp_path / "sample.json"
    path.write_text(json.dumps({"scenario": "stern_gerlach", "trials": 50}))
    assert cli.main(["sample", str(path)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["outcomes"] for r in records] == [{"0": 1, "1": 0}] * 50
