"""Property test of the `objectiva run` input contract.

Each example is a well-formed config for one scenario with up to three of
its values damaged: replaced by a wrong type, a non-finite or out-of-range
number, a malformed or mismatched matrix, or bad `channel_dims`, or deleted;
sometimes the whole file is not a JSON object. Whatever the file holds, the
run exits 0 (pass), 1 (verification failed) or 2 (bad input), and a
bad-input run writes exactly one `error:` line and no traceback. Sizes are
bounded so that no example can exhaust memory: trials <= 2,000, grids <= 4
entries, matrix dim <= 3, <= 3 channels of dim <= 4.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from objectiva.cli import main
from objectiva.scenarios import SCENARIOS

NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), NON_FINITE,
                 st.just([]), st.just({}), st.just([1, 2]))
UNIT = st.floats(0.0, 1.0)
NUMBER = st.one_of(UNIT, st.floats(-10.0, 10.0), st.integers(-3, 3), JUNK)
BAD_GRID = st.one_of(st.lists(NUMBER, max_size=4), NUMBER)

GOOD = {
    "coherence_grid": st.lists(UNIT, min_size=1, max_size=4),
    "phase_grid": st.lists(st.floats(0.0, 7.0), min_size=1, max_size=4),
    "detector_noise": st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    "trials": st.integers(0, 2000),
    "seed": st.integers(0, 2**40),
    "tolerance": st.one_of(st.just(1e-10), st.floats(0.0, 1e-6), UNIT),
    "tol": st.floats(0.0, 1e-6),
}
BAD = {
    "scenario": st.one_of(JUNK, st.just("fig2")),
    "weights": st.one_of(st.lists(NUMBER, max_size=3), NUMBER),
    "w1": NUMBER,
    "w2": NUMBER,
    "coherence_grid": BAD_GRID,
    "phase_grid": BAD_GRID,
    "detector_noise": NUMBER,
    "trials": NUMBER,
    "seed": st.one_of(NUMBER, st.integers(-5, -1)),
    "tolerance": NUMBER,
    "tol": NUMBER,
    "extra": JUNK,
    "bogus": NUMBER,
}


@st.composite
def state_payload(draw, dim, support):
    """A diagonal density matrix of size `dim` supported on `support`,
    in the matrix exchange format."""
    mass = draw(st.lists(st.floats(0.1, 1.0), min_size=len(support),
                         max_size=len(support)))
    diag = [0.0] * dim
    for index, m in zip(support, mass):
        diag[index] = m / sum(mass)
    re = [[diag[i] if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    return {"dim": dim, "re": re, "im": [[0.0] * dim for _ in range(dim)]}


@st.composite
def bad_matrix(draw):
    """A state payload with one field deleted or damaged, a state of
    another dim, or not a payload at all."""
    dim = draw(st.integers(1, 3))
    payload = draw(state_payload(dim, [0]))
    key = draw(st.sampled_from(["dim", "re", "im"]))
    if draw(st.booleans()):
        del payload[key]
    else:
        payload[key] = draw(st.one_of(
            NUMBER, st.just([[0.0]]), st.just([[1.0, 0.0]]),
            st.lists(st.lists(NUMBER, min_size=dim, max_size=dim),
                     min_size=dim, max_size=dim)))
    return draw(st.one_of(st.just(payload), JUNK))


@st.composite
def custom_extra(draw):
    """Orthogonal diagonal branches of one dim (2 or 3) and 2 or 3 channels."""
    dim = draw(st.integers(2, 3))
    cut = draw(st.integers(1, dim - 1))
    extra = {
        "x1": draw(state_payload(dim, list(range(cut)))),
        "x2": draw(state_payload(dim, list(range(cut, dim)))),
        "channel_dims": draw(st.lists(st.integers(2, 4), min_size=2, max_size=3)),
    }
    if draw(st.booleans()):
        extra["pad_remainder"] = draw(st.booleans())
    return extra


EXTRA_BAD = {
    "x1": bad_matrix(),
    "x2": st.one_of(bad_matrix(), st.integers(1, 3).flatmap(
        lambda dim: state_payload(dim, [dim - 1]))),
    "channel_dims": st.one_of(
        st.lists(st.one_of(st.integers(-1, 4), NUMBER), max_size=3), NUMBER),
    "pad_remainder": JUNK,
}


@st.composite
def config_payload(draw, scenario):
    w1 = draw(UNIT)
    obj = {"scenario": scenario}
    spelling = draw(st.sampled_from(["weights", "w1 w2", "default"]))
    if spelling == "weights":
        obj["weights"] = [w1, 1.0 - w1]
    elif spelling == "w1 w2":
        obj.update(w1=w1, w2=1.0 - w1)
    keys = draw(st.lists(st.sampled_from(sorted(GOOD)), unique=True))
    if "tolerance" in keys and "tol" in keys:
        # one value under both spellings exits 2 before any run; BAD still draws it
        keys.remove(draw(st.sampled_from(["tolerance", "tol"])))
    for key in keys:
        obj[key] = draw(GOOD[key])
    if scenario == "custom":
        obj["extra"] = draw(custom_extra())
    targets = sorted(BAD) + (sorted(f"extra.{k}" for k in EXTRA_BAD)
                             if scenario == "custom" else [])
    for target in draw(st.lists(st.sampled_from(targets), unique=True, max_size=3)):
        holder, key, bad = obj, target, BAD.get(target)
        if target.startswith("extra."):
            holder, key = obj.get("extra"), target[len("extra."):]
            bad = EXTRA_BAD[key]
        if isinstance(holder, dict):
            if draw(st.integers(0, 3)) == 3:
                holder.pop(key, None)
            else:
                holder[key] = draw(bad)
    return draw(st.integers(0, 9).flatmap(
        lambda k: JUNK if k == 9 else st.just(obj)))


def check_contract(payload):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "config.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["run", path])
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


FUZZ = settings(derandomize=True, deadline=None, max_examples=250,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(st.sampled_from(SCENARIOS).flatmap(config_payload))
def test_any_config_exits_zero_one_or_two_without_traceback(payload):
    check_contract(payload)


@FUZZ
@given(config_payload("custom"))
def test_custom_payload_exits_zero_one_or_two_without_traceback(payload):
    check_contract(payload)
