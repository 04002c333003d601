"""objectiva benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload dense_grid --seed 3 --seconds 16 --trace 0

With --trace 0 the run prints the six end-to-end metrics, measured untraced,
and the result holds the three that carry a regression bound.
With --trace 1 the run times some operations untraced, replays the same
operations under the span tracer, and the result holds the per-layer
metrics. Human-readable lines come first; the last line of stdout is the
JSON result. See README.md in this directory.

The benchmark is one process and one caller in a closed loop: the next
operation starts when the previous one has returned and been checked. Only
the operation itself is timed. BLAS is pinned to one thread.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# before numpy loads: the machine has two cores and OpenBLAS would use both
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# set-up is timed in this process and in child processes that only set up,
# run between operations so that they sample the same stretch of time as
# the operations; on the machine in README.md one set-up's spread over ten
# seeds is 0.14-0.40, and the median of this many lowers it by about a third
SETUP_SAMPLES = 25
TAIL_BEYOND = 10
SHOWN_FAILURES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "items_per_s": "1/s",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# The result line holds the metrics that can carry a regression bound here.
# fail_ratio is 0 on a correct program; the result carries it as `failed` /
# `attempted`. op_p50_s and op_tail_s are order statistics of 2-30 operations
# and their ten-seed spread exceeded 0.25 on the machine in README.md; for one
# caller in a closed loop, items_per_s is units per operation over the mean
# operation time, so it carries the latency regression.
RESULT_END_TO_END = ("setup_s", "items_per_s", "peak_rss_mb")

def import_program():
    """Import objectiva from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import objectiva
    except ImportError as exc:
        sys.exit(f"error: cannot import objectiva from {SRC}: {exc}")
    if Path(objectiva.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: objectiva imported from {objectiva.__file__}, not {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_battery", "dense_grid", "channel_sweep",
                                 "sample_stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # --profile and --fault serve selftest.py, --setup-probe the set-up samples
    parser.add_argument("--profile", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is the smoke test")
    parser.add_argument("--fault", action="store_true",
                        help="inject the workload's deliberate defect; its checks must fail")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def setup_probe_seconds(args) -> float:
    """Set-up time of one child process that only sets up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--profile", args.profile,
           "--setup-probe"]
    return float(subprocess.run(cmd, capture_output=True, text=True, check=True,
                                timeout=120).stdout.split()[-1])


class Runner:
    """Runs and checks operations; keeps per-operation records."""

    def __init__(self, bench):
        self.bench = bench
        # (index, seconds, ok, units, per-n seconds or None); outputs are
        # dropped after their check so they do not add to peak RSS
        self.records = []

    def run(self, index: int, tracer=None) -> None:
        start = time.perf_counter()
        try:
            if tracer is None:
                out = self.bench.op(index)
            else:
                with tracer:
                    out = self.bench.op(index)
        except Exception:  # a program error is a failed operation; keep measuring
            self.records.append((index, time.perf_counter() - start, False, 0, None))
            self.report_failure(index, "error: " + last_line(traceback.format_exc()))
            return
        seconds = time.perf_counter() - start
        try:
            ok, units, detail = self.bench.check(out)
        except Exception:  # output the check cannot read fails the check
            ok, units, detail = False, 0, "unreadable output: " + last_line(
                traceback.format_exc())
        if not ok:
            self.report_failure(index, "check failed: " + detail)
        per_n = self.bench.per_n_seconds(out) if hasattr(self.bench, "per_n_seconds") else None
        self.records.append((index, seconds, ok, units, per_n))

    def report_failure(self, index: int, detail: str) -> None:
        if self.failed() < SHOWN_FAILURES:
            print(f"op {index}: {detail}")

    def run_for(self, seconds: float, between=None) -> None:
        """Run operations until `seconds` of operation time have passed.
        `between(share)`, if given, is called after each operation with the
        share of `seconds` done so far."""
        index = 0
        while index == 0 or self.elapsed() < seconds:
            self.run(index)
            index += 1
            if between is not None:
                between(self.elapsed() / seconds if seconds > 0 else 1.0)

    def elapsed(self) -> float:
        return sum(r[1] for r in self.records)

    def failed(self) -> int:
        return sum(1 for r in self.records if not r[2])


def tail(times: list):
    """Highest percentile with at least TAIL_BEYOND samples beyond it, as
    (value, percentile); None when no sample has that many beyond it."""
    if len(times) <= TAIL_BEYOND:
        return None
    ordered = sorted(times)
    rank = len(ordered) - 1 - TAIL_BEYOND
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def last_line(text: str) -> str:
    return text.strip().splitlines()[-1]


def warm_up(bench, workloads) -> list:
    """Untimed: the seed-0 reference check where a workload has one, else one
    checked operation. Lets caches fill and lazy set-up finish."""
    try:
        if hasattr(bench, "reference_check"):
            return bench.reference_check()
        ok, _, detail = bench.check(bench.op(workloads.WARMUP_INDEX))
    except Exception:  # reported as a failed check; the timed loop still runs
        return ["error: " + last_line(traceback.format_exc())]
    return [] if ok else [detail]


def end_to_end(args, runner, setup_times) -> dict:
    times = [r[1] for r in runner.records]
    op_tail = tail(times)
    units = sum(r[3] for r in runner.records if r[2])
    attempted = len(times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": None if op_tail is None else op_tail[0],
        "items_per_s": units / runner.elapsed(),
        "fail_ratio": runner.failed() / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": (f"median of {len(setup_times)} set-ups; "
                    f"this process {setup_times[0]:.6g} s"),
        "op_p50_s": f"median of {attempted} ops",
        "op_tail_s": (f"p{op_tail[1]:.1f}: {TAIL_BEYOND} of {attempted} ops beyond"
                      if op_tail else
                      f"unresolved: {attempted} ops, fewer than {TAIL_BEYOND + 1}"),
        "items_per_s": f"{runner.bench.unit} verified per second of op time",
        "fail_ratio": f"{runner.failed()} of {attempted} ops failed their check",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<14} {shown:<22} {END_TO_END_UNITS[name]:<6} {notes[name]}")
    return {name: {"value": metrics[name], "unit": END_TO_END_UNITS[name]}
            for name in RESULT_END_TO_END}


def per_layer(args, runner) -> dict:
    from tracer import Tracer

    runner.run_for(args.seconds / 2)
    untraced = list(runner.records)
    tracer = Tracer()
    for index, *_ in untraced:
        runner.run(index, tracer)
    traced = runner.records[len(untraced):]
    ops = len(traced)
    calls, self_s = tracer.self_times()

    metrics = {}  # name -> (value, unit, in result)
    for name in tracer.names:
        metrics[f"{name}.calls"] = (calls[name] / ops, "count/op", True)
        metrics[f"{name}.self_s"] = (self_s[name] / ops, "s/op", True)
    for kernel in ("eigh", "eigvalsh", "kron"):
        metrics[f"kernel.{kernel}.calls"] = (tracer.kernel_calls[kernel] / ops, "count/op", True)
    metrics["kernel.eig.work_d3"] = (tracer.eig_work_d3 / ops, "d3-computed/op", True)
    metrics["kernel.kron.bytes_out"] = (tracer.kron_bytes_out / ops, "B-computed/op", True)
    for ratio, numerator, base in (
            ("realized_effect_per_m_eval", "measurement.realized_effect", "measurement.m_eval"),
            ("effect_validations_per_m_eval", "linalg.Effect", "measurement.m_eval"),
            ("kernel_projector_per_is_member", "linalg.kernel_projector",
             "superposition.is_member")):
        value = calls[numerator] / calls[base] if calls[base] else 0.0
        metrics[f"ratio.{ratio}"] = (value, "ratio", True)
        print(f"ratio.{ratio}: {calls[numerator]} / {calls[base]}"
              + ("" if calls[base] else " (no base calls; reported as 0)"))
    overhead = sum(r[1] for r in traced) / sum(r[1] for r in untraced)
    metrics["trace.overhead_ratio"] = (overhead, "ratio", True)
    per_n = [r[4] for r in untraced if r[4] is not None]
    if per_n:
        for n in per_n[0]:
            metrics[f"channel_sweep.n{n}_s"] = (
                statistics.median(p[n] for p in per_n), "s", False)

    print(f"per-layer figures are per operation over {ops} traced ops; "
          "kernel work and bytes are computed from shapes, not measured")
    for name, (value, unit, in_result) in metrics.items():
        print(f"{name:<50} {value:<14.6g} {unit}{'' if in_result else '  (printed only)'}")
    tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
    (OUT / f"trace-{args.workload}.json").write_text(json.dumps(
        {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()}, indent=1))
    return {name: {"value": v, "unit": u} for name, (v, u, keep) in metrics.items() if keep}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    bench = workloads.WORKLOADS[args.workload](args.seed, args.profile, OUT)
    own_setup_s = time.perf_counter() - START
    if args.setup_probe:
        print(own_setup_s)
        return 0
    if args.fault:
        bench.inject_fault()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  profile {args.profile}")
    problems = warm_up(bench, workloads)
    for problem in problems:
        print(f"warm-up check failed: {problem}")

    runner = Runner(bench)
    if args.trace == 0:
        setup_times = [own_setup_s]

        def probe_setup(share: float) -> None:
            while len(setup_times) < SETUP_SAMPLES * min(share, 1.0):
                setup_times.append(setup_probe_seconds(args))

        runner.run_for(args.seconds, probe_setup)
        probe_setup(1.0)
        metrics = end_to_end(args, runner, setup_times)
    else:
        metrics = per_layer(args, runner)
    failed = runner.failed()
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": len(runner.records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
