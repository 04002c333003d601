"""Span tracer for the benchmark's traced run.

Public objectiva functions are wrapped at every module binding that holds
them: ``from .linalg import prob`` copies the function object into
``measurement``, ``theorems``, ``scenarios`` and ``cli``, so patching
``objectiva.linalg`` alone would miss the calls made through those names.
Classes are wrapped once, at ``__init__``, which covers construction and
validation wherever the class is referenced from.

numpy's ``linalg.eigh``, ``linalg.eigvalsh`` and ``kron`` are wrapped at the
numpy module boundary as counters only (no spans). Their work (sum of d^3)
and output byte figures are computed from array shapes, not measured.

Spans are kept in memory while tracing and written as JSON lines at the end.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

# layer (module) -> public names whose calls and self time are recorded
TRACED = {
    "linalg": ("State", "Effect", "prob", "complement", "support_projector",
               "kernel_projector", "partial_trace"),
    "superposition": ("SuperpositionSpec", "superposition_family", "is_member"),
    "discrimination": ("synthesize_discriminator", "discriminates"),
    "measurement": ("build_premeasurement", "m_eval", "realized_effect",
                    "reduced_channel_state", "discriminating_reading",
                    "joint_outcome_distribution", "sample_events"),
    "theorems": ("verify_theorem1", "verify_theorem1_prime", "verify_theorem2",
                 "counterexample_search", "inclusion_exclusion_distribution",
                 "membership_violation"),
    "scenarios": ("run_scenario",),
    "cli": ("verify_all", "main"),
}

KERNELS = ("eigh", "eigvalsh", "kron")


def span_names() -> list:
    return [f"{layer}.{name}" for layer, names in TRACED.items() for name in names]


def objectiva_modules() -> list:
    import objectiva
    from objectiva import (cli, discrimination, linalg, measurement, scenarios,
                           superposition, theorems)

    return [objectiva, linalg, superposition, discrimination, measurement,
            theorems, scenarios, cli]


def patch_everywhere(original, replacement, modules) -> list:
    """Rebind every module attribute holding `original` to `replacement`.

    Returns the (module, attribute) pairs changed, for `unpatch`.
    """
    changed = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


def unpatch(changed, original) -> None:
    for module, attr in changed:
        setattr(module, attr, original)


class Tracer:
    """Records spans around the traced objectiva names and numpy kernel counts.

    Use as a context manager around one operation; spans and counters
    accumulate across uses until `summary` is read.
    """

    def __init__(self):
        self.names = span_names()
        self.spans = []  # [name index, start, end, parent index]
        self.stack = []
        self.kernel_calls = dict.fromkeys(KERNELS, 0)
        self.eig_work_d3 = 0
        self.kron_bytes_out = 0
        self._undo = []

    def _span(self, fn, name_index):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name_index, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def _eig_counter(self, fn, kernel):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            self.kernel_calls[kernel] += 1
            self.eig_work_d3 += int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3
            return fn(a, *args, **kwargs)

        return wrapper

    def _kron_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.kernel_calls["kron"] += 1
            self.kron_bytes_out += np.asarray(out).nbytes
            return out

        return wrapper

    def __enter__(self):
        modules = objectiva_modules()
        by_layer = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for name_index, full in enumerate(self.names):
            layer, name = full.split(".")
            target = getattr(by_layer[layer], name)
            if isinstance(target, type):
                init = target.__init__
                target.__init__ = self._span(init, name_index)
                self._undo.append(lambda t=target, i=init: setattr(t, "__init__", i))
            else:
                changed = patch_everywhere(target, self._span(target, name_index), modules)
                self._undo.append(lambda c=changed, t=target: unpatch(c, t))
        for kernel in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, kernel)
            setattr(np.linalg, kernel, self._eig_counter(fn, kernel))
            self._undo.append(lambda k=kernel, f=fn: setattr(np.linalg, k, f))
        kron = np.kron
        np.kron = self._kron_counter(kron)
        self._undo.append(lambda f=kron: setattr(np, "kron", f))
        return self

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()
        return False

    def self_times(self) -> tuple:
        """Per-name call counts and self time (duration minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for (name_index, start, end, _), covered in zip(self.spans, child_time):
            name = self.names[name_index]
            calls[name] += 1
            self_s[name] += (end - start) - covered
        return calls, self_s

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name_index, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": self.names[name_index],
                                     "start": start, "end": end,
                                     "parent": None if parent < 0 else parent}) + "\n")
