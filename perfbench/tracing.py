"""Spans around the calls into each levybank layer, for the traced run.

The wrappers replace module-level names (for example
`levybank.estimators.eval_field`) while a traced round runs and restore them
afterwards; the program itself is not edited.  Names are patched in each module
that calls them, because `from .fields import eval_field` binds the function
into the caller's namespace.  A name that is missing is recorded in
`Instrumentation.missing` and skipped, so a refactor loses a layer metric, not
the benchmark.

A span is [name, start, end, parent, count]: parent is the index of the
enclosing span or -1, count is the work the span did (draws, normals, state
rows, bytes), where that applies.
"""

from __future__ import annotations

import importlib
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span recorder for one round."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, count: float = 0):
        idx = len(self.spans)
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, count]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = perf_counter()


def _rows(args, kwargs):
    x = np.asarray(args[2] if len(args) > 2 else kwargs["x"])
    return x.size // x.shape[-1] if x.ndim else 1


def _draws(args, kwargs):
    size = args[4] if len(args) > 4 else kwargs.get("size")
    return 1 if size is None else int(size)


def _file_bytes(args, kwargs):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


class _CountingGenerator:
    """A numpy Generator whose standard_normal calls are spans."""

    def __init__(self, rng, tracer: Tracer):
        self._rng, self._tracer = rng, tracer

    def standard_normal(self, size=None, *args, **kwargs):
        with self._tracer.span("bank.gauss", int(np.prod(size)) if size is not None else 1):
            return self._rng.standard_normal(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


# (module, attribute, span name, count taken before the call, count taken after)
TARGETS = [
    ("levybank.bank", "sample_stable_increment", "stable", _draws, None),
    ("levybank.estimators", "sample_stable_increment", "stable", _draws, None),
    ("levybank.bank", "generate_bank", "bank.generate", None, None),
    ("levybank.bank", "save_bank", "bank.save", None, _file_bytes),
    ("levybank.bank", "load_bank", "bank.load", None, None),
    ("levybank.flow", "solve_flow", "flow.solve", None, None),
    ("levybank.flow", "forcing_convolution", "flow.forcing", None, None),
    ("levybank.estimators", "forcing_convolution", "flow.forcing", None, None),
    ("levybank.flow", "eval_field", "fields", _rows, None),
    ("levybank.estimators", "eval_field", "fields", _rows, None),
    ("levybank.estimators", "v0_estimate", "estimators.v0", None, None),
    ("levybank.estimators", "v1_estimate", "estimators.v1", None, None),
    ("levybank.estimators", "vn_estimate", "estimators.vn", None, None),
    ("levybank.estimators", "em_benchmark", "estimators.em", None, None),
]
# The generators generate_bank obtains from streams, to count its normals.
RNG_TARGET = ("levybank.bank", "make_rng")


def _wrap(fn, tracer: Tracer, name: str, before, after):
    def wrapper(*args, **kwargs):
        with tracer.span(name, before(args, kwargs) if before else 0) as rec:
            out = fn(*args, **kwargs)
        if after:
            rec[4] = after(args, kwargs)
        return out
    wrapper.__wrapped__ = fn
    return wrapper


class Instrumentation:
    """Installs the wrappers for one round; `missing` lists names not found."""

    def __init__(self):
        self.missing: list[str] = []

    def _lookup(self, module: str, attr: str):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            mod = None
        if mod is None or not hasattr(mod, attr):
            label = f"{module}.{attr}"
            if label not in self.missing:
                self.missing.append(label)
            return None, None
        return mod, getattr(mod, attr)

    @contextmanager
    def installed(self):
        """Wrap every target into a fresh Tracer, yield it, then unwrap."""
        tracer = Tracer()
        saved = []
        try:
            for module, attr, name, before, after in TARGETS:
                mod, fn = self._lookup(module, attr)
                if mod is not None:
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, _wrap(fn, tracer, name, before, after))
            mod, make_rng = self._lookup(*RNG_TARGET)
            if mod is not None:
                saved.append((mod, RNG_TARGET[1], make_rng))
                setattr(mod, RNG_TARGET[1],
                        lambda *a, **k: _CountingGenerator(make_rng(*a, **k), tracer))
            yield tracer
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def span_times(spans: list[list]):
    """Per-span duration and self time (duration minus direct children)."""
    dur = [s[2] - s[1] for s in spans]
    self_t = list(dur)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            self_t[s[3]] -= d
    return dur, self_t


def root_of(spans: list[list]) -> list[int]:
    """Index of each span's outermost ancestor (the phase span)."""
    roots = []
    for i, s in enumerate(spans):
        roots.append(i if s[3] < 0 else roots[s[3]])
    return roots


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer metrics of one traced round, over all phases but `check`.

    `_s` is the total time of a layer's spans, `_self_s` that total minus the
    time of the layers called inside it.
    """
    dur, self_t = span_times(spans)
    roots = root_of(spans)
    n, total, own, count = {}, {}, {}, {}
    for i, s in enumerate(spans):
        if s[3] < 0 or spans[roots[i]][0] == "phase.check":
            continue
        name = s[0]
        n[name] = n.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        own[name] = own.get(name, 0.0) + self_t[i]
        count[name] = count.get(name, 0) + s[4]
    return {
        "stable.draws": count.get("stable", 0),
        "stable.s": total.get("stable", 0.0),
        "bank.generate_s": total.get("bank.generate", 0.0),
        "bank.recurrence_s": own.get("bank.generate", 0.0),
        "bank.normals": count.get("bank.gauss", 0),
        "bank.gauss_s": total.get("bank.gauss", 0.0),
        "bank.save_s": total.get("bank.save", 0.0),
        "bank.load_s": total.get("bank.load", 0.0),
        "bank.file_mb": count.get("bank.save", 0) / 2 ** 20,
        "flow.solves": n.get("flow.solve", 0),
        "flow.solve_s": total.get("flow.solve", 0.0),
        "flow.forcing_calls": n.get("flow.forcing", 0),
        "flow.forcing_s": total.get("flow.forcing", 0.0),
        "fields.calls": n.get("fields", 0),
        "fields.rows": count.get("fields", 0),
        "fields.s": total.get("fields", 0.0),
        "estimators.v0_s": total.get("estimators.v0", 0.0),
        "estimators.v1_s": total.get("estimators.v1", 0.0),
        "estimators.v1_self_s": own.get("estimators.v1", 0.0),
        "estimators.vn_s": total.get("estimators.vn", 0.0),
        "estimators.vn_self_s": own.get("estimators.vn", 0.0),
        "estimators.em_s": total.get("estimators.em", 0.0),
        "estimators.em_self_s": own.get("estimators.em", 0.0),
    }


def phase_accounting(spans: list[list]) -> dict:
    """phase -> (wall, time inside layer spans, benchmark glue), per round."""
    dur, self_t = span_times(spans)
    roots = root_of(spans)
    acc = {}
    for i, s in enumerate(spans):
        phase = spans[roots[i]][0].removeprefix("phase.")
        wall, layers, glue = acc.get(phase, (0.0, 0.0, 0.0))
        if s[3] < 0:
            acc[phase] = (wall + dur[i], layers, glue + self_t[i])
        else:
            acc[phase] = (wall, layers + self_t[i], glue)
    return acc
