"""Span recorder for the traced run.

Spans are recorded from outside the program: `install` replaces public names
of distrisk in the modules where their callers look them up (for example
`distrisk.risk.conditional_distribution` or `distrisk.cli.document_from_text`)
with timing wrappers, and returns a function that puts the originals back.

Two kinds of record are kept in memory:

- spans, one per call at a layer boundary (an evaluator, a checker, a tree
  document read, a CLI stage), with their parent span;
- leaf timers for the per-cell calls (`space.conditional_distribution`,
  `distortion.psi`), which run hundreds of thousands of times a pass and are
  summed per name instead.  Their time is charged to the enclosing span as
  child time, so self times stay exact.

A span's self time is its duration minus the time of its direct child spans
and leaf calls.  The layer of a name is its first dotted component.

This module imports only the standard library, so that the CLI bootstrap can
load it before timing `import distrisk`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time

PERF = time.perf_counter

LAYERS = ("space", "distortion", "risk", "acceptability", "consistency", "treedoc", "cli")


class Tracer:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end, child seconds]
        self.leaf: dict[str, list] = {}  # name -> [calls, seconds]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, PERF(), 0.0, 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _exit(self, i: int) -> None:
        span = self.spans[i]
        span[3] = PERF()
        self._stack.pop()
        if span[1] >= 0:
            self.spans[span[1]][4] += span[3] - span[2]

    def _leaf_add(self, name: str, seconds: float) -> None:
        rec = self.leaf.get(name)
        if rec is None:
            rec = self.leaf[name] = [0, 0.0]
        rec[0] += 1
        rec[1] += seconds
        if self._stack:
            self.spans[self._stack[-1]][4] += seconds

    @contextlib.contextmanager
    def region(self, name: str):
        i = self._enter(name)
        try:
            yield
        finally:
            self._exit(i)

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call is a span; after(args, result) runs outside it."""

        def wrapper(*args, **kwargs):
            i = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(i)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf_timer(self, name: str, fn):
        def wrapper(*args, **kwargs):
            t0 = PERF()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leaf_add(name, PERF() - t0)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, psi):
        """A distortion whose evaluations are timed as distortion.psi."""
        return _CountedDistortion(psi, self)

    def counted_family(self, family):
        """A family whose generator calls are counted and whose members are
        counted distortions."""
        generator = family.generator

        def make(x):
            self.count("acceptability.dcai.family_calls")
            return _CountedDistortion(generator(x), self)

        return dataclasses.replace(family, generator=make)

    # -- summary ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, total seconds and self seconds, plus the counts."""
        names: dict[str, list] = {}
        for name, _parent, t0, t1, child in self.spans:
            rec = names.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += (t1 - t0) - child
        for name, (calls, seconds) in self.leaf.items():
            rec = names.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += seconds
            rec[2] += seconds
        return {
            "names": {k: {"calls": c, "s": s, "self_s": ss} for k, (c, s, ss) in names.items()},
            "counts": dict(self.counts),
        }

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "start": t0, "end": t1, "self_s": (t1 - t0) - c}
            for n, p, t0, t1, c in self.spans
        ]


class _CountedDistortion:
    """Delegates to a distortion and times each evaluation."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __call__(self, y):
        t0 = PERF()
        try:
            return self._inner(y)
        finally:
            self._tracer._leaf_add("distortion.psi", PERF() - t0)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def merge(summaries) -> dict:
    """Sum several summaries (one per CLI child process) into one."""
    names: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for summ in summaries:
        for k, rec in summ["names"].items():
            acc = names.setdefault(k, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field in acc:
                acc[field] += rec[field]
        for k, v in summ["counts"].items():
            counts[k] = counts.get(k, 0) + v
    return {"names": names, "counts": counts}


EVALUATORS = (
    "choquet", "quantile_upper", "quantile_lower", "var",
    "avar", "avar_robust", "dwvar", "min_iid_rho",
)
CHECKERS = (
    "check_submartingale", "check_super_strict_failure", "check_weak_acceptance",
    "check_weak_rejection_dcai", "middle_rejection_probe",
)
BUILDERS = ("build_nonmiddle_example", "build_weakacc_continuous")


def install(tracer: Tracer, distrisk) -> callable:
    """Wrap distrisk's public names where their callers look them up.

    `distrisk` is the imported package, with its `cli` submodule loaded.
    Returns a function that restores every replaced name.
    """
    risk = distrisk.risk
    acc = distrisk.acceptability
    cons = distrisk.consistency
    treedoc = distrisk.treedoc
    cli = distrisk.cli
    saved = []

    def patch(module, attr, make):
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def exits(_args, result):
        for v in result.cell_values:
            kind = "floor" if v == 0.0 else "cap" if v == float("inf") else "interior"
            tracer.count("acceptability.dcai." + kind)

    def bytes_in(args, _result):
        tracer.count("treedoc.bytes_in", len(args[0].encode()))

    def bytes_out(_args, text):
        tracer.count("treedoc.bytes_out", len(text.encode()))

    def span(name, after=None):
        return lambda fn: tracer.span(name, fn, after)

    def counted_result(fn):
        return lambda *a, **k: tracer.counted(fn(*a, **k))

    def counted_family_result(fn):
        return lambda *a, **k: tracer.counted_family(fn(*a, **k))

    for name in EVALUATORS:
        patch(risk, name, span("risk." + name))
    patch(cons, "choquet", span("risk.choquet"))
    patch(risk, "conditional_distribution",
          lambda fn: tracer.leaf_timer("space.conditional_distribution", fn))
    patch(acc, "conditional_distribution",
          lambda fn: tracer.leaf_timer("space.conditional_distribution", fn))
    patch(risk, "psi_from_measure", counted_result)
    patch(acc, "dcai", span("acceptability.dcai", exits))
    patch(cons, "dcai", span("acceptability.dcai", exits))
    patch(acc, "check_family_monotone", span("distortion.check_family_monotone"))
    for name in CHECKERS + BUILDERS:
        patch(cons, name, span("consistency." + name))
    patch(cons, "conditional_expectation", span("space.conditional_expectation"))
    patch(cons, "lift", span("space.lift"))
    for module in (cons, treedoc, distrisk.space):
        patch(module, "Filtration", span("space.Filtration"))
    for name in ("psi_from_measure", "ProportionalHazard"):  # the repro builders' distortions
        patch(cons, name, counted_result)
    patch(treedoc, "validate", span("space.validate"))
    for module in (treedoc, cli):
        patch(module, "document_from_text", span("treedoc.document_from_text", bytes_in))
    patch(cli, "document_to_text", span("treedoc.document_to_text", bytes_out))
    patch(cli, "dumps_17g", span("treedoc.dumps_17g", bytes_out))
    patch(cli, "parse_distortion", counted_result)
    patch(cli, "parse_family", counted_family_result)
    patch(cli, "_emit", span("cli.emit"))

    def build_parser(fn):
        def wrapper():
            with tracer.region("cli.parse"):
                parser = fn()
            parse_args = parser.parse_args

            def timed_parse(argv=None):
                with tracer.region("cli.parse"):
                    ns = parse_args(argv)
                ns.fn = tracer.span("cli.compute", ns.fn)
                return ns

            parser.parse_args = timed_parse
            return parser

        return wrapper

    patch(cli, "build_parser", build_parser)

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore
