"""Command-line front end.

Subcommands evaluate risks, quantiles, tail means, weighted tail means and
acceptability indices on a tree document, run the time-consistency checkers,
and rebuild the bundled counterexample trees.  Every command prints one JSON
report to stdout; identical invocations on identical inputs produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from . import acceptability, consistency, risk
from .distortion import (
    DistortionFamily,
    DistortionMeasure,
    Identity,
    MaxMinVar,
    MaxVar,
    MinMaxVar,
    MinVar,
    ProportionalHazard,
    dirac,
    maxminvar_family,
    maxvar_family,
    minmaxvar_family,
    minvar_family,
    pprime_distortion,
    psi_from_measure,
)
from .space import DomainError
from .treedoc import ParseError, TreeDocument, document_from_text, document_to_text, dumps_17g

_FAMILIES = {f().name: f for f in (
    minvar_family, maxvar_family, maxminvar_family, minmaxvar_family,
)}
_MAKERS = {
    "pprime": pprime_distortion,
    **{cls.kind: cls for cls in (ProportionalHazard, MinVar, MaxVar, MaxMinVar, MinMaxVar)},
}


class SpecError(ValueError):
    """Bad command-line argument: an unparseable distortion, measure or
    family descriptor, a missing option, or an unwritable output path."""


def parse_measure(spec: str) -> DistortionMeasure:
    """Parse 's1,w1;s2,w2;...' (optionally prefixed 'measure:')."""
    body = spec[len("measure:"):] if spec.startswith("measure:") else spec
    support = []
    weights = []
    try:
        for pair in body.split(";"):
            s_txt, w_txt = pair.split(",")
            support.append(float(s_txt))
            weights.append(float(w_txt))
    except ValueError:
        raise SpecError(f"bad measure spec {spec!r}: want s1,w1;s2,w2;...") from None
    try:
        return DistortionMeasure(np.asarray(support), np.asarray(weights))
    except DomainError as e:
        raise SpecError(f"bad measure spec {spec!r}: {e}") from None


def parse_distortion(spec: str):
    """Parse a one-line distortion descriptor.

    Grammar: identity | prop_hazard:g | minvar:x | maxvar:x | maxminvar:x |
    minmaxvar:x | pprime:a | avar:alpha | measure:s1,w1;s2,w2;...
    """
    if spec == Identity.kind:
        return Identity()
    if spec.startswith("measure:"):
        return psi_from_measure(parse_measure(spec), label=spec)
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise SpecError(f"bad distortion spec {spec!r}")
    try:
        if kind in _MAKERS:
            return _MAKERS[kind](float(arg))
        if kind == "avar":
            alpha = float(arg)
            return psi_from_measure(dirac(alpha), label=spec)
    except (ValueError, DomainError) as e:
        raise SpecError(f"bad distortion spec {spec!r}: {e}") from None
    raise SpecError(f"unknown distortion kind {kind!r}")


def parse_family(spec: str) -> DistortionFamily:
    name = spec[len("family:"):] if spec.startswith("family:") else spec
    if name not in _FAMILIES:
        raise SpecError(
            f"unknown family {spec!r}; choose from "
            + ", ".join(f"family:{n}" for n in sorted(_FAMILIES))
        )
    return _FAMILIES[name]()


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _load(path: str) -> tuple[TreeDocument, str]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: byte {e.start}: not UTF-8") from None
    if b"\r" in data:  # line ends as a text-mode read gives them; CR is never inside a character
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        text = data.decode("utf-8")
    try:
        return document_from_text(text), _digest(data)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None


def _cell_list(adapted) -> list[float]:
    return [float(v) for v in adapted.cell_values]


def _emit(report: dict) -> None:
    sys.stdout.write(dumps_17g(report) + "\n")


def _base_report(command: str, args: dict, digest: str) -> dict:
    return {
        "schema_version": 1,
        "command": command,
        "arguments": args,
        "input_digest": digest,
    }


# The one-payoff commands: name, help, own options in report order, and the
# results.  `run(evaluator, param)` applies an evaluator to the command's
# payoff at --t; each row names its evaluator (`risk.choquet`) and parses its
# spec at call time, so that wrappers installed on those modules see the call
# and a bad spec is reported before an unknown payoff.
_ALPHA = ("--alpha", {"type": float, "required": True})
_ONE_PAYOFF_COMMANDS = (
    ("evaluate", "distortion risk per cell",
     [("--distortion", {"required": True, "help": "e.g. minvar:2, avar:0.5"})],
     lambda run, ns: {"risk": _cell_list(run(risk.choquet, parse_distortion(ns.distortion)))}),
    ("quantile", "conditional quantile per cell",
     [_ALPHA, ("--side", {"choices": ("upper", "lower"), "default": "upper"})],
     lambda run, ns: {"quantile": _cell_list(run(
         risk.quantile_upper if ns.side == "upper" else risk.quantile_lower, ns.alpha))}),
    ("var", "value at risk per cell", [_ALPHA],
     lambda run, ns: {"var": _cell_list(run(risk.var, ns.alpha))}),
    ("avar", "average value at risk per cell (both forms)", [_ALPHA],
     lambda run, ns: {"avar": _cell_list(run(risk.avar, ns.alpha)),
                      "avar_dual": _cell_list(run(risk.avar_robust, ns.alpha))}),
    ("dwvar", "weighted value at risk per cell",
     [("--measure", {"required": True, "help": "s1,w1;s2,w2;..."})],
     lambda run, ns: {"dwvar": _cell_list(run(risk.dwvar, parse_measure(ns.measure)))}),
    ("dcai", "acceptability index per cell",
     [("--family", {"required": True, "help": "family:minvar etc."})],
     lambda run, ns: {"index": _cell_list(run(acceptability.dcai, parse_family(ns.family)))}),
)


def _cmd_one_payoff(ns) -> int:
    doc, digest = _load(ns.tree)

    def run(evaluator, param):
        return evaluator(doc.space, doc.filtration, doc.payoff(ns.payoff), ns.t, param)

    arguments = {"tree": ns.tree, "payoff": ns.payoff, "t": ns.t}
    arguments.update((dest, getattr(ns, dest)) for dest in ns.own)
    report = _base_report(ns.cmd, arguments, digest)
    report["results"] = ns.results(run, ns)
    _emit(report)
    return 0


# property: default expectation and the checker, looked up at call time
_CHECKS = {
    "submartingale": ("holds", lambda law, ns, s: consistency.check_submartingale(
        *law, parse_distortion(ns.distortion), ns.t, s)),
    "super-strict": ("holds", lambda law, ns, s: consistency.check_super_strict_failure(
        *law, parse_distortion(ns.distortion), ns.t)),
    "weak-acceptance": ("violated", lambda law, ns, s: consistency.check_weak_acceptance(
        *law, parse_distortion(ns.distortion), ns.t, s)),
    "middle-rejection": ("violated", lambda law, ns, s: consistency.middle_rejection_probe(
        *law, parse_distortion(ns.distortion), ns.t, s)),
    "dcai-weak-rejection": ("holds", lambda law, ns, s: consistency.check_weak_rejection_dcai(
        *law, parse_family(ns.family or "family:minvar"), ns.t, s)),
}


def _cmd_check(ns) -> int:
    doc, digest = _load(ns.tree)
    law = (doc.space, doc.filtration, doc.payoff(ns.payoff))
    s = ns.s if ns.s is not None else doc.filtration.horizon
    default_expect, checker = _CHECKS[ns.property]
    rep = checker(law, ns, s)
    expected = ns.expect or default_expect
    report = _base_report(
        "check",
        {
            "tree": ns.tree, "payoff": ns.payoff, "property": ns.property,
            "distortion": ns.distortion, "family": ns.family,
            "t": ns.t, "s": rep.s, "expect": expected,
        },
        digest,
    )
    report["results"] = {
        "margins": list(rep.margins),
        "verdict": rep.verdict,
        "witness": rep.witness,
    }
    _emit(report)
    return 0 if rep.verdict == expected else 1


def _needs(ns, option: str):
    value = getattr(ns, option)
    if value is None:
        raise SpecError(f"{ns.name} needs --{option}")
    return value


# name: source of the expected values and the tree's build function, looked up at call time
_REPROS = {
    "nonmiddle": ("analytic", lambda ns: consistency.build_nonmiddle_example()),
    "weakacc-pprime": (
        "analytic", lambda ns: consistency.build_weakacc_pprime(_needs(ns, "a"))),
    "weakacc-continuous": ("continuum_limit", lambda ns: consistency.build_weakacc_continuous(
        parse_measure(_needs(ns, "mu")), ns.n)),
}


def _cmd_repro(ns) -> int:
    source, build = _REPROS[ns.name]
    ce = build(ns)
    doc = TreeDocument(
        ce.space, ce.filtration, {"X": ce.X}, {"name": ce.name},
    )
    text = document_to_text(doc)
    out_path = ns.out or f"{ce.name}.json"
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise SpecError(f"{out_path}: {e.strerror}") from None
    report = _base_report(
        "repro",
        {"name": ns.name, "a": ns.a, "mu": ns.mu, "n": ns.n, "out": out_path},
        _digest(text.encode()),
    )
    report["results"] = {
        "distortion": ce.psi.label,
        "expected": [
            {
                "label": label,
                "values": [float(v) for v in np.atleast_1d(target)],
                "source": source,
                "tolerance": ce.tolerance,
            }
            for label, target in ce.expected.items()
        ],
        "computed": {label: _cell_list(got) for label, got in ce.computed.items()},
        "max_error": ce.max_error,
        "match": bool(ce.max_error <= ce.tolerance),
    }
    _emit(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distrisk",
        description="Distortion risk measures and acceptability indices on scenario trees",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def tree_args(p):
        p.add_argument("tree", help="tree document file (JSON)")
        p.add_argument("--payoff", required=True, help="payoff name in the document")
        p.add_argument("--t", type=int, required=True, help="evaluation time")

    for name, help, options, results in _ONE_PAYOFF_COMMANDS:
        p = sub.add_parser(name, help=help)
        tree_args(p)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(
            fn=_cmd_one_payoff, results=results,
            own=tuple(flag.lstrip("-") for flag, _ in options),
        )

    p = sub.add_parser("check", help="time-consistency check")
    tree_args(p)
    p.add_argument("--property", required=True, choices=tuple(_CHECKS))
    p.add_argument("--distortion", default="identity")
    p.add_argument("--family", default=None)
    p.add_argument("--s", type=int, default=None, help="later time (default: horizon)")
    p.add_argument("--expect", choices=("holds", "violated"), default=None)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("repro", help="rebuild a bundled counterexample tree")
    p.add_argument("name", choices=tuple(_REPROS))
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--mu", default=None, help="measure spec s1,w1;s2,w2;...")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--out", default=None, help="output tree file path")
    p.set_defaults(fn=_cmd_repro)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.fn(ns)
    except (ParseError, SpecError, DomainError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
