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
import math
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

_FAMILIES = {
    "minvar": minvar_family,
    "maxvar": maxvar_family,
    "maxminvar": maxminvar_family,
    "minmaxvar": minmaxvar_family,
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
    if spec == "identity":
        return Identity()
    if spec.startswith("measure:"):
        return psi_from_measure(parse_measure(spec), label=spec)
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise SpecError(f"bad distortion spec {spec!r}")
    makers = {
        "prop_hazard": ProportionalHazard,
        "minvar": MinVar,
        "maxvar": MaxVar,
        "maxminvar": MaxMinVar,
        "minmaxvar": MinMaxVar,
        "pprime": pprime_distortion,
    }
    try:
        if kind in makers:
            return makers[kind](float(arg))
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


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _load(path: str) -> tuple[TreeDocument, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror}") from None
    try:
        return document_from_text(text), _digest(text)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None


def _cell_list(adapted) -> list[float]:
    return [float(v) for v in adapted.cell_values]


def _index_list(result) -> list:
    return ["inf" if math.isinf(v) else float(v) for v in result.cell_values]


def _emit(report: dict) -> None:
    sys.stdout.write(dumps_17g(report) + "\n")


def _base_report(command: str, args: dict, digest: str) -> dict:
    return {
        "schema_version": 1,
        "command": command,
        "arguments": args,
        "input_digest": digest,
    }


def _cmd_evaluate(ns) -> int:
    doc, digest = _load(ns.tree)
    psi = parse_distortion(ns.distortion)
    out = risk.choquet(doc.space, doc.filtration, doc.payoff(ns.payoff), ns.t, psi)
    report = _base_report(
        "evaluate",
        {"tree": ns.tree, "payoff": ns.payoff, "t": ns.t, "distortion": ns.distortion},
        digest,
    )
    report["results"] = {"risk": _cell_list(out)}
    _emit(report)
    return 0


def _cmd_quantile(ns) -> int:
    doc, digest = _load(ns.tree)
    fn = risk.quantile_upper if ns.side == "upper" else risk.quantile_lower
    out = fn(doc.space, doc.filtration, doc.payoff(ns.payoff), ns.t, ns.alpha)
    report = _base_report(
        "quantile",
        {
            "tree": ns.tree, "payoff": ns.payoff, "t": ns.t,
            "alpha": ns.alpha, "side": ns.side,
        },
        digest,
    )
    report["results"] = {"quantile": _cell_list(out)}
    _emit(report)
    return 0


def _cmd_var(ns) -> int:
    doc, digest = _load(ns.tree)
    out = risk.var(doc.space, doc.filtration, doc.payoff(ns.payoff), ns.t, ns.alpha)
    report = _base_report(
        "var",
        {"tree": ns.tree, "payoff": ns.payoff, "t": ns.t, "alpha": ns.alpha},
        digest,
    )
    report["results"] = {"var": _cell_list(out)}
    _emit(report)
    return 0


def _cmd_avar(ns) -> int:
    doc, digest = _load(ns.tree)
    X = doc.payoff(ns.payoff)
    primal = risk.avar(doc.space, doc.filtration, X, ns.t, ns.alpha)
    dual = risk.avar_robust(doc.space, doc.filtration, X, ns.t, ns.alpha)
    report = _base_report(
        "avar",
        {"tree": ns.tree, "payoff": ns.payoff, "t": ns.t, "alpha": ns.alpha},
        digest,
    )
    report["results"] = {
        "avar": _cell_list(primal),
        "avar_dual": _cell_list(dual),
    }
    _emit(report)
    return 0


def _cmd_dwvar(ns) -> int:
    doc, digest = _load(ns.tree)
    mu = parse_measure(ns.measure)
    out = risk.dwvar(doc.space, doc.filtration, doc.payoff(ns.payoff), ns.t, mu)
    report = _base_report(
        "dwvar",
        {"tree": ns.tree, "payoff": ns.payoff, "t": ns.t, "measure": ns.measure},
        digest,
    )
    report["results"] = {"dwvar": _cell_list(out)}
    _emit(report)
    return 0


def _cmd_dcai(ns) -> int:
    doc, digest = _load(ns.tree)
    family = parse_family(ns.family)
    out = acceptability.dcai(
        doc.space, doc.filtration, doc.payoff(ns.payoff), ns.t, family
    )
    report = _base_report(
        "dcai",
        {"tree": ns.tree, "payoff": ns.payoff, "t": ns.t, "family": ns.family},
        digest,
    )
    report["results"] = {"index": _index_list(out)}
    _emit(report)
    return 0


_CHECK_DEFAULT_EXPECT = {
    "submartingale": "holds",
    "super-strict": "holds",
    "weak-acceptance": "violated",
    "middle-rejection": "violated",
    "dcai-weak-rejection": "holds",
}


def _cmd_check(ns) -> int:
    doc, digest = _load(ns.tree)
    X = doc.payoff(ns.payoff)
    s = ns.s if ns.s is not None else doc.filtration.horizon
    if ns.property == "dcai-weak-rejection":
        family = parse_family(ns.family or "family:minvar")
        rep = consistency.check_weak_rejection_dcai(
            doc.space, doc.filtration, X, family, ns.t, s
        )
    else:
        psi = parse_distortion(ns.distortion)
        if ns.property == "submartingale":
            rep = consistency.check_submartingale(
                doc.space, doc.filtration, X, psi, ns.t, s
            )
        elif ns.property == "super-strict":
            rep = consistency.check_super_strict_failure(
                doc.space, doc.filtration, X, psi, ns.t
            )
        elif ns.property == "weak-acceptance":
            rep = consistency.check_weak_acceptance(
                doc.space, doc.filtration, X, psi, ns.t, s
            )
        else:
            rep = consistency.middle_rejection_probe(
                doc.space, doc.filtration, X, psi, ns.t, s
            )
    expected = ns.expect or _CHECK_DEFAULT_EXPECT[ns.property]
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


def _expected_entries(ce, sources: dict) -> list[dict]:
    out = []
    for label, target in ce.expected.items():
        out.append({
            "label": label,
            "values": [float(v) for v in np.atleast_1d(target)],
            "source": sources.get(label, "analytic"),
            "tolerance": ce.tolerance,
        })
    return out


def _cmd_repro(ns) -> int:
    if ns.name == "nonmiddle":
        ce = consistency.build_nonmiddle_example()
        sources = {"rho_1": "analytic", "rho_0": "analytic"}
    elif ns.name == "weakacc-pprime":
        if ns.a is None:
            raise SpecError("weakacc-pprime needs --a")
        ce = consistency.build_weakacc_pprime(ns.a)
        sources = {"rho_1": "analytic", "rho_0": "analytic"}
    else:
        if ns.mu is None:
            raise SpecError("weakacc-continuous needs --mu")
        mu = parse_measure(ns.mu)
        ce = consistency.build_weakacc_continuous(mu, ns.n)
        sources = {"rho_1": "continuum_limit", "rho_0": "continuum_limit"}
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
    computed = {}
    max_err = 0.0
    for label, target in ce.expected.items():
        t = int(label.split("_")[1])
        got = risk.choquet(ce.space, ce.filtration, ce.X, t, ce.psi)
        computed[label] = _cell_list(got)
        err = float(np.max(np.abs(got.cell_values - np.atleast_1d(target))))
        max_err = max(max_err, err)
    report = _base_report(
        "repro",
        {"name": ns.name, "a": ns.a, "mu": ns.mu, "n": ns.n, "out": out_path},
        _digest(text),
    )
    report["results"] = {
        "distortion": ce.psi.label,
        "expected": _expected_entries(ce, sources),
        "computed": computed,
        "max_error": max_err,
        "match": bool(max_err <= ce.tolerance),
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

    p = sub.add_parser("evaluate", help="distortion risk per cell")
    tree_args(p)
    p.add_argument("--distortion", required=True, help="e.g. minvar:2, avar:0.5")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("quantile", help="conditional quantile per cell")
    tree_args(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--side", choices=("upper", "lower"), default="upper")
    p.set_defaults(fn=_cmd_quantile)

    p = sub.add_parser("var", help="value at risk per cell")
    tree_args(p)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(fn=_cmd_var)

    p = sub.add_parser("avar", help="average value at risk per cell (both forms)")
    tree_args(p)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(fn=_cmd_avar)

    p = sub.add_parser("dwvar", help="weighted value at risk per cell")
    tree_args(p)
    p.add_argument("--measure", required=True, help="s1,w1;s2,w2;...")
    p.set_defaults(fn=_cmd_dwvar)

    p = sub.add_parser("dcai", help="acceptability index per cell")
    tree_args(p)
    p.add_argument("--family", required=True, help="family:minvar etc.")
    p.set_defaults(fn=_cmd_dcai)

    p = sub.add_parser("check", help="time-consistency check")
    tree_args(p)
    p.add_argument(
        "--property",
        required=True,
        choices=tuple(_CHECK_DEFAULT_EXPECT),
    )
    p.add_argument("--distortion", default="identity")
    p.add_argument("--family", default=None)
    p.add_argument("--s", type=int, default=None, help="later time (default: horizon)")
    p.add_argument("--expect", choices=("holds", "violated"), default=None)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("repro", help="rebuild a bundled counterexample tree")
    p.add_argument(
        "name", choices=("nonmiddle", "weakacc-pprime", "weakacc-continuous")
    )
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
