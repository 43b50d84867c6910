"""The benchmark's tracer still finds every name it wraps.

`perfbench/tracer.py` records spans by replacing names in distrisk's modules
where their callers look them up.  A caller that captured a function object
at import (a command table holding `risk.choquet` itself, say) would bypass
the wrapper and the traced benchmark would silently lose that span.  This
runs three CLI commands under the tracer and checks that the evaluator, the
distortion calls and the acceptability family calls are all counted, and that
restoring puts every replaced name back.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import distrisk
import distrisk.cli
from distrisk import build_nonmiddle_example
from distrisk.treedoc import TreeDocument, document_to_text

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = ("risk", "acceptability", "consistency", "treedoc", "cli", "space")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _names():
    return {m: dict(vars(getattr(distrisk, m))) for m in MODULES}


def test_cli_commands_are_traced_and_restored(tmp_path, capsys):
    ce = build_nonmiddle_example()
    tree = tmp_path / "tree.json"
    tree.write_text(document_to_text(TreeDocument(ce.space, ce.filtration, {"X": ce.X}, {})))
    base = [str(tree), "--payoff", "X", "--t", "0"]

    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    before = _names()
    restore = tracer_mod.install(tracer, distrisk)
    commands = [
        (["evaluate", *base, "--distortion", "minvar:2"], "risk.choquet", "distortion.psi"),
        (["dcai", *base, "--family", "family:minvar"], "acceptability.dcai", "distortion.psi"),
        (["check", *base, "--property", "submartingale", "--distortion", "minvar:1"],
         "consistency.check_submartingale", "risk.choquet"),
    ]
    try:
        for argv, *spans in commands:
            tracer.reset()
            assert distrisk.cli.main(argv) == 0
            names = tracer.summary()["names"]
            for name in spans + ["cli.parse", "cli.compute", "cli.emit",
                                 "treedoc.document_from_text"]:
                assert names.get(name, {}).get("calls", 0) > 0, (argv[0], name)
            if argv[0] == "dcai":
                assert tracer.summary()["counts"]["acceptability.dcai.family_calls"] > 0
    finally:
        restore()
    capsys.readouterr()

    after = _names()
    for m in MODULES:
        changed = [k for k in before[m] if after[m].get(k) is not before[m][k]]
        assert not changed, (m, changed)
