"""README's library sketch runs against the package and prints what it shows,
and its tolerance table lists the package's tolerances.

Each statement of the sketch runs in turn; where comment lines follow an
expression, they are the expression's repr, compared as a doctest compares
output (`...` matches anything, everything else exactly).  A name the
package no longer exports fails here.
"""

import ast
import doctest
import re
from pathlib import Path

from distrisk import tolerance

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(tolerance.__file__).resolve().parent


def run_sketch():
    """Run README's library sketch; per expression followed by comment
    lines, (expression, shown output, the repr it gives)."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library sketch"):]
    source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines = source.splitlines()
    namespace, printed = {}, []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        comments = []
        for line in lines[node.end_lineno:]:
            if not line.startswith("# "):
                break
            comments.append(line[2:] + "\n")
        if comments:
            printed.append((code, "".join(comments), repr(value) + "\n"))
    return printed


def test_sketch_prints_what_it_shows():
    printed = run_sketch()
    checker = doctest.OutputChecker()
    for code, want, got in printed:
        assert checker.check_output(want, got, doctest.ELLIPSIS), (code, want, got)
    # the choquet and dcai arrays and the verdict exactly, then the probe's
    # report and the family check
    assert [want for _, want, _ in printed] == [
        "array([-0.58578644,  1.41421356])\n",
        "array([inf,  0.])\n",
        "'holds'\n",
        "ConsistencyReport(s=1, margins=(-0.0963...,), witness={'cell': 0, ...})\n",
        "CheckReport(failures=())\n",
    ]


def tolerance_names() -> dict:
    """The module-level constants of distrisk.tolerance, by name."""
    return {name: value for name, value in vars(tolerance).items() if name.isupper()}


def test_tolerance_table_lists_the_module():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Tolerances"):]
    section = section[:section.index("\n## ")]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section, re.M)
    assert {name: float(value) for name, value in rows} == tolerance_names()
    assert len(rows) == len(tolerance_names())  # each name once


def test_every_tolerance_is_imported_by_the_package():
    imported = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "tolerance.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # the package's modules read it as `from .tolerance import ...`
            if isinstance(node, ast.ImportFrom) and node.module == "tolerance":
                imported.update(alias.name for alias in node.names)
    assert set(tolerance_names()) <= imported, set(tolerance_names()) - imported
