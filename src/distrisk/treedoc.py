"""Text interchange format for scenario trees and deterministic reports.

A tree document is a JSON object with a schema_version, a list of atoms
(probability plus named payoffs), an explicit filtration as atom-index
partitions, and a free-form metadata map.  Serialization writes every float
with 17 significant digits, so each written double parses back to the same
double and repeated runs are byte-identical.  A document need not read back
to the one written: reading renormalizes the probabilities by their
floating-point sum (a tree whose probabilities do not add up to exactly 1.0
comes back within one rounding of them), and a payoff of -0.0 is written as
``-0`` and reads back as 0.0.
"""

from __future__ import annotations

import gc
import itertools
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .space import (DomainError, Filtration, Level, RandomVariable, ScenarioSpace,
                    _integer_level, validate)

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """Malformed tree document; the message carries a positional path."""


@dataclass(frozen=True)
class TreeDocument:
    space: ScenarioSpace
    filtration: Filtration
    payoffs: dict
    metadata: dict = field(default_factory=dict)

    def payoff(self, name: str) -> RandomVariable:
        if name not in self.payoffs:
            known = ", ".join(sorted(self.payoffs)) or "none"
            raise DomainError(f"unknown payoff {name!r} (available: {known})")
        return self.payoffs[name]


def dumps_17g(obj, indent: int = 0) -> str:
    """Strict JSON text with floats at 17 significant digits; insertion order kept."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dumps_17g(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)) and set(map(type, obj)) <= {float}:
        text = ", ".join(["%.17g"] * len(obj)) % tuple(obj)
        if "n" not in text:  # no inf or nan, which are written one by one below
            return "[" + text + "]"
    if isinstance(obj, (list, tuple)) and all(
        isinstance(v, (int, float, str, bool)) or v is None for v in obj
    ):
        return "[" + ", ".join(dumps_17g(v) for v in obj) + "]"
    if isinstance(obj, (list, tuple)):
        items = [f"{pad}  {dumps_17g(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"
    if isinstance(obj, float):
        text = format(obj, ".17g")
        if text == "nan":
            raise ValueError("cannot serialize NaN")
        return f'"{text}"' if text.endswith("inf") else text  # strict JSON has no inf
    if obj is None or isinstance(obj, (int, str)):  # bool is an int
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _atoms_text(doc: TreeDocument) -> str:
    """The atoms array, rendered by one %-template over the probability and
    payoff columns, interleaved atom by atom."""
    fields = [
        "        " + json.dumps(str(n)).replace("%", "%%") + ": %.17g" for n in doc.payoffs
    ]
    payoffs = "{\n" + ",\n".join(fields) + "\n      }" if fields else "{}"
    atom = '    {\n      "probability": %.17g,\n      "payoffs": ' + payoffs + "\n    }"
    columns = np.column_stack(
        [doc.space.probabilities, *(rv.values for rv in doc.payoffs.values())]
    )
    atoms = ",\n".join([atom] * len(columns)) % tuple(columns.ravel().tolist())
    return "[\n" + atoms + "\n  ]"


def _level_text(atoms: np.ndarray, sizes: np.ndarray) -> str:
    """One level of the filtration, a cell per line, from its flat atom
    indices and cell sizes."""
    cells = list(map(str, atoms.tolist()))
    if sizes.size != atoms.size:  # not every cell a single atom
        ends = np.cumsum(sizes).tolist()
        cells = [", ".join(cells[a:b]) for a, b in zip([0] + ends[:-1], ends)]
    if not cells:
        return "[]"
    return "[\n      [" + "],\n      [".join(cells) + "]\n    ]"


def document_to_text(doc: TreeDocument) -> str:
    """The document as JSON text, laid out as :func:`dumps_17g` lays out the
    same object: floats at 17 significant digits, metadata values as
    strings."""
    filtration = doc.filtration
    levels = ",\n".join(
        "    " + _level_text(*filtration.level(t)) for t in range(filtration.horizon + 1)
    )
    metadata = {str(k): str(v) for k, v in doc.metadata.items()}
    return (
        f'{{\n  "schema_version": {SCHEMA_VERSION},\n'
        f'  "atoms": {_atoms_text(doc)},\n'
        f'  "filtration": [\n{levels}\n  ],\n'
        f'  "metadata": {dumps_17g(metadata, 1)}\n}}\n'
    )


def _number_error(path: str, x) -> str | None:
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return f"{path}: expected a number"
    try:
        float(x)
    except OverflowError:
        return f"{path}: number out of range"
    return None


def _first_atom_error(atoms: list) -> str | None:
    """The first problem in the atoms list, atom by atom and field by field
    (None if there is none)."""
    names = None
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            return f"atoms[{i}]: expected an object"
        problem = _number_error(f"atoms[{i}].probability", atom.get("probability"))
        if problem:
            return problem
        payoffs = atom.get("payoffs", {})
        if not isinstance(payoffs, dict):
            return f"atoms[{i}].payoffs: expected an object"
        if names is None:
            names = list(payoffs)
        elif list(payoffs) != names:
            return f"atoms[{i}].payoffs: names differ from atoms[0]"
        for n in names:
            problem = _number_error(f"atoms[{i}].payoffs[{n!r}]", payoffs[n])
            if problem:
                return problem
    return None


_NUMBER_TYPES = {int, float}


def _atom_columns(atoms: list):
    """The probabilities and each payoff as float arrays, or None unless every
    atom is an object of numbers, all with the same payoff names in order.

    Every check is one C-level pass over a column and builds no tuple or dict per atom;
    json only makes exact dict, list, int, float and bool objects, so comparing
    types is exact (and excludes bool, which is not an int here).
    """
    if set(map(type, atoms)) != {dict}:
        return None
    probs = list(map(dict.get, atoms, itertools.repeat("probability")))
    payoffs = list(map(dict.get, atoms, itertools.repeat("payoffs"), itertools.repeat({})))
    if not set(map(type, probs)) <= _NUMBER_TYPES or set(map(type, payoffs)) != {dict}:
        return None
    names = list(payoffs[0])
    if list(itertools.chain.from_iterable(payoffs)) != names * len(payoffs):
        return None
    columns = {n: [d[n] for d in payoffs] for n in names}
    if not all(set(map(type, c)) <= _NUMBER_TYPES for c in columns.values()):
        return None
    try:
        return (
            np.array(probs, dtype=float),
            {n: np.array(c, dtype=float) for n, c in columns.items()},
        )
    except OverflowError:  # an integer literal beyond double range
        return None


def _read_level(t: int, level) -> Level | list:
    """A level of the document, its cells checked to be lists and converted by
    :func:`~distrisk.space._integer_level`; left as it is where an int does not
    fit an int32, for :func:`validate` to report."""
    if not isinstance(level, list):
        raise ParseError(f"filtration[{t}]: expected a list of cells")
    if set(map(type, level)) <= {list}:
        try:
            return _integer_level(level)
        except DomainError:
            if set(map(type, itertools.chain.from_iterable(level))) <= {int}:
                return level
    k = next(k for k, cell in enumerate(level)
             if type(cell) is not list or not set(map(type, cell)) <= {int})
    raise ParseError(f"filtration[{t}][{k}]: expected a list of atom indices")


def document_from_text(text: str) -> TreeDocument:
    """Parse and check a tree document.

    Each part is checked in bulk first; only when a check fails is the part
    walked entry by entry, to report the first bad entry by its position.
    Each level is converted once, to int32 arrays that :func:`validate` checks
    and :class:`Filtration` then keeps.  The cyclic garbage collector is paused
    while reading (the parsed JSON holds a container per atom and per cell,
    and no cycle) and then left as the caller had it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read(text)
    finally:
        if enabled:
            gc.enable()


def _read(text: str) -> TreeDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError:  # an integer literal longer than the interpreter converts
        raise ParseError(
            f"integer literal longer than {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply") from None
    if not isinstance(raw, dict):
        raise ParseError("top level: expected an object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    atoms = raw.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        raise ParseError("atoms: expected a non-empty list")
    columns = _atom_columns(atoms)
    if columns is None:
        raise ParseError(_first_atom_error(atoms))
    probs, values = columns
    levels = raw.get("filtration")
    if not isinstance(levels, list) or not levels:
        raise ParseError("filtration: expected a non-empty list of partitions")
    levels = [_read_level(t, level) for t, level in enumerate(levels)]
    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("metadata: expected an object")
    problems = validate(probs, levels, *values.values())
    if problems:
        raise ParseError("; ".join(problems))
    payoffs = {n: RandomVariable(v) for n, v in values.items()}
    return TreeDocument(ScenarioSpace(probs), Filtration(levels), payoffs, dict(metadata))
