"""Text interchange format for scenario trees and deterministic reports.

A tree document is a JSON object with a schema_version, a list of atoms
(probability plus named payoffs), an explicit filtration as atom-index
partitions, and a free-form metadata map.  Serialization uses 17 significant
digits so doubles round-trip exactly and repeated runs are byte-identical.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .space import DomainError, Filtration, RandomVariable, ScenarioSpace, validate

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


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return repr(x)


def dumps_17g(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits; insertion order kept.

    An iterator is written as an array of non-scalar items, rendered one item
    at a time, so the items need not all exist at once.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dumps_17g(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)) and all(
        isinstance(v, (int, float, str, bool)) or v is None for v in obj
    ):
        return "[" + ", ".join(dumps_17g(v) for v in obj) + "]"
    if isinstance(obj, (list, tuple, Iterator)):
        items = [f"{pad}  {dumps_17g(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, (int, str)):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def document_to_text(doc: TreeDocument) -> str:
    names = list(doc.payoffs)
    atoms = (
        {
            "probability": float(doc.space.probabilities[i]),
            "payoffs": {n: float(doc.payoffs[n].values[i]) for n in names},
        }
        for i in range(doc.space.n_atoms)
    )
    body = {
        "schema_version": SCHEMA_VERSION,
        "atoms": atoms,
        "filtration": (
            [list(cell) for cell in level] for level in doc.filtration.partitions
        ),
        "metadata": {str(k): str(v) for k, v in doc.metadata.items()},
    }
    return dumps_17g(body) + "\n"


def document_from_text(text: str) -> TreeDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError("top level: expected an object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    atoms = raw.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        raise ParseError("atoms: expected a non-empty list")
    probs = []
    payoff_names: list[str] | None = None
    columns: dict[str, list[float]] = {}
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            raise ParseError(f"atoms[{i}]: expected an object")
        p = atom.get("probability")
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise ParseError(f"atoms[{i}].probability: expected a number")
        probs.append(float(p))
        payoffs = atom.get("payoffs", {})
        if not isinstance(payoffs, dict):
            raise ParseError(f"atoms[{i}].payoffs: expected an object")
        if payoff_names is None:
            payoff_names = list(payoffs)
            columns = {n: [] for n in payoff_names}
        elif list(payoffs) != payoff_names:
            raise ParseError(f"atoms[{i}].payoffs: names differ from atoms[0]")
        for n in payoff_names:
            v = payoffs[n]
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ParseError(f"atoms[{i}].payoffs[{n!r}]: expected a number")
            columns[n].append(float(v))
    levels = raw.get("filtration")
    if not isinstance(levels, list) or not levels:
        raise ParseError("filtration: expected a non-empty list of partitions")
    for t, level in enumerate(levels):
        if not isinstance(level, list):
            raise ParseError(f"filtration[{t}]: expected a list of cells")
        for k, cell in enumerate(level):
            if not isinstance(cell, list) or not all(
                isinstance(j, int) and not isinstance(j, bool) for j in cell
            ):
                raise ParseError(
                    f"filtration[{t}][{k}]: expected a list of atom indices"
                )
    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("metadata: expected an object")
    problems = validate(probs, levels, *columns.values())
    if problems:
        raise ParseError("; ".join(problems))
    try:
        space = ScenarioSpace(np.asarray(probs))
        filtration = Filtration(levels)
        payoffs_rv = {n: RandomVariable(np.asarray(v)) for n, v in columns.items()}
    except DomainError as e:
        raise ParseError(str(e)) from None
    if filtration.n_atoms != space.n_atoms:
        raise ParseError("filtration: atom count differs from the atoms list")
    for n, rv in payoffs_rv.items():
        if rv.values.size != space.n_atoms:
            raise ParseError(f"payoff {n!r}: wrong length")
    return TreeDocument(space, filtration, payoffs_rv, dict(metadata))
