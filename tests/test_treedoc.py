"""Tree documents: the reader's messages, `validate` against its set-based
oracle, and the writer against its `dumps_17g`-based oracle.

CASES pins the exact message for one document per kind of problem, and for
documents with two problems, which one is reported.  The reader's own
mechanics are pinned too: the garbage collector paused while it reads and
restored after, and each level converted once to int32 arrays that
`validate` and `Filtration` share.
"""

import gc
import json

import numpy as np
import pytest

import bruteforce
from distrisk import (
    DistortionMeasure,
    Filtration,
    RandomVariable,
    ScenarioSpace,
    build_nonmiddle_example,
    build_weakacc_continuous,
    build_weakacc_pprime,
    validate,
)
from distrisk import space, treedoc
from distrisk.space import Level
from distrisk.treedoc import (
    ParseError,
    TreeDocument,
    document_from_text,
    document_to_text,
    dumps_17g,
)

DROP = object()
LEVELS = [[[0, 1, 2]], [[0, 1], [2]], [[0], [1], [2]]]


def atoms(*changes):
    """Three good atoms, with (index, field, value) changes: a None field
    replaces the whole atom, a DROP value deletes the field."""
    out = [
        {"probability": p, "payoffs": {"X": x}}
        for p, x in ((0.25, 1.0), (0.5, 2.0), (0.25, 3.0))
    ]
    for i, key, value in changes:
        if key is None:
           out[i] = value
        elif value is DROP:
           del out[i][key]
        else:
           out[i][key] = value
    return out


def text(**fields):
    """A good three-atom document with some top-level fields replaced."""
    body = {"schema_version": 1, "atoms": atoms(), "filtration": LEVELS, "metadata": {}}
    body.update(fields)
    return json.dumps({k: v for k, v in body.items() if v is not DROP})


def levels(partitions, **fields):
    return text(filtration=partitions, **fields)


CASES = [
    ("json-syntax", "{not json",
     "line 1, column 2: Expecting property name enclosed in double quotes"),
    ("json-trailing-comma", '{"schema_version": 1,}',
     "line 1, column 22: Expecting property name enclosed in double quotes"),
    ("top-level", "[1, 2]",
     "top level: expected an object"),
    ("schema-missing", text(schema_version=DROP),
     "schema_version: expected 1, got None"),
    ("schema-wrong", text(schema_version=2),
     "schema_version: expected 1, got 2"),
    ("atoms-missing", text(atoms=DROP),
     "atoms: expected a non-empty list"),
    ("atoms-object", text(atoms={}),
     "atoms: expected a non-empty list"),
    ("atoms-empty", text(atoms=[]),
     "atoms: expected a non-empty list"),
    ("atom-object", text(atoms=atoms((1, None, 3))),
     "atoms[1]: expected an object"),
    ("atom-list", text(atoms=atoms((2, None, [0.5]))),
     "atoms[2]: expected an object"),
    ("probability-string", text(atoms=atoms((1, "probability", "0.5"))),
     "atoms[1].probability: expected a number"),
    ("probability-bool", text(atoms=atoms((1, "probability", True))),
     "atoms[1].probability: expected a number"),
    ("probability-null", text(atoms=atoms((1, "probability", None))),
     "atoms[1].probability: expected a number"),
    ("probability-missing", text(atoms=atoms((2, "probability", DROP))),
     "atoms[2].probability: expected a number"),
    ("payoffs-list", text(atoms=atoms((1, "payoffs", [1.0]))),
     "atoms[1].payoffs: expected an object"),
    ("payoffs-null", text(atoms=atoms((0, "payoffs", None))),
     "atoms[0].payoffs: expected an object"),
    ("names-differ", text(atoms=atoms((1, "payoffs", {"Y": 2.0}))),
     "atoms[1].payoffs: names differ from atoms[0]"),
    ("names-order", text(atoms=atoms(
        (0, "payoffs", {"X": 1.0, "Y": 1.0}), (1, "payoffs", {"Y": 1.0, "X": 1.0}),
        (2, "payoffs", {"X": 1.0, "Y": 1.0}),
        )),
     "atoms[1].payoffs: names differ from atoms[0]"),
    ("names-extra", text(atoms=atoms((2, "payoffs", {"X": 2.0, "Z": 1.0}))),
     "atoms[2].payoffs: names differ from atoms[0]"),
    ("payoffs-missing", text(atoms=atoms((1, "payoffs", DROP))),
     "atoms[1].payoffs: names differ from atoms[0]"),
    ("payoff-string", text(atoms=atoms((1, "payoffs", {"X": "2"}))),
     "atoms[1].payoffs['X']: expected a number"),
    ("payoff-bool", text(atoms=atoms((2, "payoffs", {"X": False}))),
     "atoms[2].payoffs['X']: expected a number"),
    ("payoff-null", text(atoms=atoms((0, "payoffs", {"X": None}))),
     "atoms[0].payoffs['X']: expected a number"),
    ("payoff-name-quoted", text(atoms=[
        {"probability": 0.5, "payoffs": {"it's": 1.0}},
        {"probability": 0.5, "payoffs": {"it's": [2.0]}},
        ]),
     'atoms[1].payoffs["it\'s"]: expected a number'),
    ("filtration-missing", text(filtration=DROP),
     "filtration: expected a non-empty list of partitions"),
    ("filtration-empty", text(filtration=[]),
     "filtration: expected a non-empty list of partitions"),
    ("filtration-object", text(filtration={"0": [[0, 1]]}),
     "filtration: expected a non-empty list of partitions"),
    ("level-object", text(filtration=[[[0, 1]], {"0": [0]}]),
     "filtration[1]: expected a list of cells"),
    ("level-int", text(filtration=[7, [[0], [1]]]),
     "filtration[0]: expected a list of cells"),
    ("cell-int", text(filtration=[[[0, 1]], [[0], 1]]),
     "filtration[1][1]: expected a list of atom indices"),
    ("cell-string-index", text(filtration=[[[0, 1]], [[0], ["1"]]]),
     "filtration[1][1]: expected a list of atom indices"),
    ("cell-float-index", text(filtration=[[[0, 1]], [[0], [1.0]]]),
     "filtration[1][1]: expected a list of atom indices"),
    ("cell-null-index", text(filtration=[[[0, None]], [[0], [1]]]),
     "filtration[0][0]: expected a list of atom indices"),
    ("bool-index", text(filtration=[[[0, 1]], [[0], [True]]]),
     "filtration[1][1]: expected a list of atom indices"),
    ("metadata-list", text(metadata=[]),
     "metadata: expected an object"),
    ("metadata-string", text(metadata="x"),
     "metadata: expected an object"),
    # messages from validate, and from Filtration after it
    ("probability-inf", text(atoms=atoms((1, "probability", 1e400))),
     "probabilities: non-finite entries; "
     "probabilities: sum inf outside renormalization window"),
    ("probability-negative", text(atoms=atoms((1, "probability", -0.5))),
     "probabilities: non-positive entries; "
     "probabilities: sum 0.0 outside renormalization window"),
    ("probability-zero", text(atoms=atoms((0, "probability", 0))),
     "probabilities: non-positive entries; "
     "probabilities: sum 0.75 outside renormalization window"),
    ("probability-sum", text(atoms=atoms((1, "probability", 0.4))),
     "probabilities: sum 0.9 outside renormalization window"),
    ("overlapping", levels([[[0, 1, 2]], [[0, 1], [1, 2]], [[0], [1], [2]]]),
     "partition t=1: not a partition of the atom set"),
    ("missing-atom", levels([[[0, 1, 2]], [[0, 1]], [[0], [1], [2]]]),
     "partition t=1: not a partition of the atom set"),
    ("negative-index", levels([[[0, 1, 2]], [[-1, 0], [1, 2]], [[0], [1], [2]]]),
     "partition t=1: not a partition of the atom set"),
    ("index-out-of-range", levels([[[0, 1, 2]], [[0, 1], [3]], [[0], [1], [2]]]),
     "partition t=1: not a partition of the atom set"),
    ("huge-index", levels([[[0, 1, 2]], [[0, 1], [2 ** 64]], [[0], [1], [2]]]),
     "partition t=1: not a partition of the atom set"),
    ("empty-level", levels([[[0, 1, 2]], [], [[0], [1], [2]]]),
     "partition t=1: not a partition of the atom set"),
    ("every-level-bad", levels([[[0, 1]], [[0, 0], [1, 2]], [[0], [1], [3]]]),
     "partition t=0: not a partition of the atom set; "
     "partition t=1: not a partition of the atom set; "
     "partition t=2: not a partition of the atom set"),
    ("levels-of-fewer-atoms", levels([[[0, 1]], [[0], [1]]]),
     "partition t=0: not a partition of the atom set; "
     "partition t=1: not a partition of the atom set"),
    ("root-split", levels([[[0], [1, 2]], [[0], [1], [2]]]),
     "partition t=0: not the trivial single cell"),
    ("horizon-coarse", levels([[[0, 1, 2]], [[0, 1], [2]]]),
     "partition t=1: does not separate all atoms"),
    ("root-and-horizon", levels([[[0, 1], [2]]]),
     "partition t=0: not the trivial single cell; "
     "partition t=0: does not separate all atoms"),
    ("straddle", text(
        atoms=[{"probability": 0.25, "payoffs": {}}] * 4,
        filtration=[[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0, 2], [1], [3]]],
    ),
     "partition t=2: does not separate all atoms; "
     "refinement t=2: cell (0, 2) straddles cells [0, 1] of t=1"),
    ("straddle-several", text(
        atoms=[{"probability": 0.125, "payoffs": {"X": float(i)}} for i in range(8)],
        filtration=[
            [list(range(8))], [[0, 1, 2], [3, 4], [5, 6, 7]],
            [[7, 0, 3], [1, 2], [4, 5], [6]], [[i] for i in range(8)],
        ],
    ),
     "refinement t=2: cell (7, 0, 3) straddles cells [0, 1, 2] of t=1; "
     "refinement t=2: cell (4, 5) straddles cells [1, 2] of t=1"),
    ("payoff-inf", text(atoms=atoms((2, "payoffs", {"X": -1e400}))),
     "payoff 0: non-finite values"),
    ("empty-cell", levels([[[0, 1, 2]], [[0, 1], [], [2]], [[0], [1], [2]]]),
     "partition t=1: not a partition of the atom set"),
    ("several-problems", levels(
        [[[0, 1], [2]], [[0, 1], [2]]],
        ).replace('"probability": 0.25', '"probability": 0.3'),
     "probabilities: sum 1.1 outside renormalization window; "
     "partition t=0: not the trivial single cell; "
     "partition t=1: does not separate all atoms"),
    # the first bad atom, and its first bad field, wins; then filtration, metadata
    ("two-atoms-payoff-then-probability", text(atoms=atoms(
        (1, "payoffs", {"X": "2"}), (2, "probability", "x"),
        )),
     "atoms[1].payoffs['X']: expected a number"),
    ("two-atoms-names-then-object", text(atoms=atoms(
        (1, "payoffs", {"Y": 2.0}), (2, None, 3),
        )),
     "atoms[1].payoffs: names differ from atoms[0]"),
    ("two-atoms-payoffs-then-probability", text(atoms=atoms(
        (0, "payoffs", []), (1, "probability", True),
        )),
     "atoms[0].payoffs: expected an object"),
    ("one-atom-probability-then-payoff", text(atoms=atoms(
        (1, "probability", None), (1, "payoffs", {"X": None}),
        )),
     "atoms[1].probability: expected a number"),
    ("payoff-before-later-names", text(atoms=atoms(
        (1, "payoffs", {"X": True}), (2, "payoffs", {"Y": 1.0}),
        )),
     "atoms[1].payoffs['X']: expected a number"),
    ("probability-inf-then-payoff-bool", text(atoms=atoms(
        (0, "probability", 1e400), (2, "payoffs", {"X": True}),
        )),
     "atoms[2].payoffs['X']: expected a number"),
    ("atom-before-filtration", text(
        atoms=atoms((2, "probability", "x")), filtration=7, metadata=[],
    ),
     "atoms[2].probability: expected a number"),
    ("cell-then-level", text(filtration=[[[0, 1]], [[0], [False]], 5]),
     "filtration[1][1]: expected a list of atom indices"),
    ("first-bad-cell", text(filtration=[[[0, 1]], [[0], [1], "a", [True]]]),
     "filtration[1][2]: expected a list of atom indices"),
    ("filtration-before-metadata", text(filtration=[[[0, 1]], [[0], ["1"]]], metadata=[]),
     "filtration[1][1]: expected a list of atom indices"),
    ("metadata-before-validate", levels([[[0, 1, 2]], [[0, 1], [1]]], metadata=[]),
     "metadata: expected an object"),
]


@pytest.mark.parametrize("doc, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_document_message(doc, message):
    with pytest.raises(ParseError) as err:
        document_from_text(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("doc, message", [
    (text(atoms=atoms((1, "probability", DROP))).replace(
        '{"payoffs": {"X": 2.0}}', '{"payoffs": {"X": 2.0}, "probability": 1' + "0" * 400 + "}"
    ), "atoms[1].probability: number out of range"),
    (text().replace("3.0", "-1" + "0" * 400), "atoms[2].payoffs['X']: number out of range"),
    (text().replace("3.0", "1" + "0" * 400).replace("0.5", "true"),
     "atoms[1].probability: expected a number"),
    (text().replace("0.25", "1" + "0" * 5000, 1),
     "integer literal longer than 4300 digits"),
    (levels([[[0, 1, 2]], [[0, 1], [2 ** 64]], [[0], [1], [-2 ** 70]]]),
     "partition t=1: not a partition of the atom set; "
     "partition t=2: not a partition of the atom set"),
    ('{"atoms": ' + "[" * 100000 + "]" * 100000 + "}",
     "arrays or objects nested too deeply"),
], ids=["probability", "payoff", "earlier-atom-first", "digit-limit", "index", "nesting"])
def test_parser_limits_reported(doc, message):
    with pytest.raises(ParseError) as err:
        document_from_text(doc)
    assert str(err.value) == message


READS = [
    ("good", text()),
    ("json-syntax", "{not json"),
    ("nesting", '{"atoms": ' + "[" * 100000 + "]" * 100000 + "}"),
    ("bad-atom", text(atoms=atoms((1, "probability", True)))),
    ("bad-level", levels([[[0, 1, 2]], [[0, 1], [2.5]], [[0], [1], [2]]])),
    ("not-a-partition", levels([[[0, 1, 2]], [[0, 1], [2 ** 40]], [[0], [1], [2]]])),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("doc", [r[1] for r in READS], ids=[r[0] for r in READS])
def test_collector_paused_while_reading_and_restored(doc, enabled, monkeypatch):
    during = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s: during.append(gc.isenabled()) or loads(s))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            document_from_text(doc)
        except ParseError:
            pass
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]


def test_levels_converted_once_to_shared_int32_arrays(monkeypatch):
    """Each level is converted once, to int32 arrays, by the strict converter
    that validate also calls: validate checks the arrays first, and the
    Filtration built next, which the document keeps, holds the same arrays."""
    partitions = [[[2, 0, 1]], [[1], [0, 2]], [[2], [0], [1]]]
    want = Filtration(partitions)
    calls = []

    def spy(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls.append((name, args))
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    assert treedoc._integer_level is space._integer_level
    spy(space, "_integer_level")  # as validate calls it
    spy(treedoc, "_integer_level")  # as the reader calls it
    spy(treedoc, "validate")
    spy(treedoc, "Filtration")
    got = document_from_text(levels(partitions)).filtration
    convert = ["_integer_level"] * 3
    assert [name for name, _ in calls] == convert + ["validate"] + convert + ["Filtration"]
    assert [args[0] for _, args in calls[:3]] == partitions
    checked, given = calls[3][1][1], calls[-1][1][0]
    assert checked is given
    assert all(type(level) is Level for level in given)
    # validate's own calls pass the reader's Levels through
    assert all(args[0] is level for (_, args), level in zip(calls[4:7], given))
    for t in range(3):
        assert got.level(t) is given[t]
        arrays = (*got.level(t), got.cell_of_atom(t))
        for a, b in zip(arrays, (*want.level(t), want.cell_of_atom(t))):
            assert a.dtype == np.int32 and not a.flags.writeable
            assert np.array_equal(a, b)


def test_atoms_without_payoffs():
    doc = document_from_text(text(atoms=[{"probability": p} for p in (0.25, 0.5, 0.25)]))
    assert doc.payoffs == {}
    assert np.array_equal(doc.space.probabilities, [0.25, 0.5, 0.25])


@pytest.mark.parametrize("index, message", [
    (2 ** 31, "partition t=1: not a partition of the atom set"),
    (2 ** 63, "partition t=1: not a partition of the atom set"),
    (True, "filtration[1][1]: expected a list of atom indices"),
    (1.0, "filtration[1][1]: expected a list of atom indices"),
], ids=["int32-overflow", "int64-overflow", "true", "float"])
def test_level_entry_beyond_int32_or_not_an_int(index, message):
    with pytest.raises(ParseError) as err:
        document_from_text(levels([[[0, 1, 2]], [[0, 1], [index]], [[0], [1], [2]]]))
    assert str(err.value) == message


def counterexample_trees():
    mu = DistortionMeasure(np.array([0.25, 1.0]), np.array([0.5, 0.5]))
    return [
        build_nonmiddle_example(), build_weakacc_pprime(2.0),
        build_weakacc_continuous(mu, 10000),
    ]


class TestValidateOracle:
    def test_fixture_pool(self, fixture_pool):
        for space, filtration, X in fixture_pool:
            inputs = (space.probabilities, filtration.partitions, X.values)
            assert validate(*inputs) == bruteforce.validate(*inputs) == []

    def test_counterexample_trees(self):
        for ce in counterexample_trees():
            inputs = (ce.space.probabilities, ce.filtration.partitions, ce.X.values)
            assert validate(*inputs) == bruteforce.validate(*inputs) == []

    @pytest.mark.parametrize("probabilities, partitions, values", [
        ([0.5, 0.5], [[[0, 1]], [[0, 1], [1]]], ()),
        ([0.5, 0.5], [[[0, 1]], [[0], [0]]], ()),
        ([0.5, 0.5], [[[0]], [[0], [1]]], ()),
        ([0.5, 0.5], [[[0, 1]], [[-1], [0], [1]]], ()),
        ([0.5, 0.5], [[[0, 1]], [[0], [1], [2]]], ()),
        ([0.5, 0.5], [[[0, 1]], [[0], [1, 2 ** 64]]], ()),
        ([0.5, 0.5], [[[0, 1]], [[0], [-2 ** 70, 1]]], ()),
        ([0.5, 0.5], [[[0, 1]], [], [[0], [1]]], ()),
        ([0.5, 0.5], [], ()),
        ([0.5, 0.5], [[[0], [1]], [[0], [1]]], ()),
        ([0.5, 0.5], [[[0, 1], []], [[0], [1]]], ()),
        ([0.5, 0.5], [[[0, 1]], [[0, 1], []]], ()),
        ([0.5, 0.5], [[[0, 1]]], ()),
        ([0.25] * 4, [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0, 2], [1], [3]]], ()),
        ([0.125] * 8, [
            [range(8)], [[0, 1, 2], [3, 4], [5, 6, 7]],
            [[7, 0, 3], [1, 2], [4, 5], [6]], [[6, 7], [3, 4, 5], [0, 1, 2]],
            [[i] for i in range(8)],
        ], ()),
        ([0.25] * 4, [[[0, 1, 2, 3]], [[0, 1], [], [2, 3]], [[3], [1, 2], [0]]], ()),
        ([0.5, 0.5], [[[0, 1]], [[0], [1]]], ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]])),
        ([0.5, 0.5], [[[0, 1]], [[0], [1]]], ([np.nan, 1.0], [1.0, -np.inf], [1.0, 2.0])),
        ([0.4, 0.5], [[[0, 1]], [[0], [1]]], ()),
        ([0.5, 0.5 + 2e-9], [[[0, 1]], [[0], [1]]], ()),
        ([0.5, 0.5 + 5e-10], [[[0, 1]], [[0], [1]]], ()),
        ([np.nan, 0.5], [[[0, 1]], [[0], [1]]], ()),
        ([np.inf, -0.5, 0.0], [[[0, 1, 2]]], ([1.0],)),
        ([], [[[0]]], ([1.0],)),
        ([[0.5, 0.5]], [[[0, 1]]], ()),
        ([0.5, 0.5, -1.0], [[[0, 1]], [[0], [1]]], ([1.0],)),
        ([0.5, 0.5], [((0, 1),), ((0,), (1,))], ((1.0, 2.0),)),
        ([0.5, 0.5], [[np.array([0, 1])], [np.array([1]), np.array([0])]], ()),
        ([0.5, 0.5], [[[0, 1.0]], [[True], [0.5]]], ()),
        ([0.5, 0.5], [[["0", "1"]], [["1"], [0]]], ()),
    ])
    def test_defective_inputs(self, probabilities, partitions, values):
        want = bruteforce.validate(probabilities, partitions, *values)
        assert validate(probabilities, partitions, *values) == want

    @pytest.mark.parametrize("cells", [
        [[0.9], ["1"]], [[0.9], [1]], [[0], ["1"]], [[True], [0]], [[0], [np.True_]],
        [[0], [1.0]], [[0], [np.float64(1.0)]],
        Level(np.array([0.0, 1.0]), np.array([2])), Level(np.array([0, 1]), np.array([2.0])),
        Level([0, 1], [2]), Level(np.array([0, 1], dtype=np.int64), np.array([2], dtype=np.int64)),
    ], ids=["0.9-and-str", "0.9", "str", "true", "numpy-bool", "float", "numpy-float",
            "level-float-atoms", "level-float-sizes", "level-of-lists", "level-int64"])
    def test_non_integer_entry_is_no_partition(self, cells):
        assert validate([0.5, 0.5], [[[0, 1]], cells]) == [
            "partition t=1: not a partition of the atom set"
        ]

    @pytest.mark.parametrize("probabilities, partitions, values, want", [
        ([0.5, 0.5], [[[0, 1]], [0, 1]], (),
         ["partition t=1: not a partition of the atom set"]),
        ([0.5, 0.5], [[[0, None]], [[0], [1]]], (),
         ["partition t=0: not a partition of the atom set"]),
        ([0.5, 0.5], [[[0, 1]], [["a"], [1]], [[0, np.nan], [1]]], (),
         ["partition t=1: not a partition of the atom set",
          "partition t=2: not a partition of the atom set"]),
        ("abc", [[[0]]], (), ["probabilities: not a non-empty vector"]),
        ([[0.5], [0.25, 0.25]], [[[0]]], (), ["probabilities: not a non-empty vector"]),
        ([0.5, 0.5], [[[0, 1]], [[0], [1]]], (["a", "b"], [1.0, {}]),
         ["payoff 0: not a vector of numbers", "payoff 1: not a vector of numbers"]),
        ([1.0], None, (), ["partitions: not a non-empty sequence of levels"]),
        ([1.0], 5, (), ["partitions: not a non-empty sequence of levels"]),
    ])
    def test_garbage_reported_not_raised(self, probabilities, partitions, values, want):
        with pytest.raises((TypeError, ValueError)):
            bruteforce.validate(probabilities, partitions, *values)
        assert validate(probabilities, partitions, *values) == want


def writer_documents(fixture_pool):
    docs = [
        TreeDocument(ce.space, ce.filtration, {"X": ce.X}, {"name": ce.name})
        for ce in counterexample_trees()
    ]
    space, filtration, X = fixture_pool[3]
    docs.append(TreeDocument(space, filtration, {}, {}))
    odd = np.resize([1e-320, 0.1, 1e300, -2.5e-7, 3.0], space.n_atoms)
    names = {'a"b': X, "{x}\u00e9": RandomVariable(odd), "50%s %%": X}
    docs.append(TreeDocument(space, filtration, names, {}))
    metadata = {"n": 3, "x": 1.5, "none": None, "list": [1, "two"], 7: {"k": "v"}}
    docs.append(TreeDocument(
        ScenarioSpace(np.array([0.2, 0.3, 0.5])),
        Filtration([[[2, 0, 1]], [[1], [0, 2]], [[2], [0], [1]]]),
        {"X": RandomVariable(np.array([1.0, -1.0, 0.5]))}, metadata,
    ))
    return docs


def test_writer_matches_oracle(fixture_pool):
    space, filtration, X = fixture_pool[3]
    signed_zero = TreeDocument(space, filtration, {"X": RandomVariable(-0.0 * X.values)}, {})
    for doc in writer_documents(fixture_pool) + [signed_zero]:
        assert document_to_text(doc) == bruteforce.document_to_text(doc)


def test_writer_round_trip(fixture_pool):
    """Reading back gives the written doubles, except that the probabilities
    are renormalized by their floating-point sum; where that sum is exactly
    1 the text reads back and rewrites byte for byte.  (A payoff of -0.0 is
    written as -0, which reads back as 0.0, so none is used here.)"""
    fixed_points = 0
    for doc in writer_documents(fixture_pool):
        written = document_to_text(doc)
        again = document_from_text(written)
        renormalized = ScenarioSpace(doc.space.probabilities).probabilities
        assert np.array_equal(again.space.probabilities, renormalized)
        assert again.filtration.partitions == doc.filtration.partitions
        assert list(again.payoffs) == list(doc.payoffs)
        for name, rv in doc.payoffs.items():
            assert np.array_equal(again.payoffs[name].values, rv.values)
        assert again.metadata == {str(k): str(v) for k, v in doc.metadata.items()}
        if np.array_equal(renormalized, doc.space.probabilities):
            assert document_to_text(again) == written
            fixed_points += 1
    assert fixed_points >= 4


def test_flat_float_list_rendered_as_one_by_one():
    values = [0.1, -0.0, 1e-320, 5e-324, 1e300, 2.0 / 3.0, 1e16, -2.5e-7, 123456789.0, 0.0]
    want = "[" + ", ".join(format(v, ".17g") for v in values) + "]"
    assert dumps_17g(values) == dumps_17g(tuple(values)) == want
    assert dumps_17g(list(np.array(values))) == want  # numpy floats, one by one
    assert dumps_17g([]) == "[]"
    assert dumps_17g([1.5, 2, None, True]) == "[1.5, 2, null, true]"


def test_infinities_written_as_strings_and_nan_refused():
    inf = float("inf")
    report = {"margins": [1.5, inf], "witness": {"index_t": inf, "children": [-inf, 0.5]}}
    text = dumps_17g(report)
    assert json.loads(text, parse_constant=lambda c: pytest.fail(f"bare {c}")) == {
        "margins": [1.5, "inf"], "witness": {"index_t": "inf", "children": ["-inf", 0.5]},
    }
    for bad in (float("nan"), [1.0, float("nan")], {"x": [np.float64("nan")]}):
        with pytest.raises(ValueError, match="NaN"):
            dumps_17g(bad)
