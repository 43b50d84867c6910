"""Seeded inputs, the operations of one pass, and their correctness checks.

Three workloads:

- many-cells: binary tree of depth 14 (16,384 atoms), lattice payoff with
  ties.  Per-cell Python overhead and the checkers' parent scans dominate.
- big-cell: 2^18 atoms, levels root / 8 cells / singletons, payoff
  N(0.3, 3) rounded to cents.  Sorting and tie-merging dominate.
- cli: a tree document for the depth-14 tree with a continuous payoff, run
  through `distrisk` subprocesses.  The only workload that reads and writes
  tree documents and pays interpreter start-up.

Each operation is an `Op(metric, kind, args)`.  The library workloads call
distrisk in-process, looking every function up on its module at call time
so that the traced run sees its wrappers.  The cli workload runs one
subprocess per operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
import tracer as tracing

PERF = tracing.PERF
ALPHA = 0.05
DWVAR_MU = "0.05,0.5;0.25,0.3;1,0.2"
EVAL_PSIS = ("minvar:2", "prop_hazard:0.5", "pprime:3")
FAMILIES = ("minvar", "maxvar", "maxminvar", "minmaxvar")
CHECK_PSI = "minvar:2"
MIDDLE_PSI = "prop_hazard:0.5"
IID_COPIES = 3
REPRO_MU = "0.25,0.5;1,0.5"
REPROS = (
    ("weakacc-continuous", ("--mu", REPRO_MU, "--n", "10000")),
    ("nonmiddle", ()),
)
REPRO_PSI = {"weakacc-continuous": oracle.measure_psi(*oracle.parse_measure(REPRO_MU)),
             "nonmiddle": oracle.distortion("prop_hazard:0.5")}
RISK_TOL = 1e-9  # relative to max(1, |expected|)
DEPTH = 14

END_TO_END = ("evaluate_s", "quantile_s", "avar_s", "dwvar_s", "dcai_s", "check_s", "repro_s")


@dataclass(frozen=True)
class Op:
    metric: str
    kind: str
    args: tuple

    @property
    def label(self) -> str:
        return self.kind + "(" + ", ".join(str(a) for a in self.args) + ")"


# -- inputs -------------------------------------------------------------------


@dataclass
class Tree:
    p: np.ndarray
    x: np.ndarray
    cell_of: list  # per time: atom -> cell index
    partitions: list  # per time: list of cells, each a list of atom indices

    def n_cells(self, t: int) -> int:
        return len(self.partitions[t])


def _binary_tree(rng, payoff) -> Tree:
    """Depth-14 binary tree with a random up-probability per node.

    payoff(ups, paths) maps the up-move count and the path bits of each leaf
    to its value.  Atom indices are a seeded permutation of the leaves, so
    cells are not contiguous index ranges.
    """
    n = 1 << DEPTH
    leaf = np.arange(n)
    p = np.ones(n)
    bits = np.empty((DEPTH, n), dtype=np.int64)
    for t in range(DEPTH):
        q = rng.uniform(0.35, 0.65, size=1 << t)
        node = leaf >> (DEPTH - t)
        bits[t] = (leaf >> (DEPTH - 1 - t)) & 1
        p *= np.where(bits[t] == 1, q[node], 1.0 - q[node])
    x = payoff(bits.sum(axis=0), bits)
    perm = rng.permutation(n)  # atom j is leaf perm[j]
    inv = np.argsort(perm)
    cell_of, partitions = [], []
    for t in range(DEPTH + 1):
        cell_of.append(perm >> (DEPTH - t))
        partitions.append(inv.reshape(1 << t, -1).tolist())
    return Tree(p[perm], x[perm], cell_of, partitions)


def many_cells_tree(seed: int) -> Tree:
    rng = np.random.default_rng([seed, 1])
    return _binary_tree(
        rng, lambda ups, bits: 100.0 * 1.02**ups * 0.98 ** (DEPTH - ups) - 100.0
    )


CLI_DCAI_T = 8
CLI_CHECK_TS = (11, 12)


def cli_tree(seed: int) -> Tree:
    """Payoff: an offset per cell at CLI_DCAI_T, plus an up or down increment
    per node below it, plus a little noise.

    The offsets are the same evenly spaced values for every seed, dealt to
    the cells in a seeded order, so the mix of dcai exits over those cells
    (hence the work of dcai there) moves little with the seed; with random
    increments on every level the dcai family calls at t=8 differed by a
    factor of 2.6 between seeds.  The tree is drawn again, from the next sub-seed,
    until weak acceptance holds at CLI_CHECK_TS: a violation stops the
    checker's scan at the first witness cell, which made the work of the
    `check weak-acceptance` command depend on the seed.
    """
    psi = oracle.distortion(CHECK_PSI)
    for attempt in range(100):
        rng = np.random.default_rng([seed, 3, attempt])
        offsets = rng.permutation(np.linspace(-4.5, 5.5, 1 << CLI_DCAI_T))
        steps = {t: rng.normal(0.05, 1.0, size=(1 << t, 2)) for t in range(CLI_DCAI_T, DEPTH)}

        def payoff(ups, bits):
            leaf = np.arange(bits.shape[1])
            total = offsets[leaf >> (DEPTH - CLI_DCAI_T)]
            total = total + sum(steps[t][leaf >> (DEPTH - t), bits[t]] for t in steps)
            return total + rng.normal(0.0, 0.01, bits.shape[1])

        tree = _binary_tree(rng, payoff)
        checker = Checker(tree)
        t, s = CLI_CHECK_TS
        rho_t, rho_s = checker.laws(t).choquet(psi), checker.laws(s).choquet(psi)
        if oracle.weak_acceptance(rho_t, rho_s, checker.parent(t, s))[0] == "holds":
            return tree
    raise RuntimeError(f"no cli tree on which weak acceptance holds for seed {seed}")


def big_cell_tree(seed: int) -> Tree:
    rng = np.random.default_rng([seed, 2])
    n = 1 << 18
    p = rng.uniform(0.5, 1.5, n)
    p /= p.sum()
    x = np.round(rng.normal(0.3, 3.0, n), 2)
    cells = np.sort(rng.permutation(n).reshape(8, -1), axis=1)
    mid = np.empty(n, dtype=np.int64)
    mid[cells] = np.arange(8)[:, None]
    return Tree(
        p, x,
        [np.zeros(n, dtype=np.int64), mid, np.arange(n)],
        [[list(range(n))], cells.tolist(), [[i] for i in range(n)]],
    )


def shape_record(tree: Tree, times) -> dict:
    """Atom count, cells and distinct values per atom at each op time."""
    out = {"atoms": int(tree.x.size), "times": {}}
    for t in sorted(set(times)):
        pairs = np.unique(np.stack([tree.cell_of[t], tree.x]), axis=1).shape[1]
        out["times"][str(t)] = {
            "cells": tree.n_cells(t),
            "distinct_value_ratio": pairs / tree.x.size,
        }
    out["array_bytes"] = int(tree.p.nbytes + tree.x.nbytes + sum(c.nbytes for c in tree.cell_of))
    return out


# -- operations ----------------------------------------------------------------


def library_ops(eval_times, dcai_times, check_ts, rejection_ts) -> list[Op]:
    t, s = check_ts
    ops = []
    for u in eval_times:
        ops += [Op("evaluate_s", "choquet", (u, psi)) for psi in EVAL_PSIS]
        ops.append(Op("evaluate_s", "min_iid_rho", (u, IID_COPIES)))
    for u in eval_times:
        ops += [Op("quantile_s", k, (u, ALPHA)) for k in ("quantile_upper", "quantile_lower", "var")]
    for u in eval_times:
        ops += [Op("avar_s", k, (u, ALPHA)) for k in ("avar", "avar_robust")]
    ops += [Op("dwvar_s", "dwvar", (u, DWVAR_MU)) for u in eval_times]
    ops += [Op("dcai_s", "dcai", (u, fam)) for u in dcai_times for fam in FAMILIES]
    ops += [
        Op("check_s", "submartingale", (t, s, CHECK_PSI)),
        Op("check_s", "super_strict", (t, CHECK_PSI)),
        Op("check_s", "weak_acceptance", (t, s, CHECK_PSI)),
        Op("check_s", "weak_rejection", (*rejection_ts, "minvar")),
        Op("check_s", "middle_rejection", (t, s, MIDDLE_PSI)),
    ]
    ops += [Op("repro_s", "repro", (name,)) for name, _ in REPROS]
    return interleave(ops)


def interleave(ops: list[Op]) -> list[Op]:
    """Round-robin over the metrics: the i-th op of every metric, then the
    (i+1)-th.  Each metric's ops then sample the machine at different
    moments of the pass instead of one stretch of it."""
    groups: dict[str, list[Op]] = {}
    for op in ops:
        groups.setdefault(op.metric, []).append(op)
    longest = max(len(g) for g in groups.values())
    return [g[i] for i in range(longest) for g in groups.values() if i < len(g)]


def cli_ops() -> list[Op]:
    ops = [Op("evaluate_s", "choquet", (12, psi)) for psi in EVAL_PSIS]
    ops += [Op("quantile_s", k, (12, ALPHA)) for k in ("quantile_upper", "quantile_lower", "var")]
    ops += [Op("avar_s", "avar_pair", (12, ALPHA)), Op("dwvar_s", "dwvar", (12, DWVAR_MU))]
    ops += [Op("dcai_s", "dcai", (CLI_DCAI_T, "minvar")), Op("dcai_s", "dcai", (0, "minvar"))]
    ops += [
        Op("check_s", "weak_acceptance", (*CLI_CHECK_TS, CHECK_PSI)),
        Op("check_s", "submartingale", (*CLI_CHECK_TS, CHECK_PSI)),
    ]
    ops += [Op("repro_s", "repro", (name,)) for name, _ in REPROS]
    return interleave(ops)


def repro_argv(name: str, out_dir: Path) -> list[str]:
    extra = dict(REPROS)[name]
    return ["repro", name, *extra, "--out", str(out_dir / f"repro-{name}.json")]


class Library:
    """The distrisk objects one pass needs: distortions, families, measure."""

    def __init__(self, dr, trace: tracing.Tracer | None) -> None:
        wrap = trace.counted if trace else (lambda f: f)
        wrap_family = trace.counted_family if trace else (lambda f: f)
        self.psis = {
            "minvar:2": wrap(dr.MinVar(2.0)),
            "prop_hazard:0.5": wrap(dr.ProportionalHazard(0.5)),
            "pprime:3": wrap(dr.pprime_distortion(3.0)),
        }
        self.families = {
            name: wrap_family(getattr(dr, name + "_family")()) for name in FAMILIES
        }
        s, w = oracle.parse_measure(DWVAR_MU)
        self.mu = dr.DistortionMeasure(np.asarray(s), np.asarray(w))


def call_library(dr, lib: Library, inputs, op: Op, out_dir: Path):
    """Run one op in-process and return its raw result."""
    space, filtration, X = inputs
    risk, cons = dr.risk, dr.consistency
    k, a = op.kind, op.args
    if k == "choquet":
        return risk.choquet(space, filtration, X, a[0], lib.psis[a[1]])
    if k == "avar_pair":
        return risk.avar(space, filtration, X, *a), risk.avar_robust(space, filtration, X, *a)
    if k in ("min_iid_rho", "quantile_upper", "quantile_lower", "var", "avar", "avar_robust"):
        return getattr(risk, k)(space, filtration, X, a[0], a[1])
    if k == "dwvar":
        return risk.dwvar(space, filtration, X, a[0], lib.mu)
    if k == "dcai":
        return dr.acceptability.dcai(space, filtration, X, a[0], lib.families[a[1]])
    if k == "submartingale":
        return cons.check_submartingale(space, filtration, X, lib.psis[a[2]], a[0], a[1])
    if k == "super_strict":
        return cons.check_super_strict_failure(space, filtration, X, lib.psis[a[1]], a[0])
    if k == "weak_acceptance":
        return cons.check_weak_acceptance(space, filtration, X, lib.psis[a[2]], a[0], a[1])
    if k == "weak_rejection":
        return cons.check_weak_rejection_dcai(
            space, filtration, X, lib.families[a[2]], a[0], a[1]
        )
    if k == "middle_rejection":
        return cons.middle_rejection_probe(space, filtration, X, lib.psis[a[2]], a[0], a[1])
    if k == "repro":
        # The same command the cli workload runs, through the in-process entry
        # point, then the written document read back.
        argv = repro_argv(a[0], out_dir)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = dr.cli.main(argv)
        with open(argv[-1], encoding="utf-8") as fh:
            text = fh.read()
        return rc, buf.getvalue(), text, dr.treedoc.document_from_text(text)
    raise ValueError(op.kind)


def cli_argv(op: Op, doc: Path, out_dir: Path) -> list[str]:
    k, a = op.kind, op.args
    if k == "repro":
        return repro_argv(a[0], out_dir)
    base = [str(doc), "--payoff", "X", "--t", str(a[0])]
    if k == "choquet":
        return ["evaluate", *base, "--distortion", a[1]]
    if k in ("quantile_upper", "quantile_lower"):
        return ["quantile", *base, "--alpha", str(a[1]), "--side", k.split("_")[1]]
    if k == "var":
        return ["var", *base, "--alpha", str(a[1])]
    if k == "avar_pair":
        return ["avar", *base, "--alpha", str(a[1])]
    if k == "dwvar":
        return ["dwvar", *base, "--measure", a[1]]
    if k == "dcai":
        return ["dcai", *base, "--family", "family:" + a[1]]
    prop = {"weak_acceptance": "weak-acceptance", "submartingale": "submartingale"}[k]
    return ["check", *base, "--property", prop, "--distortion", a[2],
            "--s", str(a[1]), "--expect", "holds"]


# -- normalised results --------------------------------------------------------


def from_library(op: Op, result):
    """Library result -> plain values comparable with a parsed CLI report."""
    if op.kind == "repro":
        return written(*result)
    if isinstance(result, tuple):
        return tuple(np.asarray(r.cell_values, dtype=float) for r in result)
    if hasattr(result, "verdict"):
        return {"margins": np.asarray(result.margins, dtype=float),
                "verdict": result.verdict, "witness": result.witness}
    return np.asarray(result.cell_values, dtype=float)


def from_report(op: Op, report: dict):
    r = report["results"]
    k = op.kind
    if k in ("weak_acceptance", "submartingale"):
        return {"margins": np.asarray(r["margins"], dtype=float),
                "verdict": r["verdict"], "witness": r["witness"]}
    if k == "avar_pair":
        return np.asarray(r["avar"]), np.asarray(r["avar_dual"])
    if k == "dcai":
        return np.asarray([math.inf if v == "inf" else v for v in r["index"]], dtype=float)
    key = {"choquet": "risk", "quantile_upper": "quantile", "quantile_lower": "quantile"}
    return np.asarray(r[key.get(k, k)], dtype=float)


def same(a, b) -> bool:
    """Exact equality of two normalised results."""
    if isinstance(a, tuple):
        return all(same(u, v) for u, v in zip(a, b))
    if isinstance(a, dict):
        return (a["verdict"] == b["verdict"] and np.array_equal(a["margins"], b["margins"])
                and a["witness"] == b["witness"])
    return a.shape == b.shape and np.array_equal(a, b)


# -- oracle checks -------------------------------------------------------------


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)), initial=0.0))


class Checker:
    """Compares normalised results with the oracle on the generated tree."""

    def __init__(self, tree: Tree) -> None:
        self.tree = tree
        self._laws: dict = {}
        self.max_rel_err = 0.0

    def laws(self, t: int, x=None) -> oracle.Laws:
        if x is not None:
            return oracle.Laws(self.tree.p, x, self.tree.cell_of[t], self.tree.n_cells(t))
        if t not in self._laws:
            self._laws[t] = self.laws(t, self.tree.x)
        return self._laws[t]

    def parent(self, t: int, s: int) -> np.ndarray:
        first = np.empty(self.tree.n_cells(s), dtype=np.int64)
        first[self.tree.cell_of[s]] = np.arange(self.tree.x.size)
        return self.tree.cell_of[t][first]

    def cond_mean(self, t: int, atom_values) -> np.ndarray:
        c, p = self.tree.cell_of[t], self.tree.p
        n = self.tree.n_cells(t)
        return np.bincount(c, p * atom_values, n) / np.bincount(c, p, n)

    def _close(self, got, want) -> bool:
        err = rel_err(got, want)
        self.max_rel_err = max(self.max_rel_err, err)
        return err <= RISK_TOL

    def _report(self, got: dict, margins, verdict) -> bool:
        v, cell = verdict
        return (self._close(got["margins"], margins) and got["verdict"] == v
                and (got["witness"] or {}).get("cell") == cell)

    def verify(self, op: Op, got, results: dict) -> bool:
        """results maps the labels of the same pass to normalised values."""
        k, a = op.kind, op.args
        if k == "repro":
            return self.verify_repro(a[0], got)
        laws = self.laws(a[0])
        if k == "choquet":
            return self._close(got, laws.choquet(oracle.distortion(a[1])))
        if k == "min_iid_rho":
            return self._close(got, laws.choquet(lambda y: 1.0 - (1.0 - y) ** a[1]))
        if k == "quantile_upper":
            return np.array_equal(got, laws.quantile_upper(a[1]))
        if k == "quantile_lower":
            return np.array_equal(got, laws.quantile_lower(a[1]))
        if k == "var":
            return np.array_equal(got, -laws.quantile_upper(a[1]))
        if k in ("avar", "avar_robust"):
            return self._close(got, laws.tail_mean(a[1]))
        if k == "avar_pair":
            return all(self._close(g, laws.tail_mean(a[1])) for g in got)
        if k == "dwvar":
            return self._close(got, laws.dwvar(*oracle.parse_measure(a[1])))
        if k == "dcai":
            return got.shape == (laws.n_cells,) and bool(np.all(oracle.dcai_sandwich(laws, a[1], got)))
        t = a[0]
        if k == "super_strict":
            psi = oracle.distortion(a[1])
            margins = laws.choquet(psi) + laws.mean()
            const = laws.constant()
            ok = np.where(const, np.abs(margins) <= oracle.LEQ_TOL, margins > oracle.LEQ_TOL)
            bad = np.flatnonzero(~ok)
            verdict = ("violated", int(bad[0])) if bad.size else ("holds", None)
            return self._report(got, margins, verdict)
        s = a[1]
        if k == "weak_rejection":
            a_t = got["margins"]
            a_s = results.get(Op("dcai_s", "dcai", (s, a[2])).label)
            if a_s is None or not bool(np.all(oracle.dcai_sandwich(self.laws(s), a[2], a_s))):
                return False
            if not bool(np.all(oracle.dcai_sandwich(laws, a[2], a_t))):
                return False
            v, cell = oracle.weak_rejection(a_t, a_s, self.parent(t, s))
            return got["verdict"] == v and (got["witness"] or {}).get("cell") == cell
        psi = oracle.distortion(a[2])
        rho_t = laws.choquet(psi)
        rho_s = self.laws(s).choquet(psi)
        if k == "submartingale":
            margins = rho_t - self.cond_mean(t, rho_s[self.tree.cell_of[s]])
            return self._report(got, margins, oracle.verdict_min(margins, -oracle.SUBMARTINGALE_TOL))
        if k == "weak_acceptance":
            return self._report(got, rho_t, oracle.weak_acceptance(rho_t, rho_s, self.parent(t, s)))
        if k == "middle_rejection":
            y = -rho_s[self.tree.cell_of[s]]
            margins = rho_t - self.laws(t, y).choquet(psi)
            return self._report(got, margins, oracle.verdict_min(margins, -oracle.LEQ_TOL))
        raise ValueError(k)

    def verify_repro(self, name: str, got: "Written") -> bool:
        """A repro report against the document it wrote."""
        if got.rc != 0 or got.doc_ok is False:
            return False
        report = json.loads(got.stdout)
        res = report["results"]
        if report["input_digest"] != got.digest:
            return False
        if not res["match"] or not res["max_error"] <= min(e["tolerance"] for e in res["expected"]):
            return False
        for label, values in res["computed"].items():
            cell_of = got.cell_of[int(label.split("_")[1])]
            want = oracle.Laws(got.p, got.x, cell_of, int(cell_of.max()) + 1).choquet(REPRO_PSI[name])
            if not self._close(values, want):
                return False
        return True


@dataclass
class Written:
    """What the checks need from one repro command: its exit code and stdout,
    and the document it wrote, reduced to arrays."""

    rc: int
    stdout: str
    digest: str
    p: np.ndarray
    x: np.ndarray
    cell_of: list
    doc_ok: bool | None  # the read-back document equals the file; None if not read back


def written(rc: int, stdout: str, text: str, doc=None) -> Written:
    raw = json.loads(text)
    p = np.asarray([atom["probability"] for atom in raw["atoms"]])
    x = np.asarray([atom["payoffs"]["X"] for atom in raw["atoms"]])
    cell_of = []
    for level in raw["filtration"]:
        c = np.empty(x.size, dtype=np.int64)
        for k, cell in enumerate(level):
            c[cell] = k
        cell_of.append(c)
    doc_ok = None
    if doc is not None:
        doc_ok = (
            np.array_equal(doc.payoff("X").values, x)
            and np.allclose(doc.space.probabilities, p, rtol=1e-15, atol=0.0)
            and [list(map(list, lvl)) for lvl in doc.filtration.partitions] == raw["filtration"]
        )
    digest = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    return Written(rc, stdout, digest, p, x, cell_of, doc_ok)


def write_tree_document(tree: Tree, path: Path) -> int:
    """The benchmark's own writer for the cli workload's input document."""
    body = {
        "schema_version": 1,
        "atoms": [
            {"probability": float(p), "payoffs": {"X": float(x)}}
            for p, x in zip(tree.p, tree.x)
        ],
        "filtration": tree.partitions,
        "metadata": {"name": "perfbench-cli"},
    }
    text = json.dumps(body, indent=1)
    path.write_text(text, encoding="utf-8")
    return len(text.encode())


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], env: dict) -> tuple[int, bytes, bytes, float]:
    t0 = PERF()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=150)
    return proc.returncode, proc.stdout, proc.stderr, PERF() - t0
