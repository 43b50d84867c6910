"""Self-test of the benchmark: python3 perfbench/selftest.py

1. The oracle rejects results that are off by a small amount: a perturbed
   risk, a shifted quantile, a dcai index moved off the acceptance boundary
   and a flipped checker verdict each fail verification.
2. For each workload, two traced runs with the same seed report identical
   exact counters (calls, dcai exit kinds, family calls, bytes) and no
   failed operation, and every run reports exactly the metrics and units
   that BENCHMARK.json declares.

Exits 0 when every assertion holds.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracle
import workloads as wl

HERE = Path(__file__).resolve().parent

COUNT_UNITS = ("count", "bytes")


def oracle_rejects_perturbations() -> None:
    tree = wl.many_cells_tree(7)
    checker = wl.Checker(tree)
    laws = checker.laws(12)
    rho = laws.choquet(oracle.distortion("minvar:2"))
    op = wl.Op("evaluate_s", "choquet", (12, "minvar:2"))
    assert checker.verify(op, rho, {})
    bad = rho.copy()
    bad[17] += 1e-6 * max(1.0, abs(bad[17]))
    assert not checker.verify(op, bad, {})

    q = laws.quantile_upper(wl.ALPHA)
    op = wl.Op("quantile_s", "quantile_upper", (12, wl.ALPHA))
    assert checker.verify(op, q, {})
    assert not checker.verify(op, laws.quantile_lower(0.9), {})

    dlaws = checker.laws(8)
    lo = np.full(dlaws.n_cells, oracle.X_MIN)
    hi = np.full(dlaws.n_cells, oracle.X_MAX)
    floor = dlaws.family_rho("minvar", lo) > 0
    cap = dlaws.family_rho("minvar", hi) <= 0
    while np.max(hi - lo) > 0.5 * oracle.BISECT_TOL:  # bisection on all cells at once
        mid = 0.5 * (lo + hi)
        accept = dlaws.family_rho("minvar", mid) <= 0
        lo, hi = np.where(accept, mid, lo), np.where(accept, hi, mid)
    index = np.where(floor, 0.0, np.where(cap, np.inf, lo))
    op = wl.Op("dcai_s", "dcai", (8, "minvar"))
    assert checker.verify(op, index, {})
    interior = np.flatnonzero(np.isfinite(index) & (index > 0))
    assert interior.size, "expected interior indices on many-cells"
    moved = index.copy()
    moved[interior[0]] *= 1.001
    assert not checker.verify(op, moved, {})

    psi = oracle.distortion(wl.CHECK_PSI)
    rho_t = checker.laws(11).choquet(psi)
    verdict, cell = oracle.weak_acceptance(rho_t, laws.choquet(psi), checker.parent(11, 12))
    op = wl.Op("check_s", "weak_acceptance", (11, 12, wl.CHECK_PSI))
    good = {"margins": rho_t, "verdict": verdict,
            "witness": None if cell is None else {"cell": cell}}
    assert checker.verify(op, good, {})
    flipped = dict(good, verdict="holds" if verdict == "violated" else "violated")
    assert not checker.verify(op, flipped, {})
    print("oracle rejects perturbed results: ok")


def run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, (workload, result["failed"])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared, workload
    return result["metrics"]


def counters_repeat() -> None:
    """Also checks that every run reports exactly the metrics BENCHMARK.json
    declares, with their units."""
    for workload in ("many-cells", "big-cell", "cli"):
        run(workload, 5, 0)
        first, second = (
            {k: m["value"] for k, m in run(workload, 5, 1).items() if m["unit"] in COUNT_UNITS}
            for _ in range(2)
        )
        assert first == second, (workload, first, second)
        assert first["space.conditional_distribution.calls"] > 0
        print(f"{workload}: {len(first)} counters repeat exactly")


if __name__ == "__main__":
    oracle_rejects_perturbations()
    counters_repeat()
    print("selftest passed")
