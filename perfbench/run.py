"""Seeded, closed-loop benchmark for distrisk.

    python3 perfbench/run.py --workload {many-cells,big-cell,cli} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository: the program is
imported from the checkout's `src/`.  One caller issues each operation after
the previous one returns.  A run first sets up the workload's inputs
SETUP_REPS times, then repeats full passes over the operations while the
next pass would likely end within S seconds (at least MIN_PASSES passes),
then checks every result against an independent numpy oracle.

Other tenants of a shared machine slow it down by up to 1.7 times in
stretches lasting from a fraction of a second to minutes.  So every measured
item (an operation or a set-up) is bracketed by samples of a fixed reference
kernel (`calibrate.py`) and its time is divided by the machine's slowness
around it; the ops of each metric are spread over the pass (see
`workloads.interleave`); set-up samples are taken between operations all
through the run (up to SETUP_SHARE of the measured time); and reported
timings are medians over passes (set-up: over samples).  Reported timings
are therefore seconds at the reference machine's quiet speed; the record
and the table also give the raw wall-clock medians.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 the run alternates untraced and traced iterations
(one set-up plus one pass each) and reports per-layer figures from the
traced ones.  Lines before it are a human-readable table.  A record of the
run (machine, versions, workload shape, all samples) is written under
`.bench_out/` in the checkout.
"""

import os

# Pin BLAS threads before numpy loads, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402

PERF = tracing.PERF
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
SETUP_SHARE = 0.05
MIN_PASSES = 2  # repeated CLI invocations are compared byte for byte
WORKLOADS = ("many-cells", "big-cell", "cli")
CHILD_MAIN = "import sys; from distrisk.cli import main; sys.exit(main())"


def percentile_stats(samples) -> dict:
    """Median, the highest percentile with at least ten samples above it, and
    the sample count."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "pctl": None, "pctl_value": None}
    if n >= 11:
        out["pctl"] = math.floor(100 * (n - 10) / n)
        out["pctl_value"] = xs[n - 11]
    return out


class LibraryRun:
    """many-cells and big-cell: in-process calls on arrays built from the seed."""

    def __init__(self, name: str, seed: int, dr, tmp: Path) -> None:
        import workloads as wl

        self.wl, self.dr, self.tmp = wl, dr, tmp
        if name == "many-cells":
            self.tree = wl.many_cells_tree(seed)
            self.ops = wl.library_ops([12], [8], (11, 12), (7, 8))
        else:
            self.tree = wl.big_cell_tree(seed)
            self.ops = wl.library_ops([0, 1], [0, 1], (0, 1), (0, 1))
        self.shape = wl.shape_record(self.tree, [op.args[0] for op in self.ops if op.kind != "repro"])
        self.inputs = None

    def build(self) -> float:
        """Build the inputs; the first build is the one every pass uses, so
        that anything the program caches on them stays warm."""
        space = self.dr.space
        t0 = PERF()
        inputs = (
            space.ScenarioSpace(self.tree.p),
            space.Filtration(self.tree.partitions),
            space.RandomVariable(self.tree.x),
        )
        seconds = PERF() - t0
        if self.inputs is None:
            self.inputs = inputs
        return seconds

    def run_op(self, lib, op, traced: bool):
        return self.wl.call_library(self.dr, lib, self.inputs, op, self.tmp)

    def keep(self, op, out):
        """What the checks need from one result, without large objects, so
        that memory does not grow with the number of passes."""
        return out if isinstance(out, Exception) else self.wl.from_library(op, out)

    def traced_iteration(self, tr, timed_pass):
        """One traced set-up plus one traced pass."""
        tr.reset()
        restore = tracing.install(tr, self.dr)
        try:
            self.build()
            return timed_pass(self.wl.Library(self.dr, tr), True)
        finally:
            restore()

    def traced_summary(self, tr) -> dict:
        return tr.summary()

    def traced_spans(self, tr) -> list:
        return tr.span_records()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check(self, passes, failures: list) -> dict:
        checker = self.wl.Checker(self.tree)
        for results in passes:
            norm = {op.label: out for op, out, *_ in results if not isinstance(out, Exception)}
            for op, out, *_ in results:
                if isinstance(out, Exception):
                    failures.append((op.label, "".join(traceback.format_exception_only(out))))
                elif not verified(checker, op, out, norm):
                    failures.append((op.label, "oracle mismatch"))
        values = {op.label: out for op, out, *_ in passes[0] if not isinstance(out, Exception)}
        return diagnostics(self.wl, self.dr, self.ops, values, self.inputs, checker)


class CliRun:
    """cli: one `distrisk` subprocess per operation on a generated document."""

    def __init__(self, seed: int, dr, tmp: Path) -> None:
        import workloads as wl

        self.wl, self.dr, self.tmp = wl, dr, tmp
        self.tree = wl.cli_tree(seed)
        self.ops = wl.cli_ops()
        self.doc = tmp / "tree.json"
        self.shape = wl.shape_record(self.tree, [op.args[0] for op in self.ops if op.kind != "repro"])
        self.shape["document_bytes"] = wl.write_tree_document(self.tree, self.doc)
        self.env = wl.child_env(SRC)
        self._traced_children = []
        wl.run_child(["-c", "import distrisk"], self.env)  # compile bytecode once

    def build(self) -> float:
        rc, _, err, seconds = self.wl.run_child(["-c", "import distrisk"], self.env)
        if rc != 0:
            raise RuntimeError("import distrisk failed: " + err.decode(errors="replace"))
        return seconds

    def run_op(self, lib, op, traced: bool):
        argv = self.wl.cli_argv(op, self.doc, self.tmp)
        if not traced:
            return self.wl.run_child(["-c", CHILD_MAIN, *argv], self.env)[:3]
        trace_path = self.tmp / f"trace-{len(self._traced_children)}.json"
        try:
            return self.wl.run_child([str(HERE / "cli_boot.py"), str(trace_path), *argv], self.env)[:3]
        finally:
            if trace_path.exists():
                self._traced_children.append(json.loads(trace_path.read_text()))

    def keep(self, op, out):
        return out

    def traced_iteration(self, tr, timed_pass):
        """One traced pass: every child runs under the bootstrap."""
        self._traced_children = []
        return timed_pass(None, True)

    def traced_summary(self, tr) -> dict:
        return tracing.merge(self._traced_children)

    def traced_spans(self, tr) -> list:
        return [child.get("spans", []) for child in self._traced_children]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def check(self, passes, failures: list) -> dict:
        wl, dr = self.wl, self.dr
        checker = wl.Checker(self.tree)
        doc = dr.document_from_text(self.doc.read_text(encoding="utf-8"))
        inputs = (doc.space, doc.filtration, doc.payoff("X"))
        lib = wl.Library(dr, None)
        first, reference = {}, {}
        for results in passes:
            parsed = [(op, out, self.parse(op, out)) for op, out, *_ in results]
            norm = {op.label: got for op, _, got in parsed if got is not None}
            for op, out, got in parsed:
                label = op.label
                if got is None:
                    failures.append((label, repr(out) if isinstance(out, Exception) else "no report"))
                    continue
                rc, stdout, err = out
                expect_rc = 0
                if op.kind in ("weak_acceptance", "submartingale"):
                    expect_rc = 0 if got["verdict"] == "holds" else 1
                if rc != expect_rc:
                    failures.append((label, f"exit code {rc}: {err.decode(errors='replace')[-300:]}"))
                    continue
                if first.setdefault(label, stdout) != stdout:
                    failures.append((label, "stdout differs between invocations"))
                    continue
                if label not in reference:
                    try:
                        reference[label] = self.in_process(op, inputs, lib)
                    except Exception as exc:  # counted below as a mismatch
                        reference[label] = exc
                ref = reference[label]
                if isinstance(ref, Exception) or not (
                    got.stdout == ref if op.kind == "repro" else wl.same(got, ref)
                ):
                    failures.append((label, "differs from the in-process library result"))
                elif not verified(checker, op, got, norm):
                    failures.append((label, "oracle mismatch"))
        values = {k: v for k, v in reference.items() if not isinstance(v, Exception)}
        return diagnostics(wl, dr, self.ops, values, inputs, checker)

    def parse(self, op, out):
        """The parsed report of one invocation, or None."""
        if isinstance(out, Exception):
            return None
        rc, stdout, _err = out
        try:
            report = json.loads(stdout)
            if op.kind == "repro":
                path = Path(report["arguments"]["out"])
                return self.wl.written(rc, stdout.decode(), path.read_text(encoding="utf-8"))
            return self.wl.from_report(op, report)
        except (ValueError, KeyError, TypeError, OSError):
            return None

    def in_process(self, op, inputs, lib):
        """The library's answer for one CLI op on the same document."""
        out = self.wl.call_library(self.dr, lib, inputs, op, self.tmp)
        if op.kind == "repro":
            return out[1]
        return self.wl.from_library(op, out)


def verified(checker, op, got, results: dict) -> bool:
    try:
        return checker.verify(op, got, results)
    except Exception:  # a malformed result is a failed op, not the end of the run
        return False


def diagnostics(wl, dr, ops, values: dict, inputs, checker) -> dict:
    """Numerical gaps of one set of results (op label -> normalised value):
    avar against avar_robust, and dwvar against the Choquet risk of the
    distortion its measure generates, both relative to max(1, |value|)."""
    mu_psi = dr.psi_from_measure(wl.Library(dr, None).mu)
    pairs, cross = [], []
    for op in ops:
        got = values.get(op.label)
        if got is None:
            continue
        if op.kind == "avar_pair":
            pairs.append(got)
        elif op.kind == "avar":
            dual = values.get(wl.Op("avar_s", "avar_robust", op.args).label)
            if dual is not None:
                pairs.append((got, dual))
        elif op.kind == "dwvar":
            cross.append((got, dr.risk.choquet(*inputs, op.args[0], mu_psi).cell_values))
    return {
        "risk.max_rel_err": checker.max_rel_err,
        "risk.avar_dual_gap": max((wl.rel_err(*p) for p in pairs), default=0.0),
        "risk.dwvar_cross_gap": max((wl.rel_err(*p) for p in cross), default=0.0),
    }


class Clock:
    """The machine's slowness around each measured item: the mean of the
    reference samples taken just before and just after it (1 when there is
    no reference, as in traced iterations).

    The benchmark and its children stay on one CPU, so that the reference
    samples measure the CPU the items run on.
    """

    def __init__(self, reference) -> None:
        self.reference = reference
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        if reference:
            reference.sample()  # warm-up
        self.before = 1.0
        self.restart()

    def restart(self) -> None:
        """Sample afresh before the next item, after unmeasured work."""
        if self.reference:
            self.before = self.reference.sample()

    def slowness(self) -> float:
        """Call right after a measured item; the sample it takes is also
        the one before the next item."""
        if not self.reference:
            return 1.0
        after = self.reference.sample()
        around, self.before = 0.5 * (self.before + after), after
        return around


def run_pass(run, lib, traced: bool, between_ops, clock: Clock) -> list:
    """One pass over the workload's ops: (op, kept result, seconds, slowness)."""
    results = []
    for op in run.ops:
        between_ops()
        t0 = PERF()
        try:
            out = run.run_op(lib, op, traced)
        except Exception as exc:  # an op that raises is a failed op
            out = exc
        seconds = PERF() - t0
        results.append((op, run.keep(op, out), seconds, clock.slowness()))
    return results


def layer_metrics(summary: dict, import_s: float | None) -> dict:
    """Per-layer figures of one traced iteration."""
    names, counts = summary["names"], summary["counts"]

    def total(name, field="s"):
        return names.get(name, {}).get(field, 0.0)

    out = {
        "space.Filtration.s": total("space.Filtration"),
        "space.conditional_distribution.s": total("space.conditional_distribution"),
        "space.conditional_distribution.calls": total("space.conditional_distribution", "calls"),
        "distortion.psi.calls": total("distortion.psi", "calls"),
        "distortion.psi.s": total("distortion.psi"),
    }
    for fn in tracing.EVALUATORS:
        out[f"risk.{fn}.self_s"] = total("risk." + fn, "self_s")
    out["acceptability.dcai.self_s"] = total("acceptability.dcai", "self_s")
    for kind in ("family_calls", "floor", "interior", "cap"):
        out["acceptability.dcai." + kind] = counts.get("acceptability.dcai." + kind, 0)
    for fn in tracing.CHECKERS:
        out[f"consistency.{fn}.self_s"] = total("consistency." + fn, "self_s")
    for fn in ("document_from_text", "document_to_text", "dumps_17g"):
        out[f"treedoc.{fn}.s"] = total("treedoc." + fn)
    out["treedoc.bytes_in"] = counts.get("treedoc.bytes_in", 0)
    out["treedoc.bytes_out"] = counts.get("treedoc.bytes_out", 0)
    imported = total("cli.import")
    out["cli.import_s"] = imported if imported else import_s
    out["cli.parse_s"] = total("cli.parse")
    out["cli.compute_s"] = total("cli.compute") - total("cli.emit")
    out["cli.emit_s"] = total("cli.emit")
    for layer in tracing.LAYERS:
        out[layer + ".self_s"] = sum(
            rec["self_s"] for name, rec in names.items() if name.split(".")[0] == layer
        )
    return out


UNITS = {"calls": "count", "family_calls": "count", "floor": "count", "interior": "count",
         "cap": "count", "bytes_in": "bytes", "bytes_out": "bytes"}


def unit_of(name: str) -> str:
    if name.startswith("risk.") and not name.endswith("_s"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return UNITS[name.rsplit(".", 1)[1]]


def machine_record(seed: int) -> dict:
    import numpy

    rec = {
        "seed": seed,
        "git_sha": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "llc_bytes": None,
    }
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            rec["git_sha"] = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (-1, None)
    for index in caches.glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        if level > best[0]:
            best = (level, int(size.rstrip("KMG")) * mult)
    rec["llc_bytes"] = best[1]
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    if not (SRC / "distrisk" / "__init__.py").is_file():
        print(f"perfbench: no distrisk sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = PERF()
    import distrisk
    import distrisk.cli  # noqa: F401

    import_s = PERF() - t0
    if Path(distrisk.__file__).resolve().parent != (SRC / "distrisk").resolve():
        print(f"perfbench: imported distrisk from {distrisk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        return measure(ns, distrisk, wl, tmp, import_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(ns, dr, wl, tmp: Path, import_s: float) -> int:
    run = CliRun(ns.seed, dr, tmp) if ns.workload == "cli" else LibraryRun(ns.workload, ns.seed, dr, tmp)
    # The generated inputs (on big-cell, 2^18 one-atom cells as Python lists)
    # are the benchmark's: keep the collector from walking them inside the
    # ops.  Objects the program makes from them are collected as usual.
    gc.freeze()
    # Untraced passes and set-ups are bracketed by reference samples; traced
    # iterations are not, and report raw seconds.
    clock = Clock(None if ns.trace else calibrate.Reference())
    setup_samples = []  # (seconds, slowness)
    for _ in range(SETUP_REPS):
        setup_samples.append((run.build(), clock.slowness()))
    started = PERF()

    def between_ops() -> None:
        if not ns.trace and sum(s for s, _ in setup_samples) < SETUP_SHARE * (PERF() - started):
            setup_samples.append((run.build(), clock.slowness()))

    def timed_pass(lib, traced):
        results = run_pass(run, lib, traced, between_ops, clock)
        raw = {m: 0.0 for m in wl.END_TO_END}
        per = dict(raw)
        for op, _, seconds, slowness in results:
            raw[op.metric] += seconds
            per[op.metric] += seconds / slowness
        raw["pass_s"] = sum(raw.values())
        per["pass_s"] = sum(per.values())
        per["raw"] = raw
        return results, per

    untraced_lib = wl.Library(dr, None)
    passes, timings, layers, spans, laps = [], [], [], [], []
    tr = tracing.Tracer()
    # Stop before a pass (or, traced, an iteration) that would likely end
    # after --seconds; but make at least MIN_PASSES.
    while len(laps) < MIN_PASSES or PERF() - started + statistics.median(laps) <= ns.seconds:
        lap = PERF()
        clock.restart()
        results, per = timed_pass(untraced_lib, False)
        passes.append(results)
        timings.append(per)
        if ns.trace:
            results, per = run.traced_iteration(tr, timed_pass)
            passes.append(results)
            per["traced"] = True
            timings.append(per)
            layers.append(layer_metrics(run.traced_summary(tr), import_s))
            spans = run.traced_spans(tr)
        laps.append(PERF() - lap)
    measured_s = PERF() - started
    untraced = [t for t in timings if not t.get("traced")]
    op_samples: dict = {}
    for results, per in zip(passes, timings):
        if not per.get("traced"):
            for op, _, seconds, slowness in results:
                op_samples.setdefault(op.label, []).append((seconds, slowness))
    traced_pass_s = [t["raw"]["pass_s"] for t in timings if t.get("traced")]
    peak_rss_mb = run.peak_rss_mb()

    failures: list = []
    diagnostics = run.check(passes, failures)
    attempted = sum(len(p) for p in passes)
    failed = len(failures)

    raw = {"setup_s": percentile_stats([x for x, _ in setup_samples])}
    stats = {"setup_s": percentile_stats([x / f for x, f in setup_samples])}
    for m in list(wl.END_TO_END) + ["pass_s"]:
        raw[m] = percentile_stats([t["raw"][m] for t in untraced])
        stats[m] = percentile_stats([t[m] for t in untraced])
    if ns.trace:
        names = list(layers[0])
        metrics = {n: {"value": statistics.median(l[n] for l in layers), "unit": unit_of(n)}
                   for n in names}
        metrics.update({n: {"value": v, "unit": unit_of(n)} for n, v in diagnostics.items()})
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_pass_s) - raw["pass_s"]["median"],
            "unit": "s",
        }
    else:
        metrics = {m: {"value": stats[m]["median"], "unit": "s"} for m in stats}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        metrics["ok_frac"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}

    record = {
        "workload": ns.workload, "trace": ns.trace, "seconds": ns.seconds,
        "machine": machine_record(ns.seed), "shape": run.shape,
        "closed_loop": "one caller, next op issued when the previous returns",
        "measured_s": measured_s, "reference_nominal_s": calibrate.NOMINAL_S,
        "setup_samples": setup_samples, "pass_timings": timings, "op_samples": op_samples,
        "raw_stats": raw, "stats": stats,
        "failures": failures[:50], "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    if ns.trace:
        record["layers_per_iteration"] = layers
        record["diagnostics"] = diagnostics
    stem = f"{ns.workload}-seed{ns.seed}-trace{ns.trace}"
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if ns.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans))

    print_table(ns, stats, raw, metrics, attempted, failed, failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_table(ns, stats, raw, metrics, attempted, failed, failures) -> None:
    print(f"# workload={ns.workload} seed={ns.seed} trace={ns.trace}")
    if not ns.trace:
        print("# seconds at the reference machine's quiet speed; raw = wall-clock median")
        print(f"{'metric':<16}{'median':>14} unit  {'pctl':>5}{'pctl value':>14}{'n':>5}"
              f"{'raw median':>14}")
        for name, st in stats.items():
            pv = "-" if st["pctl"] is None else f"{st['pctl_value']:.6f}"
            pc = "-" if st["pctl"] is None else f"p{st['pctl']}"
            print(f"{name:<16}{st['median']:>14.6f} s     {pc:>5}{pv:>14}{st['n']:>5}"
                  f"{raw[name]['median']:>14.6f}")
        print(f"{'peak_rss_mb':<16}{metrics['peak_rss_mb']['value']:>14.1f} MB")
    else:
        for name, m in metrics.items():
            print(f"{name:<44}{m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':<16}{failed / attempted:>14.6f} ratio  ({failed} of {attempted} ops)")
    for label, why in failures[:10]:
        print(f"FAILED {label}: {why.strip()}")


if __name__ == "__main__":
    sys.exit(main())
