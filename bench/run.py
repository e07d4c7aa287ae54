#!/usr/bin/env python3
"""Benchmark of partfrac: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a partfrac source tree; the program is imported from
``src/``.  The run repeats whole passes over the workload's cases until S
seconds have gone by (at least three passes), checks every output with the
independent checker in ``checker.py``, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer
ones, recorded by ``tracing.py``.  Result files and the span dump go to
``bench/out/<workload>/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checker
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Default run length: the one BENCHMARK.json fixes.
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

WORKLOADS = ("proper_symbolic", "improper_symbolic", "small_verified", "cli")
# Set-ups per run, half before the timed passes and half after them, so the
# median of setup_s spans the run as pass_s does.
SETUP_REPEATS = 40
MIN_PASSES = 3
STARTUP_REPEATS = 5
VERIFY_SEED = 271828
# check_by_substitution (trials, points per trial) for the in-process
# verification; small inputs get more points, large ones one point.
VERIFY_EFFORT = {"small_verified": (1, 2), "proper_symbolic": (1, 1), "improper_symbolic": (1, 1)}
# Sample points for the independent checker on inputs with symbols.
CHECK_POINTS = {"small_verified": 3, "proper_symbolic": 2, "improper_symbolic": 2, "cli": 3}

E2E_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "verify_pass_s": "s",
    "case_p50_s": "s",
    "case_p95_s": "s",
    "output_bytes": "B",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "combinatorics.compositions_s": "s",
    "core.contributions_s": "s",
    "core.compositions": "count",
    "core.contributions": "count",
    "core.pruned": "count",
    "core.merge_s": "s",
    "core.cancelled_keys": "count",
    "core.pole_terms": "count",
    "core.monomial_terms": "count",
    "core.batch_merge_s": "s",
    "core.poly_div_s": "s",
    "core.spec_s": "s",
    "expr.nodes_total": "count",
    "expr.nodes_distinct": "count",
    "expr.expand_s": "s",
    "parser.parse_s": "s",
    "output.render_s": "s",
    "output.write_s": "s",
    "output.bytes": "B",
    "output.flushes": "count",
    "output.peak_pending": "B",
    "oracle.substitution_s": "s",
    "oracle.compare_s": "s",
    "oracle.points": "count",
    "cli.startup_s": "s",
    "cli.run_s": "s",
    "trace.pass_s": "s",
    "trace.overhead": "ratio",
}
# Self time of these span names gives the metric of the same row.
SELF_TIME = {
    "combinatorics.compositions_s": "combinatorics.compositions",
    "core.contributions_s": "core.contributions",
    "core.merge_s": "core.decompose_proper",
    "core.batch_merge_s": "core.decompose_batch",
    "core.spec_s": "core.spec",
    "expr.expand_s": "expr.expand",
    "parser.parse_s": "parser.parse",
    "output.render_s": "output.render",
    "output.write_s": "output.write_streaming",
    "oracle.substitution_s": "oracle.check_by_substitution",
    "oracle.compare_s": "oracle.compare_with_oracle",
    "cli.run_s": "cli.run",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ------------------------------------------------------------------ setup


def setup(workload: str, seed: int):
    """Import partfrac afresh, make the inputs and warm up on the worked
    example.  Returns (seconds, package, cases)."""
    gc.collect()
    t0 = perf_counter()
    for name in [m for m in sys.modules if m == "partfrac" or m.startswith("partfrac.")]:
        del sys.modules[name]
    pf = importlib.import_module("partfrac")
    importlib.import_module("partfrac.cli")
    cases = workloads.make(workload, seed)
    roots = pf.parser.parse_root_list("-1,-2,-3")
    spec = pf.core.RationalFunctionSpec(0, tuple((r, 1) for r in roots))
    pf.output.serialize(pf.core.decompose(spec))
    return perf_counter() - t0, pf, cases


# --------------------------------------------------------------- checking


class Ledger:
    """Operations attempted and failed.  The first pass's outputs go
    through the checker after the timed work; every later pass must
    reproduce them byte for byte."""

    def __init__(self, workload: str, seed: int):
        self.points = CHECK_POINTS[workload]
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, bytes] = {}
        self.repeats: dict[str, int] = {}  # passes that reproduced the reference
        self.pending: list[tuple[str, object, bytes]] = []  # (label, case, text)
        self.messages: list[str] = []

    def record(self, label: str, case, text: bytes | None, why: str = "") -> None:
        """One operation: ``text`` is what it wrote (None if nothing),
        ``why`` a reason it failed."""
        self.attempted += 1
        if why or text is None:
            self._fail(label, why or "operation failed")
        elif label not in self.reference:
            self.reference[label] = text
            self.repeats[label] = 1
            self.pending.append((label, case, text))
        elif self.reference[label] != text:
            self._fail(label, "output differs from the first pass")
        else:
            self.repeats[label] += 1

    def _fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{label}: {why}")

    def check_pending(self) -> None:
        for i, (label, case, text) in enumerate(self.pending):
            errors = checker.check(
                text.decode("ascii", "replace"), case.fmt, case.problem,
                seed=self.seed * 1000 + i, points=self.points,
            )
            if errors:  # fails every pass that wrote this text
                self.failed += self.repeats[label]
                self.messages.append(f"{label}: " + "; ".join(errors[:3]))
        self.pending.clear()


# ---------------------------------------------------- in-process workloads


class InProcess:
    """proper_symbolic, improper_symbolic and small_verified: root text ->
    parse -> spec -> decompose -> result file, then the program's own
    verification, timed apart."""

    def __init__(self, pf, cases, outdir: Path, workload: str, ledger: Ledger):
        self.pf = pf
        self.cases = cases
        self.outdir = outdir
        self.trials, self.points = VERIFY_EFFORT[workload]
        self.ledger = ledger

    def run_case(self, case, path: Path):
        core, parser, output = self.pf.core, self.pf.parser, self.pf.output
        p = case.problem
        t0 = perf_counter()
        roots = parser.parse_root_list(",".join(p.roots))
        factors = tuple(zip(roots, p.mults))
        if case.is_batch:
            spec = None
            d = core.decompose_batch(
                [(parser.parse_expr(w), core.RationalFunctionSpec(l, factors)) for w, l in p.numerator]
            )
        else:
            spec = core.RationalFunctionSpec(p.numerator[0][1], factors)
            d = core.decompose(spec)
        with open(path, "wb") as sink:
            written = output.write_decomposition(
                d, sink, output.OutputFormat(mode=case.fmt), output.StreamBuffer()
            )
        return spec, d, perf_counter() - t0, written

    def verify(self, spec, d) -> bool:
        oracle = self.pf.oracle
        report = oracle.check_by_substitution(
            spec, d, trials=self.trials, seed=VERIFY_SEED, points_per_trial=self.points
        )
        ok = report.passed
        if all(isinstance(r, self.pf.expr.Constant) for r in spec.roots):
            ok = oracle.compare_with_oracle(spec, d) is None and ok
        return ok

    def one_pass(self) -> dict:
        latencies, results = [], []
        written = 0
        t0 = perf_counter()
        for case in self.cases:
            path = self.outdir / f"{case.label}.out"
            try:
                spec, d, dt, n = self.run_case(case, path)
            except Exception as err:  # a program fault fails this operation only
                results.append((case, None, None, f"{type(err).__name__}: {err}"))
                continue
            latencies.append(dt)
            written += n
            results.append((case, spec, d, ""))
        pass_s = perf_counter() - t0
        t1 = perf_counter()
        verdicts = []
        for case, spec, d, why in results:
            if d is None or spec is None:  # a fault, or a batch (no single spec)
                verdicts.append(why)
                continue
            try:
                verdicts.append("" if self.verify(spec, d) else "the program's verification failed")
            except Exception as err:
                verdicts.append(f"verification raised {type(err).__name__}: {err}")
        verify_s = perf_counter() - t1
        for (case, _, d, _), why in zip(results, verdicts):
            text = (self.outdir / f"{case.label}.out").read_bytes() if d is not None else None
            self.ledger.record(case.label, case, text, why)
        return {"pass_s": pass_s, "verify_s": verify_s, "latencies": latencies, "bytes": written}

    def in_process_pass(self, tracer=None) -> float:
        """One pass; returns its pass time.  The tracer, if any, is already
        installed in the modules."""
        return self.one_pass()["pass_s"]


# -------------------------------------------------------------- cli workload


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


class Cli:
    """One ``python -m partfrac`` child per invocation, one at a time."""

    def __init__(self, pf, invocations, outdir: Path, ledger: Ledger):
        self.pf = pf
        self.invocations = invocations
        self.outdir = outdir
        self.ledger = ledger
        self.env = child_env()

    def _argv(self, inv) -> list[str]:
        return [*inv.args, "--output", str(self.outdir / f"{inv.label}.out")]

    def _judge(self, inv, code: int, stdout: bytes, stderr: bytes) -> tuple[bytes | None, str]:
        path = self.outdir / f"{inv.label}.out"
        if code != 0:
            return None, f"exit status {code}: {stderr.decode(errors='replace')[-200:]}"
        text = path.read_bytes()
        if stdout != text:
            return text, "stdout differs from the result file"
        if inv.verify and b"verification passed" not in stderr:
            return text, "--verify did not report a pass"
        return text, ""

    def one_pass(self) -> dict:
        latencies = {}
        outcomes = []
        t0 = perf_counter()
        for inv in self.invocations:
            t = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "partfrac", *self._argv(inv)],
                cwd=self.outdir, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            latencies[inv.label] = perf_counter() - t
            outcomes.append((inv, proc))
        pass_s = perf_counter() - t0
        written = 0
        for inv, proc in outcomes:
            text, why = self._judge(inv, proc.returncode, proc.stdout, proc.stderr)
            written += len(text or b"")
            self.ledger.record(inv.label, inv, text, why)
        # verification time as the user sees it: the same input with and
        # without --verify
        return {"pass_s": pass_s, "verify_s": latencies["verify"] - latencies["plain"],
                "latencies": list(latencies.values()), "bytes": written}

    def in_process_pass(self, tracer=None) -> float:
        """Every invocation through ``cli.run`` in this process; returns the
        wall time.  Used by the traced run."""
        t0 = perf_counter()
        for inv in self.invocations:
            out, err = io.StringIO(), io.StringIO()
            argv = self._argv(inv)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = tracer.call("cli.run", self.pf.cli.run, argv) if tracer else \
                        self.pf.cli.run(argv)
            except Exception as exc:  # a program fault fails this operation only
                self.ledger.record(inv.label, inv, None, f"{type(exc).__name__}: {exc}")
                continue
            text, why = self._judge(inv, code, out.getvalue().encode(), err.getvalue().encode())
            self.ledger.record(inv.label, inv, text, why)
        return perf_counter() - t0

    def startup_s(self) -> float:
        times = []
        for _ in range(STARTUP_REPEATS):
            t = perf_counter()
            subprocess.run([sys.executable, "-c", "import partfrac.cli"], cwd=self.outdir,
                           env=self.env, check=True)
            times.append(perf_counter() - t)
        return statistics.median(times)


# ------------------------------------------------------------------ metrics


def node_counts(pf, decompositions) -> tuple[int, int]:
    """(tree nodes counting repeats, distinct node objects) over the
    coefficients of ``decompositions``."""
    expr = pf.expr
    sizes: dict[int, tuple[object, int]] = {}

    def size(node) -> int:
        hit = sizes.get(id(node))
        if hit is not None:
            return hit[1]
        if isinstance(node, expr.Sum):
            n = 1 + sum(size(t) for t in node.terms)
        elif isinstance(node, expr.Product):
            n = 1 + sum(size(f) for f in node.factors)
        elif isinstance(node, expr.Power):
            n = 1 + size(node.base)
        else:
            n = 1
        sizes[id(node)] = (node, n)
        return n

    total = sum(size(t.coefficient) for d in decompositions for t in (*d.monomials, *d.poles))
    return total, len(sizes)


def layer_metrics(pf, tracer, first: int, traced_s: float) -> dict[str, float]:
    self_s = tracer.self_times(first)
    counts = tracer.counts
    m = {name: self_s.get(span, 0.0) for name, span in SELF_TIME.items()}
    if "cli.run" in self_s:  # cli.run_s is the whole call, not its self time
        m["cli.run_s"] = sum(e - s for n, s, e, _ in tracer.spans[first:] if n == "cli.run")
    m["core.poly_div_s"] = tracer.improper_division_time(first)
    m["core.compositions"] = counts["core.compositions"]
    m["core.contributions"] = counts["core.contributions"]
    m["core.pruned"] = counts["core.compositions"] - counts["core.contributions"]
    m["core.cancelled_keys"] = counts["core.cancelled_keys"]
    m["core.pole_terms"] = sum(len(d.poles) for d in tracer.results)
    m["core.monomial_terms"] = sum(len(d.monomials) for d in tracer.results)
    m["expr.nodes_total"], m["expr.nodes_distinct"] = node_counts(pf, tracer.results)
    m["output.bytes"] = counts["output.bytes"]
    m["output.flushes"] = counts["output.flushes"]
    m["output.peak_pending"] = tracer.peak_pending
    m["oracle.points"] = counts["oracle.points"]
    m["trace.pass_s"] = traced_s
    return m


def end_to_end(setup_times, passes, peak_rss_kb) -> dict[str, float]:
    latencies = [t for p in passes for t in p["latencies"]]
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "verify_pass_s": statistics.median(p["verify_s"] for p in passes),
        "case_p50_s": statistics.median(latencies),
        "case_p95_s": percentile(latencies, 0.95),
        "output_bytes": passes[0]["bytes"],
        "peak_rss_mb": peak_rss_kb / 1024,
    }


# --------------------------------------------------------------------- main


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    outdir = BENCH / "out" / workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)

    setup_times = []
    for _ in range(SETUP_REPEATS // 2):
        dt, pf, cases = setup(workload, seed)
        setup_times.append(dt)
    ledger = Ledger(workload, seed)
    runner = Cli(pf, cases, outdir, ledger) if workload == "cli" else \
        InProcess(pf, cases, outdir, workload, ledger)

    t_start = perf_counter()
    if not trace:
        passes = []
        while len(passes) < MIN_PASSES or perf_counter() - t_start < seconds:
            gc.collect()  # every pass starts from the same heap
            passes.append(runner.one_pass())
        who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        peak_rss_kb = resource.getrusage(who).ru_maxrss
        setup_times += [setup(workload, seed)[0] for _ in range(SETUP_REPEATS - len(setup_times))]
        metrics = end_to_end(setup_times, passes, peak_rss_kb)
        units = E2E_UNITS
        log(f"{workload}: {len(passes)} passes, pass_s per pass "
            + " ".join(f"{p['pass_s']:.4f}" for p in passes))
        half = SETUP_REPEATS // 2
        log(f"setup_s median before passes {statistics.median(setup_times[:half]):.4f}, "
            f"after {statistics.median(setup_times[half:]):.4f}")
    else:
        tracer = tracing.Tracer()
        startup = runner.startup_s() if workload == "cli" else 0.0
        plain, layered = [], []
        while len(layered) < MIN_PASSES or perf_counter() - t_start < seconds:
            gc.collect()
            plain.append(runner.in_process_pass())
            gc.collect()
            first = tracer.begin_pass()
            tracer.install(pf)
            try:
                traced_s = runner.in_process_pass(tracer)
            finally:
                tracer.uninstall()
            layered.append(layer_metrics(pf, tracer, first, traced_s))
        metrics = {}
        for name in LAYER_UNITS:
            if name == "cli.startup_s":
                metrics[name] = startup
            elif name == "trace.overhead":
                metrics[name] = metrics["trace.pass_s"] / statistics.median(plain)
            else:  # times: median over traced passes; counts repeat exactly
                values = [m[name] for m in layered]
                metrics[name] = statistics.median(values) if name.endswith("_s") else values[-1]
        units = LAYER_UNITS
        tracer.dump(outdir / "trace.json")
        log(f"{workload}: {len(layered)} traced passes, tracing overhead "
            f"{metrics['trace.overhead']:.3f}x")

    ledger.check_pending()
    for msg in ledger.messages:
        log(f"FAILED {msg}")
    for name, value in metrics.items():
        log(f"  {name:32s} {value:14.6f} {units[name]}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "partfrac" / "__init__.py").is_file():
        log(f"bench: no partfrac source under {SRC}; run from a partfrac source tree")
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
