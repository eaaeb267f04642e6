"""Offline benchmark of the ``siltkit`` command line.

Run from the root of a checkout::

    python3 bench/run.py --workload koszul --seed 1 --seconds 40 --trace 0

Load model: one closed loop.  Each CLI invocation runs alone in a fresh
``python`` child (``bench/child.py``), so no state carries over between
invocations; the driver waits for it before starting the next.  The
inputs are generated from ``--seed`` into a scratch directory inside the
checkout, and siltkit sees only those files and ``--seed``.

A pass runs every invocation of the workload once.  Passes repeat while
the next one is expected to end within ``--seconds``; there is always at
least one.  Every invocation is judged against the known answers
(:mod:`workloads`), every certificate is checked against the sympy oracle
and replayed, and every later pass must reproduce the first byte for byte.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics and the
tracing overhead.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import gate
import layertrace
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH, "child.py")

#: A run must end well inside the 180 s the contract allows.
RUN_BUDGET_S = 165.0
#: Import-only children per run, half before the passes and half after;
#: their set-up times join those of the invocations in setup_s.
SETUP_PROBES = 10


class Run:
    """One benchmark run: its scratch directory, clock and records."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.seed = seed
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        scratch = os.path.join(root, ".bench_work")
        os.makedirs(scratch, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=scratch)
        self.invocations = workloads.build(workload, seed, self.work, root)
        self.setup_s: list[float] = []
        self._count = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.work))

    def child(self, argv: list[str], trace: bool = False) -> dict:
        """Run one child to completion and return its record."""
        self._count += 1
        result = os.path.join(self.work, f"child{self._count}.json")
        command = [sys.executable, CHILD, result, "1" if trace else "0", "--", *argv]
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, env=self.env,
                cwd=self.root, timeout=max(1.0, self.deadline - time.perf_counter()),
            )
        except subprocess.TimeoutExpired:
            return {"error": "timed out", "stdout": "", "code": None}
        if not os.path.exists(result):
            return {"error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}",
                    "stdout": proc.stdout, "code": None}
        with open(result, encoding="utf-8") as handle:
            record = json.load(handle)
        expected = os.path.join(self.root, "src", "siltkit")
        if not os.path.abspath(record["module"]).startswith(expected + os.sep):
            raise SystemExit(f"error: child imported siltkit from {record['module']}")
        record["setup_s"] = record["imported"] - spawned
        record["stdout"] = proc.stdout
        record["spans"] = result + ".spans" if trace else None
        self.setup_s.append(record["setup_s"])
        return record

    def warm_up(self) -> None:
        """Fill the bytecode cache with one untimed import-only child."""
        self.child([])
        self.setup_s.clear()

    def probe_setup(self, count: int) -> None:
        for _ in range(count):
            self.child([])

    def run_pass(self, trace: bool = False) -> list[dict]:
        return [self.child(inv.argv, trace) for inv in self.invocations]

    def timed_passes(self, seconds: float) -> list[list[dict]]:
        start = time.perf_counter()
        passes = []
        while True:
            began = time.perf_counter()
            passes.append(self.run_pass())
            took = time.perf_counter() - began
            if time.perf_counter() - start + took > seconds:
                return passes


# ---------------------------------------------------------------------------
# the correctness gate over whole passes
# ---------------------------------------------------------------------------


def replay(algebra: str, cert: str, seed: int) -> list[str]:
    """Problems of ``siltkit replay`` on one certificate, run in-process."""
    from siltkit.cli import main

    buffer = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buffer):
        try:
            code = main(["replay", algebra, cert, "--format", "structured",
                         "--seed", str(seed)])
        except Exception as exc:  # a crash is a finding, not a harness error
            code, error = None, repr(exc)
    return [f"replay of {os.path.basename(cert)}: {p}"
            for p in gate.judge("replay", ("replay",), code, buffer.getvalue(), error)]


def check_passes(run: Run, passes: list[list[dict]]) -> list[list[list[str]]]:
    """Problems of every record, indexed like ``passes``.

    The certificates on disk are those of the last pass, so their oracle
    and replay findings go to the last pass's record of the invocation.
    """
    oracles = gate.load_oracles(run.root)
    problems = []
    for records in passes:
        found = []
        for inv, rec, first in zip(run.invocations, records, passes[0]):
            wrong = gate.judge(inv.command, inv.required, rec.get("code"),
                               rec["stdout"], rec.get("error"))
            if rec["stdout"] != first["stdout"]:
                wrong.append("report differs from the first pass on the same input")
            found.append(wrong)
        problems.append(found)
    for inv, wrong in zip(run.invocations, problems[-1]):
        with open(inv.algebra, encoding="utf-8") as handle:
            algebra_text = handle.read()
        for path in inv.certs:
            try:
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
            except OSError:
                wrong.append(f"certificate {os.path.basename(path)} was not written")
                continue
            wrong += gate.oracle_problems(oracles, algebra_text, text)
            wrong += replay(inv.algebra, path, run.seed)
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def spread(values: list[float]) -> str:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return "n/a"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{(q3 - q1) / q2:.3f}" if q2 else "n/a"


def end_to_end(run: Run, passes: list[list[dict]]) -> dict[str, tuple[float, str]]:
    """Each end-to-end metric with a note on the samples behind it."""
    walls = [sum(rec.get("wall_s", 0.0) for rec in records) for records in passes]
    rss = [rec["maxrss_kb"] / 1024 for records in passes for rec in records
           if "maxrss_kb" in rec]
    decided = total = 0
    for records in passes:
        for rec in records:
            d, t = gate.decided(rec["stdout"])
            decided, total = decided + d, total + t
    return {
        "wall_s": (statistics.median(walls),
                   f"median of {len(walls)} passes, spread {spread(walls)}"),
        "setup_s": (statistics.median(run.setup_s),
                    f"median of {len(run.setup_s)} children, spread {spread(run.setup_s)}"),
        "peak_rss_mb": (max(rss, default=0.0), f"max of {len(rss)} children"),
        "certified_share": (decided / total if total else 0.0,
                            f"{decided} of {total} verdicts decided"),
    }


def per_layer(records: list[dict]) -> dict[str, float]:
    """Calls, self time, counters and ratios summed over one traced pass."""
    rows: dict[str, dict[str, float]] = {
        layertrace.metric_name(layer, qualname): {"calls": 0, "self_s": 0.0}
        for layer, _, qualname in layertrace.TRACED
    }
    counters: dict[str, int] = {}
    for rec in records:
        if not rec.get("spans"):
            continue
        table, counts = layertrace.summarize(rec["spans"])
        for name, row in table.items():
            rows[name]["calls"] += row["calls"]
            rows[name]["self_s"] += row["self_s"]
        for key, value in counts.items():
            counters[key] = counters.get(key, 0) + value

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    values: dict[str, float] = {}
    for name, row in rows.items():
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_s"] = row["self_s"]
    iso = rows["homotopy.is_isomorphic"]["calls"]
    values.update({
        "linalg.rref.cells": counters.get("linalg.rref.cells", 0),
        "homotopy.HomComplex.repeat_share": share(
            counters.get("homotopy.HomComplex.repeats", 0),
            rows["homotopy.HomComplex"]["calls"]),
        "homotopy.is_isomorphic.search_share": share(
            rows["homotopy.find_isomorphism"]["calls"], iso),
        "homotopy.is_isomorphic.inconclusive_share": share(
            counters.get("homotopy.is_isomorphic.inconclusive", 0), iso),
        "homotopy.find_isomorphism.found_share": share(
            counters.get("homotopy.find_isomorphism.found", 0),
            rows["homotopy.find_isomorphism"]["calls"]),
        "correspond.graded_algebra_isomorphism.found_share": share(
            counters.get("correspond.graded_algebra_isomorphism.found", 0),
            rows["correspond.graded_algebra_isomorphism"]["calls"]),
        "dg.DGAlgebra.verify.nonzero_products": counters.get(
            "dg.DGAlgebra.verify.nonzero_products", 0),
    })
    return values


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = os.getcwd()
    for needed in ("BENCHMARK.json", "src/siltkit/cli/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"error: {needed} not found; run from the root of a siltkit checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(root, "src"))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    run = Run(root, args.workload, args.seed)
    try:
        run.warm_up()
        run.probe_setup(SETUP_PROBES // 2)
        if args.trace:
            passes = [run.run_pass(), run.run_pass(trace=True)]
        else:
            passes = run.timed_passes(args.seconds)
        run.probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
        problems = check_passes(run, passes)
        metrics = per_layer(passes[-1]) if args.trace else end_to_end(run, passes)
    finally:
        run.close()

    attempted = sum(len(found) for found in problems)
    failed = sum(1 for found in problems for wrong in found if wrong)
    print(f"workload {args.workload} (seed {args.seed}): "
          f"{len(run.invocations)} invocations x {len(passes)} passes")
    for p, found in enumerate(problems, start=1):
        for inv, wrong in zip(run.invocations, found):
            for problem in wrong:
                print(f"  WRONG pass {p} {inv.label}: {problem}")
    print(f"  failed_share {failed / attempted:.4f} ({failed} of {attempted})")
    if args.trace:
        untraced = sum(rec.get("wall_s", 0.0) for rec in passes[0])
        traced = sum(rec.get("wall_s", 0.0) for rec in passes[1])
        print(f"  wall_s untraced {untraced:.3f} s, traced {traced:.3f} s, "
              f"tracing overhead {traced - untraced:.3f} s")
        chosen = spec["per_layer"]
        values = {m["name"]: metrics[m["name"]] for m in chosen}
        for m in chosen:
            print(f"  {m['name']:<52} {values[m['name']]:>14.6g} {m['unit']}")
    else:
        chosen = spec["end_to_end"]
        values = {}
        for m in chosen:
            value, note = metrics[m["name"]]
            values[m["name"]] = value
            print(f"  {m['name']:<16} {value:>12.6g} {m['unit']:<6} ({note})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
