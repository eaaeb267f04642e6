"""Self-tests of the benchmark: the gate catches wrong answers, the tracer
restores what it patched, and traced layer counts repeat exactly.

Run from the root of a checkout::

    python3 -m pytest -q bench/test_bench.py

The repeat test runs each workload traced twice, which takes a few minutes;
``-k "not repeat"`` skips it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

KOSZUL_OK = "verdict koszul pass\nverdict pattern pass\nexit 0\n"


def test_gate_accepts_known_answers():
    assert gate.judge("koszul", ("pattern", "koszul"), 0, KOSZUL_OK, None) == []
    undecided = KOSZUL_OK.replace("koszul pass", "koszul not-certified")
    undecided = undecided.replace("exit 0", "exit 3")
    assert gate.judge("koszul", ("pattern", "koszul"), 3, undecided, None) == []
    assert gate.decided(undecided) == (1, 2)


@pytest.mark.parametrize("corrupt", [
    lambda out, code: (out.replace("koszul pass", "koszul fail"), code),
    lambda out, code: (out.replace("koszul pass", "koszul fail").replace(
        "exit 0", "exit 2"), 2),
    lambda out, code: (out.replace("verdict pattern pass\n", ""), code),
    lambda out, code: (out.replace("koszul pass", "koszul maybe"), code),
    lambda out, code: (out, 3),
    lambda out, code: ("", 4),
])
def test_gate_flags_a_corrupted_verdict(corrupt):
    stdout, code = corrupt(KOSZUL_OK, 0)
    assert gate.judge("koszul", ("pattern", "koszul"), code, stdout, None)


def test_gate_flags_a_crash_and_an_unknown_verdict():
    assert gate.judge("koszul", (), None, "", "Traceback\nValueError: x\n")
    assert gate.judge("graph", (), 0, "verdict node0 smc pass\nverdict x pass\nexit 0\n",
                      None)


def test_oracle_accepts_a_true_table_and_flags_a_corrupted_one(tmp_path):
    from siltkit.cli import main

    algebra = tmp_path / "a3.alg"
    algebra.write_text(workloads.linear_algebra(3))
    pair = tmp_path / "std.pair"
    pair.write_text(workloads.standard_pair(3))
    out = tmp_path / "out"
    assert main(["verify", "--pattern", str(algebra), str(pair), "--out", str(out)]) == 0
    cert = (out / "pattern.cert").read_text()
    oracles = gate.load_oracles(ROOT)
    assert gate.oracle_problems(oracles, algebra.read_text(), cert) == []
    corrupted = cert.replace("hom S1 T1 0 1", "hom S1 T1 0 2")
    assert corrupted != cert
    assert gate.oracle_problems(oracles, algebra.read_text(), corrupted)


def test_tracer_restores_every_binding():
    import siltkit.cli
    from siltkit.homotopy.homs import HomComplex

    def bindings():
        return {
            (name, attr): value
            for name, mod in sys.modules.items() if name.startswith("siltkit")
            for attr, value in vars(mod).items() if callable(value)
        }

    before = bindings()
    init = HomComplex.__dict__["__init__"]
    tracer = layertrace.Tracer()
    tracer.install()
    assert siltkit.cli.cmd_graph is not before[("siltkit.cli", "cmd_graph")]
    assert HomComplex.__dict__["__init__"] is not init
    tracer.uninstall()
    assert bindings() == before
    assert HomComplex.__dict__["__init__"] is init


def _traced_counts(workload: str, seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    return {
        name: entry["value"] for name, entry in result["metrics"].items()
        if name.endswith((".calls", ".cells", "_share", ".nonzero_products"))
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_counts_repeat_for_the_same_seed(workload):
    first = _traced_counts(workload, 7)
    assert first == _traced_counts(workload, 7)
