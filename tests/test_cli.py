"""Byte-identity guard for the command-line front end.

Each case runs ``siltkit.cli.main`` in-process with ``--format structured``
and compares the exit code, the exact stdout and the bytes of every file
written to ``--out`` against the files under ``tests/golden/``: stdout in
``<case>.stdout``, written files in the directory ``<case>/``.  The output
directory is replaced by ``<out>`` in stdout, so ``wrote <path>`` lines are
stable.
"""

from __future__ import annotations

import contextlib
import io
import pathlib

import pytest

from siltkit.cli import main

HERE = pathlib.Path(__file__).resolve().parent
INPUTS = HERE.parent / "inputs"
GOLDEN = HERE / "golden"

#: The mutation walk whose first certificate the replay case re-runs.
MUTATE = ["mutate", "{in}/a2.alg", "{in}/std.pair",
          "--at", "2", "--left", "--then", "2", "--right", "--out", "{out}"]

#: (case name, argv with {in} for the inputs directory and {out} for the
#: case's output directory, expected exit code).
CASES = [
    ("verify-pattern-std", ["verify", "--pattern", "{in}/a2.alg", "{in}/std.pair"], 0),
    ("verify-pattern-mismatch", ["verify", "--pattern", "{in}/a2.alg", "{in}/mismatch.pair"], 2),
    ("verify-smc-bad", ["verify", "--smc", "{in}/a2.alg", "{in}/bad.smc"], 2),
    ("mutate-std", MUTATE, 0),
    ("koszul-std", ["koszul", "{in}/a2.alg", "{in}/std.pair"], 0),
    ("koszul-ex46", ["koszul", "{in}/a2.alg", "{in}/ex46.pair"], 0),
    ("koszul-ex47", ["koszul", "{in}/a2.alg", "{in}/ex47.pair"], 0),
    ("koszul-kron", ["koszul", "{in}/kron.alg", "{in}/std.pair"], 3),
    ("dgend-smc-std", ["dgend", "{in}/a2.alg", "{in}/smc-std"], 0),
    ("graph-a2", ["graph", "{in}/a2.alg"], 0),
]


def run_case(argv: list[str], out: pathlib.Path) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, stdout with ``out`` masked, and the files written to ``out``."""
    args = [a.format(**{"in": INPUTS, "out": out}) for a in argv]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(args + ["--format", "structured"])
    stdout = buffer.getvalue().replace(str(out), "<out>")
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return code, stdout, files


def golden(case: str) -> tuple[str, dict[str, bytes]]:
    stdout = (GOLDEN / f"{case}.stdout").read_text(encoding="utf-8")
    root = GOLDEN / case
    files = {p.name: p.read_bytes() for p in sorted(root.iterdir())} if root.is_dir() else {}
    return stdout, files


@pytest.mark.parametrize("case, argv, code", CASES, ids=[c[0] for c in CASES])
def test_structured_output_is_pinned(case, argv, code, tmp_path):
    got = run_case(argv, tmp_path / case)
    assert got == (code, *golden(case))


def test_replay_of_a_mutation_certificate_is_pinned(tmp_path):
    run_case(MUTATE, tmp_path / "mutate")
    got = run_case(["replay", "{in}/a2.alg", str(tmp_path / "mutate" / "step-1.cert")],
                   tmp_path / "replay")
    assert got == (0, *golden("replay-step-1"))
