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
import os
import pathlib
import subprocess
import sys

import pytest

import siltkit.cli
import siltkit.correspond.checks as checks
from conftest import linear_algebra_text
from siltkit.cli import main
from siltkit.correspond.checks import _closure_search
from siltkit.homotopy.compare import is_isomorphic
from siltkit.homotopy.complexes import (
    Generated,
    cone,
    direct_sum,
    single_projective,
)
from siltkit.homotopy.homs import hom_space

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
    ("verify-smc-std", ["verify", "--smc", "{in}/a2.alg", "{in}/smc-std"], 0),
    ("mutate-std", MUTATE, 0),
    ("koszul-std", ["koszul", "{in}/a2.alg", "{in}/std.pair"], 0),
    ("koszul-ex46", ["koszul", "{in}/a2.alg", "{in}/ex46.pair"], 0),
    ("koszul-ex47", ["koszul", "{in}/a2.alg", "{in}/ex47.pair"], 0),
    ("koszul-kron", ["koszul", "{in}/kron.alg", "{in}/std.pair"], 3),
    ("koszul-a3rel-std3", ["koszul", "{in}/a3rel.alg", "{in}/std3.pair"], 0),
    ("koszul-a3rel-cycle3", ["koszul", "{in}/a3rel.alg", "{in}/cycle3.pair"], 0),
    ("dgend-smc-std", ["dgend", "{in}/a2.alg", "{in}/smc-std"], 0),
    ("graph-a2", ["graph", "{in}/a2.alg"], 0),
    ("graph-kron-depth2", ["graph", "{in}/kron.alg", "--depth", "2"], 0),
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


def test_replay_rejects_a_malformed_seed_header(tmp_path, capsys):
    run_case(MUTATE, tmp_path / "mutate")
    cert = tmp_path / "mutate" / "step-1.cert"
    text = cert.read_text(encoding="utf-8")
    assert "\nseed 0\n" in text
    cert.write_text(text.replace("\nseed 0\n", "\nseed zero\n"), encoding="utf-8")
    capsys.readouterr()
    code = main(["replay", str(INPUTS / "a2.alg"), str(cert)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("input error: line 4, column 1:")
    assert "'zero'" in err


def test_replay_names_the_certificate_line_of_a_bad_entry(tmp_path, capsys):
    """Lines that replay does not re-parse still count, so the error names
    the line of the certificate that holds the bad arrow."""
    run_case(MUTATE, tmp_path / "mutate")
    cert = tmp_path / "mutate" / "step-1.cert"
    lines = cert.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[11] == "  d -1: a;\n"
    lines[11] = "  d -1: zz;\n"
    cert.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    code = main(["replay", str(INPUTS / "a2.alg"), str(cert)])
    assert code == 4
    assert capsys.readouterr().err == "input error: line 12, column 1: unknown arrow 'zz'\n"


def test_an_undeclared_vertex_in_a_complex_is_located(tmp_path, capsys):
    path = tmp_path / "p9.coll"
    path.write_text("complex X {\n  deg 0: P9;\n}\nsilting s = [X]\n", encoding="utf-8")
    code = main(["verify", "--silting", str(INPUTS / "a2.alg"), str(path)])
    assert code == 4
    assert capsys.readouterr().err == (
        "input error: line 2, column 1: vertex '9' is not declared in the quiver\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mutate", "{in}/a2.alg", "{in}/std.pair", "--at", "3", "--left"],
         "--at 3 --left: step 1: index 3 out of range 1..2"),
        (["mutate", "{in}/a2.alg", "{in}/std.pair", "--at", "1", "--left",
          "--then", "5", "--right"],
         "--then 5 --right: step 2: index 5 out of range 1..2"),
        (["mutate", "{in}/a2.alg", "{in}/std.pair", "--at", "x"],
         "--at needs a positive index"),
        (["mutate", "{in}/a2.alg", "{in}/std.pair", "--at", "1"],
         "expected --left or --right after --at 1"),
        (["mutate", "{in}/a2.alg", "{in}/std.pair"],
         "mutate needs at least one --at N --left/--right step"),
        (["koszul", "{in}/a2.alg", "{in}/std.pair", "--window", "x"],
         "--window expects A..B, got 'x'"),
        (["koszul", "{in}/a2.alg", "{in}/std.pair", "--window", "3..1"],
         "--window bounds are reversed: 3..1"),
        (["koszul", "{in}/a2.alg", "{in}/std.pair", "--depth", "-1"],
         "--depth must be nonnegative"),
        (["koszul", "{in}/a2.alg", "{in}/std.pair", "--char", "4"],
         "--char: characteristic must be prime, got 4"),
    ],
    ids=["at-range", "then-range", "at-index", "at-side", "no-step",
         "window-form", "window-order", "depth", "char"],
)
def test_a_bad_option_is_named_without_a_file_position(argv, message, capsys):
    code = main([a.format(**{"in": INPUTS}) for a in argv])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == f"option error: {message}\n"


def _without_hash(cert):
    text = cert.read_text(encoding="utf-8")
    cert.write_text(text.replace("algebra-hash ", "hash "), encoding="utf-8")


@pytest.mark.parametrize(
    "argv, edit, message",
    [
        (["dgend", "{in}/a2.alg", "{golden}/mutate-std/result.pair"], None,
         "line 16, column 1: expected exactly one collection declaration, "
         "found 2, on lines 7 and 16"),
        (["verify", "--pattern", "{in}/a2.alg", "{in}/smc-std"], None,
         "expected exactly one silting declaration, found 0"),
        (["replay", "{in}/kron.alg", "{cert}"], None,
         "line 2, column 1: certificate was computed over a different algebra "
         "(hash mismatch)"),
        (["replay", "{in}/a2.alg", "{cert}", "--char", "3"], None,
         "line 3, column 1: certificate characteristic 0 does not match the "
         "algebra's 3"),
        (["replay", "{in}/a2.alg", "{cert}"], _without_hash,
         "certificate is missing its hash or seed header"),
    ],
    ids=["declarations", "no-declaration", "hash", "characteristic", "no-header"],
)
def test_a_whole_file_error_points_only_at_real_lines(tmp_path, capsys, argv, edit, message):
    """A declaration count or a certificate header is located at the lines
    that hold it, and a missing one carries no position at all."""
    cert = tmp_path / "step-1.cert"
    cert.write_bytes((GOLDEN / "mutate-std" / "step-1.cert").read_bytes())
    if edit:
        edit(cert)
    code = main([a.format(**{"in": INPUTS, "golden": GOLDEN, "cert": cert}) for a in argv])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def koszul_on_a_linear_standard_pair(tmp_path, capsys, n, radical_square_zero):
    """Exit code and stdout lines of ``koszul`` on the standard pair of the
    linear quiver n -> ... -> 1, hereditary or with radical square zero."""
    algebra = tmp_path / f"a{n}.alg"
    algebra.write_text(linear_algebra_text(n, radical_square_zero), encoding="utf-8")
    pair = tmp_path / f"std{n}.pair"
    vertices = range(1, n + 1)
    pair.write_text(
        f"silting std = [{', '.join(f'proj({v})' for v in vertices)}]\n"
        f"smc std = [{', '.join(f'res(simple {v})' for v in vertices)}]\n",
        encoding="utf-8",
    )
    capsys.readouterr()
    code = main(["koszul", str(algebra), str(pair), "--format", "structured"])
    return code, capsys.readouterr().out.splitlines()


def test_koszul_certifies_the_standard_pair_of_radical_square_zero_a7(tmp_path, capsys):
    """Over seven vertices the idempotents of the two sides are matched
    through the pattern's bijection, with no cap on the vertex count."""
    code, lines = koszul_on_a_linear_standard_pair(tmp_path, capsys, 7, True)
    assert code == 0
    assert "verdict koszul pass" in lines


def test_koszul_certifies_the_standard_pair_of_linear_a6(tmp_path, capsys):
    """The duals are built from minimal resolutions of the simples, which
    keeps the hereditary A6 pair small enough for the test suite."""
    code, lines = koszul_on_a_linear_standard_pair(tmp_path, capsys, 6, False)
    assert code == 0
    assert "verdict koszul pass" in lines


def test_graph_reports_truncation_at_the_node_cap(monkeypatch, tmp_path):
    monkeypatch.setattr(siltkit.cli, "GRAPH_NODE_CAP", 3)
    code, stdout, _ = run_case(["graph", "{in}/a2.alg"], tmp_path / "graph")
    lines = stdout.splitlines()
    assert code == 3
    assert "graph nodes 3 edges 4" in lines
    assert "graph truncated GRAPH_NODE_CAP 3" in lines
    assert "verdict graph-cap not-certified" in lines


def test_an_open_dedup_names_the_search_budget(monkeypatch, kronecker, tmp_path):
    p1 = single_projective(kronecker, "1", 0)
    p2 = single_projective(kronecker, "2", 0)
    ra, rb = (cone(f) for f in hom_space(p2, p1, 0).representatives)
    x = direct_sum(direct_sum(ra, ra), direct_sum(rb, rb))
    y = direct_sum(direct_sum(ra, ra), direct_sum(ra, rb))
    monkeypatch.setattr(
        siltkit.cli, "isomorphic_collections", lambda xs, ys: is_isomorphic(x, y)
    )
    code, stdout, _ = run_case(["graph", "{in}/kron.alg", "--depth", "1"], tmp_path / "g")
    lines = stdout.splitlines()
    assert code == 3
    assert "verdict dedup not-certified" in lines
    assert any(
        l.startswith("graph dedup inconclusive") and "SEARCH_BUDGET = 100000" in l
        for l in lines
    )


def test_the_seed_only_reaches_its_own_line(tmp_path):
    argv = ["graph", "{in}/kron.alg", "--depth", "1"]
    _, zero, _ = run_case(argv + ["--seed", "0"], tmp_path / "zero")
    _, nine, _ = run_case(argv + ["--seed", "9"], tmp_path / "nine")
    diff = [(a, b) for a, b in zip(zero.splitlines(), nine.splitlines()) if a != b]
    assert len(zero.splitlines()) == len(nine.splitlines())
    assert diff == [("seed 0", "seed 9")]


def test_python_dash_m_runs_the_command_line():
    src = str(pathlib.Path(siltkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["verify", "--pattern", "inputs/a2.alg", "inputs/std.pair", "--format", "structured"]
    done = subprocess.run(
        [sys.executable, "-m", "siltkit", *argv],
        cwd=INPUTS.parent,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stdout) == (0, golden("verify-pattern-std")[0])


def table_output(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of a run in the default table format."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([a.format(**{"in": INPUTS}) for a in argv])
    return code, buffer.getvalue()


def test_table_output_marks_a_soft_miss_open():
    code, stdout = table_output(["koszul", "{in}/kron.alg", "{in}/std.pair"])
    assert code == 3
    assert "[open]" in stdout
    assert "[FAIL]" not in stdout


def test_table_output_marks_a_hard_failure_fail():
    code, stdout = table_output(["verify", "--smc", "{in}/a2.alg", "{in}/bad.smc"])
    assert code == 2
    assert "[FAIL]" in stdout


@pytest.fixture
def checked(monkeypatch):
    """Every collection handed to check_smc, by the graph or a pattern check."""
    seen = []
    real = checks.check_smc

    def recording(collection, *args, **kwargs):
        seen.append(collection)
        return real(collection, *args, **kwargs)

    monkeypatch.setattr(checks, "check_smc", recording)
    monkeypatch.setattr(siltkit.cli, "check_smc", recording)
    return seen


@pytest.mark.parametrize(
    "argv",
    [["graph", "{in}/a2.alg"], ["graph", "{in}/kron.alg", "--depth", "1"], MUTATE],
    ids=["graph-a2", "graph-kron-depth-1", "mutate-std"],
)
def test_the_closure_search_referees_every_provenance_grant(
    argv, checked, searches, tmp_path
):
    code, _, _ = run_case(argv, tmp_path / "run")
    assert code == 0
    assert checked and all(isinstance(c, Generated) for c in checked)
    assert searches == []
    for collection in checked:
        reached, detail = _closure_search(list(collection), depth=3)
        assert reached, f"{collection.route}: {detail}"


def test_a_replayed_certificate_runs_the_closure_search(tmp_path, searches):
    run_case(MUTATE, tmp_path / "mutate")
    searches.clear()
    code, _, _ = run_case(
        ["replay", "{in}/a2.alg", str(tmp_path / "mutate" / "step-1.cert")],
        tmp_path / "replay",
    )
    assert code == 0
    assert len(searches) == 1
    assert not isinstance(searches[0], Generated)
