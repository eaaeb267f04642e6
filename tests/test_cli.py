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
from conftest import linear_algebra_text, standard_pair_text
from siltkit.cli import main
from siltkit.correspond.checks import _closure_search
from siltkit.homotopy.complexes import Generated

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


#: A walk whose mutated smc passes by its provenance grant, which a replay,
#: re-parsing a plain collection, must earn back by a closure search.
KRON_LEFT = ["mutate", "{in}/kron.alg", "{in}/std.pair", "--at", "1", "--left", "--out", "{out}"]


def test_a_replay_that_only_loses_a_pass_is_not_certified(tmp_path):
    """At --depth 1 the closure search of the replayed smc stops short, so
    the replay differs from the certificate only in ``verdict smc``; no
    witness contradicts the certificate, so the replay ends not-certified,
    naming the check and the depth."""
    run_case(KRON_LEFT, tmp_path / "mutate")
    cert = str(tmp_path / "mutate" / "step-1.cert")
    code, stdout, _ = run_case(["replay", "{in}/kron.alg", cert, "--depth", "1"], tmp_path / "r")
    assert code == 3
    lost = "smc is not certified on replay at --depth 1, where the certificate reads pass\n"
    assert lost in stdout
    assert "verdict replay not-certified\n" in stdout
    code, _, _ = run_case(["replay", "{in}/kron.alg", cert], tmp_path / "r")
    assert code == 0


@pytest.mark.parametrize("depth", [[], ["--depth", "1"]], ids=["default-depth", "depth-1"])
def test_a_replay_of_a_changed_hom_dimension_fails(depth, tmp_path):
    run_case(KRON_LEFT, tmp_path / "mutate")
    cert = tmp_path / "mutate" / "step-1.cert"
    text = cert.read_text(encoding="utf-8")
    assert "\nhom S1 T1 0 1\n" in text
    cert.write_text(text.replace("\nhom S1 T1 0 1\n", "\nhom S1 T1 0 2\n"), encoding="utf-8")
    code, stdout, _ = run_case(["replay", "{in}/kron.alg", str(cert), *depth], tmp_path / "r")
    assert code == 2
    assert "verdict replay fail\n" in stdout


def test_an_undeclared_vertex_in_a_complex_is_located(tmp_path, capsys):
    path = tmp_path / "p9.coll"
    path.write_text("complex X {\n  deg 0: P9;\n}\nsilting s = [X]\n", encoding="utf-8")
    code = main(["verify", "--silting", str(INPUTS / "a2.alg"), str(path)])
    assert code == 4
    assert capsys.readouterr().err == (
        "input error: line 2, column 1: vertex '9' is not declared in the quiver\n"
    )


def test_the_projectives_are_silting_at_infinite_global_dimension(tmp_path):
    """The dual numbers (loop2) and the radical-square-zero 3-cycle have
    Cartan determinant 2; their projectives still form a silting
    collection, whose class vectors have determinant 1."""
    collection = tmp_path / "loop2.silt"
    collection.write_text("silting s = [proj(1)]\n", encoding="utf-8")
    runs = [
        ["verify", "--silting", "{in}/loop2.alg", str(collection)],
        ["verify", "--silting", str(GOLDEN / "resolutions" / "cycle3.alg"), "{in}/cycle3.pair"],
    ]
    for n, argv in enumerate(runs):
        code, stdout, _ = run_case(argv, tmp_path / f"run{n}")
        assert code == 0, stdout
        assert "check silting ok class matrix is unimodular :: determinant 1\n" in stdout


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


KOSZUL_A2 = ["koszul", "{in}/a2.alg", "{in}/std.pair"]
MUTATE_A2 = ["mutate", "{in}/a2.alg", "{in}/std.pair", "--at", "1", "--left"]


@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "command"),
        (["bogus", "{in}/a2.alg"], "'bogus'"),
        (KOSZUL_A2 + ["--bogus"], "--bogus"),
        (["koszul", "{in}/a2.alg"], "PAIR"),
        (KOSZUL_A2 + ["extra"], "'extra'"),
        (KOSZUL_A2 + ["--seed"], "--seed"),
        (KOSZUL_A2 + ["--char", "x"], "--char"),
        (KOSZUL_A2 + ["--seed=x"], "--seed"),
        (KOSZUL_A2 + ["--depth", "1.5"], "--depth"),
        (KOSZUL_A2 + ["--format", "xml"], "--format"),
        (KOSZUL_A2 + ["--force"], "--force"),
        (["verify", "{in}/a2.alg", "{in}/std.pair"], "--pattern"),
        (["verify", "--silting", "--smc", "{in}/a2.alg", "{in}/std.pair"], "--smc"),
        (MUTATE_A2 + ["--f", "structured"], "--f"),
        (MUTATE_A2 + ["--force=yes"], "--force"),
    ],
    ids=["no-command", "unknown-command", "unknown-option", "missing-positional",
         "extra-positional", "no-value", "char", "seed", "depth", "format",
         "force-outside-mutate", "verify-no-kind", "verify-two-kinds",
         "ambiguous-prefix", "flag-with-value"],
)
def test_a_malformed_command_line_returns_the_option_error_code(argv, named, capsys):
    code = main([a.format(**{"in": INPUTS}) for a in argv])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("option error: ")
    assert named in line


def run_line(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(**{"in": INPUTS}) for a in argv])
    return code, out.getvalue(), err.getvalue()


GRAPH_KRON = ["graph", "{in}/kron.alg", "--format", "structured"]


@pytest.mark.parametrize(
    "one, other, line",
    [
        (GRAPH_KRON + ["--seed", "7", "--depth", "1"],
         GRAPH_KRON + ["--seed=7", "--depth=1"], "seed 7"),
        (GRAPH_KRON + ["--se", "7", "--dep", "1"],
         GRAPH_KRON + ["--seed", "7", "--depth", "1"], "depth 1"),
        (KOSZUL_A2 + ["--form", "structured"],
         KOSZUL_A2 + ["--format", "structured"], "command koszul"),
        (["graph", "--depth", "1", "--format", "structured", "{in}/kron.alg"],
         GRAPH_KRON + ["--depth", "1"], "depth 1"),
        (["verify", "{in}/a2.alg", "{in}/std.pair", "--pattern", "--format", "structured"],
         ["verify", "--pattern", "{in}/a2.alg", "{in}/std.pair", "--format", "structured"],
         "verdict pattern pass"),
        (["mutate", "--at", "1", "--left", "{in}/a2.alg", "{in}/std.pair", "--format",
          "structured"], MUTATE_A2 + ["--format", "structured"], "verdict step1 pass"),
        (GRAPH_KRON + ["--window", "-1..0", "--depth", "1"],
         GRAPH_KRON + ["--window=-1..0", "--depth", "1"], "window -1..0"),
        (GRAPH_KRON + ["--seed", "3", "--depth", "2", "--seed", "7", "--depth", "1"],
         GRAPH_KRON + ["--seed", "7", "--depth", "1"], "seed 7"),
    ],
    ids=["equals-sign", "prefix", "format-prefix", "options-first", "kind-last",
         "steps-first", "negative-window", "last-wins"],
)
def test_each_spelling_of_an_option_gives_the_same_output(one, other, line):
    got = run_line(one)
    assert got == run_line(other)
    assert got[0] == 0
    assert line in got[1].splitlines()


COMMAND_OPTIONS = {
    "verify": ["--silting", "--smc", "--pattern"],
    "mutate": ["--at", "--then", "--left", "--right", "--force"],
    "dgend": [],
    "koszul": [],
    "graph": [],
    "replay": [],
}


@pytest.mark.parametrize("command", [None, *COMMAND_OPTIONS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_usage_and_exits_zero(command, flag):
    code, out, err = run_line([command, flag] if command else [flag])
    assert (code, err) == (0, "")
    assert out.startswith("usage:\n")
    shown = [command] if command else list(COMMAND_OPTIONS)
    usages = [line.split()[1] for line in out.splitlines() if line.startswith("  siltkit ")]
    assert usages == shown
    shared = ["--char", "--seed", "--depth", "--window", "--format", "--out"]
    assert all(option in out for name in shown for option in shared + COMMAND_OPTIONS[name])


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
    pair.write_text(standard_pair_text(n), encoding="utf-8")
    capsys.readouterr()
    code = main(["koszul", str(algebra), str(pair), "--format", "structured"])
    return code, capsys.readouterr().out.splitlines()


def test_koszul_certifies_the_standard_pair_of_radical_square_zero_a7(tmp_path, capsys):
    """Over seven vertices the idempotents of the two sides are matched
    through the pattern's bijection, with no cap on the vertex count."""
    code, lines = koszul_on_a_linear_standard_pair(tmp_path, capsys, 7, True)
    assert code == 0
    assert "verdict koszul pass" in lines


def test_koszul_certifies_the_standard_pair_of_radical_square_zero_a9(tmp_path, capsys):
    """The resolutions of the simple dg modules run past degree 7 here, so
    both duals are built only when each is resolved to its end."""
    code, lines = koszul_on_a_linear_standard_pair(tmp_path, capsys, 9, True)
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


def test_a_truncated_resolution_is_not_certified_and_names_the_bound(capsys):
    """loop2 has infinite global dimension, so res(simple 1) does not end
    within RESOLUTION_BOUND and is refused; the graph cannot be decided,
    but the input is fine."""
    code = main(["graph", str(INPUTS / "loop2.alg")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "not certified: res(1) is longer than RESOLUTION_BOUND = 12\n"


def test_a_file_error_comes_before_an_unending_resolution(capsys):
    """ex46.silt declares no smc, and over loop2 its res(simple 1) does not
    end: the file's own error wins, with the input-error code."""
    code = main(["verify", "--pattern", str(INPUTS / "loop2.alg"), str(INPUTS / "ex46.silt")])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "input error: expected exactly one smc declaration, found 0\n"


@pytest.mark.parametrize("command, pair", [("koszul", "std.pair"), ("dgend", "smc-std")])
@pytest.mark.parametrize("fmt, unused", [("table", "dg_structured_lines"),
                                         ("structured", "dg_table_lines")])
def test_only_the_body_of_the_asked_format_is_rendered(
    monkeypatch, capsys, command, pair, fmt, unused
):
    def unwanted(*args):
        raise AssertionError(f"{unused} rendered for --format {fmt}")

    monkeypatch.setattr(siltkit.cli, unused, unwanted)
    assert main([command, str(INPUTS / "a2.alg"), str(INPUTS / pair), "--format", fmt]) == 0
    assert capsys.readouterr().out.endswith("exit 0\n")


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


def test_a_closed_stdout_ends_quietly_with_the_verdict_exit_code():
    """A reader that has gone away, as after ``| head -1``, gets no
    traceback: the verdict is decided before the first line is written."""
    src = str(pathlib.Path(siltkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["graph", "inputs/kron.alg", "--window=-1..0", "--depth", "2", "--format", "structured"]
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "siltkit", *argv],
            cwd=INPUTS.parent,
            env={**os.environ, "PYTHONPATH": path},
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, "")


def test_table_output_marks_a_soft_miss_open():
    code, stdout, _ = run_line(["koszul", "{in}/kron.alg", "{in}/std.pair"])
    assert code == 3
    assert "[open]" in stdout
    assert "[FAIL]" not in stdout


def test_table_output_marks_a_hard_failure_fail():
    code, stdout, _ = run_line(["verify", "--smc", "{in}/a2.alg", "{in}/bad.smc"])
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
