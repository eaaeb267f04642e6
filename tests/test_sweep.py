"""Theory answers on whole families of pairs, run through ``siltkit.cli.main``.

The standard pair of every algebra in ``inputs/`` and
``tests/golden/resolutions/`` satisfies the pattern (Koenig–Yang,
arXiv:1203.5657), and by Koszul duality ``koszul`` on it should exit 0.

Over linear and radical-square-zero A3-A5, the standard pair is mutated
by every 1-step script and by every 2-step script ``i l, i+1 r`` (with
``n l, 1 r`` closing the cycle).  Lockstep mutation keeps a pair a pair
(Aihara–Iyama, *Silting mutation in triangulated categories*, 2012;
Koenig–Yang), so ``mutate`` exits 0, and ``koszul`` on the result should
exit 0.

The 2-term silting graph (``graph --window=-1..0``) of linear A2-A5 and
D4 has as many nodes as the algebra has clusters, and n edges per node;
the Kronecker algebra's is a bi-infinite line.

A run that ends not-certified (exit 3) is a known miss, marked as a
strict xfail naming the ROADMAP item or the cap behind it; a ``fail``
(exit 2) or an input error (exit 4) is never right.
"""

from __future__ import annotations

import pytest

from conftest import INPUTS, linear_algebra_text, standard_pair_text
from siltkit.cli import main
from siltkit.cli.parsing import parse_algebra
from siltkit.core.modules import RESOLUTION_BOUND

GOLDEN = INPUTS.parent / "tests" / "golden" / "resolutions"

#: (algebra, command) runs on the standard pair that end not-certified
#: today, with the ROADMAP item that would mend them: the Kronecker
#: algebras' cohomology algebras have blocks of dimension two, and the
#: simples of loop2 and cycle3 have no finite projective resolution.
STANDARD_MISSES = {
    ("kron", "koszul"): "ROADMAP item 8",
    ("kron3", "koszul"): "ROADMAP item 8",
    ("loop2", "verify"): "ROADMAP item 9",
    ("loop2", "koszul"): "ROADMAP item 9",
    ("cycle3", "verify"): "ROADMAP item 9",
    ("cycle3", "koszul"): "ROADMAP item 9",
}

#: The (family, n) whose standard pair is mutated: linear or
#: radical-square-zero A_n.
FAMILIES = [(family, n) for n in (3, 4, 5) for family in ("linear", "rsz")]


class NotCertified(Exception):
    """A run ended not-certified where the theory answers pass."""


def standard_cases():
    for path in sorted(INPUTS.glob("*.alg")) + sorted(GOLDEN.glob("*.alg")):
        for command in ("verify", "koszul"):
            reason = STANDARD_MISSES.get((path.stem, command))
            marks = ()
            if reason:
                marks = pytest.mark.xfail(strict=True, raises=NotCertified, reason=reason)
            yield pytest.param(path, command, marks=marks, id=f"{path.stem}-{command}")


@pytest.mark.parametrize("path, command", standard_cases())
def test_the_standard_pair_passes(tmp_path, capsys, path, command):
    n = len(parse_algebra(path.read_text(encoding="utf-8")).quiver.vertices)
    pair = tmp_path / "std.pair"
    pair.write_text(standard_pair_text(n), encoding="utf-8")
    argv = ["verify", "--pattern"] if command == "verify" else ["koszul"]
    code = main([*argv, str(path), str(pair)])
    captured = capsys.readouterr()
    assert code in (0, 3), captured
    if code == 3:
        raise NotCertified(captured.err or captured.out)


@pytest.mark.parametrize("n, expected", [(13, 0), (14, 3)], ids=["rsz-a13", "rsz-a14"])
def test_only_a_reached_resolution_cap_leaves_the_pattern_not_certified(
    tmp_path, capsys, n, expected
):
    """Radical-square-zero A_n has global dimension n - 1: the longest
    resolution of A13 has exactly RESOLUTION_BOUND layers below its cover
    and passes, while A14's goes one past the cap, which is named."""
    algebra = tmp_path / "algebra.alg"
    algebra.write_text(linear_algebra_text(n, True), encoding="utf-8")
    pair = tmp_path / "std.pair"
    pair.write_text(standard_pair_text(n), encoding="utf-8")
    code = main(["verify", "--pattern", str(algebra), str(pair)])
    captured = capsys.readouterr()
    assert code == expected
    if expected:
        assert captured.out == ""
        assert f"RESOLUTION_BOUND = {RESOLUTION_BOUND}" in captured.err


def scripts(n: int) -> list[str]:
    one_step = [f"{i}{s}" for i in range(1, n + 1) for s in "lr"]
    return one_step + [f"{i}l-{i % n + 1}r" for i in range(1, n + 1)]


def cases():
    for family, n in FAMILIES:
        for script in scripts(n):
            yield pytest.param(family, n, script, id=f"{family}-a{n}-{script}")


@pytest.mark.parametrize("family, n, script", cases())
def test_koszul_passes_on_a_mutated_pair(tmp_path, capsys, family, n, script):
    algebra = tmp_path / "algebra.alg"
    algebra.write_text(linear_algebra_text(n, family == "rsz"), encoding="utf-8")
    pair = tmp_path / "std.pair"
    pair.write_text(standard_pair_text(n), encoding="utf-8")
    steps = []
    for option, step in zip(("--at", "--then"), script.split("-")):
        steps += [option, step[:-1], "--left" if step[-1] == "l" else "--right"]
    out = tmp_path / "walk"
    assert main(["mutate", str(algebra), str(pair), *steps, "--out", str(out)]) == 0
    code = main(["koszul", str(algebra), str(out / "result.pair")])
    lines = capsys.readouterr().out.splitlines()
    assert code in (0, 3), lines
    if code == 3:
        raise NotCertified(next(line for line in lines if "[open]" in line))


#: 2-term silting graphs, ``graph --window=-1..0``, with the count of
#: their nodes from theory: 2-term silting objects match support τ-tilting
#: modules (Adachi–Iyama–Reiten, *τ-tilting theory*, 2014), which for a
#: Dynkin path algebra are counted by its clusters (Ingalls–Thomas 2009;
#: Fomin–Zelevinsky, *Cluster algebras II*, 2003): Catalan(n + 1) for
#: linear A_n and 50 for D4.  Linear A5's 132 is more than GRAPH_NODE_CAP.
GRAPHS = {
    "linear-a2": (2, 5),
    "linear-a3": (3, 14),
    "linear-a4": (4, 42),
    "d4": (4, 50),
    "linear-a5": (5, 132),
}


def graph_cases():
    for name in GRAPHS:
        marks = ()
        if name == "linear-a5":
            marks = pytest.mark.xfail(strict=True, raises=NotCertified, reason="GRAPH_NODE_CAP")
        yield pytest.param(name, marks=marks, id=name)


@pytest.mark.parametrize("name", graph_cases())
def test_the_two_term_silting_graph_has_the_cluster_count(tmp_path, capsys, name):
    """The graph closes on the counted nodes, each 2-term silting object
    has exactly n 2-term mutations, so edges = n × nodes, and every node's
    simple-minded partner passes."""
    n, nodes = GRAPHS[name]
    if name == "d4":
        algebra = GOLDEN / "d4.alg"
    else:
        algebra = tmp_path / "algebra.alg"
        algebra.write_text(linear_algebra_text(n, False), encoding="utf-8")
    argv = ["graph", str(algebra), "--window=-1..0", "--depth", "30", "--format", "structured"]
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code in (0, 3), lines
    if code == 3:
        raise NotCertified(next(line for line in lines if "truncated" in line))
    assert f"graph nodes {nodes} edges {n * nodes}" in lines
    verdicts = [line for line in lines if line.startswith("verdict node")]
    assert len(verdicts) == nodes
    assert all(line.endswith(" smc pass") for line in verdicts)


@pytest.mark.parametrize("depth", [4, 8])
def test_the_kronecker_two_term_silting_graph_is_a_line(capsys, depth):
    """2-term silting objects of an acyclic quiver match its clusters
    (Adachi–Iyama–Reiten 2014), and the Kronecker cluster algebra's
    exchange graph is a bi-infinite path (Fomin–Zelevinsky, *Cluster
    algebras I*, 2002).  So depth d from the standard pair reaches the
    2d + 1 nodes at distance at most d, and the 2d - 1 nodes it expands
    each list their n = 2 mutations."""
    argv = ["graph", str(INPUTS / "kron.alg"), "--window=-1..0", "--depth", str(depth)]
    assert main([*argv, "--format", "structured"]) == 0
    lines = capsys.readouterr().out.splitlines()
    nodes = 2 * depth + 1
    assert f"graph nodes {nodes} edges {2 * (2 * depth - 1)}" in lines
    verdicts = [line for line in lines if line.startswith("verdict node")]
    assert len(verdicts) == nodes
    assert all(line.endswith(" smc pass") for line in verdicts)
