"""Theory answers on lockstep-mutated pairs, run through ``siltkit.cli.main``.

Over linear and radical-square-zero A3/A4, the standard pair is mutated
by every 1-step script and by every 2-step script ``i l, i+1 r`` (with
``n l, 1 r`` closing the cycle).  Lockstep mutation keeps a pair a pair
(Aihara–Iyama, *Silting mutation in triangulated categories*, 2012;
Koenig–Yang, arXiv:1203.5657), so ``mutate`` exits 0, and by Koszul
duality ``koszul`` on the result should exit 0.  A run that ends
not-certified (exit 3) is a known miss, marked as a strict xfail; a
``fail`` (exit 2) is never right.
"""

from __future__ import annotations

import pytest

from conftest import linear_algebra_text, standard_pair_text
from siltkit.cli import main

#: Scripts whose ``koszul`` ends not-certified today, per (family, n).
MISSES = {
    ("linear", 3): {"2l", "2r", "1l-2r", "2l-3r", "3l-1r"},
    ("rsz", 3): {"3l"},
    ("linear", 4): {"2l", "2r", "3l", "3r", "1l-2r", "2l-3r", "3l-4r"},
    ("rsz", 4): {"3l", "4l", "3l-4r", "4l-1r"},
}


class NotCertified(Exception):
    """``koszul`` ended not-certified where the theory answers pass."""


def scripts(n: int) -> list[str]:
    one_step = [f"{i}{s}" for i in range(1, n + 1) for s in "lr"]
    return one_step + [f"{i}l-{i % n + 1}r" for i in range(1, n + 1)]


def cases():
    for (family, n), misses in MISSES.items():
        for script in scripts(n):
            marks = ()
            if script in misses:
                marks = pytest.mark.xfail(strict=True, raises=NotCertified, reason="ROADMAP item 3")
            yield pytest.param(family, n, script, marks=marks, id=f"{family}-a{n}-{script}")


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
