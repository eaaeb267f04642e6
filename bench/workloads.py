"""Seeded inputs for the benchmark workloads, and the known answers.

Every workload is a list of :class:`Invocation` objects: one ``siltkit``
command line each, run in a fresh interpreter.  The input files are
written into a directory the caller owns; the same seed always writes the
same files and the same command lines.

The known answers come from the theory the paper builds on, never from a
siltkit run:

* the standard pair (projectives against resolved simples) satisfies the
  orthogonality pattern (Koenig--Yang);
* lockstep mutation carries a pair to a pair, so every mutated pair
  satisfies the pattern again;
* every vertex of the silting mutation graph has a simple-minded partner,
  so every node's ``smc`` verdict is ``pass`` and dedup can decide;
* the dg endomorphism algebras of the two sides of a pair are Koszul dual,
  so every ``koszul`` verdict is ``pass``.

A ``not-certified`` verdict contradicts none of these: it counts against
the certified share, not as a failure.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass, field

WORKLOADS = ("koszul", "mutate-walk", "graph-kron")

#: mutate-walk: linear A_WALK_RANK, one walk per vertex, WALK_STEPS steps each.
WALK_RANK = 5
WALK_STEPS = 4
#: The walks are drawn once, from this seed, not from ``--seed``: the cost
#: of a walk varies several-fold with its steps, and walks drawn per seed
#: made the pass time vary by a quarter between seeds, far beyond the
#: bound on ``wall_s``.  ``--seed`` still reaches siltkit's searches.
WALK_SEED = 0

#: Verdict-name patterns per command, each with its answer from theory.
KNOWN_ANSWERS: dict[str, tuple[tuple[str, str], ...]] = {
    "koszul": (("pattern", "pass"), ("koszul", "pass")),
    "mutate": ((r"step\d+", "pass"),),
    "graph": ((r"node\d+ smc", "pass"), ("dedup", "pass")),
    "replay": (("replay", "pass"),),
}


@dataclass
class Invocation:
    """One CLI command line and what the gate needs to judge it."""

    label: str
    argv: list[str]
    required: tuple[str, ...]
    algebra: str
    certs: list[str] = field(default_factory=list)

    @property
    def command(self) -> str:
        return self.argv[0]


def known_answer(command: str, verdict_name: str) -> str | None:
    """The theory's answer for one verdict line, or None if unknown."""
    for pattern, answer in KNOWN_ANSWERS.get(command, ()):
        if re.fullmatch(pattern, verdict_name):
            return answer
    return None


def linear_algebra(n: int, radical_square_zero: bool = False) -> str:
    """Algebra file of the linear quiver n -> ... -> 1.

    With ``radical_square_zero`` every path of length two is a relation;
    otherwise the algebra is hereditary.
    """
    lines = ["[field]", "characteristic = 0", "", "[vertices]"]
    lines += [str(v) for v in range(1, n + 1)]
    lines += ["", "[arrows]"]
    lines += [f"a{k}: {k + 1} -> {k}" for k in range(1, n)]
    if radical_square_zero:
        lines += ["", "[relations]"]
        lines += [f"a{k};a{k + 1}" for k in range(1, n - 1)]
    lines += ["", "[bound]", str(2 if radical_square_zero else n)]
    return "\n".join(lines) + "\n"


def standard_pair(n: int) -> str:
    """Pair file: projectives against resolved simples."""
    vertices = range(1, n + 1)
    silting = ", ".join(f"proj({v})" for v in vertices)
    smc = ", ".join(f"res(simple {v})" for v in vertices)
    return f"silting std = [{silting}]\nsmc std = [{smc}]\n"


def draw_walks() -> list[list[tuple[int, str]]]:
    """WALK_RANK lockstep walks of WALK_STEPS steps, drawn from WALK_SEED.

    The draw is stratified: at every step position each vertex is mutated
    in exactly one walk, and the majority side alternates from one position
    to the next, so a pass makes as many left as right steps.
    """
    rng = random.Random(WALK_SEED)
    columns = []
    for position in range(WALK_STEPS):
        indices = list(range(1, WALK_RANK + 1))
        rng.shuffle(indices)
        sides = ["left", "right"] * (WALK_RANK // 2)
        if WALK_RANK % 2:
            sides.append(("left", "right")[position % 2])
        rng.shuffle(sides)
        columns.append(list(zip(indices, sides)))
    return [[column[w] for column in columns] for w in range(WALK_RANK)]


def step_args(walk: list[tuple[int, str]]) -> list[str]:
    """The ``--at i --left --then j --right ...`` syntax of ``mutate``."""
    args: list[str] = []
    for k, (index, side) in enumerate(walk):
        args += ["--at" if k == 0 else "--then", str(index), f"--{side}"]
    return args


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def build(workload: str, seed: int, directory: str, root: str) -> list[Invocation]:
    """Write the inputs of ``workload`` into ``directory`` and return its
    invocations.  ``root`` is the checkout holding ``inputs/``."""
    common = ["--format", "structured", "--seed", str(seed)]
    kron = os.path.join(root, "inputs", "kron.alg")
    if workload == "koszul":
        a4 = _write(directory, "a4.alg", linear_algebra(4))
        r4 = _write(directory, "a4-rsz.alg", linear_algebra(4, True))
        std4 = _write(directory, "std4.pair", standard_pair(4))
        std2 = os.path.join(root, "inputs", "std.pair")
        cases = [("a4", a4, std4), ("a4-rsz", r4, std4), ("kron", kron, std2)]
        return [
            Invocation(label, ["koszul", alg, pair] + common, ("pattern", "koszul"), alg)
            for label, alg, pair in cases
        ]
    if workload == "mutate-walk":
        a5 = _write(directory, "a5.alg", linear_algebra(WALK_RANK))
        std5 = _write(directory, "std5.pair", standard_pair(WALK_RANK))
        invocations = []
        for w, walk in enumerate(draw_walks(), start=1):
            out = os.path.join(directory, f"walk{w}")
            invocations.append(Invocation(
                f"walk{w}",
                ["mutate", a5, std5, *step_args(walk), "--out", out] + common,
                tuple(f"step{k}" for k in range(1, len(walk) + 1)),
                a5,
                certs=[os.path.join(out, f"step-{k}.cert")
                       for k in range(1, len(walk) + 1)],
            ))
        return invocations
    if workload == "graph-kron":
        return [Invocation("kron", ["graph", kron, "--depth", "2"] + common,
                           ("node0 smc",), kron)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
