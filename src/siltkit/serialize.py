"""Canonical text forms for algebras, complexes, and collections.

Everything downstream that persists state — correspondence certificates,
``--format structured`` output, the replay command — goes through this
module, so two runs with the same inputs produce byte-identical text.
The conventions are deliberately boring:

* scalars print exactly through ``str`` (``p/q`` for rationals, the
  least nonnegative residue for prime fields);
* algebra elements print through ``str`` over the residue-path basis in
  basis order, with signs folded into the ``+``/``-`` separators and
  paths as arrow names target-to-source joined by ``;``;
* complexes print in the same literal syntax the input-file parser
  accepts, so a serialized collection can be re-read without a separate
  code path.

The algebra hash covers the generators *and* the full multiplication
table, so it changes whenever the algebra (not merely its presentation)
does.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .core.algebras import AlgebraElement, PathAlgebra
    from .homotopy.complexes import ProjComplex


def summand_line(vertices: Sequence[str]) -> str:
    """Render a degree's summand tuple, e.g. ``P1^2 + P2``.

    Consecutive repeats collapse into an exponent; order is otherwise
    preserved, since differential matrices index rows and columns by
    position.
    """
    if not vertices:
        return "0"
    runs: list[tuple[str, int]] = []
    for v in vertices:
        if runs and runs[-1][0] == v:
            runs[-1] = (v, runs[-1][1] + 1)
        else:
            runs.append((v, 1))
    return " + ".join(f"P{v}" if m == 1 else f"P{v}^{m}" for v, m in runs)


def matrix_text(mat: Sequence[Sequence["AlgebraElement"]]) -> str:
    """Render a matrix of algebra elements: rows joined by `` | ``,
    entries within a row by ``, ``."""
    return " | ".join(", ".join(str(e) for e in row) for row in mat)


def complex_text(name: str, x: "ProjComplex") -> str:
    """The complex-literal block for ``x``, re-parseable by the CLI.

    Differential lines are emitted only where the matrix is nonzero; an
    entirely zero complex still gets an explicit ``deg`` line per degree
    so supports round-trip.
    """
    lines = [f"complex {name} {{"]
    for k in sorted(x.summands):
        lines.append(f"  deg {k}: {summand_line(x.summands[k])};")
    for k in sorted(x.diffs):
        mat = x.diffs[k]
        if any(entry for row in mat for entry in row):
            lines.append(f"  d {k}: {matrix_text(mat)};")
    lines.append("}")
    return "\n".join(lines)


def collection_text(
    keyword: str, name: str, members: Sequence["ProjComplex"], prefix: str
) -> str:
    """Render a named collection: each member as a complex literal,
    then a ``silting``/``smc`` list line tying them together."""
    member_names = [f"{prefix}{i + 1}" for i in range(len(members))]
    blocks = [complex_text(n, x) for n, x in zip(member_names, members)]
    blocks.append(f"{keyword} {name} = [{', '.join(member_names)}]")
    return "\n".join(blocks)


def relation_text(terms: Sequence[tuple[object, object]]) -> str:
    """Render one relation as a signed combination of path words."""
    parts: list[str] = []
    for coeff, path in terms:
        word = str(path)
        text = word if coeff == 1 else f"{coeff} {word}"
        parts.append(text)
    return (" + ".join(parts)).replace("+ -", "- ")


def algebra_text(algebra: "PathAlgebra") -> str:
    """The algebra's canonical input-file text.

    Uses the same section layout the parser reads, so a certificate can
    embed the algebra it was computed over and replay can rebuild it.
    """
    lines = ["[field]", f"characteristic = {algebra.field.characteristic}", ""]
    lines.append("[vertices]")
    lines.extend(algebra.quiver.vertices)
    lines.append("")
    lines.append("[arrows]")
    lines.extend(str(a) for a in algebra.quiver.arrows)
    lines.append("")
    lines.append("[relations]")
    lines.extend(relation_text(r) for r in algebra.relations)
    lines.append("")
    lines.append("[bound]")
    lines.append(str(algebra.nilpotency_bound))
    return "\n".join(lines) + "\n"


def algebra_hash(algebra: "PathAlgebra") -> str:
    """A hex digest pinning the algebra up to its structure constants.

    Covers the presentation text plus the residue-path basis and the
    full multiplication table, in basis order.
    """
    chunks = [algebra_text(algebra), "[basis]\n"]
    for p in algebra.basis:
        chunks.append(f"{p} : {p.target} <- {p.source}\n")
    chunks.append("[products]\n")
    for (i, j), prod in sorted(algebra.products.items()):
        body = " + ".join(f"{prod[k]}*{k}" for k in sorted(prod))
        chunks.append(f"{i}.{j} = {body}\n")
    digest = hashlib.sha256("".join(chunks).encode("utf-8"))
    return digest.hexdigest()
