"""Rendering of dg algebras, Hom tables, and check reports.

Two audiences: the ``table`` format prints aligned human-readable
tables; the ``structured`` format prints line-oriented ``key value``
records with a stable key order, so identical runs emit identical
bytes.  Sign canonicalization for tables flips a basis element when the
first structure constant it touches (its differential first, then its
products in basis order) is negative; the flip assignment is computed
in one sweep against the raw table, so it is deterministic.
"""

from __future__ import annotations

from typing import Sequence

from ..correspond.checks import CheckReport, CorrespondenceCertificate, PatternTable
from ..dg.dga import Coords, DGAlgebra
from ..homotopy.complexes import ProjComplex


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def columns(rows: Sequence[Sequence[str]], sep: str = "  ") -> list[str]:
    """Left-align rows of cells into columns."""
    if not rows:
        return []
    widths = [0] * max(len(r) for r in rows)
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    return [
        sep.join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]


def dims_text(dims: dict[int, int]) -> str:
    if not dims:
        return "0"
    return ", ".join(f"{n}: {dims[n]}" for n in sorted(dims))


def complex_summary(x: ProjComplex) -> str:
    """One-line shape summary of a complex, e.g. ``[P2 @ -1 -> P1 @ 0]``."""
    if x.is_zero():
        return "0"
    parts = []
    for k in x.degrees():
        names = "+".join(f"P{v}" for v in x.summands[k])
        parts.append(f"{names} @ {k}")
    body = " -> ".join(parts)
    label = f"{x.label}: " if x.label else ""
    return f"{label}[{body}]"


def collection_summary(members: Sequence[ProjComplex]) -> str:
    return "{" + ", ".join(complex_summary(m) for m in members) + "}"


# ---------------------------------------------------------------------------
# dg algebra tables
# ---------------------------------------------------------------------------


def _first_constant(E: DGAlgebra, i: int):
    """The first structure constant attached to basis element i: its
    differential's coefficients in index order, then its products
    against every basis element in index order."""
    d = E.differential.get(i, {})
    for k in sorted(d):
        if d[k]:
            return d[k]
    for j in range(E.dimension):
        for key in ((i, j), (j, i)):
            prod = E.products.get(key, {})
            for k in sorted(prod):
                if prod[k]:
                    return prod[k]
    return None


def canonical_signs(E: DGAlgebra) -> list[int]:
    """Display signs making leading structure constants positive.

    Only meaningful over the rationals; prime fields have no order and
    keep every sign at +1.
    """
    if E.field.characteristic != 0:
        return [1] * E.dimension
    signs = []
    for i in range(E.dimension):
        first = _first_constant(E, i)
        signs.append(-1 if first is not None and first < 0 else 1)
    return signs


def coords_text(E: DGAlgebra, coords: Coords, signs: Sequence[int], out_sign: int = 1) -> str:
    """Canonical text of a coordinate vector over the (sign-flipped)
    basis; ``out_sign`` carries the flip of the element the vector is
    attached to."""
    if not coords:
        return "0"
    one = E.field.one
    parts = []
    for k in sorted(coords):
        c = coords[k] * out_sign * signs[k]
        label = E.labels[k]
        if c == one:
            parts.append(label)
        elif c == -one:
            parts.append(f"-{label}")
        else:
            parts.append(f"{c} {label}")
    return " + ".join(parts).replace("+ -", "- ")


def dg_table_lines(E: DGAlgebra, title: str) -> list[str]:
    """The element/degree/differential table, the nonzero products, and
    the cohomology dimensions of a dg algebra."""
    signs = canonical_signs(E)
    order = sorted(range(E.dimension), key=lambda i: (E.degrees[i], i))
    lines = [f"{title} ({E.dimension} elements)"]
    rows = [("element", "degree", "d(element)")]
    for i in order:
        d = E.differential.get(i, {})
        rows.append(
            (
                E.labels[i],
                str(E.degrees[i]),
                coords_text(E, d, signs, out_sign=signs[i]),
            )
        )
    lines.extend("  " + line for line in columns(rows))
    prods = []
    for i in order:
        for j in order:
            coords = E.products.get((i, j), {})
            if coords:
                prods.append(
                    (
                        f"{E.labels[i]} * {E.labels[j]}",
                        "=",
                        coords_text(E, coords, signs, out_sign=signs[i] * signs[j]),
                    )
                )
    lines.append("  nonzero products:")
    lines.extend("    " + line for line in columns(prods))
    lines.append(f"  graded dimensions: {dims_text(E.graded_dims())}")
    lines.append(f"  cohomology dimensions: {dims_text(E.cohomology_dims())}")
    return lines


def dg_structured_lines(E: DGAlgebra, prefix: str) -> list[str]:
    """Stable-key-order structured dump of a dg algebra."""
    signs = canonical_signs(E)
    lines = [f"{prefix} dimension {E.dimension}"]
    for i in range(E.dimension):
        lines.append(f"{prefix} element {i} degree {E.degrees[i]} label {E.labels[i]}")
    for i in range(E.dimension):
        d = E.differential.get(i, {})
        if d:
            lines.append(
                f"{prefix} d {i} = {coords_text(E, d, signs, out_sign=signs[i])}"
            )
    for i, j in sorted(E.products):
        coords = E.products[(i, j)]
        if coords:
            lines.append(
                f"{prefix} product {i} {j} = "
                f"{coords_text(E, coords, signs, out_sign=signs[i] * signs[j])}"
            )
    dims = E.cohomology_dims()
    for n in sorted(dims):
        lines.append(f"{prefix} cohomology {n} {dims[n]}")
    return lines


# ---------------------------------------------------------------------------
# pattern tables and reports
# ---------------------------------------------------------------------------


def pattern_table_lines(
    table: PatternTable, n_silting: int, n_smc: int
) -> list[str]:
    """Degree-0 grid plus any nonzero entries away from degree 0."""
    rows = [[""] + [f"T{j + 1}" for j in range(n_smc)]]
    for i in range(n_silting):
        rows.append(
            [f"S{i + 1}"]
            + [str(table.get((i, j), {}).get(0, 0)) for j in range(n_smc)]
        )
    lines = ["degree-0 Hom table (rows: silting, columns: simple-minded):"]
    lines.extend("  " + line for line in columns(rows))
    off = [
        (i, j, m, d)
        for (i, j), block in sorted(table.items())
        for m, d in sorted(block.items())
        if m != 0 and d
    ]
    if off:
        lines.append("nonzero entries away from degree 0:")
        for i, j, m, d in off:
            lines.append(f"  dim Hom(S{i + 1}, T{j + 1}[{m}]) = {d}")
    else:
        lines.append("all entries away from degree 0 vanish")
    return lines


def pattern_structured_lines(table: PatternTable) -> list[str]:
    return [
        f"hom S{i + 1} T{j + 1} {m} {block[m]}"
        for (i, j), block in sorted(table.items())
        for m in sorted(block)
    ]


def report_lines(report: CheckReport) -> list[str]:
    return report.lines()


def report_structured_lines(report: CheckReport) -> list[str]:
    lines = []
    for item in report.items:
        status = "ok" if item.ok else "violated"
        detail = f" :: {item.detail}" if item.detail else ""
        lines.append(f"check {report.subject} {status} {item.name}{detail}")
    if report.witness is not None:
        lines.append(f"witness {report.subject} {report.witness}")
    return lines


def certificate_lines(cert: CorrespondenceCertificate) -> list[str]:
    lines = [
        f"bijection: "
        + ", ".join(f"S{i + 1} -> T{j + 1}" for i, j in enumerate(cert.bijection))
    ]
    lines.extend(pattern_table_lines(cert.table, len(cert.silting), len(cert.smc)))
    return lines
