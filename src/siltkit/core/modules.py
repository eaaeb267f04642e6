"""Minimal projective resolutions of the simple modules.

A resolution is built to its end or not at all: one longer than
``RESOLUTION_BOUND`` raises TruncationUnsound naming the bound, so every
``res(v)`` is an object of K^b(proj A).

A sum of indecomposable projectives e_{w_1} A ⊕ ... ⊕ e_{w_m} A is given by
its tuple of vertices ``copies``.  Its component at a vertex u has one basis
position per pair ``(copy, residue path)``, the path running from u to the
copy's vertex, ordered by copy and then by the algebra's basis order.  A map
between two sums is a matrix of algebra elements acting by left
multiplication, as in :mod:`siltkit.homotopy.complexes`; ``vertex_blocks``
spells it out on these positions.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import TruncationUnsound
from ..linalg import (
    GaussianSpan,
    Matrix,
    kernel_basis,
    sparse_product,
    zero_matrix,
    zero_vector,
)
from .algebras import PathAlgebra
from .quivers import Path

#: The longest resolution built: ``minimal_projective_resolution`` adopts at
#: most this many layers, and ``dg.semifree_resolution`` takes the same cap.
RESOLUTION_BOUND = 12


def positions(algebra: PathAlgebra, copies: Sequence[str]) -> dict[str, list[tuple[int, int]]]:
    """The basis of each vertex component of the sum of e_w A over
    ``copies``: at u, one (copy, path index) pair per residue path from u to
    the copy's vertex, copy-major."""
    return {
        u: [(c, q) for c, w in enumerate(copies) for q in algebra.hom_basis(w, u)]
        for u in algebra.quiver.vertices
    }


def vertex_blocks(
    algebra: PathAlgebra, source: Sequence[str], target: Sequence[str], entries: list
) -> dict[str, Matrix]:
    """The matrix at each vertex of the map from the sum over ``source`` to
    the sum over ``target`` whose entry (r, c) lies in
    e_{target[r]} A e_{source[c]} and acts by left multiplication."""
    field = algebra.field
    source_positions = positions(algebra, source)
    target_positions = positions(algebra, target)
    blocks = {}
    for u in algebra.quiver.vertices:
        row_of = {pair: i for i, pair in enumerate(target_positions[u])}
        block = zero_matrix(field, len(target_positions[u]), len(source_positions[u]))
        for col, (c, q) in enumerate(source_positions[u]):
            for r, row in enumerate(entries):
                image = sparse_product(field, algebra.products, row[c].coeffs, {q: field.one})
                for i, coeff in image.items():
                    block[row_of[(r, i)]][col] = coeff
        blocks[u] = block
    return blocks


def minimal_projective_resolution(algebra: PathAlgebra, v: str):
    """The minimal projective resolution of the simple module at v, labelled
    ``res(v)``, in degrees -n .. 0 with e_v A in degree 0.

    Each step covers the kernel K of the last differential minimally
    (Green–Solberg–Zacharia): at each vertex u, the kernel vectors that are
    independent modulo K·rad, the span of the kernel vectors at each arrow's
    target times the arrow, are adopted in kernel-basis order.  Each adopted
    vector becomes a copy of e_u A and a column of the next differential.
    The resolution runs until a kernel vanishes; one that has not vanished
    after ``RESOLUTION_BOUND`` steps raises TruncationUnsound naming the
    bound, since a cut-off resolution is not an object of K^b(proj A).
    """
    from ..homotopy.complexes import ProjComplex

    algebra.check_vertex(v)
    field = algebra.field
    arrows = [
        (a.source, a.target, algebra.basis_index[Path((a.name,), a.source, a.target)])
        for a in algebra.quiver.arrows
    ]
    copies: tuple[str, ...] = (v,)
    layer = positions(algebra, copies)
    # The kernel of e_v A -> S_v is the radical: every position but e_v.
    generator = (0, algebra.idempotent_index[v])
    kernel = {u: [] for u in algebra.quiver.vertices}
    for u, pairs in layer.items():
        for i, pair in enumerate(pairs):
            if pair != generator:
                unit = zero_vector(field, len(pairs))
                unit[i] = field.one
                kernel[u].append(unit)
    summands = {0: copies}
    diffs = {}
    for n in range(1, RESOLUTION_BOUND + 1):
        if not any(kernel.values()):
            break
        adopted = []
        for u in algebra.quiver.vertices:
            index = {pair: i for i, pair in enumerate(layer[u])}
            span = GaussianSpan(field, len(layer[u]))
            for source, target, arrow in arrows:
                if source != u:
                    continue
                for k in kernel[target]:
                    image = zero_vector(field, len(layer[u]))
                    for coeff, (c, q) in zip(k, layer[target]):
                        if coeff:
                            for r, x in algebra.products.get((q, arrow), {}).items():
                                image[index[(c, r)]] += coeff * x
                    span.add(image)
            adopted += [(u, k) for k in kernel[u] if span.add(k)]
        # Column j of the differential reads the j-th adopted vector as one
        # algebra element per copy of the previous layer.
        columns = []
        for u, k in adopted:
            column = [{} for _ in copies]
            for coeff, (c, q) in zip(k, layer[u]):
                if coeff:
                    column[c][q] = field.coerce(coeff)
            columns.append(column)
        diffs[-n] = [[algebra.element(col[r]) for col in columns] for r in range(len(copies))]
        previous, copies = copies, tuple(u for u, _ in adopted)
        blocks = vertex_blocks(algebra, copies, previous, diffs[-n])
        layer = positions(algebra, copies)
        kernel = {
            u: kernel_basis(field, blocks[u], ncols=len(layer[u]))
            for u in algebra.quiver.vertices
        }
        summands[-n] = copies
    if any(kernel.values()):
        raise TruncationUnsound(
            f"res({v}) is longer than RESOLUTION_BOUND = {RESOLUTION_BOUND}"
        )
    return ProjComplex(algebra, summands, diffs, label=f"res({v})")
