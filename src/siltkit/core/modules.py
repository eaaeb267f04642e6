"""Minimal projective resolutions of the simple modules.

res(v) is the semifree resolution of S_v over A in degree 0, read back as
a complex.  It is built to its end or not at all: one longer than
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

from ..dg.dga import path_algebra_to_dg
from ..dg.dgmod import semifree_resolution
from ..errors import TruncationUnsound
from ..linalg import Matrix, sparse_product, zero_matrix
from .algebras import PathAlgebra

#: The longest resolution built: ``minimal_projective_resolution`` accepts
#: resolutions of length at most this.
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

    It is ``dg.semifree_resolution`` of the character of S_v over
    ``path_algebra_to_dg(algebra)``, read back as a complex (the inverse
    of ``dga._free_module``): a generator of degree k at w is a summand
    e_w A of degree k, and a term g' * b of its differential is the entry
    b of d^k.  A resolution of length n takes n + 2 stages, so the cap of
    ``RESOLUTION_BOUND + 2`` accepts the lengths up to the bound; a longer
    one raises TruncationUnsound naming it.
    """
    from ..homotopy.complexes import ProjComplex

    algebra.check_vertex(v)
    field = algebra.field
    chi = [field.zero] * algebra.dimension
    chi[algebra.idempotent_index[v]] = field.one
    try:
        res = semifree_resolution(chi, path_algebra_to_dg(algebra), RESOLUTION_BOUND + 2)
    except TruncationUnsound:
        raise TruncationUnsound(
            f"res({v}) is longer than RESOLUTION_BOUND = {RESOLUTION_BOUND}"
        ) from None
    summands: dict[int, list[str]] = {}
    slot = []  # each generator's position among the summands of its degree
    for g in res.generators:
        slot.append(len(summands.setdefault(g.degree, [])))
        summands[g.degree].append(g.vertex)
    entries = {k: [[{} for _ in vs] for _ in summands.get(k + 1, ())] for k, vs in summands.items()}
    for t, (g, d) in enumerate(zip(res.generators, res.d_gens)):
        for (u, b), c in d.items():
            entries[g.degree][slot[u]][slot[t]][b] = field.coerce(c)
    diffs = {
        k: [[algebra.element(x) for x in r] for r in mat] for k, mat in entries.items() if mat
    }
    return ProjComplex(algebra, summands, diffs, label=f"res({v})")
