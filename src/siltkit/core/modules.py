"""Minimal projective resolutions of the simple modules.

res(v) is the semifree resolution of S_v over A in degree 0, read back as
a complex.  It is built to its end or not at all: one longer than
``RESOLUTION_BOUND`` raises TruncationUnsound naming the bound, so every
``res(v)`` is an object of K^b(proj A).
"""

from __future__ import annotations

from ..dg.dga import path_algebra_to_dg
from ..dg.dgmod import semifree_resolution
from ..errors import TruncationUnsound
from .algebras import PathAlgebra

#: The longest resolution built: ``minimal_projective_resolution`` accepts
#: resolutions of length at most this.
RESOLUTION_BOUND = 12


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
