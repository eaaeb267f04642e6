"""Finite-dimensional path algebra quotients.

:func:`build_algebra` constructs k Q / I from a quiver, a list of relations
(linear combinations of parallel paths of length >= 2), and a nilpotency
bound.  The construction works in the truncation of k Q by all paths longer
than the bound, closes the relation span under left and right multiplication
by arrows, and certifies that every path of length equal to the bound lies in
the closed span.  When the certificate passes, every path of length >= bound
is zero in the quotient, so the result is an honest finite-dimensional
algebra; for ideals that are genuinely admissible at this bound it equals
k Q / I on the nose.  (For pathological non-homogeneous inputs whose ideal is
not admissible at any bound, the certificate can still pass; the computed
algebra is then the quotient by the ideal plus all paths of length >= bound,
which is the best a bounded closure can deliver.)

Residue paths are chosen deterministically: coordinates are ordered by
(length, arrow sequence, source) and elimination pivots on the largest path
of each relation, so short paths survive as basis representatives.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import MalformedRelation, NonAdmissible, UnknownVertex
from ..fields import Field, QQ
from ..linalg import GaussianSpan, sparse_product
from .quivers import Path, Quiver, deglex_key, enumerate_paths, path_from_arrows, trivial_path

#: A relation is a list of (coefficient, path) terms.
RelationTerms = Sequence[tuple[object, Path]]


class AlgebraElement:
    """An element of a :class:`PathAlgebra`, stored as sparse coordinates
    over the residue-path basis.  Immutable in spirit: all operators return
    new elements."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: "PathAlgebra", coeffs: dict[int, object]):
        self.algebra = algebra
        self.coeffs = {i: c for i, c in coeffs.items() if c}

    def coefficient(self, index: int):
        return self.coeffs.get(index, self.algebra.field.zero)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, self.algebra.field.zero) + c
        return AlgebraElement(self.algebra, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, self.algebra.field.zero) - c
        return AlgebraElement(self.algebra, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, {i: -c for i, c in self.coeffs.items()})

    def scale(self, scalar) -> "AlgebraElement":
        c = self.algebra.field.coerce(scalar)
        return AlgebraElement(self.algebra, {i: c * v for i, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            algebra = self.algebra
            return AlgebraElement(
                algebra,
                sparse_product(algebra.field, algebra.products, self.coeffs, other.coeffs),
            )
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(self.coeffs.items(), key=lambda t: t[0]))))

    def vertex_scalar(self, v: str):
        """The coefficient of the trivial path at vertex v."""
        return self.coefficient(self.algebra.idempotent_index[v])

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in sorted(self.coeffs):
            c = self.coeffs[i]
            path = str(self.algebra.basis[i])
            one = self.algebra.field.one
            if c == one:
                term = path
            elif c == -one:
                term = f"-{path}"
            else:
                term = f"{c} {path}"
            parts.append(term)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    __repr__ = __str__


class PathAlgebra:
    """A finite-dimensional quotient of a path algebra.

    Built by :func:`build_algebra`; not meant to be instantiated directly.
    Carries the residue-path basis (degree-lexicographic), full structure
    constants, the idempotent positions, and normal forms for every path up
    to the nilpotency bound.
    """

    def __init__(
        self,
        field: Field,
        quiver: Quiver,
        relations: tuple[tuple[tuple[object, Path], ...], ...],
        nilpotency_bound: int,
        basis: tuple[Path, ...],
        normal_forms: dict[Path, dict[int, object]],
    ):
        self.field = field
        self.quiver = quiver
        self.relations = relations
        self.nilpotency_bound = nilpotency_bound
        self.basis = basis
        self._normal_forms = normal_forms
        self.basis_index = {p: i for i, p in enumerate(basis)}
        self.idempotent_index = {
            v: self.basis_index[trivial_path(v)] for v in quiver.vertices
        }
        self._hom_basis: dict[tuple[str, str], tuple[int, ...]] = {}
        for i, p in enumerate(basis):
            key = (p.target, p.source)
            self._hom_basis.setdefault(key, ())
            self._hom_basis[key] += (i,)
        #: Hom complex data per pair of complex keys, filled by
        #: ``homotopy.homs.HomComplex`` and kept as long as the algebra.
        self.hom_data: dict = {}
        #: Structure constants: (i, j) -> coordinates of b_i b_j, for the
        #: nonzero products only, in ascending (i, j) order.
        self.products: dict[tuple[int, int], dict[int, object]] = {}
        for i, p in enumerate(basis):
            for j, q in enumerate(basis):
                if p.source != q.target:
                    continue
                joined = Path(p.arrows + q.arrows, q.source, p.target)
                nf = self.normal_form(joined)
                if nf:
                    self.products[(i, j)] = nf

    # -- basic queries ----------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def check_vertex(self, v: str) -> None:
        if v not in self.quiver.vertices:
            raise UnknownVertex(f"vertex {v!r} is not declared in the quiver")

    def normal_form(self, path: Path) -> dict[int, object]:
        """Coordinates of a path's residue class (empty dict = zero)."""
        if path.length >= self.nilpotency_bound and path not in self._normal_forms:
            return {}
        return self._normal_forms.get(path, {})

    def hom_basis(self, target: str, source: str) -> tuple[int, ...]:
        """Basis indices of e_target · A · e_source (paths target<-source)."""
        return self._hom_basis.get((target, source), ())

    def cartan_entry(self, target: str, source: str) -> int:
        return len(self.hom_basis(target, source))

    # -- element constructors --------------------------------------------

    def element(self, coeffs: dict[int, object]) -> AlgebraElement:
        return AlgebraElement(self, coeffs)

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, {})

    def one(self) -> AlgebraElement:
        return AlgebraElement(
            self, {i: self.field.one for i in self.idempotent_index.values()}
        )

    def idempotent(self, v: str) -> AlgebraElement:
        self.check_vertex(v)
        return AlgebraElement(self, {self.idempotent_index[v]: self.field.one})

    def basis_element(self, i: int) -> AlgebraElement:
        return AlgebraElement(self, {i: self.field.one})

    def from_path(self, path: Path) -> AlgebraElement:
        """The residue class of an arbitrary path (zero if it dies)."""
        return AlgebraElement(self, dict(self.normal_form(path)))

    def __repr__(self):
        return (
            f"PathAlgebra(dim={self.dimension}, vertices={list(self.quiver.vertices)}, "
            f"arrows={[a.name for a in self.quiver.arrows]})"
        )


def _validate_relation(quiver: Quiver, terms: RelationTerms, field: Field):
    if not terms:
        raise MalformedRelation("a relation must have at least one term")
    cleaned = []
    endpoints = None
    for coeff, path in terms:
        if path.length < 2:
            raise MalformedRelation(
                f"relation term {path} has length {path.length}; all terms must "
                "be paths of length >= 2"
            )
        validated = path_from_arrows(quiver, path.arrows)
        if (validated.source, validated.target) != (path.source, path.target):
            raise MalformedRelation(
                f"path {path} declares endpoints {path.source}->{path.target} but "
                f"its arrows compose {validated.source}->{validated.target}"
            )
        if endpoints is None:
            endpoints = (validated.source, validated.target)
        elif endpoints != (validated.source, validated.target):
            raise MalformedRelation(
                f"relation mixes non-parallel paths: {endpoints[0]}->{endpoints[1]} "
                f"and {validated.source}->{validated.target}"
            )
        cleaned.append((field.coerce(coeff), validated))
    return tuple(cleaned)


def build_algebra(
    quiver: Quiver,
    relations: Sequence[RelationTerms],
    nilpotency_bound: int,
    field: Field = QQ,
) -> PathAlgebra:
    """Construct the path algebra quotient k Q / I.

    ``relations`` is a sequence of relations, each a sequence of
    ``(coefficient, Path)`` terms; all terms of one relation must be parallel
    paths of length >= 2.  ``nilpotency_bound`` must be >= 1; every path of
    length >= the bound must die in the quotient, which is certified and
    otherwise reported via :class:`NonAdmissible`.
    """
    if nilpotency_bound < 1:
        raise ValueError(f"nilpotency_bound must be >= 1, got {nilpotency_bound}")
    checked = tuple(_validate_relation(quiver, r, field) for r in relations)

    paths = enumerate_paths(quiver, nilpotency_bound)
    # Span coordinates run over paths in *descending* degree-lex order so that
    # elimination pivots on the largest path of each relation.
    coord_of = {p: len(paths) - 1 - i for i, p in enumerate(paths)}
    width = len(paths)

    def to_vector(terms: Iterable[tuple[object, Path]]) -> list:
        vec = [field.zero] * width
        for coeff, path in terms:
            if path.length <= nilpotency_bound:
                vec[coord_of[path]] = vec[coord_of[path]] + coeff
        return vec

    arrows = quiver.arrows
    span = GaussianSpan(field, width)
    worklist: list[list] = [to_vector(r) for r in checked]

    def vector_terms(vec):
        for c, coeff in enumerate(vec):
            if coeff:
                yield coeff, paths[len(paths) - 1 - c]

    while worklist:
        vec = worklist.pop()
        if not span.add(vec):
            continue
        terms = list(vector_terms(vec))
        for a in arrows:
            left = [
                (coeff, Path((a.name,) + p.arrows, p.source, a.target))
                for coeff, p in terms
                if a.source == p.target
            ]
            if left:
                worklist.append(to_vector(left))
            right = [
                (coeff, Path(p.arrows + (a.name,), a.source, p.target))
                for coeff, p in terms
                if p.source == a.target
            ]
            if right:
                worklist.append(to_vector(right))

    # Admissibility certificate: every path of full length must die.
    for p in paths:
        if p.length == nilpotency_bound:
            indicator = [field.zero] * width
            indicator[coord_of[p]] = field.one
            if not span.contains(indicator):
                raise NonAdmissible(
                    f"path {p} of length {nilpotency_bound} survives reduction "
                    "modulo the relation ideal; raise the bound or add relations",
                    witness=p,
                )

    pivot_coords = set(span.pivots())
    basis_paths = sorted(
        (p for p in paths if coord_of[p] not in pivot_coords),
        key=lambda p: deglex_key(quiver, p),
    )
    basis = tuple(basis_paths)
    basis_pos = {p: i for i, p in enumerate(basis)}

    normal_forms: dict[Path, dict[int, object]] = {}
    for p in paths:
        indicator = [field.zero] * width
        indicator[coord_of[p]] = field.one
        residual = span.reduce(indicator)
        nf = {}
        for c, coeff in enumerate(residual):
            if coeff:
                nf[basis_pos[paths[len(paths) - 1 - c]]] = coeff
        normal_forms[p] = nf

    return PathAlgebra(field, quiver, checked, nilpotency_bound, basis, normal_forms)
