"""Verification of silting and simple-minded collections and of the
orthogonality pattern binding a pair of them together.

Every check returns a :class:`CheckReport` with a three-valued verdict:

* ``pass`` — all conditions verified;
* ``fail`` — a condition is violated, with a concrete witness;
* ``not-certified`` — nothing failed, but some condition could not be
  settled within the search budget (generation certificates and
  isomorphism searches are bounded, so silence is not evidence).

``check_pattern`` is the entry point for pairs: it verifies the Hom
orthogonality table between a (pre)silting collection and a
simple-minded collection and packages the result, with the full table
and the index bijection, into a replayable
:class:`CorrespondenceCertificate`.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from ..errors import (
    CharacteristicUnsupported,
    Inconclusive,
    NotInAmbient,
    PatternFailed,
)
from ..homotopy.compare import is_indecomposable, is_isomorphic
from ..homotopy.complexes import (
    ChainMap,
    Generated,
    ProjComplex,
    cone,
    minimize,
    shift,
)
from ..homotopy.homs import cartan_pairing, hom_space
from ..serialize import algebra_hash, collection_text

#: Ceiling on distinct objects tracked by the thick-closure search.
CLOSURE_NODE_CAP = 120


@dataclass
class CheckItem:
    """One verified (or violated) condition inside a report."""

    name: str
    ok: bool
    detail: str = ""
    soft: bool = False

    def line(self) -> str:
        mark = "ok  " if self.ok else "open" if self.soft else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.name}{tail}"


@dataclass
class CheckReport:
    """Outcome of a collection or pattern check.

    ``witness`` carries the first concrete counterexample for a ``fail``
    verdict — for Hom-vanishing violations a tuple
    ``(source index, target index, degree, dimension)``.
    """

    subject: str
    verdict: str
    items: list[CheckItem] = field(default_factory=list)
    witness: object = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def summary(self) -> str:
        bad = [i for i in self.items if not i.ok]
        head = f"{self.subject}: {self.verdict}"
        if bad:
            head += "; " + "; ".join(f"{i.name} ({i.detail})" for i in bad[:3])
        return head

    def lines(self) -> list[str]:
        return [f"{self.subject}: {self.verdict}"] + [
            "  " + i.line() for i in self.items
        ]


class _Reporter:
    """Accumulates check items and derives the three-valued verdict.

    Hard failures force ``fail``; soft ones (budget exhaustion,
    inconclusive searches) degrade a would-be pass to ``not-certified``.
    """

    def __init__(self, subject: str):
        self.subject = subject
        self.items: list[CheckItem] = []
        self.witness: object = None
        self._failed = False
        self._uncertain = False

    def hard(self, name: str, ok: bool, detail: str = "", witness: object = None):
        self.items.append(CheckItem(name, ok, detail))
        if not ok:
            self._failed = True
            if self.witness is None and witness is not None:
                self.witness = witness

    def soft(self, name: str, ok: bool, detail: str = ""):
        self.items.append(CheckItem(name, ok, detail, soft=True))
        if not ok:
            self._uncertain = True

    def absorb(self, base: CheckReport) -> None:
        self.items.extend(base.items)
        if base.verdict == "fail":
            self._failed = True
            if self.witness is None:
                self.witness = base.witness
        elif base.verdict == "not-certified":
            self._uncertain = True

    @property
    def failed(self) -> bool:
        return self._failed

    def report(self) -> CheckReport:
        verdict = (
            "fail" if self._failed else "not-certified" if self._uncertain else "pass"
        )
        return CheckReport(self.subject, verdict, self.items, self.witness)


def support_window(x: ProjComplex, y: ProjComplex) -> range:
    """Degrees m where Hom(x, y[m]) can be nonzero, read off the supports.

    Outside this window the Hom complex itself is zero, so tables only
    ever record entries inside it.
    """
    if x.is_zero() or y.is_zero():
        return range(0)
    return range(y.min_degree - x.max_degree, y.max_degree - x.min_degree + 1)


def _hom_dim(x: ProjComplex, y: ProjComplex, m: int) -> int:
    return hom_space(x, y, m).dimension


# ---------------------------------------------------------------------------
# presilting / silting
# ---------------------------------------------------------------------------


def check_presilting(collection: Sequence[ProjComplex], seed: int = 0) -> CheckReport:
    """Indecomposability, pairwise distinctness, and vanishing of all
    positive-degree Homs between members (self-Homs included)."""
    rep = _Reporter("presilting")
    if not collection:
        rep.hard("collection is nonempty", False, "no members")
        return rep.report()
    rep.hard("collection is nonempty", True, f"{len(collection)} members")

    for i, x in enumerate(collection):
        if minimize(x).is_zero():
            rep.hard(f"member {i + 1} is nonzero", False, "minimizes to zero")
            continue
        try:
            ok = is_indecomposable(x)
            rep.hard(f"member {i + 1} is indecomposable", ok)
        except (Inconclusive, CharacteristicUnsupported) as exc:
            rep.soft(f"member {i + 1} is indecomposable", False, str(exc))
    if rep.failed:
        return rep.report()

    for i in range(len(collection)):
        for j in range(i + 1, len(collection)):
            try:
                same = is_isomorphic(collection[i], collection[j], seed=seed)
                rep.hard(
                    f"members {i + 1} and {j + 1} are non-isomorphic",
                    not same,
                    "isomorphic" if same else "",
                )
            except Inconclusive as exc:
                rep.soft(
                    f"members {i + 1} and {j + 1} are non-isomorphic",
                    False,
                    str(exc),
                )

    clean = True
    for i, x in enumerate(collection):
        for j, y in enumerate(collection):
            for m in support_window(x, y):
                if m <= 0:
                    continue
                d = _hom_dim(x, y, m)
                if d:
                    clean = False
                    rep.hard(
                        f"Hom(member {i + 1}, member {j + 1}[{m}]) vanishes",
                        False,
                        f"dimension {d}",
                        witness=(i, j, m, d),
                    )
    if clean:
        rep.hard("positive-degree Homs vanish", True)
    return rep.report()


def k0_matrix(collection: Sequence[ProjComplex]) -> list[list[int]]:
    """Integer matrix of Euler pairings of the members against the
    indecomposable projectives, one row per member."""
    algebra = collection[0].algebra
    rows = []
    for x in collection:
        cls = x.class_vector()
        rows.append(
            [cartan_pairing(algebra, {v: 1}, cls) for v in algebra.quiver.vertices]
        )
    return rows


def _determinant(rows: list[list[int]]) -> Fraction:
    n = len(rows)
    mat = [[Fraction(e) for e in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            if mat[r][col]:
                factor = mat[r][col] * inv
                for c in range(col, n):
                    mat[r][c] -= factor * mat[col][c]
    return det


def _component_split(x: ProjComplex) -> list[ProjComplex]:
    """Direct summands exhibited by the differential's block structure.

    Summand positions connected through nonzero differential entries
    must stay together; the connected components genuinely split off as
    direct summands (though they need not be indecomposable).
    """
    positions = [(k, i) for k in sorted(x.summands) for i in range(len(x.summands[k]))]
    if len(positions) <= 1:
        return [x]
    index = {p: n for n, p in enumerate(positions)}
    parent = list(range(len(positions)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for k, mat in x.diffs.items():
        for r, row in enumerate(mat):
            for c, entry in enumerate(row):
                if entry:
                    union(index[(k + 1, r)], index[(k, c)])

    groups: dict[int, list[tuple[int, int]]] = {}
    for p, n in index.items():
        groups.setdefault(find(n), []).append(p)
    if len(groups) == 1:
        return [x]

    out = []
    for root in sorted(groups, key=lambda r: min(groups[r])):
        pts = sorted(groups[root])
        degs: dict[int, list[int]] = {}
        for k, i in pts:
            degs.setdefault(k, []).append(i)
        summands = {k: tuple(x.summands[k][i] for i in idxs) for k, idxs in degs.items()}
        diffs = {}
        for k in degs:
            if k + 1 not in degs:
                continue
            mat = x.differential(k)
            diffs[k] = [[mat[r][c] for c in degs[k]] for r in degs[k + 1]]
        out.append(
            ProjComplex(
                x.algebra, summands, diffs, complete=x.complete, check=False
            )
        )
    return out


def _closure_search(
    collection: Sequence[ProjComplex], depth: int, seed: int
) -> tuple[bool, str]:
    """Bounded thick-closure search: can shifts, cones along computed
    maps, and summand extraction reach every stalk projective?

    A vertex counts as reached when some node is a one-summand complex
    at that vertex in any single degree (a shift of the projective —
    thick subcategories are shift-closed).  Returns (reached-all,
    human-readable detail).
    """
    algebra = collection[0].algebra
    verts = algebra.quiver.vertices
    reached: dict[str, int] = {}
    nodes: list[ProjComplex] = []

    def consider(c: ProjComplex, level: int) -> None:
        m = minimize(c)
        if m.is_zero():
            return
        for piece in _component_split(m):
            if piece.total_summands() == 1:
                v = next(iter(piece.summands.values()))[0]
                reached.setdefault(v, level)
            if len(nodes) >= CLOSURE_NODE_CAP:
                continue
            known = False
            for n in nodes:
                try:
                    if is_isomorphic(piece, n, seed=seed):
                        known = True
                        break
                except Inconclusive:
                    continue
            if not known:
                nodes.append(piece)

    for x in collection:
        consider(x, 0)
    level = 0
    while len(reached) < len(verts) and level < depth:
        level += 1
        frontier = list(nodes)
        for n in frontier:
            if len(reached) == len(verts):
                break
            consider(shift(n, 1), level)
            consider(shift(n, -1), level)
        current = list(nodes)
        for a in current:
            if len(reached) == len(verts):
                break
            for b in current:
                if len(reached) == len(verts):
                    break
                for f in hom_space(a, b, 0).representatives:
                    consider(cone(f), level)
                    if len(reached) == len(verts):
                        break
        if len(nodes) >= CLOSURE_NODE_CAP:
            break

    if len(reached) == len(verts):
        last = max(reached.values())
        return True, (
            f"all {len(verts)} stalk projectives reached by round {last} "
            f"({len(nodes)} objects examined)"
        )
    missing = [v for v in verts if v not in reached]
    bound = (
        f"CLOSURE_NODE_CAP = {CLOSURE_NODE_CAP} hit in round {level}"
        if len(nodes) >= CLOSURE_NODE_CAP
        else f"within depth {depth}"
    )
    return False, (
        f"vertices {', '.join(missing)} not reached {bound} "
        f"({len(nodes)} objects examined)"
    )


def check_silting(
    collection: Sequence[ProjComplex], seed: int = 0, depth: int = 3
) -> CheckReport:
    """Presilting conditions plus a generation certificate.

    Generation is certified in two halves: the members' classes must
    form an unimodular square matrix against the projectives, and a
    bounded thick-closure search must actually reach every stalk
    projective.  Passing the first while exhausting the second yields
    ``not-certified``.
    """
    rep = _Reporter("silting")
    rep.absorb(check_presilting(collection, seed=seed))
    if rep.failed:
        return rep.report()

    algebra = collection[0].algebra
    nverts = len(algebra.quiver.vertices)
    mat = k0_matrix(collection)
    if len(mat) != nverts:
        rep.hard(
            "class matrix is square",
            False,
            f"{len(mat)} members over {nverts} vertices",
        )
        return rep.report()
    det = _determinant(mat)
    rep.hard(
        "class matrix is unimodular",
        abs(det) == 1,
        f"determinant {det}",
    )
    if rep.failed:
        return rep.report()

    ok, detail = _closure_search(collection, depth=depth, seed=seed)
    rep.soft("thick closure reaches all projectives", ok, detail)
    return rep.report()


# ---------------------------------------------------------------------------
# simple-minded collections
# ---------------------------------------------------------------------------


def check_smc(
    collection: Sequence[ProjComplex], seed: int = 0, depth: int = 3
) -> CheckReport:
    """Negative-degree vanishing, degree-0 orthogonality between distinct
    members, one-dimensional endomorphisms, and a generation certificate.

    Generation is taken from a :class:`Generated` collection's route
    when it carries one, and from the bounded thick-closure search
    otherwise.

    An endomorphism ring of dimension above one is reported as
    ``not-certified`` rather than ``fail``: over a non-closed field it
    may still be a division ring, which the bounded check cannot settle.
    """
    rep = _Reporter("smc")
    if not collection:
        rep.hard("collection is nonempty", False, "no members")
        return rep.report()
    rep.hard("collection is nonempty", True, f"{len(collection)} members")

    for i, x in enumerate(collection):
        if minimize(x).is_zero():
            rep.hard(f"member {i + 1} is nonzero", False, "minimizes to zero")
    if rep.failed:
        return rep.report()

    clean = True
    for i, x in enumerate(collection):
        for j, y in enumerate(collection):
            for m in support_window(x, y):
                if m >= 0:
                    continue
                d = _hom_dim(x, y, m)
                if d:
                    clean = False
                    rep.hard(
                        f"Hom(member {i + 1}, member {j + 1}[{m}]) vanishes",
                        False,
                        f"dimension {d}",
                        witness=(i, j, m, d),
                    )
    if clean:
        rep.hard("negative-degree Homs vanish", True)

    clean = True
    for i, x in enumerate(collection):
        for j, y in enumerate(collection):
            if i == j or 0 not in support_window(x, y):
                continue
            d = _hom_dim(x, y, 0)
            if d:
                clean = False
                rep.hard(
                    f"Hom(member {i + 1}, member {j + 1}) vanishes",
                    False,
                    f"dimension {d}",
                    witness=(i, j, 0, d),
                )
    if clean:
        rep.hard("distinct members are orthogonal", True)

    for i, x in enumerate(collection):
        d = _hom_dim(x, x, 0)
        if d == 1:
            rep.hard(f"member {i + 1} has scalar endomorphisms", True)
        elif d > 1:
            rep.soft(
                f"member {i + 1} has scalar endomorphisms",
                False,
                f"endomorphism ring has dimension {d}; could be a division "
                "ring over a non-closed field",
            )
        else:
            rep.hard(
                f"member {i + 1} has scalar endomorphisms",
                False,
                "endomorphism ring is zero",
            )
    if rep.failed:
        return rep.report()

    algebra = collection[0].algebra
    nverts = len(algebra.quiver.vertices)
    mat = k0_matrix(collection)
    if len(mat) != nverts:
        rep.hard(
            "class matrix is square",
            False,
            f"{len(mat)} members over {nverts} vertices",
        )
        return rep.report()
    det = _determinant(mat)
    rep.hard("class matrix is unimodular", abs(det) == 1, f"determinant {det}")
    if rep.failed:
        return rep.report()

    if isinstance(collection, Generated):
        ok, detail = True, f"by provenance: {collection.route}"
    else:
        ok, detail = _closure_search(collection, depth=depth, seed=seed)
    rep.soft("thick closure reaches all projectives", ok, detail)
    return rep.report()


# ---------------------------------------------------------------------------
# derived projectives and membership
# ---------------------------------------------------------------------------


def derived_projective_test(
    p: ProjComplex, collection: Sequence[ProjComplex]
) -> CheckReport:
    """Whether Hom(p, L[m]) vanishes for every member L and every m ≠ 0."""
    rep = _Reporter("derived projective")
    if minimize(p).is_zero():
        rep.hard("object is nonzero", False, "minimizes to zero")
        return rep.report()
    clean = True
    for j, l in enumerate(collection):
        for m in support_window(p, l):
            if m == 0:
                continue
            d = _hom_dim(p, l, m)
            if d:
                clean = False
                rep.hard(
                    f"Hom(object, member {j + 1}[{m}]) vanishes",
                    False,
                    f"dimension {d}",
                    witness=(j, m, d),
                )
    if clean:
        rep.hard("nonzero-degree Homs into the collection vanish", True)
    return rep.report()


def derived_projective_cover_check(
    pi: ChainMap, collection: Sequence[ProjComplex]
) -> CheckReport:
    """Certify a candidate derived projective cover map.

    The source must pass the derived projective test and be
    indecomposable, and the map's homotopy class must be nonzero.
    """
    rep = _Reporter("derived projective cover")
    if pi.degree != 0:
        rep.hard("map has degree 0", False, f"degree {pi.degree}")
        return rep.report()
    rep.absorb(derived_projective_test(pi.source, collection))
    if rep.failed:
        return rep.report()
    try:
        rep.hard("source is indecomposable", is_indecomposable(pi.source))
    except (Inconclusive, CharacteristicUnsupported) as exc:
        rep.soft("source is indecomposable", False, str(exc))
    space = hom_space(pi.source, pi.target, 0)
    rep.hard(
        "homotopy class of the map is nonzero",
        not space.is_boundary(pi),
        "",
    )
    return rep.report()


def membership(
    x: ProjComplex,
    collection: Sequence[ProjComplex],
    which: str,
    certificate: "CorrespondenceCertificate | None" = None,
) -> bool:
    """Aisle/coaisle membership tests against a simple-minded collection.

    ``which`` is one of ``t<=0``, ``t>=0``, ``w<=0``, ``w>=0``.  The
    t-tests use the collection (or, for ``t>=0``, the silting side of a
    certificate when one is supplied) as orthogonality probes.  The
    w-tests additionally require a certificate: without a certified
    correspondence there is no ambient weight structure to be a member
    of, and NotInAmbient is raised.
    """
    if which not in {"t<=0", "t>=0", "w<=0", "w>=0"}:
        raise ValueError(f"unknown membership test {which!r}")
    if which.startswith("w") and certificate is None:
        raise NotInAmbient(
            "weight-structure membership needs a certified correspondence "
            "for the ambient weight structure"
        )
    if which in {"t<=0", "w<=0"}:
        return all(
            _hom_dim(x, l, m) == 0
            for l in collection
            for m in support_window(x, l)
            if m < 0
        )
    if which == "w>=0":
        return all(
            _hom_dim(x, l, m) == 0
            for l in collection
            for m in support_window(x, l)
            if m > 0
        )
    probes = list(certificate.silting) if certificate is not None else list(collection)
    return all(
        _hom_dim(p, x, n) == 0
        for p in probes
        for n in support_window(p, x)
        if n < 0
    )


# ---------------------------------------------------------------------------
# the orthogonality pattern
# ---------------------------------------------------------------------------

PatternTable = dict[tuple[int, int], dict[int, int]]


class CorrespondenceCertificate:
    """A verified orthogonality pattern between a silting-side and a
    simple-minded-side collection.

    Carries both collections, the index bijection, the full Hom table
    over the support windows, the sub-check verdicts, and the seed the
    verification ran with.  ``serialize`` emits a canonical text form
    that replays byte-identically; the creation timestamp is an
    attribute only and deliberately never serialized.
    """

    def __init__(
        self,
        algebra,
        silting: Sequence[ProjComplex],
        smc: Sequence[ProjComplex],
        bijection: Sequence[int],
        table: PatternTable,
        verdicts: dict[str, str],
        seed: int = 0,
    ):
        self.algebra = algebra
        self.silting = list(silting)
        self.smc = list(smc)
        self.bijection = tuple(bijection)
        self.table = table
        self.verdicts = dict(verdicts)
        self.seed = seed
        self.characteristic = algebra.field.characteristic
        self.timestamp = datetime.datetime.now(datetime.timezone.utc)

    def serialize(self) -> str:
        lines = ["certificate pattern"]
        lines.append(f"algebra-hash {algebra_hash(self.algebra)}")
        lines.append(f"characteristic {self.characteristic}")
        lines.append(f"seed {self.seed}")
        lines.append("")
        lines.append(collection_text("silting", "S", self.silting, "S"))
        lines.append("")
        lines.append(collection_text("smc", "T", self.smc, "T"))
        lines.append("")
        for i, j in enumerate(self.bijection):
            lines.append(f"pair S{i + 1} -> T{j + 1}")
        lines.append("table")
        for i, j in sorted(self.table):
            block = self.table[(i, j)]
            for m in sorted(block):
                lines.append(f"hom S{i + 1} T{j + 1} {m} {block[m]}")
        for name in sorted(self.verdicts):
            lines.append(f"verdict {name} {self.verdicts[name]}")
        lines.append("end certificate")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        pairs = ", ".join(
            f"S{i + 1}->T{j + 1}" for i, j in enumerate(self.bijection)
        )
        return f"CorrespondenceCertificate({pairs}, char {self.characteristic})"


def pattern_table(
    silting: Sequence[ProjComplex], smc: Sequence[ProjComplex]
) -> PatternTable:
    """The full table dim Hom(P_i, L_j[m]) over the support windows."""
    table: PatternTable = {}
    for i, p in enumerate(silting):
        for j, l in enumerate(smc):
            table[(i, j)] = {m: _hom_dim(p, l, m) for m in support_window(p, l)}
    return table


def check_pattern(
    silting: Sequence[ProjComplex],
    smc: Sequence[ProjComplex],
    seed: int = 0,
    depth: int = 3,
) -> CorrespondenceCertificate:
    """Verify the orthogonality pattern of a candidate pair.

    Requires the first collection to pass its presilting check and the
    second its simple-minded check; then demands Hom(P_i, L_j[m]) = 0
    for every m ≠ 0 and a degree-0 table that matches members up
    bijectively, each matched entry of the dimension of the simple
    side's endomorphism ring.  Violations raise PatternFailed with the
    offending (i, j, m, dim) and the full table; success returns a
    certificate.
    """
    pres = check_presilting(silting, seed=seed)
    if pres.verdict == "fail":
        raise PatternFailed(
            f"silting side fails its presilting check: {pres.summary()}",
            witness=pres.witness,
        )
    smc_report = check_smc(smc, seed=seed, depth=depth)
    if smc_report.verdict == "fail":
        raise PatternFailed(
            f"simple-minded side fails its check: {smc_report.summary()}",
            witness=smc_report.witness,
        )

    table = pattern_table(silting, smc)
    for i, j in sorted(table):
        for m in sorted(table[(i, j)]):
            d = table[(i, j)][m]
            if m != 0 and d:
                raise PatternFailed(
                    f"Hom(silting member {i + 1}, simple member {j + 1}[{m}]) "
                    f"has dimension {d}, expected zero",
                    witness=(i, j, m, d),
                    table=table,
                )

    if len(silting) != len(smc):
        raise PatternFailed(
            f"collections have different sizes ({len(silting)} versus {len(smc)})",
            table=table,
        )
    end_dims = [_hom_dim(l, l, 0) for l in smc]
    bijection: list[int] = []
    used: set[int] = set()
    for i in range(len(silting)):
        hits = [
            (j, table[(i, j)].get(0, 0))
            for j in range(len(smc))
            if table[(i, j)].get(0, 0)
        ]
        if len(hits) != 1:
            j, d = hits[1] if len(hits) > 1 else (0, 0)
            raise PatternFailed(
                f"silting member {i + 1} pairs with {len(hits)} simple members "
                "in degree 0, expected exactly one",
                witness=(i, j, 0, d),
                table=table,
            )
        j, d = hits[0]
        if d != end_dims[j]:
            raise PatternFailed(
                f"Hom(silting member {i + 1}, simple member {j + 1}) has "
                f"dimension {d}, expected the endomorphism dimension {end_dims[j]}",
                witness=(i, j, 0, d),
                table=table,
            )
        if j in used:
            raise PatternFailed(
                f"simple member {j + 1} pairs with two silting members",
                witness=(i, j, 0, d),
                table=table,
            )
        used.add(j)
        bijection.append(j)

    verdicts = {
        "presilting": pres.verdict,
        "smc": smc_report.verdict,
        "pattern": "pass",
    }
    return CorrespondenceCertificate(
        silting[0].algebra,
        silting,
        smc,
        bijection,
        table,
        verdicts,
        seed=seed,
    )
