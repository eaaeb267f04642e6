"""Verification of silting and simple-minded collections and of the
orthogonality pattern binding a pair of them together.

Every check returns a :class:`CheckReport` with a three-valued verdict:

* ``pass`` — all conditions verified;
* ``fail`` — a condition is violated, with a concrete witness;
* ``not-certified`` — nothing failed, but some condition could not be
  settled: the thick-closure search is bounded, so silence is not
  evidence, and indecomposability over the rationals can stay open.

Every condition on a pair of collections is a statement about one
table, dim Hom(X_i, Y_j[m]): presilting wants zeros for m > 0,
simple-minded zeros for m < 0 and orthogonality at m = 0, and the
pattern zeros for m ≠ 0 with one matched entry per row at m = 0.  Each
check reads its Hom dimensions from a :func:`pattern_table`, built from
one Hom complex per pair of members.

``check_pattern`` is the entry point for pairs: it certifies each
member of a (pre)silting collection as the derived projective cover of
its partner in a simple-minded collection, and packages the result,
with the full table and the index bijection, into a replayable
:class:`CorrespondenceCertificate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import Inconclusive, PatternFailed
from ..homotopy.compare import is_indecomposable, is_isomorphic
from ..homotopy.complexes import (
    Generated,
    ProjComplex,
    component_split,
    cone,
    minimize,
    shift,
)
from ..homotopy.homs import cartan_pairing, hom_dims, hom_space
from ..serialize import algebra_hash, collection_text

#: Ceiling on distinct objects tracked by the thick-closure search.
CLOSURE_NODE_CAP = 120

#: dim Hom(X_i, Y_j[m]) as ``{(i, j): {m: dim}}``.
PatternTable = dict[tuple[int, int], dict[int, int]]


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
    ``(source index, target index, degree, dimension)``.  ``table`` is
    the Hom table of a simple-minded check (degrees m <= 0), from which
    ``check_pattern`` reads the endomorphism dimensions.
    """

    subject: str
    verdict: str
    items: list[CheckItem] = field(default_factory=list)
    witness: object = None
    table: PatternTable | None = None

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
        self.table: PatternTable | None = None
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
        return CheckReport(self.subject, verdict, self.items, self.witness, self.table)


def support_window(x: ProjComplex, y: ProjComplex) -> range:
    """Degrees m where Hom(x, y[m]) can be nonzero, read off the supports.

    Outside this window the Hom complex itself is zero, so tables only
    ever record entries inside it.
    """
    if x.is_zero() or y.is_zero():
        return range(0)
    return range(y.min_degree - x.max_degree, y.max_degree - x.min_degree + 1)


def pattern_table(
    xs: Sequence[ProjComplex],
    ys: Sequence[ProjComplex],
    wanted: Callable[[int], bool] = lambda m: True,
) -> PatternTable:
    """The table dim Hom(X_i, Y_j[m]) over the support windows, for the
    degrees m that ``wanted`` accepts.

    Every check reads its Hom dimensions from such a table.  Each pair is
    one Hom complex; pairs are taken row-major and degrees ascending.
    """
    return {
        (i, j): hom_dims(x, y, [m for m in support_window(x, y) if wanted(m)])
        for i, x in enumerate(xs)
        for j, y in enumerate(ys)
    }


def _require_vanishing(
    rep: _Reporter,
    table: PatternTable,
    summary: str,
    read: Callable[[int, int, int], bool] = lambda i, j, m: True,
) -> None:
    """A hard item for every nonzero entry that ``read`` accepts, or the
    one ``summary`` item when there is none."""
    clean = True
    for (i, j), row in table.items():
        for m, d in row.items():
            if d and read(i, j, m):
                clean = False
                target = f"member {j + 1}[{m}]" if m else f"member {j + 1}"
                rep.hard(
                    f"Hom(member {i + 1}, {target}) vanishes",
                    False,
                    f"dimension {d}",
                    witness=(i, j, m, d),
                )
    if clean:
        rep.hard(summary, True)


def _generation(
    rep: _Reporter, collection: Sequence[ProjComplex], mat: list[list[int]], depth: int
) -> None:
    """Generation in two halves: ``mat``, the members' classes in a basis
    of the Grothendieck group, must be an unimodular square matrix, and
    the thick closure must reach every stalk projective, by a
    :class:`Generated` collection's route or by the bounded search."""
    nverts = len(collection[0].algebra.quiver.vertices)
    if len(mat) != nverts:
        rep.hard(
            "class matrix is square",
            False,
            f"{len(mat)} members over {nverts} vertices",
        )
        return
    det = _determinant(mat)
    rep.hard("class matrix is unimodular", abs(det) == 1, f"determinant {det}")
    if rep.failed:
        return
    if isinstance(collection, Generated):
        ok, detail = True, f"by provenance: {collection.route}"
    else:
        ok, detail = _closure_search(collection, depth=depth)
    rep.soft("thick closure reaches all projectives", ok, detail)


# ---------------------------------------------------------------------------
# presilting / silting
# ---------------------------------------------------------------------------


def check_presilting(collection: Sequence[ProjComplex]) -> CheckReport:
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
        except Inconclusive as exc:
            rep.soft(f"member {i + 1} is indecomposable", False, str(exc))
    if rep.failed:
        return rep.report()

    for i in range(len(collection)):
        for j in range(i + 1, len(collection)):
            same = is_isomorphic(collection[i], collection[j])
            rep.hard(
                f"members {i + 1} and {j + 1} are non-isomorphic",
                not same,
                "isomorphic" if same else "",
            )

    table = pattern_table(collection, collection, lambda m: m > 0)
    _require_vanishing(rep, table, "positive-degree Homs vanish")
    return rep.report()


def k0_matrix(collection: Sequence[ProjComplex]) -> list[list[int]]:
    """Integer matrix of Euler pairings of the members against the
    indecomposable projectives, one row per member: their coordinates in
    K_0(D^b(mod A)), which :func:`check_smc` tests for unimodularity."""
    algebra = collection[0].algebra
    rows = []
    for x in collection:
        cls = x.class_vector()
        rows.append(
            [cartan_pairing(algebra, {v: 1}, cls) for v in algebra.quiver.vertices]
        )
    return rows


def _determinant(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: each step divides exactly by the previous pivot."""
    n = len(rows)
    mat = [list(row) for row in rows]
    sign, prev = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            sign = -sign
        top = mat[col]
        for r in range(col + 1, n):
            row = mat[r]
            for c in range(col + 1, n):
                row[c] = (row[c] * top[col] - row[col] * top[c]) // prev
        prev = top[col]
    return sign * prev


def _closure_search(
    collection: Sequence[ProjComplex], depth: int
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
        for piece in component_split(m):
            if piece.total_summands() == 1:
                v = next(iter(piece.summands.values()))[0]
                reached.setdefault(v, level)
            if len(nodes) >= CLOSURE_NODE_CAP:
                continue
            if not any(is_isomorphic(piece, n) for n in nodes):
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


def check_silting(collection: Sequence[ProjComplex], depth: int = 3) -> CheckReport:
    """Presilting conditions plus a generation certificate.

    Generation is certified in two halves: the members' class vectors,
    their coordinates in K_0(K^b(proj A)) over the projectives, must form
    an unimodular square matrix, and a bounded thick-closure search must
    actually reach every stalk projective.  Passing the first while
    exhausting the second yields ``not-certified``.  The class vectors,
    not the Euler pairings of :func:`k0_matrix`, are the right
    coordinates here: the two differ by the Cartan determinant, which
    need not be ±1 when A has infinite global dimension, and A itself is
    always silting.
    """
    rep = _Reporter("silting")
    rep.absorb(check_presilting(collection))
    if not rep.failed:
        vertices = collection[0].algebra.quiver.vertices
        classes = [[x.class_vector()[v] for v in vertices] for x in collection]
        _generation(rep, collection, classes, depth)
    return rep.report()


# ---------------------------------------------------------------------------
# simple-minded collections
# ---------------------------------------------------------------------------


def check_smc(collection: Sequence[ProjComplex], depth: int = 3) -> CheckReport:
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

    rep.table = table = pattern_table(collection, collection, lambda m: m <= 0)
    _require_vanishing(rep, table, "negative-degree Homs vanish", lambda i, j, m: m < 0)
    _require_vanishing(
        rep, table, "distinct members are orthogonal", lambda i, j, m: m == 0 and i != j
    )
    for i in range(len(collection)):
        d = table[(i, i)][0]
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
    if not rep.failed:
        _generation(rep, collection, k0_matrix(collection), depth)
    return rep.report()


# ---------------------------------------------------------------------------
# the orthogonality pattern
# ---------------------------------------------------------------------------


class CorrespondenceCertificate:
    """A verified orthogonality pattern between a silting-side and a
    simple-minded-side collection.

    Carries both collections, the index bijection, the full Hom table
    over the support windows, the sub-check verdicts, and the run's
    recorded seed.  ``serialize`` emits a canonical text form
    that replays byte-identically.
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


def check_pattern(
    silting: Sequence[ProjComplex],
    smc: Sequence[ProjComplex],
    seed: int = 0,
    depth: int = 3,
) -> CorrespondenceCertificate:
    """Certify each silting member P_i as the derived projective cover of
    the simple member L_σ(i), in the paper's sense, for a bijection σ.

    Requires the first collection to pass its presilting check and the
    second its simple-minded check; then demands Hom(P_i, L_j[m]) = 0
    for every m ≠ 0 and a degree-0 table that matches members up
    bijectively, each matched entry of dimension dim End(L_σ(i)).
    Violations raise PatternFailed with the offending (i, j, m, dim) and
    the full table; success returns a certificate carrying σ as its
    ``bijection``.
    """
    pres = check_presilting(silting)
    if pres.verdict == "fail":
        raise PatternFailed(
            f"silting side fails its presilting check: {pres.summary()}",
            witness=pres.witness,
        )
    smc_report = check_smc(smc, depth=depth)
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
    end_dims = [smc_report.table[(j, j)][0] for j in range(len(smc))]
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
