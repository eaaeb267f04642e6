"""Parsers for the declarative input files.

Two file kinds exist.  Algebra files describe a quiver with relations
in bracketed sections::

    [field]
    characteristic = 0

    [vertices]
    1
    2

    [arrows]
    a: 2 -> 1

    [relations]
    1/2 a;b - c

    [bound]
    2

Collection files define complexes of projectives and group them into
named collections::

    complex C {
      deg -1: P2;
      deg 0: P1;
      d -1: a;
    }
    silting example = [proj(1), C[1]]
    smc partner = [res(simple 1), res(simple 2)]

Paths are written target-to-source with arrow names joined by ``;``;
trivial paths as ``e_v``.  ``#`` starts a comment.  All positions in
errors are 1-based.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

from ..core.algebras import AlgebraElement, PathAlgebra, build_algebra
from ..core.modules import minimal_projective_resolution
from ..core.quivers import Arrow, Path, Quiver
from ..errors import ChainConditionViolated, ParseError, TruncationUnsound, UnknownVertex
from ..fields import field_of_characteristic
from ..homotopy.complexes import Generated, ProjComplex, shift, single_projective

_IDENT = r"[A-Za-z_0-9]+"
_ARROW_LINE = re.compile(rf"^({_IDENT})\s*:\s*({_IDENT})\s*->\s*({_IDENT})$")
_SECTION = re.compile(r"^\[([a-z]+)\]$")
_TERM = re.compile(
    rf"^(?:(\d+(?:/\d+)?)\s*\*?\s*)?((?:e_{_IDENT})|(?:{_IDENT}(?:;{_IDENT})*))$"
)
_SUMMAND = re.compile(rf"^P({_IDENT})(?:\^(\d+))?$")
_ENTRY = re.compile(
    rf"^(?P<base>(?:proj\(\s*{_IDENT}\s*\))|(?:res\(\s*simple\s+{_IDENT}\s*\))|{_IDENT})"
    r"(?:\[(?P<shift>-?\d+)\])?$"
)


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def _fail(msg: str, line: int, column: int = 1) -> None:
    raise ParseError(msg, line, column)


# ---------------------------------------------------------------------------
# algebra files
# ---------------------------------------------------------------------------


def parse_algebra(text: str, characteristic: int | None = None) -> PathAlgebra:
    """Build a path algebra from an algebra file's text.

    ``characteristic`` overrides the file's ``[field]`` section when
    given (the ``--char`` flag).
    """
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        m = _SECTION.match(line)
        if m:
            current = m.group(1)
            if current not in {"field", "vertices", "arrows", "relations", "bound"}:
                _fail(f"unknown section [{current}]", no)
            sections.setdefault(current, [])
            continue
        if current is None:
            _fail("content before the first section header", no)
        sections[current].append((no, line))

    char = 0
    for no, line in sections.get("field", []):
        m = re.match(r"^characteristic\s*=\s*(\d+)$", line)
        if not m:
            _fail("expected 'characteristic = N'", no)
        char = int(m.group(1))
    if characteristic is not None:
        char = characteristic
    try:
        fld = field_of_characteristic(char)
    except ValueError as exc:
        _fail(str(exc), sections.get("field", [(1, "")])[0][0])

    if "vertices" not in sections or not sections["vertices"]:
        _fail("missing [vertices] section", 1)
    vertices: list[str] = []
    for no, line in sections["vertices"]:
        for tok in line.split():
            if not re.fullmatch(_IDENT, tok):
                _fail(f"bad vertex id {tok!r}", no)
            if tok in vertices:
                _fail(f"duplicate vertex {tok!r}", no)
            vertices.append(tok)

    arrows: list[Arrow] = []
    seen_arrows: set[str] = set()
    for no, line in sections.get("arrows", []):
        m = _ARROW_LINE.match(line)
        if not m:
            _fail("expected 'name: source -> target'", no)
        name, source, target = m.groups()
        if name in seen_arrows:
            _fail(f"duplicate arrow name {name!r}", no)
        seen_arrows.add(name)
        for endpoint in (source, target):
            if endpoint not in vertices:
                _fail(f"arrow {name} has undeclared endpoint {endpoint!r}", no)
        arrows.append(Arrow(name, source, target))

    try:
        quiver = Quiver(tuple(vertices), tuple(arrows))
    except (ValueError, UnknownVertex) as exc:
        _fail(str(exc), sections["vertices"][0][0])

    arrow_names = {a.name: a for a in arrows}

    def path_of(token: str, no: int) -> Path:
        if token.startswith("e_"):
            v = token[2:]
            if v not in quiver.vertices:
                _fail(f"unknown vertex {v!r} in trivial path", no)
            return Path((), v, v)
        names = token.split(";")
        source = target = None
        for pos, name in enumerate(names):
            a = arrow_names.get(name)
            if a is None:
                _fail(f"unknown arrow {name!r}", no)
            if pos == 0:
                target = a.target
            elif source != a.target:
                _fail(
                    f"arrows {names[pos - 1]!r} and {name!r} do not compose",
                    no,
                )
            source = a.source
        return Path(tuple(names), source, target)

    def relation_terms(line: str, no: int) -> list[tuple[object, Path]]:
        terms = []
        for sign, body in _signed_chunks(line, no):
            m = _TERM.match(body)
            if not m:
                _fail(f"cannot parse term {body!r}", no)
            coeff_text, word = m.groups()
            coeff = fld.coerce(coeff_text) if coeff_text else fld.one
            if sign < 0:
                coeff = -coeff
            terms.append((coeff, path_of(word, no)))
        return terms

    relations = [relation_terms(line, no) for no, line in sections.get("relations", [])]

    bound_lines = sections.get("bound", [])
    if not bound_lines:
        _fail("missing [bound] section", 1)
    no, line = bound_lines[-1]
    if not line.isdigit() or int(line) < 1:
        _fail("nilpotency bound must be a positive integer", no)
    bound = int(line)

    return build_algebra(quiver, relations, bound, field=fld)


def _signed_chunks(text: str, no: int) -> list[tuple[int, str]]:
    """Split a linear combination into (sign, term-text) chunks.

    ``+`` and ``-`` act as separators; a leading sign is allowed.  Signs
    bind to whole terms, never inside coefficients, because negative
    coefficients are always rendered through the separator.
    """
    out: list[tuple[int, str]] = []
    sign = 1
    buf: list[str] = []
    for ch in text:
        if ch in "+-":
            body = "".join(buf).strip()
            if body:
                out.append((sign, body))
            elif out:
                _fail(f"dangling sign in {text!r}", no)
            sign = 1 if ch == "+" else -1
            buf = []
        else:
            buf.append(ch)
    body = "".join(buf).strip()
    if not body:
        _fail(f"expected a term at the end of {text!r}", no)
    out.append((sign, body))
    return out


# ---------------------------------------------------------------------------
# algebra elements and matrices
# ---------------------------------------------------------------------------


def parse_element(text: str, algebra: PathAlgebra, no: int = 1) -> AlgebraElement:
    """Parse a linear combination of path words into an algebra element."""
    text = text.strip()
    if text == "0":
        return algebra.zero()
    arrow_names = {a.name for a in algebra.quiver.arrows}
    acc = algebra.zero()
    for sign, body in _signed_chunks(text, no):
        m = _TERM.match(body)
        if not m:
            _fail(f"cannot parse term {body!r}", no)
        coeff_text, word = m.groups()
        coeff = algebra.field.coerce(coeff_text) if coeff_text else algebra.field.one
        if sign < 0:
            coeff = -coeff
        if word.startswith("e_") and word[2:] in algebra.quiver.vertices:
            element = algebra.idempotent(word[2:])
        else:
            names = word.split(";")
            for name in names:
                if name not in arrow_names:
                    _fail(f"unknown arrow {name!r}", no)
            path = _compose_names(algebra, names, no)
            element = algebra.from_path(path)
        acc = acc + element.scale(coeff)
    return acc


def _compose_names(algebra: PathAlgebra, names: list[str], no: int) -> Path:
    arrows = {a.name: a for a in algebra.quiver.arrows}
    source = target = None
    for pos, name in enumerate(names):
        a = arrows[name]
        if pos == 0:
            target = a.target
        elif source != a.target:
            _fail(f"arrows {names[pos - 1]!r} and {name!r} do not compose", no)
        source = a.source
    return Path(tuple(names), source, target)


def parse_matrix(text: str, algebra: PathAlgebra, no: int) -> list[list[AlgebraElement]]:
    """Parse ``entry, entry | entry, entry`` into a matrix of elements."""
    rows = []
    for row_text in text.split("|"):
        rows.append(
            [parse_element(cell, algebra, no) for cell in row_text.split(",")]
        )
    if len({len(r) for r in rows}) > 1:
        _fail("matrix rows have different lengths", no)
    return rows


# ---------------------------------------------------------------------------
# collection files
# ---------------------------------------------------------------------------


@dataclass
class CollectionFile:
    """Parsed contents of a collection file.

    A collection with a ``res(simple v)`` entry that does not end within
    ``RESOLUTION_BOUND`` holds that TruncationUnsound in place of its
    members.  Handing the collection out raises it, after every count
    check: a file's own errors come first, and a collection the command
    does not ask for (the simple-minded side under ``verify --silting``)
    does not stop it.
    """

    complexes: dict[str, ProjComplex] = dataclass_field(default_factory=dict)
    silting: dict[str, list[ProjComplex] | TruncationUnsound] = dataclass_field(
        default_factory=dict
    )
    #: A declaration of the resolved simples is kept as :class:`Generated`.
    smc: dict[str, Sequence[ProjComplex] | TruncationUnsound] = dataclass_field(
        default_factory=dict
    )
    #: (keyword, line) of every collection declaration, in file order.
    declarations: list[tuple[str, int]] = dataclass_field(default_factory=list)

    def _only(self, keyword: str) -> Sequence[ProjComplex] | TruncationUnsound:
        lines = [no for kind, no in self.declarations if kind == keyword]
        _exactly_one(keyword, lines)
        table = self.silting if keyword == "silting" else self.smc
        return next(iter(table.values()))

    def sole(self, keyword: str) -> Sequence[ProjComplex]:
        """The unique collection declared under ``keyword``."""
        return _members(self._only(keyword))

    def any_collection(self) -> tuple[str, str, Sequence[ProjComplex]]:
        """The unique collection of either kind, as (kind, name, members)."""
        _exactly_one("collection", [no for _, no in self.declarations])
        found = [("silting", n, c) for n, c in self.silting.items()]
        found += [("smc", n, c) for n, c in self.smc.items()]
        kind, name, members = found[0]
        return kind, name, _members(members)

    def pair(self) -> tuple[Sequence[ProjComplex], Sequence[ProjComplex]]:
        """The (silting, smc) pair of a pair file."""
        silting, smc = self._only("silting"), self._only("smc")
        return _members(silting), _members(smc)


def _members(
    collection: Sequence[ProjComplex] | TruncationUnsound,
) -> Sequence[ProjComplex]:
    if isinstance(collection, TruncationUnsound):
        raise collection
    return collection


def _exactly_one(what: str, lines: list[int]) -> None:
    """Refuse anything but a single declaration: none is a whole-file
    condition; of several, point at the second and name every line."""
    if len(lines) == 1:
        return
    message = f"expected exactly one {what} declaration, found {len(lines)}"
    if not lines:
        raise ParseError(message)
    listed = ", ".join(map(str, lines[:-1])) + f" and {lines[-1]}"
    raise ParseError(f"{message}, on lines {listed}", lines[1], 1)


def parse_collection_file(text: str, algebra: PathAlgebra) -> CollectionFile:
    """Parse complex literals and collection declarations."""
    out = CollectionFile()
    lines = text.splitlines()
    no = 0
    total = len(lines)
    while no < total:
        line = _strip(lines[no])
        no += 1
        if not line:
            continue
        m = re.match(rf"^complex\s+({_IDENT})\s*\{{$", line)
        if m:
            no = _parse_complex_block(m.group(1), lines, no, algebra, out)
            continue
        m = re.match(rf"^(silting|smc)\s+({_IDENT})\s*=\s*\[(.*)\]$", line)
        if m:
            keyword, name, body = m.groups()
            entries = []
            refused = None
            for tok in body.split(","):
                if not tok.strip():
                    continue
                try:
                    entries.append(_resolve_entry(tok.strip(), algebra, out, no))
                except TruncationUnsound as exc:
                    refused = refused or exc
            if not entries and refused is None:
                _fail(f"collection {name!r} is empty", no)
            members = [x for x, _ in entries]
            if refused is not None:
                members = refused
            elif keyword == "smc" and _is_standard(entries, algebra):
                members = Generated(members, "standard collection")
            table = out.silting if keyword == "silting" else out.smc
            if name in table:
                _fail(f"duplicate {keyword} name {name!r}", no)
            table[name] = members
            out.declarations.append((keyword, no))
            continue
        _fail(f"cannot parse {line!r}", no)
    return out


def _parse_complex_block(
    name: str, lines: list[str], no: int, algebra: PathAlgebra, out: CollectionFile
) -> int:
    """Parse the body of ``complex name { ... }``; returns the next line index."""
    if name in out.complexes:
        _fail(f"duplicate complex name {name!r}", no)
    header_line = no
    summands: dict[int, tuple[str, ...]] = {}
    raw_diffs: dict[int, tuple[int, list[list[AlgebraElement]]]] = {}
    while True:
        if no >= len(lines):
            _fail(f"complex {name!r} is not closed by '}}'", header_line)
        line = _strip(lines[no])
        no += 1
        if not line:
            continue
        if line == "}":
            break
        line = line.rstrip(";").strip()
        m = re.match(r"^deg\s+(-?\d+)\s*:\s*(.*)$", line)
        if m:
            k = int(m.group(1))
            if k in summands:
                _fail(f"degree {k} declared twice in complex {name!r}", no)
            summands[k] = _parse_summands(m.group(2), no)
            try:
                for v in summands[k]:
                    algebra.check_vertex(v)
            except UnknownVertex as exc:
                _fail(str(exc), no)
            continue
        m = re.match(r"^d\s+(-?\d+)\s*:\s*(.*)$", line)
        if m:
            k = int(m.group(1))
            if k in raw_diffs:
                _fail(f"differential at {k} declared twice in {name!r}", no)
            raw_diffs[k] = (no, parse_matrix(m.group(2), algebra, no))
            continue
        _fail(f"cannot parse {line!r} inside complex {name!r}", no)

    diffs = {}
    for k, (line_no, mat) in raw_diffs.items():
        rows = len(summands.get(k + 1, ()))
        cols = len(summands.get(k, ()))
        if len(mat) != rows or (mat and len(mat[0]) != cols):
            _fail(
                f"differential at degree {k} of {name!r} should be "
                f"{rows} x {cols}, got {len(mat)} x {len(mat[0]) if mat else 0}",
                line_no,
            )
        diffs[k] = mat
    try:
        out.complexes[name] = ProjComplex(algebra, summands, diffs, label=name)
    except ChainConditionViolated as exc:
        _fail(f"complex {name!r}: {exc}", header_line)
    return no


def _parse_summands(text: str, no: int) -> tuple[str, ...]:
    text = text.strip()
    if text == "0":
        return ()
    vertices: list[str] = []
    for chunk in text.split("+"):
        m = _SUMMAND.match(chunk.strip())
        if not m:
            _fail(f"cannot parse summand {chunk.strip()!r}", no)
        v, mult = m.group(1), int(m.group(2) or "1")
        vertices.extend([v] * mult)
    return tuple(vertices)


def _is_standard(
    entries: list[tuple[ProjComplex, str | None]], algebra: PathAlgebra
) -> bool:
    """Whether the entries are the resolutions of the simples, each vertex
    once and none shifted."""
    simples = [v for _, v in entries]
    return None not in simples and sorted(simples) == sorted(algebra.quiver.vertices)


def _resolve_entry(
    token: str, algebra: PathAlgebra, out: CollectionFile, no: int
) -> tuple[ProjComplex, str | None]:
    """The entry's complex, and its vertex v when the entry is an
    unshifted ``res(simple v)``."""
    m = _ENTRY.match(token)
    if not m:
        _fail(f"cannot parse collection entry {token!r}", no)
    base, shift_text = m.group("base"), m.group("shift")
    pm = re.match(rf"^proj\(\s*({_IDENT})\s*\)$", base)
    rm = re.match(rf"^res\(\s*simple\s+({_IDENT})\s*\)$", base)
    if pm:
        v = pm.group(1)
        if v not in algebra.quiver.vertices:
            _fail(f"unknown vertex {v!r} in proj(...)", no)
        x = single_projective(algebra, v, 0, label=f"P({v})")
    elif rm:
        v = rm.group(1)
        if v not in algebra.quiver.vertices:
            _fail(f"unknown vertex {v!r} in res(simple ...)", no)
        x = minimal_projective_resolution(algebra, v)
    else:
        if base not in out.complexes:
            _fail(f"unknown complex {base!r}", no)
        x = out.complexes[base]
    amount = int(shift_text or 0)
    if shift_text:
        x = shift(x, amount)
    return x, rm.group(1) if rm and not amount else None
