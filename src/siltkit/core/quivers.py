"""Quivers and paths.

A path is written target-to-source: the tuple ``(a1, a2, ..., ak)`` denotes
the composite ``a1 ∘ a2 ∘ ... ∘ ak``, which traverses ``ak`` first.  An arrow
``a: u -> v`` therefore satisfies ``a = e_v · a · e_u``: the trivial path at
the target absorbs it on the left, the one at the source on the right.  All
path algebra and module conventions downstream flow from this single choice.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str

    def __str__(self) -> str:
        return f"{self.name}: {self.source} -> {self.target}"


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow ids")
        if set(names) & set(self.vertices):
            raise ValueError("arrow ids must be distinct from vertex ids")
        declared = set(self.vertices)
        for a in self.arrows:
            if a.source not in declared or a.target not in declared:
                raise ValueError(f"arrow {a.name} has undeclared endpoint")

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(f"no arrow named {name!r}")

    def vertex_index(self, v: str) -> int:
        return self.vertices.index(v)

    def arrow_index(self, name: str) -> int:
        for i, a in enumerate(self.arrows):
            if a.name == name:
                return i
        raise KeyError(f"no arrow named {name!r}")


@dataclass(frozen=True)
class Path:
    """A composable sequence of arrows, or a trivial path at a vertex.

    ``arrows`` lists arrow names target-to-source; ``source``/``target`` are
    the endpoints (equal, for a trivial path).
    """

    arrows: tuple[str, ...]
    source: str
    target: str

    @property
    def length(self) -> int:
        return len(self.arrows)

    def __str__(self) -> str:
        if not self.arrows:
            return f"e_{self.source}"
        return ";".join(self.arrows)


def trivial_path(v: str) -> Path:
    return Path((), v, v)


def compose(p: Path, q: Path) -> Path | None:
    """The product p·q (traverse q first), or None if not composable."""
    if p.source != q.target:
        return None
    return Path(p.arrows + q.arrows, q.source, p.target)


def path_from_arrows(quiver: Quiver, names: tuple[str, ...]) -> Path:
    """Build and validate a path from arrow names listed target-to-source."""
    if not names:
        raise ValueError("a nontrivial path needs at least one arrow")
    arrows = [quiver.arrow(n) for n in names]
    for left, right in zip(arrows, arrows[1:]):
        if left.source != right.target:
            raise ValueError(
                f"arrows {left.name} and {right.name} do not compose: "
                f"{left.name} starts at {left.source}, {right.name} ends at {right.target}"
            )
    return Path(tuple(names), arrows[-1].source, arrows[0].target)


def deglex_key(quiver: Quiver, p: Path) -> tuple:
    """Sort key: by length, then arrow index sequence, then source vertex."""
    return (
        p.length,
        tuple(quiver.arrow_index(n) for n in p.arrows),
        quiver.vertex_index(p.source),
    )


def enumerate_paths(quiver: Quiver, max_length: int) -> list[Path]:
    """All paths of length <= max_length, in degree-lexicographic order."""
    result: list[Path] = [trivial_path(v) for v in quiver.vertices]
    frontier = list(result)
    for _ in range(max_length):
        extended = []
        for p in frontier:
            # Extend on the right: traverse a new arrow before the rest.
            for a in quiver.arrows:
                if a.target == p.source:
                    extended.append(Path(p.arrows + (a.name,), a.source, p.target))
        result.extend(extended)
        frontier = extended
        if not frontier:
            break
    result.sort(key=lambda p: deglex_key(quiver, p))
    return result
