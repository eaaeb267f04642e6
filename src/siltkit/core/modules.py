"""Finite-dimensional right modules over a path algebra quotient.

A module assigns a vector space to each vertex and a matrix to each arrow.
For an arrow ``a: u -> v`` the action matrix sends the component at the
*target* ``v`` to the component at the *source* ``u`` (shape
``dims[u] x dims[v]``): acting by ``a`` moves a vector against the arrow,
which is what makes ``e_v A`` the projective with top at ``v``.

For a path ``p = a1;a2;...;ak`` (target-to-source) the right action applies
``a1`` first: ``m . (p q) = (m . p) . q`` holds on the nose.
"""

from __future__ import annotations

from ..errors import UnknownVertex, ZeroModule
from ..linalg import (
    GaussianSpan,
    identity_matrix,
    kernel_basis,
    mat_mul,
    mat_vec,
    rank,
    solve,
    zero_matrix,
    zero_vector,
)
from .algebras import PathAlgebra
from .quivers import Path

#: Resolution length used for ``res(simple v)`` in input files and for the
#: simple-minded side of the standard pair.
RESOLUTION_BOUND = 12


class RightModule:
    """A representation of the quiver satisfying the algebra's relations."""

    def __init__(self, algebra: PathAlgebra, dims: dict[str, int], action: dict[str, list]):
        self.algebra = algebra
        self.dims = {v: dims.get(v, 0) for v in algebra.quiver.vertices}
        self.action = action
        self._validate()

    def _validate(self) -> None:
        for a in self.algebra.quiver.arrows:
            mat = self.action.get(a.name)
            if mat is None:
                raise ValueError(f"missing action matrix for arrow {a.name}")
            expect = (self.dims[a.source], self.dims[a.target])
            got = (len(mat), len(mat[0]) if mat else 0)
            if expect[0] == 0 or expect[1] == 0:
                if mat and any(mat):
                    # allow [] or properly-shaped empty matrices
                    if got[0] != expect[0]:
                        raise ValueError(
                            f"action of {a.name} should be {expect[0]}x{expect[1]}, got {got[0]}x{got[1]}"
                        )
                continue
            if got != expect:
                raise ValueError(
                    f"action of {a.name} should be {expect[0]}x{expect[1]}, got {got[0]}x{got[1]}"
                )
        for relation in self.algebra.relations:
            first = relation[0][1]
            acc = zero_matrix(
                self.algebra.field, self.dims[first.source], self.dims[first.target]
            )
            for coeff, path in relation:
                term = self.act_path(path)
                acc = [
                    [x + coeff * y for x, y in zip(ra, rt)]
                    for ra, rt in zip(acc, term)
                ]
            if any(any(row) for row in acc):
                raise ValueError(f"relation {_relation_str(relation)} does not act by zero")

    def act_path(self, path: Path) -> list:
        """Matrix of the right action of a path: component at the path's
        target mapped to the component at its source."""
        field = self.algebra.field
        mat = identity_matrix(field, self.dims[path.target])
        # Arrows are applied left-to-right through the tuple: the leftmost
        # arrow (adjacent to the target) acts first.
        for name in path.arrows:
            mat = mat_mul(field, self.action[name], mat)
        return mat

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __repr__(self):
        dims = {v: d for v, d in self.dims.items() if d}
        return f"RightModule(dims={dims or 0})"


def _relation_str(relation) -> str:
    return " + ".join(f"{c} {p}" for c, p in relation)


class ModuleMap:
    """A homomorphism of right modules: one matrix per vertex, commuting
    with every arrow action."""

    def __init__(self, source: RightModule, target: RightModule, blocks: dict[str, list],
                 check: bool = True):
        self.source = source
        self.target = target
        field = source.algebra.field
        self.blocks = {
            v: blocks.get(v, zero_matrix(field, target.dims[v], source.dims[v]))
            for v in source.algebra.quiver.vertices
        }
        if check:
            self._validate()

    def _validate(self) -> None:
        field = self.source.algebra.field
        for a in self.source.algebra.quiver.arrows:
            left = mat_mul(field, self.blocks[a.source], self.source.action[a.name])
            right = mat_mul(field, self.target.action[a.name], self.blocks[a.target])
            if left != right:
                raise ValueError(f"map does not commute with the action of {a.name}")

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other."""
        field = self.source.algebra.field
        blocks = {
            v: mat_mul(field, self.blocks[v], other.blocks[v])
            for v in self.source.algebra.quiver.vertices
        }
        return ModuleMap(other.source, self.target, blocks, check=False)

    def apply(self, vertex: str, vector: list) -> list:
        return mat_vec(self.source.algebra.field, self.blocks[vertex], vector)

    def is_surjective(self) -> bool:
        field = self.source.algebra.field
        return all(
            rank(field, self.blocks[v]) == self.target.dims[v]
            for v in self.source.algebra.quiver.vertices
        )

    def is_zero(self) -> bool:
        return all(not any(any(row) for row in b) for b in self.blocks.values())

    def kernel(self) -> tuple[RightModule, "ModuleMap"]:
        """The kernel submodule together with its inclusion."""
        algebra = self.source.algebra
        field = algebra.field
        bases = {
            v: kernel_basis(field, self.blocks[v], ncols=self.source.dims[v])
            for v in algebra.quiver.vertices
        }
        dims = {v: len(bases[v]) for v in algebra.quiver.vertices}
        # Columns of the inclusion are the kernel basis vectors.
        incl = {
            v: [[bases[v][j][i] for j in range(dims[v])] for i in range(self.source.dims[v])]
            for v in algebra.quiver.vertices
        }
        action = {}
        for a in algebra.quiver.arrows:
            mat = zero_matrix(field, dims[a.source], dims[a.target])
            for j, k in enumerate(bases[a.target]):
                image = mat_vec(field, self.source.action[a.name], k)
                coords = solve(field, incl[a.source], image)
                if coords is None:
                    raise AssertionError("kernel is not closed under the action")
                for i, c in enumerate(coords):
                    mat[i][j] = c
            action[a.name] = mat
        kernel_mod = RightModule(algebra, dims, action)
        inclusion = ModuleMap(kernel_mod, self.source, incl, check=False)
        return kernel_mod, inclusion


def simple_module(algebra: PathAlgebra, v: str) -> RightModule:
    """The one-dimensional module concentrated at v, all arrows acting by zero."""
    algebra.check_vertex(v)
    dims = {w: (1 if w == v else 0) for w in algebra.quiver.vertices}
    field = algebra.field
    action = {
        a.name: zero_matrix(field, dims[a.source], dims[a.target])
        for a in algebra.quiver.arrows
    }
    return RightModule(algebra, dims, action)


class ProjectiveSumModule(RightModule):
    """A finite direct sum of indecomposable projectives e_w A, with the
    bookkeeping needed to translate between module maps and matrices of
    algebra elements.

    The component at a vertex u has one basis position per pair
    ``(copy, residue path)`` where the path runs from u to the copy's vertex,
    ordered by copy then by the algebra's basis order.
    """

    def __init__(self, algebra: PathAlgebra, copies: tuple[str, ...]):
        self.copies = copies
        positions: dict[str, list[tuple[int, int]]] = {
            u: [] for u in algebra.quiver.vertices
        }
        for c, w in enumerate(copies):
            algebra.check_vertex(w)
            for u in algebra.quiver.vertices:
                for q in algebra.hom_basis(w, u):
                    positions[u].append((c, q))
        self.positions = {u: tuple(ps) for u, ps in positions.items()}
        self.position_index = {
            u: {pair: i for i, pair in enumerate(ps)} for u, ps in self.positions.items()
        }
        dims = {u: len(self.positions[u]) for u in algebra.quiver.vertices}
        field = algebra.field
        action = {}
        for a in algebra.quiver.arrows:
            # (copy, q) at the arrow's target vertex goes to q·a at its source.
            mat = zero_matrix(field, dims[a.source], dims[a.target])
            arrow_idx = algebra.basis_index[Path((a.name,), a.source, a.target)]
            for col, (c, q) in enumerate(self.positions[a.target]):
                for r, coeff in algebra.products.get((q, arrow_idx), {}).items():
                    mat[self.position_index[a.source][(c, r)]][col] = coeff
            action[a.name] = mat
        super().__init__(algebra, dims, action)

    def generator_position(self, copy: int) -> tuple[str, int]:
        """(vertex, index) of the generator e_w of the given copy."""
        w = self.copies[copy]
        return w, self.position_index[w][(copy, self.algebra.idempotent_index[w])]


def projective_module(algebra: PathAlgebra, v: str) -> ProjectiveSumModule:
    """The indecomposable projective e_v A as a representation."""
    algebra.check_vertex(v)
    return ProjectiveSumModule(algebra, (v,))


def projective_sum(algebra: PathAlgebra, copies: tuple[str, ...]) -> ProjectiveSumModule:
    return ProjectiveSumModule(algebra, tuple(copies))


def entries_to_map(
    source: ProjectiveSumModule, target: ProjectiveSumModule, entries: list
) -> ModuleMap:
    """Module map given by a matrix of algebra elements.

    ``entries[r][c]`` must lie in ``e_{v_r} A e_{w_c}`` and acts by left
    multiplication from copy c of the source to copy r of the target.
    """
    algebra = source.algebra
    field = algebra.field
    blocks = {
        u: zero_matrix(field, target.dims[u], source.dims[u])
        for u in algebra.quiver.vertices
    }
    for c in range(len(source.copies)):
        for r in range(len(target.copies)):
            x = entries[r][c]
            if x.is_zero():
                continue
            for u in algebra.quiver.vertices:
                for col, (cc, q) in enumerate(source.positions[u]):
                    if cc != c:
                        continue
                    product = x * algebra.basis_element(q)
                    for i, coeff in product.coeffs.items():
                        row = target.position_index[u][(r, i)]
                        blocks[u][row][col] = blocks[u][row][col] + coeff
    return ModuleMap(source, target, blocks, check=False)


def map_to_entries(phi: ModuleMap) -> list:
    """Inverse of :func:`entries_to_map`: read off the algebra-element matrix
    of a map between projective sums by evaluating it on generators."""
    source = phi.source
    target = phi.target
    if not isinstance(source, ProjectiveSumModule) or not isinstance(target, ProjectiveSumModule):
        raise TypeError("map_to_entries needs maps between projective sums")
    algebra = source.algebra
    entries = [
        [algebra.zero() for _ in range(len(source.copies))]
        for _ in range(len(target.copies))
    ]
    field = algebra.field
    for c in range(len(source.copies)):
        w, pos = source.generator_position(c)
        gen = zero_vector(field, source.dims[w])
        gen[pos] = field.one
        image = phi.apply(w, gen)
        for i, coeff in enumerate(image):
            if not coeff:
                continue
            r, q = target.positions[w][i]
            entries[r][c] = entries[r][c] + algebra.basis_element(q).scale(coeff)
    return entries


def module_hom_basis(m: RightModule, n: RightModule) -> list[ModuleMap]:
    """A basis of Hom(M, N), found by solving the commuting-square equations."""
    algebra = m.algebra
    field = algebra.field
    verts = algebra.quiver.vertices
    offsets = {}
    total = 0
    for v in verts:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]
    if total == 0:
        return []

    def unknown(v: str, i: int, j: int) -> int:
        return offsets[v] + i * m.dims[v] + j

    rows = []
    for a in algebra.quiver.arrows:
        u, v = a.source, a.target
        # phi_u . act_M - act_N . phi_v = 0, one equation per (i, j).
        for i in range(n.dims[u]):
            for j in range(m.dims[v]):
                row = zero_vector(field, total)
                for k in range(m.dims[u]):
                    if m.action[a.name][k][j]:
                        row[unknown(u, i, k)] = row[unknown(u, i, k)] + m.action[a.name][k][j]
                for k in range(n.dims[v]):
                    if n.action[a.name][i][k]:
                        row[unknown(v, k, j)] = row[unknown(v, k, j)] - n.action[a.name][i][k]
                if any(row):
                    rows.append(row)

    solutions = kernel_basis(field, rows, ncols=total)
    maps = []
    for sol in solutions:
        blocks = {}
        for v in verts:
            mat = zero_matrix(field, n.dims[v], m.dims[v])
            for i in range(n.dims[v]):
                for j in range(m.dims[v]):
                    mat[i][j] = sol[unknown(v, i, j)]
            blocks[v] = mat
        maps.append(ModuleMap(m, n, blocks, check=False))
    return maps


def top_data(m: RightModule) -> tuple[dict[str, int], dict[str, list]]:
    """Multiplicities of the simples in top(M) = M / M·rad, with lift vectors.

    Returns (multiplicity per vertex, chosen lift vectors per vertex); the
    lifts are standard basis vectors completing the radical image, picked in
    ascending coordinate order.
    """
    algebra = m.algebra
    field = algebra.field
    mults: dict[str, int] = {}
    lifts: dict[str, list] = {}
    for v in algebra.quiver.vertices:
        span = GaussianSpan(field, m.dims[v])
        for a in algebra.quiver.arrows:
            if a.source != v:
                continue
            for col in range(m.dims[a.target]):
                vec = [m.action[a.name][i][col] for i in range(m.dims[v])]
                span.add(vec)
        chosen = []
        for i in range(m.dims[v]):
            e = zero_vector(field, m.dims[v])
            e[i] = field.one
            if span.add(e):
                chosen.append(e)
        mults[v] = len(chosen)
        lifts[v] = chosen
    return mults, lifts


def projective_cover(m: RightModule) -> tuple[dict[str, int], ModuleMap]:
    """The minimal projective cover P -> M.

    The multiplicity of e_v A equals the multiplicity of the simple at v in
    top(M); the returned map sends each generator to a chosen lift of a top
    basis vector and is surjective.
    """
    if m.is_zero():
        raise ZeroModule("the zero module has no projective cover")
    algebra = m.algebra
    field = algebra.field
    mults, lifts = top_data(m)
    copies = []
    targets = []  # (vertex, lift vector) per copy
    for v in algebra.quiver.vertices:
        for vec in lifts[v]:
            copies.append(v)
            targets.append((v, vec))
    cover_source = ProjectiveSumModule(algebra, tuple(copies))
    blocks = {
        u: zero_matrix(field, m.dims[u], cover_source.dims[u])
        for u in algebra.quiver.vertices
    }
    for c, (v, vec) in enumerate(targets):
        for u in algebra.quiver.vertices:
            for col, (cc, q) in enumerate(cover_source.positions[u]):
                if cc != c:
                    continue
                image = mat_vec(field, m.act_path(algebra.basis[q]), vec)
                for i, coeff in enumerate(image):
                    blocks[u][i][col] = blocks[u][i][col] + coeff
    cover = ModuleMap(cover_source, m, blocks, check=False)
    if not cover.is_surjective():
        raise AssertionError("projective cover construction failed to surject")
    return mults, cover


def minimal_projective_resolution(m: RightModule, length_bound: int):
    """A minimal projective resolution of M as a complex of projectives.

    The complex lives in degrees -n .. 0 with the cover of M in degree 0.
    When some syzygy vanishes within ``length_bound`` steps, the resolution
    is exact and its completeness flag is set; otherwise it is truncated and
    flagged incomplete, and Hom computations will respect the trust window.
    """
    from ..homotopy.complexes import ProjComplex

    if length_bound < 0:
        raise ValueError("length_bound must be >= 0")
    algebra = m.algebra
    if m.is_zero():
        return ProjComplex(algebra, {}, {}, complete=True, label="0")

    layers: list[ProjectiveSumModule] = []
    diff_entries: list[list] = []  # entries of P_n -> P_{n-1}
    complete = False
    current = m
    previous_inclusion: ModuleMap | None = None
    for n in range(length_bound + 1):
        _, cover = projective_cover(current)
        p_n: ProjectiveSumModule = cover.source  # type: ignore[assignment]
        layers.append(p_n)
        if n > 0:
            composed = previous_inclusion.compose(cover)
            diff_entries.append(map_to_entries(composed))
        kernel_mod, inclusion = cover.kernel()
        if kernel_mod.is_zero():
            complete = True
            break
        current = kernel_mod
        previous_inclusion = inclusion

    summands = {-n: layers[n].copies for n in range(len(layers))}
    diffs = {}
    for n, entries in enumerate(diff_entries, start=1):
        diffs[-n] = entries
    return ProjComplex(
        algebra,
        summands,
        diffs,
        complete=complete,
        label=f"res({m!r})",
    )
