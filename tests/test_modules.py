"""Minimal projective resolutions of the simples, the dimension vectors
of the projectives, and the sympy referee that sees each resolution as
its simple and reads the cohomology of resolutions and mutated members
vertex by vertex."""

import pathlib

import pytest

from conftest import FORBIDDEN, INPUTS, linear_algebra_text
from oracles import hom_cohomology_dims, relation_words
from siltkit.cli.parsing import parse_algebra
from siltkit.core.modules import RESOLUTION_BOUND, minimal_projective_resolution
from siltkit.correspond.pipeline import standard_pair
from siltkit.errors import TruncationUnsound, UnknownVertex
from siltkit.homotopy.complexes import single_projective
from siltkit.homotopy.homs import complex_cohomology_dims, hom_space
from siltkit.homotopy.mutation import silting_mutate, smc_mutate
from siltkit.serialize import complex_text

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "resolutions"


def res(algebra, v):
    return minimal_projective_resolution(algebra, v)


def dims(algebra, v):
    """The dimension vector of e_v A, as the cohomology of its stalk."""
    return complex_cohomology_dims(single_projective(algebra, v))


def test_simple_module_shape(a2):
    """The only cohomology of res(v) is the simple at v, in degree 0."""
    assert complex_cohomology_dims(res(a2, "1")) == {0: {"1": 1}}
    assert complex_cohomology_dims(res(a2, "2")) == {0: {"2": 1}}


def test_projective_module_dimension_vector(a2, a3):
    """e_v A is spanned by the paths into v, graded by their sources."""
    assert dims(a2, "1") == {0: {"1": 1, "2": 1}}
    assert dims(a2, "2") == {0: {"2": 1}}
    assert dims(a3, "1") == {0: {"1": 1, "2": 1, "3": 1}}
    assert dims(a3, "3") == {0: {"3": 1}}


def test_projective_dimension_vector_respects_relations(a3rel):
    # with ab = 0 the projective at 1 no longer reaches vertex 3
    assert dims(a3rel, "1") == {0: {"1": 1, "2": 1}}


@pytest.mark.parametrize(
    "v,w,expected",
    [("1", "1", 1), ("1", "2", 0), ("2", "1", 0), ("2", "2", 1)],
)
def test_simple_homs_are_diagonal(a2, v, w, expected):
    res_v, res_w = (res(a2, u) for u in (v, w))
    assert hom_space(res_v, res_w, 0).dimension == expected


def test_projective_cover_of_a_simple(a2):
    """Degree 0 of res(1) is the cover e_1 A of the simple at 1."""
    r = res(a2, "1")
    assert r.summands[0] == ("1",)
    assert dims(a2, *r.summands[0]) == {0: {"1": 1, "2": 1}}


def test_resolution_of_the_a2_simples(a2):
    r1 = res(a2, "1")
    assert r1.summands == {0: ("1",), -1: ("2",)}
    assert r1.label == "res(1)"
    assert res(a2, "2").summands == {0: ("2",)}


def test_resolution_depth_three_with_relation(a3rel):
    """With ab = 0 the simple at 1 resolves through every projective."""
    r1 = res(a3rel, "1")
    assert r1.summands == {0: ("1",), -1: ("2",), -2: ("3",)}


def test_resolution_of_projective_is_a_stalk(a3):
    """Nothing but e_3 ends at the source 3, so its simple is projective."""
    assert res(a3, "3").summands == {0: ("3",)}


def test_an_unending_resolution_is_refused_naming_the_bound(loop2):
    """Over the dual numbers the simple resolves periodically, forever."""
    with pytest.raises(TruncationUnsound) as info:
        res(loop2, "1")
    assert str(info.value) == "res(1) is longer than RESOLUTION_BOUND = 12"


def test_the_bound_is_the_longest_resolution_accepted():
    """With radical square zero, res(simple 1) of linear A_n has n - 1
    layers below the cover: A13 reaches exactly RESOLUTION_BOUND, and A14
    goes one past it."""
    r = res(_linear(RESOLUTION_BOUND + 1, True), "1")
    assert r.min_degree == -RESOLUTION_BOUND
    with pytest.raises(TruncationUnsound, match="RESOLUTION_BOUND"):
        res(_linear(RESOLUTION_BOUND + 2, True), "1")


def test_bad_arguments_are_refused(a2):
    with pytest.raises(UnknownVertex):
        res(a2, "3")


def test_resolution_differentials_square_to_zero(a3rel):
    r = res(a3rel, "3")
    # d^2 = 0 is enforced on construction; spot-check the composite matrix
    for k in r.diffs:
        if k + 1 in r.diffs:
            upper, lower = r.diffs[k + 1], r.diffs[k]
            for i in range(len(upper)):
                for j in range(len(lower[0])):
                    composite = None
                    for t in range(len(lower)):
                        term = upper[i][t] * lower[t][j]
                        composite = term if composite is None else composite + term
                    assert composite is None or composite.is_zero()


#: (algebra file, bound) for algebras whose resolutions no command golden
#: pins: each ``<name>-<bound>.res`` holds every res(v) literal, or the
#: refusal of a resolution longer than the bound (all three of cycle3's).
RESOLVED = [
    (GOLDEN / "square.alg", RESOLUTION_BOUND),
    (GOLDEN / "d4.alg", RESOLUTION_BOUND),
    (GOLDEN / "kron3.alg", RESOLUTION_BOUND),
    (GOLDEN / "cycle3.alg", RESOLUTION_BOUND),
]


@pytest.mark.parametrize("path,bound", RESOLVED, ids=lambda p: getattr(p, "stem", str(p)))
def test_resolutions_match_the_golden(path, bound):
    algebra = parse_algebra(path.read_text(encoding="utf-8"))
    blocks = []
    for v in algebra.quiver.vertices:
        try:
            r = res(algebra, v)
        except TruncationUnsound as exc:
            blocks.append(f"# {exc}\n")
        else:
            blocks.append(f"# res({v}): complete\n" + complex_text(f"res{v}", r))
    expected = (GOLDEN / f"{path.stem}-{bound}.res").read_text(encoding="utf-8")
    assert "\n".join(blocks) + "\n" == expected


def _linear(n, radical_square_zero):
    return parse_algebra(linear_algebra_text(n, radical_square_zero))


#: name -> the refereed algebra; the oracle's forbidden subwords come
#: from ``FORBIDDEN`` under the same name.
REFEREED = {
    "a2": lambda request: request.getfixturevalue("a2"),
    "a3": lambda request: request.getfixturevalue("a3"),
    "a3rel": lambda request: request.getfixturevalue("a3rel"),
    "kronecker": lambda request: request.getfixturevalue("kronecker"),
    "A5": lambda request: _linear(5, False),
    "A5-rad2": lambda request: _linear(5, True),
    "a3rel-F3": lambda request: parse_algebra(
        (INPUTS / "a3rel.alg").read_text(encoding="utf-8"), 3
    ),
}


@pytest.mark.parametrize("name", REFEREED)
def test_the_oracle_sees_each_resolution_as_its_simple(request, name):
    """Refereed by sympy: Hom(P_u, res(v)) has cohomology k in degree 0
    when u = v and none otherwise, so H(res v) is the simple S_v; and no
    differential entry has an idempotent term, so res(v) is minimal."""
    algebra = REFEREED[name](request)
    forbidden = FORBIDDEN.get(name.removesuffix("-F3"), ())
    idempotents = set(algebra.idempotent_index.values())
    for v in algebra.quiver.vertices:
        r = res(algebra, v)
        for mat in r.diffs.values():
            assert not any(idempotents & entry.coeffs.keys() for row in mat for entry in row)
        for u in algebra.quiver.vertices:
            p = single_projective(algebra, u)
            seen = hom_cohomology_dims(algebra, p, r, forbidden)
            assert seen == ({0: 1} if u == v else {}), (u, v)


def _oracle_cohomology(algebra, x, forbidden, binomials=None):
    """{k: {v: dim}} from the sympy oracle's H^k Hom(P_v, x)."""
    out = {}
    for v in algebra.quiver.vertices:
        p = single_projective(algebra, v)
        for k, d in hom_cohomology_dims(algebra, p, x, forbidden, binomials).items():
            out.setdefault(k, {})[v] = d
    return out


@pytest.mark.parametrize(
    "path",
    sorted(INPUTS.glob("*.alg")) + sorted(GOLDEN.glob("*.alg")),
    ids=lambda p: p.stem,
)
def test_the_cohomology_of_each_resolution_is_its_simple(path):
    """H(res v) is S_v, read from the Hom table, and the sympy oracle reads
    the same from raw path products: its forbidden subwords and binomial
    rewrites are the file's relations, so the commutative square
    (b a = d c) is refereed too.  Refused resolutions have nothing to
    read."""
    algebra = parse_algebra(path.read_text(encoding="utf-8"))
    forbidden, binomials = relation_words(algebra)
    for v in algebra.quiver.vertices:
        try:
            r = res(algebra, v)
        except TruncationUnsound:
            continue
        assert complex_cohomology_dims(r) == {0: {v: 1}}
        assert _oracle_cohomology(algebra, r, forbidden, binomials) == {0: {v: 1}}


#: The 1-step scripts and the 2-step scripts ``i l, i+1 r`` on linear A3,
#: as (0-based index, side) steps.
A3_SCRIPTS = [[(i, s)] for i in range(3) for s in ("left", "right")] + [
    [(i, "left"), ((i + 1) % 3, "right")] for i in range(3)
]


@pytest.mark.parametrize("script", A3_SCRIPTS, ids=str)
def test_the_cohomology_of_mutated_members_matches_the_oracle(a3, script):
    """Every member of a lockstep-mutated linear A3 pair has the
    cohomology the sympy oracle reads from Hom(P_v, X)."""
    silting, smc = standard_pair(a3)
    for index, side in script:
        silting, smc = silting_mutate(silting, index, side), smc_mutate(smc, index, side)
    for x in list(silting) + list(smc):
        assert complex_cohomology_dims(x) == _oracle_cohomology(a3, x, FORBIDDEN["a3"])
