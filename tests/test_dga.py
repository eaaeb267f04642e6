"""Dg endomorphism algebras, cohomology algebras, formality witnesses,
simple dg modules, semifree resolutions, and Koszul duals."""

import functools
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import INPUTS, STAGES
from oracles import (
    character_module,
    dense_dg_module_verify,
    dense_dg_verify,
    dense_simple_dg_modules,
)
from siltkit.cli.parsing import parse_algebra
from siltkit.core.algebras import build_algebra
from siltkit.core.modules import minimal_projective_resolution
from siltkit.core.quivers import Arrow, Path, Quiver
from siltkit.correspond.pipeline import (
    _blockwise_buckets,
    graded_algebra_isomorphism,
    standard_pair,
)
from siltkit.dg import (
    DGAlgebra,
    GradedAlgebraMap,
    cohomology_algebra,
    dg_end,
    ext_algebra,
    find_formality_witness,
    koszul_dual,
    path_algebra_to_dg,
    positive_model,
    semifree_resolution,
    simple_dg_modules,
    verify_dg_quasi_iso,
)
from siltkit.dg.dga import _induced_algebra
from siltkit.dg.dgmod import _character
from siltkit.errors import (
    ChainConditionViolated,
    IdempotentLiftMissing,
    SimpleNotOneDimensional,
)
from siltkit.fields import QQ, PrimeField
from siltkit.homotopy.complexes import shift, single_projective


def res(algebra, v):
    return minimal_projective_resolution(algebra, v)


def stalks(algebra):
    return [single_projective(algebra, v, 0) for v in algebra.quiver.vertices]


#: The idempotent matching of two algebras over the vertices 1 and 2.
IDENTITY = {"1": "1", "2": "2"}


@pytest.fixture
def smc_end(a2):
    _, smc = standard_pair(a2)
    return dg_end(smc)


@pytest.fixture
def shifted_end(a2):
    """End of the two projectives with the second pushed one step right."""
    p1, p2 = stalks(a2)
    return dg_end([p1, shift(p2, -1)])


def test_end_of_the_resolved_simples_is_seven_dimensional(smc_end):
    assert smc_end.dimension == 7
    assert smc_end.graded_dims() == {-1: 1, 0: 4, 1: 2}
    assert smc_end.differential_rank(0) == 1
    assert smc_end.differential_rank(-1) == 1
    assert smc_end.differential_rank(1) == 0
    assert smc_end.cohomology_dims() == {0: 2, 1: 1}
    smc_end.verify()


def test_each_degree_keeps_its_cohomology(smc_end):
    """A DGAlgebra never changes once built, so each degree's Cohomology
    is built on the first request and handed out again after that, in
    the algebra's global basis indices."""
    for n in (-2, -1, 0, 1, 2):
        assert smc_end.cohomology(n) is smc_end.cohomology(n)
        assert list(smc_end.cohomology(n).here) == smc_end.indices_at(n)
    assert smc_end.cohomology_dims() == {0: 2, 1: 1}
    assert all(
        set(z) <= set(smc_end.indices_at(0)) for z in smc_end.cohomology(0).cocycles
    )


def test_end_of_the_projectives_recovers_the_algebra(a2):
    E = dg_end(stalks(a2))
    assert E.dimension == 3
    assert E.graded_dims() == {0: 3}
    assert all(E.differential_rank(n) == 0 for n in range(-2, 3))
    assert graded_algebra_isomorphism(E, path_algebra_to_dg(a2), IDENTITY) is not None


def test_end_of_the_shifted_projectives(shifted_end):
    assert shifted_end.graded_dims() == {-1: 1, 0: 2}
    assert shifted_end.cohomology_dims() == {-1: 1, 0: 2}
    assert all(shifted_end.differential_rank(n) == 0 for n in (-1, 0))
    shifted_end.verify()


def test_path_algebra_as_a_dg_algebra(a3rel):
    D = path_algebra_to_dg(a3rel)
    assert D.dimension == a3rel.dimension
    assert D.graded_dims() == {0: a3rel.dimension}
    assert set(D.idempotents) == set(a3rel.quiver.vertices)
    D.verify()


sparse_coords = st.dictionaries(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-3, max_value=3).map(QQ.coerce),
    max_size=5,
)


@settings(max_examples=60)
@given(sparse_coords, sparse_coords)
def test_dg_product_of_a_path_algebra_is_its_path_product(a3rel, x, y):
    product = path_algebra_to_dg(a3rel).multiply(x, y)
    assert product == (a3rel.element(x) * a3rel.element(y)).coeffs
    assert all(product.values())


def test_cohomology_algebra_of_the_smc_end(smc_end):
    H = cohomology_algebra(smc_end)
    assert H.graded_dims() == {0: 2, 1: 1}
    assert not H.differential
    H.verify()
    # the degree-1 class squares to zero and is a bimodule generator
    (g,) = ({i: QQ.one} for i in H.indices_at(1))
    assert H.multiply(g, g) == {}
    for e in H.idempotents.values():
        left, right = H.multiply(e, g), H.multiply(g, e)
        both = {k: left.get(k, QQ.zero) + right.get(k, QQ.zero) for k in left | right}
        assert any(both.values())


def test_cohomology_algebra_is_idempotent_on_formal_input(a2):
    D = path_algebra_to_dg(a2)
    H = cohomology_algebra(D)
    assert H.graded_dims() == D.graded_dims()
    assert H.products == D.products
    assert not H.differential


def test_cohomology_of_the_doubly_dual_end(shifted_end):
    K = koszul_dual(shifted_end, STAGES)
    H = cohomology_algebra(K)
    assert H.graded_dims() == {0: 2, 2: 1}
    (g,) = ({i: QQ.one} for i in H.indices_at(2))
    assert H.multiply(g, g) == {}


def test_identity_is_a_quasi_isomorphism(smc_end):
    identity = [{i: QQ.one} for i in range(smc_end.dimension)]
    assert verify_dg_quasi_iso(GradedAlgebraMap(smc_end, smc_end, identity))


def test_zero_map_is_rejected_with_diagnostics(smc_end):
    H = cohomology_algebra(smc_end)
    zero = GradedAlgebraMap(H, smc_end, [{} for _ in range(H.dimension)])
    notes: list = []
    assert not verify_dg_quasi_iso(zero, diagnostics=notes)
    assert notes


def test_formality_witness_for_the_smc_end(smc_end):
    w = find_formality_witness(smc_end)
    assert w is not None
    assert verify_dg_quasi_iso(w)
    assert w.source.graded_dims() == {0: 2, 1: 1}
    assert w.target is smc_end


def test_zero_differential_algebras_are_formal(a2, kronecker):
    for algebra in (a2, kronecker):
        D = path_algebra_to_dg(algebra)
        w = find_formality_witness(D)
        assert w is not None and verify_dg_quasi_iso(w)


def test_simples_of_a_path_algebra(a2):
    D = path_algebra_to_dg(a2)
    simples = simple_dg_modules(D)
    assert set(simples) == {"1", "2"}
    for name, chi in simples.items():
        M = character_module(D, chi)
        assert M.degrees == (0,)
        dense_dg_module_verify(M)
        other = next(v for v in D.idempotents if v != name)
        assert sum(c * chi[g] for g, c in D.idempotents[name].items()) == 1
        assert not sum(c * chi[g] for g, c in D.idempotents[other].items())


def test_simples_of_the_shifted_end(shifted_end):
    simples = simple_dg_modules(shifted_end)
    assert set(simples) == {"1", "2"}
    assert all(len(chi) == shifted_end.dimension for chi in simples.values())
    # the degree -1 generator must act by zero on either simple
    (x,) = shifted_end.indices_at(-1)
    for chi in simples.values():
        assert not chi[x]


def test_simples_refuse_a_fat_degree_zero_part(smc_end):
    with pytest.raises(SimpleNotOneDimensional):
        simple_dg_modules(smc_end)


def test_simples_refuse_a_character_hitting_the_differential():
    one = QQ.one
    E = DGAlgebra(
        QQ,
        ("e", "x"),
        (0, -1),
        {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {}},
        {1: {0: one}},
        {0: one},
        {"1": {0: one}},
    )
    E.verify()
    assert E.cohomology_dims() == {}
    with pytest.raises(IdempotentLiftMissing):
        simple_dg_modules(E)


def test_semifree_resolutions_over_the_cohomology_of_the_smc_end(smc_end):
    H = cohomology_algebra(smc_end)
    simples = simple_dg_modules(H)
    resolved = {}
    for name, chi in simples.items():
        R = semifree_resolution(chi, H, STAGES)
        R.verify()
        resolved[name] = R
    sizes = sorted(r.dimension for r in resolved.values())
    assert sizes == [1, 3]
    small = min(resolved.values(), key=lambda r: r.dimension)
    large = max(resolved.values(), key=lambda r: r.dimension)
    assert small.graded_dims() == {0: 1}
    assert len(small.generators) == 1
    assert large.graded_dims() == {0: 2, 1: 1}
    assert [g.degree for g in large.generators] == [0, 0]


def test_semifree_resolution_over_the_degree_minus_one_arrow(shifted_end):
    simples = simple_dg_modules(shifted_end)
    resolutions = {n: semifree_resolution(chi, shifted_end, STAGES) for n, chi in simples.items()}
    for R in resolutions.values():
        R.verify()
    assert resolutions["2"].graded_dims() == {0: 1}
    assert resolutions["1"].graded_dims() == {-2: 1, -1: 1, 0: 1}
    assert [g.degree for g in resolutions["1"].generators] == [0, -2]


@pytest.fixture
def split_unit():
    """k x k on the basis {e1, e1 + e2}: the idempotents e1 and
    e2 = (e1 + e2) - e1 are a valid family, but e1 + e2 lies in no single
    block e E e'."""
    one = QQ.one
    E = DGAlgebra(
        QQ,
        ("e1", "1"),
        (0, 0),
        {(0, 0): {0: one}, (0, 1): {0: one}, (1, 0): {0: one}, (1, 1): {1: one}},
        {},
        {1: one},
        {"1": {0: one}, "2": {1: one, 0: -one}},
    )
    E.verify()
    return E


def test_a_basis_off_the_blocks_is_refused_by_resolutions(split_unit):
    """No corner is read off the blocks of such a basis, so the simples
    and the dual are refused; a character given by hand (the one a corner
    search would find) is refused by the resolution itself."""
    for build in (simple_dg_modules, lambda E: koszul_dual(E, STAGES)):
        with pytest.raises(IdempotentLiftMissing, match="^the basis is not block-pure"):
            build(split_unit)
    with pytest.raises(IdempotentLiftMissing, match="^the basis is not block-pure"):
        semifree_resolution([QQ.one, QQ.one], split_unit, STAGES)


def test_a_basis_off_the_blocks_gets_no_block_buckets(split_unit):
    assert _blockwise_buckets(split_unit) is None
    assert graded_algebra_isomorphism(split_unit, split_unit, IDENTITY) is None


def test_koszul_dual_of_the_path_algebra(a2):
    K = koszul_dual(path_algebra_to_dg(a2), STAGES)
    assert K.dimension == 7
    assert K.graded_dims() == {-1: 1, 0: 4, 1: 2}
    assert K.cohomology_dims() == {0: 2, 1: 1}
    K.verify()


def test_koszul_dual_of_the_degree_one_arrow_algebra(smc_end):
    H = cohomology_algebra(smc_end)
    K = koszul_dual(H, STAGES)
    assert K.graded_dims() == {0: 5, 1: 2}
    assert K.cohomology_dims() == {0: 3}


def test_koszul_dual_of_the_degree_minus_one_arrow_algebra(shifted_end):
    K = koszul_dual(shifted_end, STAGES)
    assert K.graded_dims() == {-2: 1, -1: 1, 0: 3, 1: 1, 2: 1}
    assert K.cohomology_dims() == {0: 2, 2: 1}


def test_koszul_dual_matches_the_end_of_the_resolved_simples(a2):
    silting, smc = standard_pair(a2)
    K = koszul_dual(dg_end(silting), STAGES)
    E = dg_end(smc)
    assert K.graded_dims() == E.graded_dims()
    assert K.cohomology_dims() == E.cohomology_dims()


def test_dual_cohomology_in_degree_zero_recovers_the_algebra(a2, smc_end):
    """Dualizing the degree-one arrow algebra twice lands back on a copy of
    the original path algebra in cohomology."""
    H = cohomology_algebra(smc_end)
    K = koszul_dual(H, STAGES)
    HK = cohomology_algebra(K)
    assert HK.graded_dims() == {0: 3}
    assert graded_algebra_isomorphism(HK, path_algebra_to_dg(a2), IDENTITY) is not None


# -- verify rejects each broken axiom ---------------------------------------
#
# The smc end of A2 has basis
#   0 = [1->1]0:0, 1 = [1->1]0:1, 2 = [1->1]1:0, 3 = [1->2]1:0,
#   4 = [2->1]-1:0, 5 = [2->1]0:0, 6 = [2->2]0:0
# in degrees (0, 0, 1, 1, -1, 0, 0), with d(0) = 2, d(1) = -2, d(4) = 5,
# unit 0 + 1 + 6 and idempotents "1" = 0 + 1, "2" = 6.  Each test below
# changes one piece of that data so that the named axiom is the first one
# verify finds broken; the docstrings of the d(1) and orthogonality tests
# say why those two need another route.


def rebuilt(E, **changes):
    """A copy of E's structure data with some fields replaced."""
    data = {
        "products": {key: dict(val) for key, val in E.products.items()},
        "differential": {i: dict(val) for i, val in E.differential.items()},
        "unit": dict(E.unit),
        "idempotents": {name: dict(e) for name, e in E.idempotents.items()},
    }
    for name, change in changes.items():
        data[name] = change(data[name])
    return DGAlgebra(E.field, E.labels, E.degrees, **data)


def with_entry(key, value):
    """A change that sets ``data[key] = value`` (or deletes it for None)."""

    def change(data):
        if value is None:
            del data[key]
        else:
            data[key] = value
        return data

    return change


def test_verify_accepts_the_unchanged_copy(smc_end):
    rebuilt(smc_end).verify()


def test_verify_rejects_a_product_of_the_wrong_degree(smc_end):
    broken = rebuilt(smc_end, products=with_entry((4, 3), {0: QQ.one, 2: QQ.one}))
    with pytest.raises(ChainConditionViolated, match=r"component of degree 1, expected 0"):
        broken.verify()


def test_verify_rejects_a_differential_not_of_degree_one(smc_end):
    broken = rebuilt(smc_end, differential=with_entry(6, {6: QQ.one}))
    with pytest.raises(ChainConditionViolated, match=r"not homogeneous of degree \+1"):
        broken.verify()


def test_verify_rejects_a_differential_that_does_not_square_to_zero(smc_end):
    broken = rebuilt(smc_end, differential=with_entry(5, {2: QQ.one}))
    with pytest.raises(ChainConditionViolated, match=r"^d\(d\(\[2->1\]-1:0\)\) != 0$"):
        broken.verify()


def test_verify_rejects_a_broken_leibniz_rule(smc_end):
    broken = rebuilt(smc_end, products=with_entry((2, 4), {5: QQ.coerce(2)}))
    with pytest.raises(ChainConditionViolated, match=r"^Leibniz fails on "):
        broken.verify()


def test_verify_rejects_a_non_associative_product(smc_end):
    # 3 * 0 = 0 leaves Leibniz intact but (3 * 0) * 4 = 0 != 3 * (0 * 4) = 6.
    broken = rebuilt(smc_end, products=with_entry((3, 0), None))
    with pytest.raises(ChainConditionViolated, match=r"^associativity fails on "):
        broken.verify()


def test_verify_rejects_a_non_associative_triple_of_nonzero_products(a3):
    """In A3 with (a;b) * e_3 = 0, the triple (a, b, e_3) breaks although
    a * b and b * e_3 are both nonzero; d = 0 leaves Leibniz intact."""
    D = path_algebra_to_dg(a3)
    broken = rebuilt(D, products=with_entry((5, 2), None))
    assert dense_dg_verify(broken) == "associativity"
    with pytest.raises(ChainConditionViolated, match=r"^associativity fails on \(a, b, e_3\)$"):
        broken.verify()


def test_verify_rejects_a_unit_that_fails_on_the_left(smc_end):
    broken = rebuilt(smc_end, unit=with_entry(3, QQ.one))
    with pytest.raises(ChainConditionViolated, match=r"^1 \* \[1->1\]0:0 != "):
        broken.verify()


def test_verify_rejects_a_unit_that_fails_on_the_right(smc_end):
    broken = rebuilt(smc_end, unit=with_entry(4, QQ.one))
    with pytest.raises(ChainConditionViolated, match=r"^\[1->1\]0:0 \* 1 != "):
        broken.verify()


def test_verify_rejects_a_unit_that_is_not_a_cycle(smc_end):
    """d(1) != 0 always breaks Leibniz first: once 1 is a two-sided unit,
    Leibniz gives d(1) = d(1 * 1) = 2 d(1), so d(1) = 0.  The separate
    d(1) check can therefore only back up the Leibniz check."""
    broken = rebuilt(smc_end, differential=with_entry(6, {3: QQ.one}))
    assert broken.differentiate(broken.unit)
    with pytest.raises(ChainConditionViolated, match=r"^Leibniz fails on "):
        broken.verify()


def test_verify_rejects_an_idempotent_that_is_not_idempotent(smc_end):
    broken = rebuilt(smc_end, idempotents=with_entry("2", {6: QQ.coerce(2)}))
    with pytest.raises(ChainConditionViolated, match=r"^idempotent 2 is not idempotent$"):
        broken.verify()


def test_verify_rejects_idempotents_that_miss_the_unit(smc_end):
    broken = rebuilt(smc_end, idempotents=with_entry("2", None))
    with pytest.raises(ChainConditionViolated, match=r"^idempotents do not sum to the unit$"):
        broken.verify()


def test_verify_rejects_idempotents_that_are_not_orthogonal():
    """Over QQ, idempotents that sum to 1 are orthogonal (compare the
    traces of left multiplication), so the break needs characteristic p:
    over F_2, three copies of e_1 plus e_2 still sum to the unit."""
    quiver = Quiver(("1", "2"), (Arrow("a", "2", "1"),))
    _, smc = standard_pair(build_algebra(quiver, [], 2, PrimeField(2)))
    E = dg_end(smc)
    e1 = E.idempotents["1"]
    broken = rebuilt(E, idempotents=lambda idem: {**idem, "1b": e1, "1c": e1})
    with pytest.raises(ChainConditionViolated, match=r"^idempotents 1 and 1b are not orthogonal$"):
        broken.verify()


def test_verify_rejects_an_idempotent_whose_differential_leaves_its_block(smc_end):
    """d + [x, -] with x = 3 of degree 1 is again a differential
    (x^2 = 0 and d(x) = 0) and a derivation, but it moves the idempotent
    "1" to x, which lies outside the block of "1"."""
    x = {3: QQ.one}

    def twisted(differential):
        for i in range(smc_end.dimension):
            b = {i: QQ.one}
            sign = -1 if smc_end.degrees[i] % 2 else 1
            term = smc_end.multiply(x, b)
            for k, c in smc_end.multiply(b, x).items():
                term[k] = term.get(k, QQ.zero) - sign * c
            row = differential.setdefault(i, {})
            for k, c in term.items():
                row[k] = row.get(k, QQ.zero) + c
        return differential

    broken = rebuilt(smc_end, differential=twisted)
    with pytest.raises(ChainConditionViolated, match=r"^d of idempotent 1 leaves its block$"):
        broken.verify()


# -- verify against the dense referee ---------------------------------------

#: The kind of axiom each verify message names, as the referee reports it.
AXIOM_OF_MESSAGE = [
    (r"has a component of degree", "product degree"),
    (r"is not homogeneous of degree \+1", "differential degree"),
    (r"^d\(d\(", "d squared"),
    (r"^Leibniz fails", "Leibniz"),
    (r"^associativity fails", "associativity"),
    (r"^1 \* | \* 1 != ", "unit"),
    (r"^d\(1\) != 0$", "unit cycle"),
    (r"not concentrated in degree 0", "idempotent degree"),
    (r"is not idempotent", "idempotent"),
    (r"do not sum to the unit", "idempotent sum"),
    (r"are not orthogonal", "orthogonality"),
    (r"leaves its block", "block"),
]


def broken_axiom(E) -> str | None:
    """The axiom ``E.verify()`` reports broken, or None if it accepts E."""
    try:
        E.verify()
    except ChainConditionViolated as exc:
        return next(kind for pattern, kind in AXIOM_OF_MESSAGE if re.search(pattern, str(exc)))
    return None


def triangular(E, a: int, b: int, c):
    """E in the basis with e_a replaced by e_a + c e_b, for a != b of one
    degree in one block: products and differentials through e_a gain a
    second term."""
    vectors = [{a: QQ.one, b: c} if t == a else {t: QQ.one} for t in range(E.dimension)]

    def read(x):
        out = dict(x)
        if a in x:
            out[b] = out.get(b, QQ.zero) - c * x[a]
        return {k: v for k, v in out.items() if v}

    return _induced_algebra(E, vectors, list(E.labels), "triangular", read)


@functools.cache
def referee_bases() -> tuple:
    """The dg ends of the standard pairs of A2 and A3, the Koszul dual of
    the dg end of the projectives of A2, the Ext algebra of the positive
    model of the commutative square's simple-minded side (coefficients
    other than 1), the dg end of A3's simple-minded side after a
    triangular change of basis in its (1, 2) block (products of several
    terms), and the dg end of P1 and P2[1] over the radical-square-zero
    2-cycle (degrees -1 and 1 with local corners, so that every character
    check can fail)."""
    a2 = build_algebra(Quiver(("1", "2"), (Arrow("a", "2", "1"),)), [], 2)
    a3 = build_algebra(
        Quiver(("1", "2", "3"), (Arrow("a", "2", "1"), Arrow("b", "3", "2"))), [], 3
    )
    bases = [dg_end(side) for algebra in (a2, a3) for side in standard_pair(algebra)]
    bases.append(koszul_dual(bases[0], STAGES))
    square_text = INPUTS.parent / "tests" / "golden" / "resolutions" / "square.alg"
    square = parse_algebra(square_text.read_text(encoding="utf-8"))
    _, smc = standard_pair(square)
    bases.append(ext_algebra(positive_model(dg_end(smc)), STAGES))
    assert bases[3].blocks[5] == bases[3].blocks[6] == ("1", "2")
    assert bases[3].degrees[5] == bases[3].degrees[6] == 0
    bases.append(triangular(bases[3], 5, 6, QQ.coerce(2)))
    two_cycle = build_algebra(
        Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1"))),
        [[(QQ.one, Path(("a", "b"), "2", "2"))], [(QQ.one, Path(("b", "a"), "1", "1"))]],
        2,
    )
    p1, p2 = stalks(two_cycle)
    bases.append(dg_end([p1, shift(p2, -1)]))
    return tuple(bases)


@st.composite
def perturbed_dg_algebras(draw):
    """A base algebra with one to three of: a coefficient bumped, a product
    dropped, a product of the right degree added, one added inside the
    block where composable blocks multiply, a differential term of the
    right degree added."""
    E = draw(st.sampled_from(referee_bases()))
    products = {key: dict(val) for key, val in E.products.items()}
    differential = {i: dict(val) for i, val in E.differential.items()}
    basis = range(E.dimension)
    scalar = st.integers(min_value=-2, max_value=2).filter(bool).map(QQ.coerce)

    def add(table, key, k, c):
        row = table.setdefault(key, {})
        row[k] = row.get(k, QQ.zero) + c

    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["bump", "drop", "product", "block", "differential"]))
        if kind in ("bump", "drop") and products:
            key = draw(st.sampled_from(sorted(products)))
            if kind == "drop":
                del products[key]
            else:
                add(products, key, draw(st.sampled_from(sorted(products[key]))), draw(scalar))
        elif kind == "product":
            i, j = draw(st.tuples(st.sampled_from(basis), st.sampled_from(basis)))
            targets = [k for k in basis if E.degrees[k] == E.degrees[i] + E.degrees[j]]
            if targets:
                add(products, (i, j), draw(st.sampled_from(targets)), draw(scalar))
        elif kind == "block":
            i, j = draw(st.tuples(st.sampled_from(basis), st.sampled_from(basis)))
            (s, t), (t2, u) = E.blocks[i], E.blocks[j]
            targets = [
                k for k in basis
                if E.degrees[k] == E.degrees[i] + E.degrees[j] and E.blocks[k] == (s, u)
            ]
            if t == t2 and targets:
                add(products, (i, j), draw(st.sampled_from(targets)), draw(scalar))
        elif kind == "differential":
            i = draw(st.sampled_from(basis))
            targets = [k for k in basis if E.degrees[k] == E.degrees[i] + 1]
            if targets:
                add(differential, i, draw(st.sampled_from(targets)), draw(scalar))
    return DGAlgebra(
        E.field, E.labels, E.degrees, products, differential, E.unit, E.idempotents
    )


def test_the_referee_accepts_the_bases():
    for E in referee_bases():
        assert dense_dg_verify(E) is None
        assert broken_axiom(E) is None


@settings(max_examples=150, deadline=None)
@given(perturbed_dg_algebras())
def test_verify_agrees_with_the_dense_referee(E):
    assert broken_axiom(E) == dense_dg_verify(E)


def test_the_bases_reach_the_general_rows():
    """The bases hold products with a coefficient other than 1 and
    products of several terms, so verify's rows leave the single-term,
    unit-coefficient path."""
    values = [v for E in referee_bases() for v in E.products.values()]
    assert any(c != QQ.one for v in values for c in v.values())
    assert any(len(v) > 1 for v in values)


def outcome(build, E):
    """What ``build(E)`` returns, or the class and message it raises."""
    try:
        return build(E)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, not handled
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(perturbed_dg_algebras())
def test_simple_dg_modules_agree_with_the_dense_checks(E):
    dense = outcome(lambda A: dense_simple_dg_modules(A, _character), E)
    assert outcome(simple_dg_modules, E) == dense
