"""Simple dg modules as characters over structure-constant dg algebras,
and their free resolutions in generator form."""

from collections import Counter

import pytest

from conftest import INPUTS, STAGES, linear_algebra_text
from oracles import character_module, corner_eigenvalue, dense_dg_module_verify, dg_module, sym
from siltkit.cli.parsing import parse_algebra
from siltkit.core.algebras import build_algebra
from siltkit.core.modules import minimal_projective_resolution
from siltkit.core.quivers import Arrow, Path, Quiver
from siltkit.correspond.pipeline import standard_pair
from siltkit.dg import (
    GradedAlgebraMap,
    cohomology_algebra,
    dg_end,
    ext_algebra,
    koszul_dual,
    path_algebra_to_dg,
    positive_model,
    semifree_resolution,
    simple_dg_modules,
    smart_truncation,
    verify_dg_quasi_iso,
)
from siltkit.errors import ChainConditionViolated, TruncationUnsound
from siltkit.fields import QQ, field_of_characteristic
from siltkit.homotopy.complexes import single_projective
from siltkit.homotopy.mutation import silting_mutate, smc_mutate


@pytest.fixture
def arrow_algebra(a2):
    """Two idempotents joined by a single degree-one class."""
    _, smc = standard_pair(a2)
    return cohomology_algebra(dg_end(smc))


def test_action_must_shift_by_the_element_degree(arrow_algebra):
    E = arrow_algebra
    (g,) = E.indices_at(1)
    action = {i: {0: {0: QQ.one}} for i, _ in enumerate(E.labels)}
    bad = dg_module(E, ("m",), (0,), {}, {g: {0: {0: QQ.one}}, **action})
    with pytest.raises(ChainConditionViolated, match="shift degree"):
        dense_dg_module_verify(bad)


def test_unit_must_act_as_identity(arrow_algebra):
    starved = dg_module(arrow_algebra, ("m",), (0,), {}, {})
    with pytest.raises(ChainConditionViolated, match="unit"):
        dense_dg_module_verify(starved)


def test_module_differential_must_square_to_zero(arrow_algebra):
    E = arrow_algebra
    idx = {name: i for i, name in enumerate(E.labels)}
    action = {
        i: {j: {j: QQ.one} for j in range(3)}
        for i, name in enumerate(E.labels)
        if E.degrees[i] == 0
    }
    bad = dg_module(
        E,
        ("m0", "m1", "m2"),
        (0, 1, 2),
        {0: {1: QQ.one}, 1: {2: QQ.one}},
        action,
    )
    with pytest.raises(ChainConditionViolated, match="square"):
        dense_dg_module_verify(bad)


def test_simple_modules_pass_their_own_audit(arrow_algebra):
    for chi in simple_dg_modules(arrow_algebra).values():
        M = character_module(arrow_algebra, chi)
        dense_dg_module_verify(M)
        assert len(M.degrees) == 1
        assert M.differential == {}


#: (algebra in inputs/, side of its standard pair): the dg end of the
#: silting side, and the cohomology algebra of the dg end of the simple
#: side.  loop2 has no simple side here: its simple has no resolution
#: within RESOLUTION_BOUND, so its silting side is built from stalks.
CHARACTER_CASES = [
    (path.stem, side)
    for path in sorted(INPUTS.glob("*.alg"))
    for side in ("silting", "smc")
    if (path.stem, side) != ("loop2", "smc")
]


@pytest.mark.parametrize("name, side", CHARACTER_CASES, ids=["-".join(c) for c in CHARACTER_CASES])
def test_characters_match_the_eigenvalue_oracle(name, side):
    """chi(g) is the unique eigenvalue of left multiplication by e g e on
    the corner algebra e E^0 e, for every idempotent e and degree-0 basis
    element g."""
    algebra = parse_algebra((INPUTS / f"{name}.alg").read_text(encoding="utf-8"))
    if side == "silting":
        E = dg_end([single_projective(algebra, v) for v in algebra.quiver.vertices])
    else:
        E = cohomology_algebra(dg_end(standard_pair(algebra)[1]))
    for vertex, chi in simple_dg_modules(E).items():
        for g in E.indices_at(0):
            assert sym(chi[g]) == corner_eigenvalue(E, E.idempotents[vertex], {g: 1})


@pytest.mark.parametrize("p, length", [(2, 2), (3, 3)], ids=["x^2-over-F_2", "x^3-over-F_3"])
def test_characters_over_a_prime_field_no_larger_than_the_corner(p, length):
    """k[x]/(x^length) over F_p with p <= length: its trace form is 0, so
    only the Rónyai steps find the radical (x) and the character."""
    field = field_of_characteristic(p)
    quiver = Quiver(("1",), (Arrow("x", "1", "1"),))
    relation = [[(field.one, Path(("x",) * length, "1", "1"))]]
    D = path_algebra_to_dg(build_algebra(quiver, relation, length, field=field))
    (chi,) = simple_dg_modules(D).values()
    assert chi[D.labels.index("x")] == 0
    assert chi[D.labels.index("e_1")] == 1


def materialized(R):
    """The resolution R as plain dg module data on its basis pairs
    (generator, basis element), with the differential and action read off
    ``d_pair`` and ``act``."""
    one = R.field.one
    labels = tuple(
        f"{R.generators[t].label}*{R.algebra.labels[b]}" for t, b in R.basis_pairs
    )
    differential = {
        p: {R.pair_index[key]: c for key, c in R.d_pair(t, b).items()}
        for p, (t, b) in enumerate(R.basis_pairs)
    }
    action = {
        a: {
            p: {R.pair_index[key]: c for key, c in R.act({pair: one}, a).items()}
            for p, pair in enumerate(R.basis_pairs)
        }
        for a in range(R.algebra.dimension)
    }
    return dg_module(R.algebra, labels, R.basis_degrees, differential, action)


def test_resolution_materializes_to_a_verified_module(arrow_algebra):
    simples = simple_dg_modules(arrow_algebra)
    for chi in simples.values():
        R = semifree_resolution(chi, arrow_algebra, STAGES)
        mod = materialized(R)
        dense_dg_module_verify(mod)
        assert Counter(mod.degrees) == R.graded_dims()
        assert all("*" in label for label in mod.labels)


def test_resolution_differential_and_comparison_commute(arrow_algebra):
    big = max(
        (
            semifree_resolution(chi, arrow_algebra, STAGES)
            for chi in simple_dg_modules(arrow_algebra).values()
        ),
        key=lambda r: r.dimension,
    )
    big.verify()
    # d moves generator lines into each other, never out of the basis
    for t, b in big.basis_pairs:
        for key in big.d_pair(t, b):
            assert key in big.pair_index


def test_comparison_map_hits_the_module_generator(arrow_algebra):
    for chi in simple_dg_modules(arrow_algebra).values():
        R = semifree_resolution(chi, arrow_algebra, STAGES)
        assert R.phi_gens[0], "first generator must map onto the module"


def test_infinite_resolution_is_flagged_truncated(loop2):
    D = path_algebra_to_dg(loop2)
    (chi,) = simple_dg_modules(D).values()
    with pytest.raises(TruncationUnsound, match="^semifree resolution needs more than 8 stages$"):
        semifree_resolution(chi, D, STAGES)


def test_the_linear_a15_simple_side_resolves_within_the_silting_cap():
    """Over the cohomology algebra of the dg end of the linear A15 simples,
    S_15 adopts one generator per stage, all in degree 0, at the vertices
    15, ..., 1: sixteen stages with the one that finds the cone acyclic.
    The cap koszul_pair_check hands it, dim H^*(silting side) + 1 = 121,
    lets it end; one stage fewer than it needs is refused, naming the cap."""
    silting, smc = standard_pair(parse_algebra(linear_algebra_text(15, False)))
    H = cohomology_algebra(dg_end(smc))
    cap = sum(dg_end(silting).cohomology_dims().values()) + 1
    chi = simple_dg_modules(H)["15"]
    R = semifree_resolution(chi, H, cap)
    assert cap == 121
    assert [(g.degree, g.vertex) for g in R.generators] == [(0, str(v)) for v in range(15, 0, -1)]
    with pytest.raises(TruncationUnsound, match="^semifree resolution needs more than 15 stages$"):
        semifree_resolution(chi, H, 15)


def test_right_action_respects_the_idempotent_columns(arrow_algebra):
    E = arrow_algebra
    simples = simple_dg_modules(E)
    for name, chi in simples.items():
        R = semifree_resolution(chi, E, STAGES)
        gen_vertex = R.generators[0].vertex
        assert gen_vertex == name
        # acting by the wrong idempotent annihilates the generator line
        other = next(v for v in E.idempotents if v != name)
        (e_other,) = (i for i, c in E.idempotents[other].items() if c)
        start = {(0, b): QQ.one for (t, b) in R.basis_pairs if t == 0}
        moved = R.act(start, e_other)
        assert all(pair[0] == 0 for pair in moved)


@pytest.mark.parametrize(
    "name", ["a2", "a3", "a3rel", "kron", "k", "linear-a5", "radical-square-zero-a5"]
)
def test_resolutions_of_the_simples_are_minimal(name):
    """Over the dg end of the projective stalks, the resolution of each
    simple dg module has one generator per summand of the minimal
    projective resolution of the simple module, in the same degree and at
    the same vertex."""
    if name.endswith("a5"):
        text = linear_algebra_text(5, name.startswith("radical"))
    else:
        text = (INPUTS / f"{name}.alg").read_text(encoding="utf-8")
    A = parse_algebra(text)
    silting, _ = standard_pair(A)
    vertex = {str(s + 1): x.summands[0][0] for s, x in enumerate(silting)}
    E = dg_end(silting)
    for s, chi in simple_dg_modules(E).items():
        R = semifree_resolution(chi, E, STAGES)
        got = sorted((g.degree, vertex[g.vertex]) for g in R.generators)
        res = minimal_projective_resolution(A, vertex[s])
        want = sorted((k, v) for k, vs in res.summands.items() for v in vs)
        assert got == want, f"simple {s}"


def test_the_silting_dual_of_linear_a4_has_dimension_31():
    silting, _ = standard_pair(parse_algebra(linear_algebra_text(4, False)))
    assert koszul_dual(dg_end(silting), STAGES).dimension == 31


#: (algebra, one-step lockstep mutation or None): the standard pair and
#: every one-step mutated pair of linear and radical-square-zero A3 and A4,
#: and the standard pair of the commutative square.
REFEREE_PAIRS = [
    (f"{family}-a{n}", step)
    for family in ("linear", "rsz")
    for n in (3, 4)
    for step in [None, *((i, side) for i in range(n) for side in ("left", "right"))]
] + [("square", None)]


def one_sided_model(name, step, side):
    """The model the Koszul check dualizes on one side of a pair: the
    smart truncation of the silting side's dg end, or the positive model
    of the simple side's."""
    if name == "square":
        text = (INPUTS.parent / "tests" / "golden" / "resolutions" / "square.alg").read_text(
            encoding="utf-8"
        )
    else:
        family, n = name.split("-a")
        text = linear_algebra_text(int(n), family == "rsz")
    silting, smc = standard_pair(parse_algebra(text))
    if step is not None:
        silting, smc = silting_mutate(silting, *step), smc_mutate(smc, *step)
    if side == "silting":
        return smart_truncation(dg_end(silting))
    return positive_model(dg_end(list(smc)))


def end_index(objects):
    """The basis index of ``end_algebra(objects, ...)`` of each map
    (s, t, g, u, b) sending generator g of objects[s] to the pair (u, b) of
    objects[t]: blocks run by s, then t, and within a block by degree,
    then the degree of g, then u, g and b."""
    E = objects[0].algebra
    index = {}
    for s, X in enumerate(objects):
        for t, Y in enumerate(objects):
            block = sorted(
                (Y.basis_degrees[p] - gen.degree, gen.degree, u, g, b)
                for g, gen in enumerate(X.generators)
                for p, (u, b) in enumerate(Y.basis_pairs)
                if E.blocks[b][1] == gen.vertex
            )
            for _, _, u, g, b in block:
                index[(s, t, g, u, b)] = len(index)
    return index


def pair_id(pair):
    name, step = pair
    return f"{name}-std" if step is None else f"{name}-{step[0] + 1}{step[1][0]}"


@pytest.mark.parametrize("side", ["silting", "smc"])
@pytest.mark.parametrize("name, step", REFEREE_PAIRS, ids=map(pair_id, REFEREE_PAIRS))
def test_ext_classes_go_to_the_classes_of_their_lifts_in_the_dual(name, step, side):
    """koszul_dual is the referee of ext_algebra: sending each Ext class
    [phi] to the class of its lift Phi in H(koszul_dual) is a verified
    quasi-isomorphism onto cohomology_algebra(koszul_dual)."""
    model = one_sided_model(name, step, side)
    ext = ext_algebra(model, STAGES)
    dual = koszul_dual(model, STAGES)
    H = cohomology_algebra(dual)
    names = list(model.idempotents)
    index = end_index(
        [semifree_resolution(chi, model, STAGES) for chi in simple_dg_modules(model).values()]
    )
    images = []
    for i, lift in enumerate(ext.lifts):
        t, s = (names.index(v) for v in ext.blocks[i])
        n = ext.degrees[i]
        Phi = {
            index[(s, t, g, u, b)]: c
            for g, image in enumerate(lift)
            for (u, b), c in image.items()
        }
        classes = dual.cohomology(n).coordinates(Phi)
        assert classes is not None, f"the lift of {ext.labels[i]} is not a cocycle"
        images.append({H.degrees.index(n) + k: c for k, c in classes.items()})
    assert verify_dg_quasi_iso(GradedAlgebraMap(ext, H, images))


def test_ext_reads_cohomology_where_the_resolution_is_not_minimal():
    """Over the smart truncation of the square's silting side, S_4 adopts
    the piece of the long path before the arrow pieces: six generators,
    while Ext(S_4, ⊕S) has dimension 4.  ext_algebra takes the cohomology
    of Hom(Q_4, S) and gets the dual's cohomology at vertex 4."""
    model = one_sided_model("square", None, "silting")
    R = semifree_resolution(simple_dg_modules(model)["4"], model, STAGES)
    assert len(R.generators) == 6

    def at_4(A):
        return Counter(A.degrees[i] for i, (_, source) in enumerate(A.blocks) if source == "4")

    ext = ext_algebra(model, STAGES)
    assert at_4(ext) == at_4(cohomology_algebra(koszul_dual(model, STAGES))) == {0: 1, 1: 2, 2: 1}
