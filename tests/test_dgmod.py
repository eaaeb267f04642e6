"""Dg modules over structure-constant dg algebras and their free
resolutions in generator form."""

import pytest

from oracles import dense_dg_module_verify
from siltkit.correspond.pipeline import standard_pair
from siltkit.dg import (
    DGModule,
    cohomology_algebra,
    dg_end,
    path_algebra_to_dg,
    semifree_resolution,
    simple_dg_modules,
)
from siltkit.errors import ChainConditionViolated
from siltkit.fields import QQ


@pytest.fixture
def arrow_algebra(a2):
    """Two idempotents joined by a single degree-one class."""
    _, smc = standard_pair(a2)
    return cohomology_algebra(dg_end(smc))


def test_action_must_shift_by_the_element_degree(arrow_algebra):
    E = arrow_algebra
    (g,) = E.indices_at(1)
    action = {i: {0: {0: QQ.one}} for i, _ in enumerate(E.labels)}
    bad = DGModule(E, ("m",), (0,), {}, {g: {0: {0: QQ.one}}, **action})
    with pytest.raises(ChainConditionViolated, match="shift degree"):
        dense_dg_module_verify(bad)


def test_unit_must_act_as_identity(arrow_algebra):
    starved = DGModule(arrow_algebra, ("m",), (0,), {}, {})
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
    bad = DGModule(
        E,
        ("m0", "m1", "m2"),
        (0, 1, 2),
        {0: {1: QQ.one}, 1: {2: QQ.one}},
        action,
    )
    with pytest.raises(ChainConditionViolated, match="square"):
        dense_dg_module_verify(bad)


def test_simple_modules_pass_their_own_audit(arrow_algebra):
    for M in simple_dg_modules(arrow_algebra).values():
        dense_dg_module_verify(M)
        assert M.dimension == 1
        assert M.differentiate({0: QQ.one}) == {}


def materialized(R):
    """The resolution R as a DGModule on its basis pairs (generator, basis
    element), with the differential and action read off ``d_pair`` and
    ``act``."""
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
    return DGModule(R.algebra, labels, tuple(R.basis_degrees), differential, action)


def test_resolution_materializes_to_a_verified_module(arrow_algebra):
    simples = simple_dg_modules(arrow_algebra)
    for M in simples.values():
        R = semifree_resolution(M, arrow_algebra)
        mod = materialized(R)
        dense_dg_module_verify(mod)
        assert mod.graded_dims() == R.graded_dims()
        assert all("*" in label for label in mod.labels)


def test_resolution_differential_and_comparison_commute(arrow_algebra):
    big = max(
        (
            semifree_resolution(M, arrow_algebra)
            for M in simple_dg_modules(arrow_algebra).values()
        ),
        key=lambda r: r.dimension,
    )
    big.verify()
    # d moves generator lines into each other, never out of the basis
    for t, b in big.basis_pairs:
        for key in big.d_pair(t, b):
            assert key in big.pair_index


def test_comparison_map_hits_the_module_generator(arrow_algebra):
    for M in simple_dg_modules(arrow_algebra).values():
        R = semifree_resolution(M, arrow_algebra)
        assert R.phi_gens[0], "first generator must map onto the module"


def test_infinite_resolution_is_flagged_truncated(loop2):
    D = path_algebra_to_dg(loop2)
    (M,) = simple_dg_modules(D).values()
    R = semifree_resolution(M, D, window=(-3, 3))
    R.verify()
    assert not R.complete
    assert [g.degree for g in R.generators] == [0, -1, -2, -3, -4, -5]
    assert all(count == 2 for count in R.graded_dims().values())


def test_right_action_respects_the_idempotent_columns(arrow_algebra):
    E = arrow_algebra
    simples = simple_dg_modules(E)
    for name, M in simples.items():
        R = semifree_resolution(M, E)
        gen_vertex = R.generators[0].vertex
        assert gen_vertex == name
        # acting by the wrong idempotent annihilates the generator line
        other = next(v for v in E.idempotents if v != name)
        (e_other,) = (i for i, c in E.idempotents[other].items() if c)
        start = {(0, b): QQ.one for (t, b) in R.basis_pairs if t == 0}
        moved = R.act(start, e_other)
        assert all(pair[0] == 0 for pair in moved)
