"""Complexes of projectives: construction, shift, cones, minimization."""

import ast
import pathlib

import pytest

import siltkit
from siltkit.core.modules import minimal_projective_resolution
from siltkit.core.quivers import Path
from siltkit.errors import ChainConditionViolated
from siltkit.homotopy.complexes import (
    ProjComplex,
    cone,
    direct_sum,
    identity_map,
    minimize,
    shift,
    single_projective,
)
from siltkit.homotopy.homs import complex_cohomology_dims, hom_space


def res(algebra, v):
    return minimal_projective_resolution(algebra, v)


def test_single_projective_is_a_stalk(a2):
    p = single_projective(a2, "1", 0)
    assert p.summands == {0: ("1",)}
    assert p.diffs == {}
    assert p.min_degree == p.max_degree == 0
    assert not p.is_zero()


def test_differential_must_square_to_zero(loop2):
    with pytest.raises(ChainConditionViolated):
        # consecutive identity differentials compose to the identity
        ProjComplex(
            loop2,
            {0: ("1",), 1: ("1",), 2: ("1",)},
            {0: [[loop2.idempotent("1")]], 1: [[loop2.idempotent("1")]]},
        )


def test_differential_composability_of_vertices(a2):
    with pytest.raises(ChainConditionViolated):
        # entry must lie in e_1 A e_1, but a runs 2 -> 1
        ProjComplex(
            a2,
            {0: ("1",), 1: ("1",)},
            {0: [[a2.from_path(Path(("a",), "2", "1"))]]},
        )


def test_shift_moves_degrees_and_flips_signs(a2):
    r1 = res(a2, "1")
    s = shift(r1, 1)
    assert s.summands == {-1: ("1",), -2: ("2",)}
    assert s.diffs[-2][0][0] == -r1.diffs[-1][0][0]
    double = shift(r1, 2)
    assert double.diffs[-3][0][0] == r1.diffs[-1][0][0]
    assert shift(shift(r1, 1), -1).summands == r1.summands


def test_shift_composes_additively(a2):
    r1 = res(a2, "1")
    assert shift(shift(r1, 1), 2).summands == shift(r1, 3).summands


def test_cone_of_identity_is_contractible(a2):
    r1 = res(a2, "1")
    c = minimize(cone(identity_map(r1)))
    assert c.is_zero()


def test_cone_shape_and_squares(a2):
    p1 = single_projective(a2, "1", 0)
    p2 = single_projective(a2, "2", 0)
    f = hom_space(p2, p1, 0).representatives[0]
    c = cone(f)
    assert c.summands == {-1: ("2",), 0: ("1",)}
    # the cone of a: P2 -> P1 is the resolution of the simple at 1
    assert complex_cohomology_dims(c) == complex_cohomology_dims(res(a2, "1"))


def test_direct_sum_concatenates_summands(a2):
    p1 = single_projective(a2, "1", 0)
    r1 = res(a2, "1")
    s = direct_sum(p1, r1)
    assert s.summands[0] == ("1", "1")
    assert s.summands[-1] == ("2",)


def test_minimize_cancels_unit_entries(a2):
    p1 = single_projective(a2, "1", 0)
    c = cone(identity_map(p1))
    assert not c.is_zero()
    assert minimize(c).is_zero()


def test_minimize_preserves_hom_dimensions(a2):
    r1 = res(a2, "1")
    p2 = single_projective(a2, "2", 0)
    bloated = cone(identity_map(p2))
    padded = direct_sum(r1, bloated)
    slim = minimize(padded)
    assert slim.total_summands() < padded.total_summands()
    for n in range(-2, 3):
        assert hom_space(padded, r1, n).dimension == hom_space(slim, r1, n).dimension
        assert hom_space(r1, padded, n).dimension == hom_space(r1, slim, n).dimension


def test_class_vector_is_the_euler_characteristic_of_summands(a2):
    r1 = res(a2, "1")
    assert r1.class_vector() == {"1": 1, "2": -1}
    assert shift(r1, 1).class_vector() == {"1": -1, "2": 1}


def test_complex_cohomology_of_a_resolution_is_the_module(a3rel):
    r1 = res(a3rel, "1")
    # quasi-isomorphic to the simple at 1: its dimension vector in degree 0
    assert complex_cohomology_dims(r1) == {0: {"1": 1}}


def test_a_minimal_form_is_its_own_minimal_form(a2):
    padded = direct_sum(res(a2, "1"), cone(identity_map(single_projective(a2, "2"))))
    m = minimize(padded)
    assert m is not padded
    assert minimize(m) is m
    assert minimize(padded) is m
    r = res(a2, "1")
    assert minimize(r) is r


def test_the_key_is_the_content_not_the_label(a2):
    x = res(a2, "1")
    relabelled = ProjComplex(a2, x.summands, x.diffs, label="other")
    assert relabelled.label == "other"
    assert x.key == relabelled.key
    assert x.key != shift(x, 1).key
    assert x.key != shift(x, 2).key


def test_complexes_are_changed_only_while_they_are_built():
    """``ProjComplex.key`` and the kept minimal form are computed once, so
    no module may assign to a ``.summands`` or ``.diffs`` attribute, or to
    an item of one, outside ``ProjComplex.__init__``."""
    root = pathlib.Path(siltkit.__file__).resolve().parent
    watched = {"summands", "diffs"}

    def touches(target) -> bool:
        while isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(touches(t) for t in target.elts)
        return isinstance(target, ast.Attribute) and target.attr in watched

    found = []

    def visit(node, scope: str, path: pathlib.Path) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        else:
            targets = []
        if scope != "ProjComplex.__init__" and any(touches(t) for t in targets):
            found.append(f"{path.relative_to(root)}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope, path)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path)
    assert found == []
