"""Bracket evaluation, relation checks, curvature, twisting, direct sums."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from slmc.algebra import (
    SLAlgebra,
    check_relations,
    curvature,
    direct_sum,
    direct_sum_with_maps,
    embed_element,
    eval_bracket,
    eval_twisted_bracket,
    is_mc,
    project_element,
    twist_algebra,
    zero_algebra,
)
from slmc.errors import InputError, PreconditionError
from slmc.fixtures import a2, a2_broken, abelian, algebras, contractible, heis_ext, mixed, square
from slmc.graded import Element, GradedSpace


def F(n, d=1):
    return Fraction(n, d)


def test_constructor_validation():
    with pytest.raises(InputError, match="weight 3 >= nilpotency"):
        SLAlgebra(GradedSpace([("a", 0, 3)]), {}, 3)
    space = GradedSpace([("z", 1, 1), ("w", 1, 2)])
    with pytest.raises(InputError, match="raise total degree"):
        SLAlgebra(space, {1: {("z",): Element(space, {"w": F(1)})}}, 3)
    space = GradedSpace([("x", 0, 1), ("y", 0, 1), ("z", 1, 2)])
    with pytest.raises(InputError, match="not a canonical word"):
        SLAlgebra(space, {2: {("y", "x"): Element(space, {"z": F(1)})}}, 3)
    space = GradedSpace([("x", 0, 2), ("z", 1, 1)])
    with pytest.raises(InputError, match="weight additivity"):
        SLAlgebra(space, {2: {("x", "x"): Element(space, {"z": F(1)})}}, 3)
    with pytest.raises(InputError, match="nilpotency"):
        SLAlgebra(GradedSpace([("a", 0, 1)]), {}, 1)


def test_eval_bracket_signs():
    alg = mixed()
    p1 = alg.basis_element("p1")
    p2 = alg.basis_element("p2")
    r = alg.basis_element("r")
    assert eval_bracket(alg, [p1, p2]) == r
    # swapping two odd arguments flips the sign
    assert eval_bracket(alg, [p2, p1]) == r * -1
    q = alg.basis_element("q")
    s = alg.basis_element("s")
    assert eval_bracket(alg, [q, p1]) == s
    assert eval_bracket(alg, [p1, q]) == s


def test_eval_bracket_multilinear():
    alg = a2()
    x, y, z = (alg.basis_element(n) for n in "xyz")
    assert eval_bracket(alg, [x * 2 + y, y * 3]) == z * 6
    assert eval_bracket(alg, [alg.zero(), y]).is_zero()
    with pytest.raises(InputError):
        eval_bracket(alg, [])


def test_check_relations_fixtures_clean():
    for name, alg in algebras().items():
        assert check_relations(alg) == [], name


def test_check_relations_mutant_exact():
    violations = check_relations(a2_broken())
    assert [(v.arity, v.word) for v in violations] == [(2, ("x", "y"))]
    assert violations[0].residual.sorted_terms() == [("w2", F(1))]
    assert "m=2" in violations[0].describe()
    assert "x.y" in violations[0].describe()


def test_curvature_frozen():
    alg = a2()
    x, y, z = (alg.basis_element(n) for n in "xyz")
    assert curvature(alg, x + y) == z
    assert curvature(alg, x).is_zero()
    assert curvature(alg, y * -2).is_zero()


def test_curvature_bilinear_family():
    alg = a2()
    x, y, z = (alg.basis_element(n) for n in "xyz")
    for s, t in itertools.product([F(-2), F(0), F(1, 2), F(3)], repeat=2):
        assert curvature(alg, x * s + y * t) == z * (s * t)
        assert is_mc(alg, x * s + y * t) == (s * t == 0)


def test_curvature_includes_differential():
    alg = heis_ext()
    u = alg.basis_element("u")
    z = alg.basis_element("z")
    # curvature of u is du = z plus no bracket terms
    assert curvature(alg, u) == z
    # the x, y bracket and du = z cancel for x + y - u
    a = alg.basis_element("x") + alg.basis_element("y") - u
    assert curvature(alg, a).is_zero()


def test_curvature_square_algebra():
    alg = square()
    a = alg.basis_element("a")
    b = alg.basis_element("b")
    # {a, a} = b counts once with the 1/2! prefactor
    assert curvature(alg, a * 2) == b * 2


def test_curvature_requires_degree_zero():
    alg = a2()
    with pytest.raises(InputError):
        curvature(alg, alg.basis_element("z"))


def test_twist_frozen():
    alg = a2()
    x = alg.basis_element("x")
    twisted = twist_algebra(alg, x * 2)
    assert twisted.table(1) == {("y",): alg.basis_element("z") * 2}
    assert twisted.table(2) == alg.table(2)
    assert check_relations(twisted) == []


def test_twist_rejects_non_mc():
    alg = a2()
    x, y = alg.basis_element("x"), alg.basis_element("y")
    with pytest.raises(PreconditionError) as exc:
        twist_algebra(alg, x + y)
    assert exc.value.witness == alg.basis_element("z")


def test_twisted_bracket_at_base():
    alg = a2()
    x, y, z = (alg.basis_element(n) for n in "xyz")
    # evaluating the unary twisted bracket at base x gives d^x(y) = {x, y}
    assert eval_twisted_bracket(alg, x, [y]) == z
    # at base 0 it is the plain differential, which vanishes here
    assert eval_twisted_bracket(alg, alg.zero(), [y]).is_zero()
    with pytest.raises(InputError):
        eval_twisted_bracket(alg, x, [])


def test_direct_sum_structure():
    left, right = a2(), contractible()
    total, ren1, ren2 = direct_sum_with_maps(left, right)
    assert direct_sum(left, right).space.symbols() == total.space.symbols()
    assert len(total.space.symbols()) == 5
    assert total.nilpotency == max(left.nilpotency, right.nilpotency)
    assert check_relations(total) == []

    x = left.basis_element("x")
    ex = embed_element(total, ren1, x)
    assert project_element(left, ren1, ex) == x
    assert project_element(right, ren2, ex).is_zero()

    # brackets of embedded elements agree with the summand brackets
    y = left.basis_element("y")
    lhs = eval_bracket(total, [ex, embed_element(total, ren1, y)])
    assert lhs == embed_element(total, ren1, eval_bracket(left, [x, y]))

    # cross-summand words bracket to zero
    h = embed_element(total, ren2, right.basis_element("h"))
    assert eval_bracket(total, [ex, h]).is_zero()


def test_direct_sum_curvature_splits():
    left, right = a2(), contractible()
    total, ren1, ren2 = direct_sum_with_maps(left, right)
    a = left.basis_element("x")
    b = right.basis_element("e")
    combo = embed_element(total, ren1, a) + embed_element(total, ren2, b)
    cur = curvature(total, combo)
    assert project_element(left, ren1, cur) == curvature(left, a)
    assert project_element(right, ren2, cur) == curvature(right, b)


def test_zero_algebra():
    z = zero_algebra()
    assert z.space.symbols() == ()
    assert check_relations(z) == []
    assert curvature(z, z.zero()).is_zero()


def test_default_relation_scan_arity():
    # nilpotency bounds the relevant arity: weight-1 entries of an N = 3
    # algebra cannot support words longer than N + 1
    alg = a2()
    assert check_relations(alg, max_arity=5) == []
    assert alg.max_arity() == 2


def test_direct_sum_nested_names_stay_free():
    a = a2()
    nested = direct_sum(direct_sum(direct_sum(a, a), a), a)
    syms = a.space.symbols()
    three = direct_sum(direct_sum(a, a), a)
    # names that never collided keep the names they had before
    assert three.space.symbols() == tuple(
        [f"left.{s}" for s in syms] + [f"right.{s}" for s in syms] + list(syms)
    )
    assert nested.space.symbols() == three.space.symbols()[: 2 * len(syms)] + tuple(
        [f"left.left.{s}" for s in syms] + [f"right.right.{s}" for s in syms]
    )
    assert sum(len(t) for t in nested.brackets.values()) == 4 * sum(len(t) for t in a.brackets.values())
    assert check_relations(nested) == []
