"""Simplices of Maurer-Cartan elements: flatness, maps, horns, components."""

from __future__ import annotations

from fractions import Fraction

import pytest

from slmc.algebra import direct_sum_with_maps, eval_bracket, twist_algebra
from slmc.derham import PolyForm
from slmc.errors import InputError, PreconditionError
from slmc.fixtures import (
    a2,
    contractible,
    enh_w,
    heis_ext,
    incl,
    mc_points,
    mixed,
    mixed_path_simplex,
    path_simplex,
    scale_contr,
)
from slmc.groupoid import (
    MCSimplex,
    MCSystem,
    Obstruction,
    TensorElement,
    build_ansatz,
    combine_tensor,
    connect_points,
    fill_horn,
    lift_mc,
    mc_enhanced,
    mc_map,
    mc_system,
    pi0,
    shift_iso,
    shift_iso_inverse,
    split_tensor,
    tensor_bracket,
    tensor_curvature,
)


def F(n, d=1):
    return Fraction(n, d)


def one(dim=1):
    return PolyForm.constant(dim, F(1))


def t():
    return PolyForm.coordinate(1, 1)


def dt():
    return PolyForm.dt(1, 1)


def test_tensor_element_basics():
    alg = a2()
    x = TensorElement.of_element(alg, 1, alg.basis_element("x"))
    assert x.constant_part() == alg.basis_element("x")
    assert x.degree() == 0
    assert (x + x.scale(-1)).is_zero()
    with pytest.raises(InputError):
        TensorElement(alg, 1, {"nope": one()})


def test_tensor_curvature_frozen():
    m = mixed()
    # q constant, s ramping linearly: only the 1 (x) d part survives
    val = TensorElement(m, 1, {"q": one(), "s": t()})
    cur = tensor_curvature(m, val)
    assert [(s, f.sorted_terms()) for s, f in cur.sorted_terms()] == [
        ("s", [(((0,), (1,)), F(1))])
    ]
    # constant MC points are flat as constant simplices
    x = TensorElement.of_element(a2(), 1, a2().basis_element("x"))
    assert tensor_curvature(a2(), x).is_zero()


def test_tensor_bracket_on_constants_matches_eval_bracket():
    # every ordered pair, so brackets given in non-basis order are found too
    m = mixed()
    for x in m.space.symbols():
        for y in m.space.symbols():
            args = [TensorElement.of_element(m, 0, m.basis_element(n)) for n in (x, y)]
            expected = eval_bracket(m, [m.basis_element(x), m.basis_element(y)])
            assert tensor_bracket(m, args) == TensorElement.of_element(m, 0, expected), (x, y)


def test_tensor_bracket_graded_symmetric_in_total_degree():
    m = mixed()
    prims = [
        TensorElement(m, 1, {sym: form})
        for sym in m.space.symbols()
        for form in (one(), t(), dt())
    ]
    nonzero = 0
    for x in prims:
        for y in prims:
            xy = tensor_bracket(m, [x, y])
            sign = -1 if x.degree() * y.degree() % 2 else 1
            assert xy == tensor_bracket(m, [y, x]).scale(sign), (x, y)
            nonzero += not xy.is_zero()
    assert nonzero > 0


def test_path_fixtures_are_flat():
    assert tensor_curvature(contractible(), path_simplex().value).is_zero()
    assert tensor_curvature(mixed(), mixed_path_simplex().value).is_zero()


def test_mcsimplex_validates():
    alg = contractible()
    broken = TensorElement(alg, 1, {"e": one() - t()})
    with pytest.raises(PreconditionError) as exc:
        MCSimplex(alg, broken)
    assert not exc.value.witness.is_zero()
    with pytest.raises(PreconditionError):
        MCSimplex.point(a2(), a2().element({"x": 1, "y": 1}))


def test_simplex_faces_and_degeneracies():
    path = path_simplex()
    e_point = path.face(1)
    zero_point = path.face(0)
    assert e_point.value.constant_part() == contractible().basis_element("e")
    assert zero_point.value.is_zero()
    const = e_point.degeneracy(0)
    assert const.dim == 1
    assert const.face(0) == e_point and const.face(1) == e_point


def test_mc_map_on_points_is_pushforward():
    from slmc.morphism import pushforward

    f = incl()
    for point in mc_points("a2"):
        s = MCSimplex.point(a2(), point)
        assert mc_map(f, s).value.constant_part() == pushforward(f, point)


def test_mc_map_on_path():
    f = scale_contr(2)
    got = mc_map(f, path_simplex())
    assert got.value.sorted_terms() == [
        ("e", (one() - t()).scale(2)),
        ("h", dt().scale(2)),
    ]


def test_mc_map_commutes_with_faces_frozen():
    f = scale_contr(3)
    path = path_simplex()
    for i in (0, 1):
        assert mc_map(f, path).face(i) == mc_map(f, path.face(i))


def test_shift_iso_roundtrip():
    alg = a2()
    alpha = alg.basis_element("x")
    zero_pt = MCSimplex.point(twist_algebra(alg, alpha), alg.zero())
    shifted = shift_iso(alg, alpha, zero_pt)
    assert shifted.value.constant_part() == alpha
    back = shift_iso_inverse(alg, alpha, shifted)
    assert back.value.is_zero()


def test_mc_enhanced_point():
    e = enh_w(1)
    alg = heis_ext()
    pt = MCSimplex.point(alg, alg.zero())
    got = mc_enhanced(e, pt)
    assert got.value.constant_part() == alg.basis_element("w")


def test_mc_system_dim0():
    system = mc_system(a2(), 0, 0)
    assert system.render() == ["1*c[x]*c[y] = 0"]
    assert [s.label() for s in system.slots] == ["x", "y"]
    for a in range(-2, 3):
        for b in range(-2, 3):
            assert system.accepts([F(a), F(b)]) == (a * b == 0)


def test_mc_system_dim1_degree3():
    system = mc_system(a2(), 1, 3)
    # 3 derivative constraints per line plus the 7 product coefficients
    assert len(system.equations) == 13
    labels = [s.label() for s in system.slots]
    assert labels == [
        "x", "x.t1", "x.t1^2", "x.t1^3",
        "y", "y.t1", "y.t1^2", "y.t1^3",
    ]
    # constants with vanishing product solve the system
    assert system.accepts([F(2), 0, 0, 0, 0, 0, 0, 0])
    assert system.accepts([0, 0, 0, 0, F(-3), 0, 0, 0])
    assert not system.accepts([F(2), 0, 0, 0, F(1), 0, 0, 0])
    # any honest t-dependence is rejected by the derivative constraints
    assert not system.accepts([F(1), F(1), 0, 0, 0, 0, 0, 0])
    # substitute() reproduces the ansatz at a concrete solution
    sol = system.substitute([F(2), 0, 0, 0, 0, 0, 0, 0])
    assert tensor_curvature(a2(), sol).is_zero()


def test_mc_system_contractible_has_solutions():
    system = mc_system(contractible(), 0, 0)
    # e alone is unconstrained at a point
    assert system.accepts([F(5)] * len(system.slots))


def test_build_ansatz_slot_count():
    _, slots = build_ansatz(a2(), 1, 3)
    assert len(slots) == 8
    _, slots0 = build_ansatz(a2(), 0, 0)
    assert [s.label() for s in slots0] == ["x", "y"]
    # z needs form degree -1 on the 1-simplex, so it never gets a slot
    assert all(s.symbol != "z" for s in slots)


def test_lift_mc_obstruction_iff_product():
    alg = a2()
    for s, u in [(F(1), F(1)), (F(2), F(-1, 2)), (F(1), F(0)), (F(0), F(3))]:
        low = TensorElement.of_element(
            alg, 0, alg.element({"x": s, "y": u})
        )
        got = lift_mc(alg, 0, low, 2)
        if s * u == 0:
            assert isinstance(got, TensorElement)
            assert tensor_curvature(alg, got).is_zero()
        else:
            assert isinstance(got, Obstruction)
            assert "weight 2" in got.describe() or got.stage


def test_lift_mc_rejects_bad_input():
    alg = a2()
    x = TensorElement.of_element(alg, 0, alg.element({"x": 1, "y": 1}))
    with pytest.raises(PreconditionError):
        # curvature already nonzero below the requested weight
        lift_mc(alg, 0, x, 3)


def test_fill_horn_dim1_all_fixtures():
    for name in ("a2", "contractible", "heis_ext", "mixed"):
        alg = {"a2": a2, "contractible": contractible, "heis_ext": heis_ext, "mixed": mixed}[name]()
        for point in mc_points(name):
            pt = MCSimplex.point(alg, point)
            for index in (0, 1):
                filled = fill_horn(alg, 1, index, [pt])
                assert isinstance(filled, MCSimplex), name
                assert filled.face(1 - index) == pt
                assert filled.face(index) == pt


def test_fill_horn_dim2_degenerate():
    # horns carved out of a degenerate 2-simplex are compatible by
    # construction and must be filled with the correct faces restored
    path = path_simplex()
    alg = contractible()
    for degen in (0, 1):
        s = path.degeneracy(degen)
        for index in (0, 1, 2):
            js = [j for j in range(3) if j != index]
            given = [s.face(j) for j in js]
            filled = fill_horn(alg, 2, index, given)
            assert isinstance(filled, MCSimplex)
            for j, f in zip(js, given):
                assert filled.face(j) == f


def test_fill_horn_dim2_solver():
    alg = contractible()
    path = path_simplex()
    const = path.face(1).degeneracy(0)
    filled = fill_horn(alg, 2, 0, [const, path], poly_degree=4)
    assert isinstance(filled, MCSimplex)
    assert filled.face(1) == const
    assert filled.face(2) == path


def test_fill_horn_incompatible_faces():
    alg = contractible()
    path = path_simplex()
    const0 = path.face(0).degeneracy(0)
    with pytest.raises(InputError, match="incompatible"):
        fill_horn(alg, 2, 0, [const0, path])


def test_fill_horn_input_validation():
    alg = contractible()
    pt = MCSimplex.point(alg, alg.element({"e": 1}))
    with pytest.raises(InputError):
        fill_horn(alg, 1, 2, [pt])
    with pytest.raises(InputError):
        fill_horn(alg, 1, 0, [pt, pt])
    with pytest.raises(InputError):
        fill_horn(alg, 2, 0, [pt, pt])


def test_connect_points_direction_convention():
    alg = contractible()
    p = MCSimplex.point(alg, alg.element({"e": 1}))
    q = MCSimplex.point(alg, alg.zero())
    got = connect_points(alg, p, q, 3)
    assert isinstance(got, MCSimplex)
    assert got.face(1) == p and got.face(0) == q


def test_connect_points_obstructed():
    alg = a2()
    p = MCSimplex.point(alg, alg.element({"x": 1}))
    q = MCSimplex.point(alg, alg.element({"y": 1}))
    got = connect_points(alg, p, q, 4)
    assert isinstance(got, Obstruction)
    assert got.describe()


def test_pi0_contractible_single_class():
    alg = contractible()
    pts = [MCSimplex.point(alg, v) for v in mc_points("contractible")]
    result = pi0(alg, pts, poly_degree=3)
    assert result.classes == ((0, 1, 2),)
    # every merge carries a validated connecting simplex with the right faces
    for (i, j), cert in result.certificates.items():
        assert cert.face(1) == pts[i]
        assert cert.face(0) == pts[j]


def test_pi0_a2_three_classes():
    alg = a2()
    pts = [
        MCSimplex.point(alg, alg.element({"x": 1})),
        MCSimplex.point(alg, alg.element({"y": 1})),
        MCSimplex.point(alg, alg.zero()),
    ]
    result = pi0(alg, pts, poly_degree=6)
    assert result.classes == ((0,), (1,), (2,))
    assert result.certificates == {}
    assert not result.connected(0, 1)


def test_pi0_mixed_splits_by_rigid_coordinate():
    alg = mixed()
    pts = [
        MCSimplex.point(alg, alg.element({"q": 1})),
        MCSimplex.point(alg, alg.element({"q": 1, "s": -2})),
        MCSimplex.point(alg, alg.element({"q": 2})),
    ]
    result = pi0(alg, pts, poly_degree=3)
    assert result.connected(0, 1)
    assert not result.connected(0, 2)
    assert len(result.classes) == 2


def test_combine_split_roundtrip():
    left, right = a2(), contractible()
    total, ren1, ren2 = direct_sum_with_maps(left, right)
    lpart = path_simplex().value
    rpart = TensorElement.of_element(left, 1, left.basis_element("x"))
    combined = combine_tensor(total, (ren1, ren2), (rpart, lpart))
    back1, back2 = split_tensor((left, right), (ren1, ren2), combined)
    assert back1 == rpart and back2 == lpart
    # flat pieces stay flat in the sum
    assert tensor_curvature(total, combined).is_zero()
