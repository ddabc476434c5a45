"""Taylor-coefficient morphisms: checking, composing, pushing, twisting."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from slmc.algebra import SLAlgebra, twist_algebra
from slmc.errors import InputError, PreconditionError
from slmc.fixtures import (
    a2,
    contractible,
    enh_w,
    f2bad,
    f2c,
    heis_ext,
    id_a2,
    incl,
    mixed,
    morphisms,
    scale_contr,
    scale_mix,
)
from slmc.graded import Element, GradedSpace, WordSum, iter_words, koszul_sign, stairway_shuffles
from slmc.morphism import (
    EnhancedMorphism,
    InftyMorphism,
    check_morphism,
    compose_enhanced,
    compose_infty,
    comultiply,
    extend_to_coalgebra,
    pushforward,
    twist_morphism,
    u_map,
)


def F(n, d=1):
    return Fraction(n, d)


def test_fixture_morphisms_check_clean():
    for name, f in morphisms().items():
        assert check_morphism(f) == [], name


def test_failing_morphism_exact():
    violations = check_morphism(f2bad())
    assert [(v.arity, v.word) for v in violations] == [(2, ("x", "y"))]
    assert violations[0].residual.sorted_terms() == [("z", F(-1))]


def test_morphism_validation():
    alg = a2()
    with pytest.raises(InputError, match="weight"):
        # a quadratic coefficient may not lower weight
        InftyMorphism(alg, alg, {2: {("x", "y"): alg.basis_element("x")}})
    with pytest.raises(InputError, match="degree"):
        # Taylor coefficients preserve total degree
        InftyMorphism(alg, alg, {1: {("x",): alg.basis_element("z")}})


def test_identity_composition():
    f = incl()
    assert compose_infty(f, id_a2()).taylor == f.taylor
    g = InftyMorphism.identity(heis_ext())
    assert compose_infty(g, f).taylor == f.taylor


def test_compose_quadratic_oracle():
    # both Taylor levels feed the arity-2 coefficient of the composite:
    # G1(F2(q.p1)) + G2(F1 q . F1 p1) = 6 * (1/2) r + 2 * (1/2) r = 4 r
    c = compose_infty(scale_mix(), scale_mix())
    assert c.coefficient(("q", "p1")).sorted_terms() == [("r", F(4))]
    assert c.coefficient(("p1",)).sorted_terms() == [("p1", F(4))]
    assert check_morphism(c) == []


def test_pushforward_oracles():
    alg = a2()
    x, y = alg.basis_element("x"), alg.basis_element("y")
    assert pushforward(incl(), x + y).sorted_terms() == [("x", F(1)), ("y", F(1))]
    # quadratic corrections enter through the exponential:
    # F2(x.x)/2 + F2(x.y) = w/2 + w
    assert pushforward(f2c(), x + y).sorted_terms() == [
        ("x", F(1)),
        ("y", F(1)),
        ("w", F(3, 2)),
    ]
    m = mixed()
    assert pushforward(scale_mix(), m.element({"q": 1, "s": 1})).sorted_terms() == [
        ("q", F(1)),
        ("s", F(2)),
    ]


def test_pushforward_requires_degree_zero():
    with pytest.raises(InputError):
        pushforward(incl(), a2().basis_element("z"))


def test_pushforward_preserves_mc():
    alg = a2()
    from slmc.algebra import curvature

    a = alg.basis_element("x") * 3
    assert curvature(alg, a).is_zero()
    assert curvature(heis_ext(), pushforward(f2c(), a)).is_zero()


def test_twist_morphism_frozen():
    tw = twist_morphism(f2c(), a2().basis_element("x"))
    assert tw.coefficient(("y",)).sorted_terms() == [("y", F(1)), ("w", F(1))]
    assert tw.coefficient(("x",)).sorted_terms() == [("x", F(1)), ("w", F(1))]
    assert check_morphism(tw) == []
    # the twisted target is the target twisted along the pushed-forward point
    expected = twist_algebra(heis_ext(), pushforward(f2c(), a2().basis_element("x")))
    assert tw.target.table(1) == expected.table(1)


def test_comultiply_signs():
    m = mixed()
    assert comultiply(m.space, ("q", "p1")) == {
        (("q",), ("p1",)): F(1),
        (("p1",), ("q",)): F(1),
    }
    # two odd factors anticommute across the tensor
    assert comultiply(m.space, ("p1", "p2")) == {
        (("p1",), ("p2",)): F(1),
        (("p2",), ("p1",)): F(-1),
    }
    assert comultiply(m.space, ("q",)) == {}


def test_extend_to_coalgebra_frozen():
    ext = extend_to_coalgebra(f2c(), ("x", "y"))
    assert ext.terms == {("x", "y"): F(1), ("w",): F(1)}
    # grouplike on single letters
    one = extend_to_coalgebra(f2c(), ("x",))
    assert one.terms == {("x",): F(1)}


def test_enhanced_construction():
    alg = heis_ext()
    e = enh_w(1)
    assert e.alpha == alg.basis_element("w")
    with pytest.raises(PreconditionError):
        EnhancedMorphism(
            alg.basis_element("x") + alg.basis_element("y"),
            InftyMorphism.identity(alg),
            alg,
        )


def test_enhanced_identity_unit():
    e = enh_w(1)
    ident = EnhancedMorphism.identity(heis_ext())
    left = compose_enhanced(ident, e)
    right = compose_enhanced(e, ident)
    assert left.alpha == e.alpha and right.alpha == e.alpha
    assert left.morphism.taylor == e.morphism.taylor
    assert right.morphism.taylor == e.morphism.taylor


def test_enhanced_composition_adds_invisible_twists():
    ee = compose_enhanced(enh_w(1), enh_w(1))
    assert ee.alpha.sorted_terms() == [("w", F(2))]


def test_u_map_frozen():
    e = enh_w(1)
    x_word = WordSum.of_word(heis_ext().space, ("x",))
    # weight bound 4 keeps x (weight 1) and x.w (weight 3)
    got = u_map(e, x_word, 4)
    assert got.terms == {("x",): F(1), ("x", "w"): F(1)}
    assert u_map(e, None, 3).terms == {(): F(1), ("w",): F(1)}


def test_u_map_composition_needs_common_bound():
    # u of a composite equals the two-step evaluation at a shared bound
    f = EnhancedMorphism.plain(incl())
    g = enh_w(1)
    gf = compose_enhanced(g, f)
    bound = max(f.source.nilpotency, g.target_base.nilpotency) + 2
    start = WordSum.of_word(a2().space, ("x",))
    direct = u_map(gf, start, bound)
    staged = u_map(g, u_map(f, start, bound), bound)
    assert direct.terms == staged.terms


def test_scale_contr_linear():
    f = scale_contr(3)
    e = contractible().basis_element("e")
    assert f.linear_part(e) == e * 3
    assert check_morphism(f) == []


def stairway_extension(f, word):
    """Oracle: the stairway-shuffle sum over every ordered composition."""

    def compositions(n):
        if n == 0:
            yield ()
        for first in range(1, n + 1):
            for rest in compositions(n - first):
                yield (first,) + rest

    src, tgt = f.source.space, f.target.space
    degs = [src.degree(x) for x in word]
    out = WordSum.zero(tgt)
    for comp in compositions(len(word)):
        for sigma in stairway_shuffles(*comp):
            product = WordSum.unit(tgt)
            off = 0
            for size in comp:
                block = [word[i] for i in sigma[off : off + size]]
                product = product * WordSum.of_element(f.coefficient(block))
                off += size
            out += product.scale(koszul_sign(sigma, degs))
    return out


def odd_morphism() -> InftyMorphism:
    """Identity plus Taylor coefficients on words of odd symbols, so that
    blocks interleave odd factors and the Koszul signs matter."""
    space = GradedSpace(
        [("p", -1, 1), ("x", 0, 1), ("q", -1, 1), ("r", -1, 2)]
        + [("c", -2, 2), ("c3", -2, 3), ("e", -3, 4), ("d", -1, 2)]
    )
    alg = SLAlgebra(space, {}, 7, name="odd")
    taylor = {1: {(n,): Element.basis(space, n) for n in space.symbols()}}
    taylor[2] = {
        ("p", "q"): Element(space, {"c": 1}),
        ("p", "r"): Element(space, {"c3": 2}),
        ("q", "r"): Element(space, {"c3": 3}),
        ("x", "q"): Element(space, {"d": 5}),
    }
    taylor[3] = {("p", "x", "q"): Element(space, {"c3": 7}), ("p", "q", "r"): Element(space, {"e": -1})}
    return InftyMorphism(alg, alg, taylor, name="odd")


@pytest.mark.parametrize("which", ["chain", "odd"])
def test_extend_to_coalgebra_bounded_is_truncated(which):
    from test_higher_arity import chain, scaled_morphism

    f = scaled_morphism(chain()) if which == "chain" else odd_morphism()
    syms = f.source.space.symbols()
    rng = random.Random(5)
    words = [w for m in (1, 2, 3, 4) for w in iter_words(f.source.space, m, max_weight=7)]
    # non-canonical orders, repeated odd symbols and heavy words too
    words += [tuple(rng.choice(syms) for _ in range(rng.randint(1, 5))) for _ in range(40)]
    for word in words:
        full = extend_to_coalgebra(f, word)
        assert full == stairway_extension(f, word), word
        for bound in range(1, 9):
            assert extend_to_coalgebra(f, word, bound) == full.truncate(bound), (word, bound)
    ws = WordSum.of_word(f.source.space, syms[2::-1]) + WordSum.of_word(f.source.space, syms[:2] * 2)
    assert extend_to_coalgebra(f, ws, 3) == extend_to_coalgebra(f, ws).truncate(3)


def test_extend_to_coalgebra_odd_signs_frozen():
    f = odd_morphism()
    # {p}{q}{r}, {p q}{r}, {p r}{q} (r passes q: sign -1), {p}{q r}, {p q r}
    assert extend_to_coalgebra(f, ("p", "q", "r")).terms == {
        ("p", "q", "r"): F(1),
        ("r", "c"): F(1),
        ("q", "c3"): F(-2),
        ("p", "c3"): F(3),
        ("e",): F(-1),
    }


def test_compose_identity_looks_up_singleton_blocks_only(monkeypatch):
    n = 8
    space = GradedSpace([("x1", 0, 1), ("x2", 0, 1)] + [(f"z{k}", 1, k) for k in range(2, n)])
    brackets = {
        k: {("x1",) * k: Element.basis(space, f"z{k}"), ("x2",) * k: -Element.basis(space, f"z{k}")}
        for k in range(2, n)
    }
    alg = SLAlgebra(space, brackets, n)
    outer, inner = InftyMorphism.identity(alg), InftyMorphism.identity(alg)
    looked = []

    class Recording(dict):
        def get(self, key, default=None):
            looked.append(key)
            return super().get(key, default)

    monkeypatch.setattr(inner, "taylor", {1: Recording(inner.taylor[1])})
    composite = compose_infty(outer, inner)
    assert composite.taylor == outer.taylor
    scanned = [w for m in range(1, n) for w in iter_words(space, m, max_weight=n)]
    # one lookup per factor: only the all-singleton partition of each word
    assert all(len(block) == 1 for block in looked)
    assert len(looked) == sum(len(w) for w in scanned)
