"""Series with genuine higher brackets and Taylor coefficients (arity >= 3).

The chain algebra has {x1^k} = z_k and {x2^k} = -z_k for k = 2..5 at N = 6,
and the morphism has Taylor coefficients of arity 2 to 4.  Each result is
compared with a naive expansion over ordered tuples of basis terms, written
here from table lookups and `canonical_word` only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

from slmc.algebra import (
    SLAlgebra,
    check_relations,
    curvature,
    eval_twisted_bracket,
    is_mc,
)
from slmc.graded import Element, GradedSpace, canonical_word
from slmc.morphism import InftyMorphism, check_morphism, pushforward, twist_morphism

N = 6


def chain(extra=None) -> SLAlgebra:
    space = GradedSpace(
        [("x1", 0, 1), ("x2", 0, 1)]
        + [(f"z{k}", 1, k) for k in range(2, N)]
        + [("u", 0, 5), ("h", 2, 5)]
    )
    brackets = {
        k: {
            ("x1",) * k: Element.basis(space, f"z{k}"),
            ("x2",) * k: -Element.basis(space, f"z{k}"),
        }
        for k in range(2, N)
    }
    for word, value in (extra or {}).items():
        brackets[len(word)][word] = Element(space, value)
    return SLAlgebra(space, brackets, N, name="chain")


def scaled_morphism(alg: SLAlgebra) -> InftyMorphism:
    """x -> 2x, z_k -> 2^k z_k, u -> 3u, h -> h, plus (arity + index) u on
    every x-word of arity 2..4; the higher terms land in the central u."""
    space = alg.space
    linear = {"x1": 2, "x2": 2, "u": 3, "h": 1, **{f"z{k}": 2**k for k in range(2, N)}}
    taylor = {1: {(n,): Element(space, {n: c}) for n, c in linear.items()}}
    for m in range(2, 5):
        for i, word in enumerate(combinations_with_replacement(("x1", "x2"), m)):
            taylor.setdefault(m, {})[word] = Element(space, {"u": m + i})
    return InftyMorphism(alg, alg, taylor, name="f")


# -- the naive oracle ----------------------------------------------------------


def naive_apply(tables, space, args) -> dict[str, Fraction]:
    """tables(a_1, ..., a_m) summed over ordered tuples of basis terms."""
    out: dict[str, Fraction] = {}
    for combo in product(*[list(a.terms.items()) for a in args]):
        word, sign = canonical_word(space, [n for n, _ in combo])
        value = tables.get(len(word), {}).get(word)
        if value is None or sign == 0:
            continue
        coeff = sign * math.prod(c for _, c in combo)
        for n, v in value.terms.items():
            out[n] = out.get(n, 0) + coeff * v
    return {n: c for n, c in out.items() if c}


def naive_exp_series(tables, space, a, args, k_min) -> dict[str, Fraction]:
    """sum_{k >= k_min} (1/k!) tables(a^k, args) up to arity N - 1 + len(args)."""
    out: dict[str, Fraction] = {}
    for k in range(k_min, N):
        for n, c in naive_apply(tables, space, [a] * k + list(args)).items():
            out[n] = out.get(n, 0) + c / math.factorial(k)
    return {n: c for n, c in out.items() if c}


def canonical_words(space, max_len):
    weight = {n: w for n, _, w in space.basis}
    for m in range(1, max_len + 1):
        for combo in combinations_with_replacement(space.symbols(), m):
            word, sign = canonical_word(space, combo)
            if sign and sum(weight[f] for f in word) < N:
                yield word


def naive_relations(alg: SLAlgebra) -> dict[tuple[int, tuple[str, ...]], dict[str, Fraction]]:
    """Jacobi residuals as sums over all permutations, each block split
    weighted by 1/(k!(m-k)!) in place of the shuffles."""
    space = alg.space
    out = {}
    for word in canonical_words(space, N - 1):
        m = len(word)
        residual: dict[str, Fraction] = {}
        for k in range(1, m + 1):
            weight = Fraction(1, math.factorial(k) * math.factorial(m - k))
            for perm in permutations(range(m)):
                factors = [word[i] for i in perm]
                eps = canonical_word(space, factors)[1]
                head = [Element.basis(space, f) for f in factors[:k]]
                inner = naive_apply(alg.brackets, space, head)
                if not inner:
                    continue
                rest = [Element.basis(space, f) for f in factors[k:]]
                outer = naive_apply(alg.brackets, space, [Element(space, inner)] + rest)
                for n, c in outer.items():
                    residual[n] = residual.get(n, 0) + weight * eps * c
        residual = {n: c for n, c in residual.items() if c}
        if residual:
            out[(m, word)] = residual
    return out


# -- the comparisons -------------------------------------------------------------


def test_curvature_matches_naive_expansion():
    alg = chain()
    a = Element(alg.space, {"x1": 2, "x2": Fraction(-1, 3), "u": 5})
    assert curvature(alg, a).terms == naive_exp_series(alg.brackets, alg.space, a, [], 1)
    assert not curvature(alg, a).is_zero()


def test_twisted_bracket_matches_naive_expansion():
    alg = chain()
    a = Element(alg.space, {"x1": 3, "x2": 1})
    args = [Element(alg.space, {"x1": 1, "x2": -1}), Element(alg.space, {"x1": 2, "x2": 5})]
    got = eval_twisted_bracket(alg, a, args)
    assert got.terms == naive_exp_series(alg.brackets, alg.space, a, args, 0)
    assert set(got.terms) == {"z2", "z3", "z4", "z5"}


def test_relations_of_mutated_table_match_naive_expansion():
    assert check_relations(chain(), max_arity=N - 1) == []
    mutant = chain({("x1", "x1", "z2"): {"h": 1}})
    got = {(v.arity, v.word): v.residual.terms for v in check_relations(mutant, max_arity=N - 1)}
    expected = naive_relations(mutant)
    assert got == expected
    assert expected[(4, ("x1",) * 4)] == {"h": 6}


def test_pushforward_matches_naive_expansion():
    alg = chain()
    f = scaled_morphism(alg)
    assert check_morphism(f) == []
    a = Element(alg.space, {"x1": 2, "x2": Fraction(1, 2), "u": -1})
    got = pushforward(f, a)
    assert got.terms == naive_exp_series(f.taylor, alg.space, a, [], 1)
    assert got.terms["u"] != 3 * a.terms["u"]  # the arity 2..4 coefficients contribute


def naive_twist(tables, space, a) -> dict[int, dict[tuple[str, ...], dict[str, Fraction]]]:
    out: dict[int, dict[tuple[str, ...], dict[str, Fraction]]] = {}
    for word in canonical_words(space, N - 1):
        args = [Element.basis(space, s) for s in word]
        value = naive_exp_series(tables, space, a, args, 0)
        if value:
            out.setdefault(len(word), {})[word] = value
    return out


def as_terms(tables) -> dict[int, dict[tuple[str, ...], dict[str, Fraction]]]:
    return {m: {w: v.terms for w, v in t.items()} for m, t in tables.items()}


def test_twist_morphism_matches_naive_expansion():
    alg = chain()
    f = scaled_morphism(alg)
    a0 = Element(alg.space, {"x1": 2, "x2": 2, "u": 1})
    assert is_mc(alg, a0)
    tw = twist_morphism(f, a0)
    assert as_terms(tw.taylor) == naive_twist(f.taylor, alg.space, a0)
    assert max(tw.taylor) == 4
    # the source twist has a nonzero arity-5 bracket
    assert as_terms(tw.source.brackets) == naive_twist(alg.brackets, alg.space, a0)
    assert max(tw.source.brackets) == 5
