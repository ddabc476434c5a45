"""Koszul signs, shuffles, canonical words, and word sums."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slmc.caps import Caps, get_caps
from slmc.errors import InputError, ResourceCapError
from slmc.graded import (
    Element,
    GradedSpace,
    WordSum,
    canonical_word,
    canonicalize,
    compose_perm,
    exp_element,
    iter_words,
    koszul_sign,
    shuffles,
    stairway_shuffles,
    word_degree,
    word_weight,
)

SPACE = GradedSpace([("x", 0, 1), ("p", -1, 1), ("q", -1, 1), ("z", 1, 2)])


def bubble_sign(sigma, degrees):
    """Independent oracle: bubble-sort the permuted list, counting odd swaps."""
    perm = list(sigma)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(perm) - 1):
            if perm[i] > perm[i + 1]:
                if degrees[perm[i]] % 2 and degrees[perm[i + 1]] % 2:
                    sign = -sign
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
                changed = True
    return sign


def test_koszul_sign_frozen_example():
    # permuted word is (w2, w0, w1); the only odd-odd inversion pairs involve
    # degree products 0*1, so nothing flips.
    assert koszul_sign((2, 0, 1), (1, 1, 0)) == 1
    # two odd factors swapped
    assert koszul_sign((1, 0), (1, 1)) == -1
    assert koszul_sign((1, 0), (1, 2)) == 1


def test_koszul_sign_matches_bubble_oracle():
    for m in range(1, 6):
        for sigma in itertools.permutations(range(m)):
            for degrees in itertools.product((0, 1), repeat=m):
                assert koszul_sign(sigma, degrees) == bubble_sign(sigma, degrees)


def test_koszul_sign_cocycle_exhaustive():
    for m in range(1, 5):
        perms = list(itertools.permutations(range(m)))
        for degrees in itertools.product((0, 1, 2, -1), repeat=m):
            for sigma in perms:
                d_sigma = tuple(degrees[sigma[i]] for i in range(m))
                for tau in perms:
                    lhs = koszul_sign(compose_perm(sigma, tau), degrees)
                    rhs = koszul_sign(tau, d_sigma) * koszul_sign(sigma, degrees)
                    assert lhs == rhs


def test_koszul_sign_rejects_non_permutations():
    with pytest.raises(InputError):
        koszul_sign((0, 0), (1, 1))
    with pytest.raises(InputError):
        koszul_sign((0, 1), (1,))


def test_shuffles_counts_and_order():
    for p in range(0, 5):
        for q in range(0, 5):
            out = shuffles(p, q)
            assert len(out) == comb(p + q, p)
            assert out == sorted(out)
            assert len(set(out)) == len(out)
            for sigma in out:
                # increasing on each block of the domain
                assert list(sigma[:p]) == sorted(sigma[:p])
                assert list(sigma[p:]) == sorted(sigma[p:])


def test_shuffles_three_blocks():
    out = shuffles(1, 1, 2)
    assert len(out) == comb(4, 1) * comb(3, 1)


def test_shuffle_cap():
    cap = get_caps().word
    with pytest.raises(ResourceCapError):
        shuffles(cap, 1)


def test_stairway_shuffles_frozen():
    assert stairway_shuffles(1, 2) == [(0, 1, 2)]
    # block decompositions of 3 positions into blocks of sizes (1, 2):
    # {0}{12}, {1}{02}, {2}{01} but the leading entries must increase,
    # so with sizes (1, 2) only 0 can lead the first block.
    assert stairway_shuffles(1, 1, 1) == [(0, 1, 2)]
    two = stairway_shuffles(1, 1)
    assert two == [(0, 1)]


def test_stairway_counts_partitions():
    # stairways with all blocks of size 1 collapse to the identity; mixed
    # sizes count set partitions into ordered-content blocks.
    for sizes in [(2, 2), (1, 3), (2, 1, 1)]:
        out = stairway_shuffles(*sizes)
        seen = set()
        offsets = []
        off = 0
        for p in sizes:
            offsets.append((off, off + p))
            off += p
        for sigma in out:
            blocks = frozenset(tuple(sigma[a:b]) for a, b in offsets)
            assert blocks not in seen
            seen.add(blocks)


def test_canonical_word_frozen():
    assert canonical_word(SPACE, ("x", "x")) == (("x", "x"), 1)
    assert canonical_word(SPACE, ("p", "x")) == (("x", "p"), 1)
    assert canonical_word(SPACE, ("q", "p")) == (("p", "q"), -1)
    assert canonical_word(SPACE, ("p", "p")) == (("p", "p"), 0)
    assert canonicalize(SPACE, ("z", "x")).factors == ("x", "z")


def insertion_oracle(space, factors):
    """Sort by index with explicit adjacent swaps, tracking the Koszul sign."""
    items = [(space.index(f), space.degree(f), f) for f in factors]
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1][0] > items[j][0]:
            if items[j - 1][1] % 2 and items[j][1] % 2:
                sign = -sign
            items[j - 1], items[j] = items[j], items[j - 1]
            j -= 1
    word = tuple(f for _, _, f in items)
    for a, b in zip(word, word[1:]):
        if a == b and space.degree(a) % 2:
            return word, 0
    return word, sign


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["x", "p", "q", "z"]), min_size=1, max_size=6))
def test_canonical_word_vs_insertion_oracle(factors):
    assert canonical_word(SPACE, tuple(factors)) == insertion_oracle(SPACE, factors)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(["x", "p", "q", "z"]), min_size=1, max_size=5),
    st.randoms(use_true_random=False),
)
def test_canonical_word_permutation_invariant(factors, rng):
    """Permuting the input multiplies the sign by the permutation's Koszul sign."""
    word, sign = canonical_word(SPACE, tuple(factors))
    sigma = list(range(len(factors)))
    rng.shuffle(sigma)
    permuted = tuple(factors[sigma[i]] for i in range(len(factors)))
    degrees = [SPACE.degree(f) for f in factors]
    pword, psign = canonical_word(SPACE, permuted)
    assert pword == word
    if sign == 0:
        assert psign == 0
    else:
        assert psign == koszul_sign(sigma, degrees) * sign


def test_iter_words_drops_vanishing():
    words = list(iter_words(SPACE, 2))
    assert ("p", "p") not in words
    assert ("q", "q") not in words
    assert ("p", "q") in words
    assert all(canonical_word(SPACE, w) == (w, 1) for w in words)


def test_iter_words_weight_filter():
    words = list(iter_words(SPACE, 2, max_weight=3))
    assert all(word_weight(SPACE, w) < 3 for w in words)
    assert ("x", "z") not in words


def test_word_cap():
    with pytest.raises(ResourceCapError):
        list(iter_words(SPACE, get_caps().word + 1))


def test_graded_space_lookup_errors():
    with pytest.raises(InputError):
        SPACE.index("nope")
    with pytest.raises(InputError):
        GradedSpace([("a", 0, 1), ("a", 1, 1)])
    with pytest.raises(InputError):
        GradedSpace([("a", 0, 0)])


def test_element_arithmetic():
    e = Element(SPACE, {"x": Fraction(1), "z": Fraction(2)})
    f = Element.basis(SPACE, "x")
    assert (e - f).sorted_terms() == [("z", Fraction(2))]
    assert (e * 2).sorted_terms() == [("x", Fraction(2)), ("z", Fraction(4))]
    assert (e + (-e)).is_zero()
    assert Element.zero(SPACE).degree() is None
    assert f.degree() == 0 and f.weight() == 1
    with pytest.raises(InputError):
        e.degree()
    with pytest.raises(InputError):
        Element(SPACE, {"nope": Fraction(1)})


def test_word_degree_weight():
    assert word_degree(SPACE, ("x", "z")) == 1
    assert word_weight(SPACE, ("x", "z")) == 3


def test_exp_element_coefficients():
    x = Element.basis(SPACE, "x")
    w = exp_element(x, 3)
    assert w.terms == {
        (): Fraction(1),
        ("x",): Fraction(1),
        ("x", "x"): Fraction(1, 2),
    }
    reduced = exp_element(x, 3, include_unit=False)
    assert () not in reduced.terms
    assert reduced.terms[("x", "x")] == Fraction(1, 2)


def test_exp_element_mixed_weights():
    a = Element(SPACE, {"x": Fraction(1), "z": Fraction(1)})
    w = exp_element(a, 4)
    # z has weight 2, so x.z survives the weight-4 bound and z.z does not.
    assert w.terms[("x", "z")] == Fraction(1)
    assert ("z", "z") not in w.terms
    assert w.terms[("x", "x", "x")] == Fraction(1, 6)


def test_wordsum_linear_part():
    x = Element.basis(SPACE, "x")
    w = exp_element(x, 3)
    assert w.linear_part() == x
    assert WordSum.zero(SPACE).is_zero()
    assert WordSum.unit(SPACE).terms == {(): Fraction(1)}


def filtered_words(space, length, max_weight=None):
    """Oracle: canonicalize every combination, then drop zero and heavy words."""
    for combo in itertools.combinations_with_replacement(space.symbols(), length):
        word, sign = canonical_word(space, combo)
        if sign and (max_weight is None or word_weight(space, word) < max_weight):
            yield word


def test_iter_words_matches_filtered_enumeration():
    rng = random.Random(7)
    for trial in range(60):
        basis = [(f"s{i}", rng.randint(-2, 2), rng.randint(1, 3)) for i in range(rng.randint(0, 6))]
        space = GradedSpace(basis)
        for length in range(0, 5):
            for max_weight in (None, 1, 2, 3, 4, 6):
                got = list(iter_words(space, length, max_weight))
                assert got == list(filtered_words(space, length, max_weight)), (basis, length, max_weight)


def test_iter_words_builds_no_word_it_drops(monkeypatch):
    import slmc.graded as graded
    from slmc.algebra import direct_sum
    from slmc.fixtures import heis_ext

    space = functools.reduce(direct_sum, [heis_ext()] * 6).space
    calls = []
    real = graded.canonical_word
    monkeypatch.setattr(graded, "canonical_word", lambda *a: calls.append(a) or real(*a))
    # weights are >= 1 and N = 3, so no word of length 4 survives
    assert list(iter_words(space, 4, max_weight=3)) == []
    assert calls == []


def compositions(n):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def test_stairway_shuffles_are_filtered_shuffles():
    bell = [1, 1, 2, 5, 15, 52, 203]
    for n in range(0, 7):
        total = 0
        for comp in compositions(n):
            offsets = list(itertools.accumulate((0,) + comp[:-1]))
            filtered = [
                sigma
                for sigma in shuffles(*comp)
                if all(sigma[a] < sigma[b] for a, b in zip(offsets, offsets[1:]))
            ]
            assert stairway_shuffles(*comp) == filtered
            total += len(filtered)
        assert total == bell[n]
    # empty blocks are skipped, as in the filtered shuffles
    assert stairway_shuffles(2, 0, 1) == [(0, 1, 2), (0, 2, 1)]


def test_caps_follow_environment_changes(monkeypatch):
    monkeypatch.setenv("SLMC_CAPS", "word=5")
    assert get_caps().word == 5
    assert get_caps() is get_caps()
    monkeypatch.setenv("SLMC_CAPS", "word=7,poly=3")
    assert (get_caps().word, get_caps().poly) == (7, 3)
    monkeypatch.setenv("SLMC_CAPS", "word=x")
    for _ in range(2):
        with pytest.raises(InputError):
            get_caps()
    monkeypatch.delenv("SLMC_CAPS")
    assert get_caps() == Caps()
