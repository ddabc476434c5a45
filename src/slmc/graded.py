"""Exact graded-linear kernel over the rationals.

This module provides the pieces everything else is built from: a finite
graded basis with weights (`GradedSpace`), sparse rational vectors
(`Element`), Koszul sign combinatorics for permutations and (stairway)
shuffles, canonical representatives of symmetric words, finite rational
combinations of such words (`WordSum`) with their weight-bounded product,
and `contract`, the one way a bracket or Taylor table acts on a word sum.

Conventions, fixed once here:

* Degrees are arbitrary integers; weights are integers >= 1.  The two
  gradings are independent.
* A permutation is a tuple of 0-based images ``(sigma(0), ..., sigma(m-1))``.
* The Koszul sign of ``sigma`` on degrees ``d`` is the product over
  inversions ``i < j`` with ``sigma(i) > sigma(j)`` of
  ``(-1)^(d[sigma(i)] * d[sigma(j)])`` -- the sign picked up when the word
  ``v_0 ... v_{m-1}`` is reordered to ``v_{sigma(0)} ... v_{sigma(m-1)}``.
* Symmetric words are stored sorted by basis position.  A word containing a
  repeated factor of odd degree is zero (characteristic zero), encoded by
  canonical sign 0.

All values are immutable; all arithmetic is `fractions.Fraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

from .caps import get_caps
from .errors import InputError, ResourceCapError

Word = tuple[str, ...]

_RESERVED = set("[]#:=@")


def as_fraction(value: Fraction | int) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InputError(f"expected an exact rational, got {value!r}")


def _check_symbol(name: str) -> None:
    if not name or any(c.isspace() for c in name) or set(name) & _RESERVED:
        raise InputError(f"invalid basis symbol {name!r}")
    try:
        Fraction(name)
    except ValueError:
        return
    raise InputError(f"basis symbol {name!r} would parse as a rational")


class GradedSpace:
    """An ordered finite basis; every symbol carries a degree and a weight >= 1."""

    __slots__ = ("basis", "_pos")

    def __init__(self, basis: Iterable[tuple[str, int, int]]):
        rows = tuple((str(n), int(d), int(w)) for n, d, w in basis)
        pos: dict[str, int] = {}
        for i, (name, _deg, wt) in enumerate(rows):
            _check_symbol(name)
            if name in pos:
                raise InputError(f"duplicate basis symbol {name!r}")
            if wt < 1:
                raise InputError(f"basis symbol {name!r} has weight {wt}; weights must be >= 1")
            pos[name] = i
        self.basis = rows
        self._pos = pos

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedSpace) and self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def __len__(self) -> int:
        return len(self.basis)

    def __contains__(self, name: str) -> bool:
        return name in self._pos

    def __repr__(self) -> str:
        return f"GradedSpace({list(self.basis)!r})"

    def symbols(self) -> tuple[str, ...]:
        return tuple(row[0] for row in self.basis)

    def index(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise InputError(f"unknown basis symbol {name!r}") from None

    def degree(self, name: str) -> int:
        return self.basis[self.index(name)][1]

    def weight(self, name: str) -> int:
        return self.basis[self.index(name)][2]


class Element:
    """A finite rational combination of basis symbols of one `GradedSpace`."""

    __slots__ = ("space", "terms")

    def __init__(self, space: GradedSpace, terms: Mapping[str, Fraction | int] | None = None):
        clean: dict[str, Fraction] = {}
        if terms:
            for name, coeff in terms.items():
                if name not in space:
                    raise InputError(f"unknown basis symbol {name!r}")
                c = as_fraction(coeff)
                if c:
                    clean[name] = c
        self.space = space
        self.terms = clean

    @classmethod
    def zero(cls, space: GradedSpace) -> Element:
        return cls(space)

    @classmethod
    def basis(cls, space: GradedSpace, name: str) -> Element:
        return cls(space, {name: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.space == other.space
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.terms.items()))))

    def __add__(self, other: Element) -> Element:
        if not isinstance(other, Element):
            return NotImplemented
        if self.space != other.space:
            raise InputError("cannot add elements of different spaces")
        terms = dict(self.terms)
        for name, c in other.terms.items():
            terms[name] = terms.get(name, Fraction(0)) + c
        return Element(self.space, terms)

    def __sub__(self, other: Element) -> Element:
        return self + (-other)

    def __neg__(self) -> Element:
        return Element(self.space, {n: -c for n, c in self.terms.items()})

    def __mul__(self, scalar) -> Element:
        c = as_fraction(scalar)
        return Element(self.space, {n: v * c for n, v in self.terms.items()})

    __rmul__ = __mul__

    def degree(self) -> int | None:
        """The common degree of all terms; None for zero, error if mixed."""
        if not self.terms:
            return None
        degs = {self.space.degree(n) for n in self.terms}
        if len(degs) > 1:
            raise InputError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def weight(self):
        """Minimum weight over the terms; +infinity for the zero element."""
        if not self.terms:
            return math.inf
        return min(self.space.weight(n) for n in self.terms)

    def sorted_terms(self) -> list[tuple[str, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: self.space.index(kv[0]))

    def __repr__(self) -> str:
        if not self.terms:
            return "<0>"
        return "<" + " + ".join(f"{c} {n}" for n, c in self.sorted_terms()) + ">"


# --- permutation combinatorics ------------------------------------------------


def koszul_sign(sigma: Sequence[int], degrees: Sequence[int]) -> int:
    """Sign of reordering a word with the given degrees by `sigma`.

    `sigma` is a 0-based tuple of images; the result is the product over
    inversions i<j of (-1)^(degrees[sigma(i)] * degrees[sigma(j)]).
    """
    m = len(sigma)
    if len(degrees) != m:
        raise InputError("permutation and degree list have different lengths")
    if sorted(sigma) != list(range(m)):
        raise InputError(f"not a permutation of 0..{m - 1}: {tuple(sigma)}")
    sign = 1
    for i in range(m):
        di = degrees[sigma[i]]
        if di % 2 == 0:
            continue
        for j in range(i + 1, m):
            if sigma[i] > sigma[j] and degrees[sigma[j]] % 2:
                sign = -sign
    return sign


def compose_perm(sigma: Sequence[int], tau: Sequence[int]) -> tuple[int, ...]:
    """(sigma o tau)(i) = sigma(tau(i))."""
    return tuple(sigma[t] for t in tau)


def shuffles(*block_sizes: int) -> list[tuple[int, ...]]:
    """All permutations increasing on each consecutive block of the domain.

    Returned as 0-based image tuples in lexicographic order.  A
    (p, q)-shuffle in the classical sense is `shuffles(p, q)`.
    """
    return _block_shuffles(block_sizes, stairway=False)


def stairway_shuffles(*block_sizes: int) -> list[tuple[int, ...]]:
    """Shuffles whose nonempty block-leading images increase left to right.

    These index unordered block decompositions exactly once: for every set
    partition of the positions into increasing blocks there is a unique
    stairway representative.  They are generated directly, each nonempty
    block taking the smallest position left plus a combination of the rest,
    so the result is the stairway subsequence of `shuffles`, in its order.
    """
    return _block_shuffles(block_sizes, stairway=True)


def _block_shuffles(block_sizes: Sequence[int], stairway: bool) -> list[tuple[int, ...]]:
    sizes = tuple(int(p) for p in block_sizes)
    if any(p < 0 for p in sizes):
        raise InputError("shuffle block sizes must be >= 0")
    n = sum(sizes)
    cap = get_caps().word
    if n > cap:
        raise ResourceCapError(f"shuffle size {n} exceeds word cap {cap}")
    out: list[tuple[int, ...]] = []

    def rec(remaining: tuple[int, ...], b: int, acc: tuple[int, ...]) -> None:
        if b == len(sizes):
            out.append(acc)
            return
        size = sizes[b]
        if stairway and size:
            # a stairway block leads with the smallest position left
            acc, remaining, size = acc + remaining[:1], remaining[1:], size - 1
        for chosen in combinations(remaining, size):
            taken = set(chosen)
            rec(tuple(v for v in remaining if v not in taken), b + 1, acc + chosen)

    rec(tuple(range(n)), 0, ())
    return out


# --- symmetric words ----------------------------------------------------------


@dataclass(frozen=True)
class SymWord:
    """A canonical symmetric word: factors sorted by basis position.

    `sign` is the Koszul sign relating the input ordering to the canonical
    one; it is 0 when the word vanishes (repeated odd-degree factor).
    """

    factors: Word
    sign: int


def canonical_word(space: GradedSpace, factors: Sequence[str]) -> tuple[Word, int]:
    """Sort `factors` by basis position, returning (word, Koszul sign).

    Sign 0 means the word is zero in the symmetric algebra.
    """
    idx = [space.index(f) for f in factors]
    degs = [space.basis[i][1] for i in idx]
    order = list(range(len(factors)))
    sign = 1
    # insertion sort, stable; each adjacent swap contributes a Koszul factor
    for i in range(1, len(order)):
        j = i
        while j > 0 and idx[order[j - 1]] > idx[order[j]]:
            if degs[order[j - 1]] % 2 and degs[order[j]] % 2:
                sign = -sign
            order[j - 1], order[j] = order[j], order[j - 1]
            j -= 1
    word = tuple(factors[k] for k in order)
    for a, b in zip(word, word[1:]):
        if a == b and space.degree(a) % 2:
            return word, 0
    return word, sign


def canonicalize(space: GradedSpace, factors: Sequence[str]) -> SymWord:
    word, sign = canonical_word(space, factors)
    return SymWord(word, sign)


def word_degree(space: GradedSpace, word: Sequence[str]) -> int:
    return sum(space.degree(f) for f in word)


def word_weight(space: GradedSpace, word: Sequence[str]) -> int:
    return sum(space.weight(f) for f in word)


def iter_words(space: GradedSpace, length: int, max_weight: int | None = None) -> Iterator[Word]:
    """Canonical nonzero words of the given length, weight < max_weight if set.

    Words come in lexicographic order of basis positions.  They are built
    directly as nondecreasing position sequences: an odd-degree symbol is
    never repeated, and a branch stops as soon as the weight left cannot hold
    the symbols still to place, so no word is canonicalized or dropped.
    """
    if length > get_caps().word:
        raise ResourceCapError(f"word length {length} exceeds cap {get_caps().word}")
    rows = space.basis
    n = len(rows)
    # least weight of a symbol at basis position >= i
    floor = [math.inf] * (n + 1)
    for i in range(n - 1, -1, -1):
        floor[i] = min(rows[i][2], floor[i + 1])

    def grow(prefix: Word, start: int, room, left: int) -> Iterator[Word]:
        for i in range(start, n):
            name, deg, wt = rows[i]
            nxt = i + 1 if deg % 2 else i
            if left == 1:
                if wt < room:
                    yield prefix + (name,)
            elif wt + (left - 1) * floor[nxt] < room:
                yield from grow(prefix + (name,), nxt, room - wt, left - 1)

    room = math.inf if max_weight is None else max_weight
    if length > 0:
        yield from grow((), 0, room, length)
    elif length == 0 and room > 0:
        yield ()


class WordSum:
    """A finite rational combination of canonical symmetric words.

    The empty word () stands for the unit of the full symmetric coalgebra;
    reduced computations simply never produce it.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: GradedSpace, terms: Mapping[Word, Fraction | int] | None = None):
        clean: dict[Word, Fraction] = {}
        if terms:
            for word, coeff in terms.items():
                c = as_fraction(coeff)
                if c:
                    clean[tuple(word)] = c
        self.space = space
        self.terms = clean

    @classmethod
    def zero(cls, space: GradedSpace) -> WordSum:
        return cls(space)

    @classmethod
    def unit(cls, space: GradedSpace) -> WordSum:
        return cls(space, {(): Fraction(1)})

    @classmethod
    def of_element(cls, e: Element) -> WordSum:
        return cls(e.space, {(n,): c for n, c in e.terms.items()})

    @classmethod
    def of_word(cls, space: GradedSpace, word: Sequence[str], coeff: Fraction | int = 1) -> WordSum:
        w, s = canonical_word(space, word)
        if s == 0:
            return cls.zero(space)
        return cls(space, {w: as_fraction(coeff) * s})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WordSum)
            and self.space == other.space
            and self.terms == other.terms
        )

    def __add__(self, other: WordSum) -> WordSum:
        if self.space != other.space:
            raise InputError("cannot add word sums over different spaces")
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, Fraction(0)) + c
        return WordSum(self.space, terms)

    def __sub__(self, other: WordSum) -> WordSum:
        return self + other.scale(-1)

    def scale(self, scalar) -> WordSum:
        c = as_fraction(scalar)
        return WordSum(self.space, {w: v * c for w, v in self.terms.items()})

    def __mul__(self, other: WordSum) -> WordSum:
        if not isinstance(other, WordSum):
            return NotImplemented
        return self.product(other)

    def product(self, other: WordSum, weight_bound: int | None = None) -> WordSum:
        """Product in the symmetric algebra (concatenate and canonicalize).

        With a `weight_bound`, words of weight >= the bound are dropped
        before they are canonicalized (the filtration-level quotient).
        """
        if self.space != other.space:
            raise InputError("cannot multiply word sums over different spaces")
        space = self.space
        if weight_bound is None:
            bound, weigh = math.inf, lambda w: 0
        else:
            bound, weigh = weight_bound, lambda w: word_weight(space, w)
        right = [(w, c, weigh(w)) for w, c in other.terms.items()]
        acc: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            room = bound - weigh(w1)
            for w2, c2, wt2 in right:
                if wt2 >= room:
                    continue
                word, sign = canonical_word(space, w1 + w2)
                if sign == 0:
                    continue
                acc[word] = acc.get(word, Fraction(0)) + c1 * c2 * sign
        return WordSum(space, acc)

    def truncate(self, max_weight) -> WordSum:
        """Drop words of weight >= max_weight (the filtration-level quotient)."""
        return WordSum(
            self.space,
            {w: c for w, c in self.terms.items() if word_weight(self.space, w) < max_weight},
        )

    def linear_part(self) -> Element:
        """The length-1 component as an Element."""
        return Element(self.space, {w[0]: c for w, c in self.terms.items() if len(w) == 1})

    def __repr__(self) -> str:
        if not self.terms:
            return "WordSum<0>"
        bits = [f"{c} {'.'.join(w) if w else '1'}" for w, c in sorted(self.terms.items())]
        return "WordSum<" + " + ".join(bits) + ">"


def exp_element(a: Element, weight_bound: int, include_unit: bool = True) -> WordSum:
    """exp(a) = sum_k a^k / k!, truncated modulo words of weight >= weight_bound.

    `a` must have even total degree in each term for the series to be
    unambiguous; callers use it for degree-0 elements only.
    """
    step = WordSum.of_element(a)
    power = WordSum.unit(a.space)
    result = power if include_unit else WordSum.zero(a.space)
    # weights >= 1, so a^k has weight >= k and vanishes from k = weight_bound on
    for k in range(1, weight_bound):
        power = power.product(step, weight_bound).scale(Fraction(1, k))
        if power.is_zero():
            break
        result += power
    return result


def contract(
    tables: Mapping[int, Mapping[Word, Element]], ws: WordSum, target_space: GradedSpace
) -> Element:
    """sum_u c_u tables[len u][u] over the canonical words u of `ws`.

    A bracket or Taylor table acts on the symmetric coalgebra this way, and
    every bracket and Taylor series of the package is one such contraction:
    of exp(a) for curvature and pushforward, of exp(a).w for twisting, of a
    coderivation or coalgebra image for the relation and morphism checks.
    Words missing from the tables contribute zero.
    """
    acc: dict[str, Fraction] = {}
    for u, c in ws.terms.items():
        value = tables.get(len(u), {}).get(u)
        if value is None:
            continue
        for name, v in value.terms.items():
            acc[name] = acc.get(name, 0) + c * v
    return Element(target_space, acc)


def comultiply(space: GradedSpace, word: Sequence[str]) -> dict[tuple[Word, Word], Fraction]:
    """Reduced comultiplication of a word: signed two-block unshuffles.

    Returns a map (left word, right word) -> coefficient with both parts
    nonempty and canonical.  The word is canonicalized first; the blocks of
    a nonzero canonical word are canonical and nonzero themselves.
    """
    factors, sign = canonical_word(space, word)
    if sign == 0:
        return {}
    n = len(factors)
    degs = [space.degree(x) for x in factors]
    out: dict[tuple[Word, Word], Fraction] = {}
    for k in range(1, n):
        for sigma in shuffles(k, n - k):
            key = (tuple(factors[i] for i in sigma[:k]), tuple(factors[i] for i in sigma[k:]))
            out[key] = out.get(key, Fraction(0)) + sign * koszul_sign(sigma, degs)
    return {k: v for k, v in out.items() if v}
