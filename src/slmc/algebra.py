"""Filtered shifted L-infinity algebras with finite nilpotency.

An `SLAlgebra` is a finite graded basis together with degree +1
graded-symmetric brackets of every arity >= 1 (the arity-1 bracket is the
differential) given by sparse tables on canonical words, plus a nilpotency
order N modelling a complete filtration with F_N = 0.  Weight additivity
(the bracket of a word has weight >= the word's weight) and F_N = 0 force
every table entry on a word of weight >= N to vanish; validation enforces
exactly that, so all series below are finite and exact.

Operations: bracket evaluation, the bar-type coderivation on symmetric
words, the generalized Jacobi relation scan, curvature and Maurer-Cartan
tests, twisting by an MC element, and direct sums.  Every bracket series
here is one `contract` of the bracket tables against a word sum: the
product of the arguments, exp(a) for curvature, exp(a) times the arguments
for twisted brackets, Q(w) for the relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Mapping, Sequence

from .caps import get_caps
from .errors import InputError, PreconditionError, ResourceCapError
from .graded import (
    Element,
    GradedSpace,
    Word,
    WordSum,
    canonical_word,
    comultiply,
    contract,
    exp_element,
    iter_words,
    word_degree,
    word_weight,
)

BracketTables = Mapping[int, Mapping[Word, Element]]


class SLAlgebra:
    """A shifted L-infinity algebra with nilpotency order N (so F_N = 0)."""

    __slots__ = ("space", "brackets", "nilpotency", "name")

    def __init__(
        self,
        space: GradedSpace,
        brackets: BracketTables,
        nilpotency: int,
        name: str | None = None,
        validate: bool = True,
    ):
        self.space = space
        self.nilpotency = int(nilpotency)
        self.name = name
        clean: dict[int, dict[Word, Element]] = {}
        for arity, table in brackets.items():
            m = int(arity)
            if m < 1:
                raise InputError(f"bracket arity must be >= 1, got {m}")
            for word, value in table.items():
                w = tuple(word)
                if value is None or value.is_zero():
                    continue
                clean.setdefault(m, {})[w] = value
        self.brackets = clean
        if validate:
            self._validate()

    def _validate(self) -> None:
        if self.nilpotency < 2:
            raise InputError(f"nilpotency order must be >= 2, got {self.nilpotency}")
        for name, _deg, wt in self.space.basis:
            if wt >= self.nilpotency:
                raise InputError(
                    f"basis symbol {name!r} has weight {wt} >= nilpotency {self.nilpotency}; "
                    f"a nonzero vector of weight >= N contradicts F_N = 0"
                )
        for m, table in self.brackets.items():
            for word, value in table.items():
                if len(word) != m:
                    raise InputError(f"bracket table of arity {m} keyed by word of length {len(word)}")
                cw, sign = canonical_word(self.space, word)
                if cw != word or sign != 1:
                    raise InputError(f"bracket table key {word} is not a canonical word")
                if value.space != self.space:
                    raise InputError(f"bracket value for {word} lives in a different space")
                vd = value.degree()
                wd = word_degree(self.space, word)
                if vd is not None and vd != wd + 1:
                    raise InputError(
                        f"bracket on {word} has degree {vd}, expected {wd + 1}: "
                        f"brackets raise total degree by exactly 1"
                    )
                ww = word_weight(self.space, word)
                if value.weight() < ww:
                    raise InputError(
                        f"bracket on {word} has weight {value.weight()} < {ww}: "
                        f"violates filtration weight additivity"
                    )
                if ww >= self.nilpotency:
                    raise InputError(
                        f"bracket on {word} (weight {ww}) must vanish since F_{self.nilpotency} = 0"
                    )

    def max_arity(self) -> int:
        return max(self.brackets, default=0)

    def table(self, arity: int) -> Mapping[Word, Element]:
        return self.brackets.get(arity, {})

    def bracket_on_word(self, word: Word) -> Element:
        """Table lookup on a canonical word; missing entries are zero."""
        value = self.brackets.get(len(word), {}).get(word)
        return value if value is not None else Element.zero(self.space)

    def differential(self, e: Element) -> Element:
        return eval_bracket(self, [e])

    def zero(self) -> Element:
        return Element.zero(self.space)

    def basis_element(self, name: str) -> Element:
        return Element.basis(self.space, name)

    def element(self, terms: Mapping[str, Fraction | int]) -> Element:
        return Element(self.space, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SLAlgebra)
            and self.space == other.space
            and self.nilpotency == other.nilpotency
            and self.brackets == other.brackets
        )

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"SLAlgebra({label}, dim={len(self.space)}, N={self.nilpotency})"


@dataclass(frozen=True)
class MCElement:
    """A degree-0 element certified to satisfy the Maurer-Cartan equation."""

    algebra: SLAlgebra
    value: Element

    def __post_init__(self):
        witness = curvature(self.algebra, self.value)
        if not witness.is_zero():
            raise PreconditionError(
                f"element is not Maurer-Cartan; curvature = {witness!r}", witness=witness
            )


def mc_value(alpha: MCElement | Element) -> Element:
    return alpha.value if isinstance(alpha, MCElement) else alpha


@dataclass(frozen=True)
class RelationViolation:
    """One failing generalized Jacobi instance: arity, word, nonzero residual."""

    arity: int
    word: Word
    residual: Element

    def describe(self) -> str:
        return f"m={self.arity} word={'.'.join(self.word)} witness={_render_terms(self.residual)}"


def _render_terms(e: Element) -> str:
    if e.is_zero():
        return "0"
    return " + ".join(f"{c} {n}" for n, c in e.sorted_terms())


def eval_bracket(alg: SLAlgebra, args: Sequence[Element]) -> Element:
    """Multilinear evaluation of the arity-len(args) bracket."""
    return contract(alg.brackets, _argument_product(alg, args), alg.space)


def _argument_product(alg: SLAlgebra, args: Sequence[Element]) -> WordSum:
    """The product of the bracket arguments in the symmetric algebra."""
    if not args:
        raise InputError("bracket arity must be >= 1")
    for a in args:
        if a.space != alg.space:
            raise InputError("bracket argument lives in a different space")
    return reduce(WordSum.__mul__, (WordSum.of_element(a) for a in args))


def apply_coderivation(alg: SLAlgebra, word: Sequence[str] | WordSum) -> WordSum:
    """The coderivation induced by all brackets, on a word or word sum.

    Q(v_1 ... v_n) = sum_{k=1..n} sum_{sigma in Sh(k, n-k)} eps(sigma)
    {v_sigma(1..k)} . v_sigma(k+1) ... v_sigma(n).  The empty word maps to 0.
    The k = n term is the whole word; the others are its comultiplication.
    """
    if isinstance(word, WordSum):
        total = WordSum.zero(alg.space)
        for w, c in word.terms.items():
            total += apply_coderivation(alg, w).scale(c)
        return total

    space = alg.space
    out: dict[Word, Fraction] = {}
    whole, sign = canonical_word(space, word)
    splits = list(comultiply(space, word).items())
    if whole and sign:
        splits.append(((whole, ()), Fraction(sign)))
    for (block, rest), c in splits:
        for sym, v in alg.bracket_on_word(block).terms.items():
            new_word, s2 = canonical_word(space, (sym,) + rest)
            if s2 == 0:
                continue
            out[new_word] = out.get(new_word, Fraction(0)) + c * v * s2
    return WordSum(space, out)


def relation_scan_arity(alg: SLAlgebra, max_arity: int | None) -> int:
    """The arity up to which `check_relations` scans: `max_arity`, else min(N+1, 6)."""
    return min(alg.nilpotency + 1, 6) if max_arity is None else max_arity


def check_relations(alg: SLAlgebra, max_arity: int | None = None) -> list[RelationViolation]:
    """Scan the generalized Jacobi relations on canonical basis words.

    For each word w of length m <= max_arity with weight < N, evaluates
    sum_{k=1..m} sum_{sigma in Sh(k, m-k)} eps(sigma)
    {{w_sigma(1..k)}, w_sigma(k+1), ..., w_sigma(m)} and reports every
    nonzero residual.  Words of weight >= N are skipped: all their terms
    vanish by weight additivity.
    """
    caps = get_caps()
    max_arity = relation_scan_arity(alg, max_arity)
    if max_arity > caps.arity:
        raise ResourceCapError(f"relation scan arity {max_arity} exceeds cap {caps.arity}")
    space = alg.space
    violations = []
    for m in range(1, max_arity + 1):
        for word in iter_words(space, m, max_weight=alg.nilpotency):
            residual = contract(alg.brackets, apply_coderivation(alg, word), space)
            if not residual.is_zero():
                violations.append(RelationViolation(m, word, residual))
    return violations


def curvature(alg: SLAlgebra, a: Element) -> Element:
    """curv(a) = sum_{m>=1} (1/m!) {a, ..., a}_m, with {.}_1 the differential.

    Finite because a has weight >= 1 and brackets vanish on weight >= N.
    Requires a homogeneous of degree 0 (or zero).
    """
    if a.space != alg.space:
        raise InputError("element lives in a different space")
    if a.is_zero():
        return Element.zero(alg.space)
    if a.degree() != 0:
        raise InputError(f"curvature requires a degree-0 element, got degree {a.degree()}")
    return contract(alg.brackets, exp_element(a, alg.nilpotency, include_unit=False), alg.space)


def is_mc(alg: SLAlgebra, a: Element) -> bool:
    """True iff `a` is homogeneous of degree 0 (or zero) with zero curvature.

    Inhomogeneous input is rejected rather than projected.
    """
    if a.is_zero():
        return True
    if a.degree() != 0:  # raises InputError when mixed
        return False
    return curvature(alg, a).is_zero()


def require_mc(alg: SLAlgebra, alpha: MCElement | Element) -> Element:
    a = mc_value(alpha)
    witness = curvature(alg, a)
    if not witness.is_zero():
        raise PreconditionError(
            f"element is not Maurer-Cartan; curvature = {witness!r}", witness=witness
        )
    return a


def eval_twisted_bracket(
    alg: SLAlgebra, alpha: MCElement | Element, args: Sequence[Element]
) -> Element:
    """The bracket at base point alpha: sum_{k>=0} (1/k!) {alpha^k, args...}.

    alpha is any degree-0 element; flatness is not assumed, since the
    curvature identities use twisted brackets at arbitrary base points.  The
    series terminates by weight counting.
    """
    a = mc_value(alpha)
    if a.space != alg.space:
        raise InputError("base point lives outside the algebra")
    if not a.is_zero() and a.degree() != 0:
        raise InputError(f"base point must have degree 0, got {a.degree()}")
    ws = exp_element(a, alg.nilpotency).product(_argument_product(alg, args), alg.nilpotency)
    return contract(alg.brackets, ws, alg.space)


def twist_algebra(alg: SLAlgebra, alpha: MCElement | Element) -> SLAlgebra:
    """The algebra twisted by an MC element.

    {v_1, ..., v_m}^alpha = sum_{k>=0} (1/k!) {alpha^k, v_1, ..., v_m};
    same space, same nilpotency order.
    """
    a = require_mc(alg, alpha)
    arity = max(alg.max_arity(), 1)
    tables = twist_tables(alg.brackets, alg.space, a, alg.nilpotency, arity, alg.space)
    name = f"{alg.name}_tw" if alg.name else None
    return SLAlgebra(alg.space, tables, alg.nilpotency, name=name, validate=False)


def twist_tables(
    tables: Mapping[int, Mapping[Word, Element]],
    space: GradedSpace,
    a: Element,
    bound: int,
    max_arity: int,
    target_space: GradedSpace,
) -> dict[int, dict[Word, Element]]:
    """Bracket or Taylor tables twisted by a: w -> tables(exp(a) . w).

    Runs over the canonical words of `space` up to `max_arity` with weight
    below `bound`, and drops words of weight >= `bound` from each exp(a) . w.
    """
    exp_a = exp_element(a, bound)
    # exp(a) below each weight a word leaves room for, built once per twist
    below = [exp_a.truncate(room) for room in range(bound + 1)]
    out: dict[int, dict[Word, Element]] = {}
    for m in range(1, max_arity + 1):
        for word in iter_words(space, m, max_weight=bound):
            ws = below[bound - word_weight(space, word)] * WordSum(space, {word: 1})
            value = contract(tables, ws, target_space)
            if not value.is_zero():
                out.setdefault(m, {})[word] = value
    return out


def direct_sum(a1: SLAlgebra, a2: SLAlgebra) -> SLAlgebra:
    """Direct sum; all mixed brackets vanish.  See `direct_sum_with_maps`."""
    return direct_sum_with_maps(a1, a2)[0]


def direct_sum_with_maps(
    a1: SLAlgebra, a2: SLAlgebra
) -> tuple[SLAlgebra, dict[str, str], dict[str, str]]:
    """Direct sum plus the symbol renamings used for each summand.

    Colliding symbols are namespaced as ``left.sym`` / ``right.sym``, with
    the prefix repeated (``left.left.sym``) until the name is free; all
    other symbols keep their names.  The filtration is the summand-wise one
    and the nilpotency order is the maximum of the two.
    """
    s1 = set(a1.space.symbols())
    s2 = set(a2.space.symbols())
    clash = s1 & s2
    taken = (s1 | s2) - clash

    def rename(symbols: tuple[str, ...], prefix: str) -> dict[str, str]:
        ren = {}
        for n in symbols:
            new = n
            if n in clash:
                new = f"{prefix}.{n}"
                while new in taken:
                    new = f"{prefix}.{new}"
                taken.add(new)
            ren[n] = new
        return ren

    ren1 = rename(a1.space.symbols(), "left")
    ren2 = rename(a2.space.symbols(), "right")
    basis = [(ren1[n], d, w) for n, d, w in a1.space.basis]
    basis += [(ren2[n], d, w) for n, d, w in a2.space.basis]
    space = GradedSpace(basis)

    def port(table_owner: SLAlgebra, ren: dict[str, str]) -> dict[int, dict[Word, Element]]:
        out: dict[int, dict[Word, Element]] = {}
        for m, table in table_owner.brackets.items():
            for word, value in table.items():
                new_word = tuple(ren[f] for f in word)
                new_val = Element(space, {ren[n]: c for n, c in value.terms.items()})
                out.setdefault(m, {})[new_word] = new_val
        return out

    tables = port(a1, ren1)
    for m, table in port(a2, ren2).items():
        tables.setdefault(m, {}).update(table)
    name = None
    if a1.name and a2.name:
        name = f"{a1.name}+{a2.name}"
    total = SLAlgebra(space, tables, max(a1.nilpotency, a2.nilpotency), name=name, validate=False)
    return total, ren1, ren2


def embed_element(target: SLAlgebra, ren: dict[str, str], e: Element) -> Element:
    """Carry an element of a summand into a direct sum along its renaming."""
    return Element(target.space, {ren[n]: c for n, c in e.terms.items()})


def project_element(summand: SLAlgebra, ren: dict[str, str], e: Element) -> Element:
    """Extract the summand component of a direct-sum element."""
    back = {v: k for k, v in ren.items()}
    return Element(
        summand.space, {back[n]: c for n, c in e.terms.items() if n in back}
    )


def zero_algebra() -> SLAlgebra:
    """The zero algebra: empty basis, the monoidal unit for direct sums."""
    return SLAlgebra(GradedSpace(()), {}, 2, name="zero")
