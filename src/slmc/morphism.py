"""Morphisms of shifted L-infinity algebras and their enhanced variant.

An `InftyMorphism` is stored by its Taylor coefficients: degree-0,
weight-nondecreasing maps from canonical source words to target elements.
The induced coalgebra map is reconstructed with set-partition sums.
Every Taylor series downstream is one `contract` of a table against a word
sum: the morphism check (both sides), composition (F of a word), pushforward
(exp(a)), and twisting (exp(a) times a word).

An `EnhancedMorphism` is a pair (alpha, F): a Maurer-Cartan element alpha of
the target plus an infinity-morphism from the source into the target twisted
by alpha.  These compose, tensor (on direct sums), and act on MC elements;
the `u_map` realizes the pair as the completed-coalgebra map e^alpha * F.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .algebra import (
    MCElement,
    SLAlgebra,
    apply_coderivation,
    direct_sum_with_maps,
    mc_value,
    require_mc,
    twist_algebra,
    twist_tables,
)
from .caps import get_caps
from .errors import InputError, ResourceCapError
from .graded import (
    Element,
    Word,
    WordSum,
    canonical_word,
    comultiply,  # noqa: F401 - re-exported, part of this module's API
    contract,
    exp_element,
    iter_words,
    word_degree,
    word_weight,
)

TaylorTables = Mapping[int, Mapping[Word, Element]]


class InftyMorphism:
    """An infinity-morphism given by Taylor coefficient tables."""

    __slots__ = ("source", "target", "taylor", "name")

    def __init__(
        self,
        source: SLAlgebra,
        target: SLAlgebra,
        taylor: TaylorTables,
        name: str | None = None,
        validate: bool = True,
    ):
        self.source = source
        self.target = target
        self.name = name
        clean: dict[int, dict[Word, Element]] = {}
        for arity, table in taylor.items():
            m = int(arity)
            if m < 1:
                raise InputError(f"Taylor coefficient arity must be >= 1, got {m}")
            for word, value in table.items():
                w = tuple(word)
                if value is None or value.is_zero():
                    continue
                clean.setdefault(m, {})[w] = value
        self.taylor = clean
        if validate:
            self._validate()

    def _validate(self) -> None:
        n_tgt = self.target.nilpotency
        for m, table in self.taylor.items():
            for word, value in table.items():
                if len(word) != m:
                    raise InputError(f"Taylor table of arity {m} keyed by word of length {len(word)}")
                cw, sign = canonical_word(self.source.space, word)
                if cw != word or sign != 1:
                    raise InputError(f"Taylor table key {word} is not a canonical word")
                if value.space != self.target.space:
                    raise InputError(f"Taylor value for {word} lives outside the target space")
                vd = value.degree()
                wd = word_degree(self.source.space, word)
                if vd is not None and vd != wd:
                    raise InputError(
                        f"Taylor coefficient on {word} has degree {vd}, expected {wd}: "
                        f"morphisms preserve total degree"
                    )
                ww = word_weight(self.source.space, word)
                if value.weight() < ww:
                    raise InputError(
                        f"Taylor coefficient on {word} has weight {value.weight()} < {ww}: "
                        f"violates filtration weight additivity"
                    )
                if ww >= n_tgt:
                    raise InputError(
                        f"Taylor coefficient on {word} (weight {ww}) must vanish: "
                        f"F_{n_tgt} of the target is zero"
                    )

    @classmethod
    def identity(cls, alg: SLAlgebra) -> InftyMorphism:
        table = {
            1: {(n,): Element.basis(alg.space, n) for n in alg.space.symbols()}
        }
        return cls(alg, alg, table, name="id", validate=False)

    def coefficient(self, word: Sequence[str]) -> Element:
        """Taylor coefficient on an arbitrary word (canonicalized first)."""
        w, sign = canonical_word(self.source.space, word)
        if sign == 0:
            return Element.zero(self.target.space)
        value = self.taylor.get(len(w), {}).get(w)
        if value is None:
            return Element.zero(self.target.space)
        return value * sign

    def linear_part(self, e: Element) -> Element:
        return contract(self.taylor, WordSum.of_element(e), self.target.space)

    def max_arity(self) -> int:
        return max(self.taylor, default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InftyMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.taylor == other.taylor
        )

    def __repr__(self) -> str:
        return f"InftyMorphism({self.name or '?'}: {self.source.name or '?'} -> {self.target.name or '?'})"


@dataclass(frozen=True)
class MorphismViolation:
    """One failing instance of the morphism equation."""

    arity: int
    word: Word
    residual: Element

    def describe(self) -> str:
        terms = " + ".join(f"{c} {n}" for n, c in self.residual.sorted_terms()) or "0"
        return f"m={self.arity} word={'.'.join(self.word)} witness={terms}"


def extend_to_coalgebra(
    f: InftyMorphism, word: Sequence[str] | WordSum, weight_bound: int | None = None
) -> WordSum:
    """The coalgebra map on a word: set-partition sum of Taylor products.

    F(v_1 ... v_n) = sum over set partitions of the positions into increasing
    blocks of the Koszul-signed product F'(block_1) ... F'(block_t).  The word
    is canonicalized once, so every block is a canonical word and its
    coefficient a plain table lookup.  Partitions are built block by block,
    each block taking the smallest position left; a branch stops at the
    first block with a zero Taylor coefficient, and, with a `weight_bound`,
    as soon as the product so far has no word of weight below the bound.
    So the result equals the unbounded one truncated at `weight_bound`.
    Extends linearly to word sums; the empty word is NOT given a unit image
    here (see `u_map` for the completed, unit-preserving version).
    """
    if isinstance(word, WordSum):
        total = WordSum.zero(f.target.space)
        for w, c in word.terms.items():
            total += extend_to_coalgebra(f, w, weight_bound).scale(c)
        return total

    factors = tuple(word)
    caps = get_caps()
    if len(factors) > caps.word:
        raise ResourceCapError(f"word length {len(factors)} exceeds cap {caps.word}")
    src = f.source.space
    tgt = f.target.space
    factors, sign = canonical_word(src, factors)
    if sign == 0 or not factors:
        return WordSum.zero(tgt)
    odd = [src.degree(x) % 2 for x in factors]
    arities = sorted(f.taylor)
    out: dict[Word, Fraction] = {}

    def expand(rest: tuple[int, ...], product: WordSum, eps: int) -> None:
        if not rest:
            for w, c in product.terms.items():
                out[w] = out.get(w, 0) + eps * c
            return
        head, pool = rest[0], rest[1:]
        for m in arities:
            if m > len(rest):
                break
            table = f.taylor[m]
            for chosen in combinations(pool, m - 1):
                value = table.get((factors[head],) + tuple(factors[i] for i in chosen))
                if value is None:
                    continue
                nxt = product.product(WordSum.of_element(value), weight_bound)
                if nxt.is_zero():
                    continue
                left = tuple(i for i in pool if i not in chosen)
                # Koszul sign of moving the block in front of the positions left
                flips = sum(odd[b] and odd[r] for b in chosen for r in left if r < b)
                expand(left, nxt, -eps if flips % 2 else eps)

    expand(tuple(range(len(factors))), WordSum.unit(tgt), sign)
    return WordSum(tgt, out)


def morphism_scan_arity(f: InftyMorphism, max_arity: int | None) -> int:
    """The arity up to which `check_morphism` scans: `max_arity`, else N_target - 1."""
    return f.target.nilpotency - 1 if max_arity is None else max_arity


def check_morphism(f: InftyMorphism, max_arity: int | None = None) -> list[MorphismViolation]:
    """Scan the morphism equation on canonical source words.

    For each word w the residual is the source route minus the target route:
    F'(Q_src(w)) - p(Q_tgt(F(w))), i.e. the corestriction of F o Q - Q~ o F.
    Words of weight >= N_target are skipped (both routes vanish there).
    """
    caps = get_caps()
    n_tgt = f.target.nilpotency
    max_arity = morphism_scan_arity(f, max_arity)
    if max_arity > caps.arity:
        raise ResourceCapError(f"morphism scan arity {max_arity} exceeds cap {caps.arity}")
    tgt = f.target.space
    violations = []
    for m in range(1, max_arity + 1):
        for word in iter_words(f.source.space, m, max_weight=n_tgt):
            lhs = contract(f.taylor, apply_coderivation(f.source, word), tgt)
            rhs = contract(f.target.brackets, extend_to_coalgebra(f, word, n_tgt), tgt)
            residual = lhs - rhs
            if not residual.is_zero():
                violations.append(MorphismViolation(m, word, residual))
    return violations


def compose_infty(g: InftyMorphism, f: InftyMorphism) -> InftyMorphism:
    """g after f, by expanding f to the coalgebra and projecting through g."""
    if f.target != g.source:
        raise InputError("cannot compose: target of inner differs from source of outer")
    n_res = g.target.nilpotency
    tables: dict[int, dict[Word, Element]] = {}
    for m in range(1, n_res):
        for word in iter_words(f.source.space, m, max_weight=n_res):
            value = contract(g.taylor, extend_to_coalgebra(f, word, n_res), g.target.space)
            if not value.is_zero():
                tables.setdefault(m, {})[word] = value
    name = None
    if g.name and f.name:
        name = f"{g.name}*{f.name}"
    return InftyMorphism(f.source, g.target, tables, name=name, validate=False)


def pushforward(f: InftyMorphism, a: Element) -> Element:
    """F_*(a) = sum_{k>=1} (1/k!) F'(a^k) for a degree-0 element a."""
    if a.space != f.source.space:
        raise InputError("element lives outside the morphism source")
    if a.is_zero():
        return Element.zero(f.target.space)
    if a.degree() != 0:
        raise InputError(f"pushforward requires a degree-0 element, got degree {a.degree()}")
    powers = exp_element(a, f.target.nilpotency, include_unit=False)
    return contract(f.taylor, powers, f.target.space)


def twist_morphism(f: InftyMorphism, alpha: MCElement | Element) -> InftyMorphism:
    """Twist by an MC element of the source: (F^alpha)'(w) = sum (1/k!) F'(alpha^k . w).

    The result maps the alpha-twist of the source to the F_*(alpha)-twist of
    the target.
    """
    a = require_mc(f.source, alpha)
    src_tw = twist_algebra(f.source, a)
    tgt_tw = twist_algebra(f.target, pushforward(f, a))
    n_tgt = f.target.nilpotency
    tables = twist_tables(f.taylor, f.source.space, a, n_tgt, n_tgt - 1, f.target.space)
    name = f"{f.name}_tw" if f.name else None
    return InftyMorphism(src_tw, tgt_tw, tables, name=name, validate=False)


# --- enhanced morphisms -------------------------------------------------------


class EnhancedMorphism:
    """A pair (alpha, F): alpha MC in the target, F into the alpha-twist.

    `target_base` is the untwisted target; `morphism.target` must equal its
    alpha-twist table for table.
    """

    __slots__ = ("alpha", "morphism", "source", "target_base", "name")

    def __init__(
        self,
        alpha: MCElement | Element,
        morphism: InftyMorphism,
        target_base: SLAlgebra,
        name: str | None = None,
        validate: bool = True,
    ):
        self.alpha = mc_value(alpha)
        self.morphism = morphism
        self.source = morphism.source
        self.target_base = target_base
        self.name = name
        if validate:
            require_mc(target_base, self.alpha)
            if self.alpha.space != target_base.space:
                raise InputError("twisting element lives outside the target")
            expected = twist_algebra(target_base, self.alpha)
            if morphism.target != expected:
                raise InputError(
                    "enhanced morphism must map into the alpha-twist of its target"
                )
            bad = check_morphism(morphism)
            if bad:
                raise InputError(
                    f"underlying morphism fails its defining equation: {bad[0].describe()}"
                )

    @classmethod
    def plain(cls, f: InftyMorphism, name: str | None = None) -> EnhancedMorphism:
        """The enhancement (0, F) of an ordinary morphism."""
        return cls(Element.zero(f.target.space), f, f.target, name=name or f.name)

    @classmethod
    def identity(cls, alg: SLAlgebra) -> EnhancedMorphism:
        return cls.plain(InftyMorphism.identity(alg), name="id")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EnhancedMorphism)
            and self.alpha == other.alpha
            and self.target_base == other.target_base
            and self.morphism == other.morphism
        )

    def __repr__(self) -> str:
        return (
            f"EnhancedMorphism({self.name or '?'}: {self.source.name or '?'} -> "
            f"{self.target_base.name or '?'}; alpha={self.alpha!r})"
        )


def compose_enhanced(g: EnhancedMorphism, f: EnhancedMorphism) -> EnhancedMorphism:
    """(alpha_g + G_*(alpha_f), G^{alpha_f} o F), with G_* in the twisted sense."""
    if f.target_base != g.source:
        raise InputError("cannot compose: enhanced target base differs from outer source")
    g_tw = twist_morphism(g.morphism, f.alpha)
    new_alpha = g.alpha + pushforward(g.morphism, f.alpha)
    composite = compose_infty(g_tw, f.morphism)
    name = None
    if g.name and f.name:
        name = f"{g.name}*{f.name}"
    # g_tw.target is the G_*(alpha_f)-twist of the alpha_g-twist; table for
    # table this equals the (alpha_g + G_*(alpha_f))-twist of the base.
    return EnhancedMorphism(new_alpha, composite, g.target_base, name=name)


def tensor_enhanced(
    f: EnhancedMorphism, ft: EnhancedMorphism
) -> tuple[EnhancedMorphism, dict[str, str], dict[str, str], dict[str, str], dict[str, str]]:
    """Tensor (direct sum) of enhanced morphisms.

    Returns the enhanced morphism on the direct sums together with the four
    symbol renamings (source-left, source-right, target-left, target-right).
    Taylor coefficients are the cofree restriction of F (x) F~: pure-left
    words map through F, pure-right through F~, mixed words to zero.
    """
    src, sl, sr = direct_sum_with_maps(f.source, ft.source)
    tgt, tl, tr = direct_sum_with_maps(f.target_base, ft.target_base)
    alpha = Element(tgt.space, {tl[n]: c for n, c in f.alpha.terms.items()})
    alpha += Element(tgt.space, {tr[n]: c for n, c in ft.alpha.terms.items()})

    def port(m: InftyMorphism, s_ren: dict[str, str], t_ren: dict[str, str]):
        out: dict[int, dict[Word, Element]] = {}
        for arity, table in m.taylor.items():
            for word, value in table.items():
                w = tuple(s_ren[x] for x in word)
                v = Element(tgt.space, {t_ren[n]: c for n, c in value.terms.items()})
                out.setdefault(arity, {})[w] = v
        return out

    tables = port(f.morphism, sl, tl)
    for arity, table in port(ft.morphism, sr, tr).items():
        tables.setdefault(arity, {}).update(table)
    morphism = InftyMorphism(src, twist_algebra(tgt, alpha), tables, validate=False)
    name = None
    if f.name and ft.name:
        name = f"{f.name}(+){ft.name}"
    return EnhancedMorphism(alpha, morphism, tgt, name=name), sl, sr, tl, tr


def u_map(
    e: EnhancedMorphism,
    x: Sequence[str] | WordSum | None,
    weight_bound: int | None = None,
) -> WordSum:
    """U_{alpha,F}(X) = e^alpha * F(X) in the completed coalgebra.

    `x` may be a word (possibly empty, meaning the unit), a word sum over the
    source, or None for the unit.  Words of weight >= weight_bound are
    dropped; the bound defaults to the nilpotency order of the untwisted
    target, but callers comparing composites across algebras should pass a
    common bound, since word weight in the symmetric coalgebra is not capped
    by any single algebra's order.
    """
    src = e.source.space
    bound = e.target_base.nilpotency if weight_bound is None else weight_bound
    if x is None:
        x = WordSum.unit(src)
    elif not isinstance(x, WordSum):
        x = WordSum.of_word(src, tuple(x)) if len(tuple(x)) else WordSum.unit(src)
    fx = WordSum.zero(e.target_base.space)
    for w, c in x.terms.items():
        if len(w) == 0:
            fx += WordSum.unit(e.target_base.space).scale(c)
        else:
            fx += extend_to_coalgebra(e.morphism, w, bound).scale(c)
    return exp_element(e.alpha, bound).product(fx, bound)
