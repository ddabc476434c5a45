"""Maurer-Cartan simplicial sets of nilpotent shifted L-infinity algebras.

The n-simplices are Maurer-Cartan elements of L tensored with polynomial
forms on the n-simplex; faces and degeneracies come from the forms.  On top
of the simplicial structure this module provides:

  * functoriality: `mc_map` for infinity-morphisms, `shift_iso` for twists,
    `mc_enhanced` for enhanced morphisms;
  * symbolic Maurer-Cartan systems (`mc_system`) whose solutions are
    certified candidates, plus weight-by-weight lifting (`lift_mc`);
  * horn filling in dimensions one and two (`fill_horn`) and path
    components (`pi0`), both certified: every produced simplex is checked
    exactly against the curvature equation and the prescribed faces.

Solving is exact over the rationals throughout; polynomial coefficient
degrees are bounded by an explicit parameter so failures are loud.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import MCElement, SLAlgebra, require_mc, twist_algebra
from .caps import get_caps
from .derham import FormKey, PolyForm, _merge_dts
from .errors import InputError, PreconditionError, ResourceCapError
from .graded import Element, GradedSpace, Word, koszul_sign
from .linsolve import solve_linear
from .morphism import EnhancedMorphism, InftyMorphism
from .mpoly import MPoly


class TensorElement:
    """An element of L tensor forms-on-the-n-simplex, stored per basis symbol.

    Coefficients of the form factors may be rationals (concrete elements) or
    `MPoly` values (symbolic ansatzes); all operations are generic over that
    choice.
    """

    __slots__ = ("algebra", "dim", "terms")

    def __init__(self, algebra: SLAlgebra, dim: int, terms: Mapping[str, PolyForm] | None = None):
        if dim < 0:
            raise InputError(f"simplex dimension must be >= 0, got {dim}")
        self.algebra = algebra
        self.dim = dim
        clean: dict[str, PolyForm] = {}
        if terms:
            for sym, form in terms.items():
                algebra.space.index(sym)
                if form.dim != dim:
                    raise InputError(
                        f"form attached to {sym} lives on dimension {form.dim}, expected {dim}"
                    )
                if not form.is_zero():
                    clean[sym] = form
        self.terms = clean

    @classmethod
    def zero(cls, algebra: SLAlgebra, dim: int) -> TensorElement:
        return cls(algebra, dim)

    @classmethod
    def of_element(cls, algebra: SLAlgebra, dim: int, e: Element) -> TensorElement:
        """A constant element: each coefficient becomes a constant 0-form."""
        if e.space != algebra.space:
            raise InputError("element lives outside the algebra")
        return cls(
            algebra, dim, {n: PolyForm.constant(dim, c) for n, c in e.terms.items()}
        )

    def constant_part(self) -> Element:
        """The coefficient of the constant monomial 1 in each 0-form factor."""
        out: dict[str, Fraction] = {}
        key = ((0,) * self.dim, ())
        for sym, form in self.terms.items():
            c = form.terms.get(key)
            if c:
                out[sym] = c
        return Element(self.algebra.space, out)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorElement)
            and self.algebra.space == other.algebra.space
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.algebra.space, self.dim, frozenset((s, f) for s, f in self.terms.items())))

    def __add__(self, other: TensorElement) -> TensorElement:
        self._same(other)
        out = dict(self.terms)
        for sym, form in other.terms.items():
            prev = out.get(sym)
            total = form if prev is None else prev + form
            if total.is_zero():
                out.pop(sym, None)
            else:
                out[sym] = total
        res = TensorElement.__new__(TensorElement)
        res.algebra = self.algebra
        res.dim = self.dim
        res.terms = out
        return res

    def __neg__(self) -> TensorElement:
        res = TensorElement.__new__(TensorElement)
        res.algebra = self.algebra
        res.dim = self.dim
        res.terms = {s: -f for s, f in self.terms.items()}
        return res

    def __sub__(self, other: TensorElement) -> TensorElement:
        return self + (-other)

    def scale(self, c) -> TensorElement:
        return TensorElement(self.algebra, self.dim, {s: f.scale(c) for s, f in self.terms.items()})

    def degree(self) -> int | None:
        """Total degree: symbol degree plus form degree; None when zero."""
        degs = set()
        for sym, form in self.terms.items():
            d = self.algebra.space.degree(sym)
            degs.update(d + len(dts) for _, dts in form.terms)
        if not degs:
            return None
        if len(degs) > 1:
            raise InputError(f"tensor element mixes total degrees {sorted(degs)}")
        return degs.pop()

    def min_weight(self) -> int | None:
        if not self.terms:
            return None
        return min(self.algebra.space.weight(s) for s in self.terms)

    def weight_part(self, k: int) -> TensorElement:
        return TensorElement(
            self.algebra,
            self.dim,
            {s: f for s, f in self.terms.items() if self.algebra.space.weight(s) == k},
        )

    def map_coefficients(self, fn) -> TensorElement:
        return TensorElement(
            self.algebra, self.dim, {s: f.map_coefficients(fn) for s, f in self.terms.items()}
        )

    def face(self, i: int) -> TensorElement:
        return TensorElement(self.algebra, self.dim - 1, {s: f.face(i) for s, f in self.terms.items()})

    def degeneracy(self, j: int) -> TensorElement:
        return TensorElement(self.algebra, self.dim + 1, {s: f.degeneracy(j) for s, f in self.terms.items()})

    def primitives(self) -> list[tuple[str, FormKey, object]]:
        """Flatten into (symbol, monomial form key, coefficient) triples."""
        out = []
        for sym in self.algebra.space.symbols():
            form = self.terms.get(sym)
            if form is None:
                continue
            for key, c in sorted(form.terms.items()):
                out.append((sym, key, c))
        return out

    def sorted_terms(self) -> list[tuple[str, PolyForm]]:
        return [
            (s, self.terms[s]) for s in self.algebra.space.symbols() if s in self.terms
        ]

    def _same(self, other: TensorElement) -> None:
        if not isinstance(other, TensorElement):
            raise InputError("expected a tensor element")
        if other.algebra.space != self.algebra.space or other.dim != self.dim:
            raise InputError("tensor elements live on different algebras or simplex dimensions")

    def __repr__(self) -> str:
        if not self.terms:
            return "<tensor 0>"
        parts = [f"{s}(x){f!r}" for s, f in self.sorted_terms()]
        return "<tensor " + " + ".join(parts) + ">"


# -- the shifted L-infinity structure on L (x) forms ---------------------------


Primitive = tuple[str, FormKey, object]
Rows = dict[str, dict[FormKey, object]]


def _put(acc: Rows, sym: str, key: FormKey, c) -> None:
    row = acc.setdefault(sym, {})
    prev = row.get(key)
    total = c if prev is None else prev + c
    if total:
        row[key] = total
    else:
        row.pop(key, None)


def _tensor(alg: SLAlgebra, dim: int, acc: Rows) -> TensorElement:
    return TensorElement(alg, dim, {s: PolyForm(dim, row) for s, row in acc.items() if row})


def _contract_primitives(
    space: GradedSpace,
    tables: Mapping[int, Mapping[Word, Element]],
    prims: Sequence[Primitive],
    coeff,
    acc: Rows,
) -> None:
    """Add coeff * tables(v_1 ... v_k) (x) omega_1 ... omega_k to `acc`.

    The primitive tensors v_i (x) omega_i must be sorted by basis position,
    so that their symbols form the canonical word the tables are keyed by.
    The sign is that of moving every form past the vectors to its right.
    """
    value = tables.get(len(prims), {}).get(tuple(sym for sym, _, _ in prims))
    if value is None:
        return
    degs = [space.degree(sym) for sym, _, _ in prims]
    sign = 1
    dts: tuple[int, ...] = ()
    for i, (_, (_, d), _) in enumerate(prims):
        s, dts = _merge_dts(dts, d)
        if s == 0:
            return
        sign *= -s if len(d) * sum(degs[i + 1 :]) % 2 else s
    key = (tuple(map(sum, zip(*(e for _, (e, _), _ in prims)))), dts)
    for _, _, c in prims:
        coeff = coeff * c
    for n, cv in value.terms.items():
        _put(acc, n, key, coeff * (cv * sign))


def tensor_bracket(alg: SLAlgebra, args: Sequence[TensorElement]) -> TensorElement:
    """The m-ary bracket on L (x) forms; arity one is the tensor differential."""
    if not args:
        raise InputError("bracket needs at least one argument")
    dim = args[0].dim
    for a in args:
        if a.algebra.space != alg.space:
            raise InputError("tensor element lives outside the algebra")
        if a.dim != dim:
            raise InputError("bracket arguments live on different simplex dimensions")
    space = alg.space
    acc: Rows = {}
    # Sort each product of primitives by basis position; the bracket is
    # graded symmetric in the total degree (symbol plus form degree).
    for combo in itertools.product(*(a.primitives() for a in args)):
        order = sorted(range(len(combo)), key=lambda i: space.index(combo[i][0]))
        total = [space.degree(sym) + len(key[1]) for sym, key, _ in combo]
        chosen = [combo[i] for i in order]
        _contract_primitives(space, alg.brackets, chosen, koszul_sign(order, total), acc)
    if len(args) == 1:
        # the differential of the forms
        for sym, form in args[0].terms.items():
            sgn = -1 if space.degree(sym) % 2 else 1
            for key, fc in form.d().terms.items():
                _put(acc, sym, key, fc * sgn)
    return _tensor(alg, dim, acc)


def _exp_series(
    x: TensorElement,
    tables: Mapping[int, Mapping[Word, Element]],
    k_min: int,
    target: SLAlgebra,
) -> TensorElement:
    """sum_{k >= k_min} (1/k!) tables(x^k), over the primitive tensors of x.

    x^k / k! is expanded over multisets of primitives, each weighted by the
    inverse multinomial; the series stops below the target's nilpotency.
    """
    space = x.algebra.space
    prims = x.primitives()
    acc: Rows = {}
    for k in range(k_min, target.nilpotency):
        if k not in tables:
            continue
        for combo in itertools.combinations_with_replacement(range(len(prims)), k):
            denom = math.prod(math.factorial(len(list(g))) for _, g in itertools.groupby(combo))
            chosen = [prims[i] for i in combo]
            _contract_primitives(space, tables, chosen, Fraction(1, denom), acc)
    return _tensor(target, x.dim, acc)


def tensor_curvature(alg: SLAlgebra, x: TensorElement) -> TensorElement:
    """Curvature of a degree-0 tensor element; vanishing characterizes MC."""
    if x.algebra.space != alg.space:
        raise InputError("tensor element lives outside the algebra")
    deg = x.degree()
    if deg is not None and deg != 0:
        raise InputError(f"curvature requires a degree-0 tensor element, got degree {deg}")
    return tensor_bracket(alg, [x]) + _exp_series(x, alg.brackets, 2, alg)


class MCSimplex:
    """An n-simplex of the Maurer-Cartan space: a flat degree-0 tensor element."""

    __slots__ = ("algebra", "dim", "value")

    def __init__(self, algebra: SLAlgebra, value: TensorElement, validate: bool = True):
        if value.algebra.space != algebra.space:
            raise InputError("simplex value lives outside the algebra")
        self.algebra = algebra
        self.dim = value.dim
        self.value = value
        if validate:
            deg = value.degree()
            if deg is not None and deg != 0:
                raise InputError(f"simplex value must have total degree 0, got {deg}")
            c = tensor_curvature(algebra, value)
            if not c.is_zero():
                raise PreconditionError(
                    "tensor element does not satisfy the Maurer-Cartan equation",
                    witness=c,
                )

    @classmethod
    def point(cls, algebra: SLAlgebra, alpha: MCElement | Element) -> MCSimplex:
        a = require_mc(algebra, alpha)
        return cls(algebra, TensorElement.of_element(algebra, 0, a), validate=False)

    def face(self, i: int) -> MCSimplex:
        return MCSimplex(self.algebra, self.value.face(i), validate=False)

    def degeneracy(self, j: int) -> MCSimplex:
        return MCSimplex(self.algebra, self.value.degeneracy(j), validate=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MCSimplex)
            and self.algebra == other.algebra
            and self.value == other.value
        )

    def __repr__(self) -> str:
        return f"MCSimplex(dim={self.dim}, {self.value!r})"


def simplicial_map(s: MCSimplex, op: str, index: int) -> MCSimplex:
    """Apply a face or degeneracy operator to a Maurer-Cartan simplex."""
    if op == "face":
        return s.face(index)
    if op == "degeneracy":
        return s.degeneracy(index)
    raise InputError(f"unknown simplicial operator {op!r} (want 'face' or 'degeneracy')")


# -- functoriality --------------------------------------------------------------


def mc_map(f: InftyMorphism, s: MCSimplex) -> MCSimplex:
    """Push a simplex forward along an infinity-morphism, Taylor term by term."""
    if s.algebra.space != f.source.space:
        raise InputError("simplex lives outside the morphism source")
    return MCSimplex(f.target, _exp_series(s.value, f.taylor, 1, f.target))


def shift_iso(alg: SLAlgebra, alpha: MCElement | Element, s: MCSimplex) -> MCSimplex:
    """Identify MC simplices of the alpha-twist with those of the algebra.

    Sends a simplex beta of the twisted algebra to alpha + beta; in
    particular the zero simplex goes to the constant simplex alpha.
    """
    a = require_mc(alg, alpha)
    twisted = twist_algebra(alg, a)
    if s.algebra != twisted:
        raise InputError("simplex does not live in the twist by the given element")
    value = TensorElement.of_element(alg, s.dim, a) + TensorElement(
        alg, s.dim, dict(s.value.terms)
    )
    return MCSimplex(alg, value)


def shift_iso_inverse(alg: SLAlgebra, alpha: MCElement | Element, s: MCSimplex) -> MCSimplex:
    """Inverse of `shift_iso`: subtract the constant alpha and twist."""
    a = require_mc(alg, alpha)
    if s.algebra != alg:
        raise InputError("simplex does not live in the given algebra")
    twisted = twist_algebra(alg, a)
    value = TensorElement(twisted, s.dim, dict(s.value.terms)) - TensorElement.of_element(
        twisted, s.dim, a
    )
    return MCSimplex(twisted, value)


def mc_enhanced(e: EnhancedMorphism, s: MCSimplex) -> MCSimplex:
    """Action of an enhanced morphism: push forward, then shift by its twist."""
    return shift_iso(e.target_base, e.alpha, mc_map(e.morphism, s))


# -- symbolic Maurer-Cartan systems ---------------------------------------------


@dataclass(frozen=True)
class AnsatzSlot:
    """One unknown coefficient: symbol (x) monomial t^exps (x) dt factors."""

    symbol: str
    exps: tuple[int, ...]
    dts: tuple[int, ...]

    def label(self) -> str:
        bits = [self.symbol]
        for k, e in enumerate(self.exps, start=1):
            if e == 1:
                bits.append(f"t{k}")
            elif e > 1:
                bits.append(f"t{k}^{e}")
        bits.extend(f"dt{k}" for k in self.dts)
        return ".".join(bits)


def _monomials(dim: int, max_degree: int) -> list[tuple[int, ...]]:
    if dim == 0:
        return [()]
    out = []
    for head in range(max_degree + 1):
        for rest in _monomials(dim - 1, max_degree - head):
            out.append((head,) + rest)
    return sorted(out)


# Default ansatz degree for the solvers below.  Kept well under the poly cap
# so that curvature residuals of the ansatz remain representable.
DEFAULT_SOLVE_DEGREE = 6


def build_ansatz(
    alg: SLAlgebra, dim: int, poly_degree: int, weights: set[int] | None = None
) -> tuple[TensorElement, list[AnsatzSlot]]:
    """A general degree-0 tensor element with fresh polynomial unknowns.

    Slots run over basis symbols (optionally restricted by weight), monomials
    of degree at most `poly_degree`, and dt subsets of size minus the symbol
    degree; the i-th slot gets coefficient variable i.
    """
    caps = get_caps()
    if poly_degree > caps.poly:
        raise ResourceCapError(f"polynomial degree {poly_degree} exceeds cap {caps.poly}")
    slots: list[AnsatzSlot] = []
    for sym in alg.space.symbols():
        if weights is not None and alg.space.weight(sym) not in weights:
            continue
        p = -alg.space.degree(sym)
        if p < 0 or p > dim:
            continue
        for dts in itertools.combinations(range(1, dim + 1), p):
            for exps in _monomials(dim, poly_degree):
                slots.append(AnsatzSlot(sym, exps, dts))
    terms: dict[str, dict[FormKey, MPoly]] = {}
    for idx, slot in enumerate(slots):
        terms.setdefault(slot.symbol, {})[(slot.exps, slot.dts)] = MPoly.var(idx)
    value = TensorElement(
        alg, dim, {s: PolyForm(dim, row) for s, row in terms.items()}
    )
    return value, slots


@dataclass(frozen=True)
class MCSystem:
    """A polynomial system whose rational solutions are the MC elements."""

    algebra: SLAlgebra
    dim: int
    poly_degree: int
    slots: tuple[AnsatzSlot, ...]
    equations: tuple[MPoly, ...]

    def substitute(self, values: Sequence[Fraction | int]) -> TensorElement:
        """The concrete tensor element for an assignment of the unknowns."""
        return substitute_slots(self.algebra, self.dim, self.slots, values)

    def residuals(self, values: Sequence[Fraction | int]) -> list[Fraction]:
        env = {i: Fraction(v) for i, v in enumerate(values)}
        return [eq.evaluate(env).constant_value() for eq in self.equations]

    def accepts(self, values: Sequence[Fraction | int]) -> bool:
        return all(r == 0 for r in self.residuals(values))

    def var_name(self, i: int) -> str:
        return f"c[{self.slots[i].label()}]"

    def render(self) -> list[str]:
        return [f"{eq.render(self.var_name)} = 0" for eq in self.equations]


def substitute_slots(
    alg: SLAlgebra, dim: int, slots: Sequence[AnsatzSlot], values: Sequence[Fraction | int]
) -> TensorElement:
    """The concrete tensor element for an assignment of the ansatz unknowns."""
    if len(values) != len(slots):
        raise InputError(f"expected {len(slots)} values, got {len(values)}")
    acc: Rows = {}
    for slot, v in zip(slots, values):
        _put(acc, slot.symbol, (slot.exps, slot.dts), Fraction(v))
    return _tensor(alg, dim, acc)


def _equations(x: TensorElement) -> list[tuple[int, MPoly]]:
    """The nonzero coefficients of x as polynomials, each with its symbol's
    weight, in basis order and then form-key order."""
    space = x.algebra.space
    out = []
    for sym, form in x.sorted_terms():
        for _, c in sorted(form.terms.items()):
            if isinstance(c, Fraction):
                c = MPoly.const(c)
            if c:
                out.append((space.weight(sym), c))
    return out


def _linear_rows(x: TensorElement, n_slots: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The linear system (rows, rhs) saying every coefficient of x vanishes;
    the coefficients must be affine in the unknowns."""
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for _, c in _equations(x):
        const, lin = c.linear_decompose()
        row = [Fraction(0)] * n_slots
        for v, cf in lin.items():
            row[v] = cf
        rows.append(row)
        rhs.append(-const)
    return rows, rhs


def mc_system(alg: SLAlgebra, dim: int, poly_degree: int) -> MCSystem:
    """Expand the curvature of a general ansatz into polynomial equations."""
    if dim > 3:
        raise InputError(f"symbolic systems are limited to dimension <= 3, got {dim}")
    if dim < 0:
        raise InputError(f"simplex dimension must be >= 0, got {dim}")
    ansatz, slots = build_ansatz(alg, dim, poly_degree)
    equations = tuple(c for _, c in _equations(tensor_curvature(alg, ansatz)))
    return MCSystem(alg, dim, poly_degree, tuple(slots), equations)


# -- weight-by-weight lifting ----------------------------------------------------


@dataclass(frozen=True)
class Obstruction:
    """A certified failure report from lifting or filling."""

    stage: str
    witness: TensorElement | None
    message: str

    def describe(self) -> str:
        return f"{self.stage}: {self.message}"


def lift_mc(
    alg: SLAlgebra,
    dim: int,
    s_low: TensorElement,
    k: int,
    poly_degree: int | None = None,
) -> TensorElement | Obstruction:
    """Improve a solution modulo weight k to one modulo weight k+1.

    The input must have curvature supported in weights >= k.  The correction
    is sought among weight-k terms, where the equation is linear; if the
    linear system is inconsistent the weight-k curvature class is returned
    as an obstruction witness.
    """
    if poly_degree is None:
        poly_degree = DEFAULT_SOLVE_DEGREE
    deg = s_low.degree()
    if deg is not None and deg != 0:
        raise InputError(f"lifting requires a degree-0 tensor element, got degree {deg}")
    curv = tensor_curvature(alg, s_low)
    low = [s for s in curv.terms if alg.space.weight(s) < k]
    if low:
        raise PreconditionError(
            f"curvature is not zero modulo weight {k}",
            witness=TensorElement(alg, dim, {s: curv.terms[s] for s in low}),
        )
    target = curv.weight_part(k)
    if target.is_zero():
        return s_low
    correction, slots = build_ansatz(alg, dim, poly_degree, weights={k})
    linear = tensor_bracket(alg, [correction]).weight_part(k) + target.map_coefficients(
        MPoly.const
    )
    rows, rhs = _linear_rows(linear, len(slots))
    sol = solve_linear(rows, rhs, len(slots))
    if sol is None:
        return Obstruction(
            stage=f"weight {k}",
            witness=target,
            message="the weight-k curvature class is not exact in the correction space",
        )
    return s_low + substitute_slots(alg, dim, slots, sol)


# -- horn filling and path components ---------------------------------------------


def _correct_to_mc(
    alg: SLAlgebra,
    dim: int,
    face_targets: dict[int, TensorElement],
    poly_degree: int,
    seed: Sequence[Fraction] | None = None,
    max_inner: int = 4,
) -> MCSimplex | Obstruction:
    """Search for an MC simplex with prescribed faces.

    A full symbolic ansatz is corrected by a staged Newton iteration: at each
    step the exact curvature is computed, its lowest surviving weight located,
    and one linearized solve (around the current assignment, constrained to
    keep the faces) targets every curvature component of weight at most that.
    Progress is measured by the vanishing weight; if it stalls for
    `max_inner` rounds the residual is reported as an obstruction.  Any
    returned simplex is exact: it is re-checked from scratch.
    """
    ansatz, slots = build_ansatz(alg, dim, poly_degree)
    n = len(slots)
    face_rows: list[list[Fraction]] = []
    face_rhs: list[Fraction] = []
    for idx, target in sorted(face_targets.items()):
        rows, rhs = _linear_rows(ansatz.face(idx) - target.map_coefficients(MPoly.const), n)
        face_rows.extend(rows)
        face_rhs.extend(rhs)
    if seed is None:
        base = solve_linear(face_rows, face_rhs, n)
        if base is None:
            return Obstruction(
                stage="faces",
                witness=None,
                message=f"no degree <= {poly_degree} element has the prescribed faces",
            )
    else:
        base = [Fraction(v) for v in seed]
    sym_eqs = _equations(tensor_curvature(alg, ansatz))

    current = list(base)
    stall = 0
    last_level = 0
    while True:
        candidate = substitute_slots(alg, dim, slots, current)
        residual = tensor_curvature(alg, candidate)
        if residual.is_zero():
            simplex = MCSimplex(alg, candidate)
            for idx, target in face_targets.items():
                if candidate.face(idx) != target:
                    return Obstruction(
                        stage="faces",
                        witness=candidate.face(idx) - target,
                        message="solver drifted off the prescribed faces",
                    )
            return simplex
        level = residual.min_weight() or alg.nilpotency
        if level > last_level:
            last_level = level
            stall = 0
        else:
            stall += 1
            if stall >= max_inner:
                return Obstruction(
                    stage=f"weight {level}",
                    witness=residual,
                    message=f"correction stalled at polynomial degree <= {poly_degree}",
                )
        env = {i: v for i, v in enumerate(current)}
        rows = [row[:] for row in face_rows]
        rhs = list(face_rhs)
        for w, eq in sym_eqs:
            if w > level:
                continue
            val = eq.evaluate(env).constant_value()
            row = [Fraction(0)] * n
            touched = val != 0
            for v in eq.variables():
                g = eq.partial(v).evaluate(env).constant_value()
                if g:
                    row[v] = g
                    touched = True
            if touched:
                rows.append(row)
                rhs.append(sum(row[v] * env[v] for v in range(n)) - val)
        sol = solve_linear(rows, rhs, n)
        if sol is None:
            return Obstruction(
                stage=f"weight {level}",
                witness=residual,
                message=f"linearized system inconsistent at polynomial degree <= {poly_degree}",
            )
        if sol == current:
            stall += 1
            if stall >= max_inner:
                return Obstruction(
                    stage=f"weight {level}",
                    witness=residual,
                    message=f"correction stalled at polynomial degree <= {poly_degree}",
                )
        current = sol


def fill_horn(
    alg: SLAlgebra,
    dim: int,
    index: int,
    faces: Sequence[MCSimplex],
    poly_degree: int | None = None,
) -> MCSimplex | Obstruction:
    """Fill a horn in dimension one or two.

    `faces` lists the prescribed faces d_j for every j != index, in
    increasing j.  The filler, when found, satisfies the curvature equation
    exactly and reproduces the listed faces; failures come back as
    `Obstruction` values describing the blocking weight.
    """
    if poly_degree is None:
        poly_degree = DEFAULT_SOLVE_DEGREE
    if dim not in (1, 2):
        raise InputError(f"horn filling is implemented for dimensions 1 and 2, got {dim}")
    if not 0 <= index <= dim:
        raise InputError(f"horn index {index} out of range 0..{dim}")
    expected = [j for j in range(dim + 1) if j != index]
    if len(faces) != len(expected):
        raise InputError(f"horn in dimension {dim} needs {len(expected)} faces, got {len(faces)}")
    for f in faces:
        if f.algebra != alg:
            raise InputError("face simplex lives in a different algebra")
        if f.dim != dim - 1:
            raise InputError(f"face has dimension {f.dim}, expected {dim - 1}")

    if dim == 1:
        point = faces[0]
        return MCSimplex(alg, point.value.degeneracy(0))

    j, k = expected
    fj, fk = faces
    if fj.value.face(k - 1) != fk.value.face(j):
        raise InputError(
            f"incompatible horn: face {k - 1} of the d_{j} face differs from face {j} of the d_{k} face"
        )
    for f in faces:
        for m in (0, 1):
            candidate = f.value.degeneracy(m)
            if candidate.face(j) == fj.value and candidate.face(k) == fk.value:
                return MCSimplex(alg, candidate)
    targets = {j: fj.value, k: fk.value}
    return _correct_to_mc(alg, 2, targets, poly_degree)


def connect_points(
    alg: SLAlgebra,
    p: MCSimplex,
    q: MCSimplex,
    poly_degree: int | None = None,
) -> MCSimplex | Obstruction:
    """Search for a 1-simplex from p to q (face 1 = p, face 0 = q)."""
    if poly_degree is None:
        poly_degree = DEFAULT_SOLVE_DEGREE
    if p.dim != 0 or q.dim != 0:
        raise InputError("connecting requires two 0-simplices")
    if p.algebra != alg or q.algebra != alg:
        raise InputError("points live in a different algebra")
    return _correct_to_mc(alg, 1, {1: p.value, 0: q.value}, poly_degree)


@dataclass(frozen=True)
class Pi0Result:
    """Path components of a finite point sample, with certificates."""

    classes: tuple[tuple[int, ...], ...]
    certificates: dict[tuple[int, int], MCSimplex]
    poly_degree: int

    def class_of(self, i: int) -> int:
        for idx, cls in enumerate(self.classes):
            if i in cls:
                return idx
        raise InputError(f"point index {i} was not part of the sample")

    def connected(self, i: int, j: int) -> bool:
        return self.class_of(i) == self.class_of(j)


def pi0(alg: SLAlgebra, points: Sequence[MCSimplex], poly_degree: int | None = None) -> Pi0Result:
    """Partition points by connectability with 1-simplices of bounded degree.

    Merges are always certified by an explicit connecting simplex; a
    non-merge only means no connection was found at this polynomial degree.
    """
    if poly_degree is None:
        poly_degree = DEFAULT_SOLVE_DEGREE
    for p in points:
        if p.dim != 0:
            raise InputError("path components are computed from 0-simplices")
        if p.algebra != alg:
            raise InputError("point lives in a different algebra")
    parent = list(range(len(points)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    certificates: dict[tuple[int, int], MCSimplex] = {}
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if find(i) == find(j):
                continue
            found = connect_points(alg, points[i], points[j], poly_degree)
            if isinstance(found, Obstruction):
                back = connect_points(alg, points[j], points[i], poly_degree)
                if isinstance(back, Obstruction):
                    continue
                certificates[(j, i)] = back
            else:
                certificates[(i, j)] = found
            parent[find(j)] = find(i)
    buckets: dict[int, list[int]] = {}
    for i in range(len(points)):
        buckets.setdefault(find(i), []).append(i)
    classes = tuple(tuple(sorted(v)) for _, v in sorted(buckets.items()))
    return Pi0Result(classes, certificates, poly_degree)


# -- direct sums -----------------------------------------------------------------


def split_tensor(
    summands: tuple[SLAlgebra, SLAlgebra],
    renamings: tuple[dict[str, str], dict[str, str]],
    x: TensorElement,
) -> tuple[TensorElement, TensorElement]:
    """Split a tensor element of a direct sum into its two components."""
    out = []
    for alg, ren in zip(summands, renamings):
        inverse = {v: k for k, v in ren.items()}
        terms = {
            inverse[s]: f for s, f in x.terms.items() if s in inverse
        }
        out.append(TensorElement(alg, x.dim, terms))
    return out[0], out[1]


def combine_tensor(
    total: SLAlgebra,
    renamings: tuple[dict[str, str], dict[str, str]],
    parts: tuple[TensorElement, TensorElement],
) -> TensorElement:
    """Assemble a tensor element of a direct sum from componentwise data."""
    terms: dict[str, PolyForm] = {}
    for ren, part in zip(renamings, parts):
        for s, f in part.terms.items():
            terms[ren[s]] = f
    return TensorElement(total, parts[0].dim, terms)
