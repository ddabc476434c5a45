"""Seeded job lists for the four benchmark workloads, with exact oracles.

A workload turns (seed, pass index) into a list of `Job`s.  Every pass gets
fresh coefficients drawn from ``Random(f"{workload}:{seed}:{pass}")`` but the
same structure, so passes cost the same while no input repeats across
passes (a memo keyed on inputs gets no free hits from the repetition).
slmc only ever sees the generated model text, parsed by `parse_model`, and
the objects built from it.

Each job calls slmc's public API once; `check` is the job's oracle and runs
outside the timed span.  A job may read the answers of earlier jobs of its
pass (`deps`), which is how identities such as associativity of composition
are checked without extra work: both sides are jobs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import slmc as S
import slmc.cli
from slmc import fixtures as slmc_fixtures
from slmc.properties import SUITES


class Refused(Exception):
    """slmc declined a job that the generator built as valid."""


@dataclass
class Job:
    kind: str
    key: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], str | None]
    render: Callable[[Any], str]
    deps: tuple[str, ...] = ()


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _coef(rng: random.Random) -> Fraction:
    """A nonzero rational with numerator in +-1..3 and denominator in 1..3."""
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def _ok(cond: bool, message: str) -> str | None:
    return None if cond else message


def _render_violations(viols) -> str:
    return "[]" if not viols else "\n".join(v.describe() for v in viols)


def _render_simplex(alg_name: str):
    def render(simplex) -> str:
        return S.render_simplex(S.SimplexDecl("s", alg_name, simplex.value))

    return render


# =============================================================================
# deep: chain algebras {x1^k} = z_k with long words; Taylor/shuffle sums.
# =============================================================================

# (N, number of weight-1 symbols).  Basis: x1..xa (deg 0, wt 1), z_k (deg 1,
# wt k) for k = 2..N-1, and a central u (deg 0, wt N-1): dims 6, 7, 7, 8.
# Composition at N = 8 costs about 0.6 s, so associativity (two more
# composites) is checked on N = 5..7 only.
DEEP_LEVELS = ((5, 2), (6, 2), (7, 1), (8, 1))
DEEP_ASSOC_MAX_N = 7
DEEP_PUSHES = 3


def chain_algebra_text(name: str, n_ord: int, a: int, central: bool = True) -> str:
    """{x1^k} = z_k and {x2^k} = -z_k for k = 2..N-1; z's are terminal."""
    lines = [f"algebra {name}"]
    lines += [f"basis x{i} deg 0 wt 1" for i in range(1, a + 1)]
    lines += [f"basis z{k} deg 1 wt {k}" for k in range(2, n_ord)]
    if central:
        lines.append(f"basis u deg 0 wt {n_ord - 1}")
    lines.append(f"nilpotency {n_ord}")
    for k in range(2, n_ord):
        lines.append(f"bracket {k} [ {' '.join(['x1'] * k)} ] -> 1 z{k}")
        if a >= 2:
            lines.append(f"bracket {k} [ {' '.join(['x2'] * k)} ] -> -1 z{k}")
    return "\n".join(lines) + "\n"


def _chain_morphism_text(name: str, alg: str, n_ord: int, a: int, rng: random.Random) -> str:
    """An endomorphism with arity >= 2 Taylor coefficients into the central u.

    Linear part x -> lam x, z_k -> lam^k z_k, u -> mu u is strict; every
    coefficient on a word of x's of length m >= 2 is c_w u.  Since u is
    central and z's are terminal, the morphism equation holds for any
    lam, mu, c_w, so the generator knows the answer of check_morphism.
    """
    lam, mu = _coef(rng), _coef(rng)
    lines = [f"morphism {name} : {alg} -> {alg}"]
    lines += [f"taylor 1 [ x{i} ] -> {lam} x{i}" for i in range(1, a + 1)]
    lines += [f"taylor 1 [ z{k} ] -> {lam ** k} z{k}" for k in range(2, n_ord)]
    lines.append(f"taylor 1 [ u ] -> {mu} u")
    xs = [f"x{i}" for i in range(1, a + 1)]
    for m in range(2, n_ord):
        for word in itertools.combinations_with_replacement(xs, m):
            lines.append(f"taylor {m} [ {' '.join(word)} ] -> {_coef(rng)} u")
    return "\n".join(lines) + "\n"


def _deep_mc(alg, a: int, rng: random.Random):
    """c (x1 + x2) + d u is flat: the x1^k and x2^k brackets cancel."""
    terms = {"u": _coef(rng)}
    if a >= 2:
        c = _coef(rng)
        terms.update({"x1": c, "x2": c})
    return alg.element(terms)


def _same_morphism(a, b) -> bool:
    return a.source == b.source and a.target == b.target and a.taylor == b.taylor


def build_deep(seed: int, pass_index: int, golden: dict) -> list[Job]:
    rng = _rng("deep", seed, pass_index)
    chunks = []
    for n_ord, a in DEEP_LEVELS:
        alg = f"D{n_ord}"
        chunks.append(chain_algebra_text(alg, n_ord, a))
        for name in "fgh" if n_ord <= DEEP_ASSOC_MAX_N else "fg":
            chunks.append(_chain_morphism_text(f"{name}{n_ord}", alg, n_ord, a, rng))
    env = S.parse_model("\n".join(chunks)).env
    jobs: list[Job] = []
    for n_ord, a in DEEP_LEVELS:
        alg = env.algebras[f"D{n_ord}"]
        f, g, h = (env.morphisms.get(f"{name}{n_ord}") for name in "fgh")
        alphas = [_deep_mc(alg, a, rng) for _ in range(DEEP_PUSHES)]
        for alpha in alphas:
            if not S.is_mc(alg, alpha):
                raise AssertionError("generator built a non-flat element")
        jobs += _deep_level_jobs(f"N{n_ord}", alg, f, g, h, alphas)
    return jobs


def _deep_level_jobs(p: str, alg, f, g, h, alphas) -> list[Job]:
    n_ord = alg.nilpotency
    jobs = [
        Job(
            "check_relations",
            f"{p}:relations",
            lambda res: S.check_relations(alg, max_arity=n_ord - 1),
            lambda r, res: _ok(r == [], "relations fail on a valid algebra"),
            _render_violations,
        ),
        Job(
            "check_morphism",
            f"{p}:check_f",
            lambda res: S.check_morphism(f),
            lambda r, res: _ok(r == [], "morphism equation fails on a valid morphism"),
            _render_violations,
        ),
        Job("compose_infty", f"{p}:gf", lambda res: S.compose_infty(g, f), lambda r, res: None, S.render_morphism),
    ]
    if n_ord <= DEEP_ASSOC_MAX_N:
        jobs += _deep_assoc_jobs(p, f, g, h)
    jobs += _deep_push_jobs(p, alg, f, g, alphas)
    jobs.append(_deep_twist_job(p, f, alphas))
    return jobs


def _deep_assoc_jobs(p: str, f, g, h) -> list[Job]:
    """h(gf) and (hg)f are both timed jobs; the oracle compares their tables."""
    return [
        Job("compose_infty", f"{p}:hg", lambda res: S.compose_infty(h, g), lambda r, res: None, S.render_morphism),
        Job(
            "compose_infty",
            f"{p}:h(gf)",
            lambda res: S.compose_infty(h, res[f"{p}:gf"]),
            lambda r, res: None,
            S.render_morphism,
            deps=(f"{p}:gf",),
        ),
        Job(
            "compose_infty",
            f"{p}:(hg)f",
            lambda res: S.compose_infty(res[f"{p}:hg"], f),
            lambda r, res: _ok(_same_morphism(r, res[f"{p}:h(gf)"]), "h(gf) != (hg)f"),
            S.render_morphism,
            deps=(f"{p}:hg", f"{p}:h(gf)"),
        ),
    ]


def _deep_push_jobs(p: str, alg, f, g, alphas) -> list[Job]:
    """f_* a, g_*(f_* a) and (gf)_* a: flat, and the last two agree."""

    def is_flat(r, res):
        return _ok(S.is_mc(alg, r), "pushforward of a flat element is not flat")

    jobs = []
    for i, alpha in enumerate(alphas):
        fa, gfa = f"{p}:f*a{i}", f"{p}:g*f*a{i}"
        jobs += [
            Job("pushforward", fa, functools.partial(lambda res, x: S.pushforward(f, x), x=alpha), is_flat, S.render_element),
            Job(
                "pushforward",
                gfa,
                functools.partial(lambda res, k: S.pushforward(g, res[k]), k=fa),
                is_flat,
                S.render_element,
                deps=(fa,),
            ),
            Job(
                "pushforward",
                f"{p}:(gf)*a{i}",
                functools.partial(lambda res, x: S.pushforward(res[f"{p}:gf"], x), x=alpha),
                functools.partial(lambda r, res, k: _ok(r == res[k], "(gf)_* != g_* f_*"), k=gfa),
                S.render_element,
                deps=(f"{p}:gf", gfa),
            ),
        ]
    return jobs


def _deep_twist_job(p: str, f, alphas) -> Job:
    def check_twist(tw, res):
        # F^a_*(b) = F_*(a + b) - F_*(a) for b flat in the a-twist; here
        # a + b = alphas[1], so b = alphas[1] - alphas[0].
        beta = alphas[1] - alphas[0]
        if not S.is_mc(tw.source, beta):
            return "shifted flat element is not flat in the twisted source"
        pushed = S.pushforward(tw, beta)
        if pushed != res[f"{p}:f*a1"] - res[f"{p}:f*a0"]:
            return "F^a_*(b) != F_*(a+b) - F_*(a)"
        return _ok(S.is_mc(tw.target, pushed), "twisted pushforward is not flat")

    return Job(
        "twist_morphism",
        f"{p}:f^a0",
        lambda res: S.twist_morphism(f, alphas[0]),
        check_twist,
        S.render_morphism,
        deps=(f"{p}:f*a0", f"{p}:f*a1"),
    )


# =============================================================================
# wide: k-fold sums of heis_ext and mixed, N = 3, dim 10..30; short words.
# =============================================================================

WIDE_COPIES = 6
WIDE_KS = (2, 3, 4, 5, 6)
WIDE_FAMILIES = ("H", "M", "HM")


def heis_text(name: str, suffix: str, d: Fraction, b: Fraction) -> str:
    """heis_ext with du = d z and {x y} = b z."""
    s = suffix
    return (
        f"algebra {name}\n"
        f"basis x{s} deg 0 wt 1\nbasis y{s} deg 0 wt 1\nbasis z{s} deg 1 wt 2\n"
        f"basis u{s} deg 0 wt 2\nbasis w{s} deg 0 wt 2\nnilpotency 3\n"
        f"differential u{s} -> {d} z{s}\n"
        f"bracket 2 [ x{s} y{s} ] -> {b} z{s}\n"
    )


def mixed_text(name: str, suffix: str, b1: Fraction, b2: Fraction) -> str:
    """mixed with {p1 p2} = b1 r and {q p1} = b2 s."""
    s = suffix
    return (
        f"algebra {name}\n"
        f"basis q{s} deg 0 wt 1\nbasis p1{s} deg -1 wt 1\nbasis p2{s} deg -1 wt 1\n"
        f"basis s{s} deg 0 wt 2\nbasis r{s} deg -1 wt 2\nnilpotency 3\n"
        f"bracket 2 [ p1{s} p2{s} ] -> {b1} r{s}\n"
        f"bracket 2 [ q{s} p1{s} ] -> {b2} s{s}\n"
    )


@dataclass
class _Part:
    """One summand: kind "H" (heis_ext) or "M" (mixed), symbol suffix, and the
    two structure constants passed to `heis_text` / `mixed_text`."""

    kind: str
    suffix: str
    c1: Fraction
    c2: Fraction


def _wide_curvature(parts: list[_Part], terms: dict) -> dict:
    """Closed form: curv = sum over heis parts of (d a_u + b a_x a_y) z."""
    out = {}
    for part in parts:
        if part.kind != "H":
            continue
        s = part.suffix
        c = part.c1 * terms.get(f"u{s}", 0) + part.c2 * terms.get(f"x{s}", 0) * terms.get(f"y{s}", 0)
        if c:
            out[f"z{s}"] = Fraction(c)
    return out


def _wide_degree0(parts: list[_Part], rng: random.Random, flat: bool) -> dict:
    terms = {}
    for part in parts:
        s = part.suffix
        if part.kind == "H":
            x, y, w = _coef(rng), _coef(rng), _coef(rng)
            u = -part.c2 * x * y / part.c1 if flat else _coef(rng)
            terms.update({f"x{s}": x, f"y{s}": y, f"u{s}": u, f"w{s}": w})
        else:
            terms.update({f"q{s}": _coef(rng), f"s{s}": _coef(rng)})
    return terms


def build_wide(seed: int, pass_index: int, golden: dict) -> list[Job]:
    rng = _rng("wide", seed, pass_index)
    parts = {
        kind: [_Part(kind, f"_{i}", _coef(rng), _coef(rng)) for i in range(WIDE_COPIES)]
        for kind in "HM"
    }
    raw = {kind: _Part(kind, "", _coef(rng), _coef(rng)) for kind in "HM"}
    chunks = []
    for kind, make in (("H", heis_text), ("M", mixed_text)):
        for part in parts[kind]:
            chunks.append(make(f"{kind}{part.suffix}", part.suffix, part.c1, part.c2))
        chunks.append(make(f"{kind}_raw", "", raw[kind].c1, raw[kind].c2))
    env = S.parse_model("\n".join(chunks)).env

    def alg_of(part: _Part):
        return env.algebras[f"{part.kind}{part.suffix or '_raw'}"]

    families = {
        "H": parts["H"],
        "M": parts["M"],
        "HM": [parts["H" if i % 2 == 0 else "M"][i] for i in range(WIDE_COPIES)],
    }
    jobs: list[Job] = []
    # Known defect (ROADMAP 4(i)): left-nesting direct_sum on copies with the
    # same symbols raises InputError from depth 4 on.  These standalone sums
    # feed no later job; their refusals count in fail_ratio.
    for kind in "HM":
        jobs += [_nested_sum_job(kind, alg_of(raw[kind]), k) for k in WIDE_KS]
    for fam in WIDE_FAMILIES:
        for k in WIDE_KS:
            jobs += _wide_sum_jobs(f"{fam}{k}", families[fam][:k], [alg_of(x) for x in families[fam][:k]], rng)
    return jobs


def _table_size(alg) -> int:
    return sum(map(len, alg.brackets.values()))


def _nested_sum_job(kind: str, alg, k: int) -> Job:
    """direct_sum(...direct_sum(direct_sum(a, a), a)..., a) with k copies."""

    def check(r, res):
        return _ok(
            len(set(r.space.symbols())) == 5 * k and _table_size(r) == k * _table_size(alg),
            "nested sum lost symbols or table entries",
        )

    return Job(
        "direct_sum",
        f"nested:{kind}{k}",
        lambda res: functools.reduce(S.direct_sum, [alg] * k),
        check,
        S.render_algebra,
    )


def _wide_sum_jobs(p: str, parts: list[_Part], algs: list, rng: random.Random) -> list[Job]:
    """Six jobs per sum.  With the 10 nested-sum jobs a pass has 100 jobs, and
    p90 falls inside the group of the three k = 3 relation scans."""
    key = f"sum:{p}"
    n_entries = sum(map(_table_size, algs))
    symbols = tuple(s for a in algs for s in a.space.symbols())

    def check_sum(r, res):
        return _ok(
            r.space.symbols() == symbols and _table_size(r) == n_entries,
            "direct sum lost or renamed symbols",
        )

    jobs = [
        Job("direct_sum", key, lambda res: functools.reduce(S.direct_sum, algs), check_sum, S.render_algebra),
        Job(
            "check_relations",
            f"{p}:relations",
            lambda res: S.check_relations(res[key]),
            lambda r, res: _ok(r == [], "relations fail on a valid sum"),
            _render_violations,
            deps=(key,),
        ),
    ]
    terms = _wide_degree0(parts, rng, flat=False)
    expected = _wide_curvature(parts, terms)
    jobs.append(
        Job(
            "curvature",
            f"{p}:curv",
            lambda res: S.curvature(res[key], res[key].element(terms)),
            lambda r, res: _ok(r.terms == expected, "curvature differs from closed form"),
            S.render_element,
            deps=(key,),
        )
    )
    for i, flat in enumerate((True, False)):
        candidate = _wide_degree0(parts, rng, flat=flat)
        candidate_flat = not _wide_curvature(parts, candidate)
        jobs.append(
            Job(
                "is_mc",
                f"{p}:is_mc{i}",
                functools.partial(lambda res, t: S.is_mc(res[key], res[key].element(t)), t=candidate),
                functools.partial(lambda r, res, e: _ok(r is e, "is_mc differs from closed form"), e=candidate_flat),
                str,
                deps=(key,),
            )
        )
    alpha = _wide_degree0(parts, rng, flat=True)
    other = _wide_degree0(parts, rng, flat=True)
    probe = _wide_degree0(parts, rng, flat=False)
    probe_flat = not _wide_curvature(parts, probe)

    def check_twist(tw, res):
        # b is flat in the a-twist iff a + b is flat in the algebra.
        alg = res[key]
        a = alg.element(alpha)
        got = [S.is_mc(tw, alg.element(other) - a), S.is_mc(tw, alg.element(probe) - a)]
        return _ok(got == [True, probe_flat], "twisted algebra has the wrong flat elements")

    jobs.append(
        Job(
            "twist_algebra",
            f"{p}:twist",
            lambda res: S.twist_algebra(res[key], res[key].element(alpha)),
            check_twist,
            S.render_algebra,
            deps=(key,),
        )
    )
    return jobs


# =============================================================================
# simplicial: flat simplices on contractible, mixed and their sum.
# =============================================================================


def _contractible_text(c: Fraction) -> str:
    return (
        "algebra C\nbasis e deg 0 wt 1\nbasis h deg -1 wt 1\nnilpotency 2\n"
        f"differential h -> {c} e\n"
    )


def _form1(coeffs: dict) -> dict:
    """{(exponent,), dts}: c entries of a form on the 1-simplex."""
    return {k: v for k, v in coeffs.items() if v}


class _Paths:
    """Closed-form flat 1-simplices.

    On C (dh = c e): e (x) f(t) - (1/c) h (x) f'(t) dt.
    On M ({q p1} = b2 s): q (x) a + p1 (x) g1 dt + p2 (x) g2 dt + r (x) g3 dt
    + s (x) (s0 - b2 a G1(t)), with G1 the primitive of g1 vanishing at 0.
    Both are flat for every choice of f, a, g1, g2, g3, s0.
    """

    def __init__(self, c: Fraction, b2: Fraction, rng: random.Random):
        self.c, self.b2, self.rng = c, b2, rng

    def c_terms(self, f: list[Fraction]) -> dict:
        e = {((i,), ()): v for i, v in enumerate(f)}
        h = {((i - 1,), (1,)): -i * v / self.c for i, v in enumerate(f) if i}
        return {"e": _form1(e), "h": _form1(h)}

    def c_path(self, start: Fraction, deg: int, end: Fraction | None = None) -> dict:
        f = [start] + [_coef(self.rng) for _ in range(deg)]
        if end is not None:  # fix the value at t = 1 through the linear term
            f[1] += end - sum(f)
        return self.c_terms(f)

    def m_terms(self, a: Fraction, g1: list[Fraction], s0: Fraction) -> dict:
        s = {((0,), ()): s0}
        for i, v in enumerate(g1):
            s[((i + 1,), ())] = -self.b2 * a * v / (i + 1)
        return {
            "q": _form1({((0,), ()): a}),
            "p1": _form1({((i,), (1,)): v for i, v in enumerate(g1)}),
            "p2": _form1({((0,), (1,)): _coef(self.rng)}),
            "r": _form1({((1,), (1,)): _coef(self.rng)}),
            "s": _form1(s),
        }

    def m_path(self, a: Fraction, s0: Fraction, g1_deg: int, end: Fraction | None = None) -> dict:
        g1 = [_coef(self.rng) for _ in range(g1_deg + 1)]
        if end is not None:  # choose s0 so that s(1) = end
            s0 = end + self.b2 * a * sum(v / (i + 1) for i, v in enumerate(g1))
        return self.m_terms(a, g1, s0)


def _end_value(terms: dict, sym: str) -> Fraction:
    """Value at t = 1 of the 0-form attached to sym."""
    return sum((c for (_, dts), c in terms.get(sym, {}).items() if not dts), Fraction(0))


def _tensor(alg, dim: int, terms: dict):
    return S.TensorElement(alg, dim, {s: S.PolyForm(dim, t) for s, t in terms.items() if t})


def _slot_values(system, x) -> list[Fraction]:
    values = []
    for slot in system.slots:
        form = x.terms.get(slot.symbol)
        values.append(form.terms.get((slot.exps, slot.dts), Fraction(0)) if form else Fraction(0))
    return values


def build_simplicial(seed: int, pass_index: int, golden: dict) -> list[Job]:
    rng = _rng("simplicial", seed, pass_index)
    c, b1, b2 = _coef(rng), _coef(rng), _coef(rng)
    env = S.parse_model(_contractible_text(c) + "\n" + mixed_text("M", "", b1, b2)).env
    C, M = env.algebras["C"], env.algebras["M"]
    CM, ren_c, ren_m = S.direct_sum_with_maps(C, M)
    paths = _Paths(c, b2, rng)
    algs = {"C": C, "M": M, "CM": CM}
    jobs: list[Job] = []

    def simplex(alg_name: str, terms: dict):
        return S.MCSimplex(algs[alg_name], _tensor(algs[alg_name], 1, terms), validate=False)

    def cm_terms(c_terms: dict, m_terms: dict) -> dict:
        out = {ren_c[s]: t for s, t in c_terms.items()}
        out.update({ren_m[s]: t for s, t in m_terms.items()})
        return out

    # -- MCSimplex validation: flat paths pass; perturbed ones fail with the
    # closed-form curvature eps dt on the perturbed symbol as witness.  The
    # validations on CM are the group of like cost that p50 falls in; the
    # counts put p50 in the middle of that group, not near its edge.
    valid = [("C", paths.c_path(_coef(rng), d)) for d in (1, 2, 3, 3) * 2]
    valid += [("M", paths.m_path(_coef(rng), _coef(rng), d)) for d in (0, 1, 1, 2)]
    valid += [("CM", cm_terms(paths.c_path(_coef(rng), 2), paths.m_path(_coef(rng), _coef(rng), 1))) for _ in range(12)]
    first = {alg_name: next(i for i, (a, _) in enumerate(valid) if a == alg_name) for alg_name in algs}
    for i, (alg_name, terms) in enumerate(valid):
        x = _tensor(algs[alg_name], 1, terms)
        jobs.append(
            Job(
                "mc_simplex",
                f"valid{i}:{alg_name}",
                functools.partial(lambda res, a, v: S.MCSimplex(a, v), a=algs[alg_name], v=x),
                lambda r, res: None,
                _render_simplex(alg_name),
            )
        )
    for i, (alg_name, sym) in enumerate((("C", "e"), ("M", "s"), ("CM", ren_m["s"]))):
        terms = valid[first[alg_name]][1]
        eps = _coef(rng)
        bad = {k: dict(v) for k, v in terms.items()}
        bad.setdefault(sym, {})
        bad[sym][((1,), ())] = bad[sym].get(((1,), ()), Fraction(0)) + eps
        witness = _tensor(algs[alg_name], 1, {sym: {((0,), (1,)): eps}})

        def run_bad(res, a=algs[alg_name], v=_tensor(algs[alg_name], 1, bad)):
            try:
                S.MCSimplex(a, v)
            except S.PreconditionError as exc:
                return exc.witness
            return None

        jobs.append(
            Job(
                "mc_simplex",
                f"invalid{i}:{alg_name}",
                run_bad,
                functools.partial(lambda r, res, w: _ok(r == w, "witness differs from closed-form curvature"), w=witness),
                lambda r: repr(r),
            )
        )

    # -- mc_system: a known flat simplex satisfies the system, a perturbed one
    # does not.  Dimension-2 witnesses are degeneracies of flat paths.
    for alg_name, dim, degree in (("C", 1, 2), ("C", 2, 3), ("M", 1, 3), ("M", 2, 2), ("M", 2, 3), ("CM", 1, 4), ("CM", 2, 2)):
        if alg_name == "C":
            terms = paths.c_path(_coef(rng), degree)
        elif alg_name == "M":
            terms = paths.m_path(_coef(rng), _coef(rng), degree - 1)
        else:
            terms = cm_terms(paths.c_path(_coef(rng), degree), paths.m_path(_coef(rng), _coef(rng), degree - 1))
        flat = _tensor(algs[alg_name], 1, terms)
        if dim == 2:
            flat = flat.degeneracy(0)

        def check_system(system, res, flat=flat, dim=dim):
            values = _slot_values(system, flat)
            if system.substitute(values) != flat:
                return "known flat simplex is outside the ansatz"
            if not system.accepts(values):
                return "system rejects a flat simplex"
            # e and s enter no bracket, so adding t1 to either adds exactly
            # (e or s) (x) dt1 to the curvature.
            symbol = "e" if "e" in system.algebra.space else "s"
            t1 = tuple(1 if j == 0 else 0 for j in range(dim))
            bumped = list(values)
            bumped[system.slots.index(S.AnsatzSlot(symbol, t1, ()))] += 1
            return _ok(not system.accepts(bumped), "system accepts a non-flat simplex")

        jobs.append(
            Job(
                "mc_system",
                f"system:{alg_name}:{dim}:{degree}",
                functools.partial(lambda res, a, d, p: S.mc_system(a, d, p), a=algs[alg_name], d=dim, p=degree),
                check_system,
                lambda r: "\n".join(r.render()),
            )
        )

    # -- horns: dimension 1 from points, dimension 2 from pairs of paths.
    for alg_name, terms in (("C", valid[first["C"]][1]), ("M", valid[first["M"]][1])):
        point = simplex(alg_name, terms).face(1)
        for index in (0, 1):
            jobs.append(_horn_job(algs[alg_name], alg_name, 1, index, [point], None, f"horn1:{alg_name}:{index}"))
    # C horns at poly degree 2 and 3.  Mixed horns (indices 1 and 2) all at
    # degree 2, where the search succeeds: their costs are alike, so p90 sits
    # inside this group and not on the edge between two job kinds.
    horns = [("C", 1, 2, 2), ("C", 0, 2, 3), ("C", 2, 2, 2)]
    horns += [("M", index, index // 2, 2) for index in (1, 2) * 4]
    horns = [(alg_name, index, _horn_faces(paths, alg_name, index, deg, rng), degree)
             for alg_name, index, deg, degree in horns]
    for i, (alg_name, index, faces, degree) in enumerate(horns):
        face_simplices = [simplex(alg_name, t) for t in faces]
        jobs.append(_horn_job(algs[alg_name], alg_name, 2, index, face_simplices, degree, f"horn2:{alg_name}:{index}:{i}"))

    # -- pi0: vertices of a chain of flat paths, so all points are connected.
    for alg_name, n_points in (("C", 4), ("M", 4), ("CM", 3)):
        q = _coef(rng)
        c_end, s_end = _coef(rng), _coef(rng)
        chain = []
        for _ in range(n_points - 1):
            c_part, m_part = paths.c_path(c_end, 2), paths.m_path(q, s_end, 1)
            c_end, s_end = _end_value(c_part, "e"), _end_value(m_part, "s")
            chain.append({"C": c_part, "M": m_part}.get(alg_name) or cm_terms(c_part, m_part))
        points = [simplex(alg_name, t).face(1) for t in chain] + [simplex(alg_name, chain[-1]).face(0)]
        jobs.append(_pi0_job(algs[alg_name], alg_name, points, 2))
    return jobs


def _horn_faces(paths: _Paths, alg_name: str, index: int, deg: int, rng: random.Random) -> list[dict]:
    """Faces d_j (j != index, increasing j) of a nondegenerate 2-horn.

    deg is the degree of f on C and of g1 on M.  Index 1: d2 = v0 -> v1 and
    d0 = v1 -> v2.  Index 0: d1 and d2 share their start v0.  Index 2: d0 and
    d1 share their end v2.
    """
    if alg_name == "C":
        def path(start, end=None):
            return paths.c_path(start, deg, end=end)
        sym = "e"
    else:
        q = _coef(rng)

        def path(start, end=None):
            return paths.m_path(q, start, deg, end=end)
        sym = "s"
    if index == 1:
        first = path(_coef(rng))
        return [path(_end_value(first, sym)), first]
    if index == 0:
        v0 = _coef(rng)
        return [path(v0), path(v0)]
    v2 = _coef(rng)
    return [path(_coef(rng), end=v2), path(_coef(rng), end=v2)]


def reference_horn():
    """A compatible dimension-2 horn on mixed: faces d1, d2 share their start
    and have linear p1 coefficients, so a filler of degree 3 exists."""
    rng = random.Random(0)
    c, b1, b2 = _coef(rng), _coef(rng), _coef(rng)
    env = S.parse_model(_contractible_text(c) + "\n" + mixed_text("M", "", b1, b2)).env
    alg = env.algebras["M"]
    paths = _Paths(c, b2, rng)
    q, s0 = _coef(rng), _coef(rng)
    faces = [S.MCSimplex(alg, _tensor(alg, 1, paths.m_path(q, s0, 1))) for _ in range(2)]
    return alg, 2, 0, faces


def _horn_job(alg, alg_name: str, dim: int, index: int, faces, degree, key: str) -> Job:
    given = [j for j in range(dim + 1) if j != index]

    def check(filler, res):
        if isinstance(filler, S.Obstruction):
            raise Refused(f"false obstruction: {filler.describe()}")
        if not S.tensor_curvature(alg, filler.value).is_zero():
            return "filler is not flat"
        for j, face in zip(given, faces):
            if filler.value.face(j) != face.value:
                return f"filler face {j} differs from the horn"
        return None

    return Job(
        "fill_horn",
        key,
        lambda res: S.fill_horn(alg, dim, index, faces, poly_degree=degree),
        check,
        lambda r: r.describe() if isinstance(r, S.Obstruction) else _render_simplex(alg_name)(r),
    )


def _pi0_job(alg, alg_name: str, points, degree: int) -> Job:
    def check(result, res):
        if len(result.classes) != 1:
            raise Refused(f"points joined by known paths left in {len(result.classes)} classes")
        for (i, j), cert in result.certificates.items():
            if not S.tensor_curvature(alg, cert.value).is_zero():
                return "certificate is not flat"
            if cert.value.face(1) != points[i].value or cert.value.face(0) != points[j].value:
                return "certificate does not join its points"
        return None

    def render(result) -> str:
        lines = [repr(result.classes)]
        for (i, j), cert in sorted(result.certificates.items()):
            lines.append(f"{i}->{j}")
            lines.append(_render_simplex(alg_name)(cert))
        return "\n".join(lines)

    return Job("pi0", f"pi0:{alg_name}", lambda res: S.pi0(alg, points, poly_degree=degree), check, render)


# =============================================================================
# zoo: the shipped fixtures; every property suite plus the README CLI calls.
# =============================================================================

ZOO_TRIALS = 10


def fixture_dir() -> Path:
    return Path(S.__file__).resolve().parent / "fixtures"


def _cli_cases() -> list[tuple[list[str], int, str, bool]]:
    """(argv, exit code, expected output prefix, output must match exactly)."""
    fx = fixture_dir()

    def f(name: str) -> str:
        return str(fx / f"{name}.slm")

    return [
        (["check-algebra", f("a2")], 0, "PASS eq:relations algebra=a2 max-arity=4\n", True),
        (["check-algebra", f("a2_broken")], 1, "FAIL eq:relations algebra=a2_broken arity=2 word=x.y", False),
        (["check-algebra", f("heis_ext"), "--max-arity", "3"], 0, "PASS eq:relations algebra=heis_ext max-arity=3\n", True),
        (["check-morphism", f("f2c")], 0, "PASS eq:morphism morphism=f2c", False),
        (["check-morphism", f("f2bad")], 1, "FAIL eq:morphism morphism=f2bad", False),
        (["curv", f("a2"), "--element", "1 x + 1 y"], 0, "1 z\n", True),
        (["twist", f("a2"), "--mc", "1 x"], 0, "algebra a2_twisted\n", False),
        (["push", f("f2c"), "--element", "1 x + 1 y"], 0, "1 x + 1 y + 3/2 w\n", True),
        (["compose", f("incl"), f("id_a2")], 0, "algebra a2\n", False),
        (["compose", "--enhanced", f("enh_w"), f("enh_w")], 0, "algebra heis_ext\n", False),
        (["mc-system", f("a2"), "--dim", "0", "--poly-degree", "0"], 0, "1*c[x]*c[y] = 0\n", True),
        (["mc-check", f("contractible"), "--simplex", f("path")], 0, "PASS eq:mc simplex=path algebra=contractible\n", True),
        (["mc-check", f("mixed"), "--simplex", f("mixed_path")], 0, "PASS eq:mc simplex=mixed_path algebra=mixed\n", True),
        (["fill-horn", f("contractible"), "--dim", "1", "--index", "0", "--faces", f("vertex_e")], 0,
         "PASS eq:horn dim=1 index=0 algebra=contractible\n", False),
        (["pi0", f("contractible"), "--points", f("pt_e"), f("pt_0"), "--poly-degree", "3"], 0,
         "classes=1 points=2 poly-degree=3\n", False),
        (["pi0", f("a2"), "--points", f("a2_pt_0"), f("a2_pt_x"), f("a2_pt_y"), "--poly-degree", "2"], 0,
         "classes=", False),
    ]


def _cli_inputs(argv: list[str]) -> list[str]:
    return [a for a in argv if a.endswith(".slm")]


def build_zoo(seed: int, pass_index: int, golden: dict) -> list[Job]:
    # The inputs are the shipped files; parse them (as the CLI concatenates
    # them) and build the fixture zoo, so set-up pays the real input build.
    for argv, *_ in _cli_cases():
        files = _cli_inputs(argv)
        if argv[0] == "compose":
            for path in files:
                S.parse_model(Path(path).read_text())
        else:
            S.parse_model("\n".join(Path(p).read_text() for p in files))
    slmc_fixtures.algebras()
    slmc_fixtures.morphisms()
    slmc_fixtures.enhanced_fixtures()

    suite_seed = f"{seed}:{pass_index}"
    jobs: list[Job] = []
    for name in sorted(SUITES):
        jobs.append(
            Job(
                "run_suite",
                f"suite:{name}",
                functools.partial(lambda res, n: S.run_suite(n, suite_seed, ZOO_TRIALS), n=name),
                lambda r, res: _ok(bool(r) and all(rep.passed for rep in r), "a property suite failed"),
                lambda r: "\n".join(rep.line() for rep in r),
            )
        )
    for argv, code, expected, exact in _cli_cases():
        key = "cli:" + " ".join([argv[0]] + [Path(a).stem if a.endswith(".slm") else a for a in argv[1:]])

        def run_cli(res, argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = S.cli.main(argv)
            return rc, out.getvalue()

        def check_cli(r, res, key=key, code=code, expected=expected, exact=exact):
            rc, text = r
            if rc != code:
                return f"exit code {rc}, expected {code}"
            if (text != expected) if exact else not text.startswith(expected):
                return f"unexpected output {text[:80]!r}"
            # Same files, same output: every pass must reproduce pass 0.
            return _ok(golden.setdefault(key, text) == text, "output differs from the first pass")

        jobs.append(Job("cli", key, run_cli, check_cli, lambda r: f"exit={r[0]}\n{r[1]}"))
    return jobs


BUILDERS = {
    "deep": build_deep,
    "wide": build_wide,
    "simplicial": build_simplicial,
    "zoo": build_zoo,
}
