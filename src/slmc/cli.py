"""Command-line interface.

Exit codes: 0 all checks passed, 1 mathematical failure (a witness is
printed), 2 malformed input, 3 resource cap exceeded.  All reports are
deterministic for fixed files, flags, and seed.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from .algebra import check_relations, curvature, relation_scan_arity, twist_algebra
from .errors import InputError, PreconditionError, ResourceCapError, SlmcError
from .groupoid import MCSimplex, Obstruction, fill_horn, mc_system, pi0
from .modelio import (
    ModelFile,
    SimplexDecl,
    parse_element_expr,
    parse_model,
    render_algebra,
    render_element,
    render_enhanced,
    render_morphism,
    render_simplex,
)
from .morphism import (
    check_morphism,
    compose_enhanced,
    compose_infty,
    morphism_scan_arity,
    pushforward,
)
from .properties import run_all


def _read(path: str) -> str:
    p = Path(path)
    try:
        return p.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse_file(path: str) -> ModelFile:
    return parse_model(_read(path))


def _parse_files(*paths: str) -> ModelFile:
    """Parse several files as one declaration stream, in argument order.

    Later files may reference names declared in earlier ones; reported line
    numbers refer to the concatenated stream.
    """
    return parse_model("\n".join(_read(p) for p in paths))


def _cmd_check_algebra(args) -> int:
    mf = _parse_file(args.file)
    name = mf._last("algebra")
    alg = mf.env.algebras[name]
    viols = check_relations(alg, max_arity=args.max_arity)
    arity = relation_scan_arity(alg, args.max_arity)
    if not viols:
        print(f"PASS eq:relations algebra={name} max-arity={arity}")
        return 0
    for v in viols:
        print(
            f"FAIL eq:relations algebra={name} arity={v.arity} "
            f"word={'.'.join(v.word)} witness={render_element(v.residual)}"
        )
    return 1


def _cmd_check_morphism(args) -> int:
    mf = _parse_file(args.file)
    name = mf._last("morphism")
    f = mf.env.morphisms[name]
    viols = check_morphism(f, max_arity=args.max_arity)
    arity = morphism_scan_arity(f, args.max_arity)
    if not viols:
        print(f"PASS eq:morphism morphism={name} max-arity={arity}")
        return 0
    for v in viols:
        print(
            f"FAIL eq:morphism morphism={name} arity={v.arity} "
            f"word={'.'.join(v.word)} witness={render_element(v.residual)}"
        )
    return 1


def _cmd_curv(args) -> int:
    mf = _parse_file(args.file)
    alg = mf.primary_algebra()
    a = parse_element_expr(alg.space, args.element)
    print(render_element(curvature(alg, a)))
    return 0


def _cmd_twist(args) -> int:
    mf = _parse_file(args.file)
    name = mf._last("algebra")
    alg = mf.env.algebras[name]
    alpha = parse_element_expr(alg.space, args.mc)
    tw = twist_algebra(alg, alpha)
    text = render_algebra(tw, name=f"{name}_twisted")
    if args.out:
        Path(args.out).write_text(text)
        print(f"PASS twist algebra={name} out={args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_compose(args) -> int:
    outer_mf = _parse_file(args.outer)
    inner_mf = _parse_file(args.inner)
    if args.enhanced:
        outer = outer_mf.primary_enhanced()
        inner = inner_mf.primary_enhanced()
        comp = compose_enhanced(outer, inner)
        src_alg, tgt_alg = comp.source, comp.target_base
    else:
        outer = outer_mf.primary_morphism()
        inner = inner_mf.primary_morphism()
        comp = compose_infty(outer, inner)
        src_alg, tgt_alg = comp.source, comp.target
    src_name = _find_name(inner_mf, src_alg) or "SRC"
    tgt_name = _find_name(outer_mf, tgt_alg) or "TGT"
    chunks = [render_algebra(src_alg, name=src_name)]
    if tgt_alg == src_alg:
        tgt_name = src_name
    else:
        if tgt_name == src_name:
            tgt_name = f"{tgt_name}2"
        chunks.append(render_algebra(tgt_alg, name=tgt_name))
    if args.enhanced:
        chunks.append(render_enhanced(comp, name="composite", src=src_name, tgt=tgt_name))
    else:
        chunks.append(render_morphism(comp, name="composite", src=src_name, tgt=tgt_name))
    print("\n".join(chunks), end="")
    return 0


def _find_name(mf: ModelFile, alg) -> str | None:
    for name, cand in mf.env.algebras.items():
        if cand == alg:
            return name
    return None


def _cmd_push(args) -> int:
    mf = _parse_file(args.file)
    f = mf.primary_morphism()
    a = parse_element_expr(f.source.space, args.element)
    print(render_element(pushforward(f, a)))
    return 0


def _cmd_mc_system(args) -> int:
    mf = _parse_file(args.file)
    alg = mf.primary_algebra()
    system = mc_system(alg, args.dim, args.poly_degree)
    for line in system.render():
        print(line)
    return 0


def _cmd_mc_check(args) -> int:
    mf = _parse_files(args.file, args.simplex)
    decl = mf.primary_simplex()
    alg = mf.env.algebras[decl.algebra_name]
    try:
        MCSimplex(alg, decl.value)
    except PreconditionError as exc:
        residual = SimplexDecl("residual", decl.algebra_name, exc.witness)
        print(f"FAIL eq:mc simplex={decl.name} algebra={decl.algebra_name}")
        print(render_simplex(residual), end="")
        return 1
    print(f"PASS eq:mc simplex={decl.name} algebra={decl.algebra_name}")
    return 0


def _cmd_fill_horn(args) -> int:
    mf = _parse_files(args.file, *args.faces)
    decls = [mf.env.simplices[name] for kind, name in mf.order if kind == "simplex"]
    if len(decls) != args.dim:
        raise InputError(
            f"horn in dimension {args.dim} needs {args.dim} face simplices, got {len(decls)}"
        )
    alg_name = decls[0].algebra_name
    for d in decls:
        if d.algebra_name != alg_name:
            raise InputError("horn faces name different algebras")
    alg = mf.env.algebras[alg_name]
    faces = [MCSimplex(alg, d.value) for d in decls]
    result = fill_horn(alg, args.dim, args.index, faces, poly_degree=args.poly_degree)
    if isinstance(result, Obstruction):
        print(f"FAIL eq:horn dim={args.dim} index={args.index} {result.describe()}")
        return 1
    print(f"PASS eq:horn dim={args.dim} index={args.index} algebra={alg_name}")
    print(render_simplex(SimplexDecl("filler", alg_name, result.value)), end="")
    return 0


def _cmd_pi0(args) -> int:
    mf = _parse_files(args.file, *args.points)
    names = [name for kind, name in mf.order if kind == "element"]
    if not names:
        raise InputError("no element declarations found in the point files")
    alg_names = {mf.env.elements[n][0] for n in names}
    if len(alg_names) != 1:
        raise InputError("points name different algebras")
    alg = mf.env.algebras[alg_names.pop()]
    points = [MCSimplex.point(alg, mf.env.elements[n][1]) for n in names]
    result = pi0(alg, points, poly_degree=args.poly_degree)
    print(
        f"classes={len(result.classes)} points={len(points)} "
        f"poly-degree={result.poly_degree}"
    )
    for idx, cls in enumerate(result.classes):
        print(f"class {idx} : " + " ".join(names[i] for i in cls))
    for (i, j), cert in sorted(result.certificates.items()):
        print(f"certificate {names[i]} -> {names[j]}")
        print(render_simplex(SimplexDecl(f"path_{i}_{j}", _find_name(mf, alg) or "L", cert.value)), end="")
    return 0


def _cmd_properties(args) -> int:
    reports = run_all(seed=args.seed, trials=args.trials)
    ok = True
    for r in reports:
        print(r.line())
        ok = ok and r.passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slmc",
        description="Exact computations with filtered shifted L-infinity algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-algebra", help="verify the generalized Jacobi relations")
    p.add_argument("file")
    p.add_argument("--max-arity", type=int, default=None)
    p.set_defaults(func=_cmd_check_algebra)

    p = sub.add_parser("check-morphism", help="verify the morphism equations")
    p.add_argument("file")
    p.add_argument("--max-arity", type=int, default=None)
    p.set_defaults(func=_cmd_check_morphism)

    p = sub.add_parser("curv", help="curvature of a degree-0 element")
    p.add_argument("file")
    p.add_argument("--element", required=True)
    p.set_defaults(func=_cmd_curv)

    p = sub.add_parser("twist", help="twist an algebra by a flat element")
    p.add_argument("file")
    p.add_argument("--mc", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("compose", help="compose two morphism files (outer inner)")
    p.add_argument("outer")
    p.add_argument("inner")
    p.add_argument("--enhanced", action="store_true")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("push", help="push a flat element along a morphism")
    p.add_argument("file")
    p.add_argument("--element", required=True)
    p.set_defaults(func=_cmd_push)

    p = sub.add_parser("mc-system", help="polynomial equations of the solution variety")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--poly-degree", type=int, required=True)
    p.set_defaults(func=_cmd_mc_system)

    p = sub.add_parser("mc-check", help="check a simplex against the flatness equation")
    p.add_argument("file")
    p.add_argument("--simplex", required=True)
    p.set_defaults(func=_cmd_mc_check)

    p = sub.add_parser("fill-horn", help="fill a horn built from face simplices")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--faces", nargs="+", required=True)
    p.add_argument("--poly-degree", type=int, default=None)
    p.set_defaults(func=_cmd_fill_horn)

    p = sub.add_parser("pi0", help="path components of sampled flat points")
    p.add_argument("file")
    p.add_argument("--points", nargs="+", required=True)
    p.add_argument("--poly-degree", type=int, default=None)
    p.set_defaults(func=_cmd_pi0)

    p = sub.add_parser("properties", help="run every identity suite over the fixtures")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=_cmd_properties)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"FAIL {exc}")
        if exc.witness is not None:
            print(f"witness={exc.witness!r}")
        return 1
    except InputError as exc:
        print(f"error: {exc}")
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}")
        return 3
    except SlmcError as exc:
        print(f"FAIL {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
