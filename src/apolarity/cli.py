"""Command-line interface binding the library modules.

Exit status: 0 on success, 1 when a verification fails, 2 on usage errors,
3 on an internal error (an unexpected exception inside a command).
Every subcommand accepts --json for machine output and --out to write the
report to a file; outputs are deterministic for fixed inputs and seeds.
Each command imports the library modules it runs inside its handler, so a
start compiles only those (`verify-theorem` loads no polynomial code).  A
command builds only the output it writes, its text lines or its --json
payload, and loads `json` only for --json.
"""

from __future__ import annotations

import argparse
import random
import sys


def _add_common(sub, base_default: int | None = None):
    """--json and --out, and --base for a command that reads or prints
    polynomials."""
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub.add_argument("--out", metavar="PATH", help="write the report to PATH")
    if base_default is not None:
        sub.add_argument(
            "--base",
            type=int,
            choices=(0, 1),
            default=base_default,
            help=f"variable index base (default {base_default})",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apolarity",
        description=(
            "Exact apolarity computations: spaces of partials, Hilbert-function "
            "decompositions, admissible-decomposition enumeration, and cactus-rank "
            "bound verification for cubic forms."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("diff", help="dimension and Hilbert function of Diff(f)")
    p.add_argument("--f", required=True, help="polynomial, e.g. 'x1^2*x2 + x2^2'")
    p.add_argument("--nvars", type=int, required=True)
    _add_common(p, 1)

    p = commands.add_parser("hilbert", help="Hilbert function and symmetric decomposition")
    p.add_argument("--f", required=True)
    p.add_argument("--nvars", type=int, required=True)
    _add_common(p, 1)

    p = commands.add_parser("annihilator", help="dual polynomials killing f, up to a degree")
    p.add_argument("--f", required=True)
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None,
                   help="degree bound (default deg f + 1)")
    _add_common(p, 1)

    p = commands.add_parser(
        "local-length", help="natural apolar scheme of a form at a linear support"
    )
    p.add_argument("--f", required=True, help="homogeneous form (variables from x0)")
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--at", required=True, metavar="LINEAR", help="support linear form")
    _add_common(p, 0)

    p = commands.add_parser("enumerate", help="admissible (H, Delta) candidates for a length")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nonsmoothable-only", action="store_true")
    _add_common(p)

    p = commands.add_parser("bounds", help="dimension bound v(3, Delta, n) per candidate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=int, help="evaluate all candidates of this length")
    p.add_argument("--f", help="or: evaluate the decomposition of this polynomial")
    p.add_argument("--nvars", type=int, help="variable count for --f")
    p.add_argument("--nonsmoothable-only", action="store_true")
    _add_common(p, 1)

    p = commands.add_parser("verify-theorem", help="generic-cubic cactus rank verification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--no-filter", action="store_true",
                   help="include smoothable candidates (informational)")
    _add_common(p)

    p = commands.add_parser("exotic-extend", help="hidden-variable extension of f")
    p.add_argument("--f", required=True)
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--phi", action="append", default=[], required=False,
                   help="dual operator of order >= 2 (repeatable)")
    _add_common(p, 1)

    p = commands.add_parser("cusp-witness", help="length <= 7 apolar witness for a cubic surface")
    p.add_argument("--f", help="cubic in x0, x1, x2 with nonzero x2^3 coefficient")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=0, help="additional random general cubics")
    _add_common(p, 0)

    p = commands.add_parser("selftest", help="re-run the built-in worked examples")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", metavar="PATH")

    return parser


def _write(args, output: str) -> None:
    """Write the report to --out if given, else to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output)
    else:
        sys.stdout.write(output)


def _emit(args, text_lines, payload) -> None:
    """Write the payload as JSON with --json, else the text lines; both are
    zero-argument callables, and only the one written is called."""
    if args.json:
        import json

        _write(args, json.dumps(payload(), indent=2) + "\n")
    else:
        _write(args, "\n".join(text_lines()) + "\n")


def _cmd_diff(args) -> int:
    from .apolar import diff_space
    from .poly import PRIMAL, parse, poly_str

    f = parse(args.f, args.nvars, side=PRIMAL, base=args.base)
    space = diff_space(f)
    partials = tuple(zip(space.rows, space.degrees, space.orders))
    _emit(args, lambda: [
        f"dim_Diff = {space.dim}",
        "hilbert = (" + ",".join(map(str, space.hilbert_values())) + ")",
        "partials (degree, order):",
        *(f"  ({d}, {o})  {poly_str(r, base=args.base)}" for r, d, o in partials),
    ], lambda: {
        "dim": space.dim,
        "hilbert": list(space.hilbert_values()),
        "partials": [{"degree": d, "order": o, "partial": poly_str(r, base=args.base)}
                     for r, d, o in partials],
    })
    return 0


def _cmd_hilbert(args) -> int:
    from .hilbert import embedding_dims, symmetric_decomposition
    from .poly import PRIMAL, parse

    f = parse(args.f, args.nvars, side=PRIMAL, base=args.base)
    decomposition = symmetric_decomposition(f)
    dims = embedding_dims(decomposition)
    _emit(args, lambda: [
        decomposition.arrow_str(),
        "embedding_dims = (" + ",".join(map(str, dims)) + ")",
    ], lambda: {
        "H": list(decomposition.hilbert()),
        "d": decomposition.d,
        "deltas": [list(r) for r in decomposition.trimmed_rows()],
        "embedding_dims": list(dims),
    })
    return 0


def _cmd_annihilator(args) -> int:
    from .apolar import _generators, _kernel_and_length, annihilator_stabilized
    from .poly import PRIMAL, parse, poly_str

    f = parse(args.f, args.nvars, side=PRIMAL, base=args.base)
    max_degree = args.max_degree if args.max_degree is not None else f.degree() + 1
    kernel, length = _kernel_and_length(f, max_degree)
    generators = _generators(f, kernel)
    stabilized = annihilator_stabilized(f, max_degree, kernel, length)
    _emit(args, lambda: [
        f"kernel dimension (degree <= {max_degree}) = {len(generators)}",
        f"stabilized = {stabilized}",
        *("  " + poly_str(g, base=args.base) for g in generators),
    ], lambda: {
        "max_degree": max_degree,
        "generators": [poly_str(g, base=args.base) for g in generators],
        "stabilized": stabilized,
    })
    return 0


def _cmd_local_length(args) -> int:
    from .apolar import local_scheme
    from .poly import PRIMAL, parse, poly_str

    F = parse(args.f, args.nvars, side=PRIMAL, base=args.base)
    support = parse(args.at, args.nvars, side=PRIMAL, base=args.base)
    scheme = local_scheme(F, support)
    _emit(args, lambda: [
        f"length = {scheme.length}",
        "hilbert = (" + ",".join(map(str, scheme.hilbert)) + ")",
        f"apolarity_checked = {scheme.apolarity_checked}",
        f"stabilized = {scheme.stabilized}",
        f"annihilator ({len(scheme.annihilator)} generators):",
        *("  " + poly_str(g, base=1) for g in scheme.annihilator),
    ], lambda: scheme.as_dict(base=1))
    return 0


def _cmd_enumerate(args) -> int:
    from .enumeration import admissible_decompositions

    candidates = admissible_decompositions(
        args.length, args.n,
        nonsmoothable_only=args.nonsmoothable_only,
    )
    if args.json:  # JSON lines, one candidate each
        import json

        _write(args, "".join(json.dumps(c.as_dict()) + "\n" for c in candidates))
    else:
        _write(args, "".join(c.decomposition.arrow_str() + "\n" for c in candidates)
               + f"total = {len(candidates)}\n")
    return 0


def _cmd_bounds(args) -> int:
    from .bounds import v_bound
    from .enumeration import admissible_decompositions
    from .hilbert import symmetric_decomposition

    reports = []
    if args.f:
        if args.nvars is None:
            raise ValueError("--nvars is required with --f")
        from .poly import PRIMAL, parse

        f = parse(args.f, args.nvars, side=PRIMAL, base=args.base)
        reports.append(v_bound(symmetric_decomposition(f), args.n))
    elif args.length is not None:
        for candidate in admissible_decompositions(
            args.length, args.n,
            nonsmoothable_only=args.nonsmoothable_only,
        ):
            reports.append(v_bound(candidate.decomposition, args.n))
    else:
        raise ValueError("one of --length or --f is required")

    def lines():
        for r in reports:
            h = "(" + ",".join(map(str, r.hilbert)) + ")"
            w = "-" if r.w is None else str(r.w)
            margin = "-" if r.margin is None else str(r.margin)
            yield (f"H={h} v={r.v} (v_theta={r.v_theta} d_flag={r.d_flag} "
                   f"d_infty={r.d_infty}) w={w} margin={margin}")

    _emit(args, lines, lambda: [r.as_dict() for r in reports])
    return 0


def _cmd_verify_theorem(args) -> int:
    from .bounds import verify_theorem

    report = verify_theorem(args.n, nonsmoothable_only=not args.no_filter)

    def lines():
        if not report.in_scope:
            yield f"note: n={args.n} is outside the verified range 7..8; informational only"
        yield f"{'l':>3} {'r':>3} {'v':>5} {'thr':>5} {'margin':>6}  H -> decomposition"
        for row in report.rows:
            h = "(" + ",".join(map(str, row.hilbert)) + ")"
            deltas = ",".join("(" + ",".join(map(str, d)) + ")" for d in row.deltas if any(d))
            yield (f"{row.l:>3} {row.r:>3} {row.v:>5} {row.threshold:>5} {row.margin:>6}"
                   f"  {h} -> {deltas}")
        for r, (h, v) in sorted(report.max_v_by_length.items()):
            match = report.conjectured_extremal[r][1]
            yield (f"max v at length {r}: H=({','.join(map(str, h))}) v={v}"
                   f" (matches conjectured extremal: {match})")
        yield f"worst margin = {report.worst_margin}"
        if not report.in_scope:
            # no rank is established outside 7..8, so no PASS/FAIL claim either
            yield (f"INFORMATIONAL n={report.n} rows={len(report.rows)} "
                   f"worst_margin={report.worst_margin}")
        else:
            verdict = "PASS" if report.passed else "FAIL"
            yield f"{verdict} n={report.n} cactus_rank={report.cactus_rank}"

    _emit(args, lines, report.as_dict)
    return 0 if report.passed else 1


def _cmd_exotic_extend(args) -> int:
    from .hilbert import hilbert_function
    from .poly import DUAL, PRIMAL, parse, poly_str
    from .witness import exotic_extend

    f = parse(args.f, args.nvars, side=PRIMAL, base=args.base)
    phis = [parse(text, args.nvars, side=DUAL, base=args.base) for text in args.phi]
    extended = exotic_extend(f, phis)
    h_before = hilbert_function(f).values
    h_after = hilbert_function(extended).values
    text = poly_str(extended, base=args.base)
    _emit(args, lambda: [
        f"f~ = {text}",
        f"hilbert preserved = {h_before == h_after} ({','.join(map(str, h_after))})",
    ], lambda: {
        "extended": text,
        "nvars": extended.nvars,
        "hilbert": list(h_after),
        "hilbert_preserved": h_before == h_after,
    })
    return 0


def _cmd_cusp_witness(args) -> int:
    from .poly import PRIMAL, parse, poly_str
    from .witness import LENGTH_NOTE, cusp_witness, random_general_cubic

    reports = []
    if args.f:
        reports.append(("input", cusp_witness(parse(args.f, 3, side=PRIMAL, base=args.base))))
    rng = random.Random(args.seed)
    for index in range(args.trials):
        report = cusp_witness(random_general_cubic(rng))
        reports.append((f"trial {index}", report))
    if not reports:
        raise ValueError("provide --f and/or --trials N")
    # a general cubic's F scheme must have length 8
    failures = sum(not (r.length_g <= 7 and r.apolar_ok)
                   or (r.general_signature and r.length_f != 8) for _, r in reports)

    def lines():
        for label, report in reports:
            yield (f"{label}: f = {poly_str(report.cubic, base=0)}\n"
                   f"  length_G_scheme = {report.length_g} (<= 7: {report.length_g <= 7}), "
                   f"local H = ({','.join(map(str, report.local_hilbert_g))}), "
                   f"apolar = {report.apolar_ok}, "
                   f"general = {report.general_signature}, length_F_scheme = {report.length_f}")
        yield LENGTH_NOTE
        yield f"failures = {failures} / {len(reports)}"

    _emit(args, lines, lambda: {
        "reports": [dict(r.as_dict(), label=label) for label, r in reports],
        "failures": failures,
    })
    return 0 if failures == 0 else 1


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    lines, payload, status = run_selftest()
    _emit(args, lambda: lines, lambda: payload)
    return status


_HANDLERS = {
    "diff": _cmd_diff,
    "hilbert": _cmd_hilbert,
    "annihilator": _cmd_annihilator,
    "local-length": _cmd_local_length,
    "enumerate": _cmd_enumerate,
    "bounds": _cmd_bounds,
    "verify-theorem": _cmd_verify_theorem,
    "exotic-extend": _cmd_exotic_extend,
    "cusp-witness": _cmd_cusp_witness,
    "selftest": _cmd_selftest,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        import traceback

        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        traceback.print_exc()
        return 3


def main() -> None:
    sys.exit(run())
