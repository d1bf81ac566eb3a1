"""Command-line front end.

Subcommands: ``vol`` (genus-zero volumes by any of four routes), ``htc``
(half-tight volumes), ``gf`` (generating functions), ``trees`` (family
enumeration), ``verify identities`` (the exact cross-check battery) and
``verify mc`` (Monte Carlo validation).  Output is byte-stable: polynomials
render in canonical term order, floats print with 17 significant digits,
and ``--threads``, kept for the scripts that pass it, has no effect: the
sampler runs in one thread, and numpy is loaded with a one-thread OpenBLAS.
Exit codes: 0 success, 1 verification failure, 2 invalid input, 141
(128 + SIGPIPE) when the reader closes stdout early.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from .algebra import Polynomial, expand_orbits, lsq, poly_to_json_terms
from .genfun import (
    f_substituted,
    htc_genfun,
    solve_r,
    symmetric_from_moments,
    z_series,
)
from .montecarlo import mc_full_volume
from .trees import FAMILIES, enumerate_family, tree_to_json
from .volumes import (
    HTC_ASSUMPTION,
    V05_COEFFICIENT_NOTE,
    full_decomposition_v0n,
    htc_volume,
    v0n_graph_sum,
    v0n_reduced,
)


# The largest n whose volumes were measured to finish: on a 2-vCPU, 8 GB VM
# (CPython 3.11) ``vol --n 12`` takes about 5 s and 131 MB and prints 11.6 MB,
# ``vol --n 13`` about 17 s and 487 MB and prints 49.7 MB.
VOLUME_MAX_N = 13

# The largest series order measured to finish: ``gf --target h`` takes about
# 1.7 s at order 14 and 29 s (111 MB) at order 20 on the same VM, about 2-4x
# per two orders.
GF_MAX_ORDER = 20

# The most digits a length's numerator or denominator may have: CPython's
# default limit for converting between int and decimal text, so every admitted
# length can be read and printed back.
LENGTH_MAX_DIGITS = 4300
_TOO_LONG = 10 ** LENGTH_MAX_DIGITS

# A length field: a decimal with optional exponent, or p/q, in ASCII digits.
_LENGTH_FIELD = re.compile(r"[-+]?(?=\.?[0-9])(?P<int>[0-9]*)(?:/(?P<den>[0-9]+)"
                           r"|(?:\.(?P<frac>[0-9]*))?(?:[eE](?P<exp>[-+]?[0-9]+))?)")

ABLATION_SIGMA = 5.0  # the ablation's rows are exact: its |z| is 0 or infinite


def _check_volume_size(n: int, flag: str = "--n") -> None:
    """Refuse, before any work, a volume size that cannot finish."""
    if n > VOLUME_MAX_N:
        raise ValueError(f"volumes are limited to n <= {VOLUME_MAX_N}, got {flag} {n}")


def _parse_length(field: str) -> Fraction:
    """One ``--lengths`` field, refused before any large number is built when
    its numerator or denominator would have more than ``LENGTH_MAX_DIGITS``
    digits."""
    match = _LENGTH_FIELD.fullmatch(field)
    if match is None:
        raise ValueError("digit separators are not accepted" if "_" in field
                         else f"{field!r} is not a decimal or p/q in ASCII digits")
    frac, exp = match["frac"] or "", match["exp"] or "0"
    num, den = (match["int"] + frac).lstrip("0"), (match["den"] or "1").lstrip("0")
    if not den:
        raise ValueError(f"{field!r} has a zero denominator")
    # The value is num / den * 10^scale.  With num within the bound, a |scale|
    # past twice the bound puts the numerator or the denominator past it; an
    # exponent of ten digits or more stands for such a scale.
    scale = 0 if not num else 10 ** 9 if len(exp.lstrip("+-0")) > 9 else int(exp) - len(frac)
    value = None
    if max(len(num), len(den), abs(scale) // 2) <= LENGTH_MAX_DIGITS:
        value = Fraction(int(num or "0") * 10 ** max(scale, 0),
                         int(den or "0") * 10 ** max(-scale, 0))
    if value is None or max(value.numerator, value.denominator) >= _TOO_LONG:
        raise ValueError(f"length {field!r} has more than {LENGTH_MAX_DIGITS} digits "
                         f"in its numerator or denominator")
    return -value if field[0] == "-" else value


def _parse_lengths(text: str, n: int) -> list[Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise ValueError(f"malformed length list {text!r}: empty field")
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated lengths, got {len(parts)}")
    try:
        values = [_parse_length(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"malformed length list {text!r}: {exc}") from None
    if any(v <= 0 for v in values):
        raise ValueError("lengths must be positive")
    return values


def _print_volume(orbits: dict, args, meta: dict, lengths) -> None:
    """Print a volume's orbit dict as a polynomial, or its value at ``lengths``
    when given (the JSON then records the lengths and lists no L exponents)."""
    poly = expand_orbits(orbits)
    if lengths:
        poly = poly.substitute({lsq(i + 1): v * v for i, v in enumerate(lengths)})
        if any(max(abs(c.numerator), c.denominator) >= _TOO_LONG for _, c in poly.items()):
            raise ValueError(f"the value at these lengths has a coefficient of more than "
                             f"{LENGTH_MAX_DIGITS} digits, too long to print")
        meta["lengths"] = [str(v) for v in lengths]
    _print_poly(poly, args.format, meta, n_lengths=0 if lengths else args.n)


def _print_poly(poly: Polynomial, fmt: str, meta: dict, **json_options) -> None:
    """Print ``poly`` as text, LaTeX, or JSON: ``meta`` and then the terms."""
    if fmt == "text":
        print(poly.text())
    elif fmt == "latex":
        print(poly.latex())
    else:
        print(json.dumps({**meta, "terms": poly_to_json_terms(poly, **json_options)}))


def _cmd_vol(args) -> int:
    if args.n < 3:
        raise ValueError("need --n >= 3")
    _check_volume_size(args.n)
    route = {
        "tree": v0n_reduced,
        "graph-sum": v0n_graph_sum,
        "decomposition": full_decomposition_v0n,
        "recursion": lambda n: symmetric_from_moments(f_substituted(n), n),
    }[args.method]
    lengths = _parse_lengths(args.lengths, args.n) if args.lengths is not None else None
    orbits = route(args.n)
    if args.n == 5:
        print(V05_COEFFICIENT_NOTE, file=sys.stderr)
    _print_volume(orbits, args, {"command": "vol", "n": args.n, "method": args.method},
                  lengths)
    return 0


def _cmd_htc(args) -> int:
    if args.n < 3:
        raise ValueError("need --n >= 3")
    _check_volume_size(args.n)
    lengths = _parse_lengths(args.lengths, args.n) if args.lengths is not None else None
    if lengths and not lengths[0] < lengths[1]:
        raise ValueError(f"half-tight volumes assume {HTC_ASSUMPTION}")
    orbits = htc_volume(args.n)
    if args.format == "text":
        print(f"# assumes {HTC_ASSUMPTION}", file=sys.stderr)
    _print_volume(orbits, args, {"command": "htc", "n": args.n, "assumption": HTC_ASSUMPTION},
                  lengths)
    return 0


def _cmd_gf(args) -> int:
    if args.order < 1:
        raise ValueError("need --order >= 1")
    if args.order > GF_MAX_ORDER:
        raise ValueError(f"series are limited to --order <= {GF_MAX_ORDER}, "
                         f"got --order {args.order}")
    series = {"z": z_series, "r": solve_r, "h": htc_genfun}[args.target](args.order)
    meta = {"command": "gf", "target": args.target, "grade_cap": series.grade_cap}
    _print_poly(series.body, args.format, meta, with_grade=True)
    return 0


def _cmd_trees(args) -> int:
    if args.n < 3:
        raise ValueError("need --n >= 3")
    family = enumerate_family(args.family, args.n)
    if args.list:
        print(json.dumps([tree_to_json(t) for t in family]))
    else:
        print(len(family))
    return 0


# -- verification -----------------------------------------------------------

def _cmd_verify_identities(args) -> int:
    if args.max_n < 3:
        raise ValueError("need --max-n >= 3")
    _check_volume_size(args.max_n, "--max-n")
    from .checks import identity_checks  # here, so no other command loads it
    failures = 0
    for name, thunk in identity_checks(args.max_n).items():
        try:
            ok = thunk()
        except ArithmeticError as exc:  # a guard's raise fails its check only
            print(f"{name}: {exc}", file=sys.stderr)
            ok = False
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    print(f"{'OK' if failures == 0 else 'FAILED'}: "
          f"{failures} failing identity check(s)")
    return 0 if failures == 0 else 1


def _fmt_float(x: float) -> str:
    if math.isinf(x) or math.isnan(x):
        return f'"{x}"'
    return format(x, ".17g")


def _report_json(report) -> str:
    """The report's scalar fields in the record's field order, then its rows."""
    rows = ", ".join(
        "{" + f'"key": {json.dumps(row["key"])}, "kind": "{row["kind"]}", '
        f'"estimate": {_fmt_float(row["estimate"])}, '
        f'"std_error": {_fmt_float(row["std_error"])}, '
        f'"exact": {"true" if row["exact"] else "false"}' + "}"
        for row in report.per_tree)
    scalars = "".join(f'"{name}": {value if isinstance(value, int) else _fmt_float(value)}, '
                      for name, value in zip(report._fields, report) if name != "per_tree")
    return "{" + scalars + f'"per_tree": [{rows}]' + "}"


def _cmd_verify_mc(args) -> int:
    if args.ablation and args.n <= 4:
        raise ValueError("--ablation needs --n >= 5: no tree at n <= 4 has an "
                         "inner-inner edge, so dropping the constraints changes nothing")
    if not (math.isfinite(args.sigma) and args.sigma > 0):
        raise ValueError(f"need a finite --sigma > 0, got {args.sigma}")
    lengths = _parse_lengths(args.lengths, args.n)
    report = mc_full_volume(args.n, lengths, args.samples, args.seed)
    print(_report_json(report))
    ok = abs(report.z_score) < args.sigma
    print(f"{'PASS' if ok else 'FAIL'} mc-z-score |z| < {args.sigma}")
    if args.ablation:
        off = report.unconstrained()
        print(_report_json(off))
        off_ok = abs(off.z_score) > ABLATION_SIGMA
        print(f"{'PASS' if off_ok else 'FAIL'} mc-ablation |z| > {ABLATION_SIGMA}")
        ok = ok and off_ok
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wptrees",
        description="Exact genus-zero volumes from tree sums, with a "
                    "Monte Carlo polytope verifier.")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted (>= 1) and ignored: the sampler runs in one thread")
    sub = parser.add_subparsers(dest="command", required=True)

    p_vol = sub.add_parser("vol", help="genus-zero volume V_{0,n}")
    p_vol.add_argument("--n", type=int, required=True)
    p_vol.add_argument("--lengths", type=str, default=None,
                       help="comma-separated decimal lengths (exact rationals)")
    p_vol.add_argument("--method", default="tree",
                       choices=["tree", "recursion", "graph-sum", "decomposition"])
    p_vol.add_argument("--format", default="text",
                       choices=["text", "json", "latex"])
    p_vol.set_defaults(func=_cmd_vol)

    p_htc = sub.add_parser("htc", help="half-tight volume H_n")
    p_htc.add_argument("--n", type=int, required=True)
    p_htc.add_argument("--lengths", type=str, default=None)
    p_htc.add_argument("--format", default="text",
                       choices=["text", "json", "latex"])
    p_htc.set_defaults(func=_cmd_htc)

    p_gf = sub.add_parser("gf", help="generating functions")
    p_gf.add_argument("--target", required=True, choices=["z", "r", "h"])
    p_gf.add_argument("--order", type=int, required=True,
                      help="moment grade cap (and series order for z)")
    p_gf.add_argument("--format", default="text",
                      choices=["text", "json", "latex"])
    p_gf.set_defaults(func=_cmd_gf)

    p_trees = sub.add_parser("trees", help="tree family enumeration")
    p_trees.add_argument("--family", required=True, choices=list(FAMILIES))
    p_trees.add_argument("--n", type=int, required=True)
    group = p_trees.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true", default=True)
    group.add_argument("--list", action="store_true", default=False)
    p_trees.set_defaults(func=_cmd_trees)

    p_verify = sub.add_parser("verify", help="verification suites")
    vsub = p_verify.add_subparsers(dest="suite", required=True)

    p_ident = vsub.add_parser("identities", help="exact cross-checks")
    p_ident.add_argument("--max-n", type=int, default=5, dest="max_n")
    p_ident.set_defaults(func=_cmd_verify_identities)

    p_mc = vsub.add_parser("mc", help="Monte Carlo validation")
    p_mc.add_argument("--n", type=int, required=True)
    p_mc.add_argument("--lengths", type=str, required=True)
    p_mc.add_argument("--samples", type=int, required=True)
    p_mc.add_argument("--seed", type=int, required=True)
    p_mc.add_argument("--sigma", type=float, default=3.0)
    p_mc.add_argument("--ablation", action="store_true")
    p_mc.set_defaults(func=_cmd_verify_mc)
    return parser


def main(argv=None) -> int:
    # No code path calls BLAS, so numpy's OpenBLAS needs no thread pool.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.threads < 1:
            raise ValueError("need --threads >= 1")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Send the interpreter's final flush of stdout to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
