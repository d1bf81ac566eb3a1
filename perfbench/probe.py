"""Direct timings of the ``algebra`` primitives and of rendering, in a fresh
process (traced run only).

    python3 perfbench/probe.py TREE_N R_CAP SERIES_N

prints one JSON object of timings, each the median of ``REPEATS`` repeats:

* ``mul_small_s``   the per-tree products of ``weight_t``/``weight_gamma``
                    factors over the ``two-three`` family at TREE_N (the
                    operand shapes of the reduced tree sum);
* ``accumulate_s``  ``total = total + term`` over those products (checked:
                    total / 8 is the golden V_{0,TREE_N});
* ``mul_large_s``   the series product R * R, with R the golden
                    ``gf --target r --order R_CAP`` output (about 120 terms
                    at cap 8);
* ``render_text_s`` / ``render_json_s``  the text and JSON forms of the
                    golden V_{0,SERIES_N}, as the CLI renders them.

Operands are built outside the timed regions; ``ok`` is false when a
rebuilt operand does not reproduce its golden text.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from fractions import Fraction

from suite import golden, parse_poly
from wptrees.algebra import PI2, AUX, GradedSeries, Polynomial, lsq, mom, poly_to_json_terms
from wptrees.trees import enumerate_family
from wptrees.volumes import weight_gamma, weight_t

REPEATS = 3


def _timed(fn) -> tuple[float, object]:
    times, result = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _atom(name: str):
    if name == "pi2":
        return PI2
    if name == "r":
        return AUX
    if name[0] == "L":
        return lsq(int(name[1:]))
    if name[0] == "m":
        return mom(int(name[1:]))
    raise ValueError(f"unexpected atom {name!r}")


def from_golden(name: str) -> Polynomial:
    total = {}
    for mono, c in parse_poly(golden(name).decode()).items():
        total.update(Polynomial.monomial(c, [(_atom(a), e) for a, e in mono]).items())
    return Polynomial(total)


def tree_factors(n: int) -> list[list[Polynomial]]:
    """The factor lists of the reduced tree sum, one per two-three tree."""
    out = []
    for d in enumerate_family("two-three", n):
        fs = [weight_t(d.t1.degree(1), 1)]
        for t in (d.t1, d.t2):
            deg = t.degrees()
            fs += [weight_t(deg[b] - 1, b) for b in t.boundary if b != 1]
            fs += [weight_gamma(deg[v] - 1) for v in t.inner_ids()]
        out.append(fs)
    return out


def main(tree_n: int, r_cap: int, series_n: int) -> dict:
    factors = tree_factors(tree_n)

    def products():
        terms = []
        for fs in factors:
            term = fs[0]
            for f in fs[1:]:
                term = term * f
            terms.append(term)
        return terms

    mul_small, terms = _timed(products)

    def accumulate():
        total = Polynomial.zero()
        for term in terms:
            total = total + term
        return total

    acc, total = _timed(accumulate)

    r_poly = from_golden(f"gf-r{r_cap}.txt")
    r = GradedSeries(r_poly, r_cap)
    mul_large, _ = _timed(lambda: r * r)

    vname = f"vol-n{series_n}.txt"
    volume = from_golden(vname)
    render_text, text = _timed(volume.text)
    render_json, _ = _timed(lambda: json.dumps({"terms": poly_to_json_terms(volume, n_lengths=series_n)}))
    ok = (text + "\n" == golden(vname).decode()
          and r_poly.text() + "\n" == golden(f"gf-r{r_cap}.txt").decode()
          and total * Fraction(1, 8) == from_golden(f"vol-n{tree_n}.txt"))
    return {"ok": ok, "mul_small_s": mul_small, "accumulate_s": acc,
            "mul_large_s": mul_large, "r_terms": len(r_poly),
            "render_text_s": render_text, "render_json_s": render_json,
            "small_products": len(terms)}


if __name__ == "__main__":
    print(json.dumps(main(*map(int, sys.argv[1:4]))))
