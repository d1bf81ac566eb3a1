"""The registry of exact identity checks and the oracles only it reads.

Every exact cross-check of the package lives here once, as a named thunk
that returns True on success.  ``wptrees verify identities`` runs the whole
registry in order, and the acceptance suite runs named subsets of it, so
the two can never disagree on a criterion.  Here too are the table
:func:`known_v0n`, Zograf's :func:`zograf_v`, :func:`f_from_trees` and the
invariants :func:`is_homogeneous` and :func:`is_symmetric`, each one pass
over a volume's terms.  Oracles that share private code with a route stay
beside it: ``mu_average`` and ``z_residual`` in :mod:`wptrees.genfun`, the
brute-force enumerator in :mod:`wptrees.trees`.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, factorial, prod

from .algebra import PI2, Polynomial, expand_orbits, ghat, lsq, mom, that
from .genfun import f_recursion, f_substituted, htc_genfun, mu_average, solve_r, z_residual
from .polytope import corner_markings, polytope_dimension, side
from .trees import brute_force_enumerate, canonical_key, enumerate_family
from .volumes import (
    ell_integral, full_decomposition_v0n, htc_volume, v0n_graph_sum, v0n_reduced)

__all__ = ["identity_checks", "known_v0n", "zograf_v", "f_from_trees", "is_homogeneous",
           "is_symmetric"]


def identity_checks(max_n: int) -> dict:
    """Name -> thunk for every exact cross-check, in the order they run.

    Each family of checks runs for n = 3 .. max_n, capped where the
    reference data or the running time ends: the table at n = 6, the
    recursion identity at n = 7, the routes at n = 11 (each read of their
    symmetry guard re-sums all 2^(n-3) splits: about 15 s a route at 13).
    The dimension formula stops at n = 5 to keep the command's output
    stable, not to save time.  Zograf's constant terms run from n = 4 with
    no cap, and the half-tight series is read against every H_n.  The
    reduced and half-tight orbit dicts, which the table, route and Zograf
    checks compare, are computed once per n, and expanded once per n for
    the checks that read monomials; each is shared by the whole registry,
    and so is a guard's ``ArithmeticError``, raised again in each check
    that reads it.
    """
    checks = {}
    reduced, htc = _once(v0n_reduced), _once(htc_volume)
    reduced_poly = _once(lambda n: expand_orbits(reduced(n)))
    htc_poly = _once(lambda n: expand_orbits(htc(n)))

    for n in range(3, min(max_n, 6) + 1):
        checks[f"table-v0-{n}"] = lambda n=n: reduced(n) == known_v0n(n)
    for n in range(3, min(max_n, 11) + 1):
        checks[f"route-graph-sum-{n}"] = lambda n=n: v0n_graph_sum(n) == reduced(n)
        checks[f"route-decomposition-{n}"] = (
            lambda n=n: full_decomposition_v0n(n) == reduced(n))
    for n in range(3, max_n + 1):
        checks[f"homogeneity-{n}"] = lambda n=n: (
            is_homogeneous(reduced_poly(n), n - 3) and is_homogeneous(htc_poly(n), n - 3))
        checks[f"symmetry-{n}"] = lambda n=n: is_symmetric(reduced_poly(n), n)
    for n in range(4, max_n + 1):
        checks[f"zograf-{n}"] = lambda n=n: _check_zograf(reduced(n), n)

    checks["ell-integral-grid"] = lambda: all(
        ell_integral(a, b) == ell_integral(a, b, mode="integral")
        for a in range(-1, 4) for b in range(4))
    checks["z-root-through-grade-5"] = lambda: all(
        z_residual(solve_r(cap)).is_zero() for cap in range(1, 6))
    checks["r-grade-2"] = _check_r_grade_2
    checks["h-genfun-matches-averages"] = (
        lambda: _check_h_genfun(max(1, max_n - 2), htc_poly))

    for n in range(3, min(max_n, 6) + 1):
        checks[f"f-trees-vs-recursion-{n}"] = lambda n=n: f_from_trees(n) == f_recursion(n)
    for n in range(3, min(max_n, 7) + 1):
        checks[f"recursion-vs-volume-{n}"] = lambda n=n: (
            f_substituted(n) == mu_average(reduced_poly(n), range(1, n + 1)))

    for n in range(3, min(max_n, 6) + 1):
        checks[f"enumerator-oracle-{n}"] = lambda n=n: (
            {canonical_key(t) for t in enumerate_family("two-three", n)}
            == {canonical_key(t) for t in brute_force_enumerate("two-three", n)})

    for n in range(3, min(max_n, 5) + 1):
        checks[f"dimension-formula-{n}"] = lambda n=n: _check_dimensions(n)
    return checks


def _once(route):
    """``route`` run once per n: its value, or the ArithmeticError it raised."""
    outcomes = {}

    def read(n: int):
        if n not in outcomes:
            try:
                outcomes[n] = route(n)
            except ArithmeticError as exc:
                outcomes[n] = exc
        if isinstance(outcomes[n], ArithmeticError):
            raise outcomes[n]
        return outcomes[n]
    return read


# -- oracle data and invariants ------------------------------------------

# n -> the orbit dict of V_{0,n}: (pi^2 power, (), exponents) -> coefficient.
_KNOWN_V0N = {
    3: {(0, (), (0, 0, 0)): 1},
    4: {(1, (), (0, 0, 0, 0)): 2, (0, (), (1, 0, 0, 0)): Fraction(1, 2)},
    5: {(2, (), (0, 0, 0, 0, 0)): 10, (1, (), (1, 0, 0, 0, 0)): 3,
        (0, (), (2, 0, 0, 0, 0)): Fraction(1, 8), (0, (), (1, 1, 0, 0, 0)): Fraction(1, 2)},
    6: {(3, (), (0, 0, 0, 0, 0, 0)): Fraction(244, 3), (2, (), (1, 0, 0, 0, 0, 0)): 26,
        (1, (), (2, 0, 0, 0, 0, 0)): Fraction(3, 2), (1, (), (1, 1, 0, 0, 0, 0)): 6,
        (0, (), (3, 0, 0, 0, 0, 0)): Fraction(1, 48), (0, (), (2, 1, 0, 0, 0, 0)): Fraction(3, 16),
        (0, (), (1, 1, 1, 0, 0, 0)): Fraction(3, 4)},
}


def known_v0n(n: int) -> dict:
    """Reference closed forms of V_{0,n} for n <= 6 as orbit dicts (oracle data).

    The n = 5 row carries coefficient 3*pi^2 on sum_i L_i^2; see
    ``wptrees.volumes.V05_COEFFICIENT_NOTE``.
    """
    if n not in _KNOWN_V0N:
        raise ValueError(f"no reference form for n = {n}")
    return _KNOWN_V0N[n]


@cache
def zograf_v(n: int) -> Fraction:
    """Zograf's recursion for the Weil-Petersson volumes of M_{0,n}
    (P. Zograf, Contemp. Math. 150, 1993), normalised to v_3 = 1."""
    if n == 3:
        return Fraction(1)
    return Fraction(1, 2) * sum(
        Fraction(i * (n - i - 2), n - 1) * comb(n - 4, i - 1) * comb(n, i + 1)
        * zograf_v(i + 2) * zograf_v(n - i)
        for i in range(1, n - 2))


def f_from_trees(n: int) -> Polynomial:
    """f_n read off the ``two-three`` family, one double tree at a time.

    A double tree contributes the monomial prod_b t_{deg(b)-1} (with a
    half-edge added to boundary 1, so it contributes t_{deg(b1)}) times
    prod_v gam_{deg(v)-1}, with coefficient 1.  Enumeration is refused above
    ``ENUMERATION_MAX_N``, and so is this sum.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")

    def term(d):
        pairs = Counter()
        for t in (d.t1, d.t2):
            for v, deg in t.degrees().items():
                pairs[that(deg) if v == 1 else that(deg - 1) if v > 0 else ghat(deg - 1)] += 1
        return Polynomial.monomial(1, pairs.items())

    return Polynomial.sum(term(d) for d in enumerate_family("two-three", n))


def is_homogeneous(p: Polynomial, degree: int) -> bool:
    """True iff every monomial has pi^2-degree + squared-length degree == degree."""
    kinds = (PI2.kind, lsq(1).kind)
    return all(all(a.kind in kinds for a, _ in mono) and sum(e for _, e in mono) == degree
               for mono, _ in p.items())


def is_symmetric(p: Polynomial, n: int) -> bool:
    """Invariance of p under permutations of L_1^2 .. L_n^2, in one pass.

    The terms are counted by (other atoms, L-exponents over labels 1..n
    sorted with zeros, coefficient), and p is symmetric iff each count is
    the number n! / prod mult! of distinct arrangements of its exponents:
    the monomials are distinct, so such a group is a whole orbit with one
    coefficient.  Length atoms with index above n count as fixed.
    """
    length, groups = lsq(1).kind, Counter()
    for mono, c in p.items():
        exponents, rest = [0] * n, []
        for pair in mono:
            (kind, i), e = pair
            if kind == length and i <= n:
                exponents[i - 1] = e
            else:
                rest.append(pair)
        groups[tuple(rest), tuple(sorted(exponents)), c] += 1
    return all(count == factorial(n) // prod(map(factorial, Counter(exponents).values()))
               for (_, exponents, _), count in groups.items())


def _check_zograf(volume: dict, n: int) -> bool:
    """V_{0,n} at zero lengths, its orbits whose exponents are all zero, is
    2^(n-3) / (n-3)! * v_n * pi^(2(n-3))."""
    at_zero = {key: c for key, c in volume.items() if not any(key[1] + key[2])}
    expected = Fraction(2 ** (n - 3), factorial(n - 3)) * zograf_v(n)
    return at_zero == {(n - 3, (), (0,) * n): expected}


def _check_r_grade_2() -> bool:
    expected = (Polynomial.of_atom(mom(0))
                + Polynomial.monomial(Fraction(1, 2), [(mom(0), 1), (mom(1), 1)])
                + Polynomial.monomial(1, [(PI2, 1), (mom(0), 2)]))
    return solve_r(2).body == expected


def _check_h_genfun(max_p: int, htc) -> bool:
    h = htc_genfun(max_p)
    return all(
        h.grade_part(p) == mu_average(htc(p + 2), range(3, p + 3)) * Fraction(1, factorial(p))
        for p in range(1, max_p + 1))


def _check_dimensions(n: int) -> bool:
    """The dimension formula against a count of the polytope's free
    coordinates: deg - 1 angles at an inner vertex, and at boundary b
    deg(b) - 1 for one simplex and nonid(b) - 1 for the other.  Every
    top-dimensional tree without ideal corners has dimension 2n - 6."""
    for tree in enumerate_family("htc", n):
        top = side(tree) is not None
        deg = tree.degrees()
        for marks in corner_markings(tree, 2):
            count = sum(d - 1 for v, d in deg.items() if v < 0) + sum(
                2 * deg[b] - marks.get(b, 0) - 2 for b in tree.boundary)
            dimension = polytope_dimension(tree, marks)
            if dimension != count or (top and not marks and dimension != 2 * n - 6):
                return False
    return True
