"""The registry of exact identity checks.

Every exact cross-check of the package lives here once, as a named thunk
that returns True on success.  ``wptrees verify identities`` runs the whole
registry in order, and the acceptance suite runs named subsets of it, so
the two can never disagree on a criterion.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial

from .algebra import PI2, Polynomial, lsq, mom
from .genfun import (
    f_from_trees,
    f_recursion,
    f_substituted,
    htc_genfun,
    mu_average,
    solve_r,
    z_residual,
)
from .polytope import corner_markings, polytope_dimension, side
from .trees import brute_force_enumerate, canonical_key, enumerate_family
from .volumes import (
    ell_integral,
    full_decomposition_v0n,
    htc_volume,
    is_homogeneous,
    is_symmetric,
    known_v0n,
    v0n_graph_sum,
    v0n_reduced,
)

__all__ = ["identity_checks", "zograf_v"]


def identity_checks(max_n: int) -> dict:
    """Name -> thunk for every exact cross-check, in the order they run.

    Each family of checks runs for n = 3 .. max_n, capped where the
    reference data or the running time ends: the table at n = 6, the
    recursion identity at n = 7.  The dimension formula stops at n = 5 to
    keep the command's output stable, not to save time.  Zograf's
    constant terms run from n = 4 with no cap, an oracle independent of
    the tree routes past the table.  The reduced and half-tight volumes are
    computed once per n and shared by every check of one registry; so is a
    guard's ``ArithmeticError``, raised again in each check that reads it.
    """
    checks = {}
    table_n = range(3, min(max_n, 6) + 1)
    reduced, htc = _once(v0n_reduced), _once(htc_volume)

    for n in table_n:
        checks[f"table-v0-{n}"] = lambda n=n: reduced(n) == known_v0n(n)
    for n in table_n:
        checks[f"route-graph-sum-{n}"] = lambda n=n: v0n_graph_sum(n) == reduced(n)
        checks[f"route-decomposition-{n}"] = (
            lambda n=n: full_decomposition_v0n(n) == reduced(n))
    for n in range(3, max_n + 1):
        checks[f"homogeneity-{n}"] = lambda n=n: (
            is_homogeneous(reduced(n), n - 3)
            and is_homogeneous(htc(n), n - 3))
        checks[f"symmetry-{n}"] = lambda n=n: is_symmetric(reduced(n), n)
    for n in range(4, max_n + 1):
        checks[f"zograf-{n}"] = lambda n=n: _check_zograf(reduced(n), n)

    checks["ell-integral-grid"] = lambda: all(
        ell_integral(a, b) == ell_integral(a, b, mode="integral")
        for a in range(-1, 4) for b in range(4))
    checks["z-root-through-grade-5"] = lambda: all(
        z_residual(solve_r(cap)).is_zero() for cap in range(1, 6))
    checks["r-grade-2"] = _check_r_grade_2
    checks["h-genfun-matches-averages"] = (
        lambda: _check_h_genfun(min(3, max(1, max_n - 2)), htc))

    for n in range(3, min(max_n, 6) + 1):
        checks[f"f-trees-vs-recursion-{n}"] = lambda n=n: f_from_trees(n) == f_recursion(n)
    for n in range(3, min(max_n, 7) + 1):
        checks[f"recursion-vs-volume-{n}"] = lambda n=n: (
            f_substituted(n)
            == mu_average(reduced(n), range(1, n + 1)))

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


def _check_zograf(volume: Polynomial, n: int) -> bool:
    """V_{0,n} at zero lengths is 2^(n-3) / (n-3)! * v_n * pi^(2(n-3))."""
    at_zero = volume.substitute({lsq(i): 0 for i in range(1, n + 1)})
    return at_zero == Polynomial.monomial(
        Fraction(2 ** (n - 3), factorial(n - 3)) * zograf_v(n), [(PI2, n - 3)])


def _check_r_grade_2() -> bool:
    expected = (Polynomial.of_atom(mom(0))
                + Polynomial.monomial(Fraction(1, 2), [(mom(0), 1), (mom(1), 1)])
                + Polynomial.monomial(1, [(PI2, 1), (mom(0), 2)]))
    return solve_r(2).body == expected


def _check_h_genfun(max_p: int, htc) -> bool:
    h = htc_genfun(max_p)
    for p in range(1, max_p + 1):
        avg = mu_average(htc(p + 2), range(3, p + 3))
        if h.grade_part(p) != avg * Fraction(1, factorial(p)):
            return False
    return True


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
