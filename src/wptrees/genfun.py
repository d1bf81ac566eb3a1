"""Generating functions over the moments of a boundary-length measure.

A measure mu enters only through its moments m_k = int dmu(L) L^(2k); the
per-boundary weight in moment form is t_k[mu] = 2 m_k / (4^k k!).  Series
are graded by the number of mu-integrations: every atom m_k carries grade 1,
and a :class:`~wptrees.algebra.GradedSeries` stores terms by grade up to a cap.

The module provides

* ``z_series``      the formal expansion of
                    Z(r) = sqrt(r)/(sqrt(2) pi) J1(2 pi sqrt(2r))
                           - int dmu(L) I0(L sqrt(2r)),
                    with the Bessel factors entering only through their
                    Taylor coefficients:
                    J1(x) = sum_k (-1)^k (x/2)^(2k+1) / (k! (k+1)!),
                    I0(x) = sum_k (x/2)^(2k) / (k!)^2, so that
                    Z(r) = sum_{k>=0} (-1)^k 2^k pi^(2k) r^(k+1) / (k!(k+1)!)
                           - sum_{k>=0} m_k r^k / (2^k (k!)^2);
* ``solve_r``       the unique series root R = m_0 + O(grade 2) of Z(R) = 0,
                    lifted one grade per step: for r exact below grade g,
                    the grade-g part of Z(r) is r's grade-g error, and
                    subtracting it makes r exact through grade g;
* ``htc_genfun``    H(L1, L2) = sum_{k>=0} 2^(-k) R^(k+1) (L2^2 - L1^2)^k
                    / (k! (k+1)!);
* ``f_recursion``   the polynomials f_3, f_4, ... in t0.., gam2.., built by
                    the boundary-insertion operator (its tree-by-tree
                    reference is :func:`wptrees.checks.f_from_trees`);
* ``symmetric_from_moments``   the inverse of a full mu-average, recovering
                    the (symmetric) length polynomial as an orbit dict (the
                    average itself is :func:`wptrees.checks.tail_average`).
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .algebra import (
    AUX,
    PI2,
    GradedSeries,
    Polynomial,
    ghat,
    lsq,
    mom,
    that,
)
from .volumes import weight_gamma

__all__ = [
    "t_moment",
    "z_series",
    "z_residual",
    "solve_r",
    "htc_genfun",
    "f_recursion",
    "f_substituted",
    "symmetric_from_moments",
]


def t_moment(k: int) -> Polynomial:
    """t_k[mu] = 2 m_k / (4^k k!) as a moment polynomial."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return Polynomial.of_atom(mom(k)) * Fraction(2, 4 ** k * factorial(k))


def z_series(cap: int) -> GradedSeries:
    """Z to order r^cap in the moment atoms m_0 .. m_cap, truncated to grade cap."""
    if cap < 1:
        raise ValueError("grade_cap must be >= 1")
    terms = []
    for k in range(cap):  # r^(k+1) term of the J1 part
        coeff = Fraction((-1) ** k * 2 ** k, factorial(k) * factorial(k + 1))
        terms.append(Polynomial.monomial(coeff, [(PI2, k), (AUX, k + 1)]))
    for k in range(cap + 1):  # r^k term of the I0 part
        coeff = Fraction(-1, 2 ** k * factorial(k) ** 2)
        terms.append(Polynomial.monomial(coeff, [(mom(k), 1), (AUX, k)]))
    return GradedSeries(Polynomial.sum(terms), cap)


def _compose_aux(p: Polynomial, r: GradedSeries) -> GradedSeries:
    """Substitute the auxiliary variable by the series r, truncating."""
    cap = r.grade_cap
    out = GradedSeries(Polynomial.zero(), cap)
    power = GradedSeries(Polynomial.one(), cap)
    for e in range(max((dict(m).get(AUX, 0) for m, _ in p.items()), default=-1) + 1):
        if e:
            power = power * r
        # the coefficient of r^e: its terms, with r^e struck out
        part = p.map_terms(lambda m, c: (tuple(x for x in m if x[0] != AUX), c)
                           if dict(m).get(AUX, 0) == e else None)
        out = out + power * GradedSeries(part, cap)
    return out


def solve_r(cap: int) -> GradedSeries:
    """The series root R of Z(R) = 0 with R = m_0 + (grade >= 2).

    Lifted one grade per step from R = m_0, which is exact through grade 1.
    Z(r) = r - m_0 + r * (grade >= 1) + r^2 * (...), so Z'(R) = 1 + (grade
    >= 1): if r agrees with R below grade g, then Z(r) = r - R up to grade
    g.  The step for g = 2 .. cap composes Z at working cap g, with r and z
    truncated to g; the residual is r's grade-g error and is subtracted.
    Two guards raise ``ArithmeticError``: a residual with a term below grade
    g at any step, and a nonzero residual of one full-cap composition after
    the last step.
    """
    z = z_series(cap).body
    r = Polynomial.of_atom(mom(0))
    for g in range(2, cap + 1):
        residual = _compose_aux(z, GradedSeries(r, g))
        if any(h < g for h in residual.parts):
            raise ArithmeticError(f"root lifting left a residual below grade {g}")
        r = r - residual.body
    root = GradedSeries(r, cap)
    if not _compose_aux(z, root).is_zero():
        raise ArithmeticError("root lifting did not reach a zero residual")
    return root


def z_residual(r: GradedSeries) -> GradedSeries:
    """Z evaluated at a series, truncated to the series' grade cap."""
    return _compose_aux(z_series(r.grade_cap).body, r)


def htc_genfun(cap: int) -> GradedSeries:
    """H(L1, L2) = sum_k 2^(-k) R^(k+1) (L2^2 - L1^2)^k / (k! (k+1)!).

    The sum is built as a polynomial in r and composed with R; terms with
    k >= cap vanish under truncation since R has grade >= 1.
    """
    diff = Polynomial.of_atom(lsq(2)) - Polynomial.of_atom(lsq(1))
    h = Polynomial.sum(
        Polynomial.monomial(Fraction(1, 2 ** k * factorial(k) * factorial(k + 1)),
                            [(AUX, k + 1)]) * diff ** k for k in range(cap))
    return _compose_aux(h, solve_r(cap))


# -- the boundary-insertion recursion ------------------------------------

def _d_gamma(p: Polynomial, k: int) -> Polynomial:
    """d/d gam_k; at gam1 = -1, d/d gam1 scales a degree-V term by V - 2."""
    if k >= 2:
        return p.partial(ghat(k))
    return p.map_terms(lambda mono, c: (mono, c * (sum(e for _, e in mono) - 2)))


def f_recursion(n: int) -> Polynomial:
    """f_n in t0.., gam2.., taken at gam1 = -1.

    With gam1 formal, f_3 = -t0^3/gam1 and each term of f_n carries
    gam1^-(V-2), V its total degree in the t and gam atoms: a pair of trees
    on V vertices has V - 2 edges, and every term of the operator keeps
    this.  At gam1 = -1 the power folds into the sign and d/d gam1 scales a
    term by V - 2, so the coefficients count the ``two-three`` trees by
    degree profile, f_3 = t0^3 and

    f_{m+1} = sum_{k=0}^{m-3} [ t_{k+1} (d/d gam_{k+1} + t0 d/d t_k)
                                + gam_{k+2} t0 d/d gam_{k+1} ] f_m.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    t0 = Polynomial.of_atom(that(0))
    f = t0 ** 3
    for m in range(3, n):
        terms = []
        for k in range(m - 2):
            dg = _d_gamma(f, k + 1)
            dt = f.partial(that(k))
            terms.append(Polynomial.of_atom(that(k + 1)) * (dg + t0 * dt))
            terms.append(Polynomial.of_atom(ghat(k + 2)) * t0 * dg)
        f = Polynomial.sum(terms)
    return f


def f_substituted(n: int) -> Polynomial:
    """(1/8) f_n with t_k -> t_k[mu], gam_k -> gamma_k.

    Equals the full mu-average of V_{0,n}.
    """
    mapping = {that(k): t_moment(k) for k in range(n - 2)}
    mapping.update({ghat(k): weight_gamma(k) for k in range(2, n - 1)})
    return f_recursion(n).substitute(mapping) * Fraction(1, 8)


# -- moment averaging ------------------------------------------------------

def symmetric_from_moments(p: Polynomial, n: int) -> dict:
    """Invert a full mu-average back to the symmetric length polynomial.

    Each term is a power of pi^2 times moments of total degree exactly n;
    any other term raises ``ValueError``.  A moment monomial prod_k m_k^(c_k)
    with coefficient C averages the orbit whose exponent multiset is {k with
    multiplicity c_k}, keyed (pi^2 power, (), the k nonincreasing) as the
    tree routes key it, and gives it the coefficient C * prod_k c_k! / n!.
    """
    orbits = {}
    for mono, c in p.items():
        exps = dict(mono)
        pi2 = exps.pop(PI2, 0)
        if any(a.kind != mom(0).kind for a in exps):
            raise ValueError("a term holds an atom besides pi2 and the moments")
        orders = tuple(a.index for a, e in reversed(exps.items()) for _ in range(e))
        if len(orders) != n:
            raise ValueError(f"term has moment degree {len(orders)}, expected {n}")
        orbits[pi2, (), orders] = c * prod(map(factorial, exps.values())) / factorial(n)
    return orbits
