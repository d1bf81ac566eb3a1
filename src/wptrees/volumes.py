"""Exact tree-sum volume formulas.

The engine computes two exact polynomial families in pi^2 and the squared
boundary lengths:

* ``H_n(L)``      volumes of surfaces whose first boundary is the strictly
                  shortest curve separating boundary 1 from boundary 2
                  (valid under the side condition 0 < L1 < L2);
* ``V_{0,n}(L)``  genus-zero volumes, via three independent routes that must
                  agree exactly (see below); the decomposition integrates its
                  gluing length l out symbolically.

Per-vertex weights (with k = deg - 1 unless stated otherwise):

    t_k(L)        = 2 (L^2)^k / (4^k k!)
    ttilde_k(L,l) = 2 (L^2 - l^2)^k / (4^k k!)      for l < L, k >= 0
    gamma_k       = (-1)^k pi^(2k-2) / (k-1)!       for k >= 1

The sums are over combinatorial trees, but no route builds a tree, and only
the reduced route multiplies no polynomial.  graph-sum, the decomposition
and H_n read each gluing weight as a coefficient of :func:`ell_integral`,
which multiplies and raises t and ttilde polynomials (and in ``integral``
mode integrates them) once per (e1, e2, mode), its result cached.  A route is
a special factor at boundaries 1 and 2 summed over a list of splits
(s1, s2), the boundary labels of the two components (1 in s1, 2 in s2):

    reduced        t_{deg(b1)}(L1) t_{deg(b2)-1}(L2) / 8      over ``two-three``
    graph-sum      ell_integral(deg(b1) - 1, deg(b2) - 1) / 16  over ``graph``
    decomposition  the same in ``integral`` mode              over ``graph``
    H_n            the same in ``integral`` mode              over ((1,), 2..n)

H_n is the lone-vertex gluing: a boundary 1 of degree 0 is the separating
curve itself (a = -1 in :func:`ell_integral`), and ``graph`` is ``full``
plus that isolated split.  The coefficient of a monomial pi^(2p) prod_b
L_b^(2 a_b) fixes every boundary degree, so it is a scalar sum over the
splits and the special factor's terms (e1, e2, weight), e_b = deg(b) - 1:
the weight, the t-coefficients of the other boundaries, and per component
G(m, s) / prod_b (deg(b) - 1)!.  That is the Pruefer-weighted gamma product
of the trees on m boundary labels whose excesses deg(b) - 1 sum to s; its
pi^2 power is m - 2 - s, and

    G(m, s) = sum_j sum over inner excesses e_v >= 2 with sum e_v =
              m + j - 2 - s of (m + j - 2)! prod_v (-1)^e_v / (e_v! (e_v - 1)!)
              / prod_k mult_k!

(see :func:`wptrees.trees.prufer_counts`).  Each route returns one
coefficient per monomial orbit, as the orbit dict that
:func:`wptrees.algebra.expand_orbits` writes out; H_n keeps L_1's and L_2's
exponents in place.  The V routes are symmetric though their families
single out labels (1, 2, 3 for ``two-three``, else 1, 2); :func:`_orbit_sum`
reads each orbit coefficient at every placement of its exponents on those
labels and raises ``ArithmeticError`` on a mismatch, so symmetry is never
assumed.
The side conditions l < L and L1 < L2 are bookkeeping on intermediate
objects only; the final V_{0,n} are symmetric in all lengths and the
assumption drops out.

All arithmetic is exact, so the order of summation never changes a result.
The reference table and the invariants that test these volumes
(homogeneity, symmetry) are oracle data of :mod:`wptrees.checks`.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import permutations, product
from math import factorial, prod

from .algebra import AUX, PI2, Polynomial, integrate_halfsquare, lsq
from .trees import family_splits, partitions, prufer_counts

__all__ = [
    "HTC_ASSUMPTION",
    "weight_t",
    "weight_t_tilde",
    "weight_gamma",
    "htc_volume",
    "v0n_reduced",
    "v0n_graph_sum",
    "full_decomposition_v0n",
    "ell_integral",
    "V05_COEFFICIENT_NOTE",
]

HTC_ASSUMPTION = "0 < L1 < L2"

V05_COEFFICIENT_NOTE = (
    "note: the computed coefficient of sum_i L_i^2 in the n=5 volume is "
    "3*pi2; the value \"3*pi\" that sometimes appears in print fails "
    "homogeneity (every term has total degree 2 in pi^2 and the L_i^2)."
)


def _t(k: int) -> Fraction:
    """The coefficient 2 / (4^k k!) of t_k."""
    if k < 0:
        raise ValueError(f"t_k needs k >= 0, got {k}")
    return Fraction(2, 4 ** k * factorial(k))


@lru_cache(maxsize=None)
def weight_t(k: int, index: int) -> Polynomial:
    """t_k(L_index) as a polynomial in the atom L_index^2."""
    return Polynomial.monomial(_t(k), [(lsq(index), k)])


def weight_t_tilde(k: int, high: Polynomial, low: Polynomial) -> Polynomial:
    """ttilde_k on squared quantities: 2 (high - low)^k / (4^k k!).

    ``high`` and ``low`` stand for L^2 and l^2; the side condition l < L is
    not encoded in the polynomial.
    """
    if k < 0:
        raise ValueError(f"ttilde_k needs k >= 0, got {k}")
    return (high - low) ** k * _t(k)


@lru_cache(maxsize=None)
def weight_gamma(k: int) -> Polynomial:
    """gamma_k = (-1)^k pi^(2k-2) / (k-1)! for k >= 1."""
    if k < 1:
        raise ValueError(f"gamma_k needs k >= 1, got {k}")
    coeff = Fraction((-1) ** k, factorial(k - 1))
    return Polynomial.of_atom(PI2, k - 1) * coeff


# -- the scalar core -----------------------------------------------------

@lru_cache(maxsize=None)
def _component(m: int, s: int, e: int) -> Fraction:
    """G(m, s) / e! (see the module docstring) for a component whose special
    boundary has excess e; a lone vertex (m = 1) has degree 0, so e = s = -1."""
    if e < 0 and m > 1:
        return Fraction(0)
    return sum((Fraction(count * (-1) ** sum(inner), prod(factorial(x - 1) for x in inner))
                for inner, count in prufer_counts(m, s)), Fraction(0)) / factorial(max(e, 0))


def _representatives(n: int, fixed: int = 0):
    """One exponent tuple per orbit of L-degree <= n - 3: any ``fixed``
    leading exponents, then a partition of the rest padded with zeros."""
    for total in range(n - 2):
        for lead in product(range(total + 1), repeat=fixed):
            rest = total - sum(lead)
            for k in range(min(rest, n - fixed) + 1):
                for part in partitions(rest, k):
                    yield lead + part + (0,) * (n - fixed - k)


def _placements(exponents, k: int):
    """``exponents`` with each distinct ordered choice of k of them in front."""
    for head in set(permutations(exponents, k)):
        rest = list(exponents)
        for x in head:
            rest.remove(x)
        yield head + tuple(rest)


def _orbit_sum(n: int, coefficient, fixed: int = 0, singled: int = 0) -> dict:
    """{(n - 3 - sum a, a[:fixed], a[fixed:]): coefficient(a)}, zeros dropped.

    A coefficient that singles out labels 1..``singled`` (and is symmetric in
    the others by construction) is read at every distinct ordered choice of
    exponents for them; a disagreement raises ``ArithmeticError``.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    orbits = {}
    for a in _representatives(n, fixed):
        values = {coefficient(b) for b in _placements(a, singled)}
        if len(values) != 1:
            raise ArithmeticError("orbit coefficient depends on the placement of its exponents")
        if c := values.pop():
            orbits[n - 3 - sum(a), a[:fixed], a[fixed:]] = c
    return orbits


def _split_sum(splits, factor):
    """A route's coefficient function: over the terms (e1, e2, weight) of
    factor(a_1, a_2), the weight times the sum over the splits of both
    components' G(m, s) / e! (a lone vertex 1 has e1 = -1 alone)."""
    splits = list(splits)

    def coefficient(a):
        total = Fraction(0)
        for e1, e2, weight in factor(a[0], a[1]):
            part = 0
            for s1, s2 in splits:
                first = _component(len(s1), e1 + sum(a[b - 1] for b in s1[1:]), e1)
                if first:
                    part += first * _component(len(s2), e2 + sum(a[b - 1] for b in s2[1:]), e2)
            if part:
                total += part * weight
        # t_{a_b} / a_b! per plain boundary b, whose excess is a_b
        return prod((_t(x) / factorial(x) for x in a[2:]), start=total)
    return coefficient


@lru_cache(maxsize=None)
def _reduced(a1: int, a2: int) -> tuple:
    """t_{deg(b1)}(L1) t_{deg(b2)-1}(L2) / 8 has deg(b1) = a_1, deg(b2) = a_2 + 1."""
    return ((a1 - 1, a2, _t(a1) * _t(a2) / 8),)


@lru_cache(maxsize=None)
def _glued(mode: str, a1: int, a2: int) -> tuple:
    """The coefficient of L1^(2 a_1) L2^(2 a_2) in ell_integral(e1, e2, mode) / 16,
    which has L-degree e1 + e2 + 1: one term per excess e1 = deg(b1) - 1 < a_1."""
    k = a1 + a2 - 1
    return tuple((e1, k - e1, ell_integral(e1, k - e1, mode).coefficient(
                      ((lsq(1), a1), (lsq(2), a2))) / 16)
                 for e1 in range(-1, a1))


# -- the routes ------------------------------------------------------------

def htc_volume(n: int) -> dict:
    """H_n in pi^2, L_1^2, ..., L_n^2 as an orbit dict keyed (p, (a_1, a_2), tail).

    H_n = 1/4 * sum over trees with boundary labels 2..n of
          ttilde_{deg(b2)-1}(L2, L1) * prod_{b != 2} t_{deg(b)-1}(L_b)
          * prod_v gamma_{deg(v)-1}.

    Valid under ``HTC_ASSUMPTION``.
    """
    lone = ((1,), tuple(range(2, n + 1)))  # the isolated split
    return _orbit_sum(n, _split_sum([lone], partial(_glued, "integral")), fixed=2)


def v0n_reduced(n: int) -> dict:
    """V_{0,n} from the reduced double-tree sum, as an orbit dict keyed (p, (), tail).

    V_{0,n} = 1/8 * sum over the ``two-three`` family of
              t_{deg(b1)}(L1) * prod_{b != 1} t_{deg(b)-1}(L_b)
              * prod_v gamma_{deg(v)-1}.

    The result is symmetric in all lengths even though the family singles
    out labels 1, 2, 3; each orbit coefficient is checked at every placement
    of its exponents on them, and a mismatch raises ``ArithmeticError``.
    """
    return _orbit_sum(n, _split_sum(family_splits("two-three", n), _reduced), singled=3)


def v0n_graph_sum(n: int) -> dict:
    """V_{0,n} from the graph-family sum with the alternating m-sum, as an orbit dict.

    V_{0,n} = 1/8 * sum over the ``graph`` family, with the pair of special
    boundaries contributing
        sum_{m=0}^{deg(b2)-1} (-1)^m t_{deg(b1)+m}(L1) t_{deg(b2)-1-m}(L2),
    half of ``ell_integral(deg(b1) - 1, deg(b2) - 1)``, all other boundaries
    t_{deg-1} and inner vertices gamma_{deg-1}.  An isolated vertex 1 has
    degree 0.  Derived under ``HTC_ASSUMPTION``; the result is symmetric
    (checked on labels 1, 2) so the condition drops out.
    """
    return _orbit_sum(n, _split_sum(family_splits("graph", n), partial(_glued, "closed")),
                      singled=2)


@lru_cache(maxsize=None)
def ell_integral(a: int, b: int, mode: str = "closed") -> Polynomial:
    """The gluing-length integral int_0^inf l dl ttilde_a(L1,l) ttilde_b(L2,l).

    Under ``HTC_ASSUMPTION`` this equals (mode ``closed``)

        2 sum_{m=0}^{b} (-1)^m t_{a+1+m}(L1) t_{b-m}(L2).

    Mode ``integral`` evaluates the left-hand side directly for a >= 0 by
    expanding (L1^2 - u)^a (L2^2 - u)^b in u = l^2 and integrating against
    the half-square rule; the integration range collapses to (0, L1) because
    ttilde carries the indicator l < L.  For a = -1 the first factor is the
    gluing of boundary 1 with the separating curve itself, and the left-hand
    side degenerates to 4 * ttilde_b(L2, L1).
    """
    if a < -1 or b < 0:
        raise ValueError(f"need a >= -1 and b >= 0, got a={a}, b={b}")
    P1 = Polynomial.of_atom(lsq(1))
    P2 = Polynomial.of_atom(lsq(2))
    if mode == "closed":
        return Polynomial.sum(weight_t(a + 1 + m, 1) * weight_t(b - m, 2) * (-1) ** m
                              for m in range(b + 1)) * 2
    if mode == "integral":
        if a == -1:
            return weight_t_tilde(b, P2, P1) * 4
        u = Polynomial.of_atom(AUX)
        q = weight_t_tilde(a, P1, u) * weight_t_tilde(b, P2, u)
        return integrate_halfsquare(q, lsq(1))
    raise ValueError(f"unknown mode {mode!r}")


def full_decomposition_v0n(n: int) -> dict:
    """V_{0,n} as half-tight part plus glued pairs of half-tight parts, as an orbit dict.

    V_{0,n} = H_n + 1/16 * sum over the ``full`` family of
              [int_0^inf l dl ttilde_{deg(b1)-1}(L1,l) ttilde_{deg(b2)-1}(L2,l)]
              * prod_{b != 1,2} t_{deg(b)-1}(L_b) * prod_v gamma_{deg(v)-1},

    with the l-integral evaluated in ``integral`` mode (actual integration,
    independent of the closed form used by the graph sum).  Must equal
    :func:`v0n_reduced` exactly; symmetry is checked on labels 1, 2.
    """
    return _orbit_sum(n, _split_sum(family_splits("graph", n), partial(_glued, "integral")),
                      singled=2)
