"""Exact tree-sum volume formulas.

The engine computes two exact polynomial families in pi^2 and the squared
boundary lengths:

* ``H_n(L)``      volumes of surfaces whose first boundary is the strictly
                  shortest curve separating boundary 1 from boundary 2
                  (valid under the side condition 0 < L1 < L2);
* ``V_{0,n}(L)``  genus-zero volumes, via three independent routes that must
                  agree exactly: a reduced sum over the ``two-three`` family,
                  a sum over the ``graph`` family, and the half-tight + full
                  decomposition whose gluing length l is integrated out
                  symbolically.

Per-vertex weights (with k = deg - 1 unless stated otherwise):

    t_k(L)        = 2 (L^2)^k / (4^k k!)
    ttilde_k(L,l) = 2 (L^2 - l^2)^k / (4^k k!)      for l < L, k >= 0
    gamma_k       = (-1)^k pi^(2k-2) / (k-1)!       for k >= 1

The sums are over combinatorial trees, but a summand depends only on the
tree's degree profile (the component split, the degree of each labelled
boundary vertex and the multiset of inner degrees), so every route sums over
profiles instead, each weighted by its exact tree count
(N - 2)! / prod_v (deg(v)-1)! / prod_k mult_k!  (Pruefer, with the repeats
mult_k of the inner multiset divided out; see :mod:`wptrees.trees`).  Within
a split the components contribute independent factors, so each route
groups a component's profiles by the degree its special factor reads and
multiplies the grouped sums.  The plane-tree form with 1/(deg-1)! factors is
equivalent because boundary-labeled trees are rigid and have exactly
prod_v (deg(v)-1)! plane embeddings.  The side conditions l < L and L1 < L2
are bookkeeping on intermediate objects only; the final V_{0,n} are
symmetric in all lengths and the assumption drops out.

All arithmetic is exact and the prefactors 1/4, 1/8, 1/16 are applied once
at the end, so the order of summation never changes a result.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

from .algebra import AUX, PI2, Polynomial, integrate_halfsquare, lsq, multiset_permutations
from .trees import Profile, family_profiles

__all__ = [
    "HTC_ASSUMPTION",
    "weight_t",
    "weight_t_tilde",
    "weight_gamma",
    "tree_weight",
    "weight_sums",
    "htc_volume",
    "v0n_reduced",
    "v0n_graph_sum",
    "full_decomposition_v0n",
    "ell_integral",
    "known_v0n",
    "V05_COEFFICIENT_NOTE",
    "is_homogeneous",
    "is_symmetric",
]

HTC_ASSUMPTION = "0 < L1 < L2"

V05_COEFFICIENT_NOTE = (
    "note: the computed coefficient of sum_i L_i^2 in the n=5 volume is "
    "3*pi2; the value \"3*pi\" that sometimes appears in print fails "
    "homogeneity (every term has total degree 2 in pi^2 and the L_i^2)."
)


def _t_of(k: int, base: Polynomial) -> Polynomial:
    """t_k evaluated on a squared quantity: 2 * base^k / (4^k k!)."""
    if k < 0:
        raise ValueError(f"t_k needs k >= 0, got {k}")
    return (base ** k) * Fraction(2, 4 ** k * factorial(k))


@lru_cache(maxsize=None)
def weight_t(k: int, index: int) -> Polynomial:
    """t_k(L_index) as a polynomial in the atom L_index^2."""
    return _t_of(k, Polynomial.of_atom(lsq(index)))


def weight_t_tilde(k: int, high: Polynomial, low: Polynomial) -> Polynomial:
    """ttilde_k on squared quantities: 2 (high - low)^k / (4^k k!).

    ``high`` and ``low`` stand for L^2 and l^2; the side condition l < L is
    not encoded in the polynomial.
    """
    if k < 0:
        raise ValueError(f"ttilde_k needs k >= 0, got {k}")
    return _t_of(k, high - low)


@lru_cache(maxsize=None)
def weight_gamma(k: int) -> Polynomial:
    """gamma_k = (-1)^k pi^(2k-2) / (k-1)! for k >= 1."""
    if k < 1:
        raise ValueError(f"gamma_k needs k >= 1, got {k}")
    coeff = Fraction((-1) ** k, factorial(k - 1))
    return Polynomial.of_atom(PI2, k - 1) * coeff


def tree_weight(p: Profile, skip=(), t_weight=weight_t,
                gamma_weight=weight_gamma) -> Polynomial:
    """prod_{b not in skip} t_{deg(b)-1}(L_b) * prod_v gamma_{deg(v)-1}.

    The product of the per-vertex weights of every boundary vertex outside
    ``skip`` and every inner vertex v of a tree with degree profile ``p``.
    ``t_weight(k, b)`` and ``gamma_weight(k)`` supply the two weights, so the
    same product serves counting atoms as well.
    """
    out = Polynomial.one()
    for b, d in zip(p.boundary, p.degrees):
        if b not in skip:
            out = out * t_weight(d - 1, b)
    for d in p.inner:
        out = out * gamma_weight(d - 1)
    return out


def weight_sums(profiles, key, skip=(), t_weight=weight_t,
                gamma_weight=weight_gamma) -> dict:
    """key(p) -> sum of p.count * tree_weight(p, skip, ...) over ``profiles``.

    One component's trees, grouped by what the special factor of a route
    reads off them (say the degree of a special boundary).
    """
    groups: dict = {}
    for p in profiles:
        groups.setdefault(key(p), []).append(
            tree_weight(p, skip, t_weight, gamma_weight) * p.count)
    return {k: Polynomial.sum(terms) for k, terms in groups.items()}


def _degree_of(label: int):
    return lambda p: p.degree(label)


def htc_volume(n: int) -> Polynomial:
    """H_n as an exact polynomial in pi^2, L_1^2, ..., L_n^2.

    H_n = 1/4 * sum over trees with boundary labels 2..n of
          ttilde_{deg(b2)-1}(L2, L1) * prod_{b != 2} t_{deg(b)-1}(L_b)
          * prod_v gamma_{deg(v)-1}.

    Valid under ``HTC_ASSUMPTION``.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    L1 = Polynomial.of_atom(lsq(1))
    L2 = Polynomial.of_atom(lsq(2))
    return Polynomial.sum(
        weight_t_tilde(d2 - 1, L2, L1) * w
        for (profiles,) in family_profiles("htc", n)
        for d2, w in weight_sums(profiles, _degree_of(2), skip=(2,)).items()
    ) * Fraction(1, 4)


def v0n_reduced(n: int) -> Polynomial:
    """V_{0,n} from the reduced double-tree sum.

    V_{0,n} = 1/8 * sum over the ``two-three`` family of
              t_{deg(b1)}(L1) * prod_{b != 1} t_{deg(b)-1}(L_b)
              * prod_v gamma_{deg(v)-1}.

    The result is symmetric in all lengths even though the family singles
    out labels 1, 2, 3; symmetry is checked (via the transpositions that
    generate the full permutation group) and a failure raises
    ``ArithmeticError``, so it is never assumed.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    def products():
        for first, second in family_profiles("two-three", n):
            part1 = Polynomial.sum(weight_t(d1, 1) * w for d1, w in
                                   weight_sums(first, _degree_of(1), skip=(1,)).items())
            (part2,) = weight_sums(second, lambda p: None).values()
            yield part1 * part2

    total = Polynomial.sum(products()) * Fraction(1, 8)
    if not is_symmetric(total, n):
        raise ArithmeticError("reduced volume is not symmetric")
    return total


def _paired_sum(family: str, n: int, factor) -> Polynomial:
    """Sum over ``family`` of factor(deg(b1), deg(b2)) times the weights of
    every other vertex; ``factor`` is called once per distinct degree pair."""
    factor = lru_cache(maxsize=None)(factor)
    def products():
        for first, second in family_profiles(family, n):
            sums1 = weight_sums(first, _degree_of(1), skip=(1, 2))
            sums2 = weight_sums(second, _degree_of(2), skip=(1, 2))
            for d1, w1 in sums1.items():
                yield w1 * Polynomial.sum(factor(d1, d2) * w2 for d2, w2 in sums2.items())

    return Polynomial.sum(products())


def _alternating_pair(d1: int, d2: int) -> Polynomial:
    """sum_{m=0}^{d2-1} (-1)^m t_{d1+m}(L1) t_{d2-1-m}(L2)."""
    return Polynomial.sum(weight_t(d1 + m, 1) * weight_t(d2 - 1 - m, 2) * (-1) ** m
                          for m in range(d2))


def v0n_graph_sum(n: int) -> Polynomial:
    """V_{0,n} from the graph-family sum with the alternating m-sum.

    V_{0,n} = 1/8 * sum over the ``graph`` family, with the pair of special
    boundaries contributing
        sum_{m=0}^{deg(b2)-1} (-1)^m t_{deg(b1)+m}(L1) t_{deg(b2)-1-m}(L2),
    all other boundaries t_{deg-1} and inner vertices gamma_{deg-1}.
    An isolated vertex 1 has degree 0.  Derived under ``HTC_ASSUMPTION``;
    the result is symmetric so the condition drops out.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return _paired_sum("graph", n, _alternating_pair) * Fraction(1, 8)


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
        return Polynomial.sum(_t_of(a + 1 + m, P1) * _t_of(b - m, P2) * (-1) ** m
                              for m in range(b + 1)) * 2
    if mode == "integral":
        if a == -1:
            return weight_t_tilde(b, P2, P1) * 4
        u = Polynomial.of_atom(AUX)
        q = weight_t_tilde(a, P1, u) * weight_t_tilde(b, P2, u)
        return integrate_halfsquare(q, lsq(1))
    raise ValueError(f"unknown mode {mode!r}")


def full_decomposition_v0n(n: int) -> Polynomial:
    """V_{0,n} as half-tight part plus glued pairs of half-tight parts.

    V_{0,n} = H_n + 1/16 * sum over the ``full`` family of
              [int_0^inf l dl ttilde_{deg(b1)-1}(L1,l) ttilde_{deg(b2)-1}(L2,l)]
              * prod_{b != 1,2} t_{deg(b)-1}(L_b) * prod_v gamma_{deg(v)-1},

    with the l-integral evaluated in ``integral`` mode (actual integration,
    independent of the closed form used by the graph sum), once per
    distinct degree pair.  Must equal :func:`v0n_reduced` exactly.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    glued = _paired_sum("full", n, lambda d1, d2: ell_integral(
        d1 - 1, d2 - 1, mode="integral"))
    return htc_volume(n) + glued * Fraction(1, 16)


# -- oracle data and invariants ------------------------------------------

def _sym_sum(n: int, shape: tuple[int, ...], pi2_power: int, coeff) -> Polynomial:
    """coeff * pi^(2 pi2_power) * sum of the monomial orbit of ``shape``.

    ``shape`` lists squared-length exponents for distinct boundary indices;
    the orbit sum runs over all distinct assignments to 1..n (each distinct
    monomial once).
    """
    padded = tuple(shape) + (0,) * (n - len(shape))
    return Polynomial.sum(
        Polynomial.monomial(coeff, [(PI2, pi2_power)]
                            + [(lsq(i + 1), e) for i, e in enumerate(perm) if e])
        for perm in multiset_permutations(padded))


def known_v0n(n: int) -> Polynomial:
    """Reference closed forms of V_{0,n} for n <= 6 (oracle data).

    The n = 5 row carries coefficient 3*pi^2 on sum_i L_i^2; see
    ``V05_COEFFICIENT_NOTE``.
    """
    if n == 3:
        return Polynomial.one()
    if n == 4:
        return (_sym_sum(4, (), 1, 2)
                + _sym_sum(4, (1,), 0, Fraction(1, 2)))
    if n == 5:
        return (_sym_sum(5, (), 2, 10)
                + _sym_sum(5, (1,), 1, 3)
                + _sym_sum(5, (2,), 0, Fraction(1, 8))
                + _sym_sum(5, (1, 1), 0, Fraction(1, 2)))
    if n == 6:
        return (_sym_sum(6, (), 3, Fraction(244, 3))
                + _sym_sum(6, (1,), 2, 26)
                + _sym_sum(6, (2,), 1, Fraction(3, 2))
                + _sym_sum(6, (1, 1), 1, 6)
                + _sym_sum(6, (3,), 0, Fraction(1, 48))
                + _sym_sum(6, (2, 1), 0, Fraction(3, 16))
                + _sym_sum(6, (1, 1, 1), 0, Fraction(3, 4)))
    raise ValueError(f"no reference form for n = {n}")


def is_homogeneous(p: Polynomial, degree: int) -> bool:
    """True iff every monomial has pi^2-degree + squared-length degree == degree."""
    for mono, _ in p.items():
        total = 0
        for a, e in mono:
            if a.kind not in (PI2.kind, lsq(1).kind):
                return False
            total += e
        if total != degree:
            return False
    return True


def is_symmetric(p: Polynomial, n: int, all_permutations: bool = False) -> bool:
    """Invariance of p under permutations of L_1^2 .. L_n^2.

    By default only the adjacent transpositions are checked; they generate
    the full permutation group, so this is a complete test.  Set
    ``all_permutations`` to check every permutation explicitly.
    """
    atoms = [lsq(i) for i in range(1, n + 1)]
    if all_permutations:
        renamings = ({atoms[i]: atoms[perm[i]] for i in range(n)}
                     for perm in permutations(range(n)))
    else:
        renamings = ({atoms[i]: atoms[i + 1], atoms[i + 1]: atoms[i]}
                     for i in range(n - 1))
    # A renaming permutes the monomials, so p is invariant iff each renamed
    # monomial carries the coefficient of the one it came from.
    return all(p.coefficient((rename.get(a, a), e) for a, e in mono) == c
               for rename in renamings for mono, c in p.items())
