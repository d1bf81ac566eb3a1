"""Weights and the three volume routes against hand, table and recursion
oracles."""
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache, partial
from math import factorial

import pytest

from wptrees import volumes
from wptrees.algebra import PI2, Polynomial, expand_orbits, lsq, mom
from wptrees.checks import is_homogeneous, is_symmetric, known_v0n, zograf_v
from wptrees.genfun import f_substituted, symmetric_from_moments
from wptrees.trees import enumerate_family, family_splits
from wptrees.volumes import (
    ell_integral,
    full_decomposition_v0n,
    htc_volume,
    v0n_graph_sum,
    v0n_reduced,
    weight_gamma,
    weight_t,
    weight_t_tilde,
)

P = Polynomial


def test_weight_t_values():
    assert weight_t(0, 1) == P.const(2)
    assert weight_t(1, 1) == P.const(Fraction(1, 2)) * P.of_atom(lsq(1))
    assert weight_t(2, 1) == P.const(Fraction(1, 16)) * P.of_atom(lsq(1), 2)
    with pytest.raises(ValueError):
        weight_t(-1, 1)


def test_weight_gamma_values():
    assert weight_gamma(1) == P.const(-1)
    assert weight_gamma(2) == P.of_atom(PI2)
    assert weight_gamma(3) == P.const(Fraction(-1, 2)) * P.of_atom(PI2, 2)
    with pytest.raises(ValueError):
        weight_gamma(0)


def test_htc_volume_small():
    assert expand_orbits(htc_volume(3)) == P.one()
    expected = (P.const(2) * P.of_atom(PI2)
                + P.const(Fraction(1, 2)) * (P.of_atom(lsq(2)) - P.of_atom(lsq(1)))
                + P.const(Fraction(1, 2)) * P.of_atom(lsq(3))
                + P.const(Fraction(1, 2)) * P.of_atom(lsq(4)))
    assert expand_orbits(htc_volume(4)) == expected
    with pytest.raises(ValueError):
        htc_volume(2)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_reduced_matches_table(n):
    assert v0n_reduced(n) == known_v0n(n)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_routes_agree(n):
    reduced = v0n_reduced(n)
    assert v0n_graph_sum(n) == reduced
    assert full_decomposition_v0n(n) == reduced


def test_v05_sum_of_squares_coefficient_is_3_pi2():
    coeff = expand_orbits(v0n_reduced(5)).coefficient([(PI2, 1), (lsq(1), 1)])
    assert coeff == 3


def test_full_part_n4_is_l1_squared():
    difference = expand_orbits(full_decomposition_v0n(4)) - expand_orbits(htc_volume(4))
    assert difference == P.of_atom(lsq(1))


def test_ell_integral_examples():
    assert ell_integral(0, 0) == P.const(2) * P.of_atom(lsq(1))
    assert ell_integral(-1, 0) == P.const(8)
    assert ell_integral(1, 1) == ell_integral(1, 1, mode="integral")


@pytest.mark.parametrize("a", [-1, 0, 1, 2, 3])
@pytest.mark.parametrize("b", [0, 1, 2, 3])
def test_ell_integral_modes_agree(a, b):
    assert ell_integral(a, b) == ell_integral(a, b, mode="integral")


def test_ell_integral_validation():
    with pytest.raises(ValueError):
        ell_integral(-2, 0)
    with pytest.raises(ValueError):
        ell_integral(0, -1)
    with pytest.raises(ValueError):
        ell_integral(0, 0, mode="nope")


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_homogeneity(n):
    assert is_homogeneous(expand_orbits(v0n_reduced(n)), n - 3)
    assert is_homogeneous(expand_orbits(htc_volume(n)), n - 3)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_full_symmetry(n):
    assert is_symmetric(expand_orbits(v0n_reduced(n)), n)


@pytest.mark.parametrize("j", [1, 2, 3, 4], ids=lambda j: f"{j}-generators")
def test_symmetry_check_rejects_one_asymmetric_pair(j):
    # Invariant under every adjacent transposition but (L_j, L_{j+1}).
    n = 5
    symmetric = P.sum(P.monomial(1, [(PI2, 1), (lsq(i), 1), (lsq(k), 1)])
                      for i in range(1, n + 1) for k in range(i + 1, n + 1))
    split = P.sum(P.monomial(1 if i <= j else 2, [(lsq(i), 2)]) for i in range(1, n + 1))
    assert is_symmetric(symmetric, n)
    assert not is_symmetric(symmetric + split, n)


def test_positivity_at_positive_lengths():
    rng = random.Random(7)
    for n in (4, 5, 6):
        poly = expand_orbits(v0n_reduced(n))
        for _ in range(3):
            bindings = {PI2: Fraction(9.8696044010893586)}
            bindings.update({lsq(i): Fraction(rng.uniform(0.1, 5.0) ** 2)
                             for i in range(1, n + 1)})
            assert poly.eval_exact(bindings) > 0


def test_known_table_bounds():
    with pytest.raises(ValueError):
        known_v0n(7)


def test_symmetry_guard_survives_optimize():
    # Under ``python -O`` a bare assert would vanish; the guard must not.
    # The split-sum core gets its coefficient functions corrupted at one
    # placement, L1^2 alone at n = 4, which each symmetric route's guard
    # reads; each route runs clean again once the core is restored.
    code = ("import wptrees.volumes as v\n"
            "core = v._split_sum\n"
            "def corrupt(splits, factor):\n"
            "    f = core(splits, factor)\n"
            "    return lambda a: f(a) + (a == (1, 0, 0, 0))\n"
            "for route in (v.v0n_reduced, v.v0n_graph_sum, v.full_decomposition_v0n):\n"
            "    v._split_sum = corrupt\n"
            "    try:\n"
            "        route(4)\n"
            "    except ArithmeticError:\n"
            "        v._split_sum = core\n"
            "        route(4)\n"
            "        continue\n"
            "    raise SystemExit(route.__name__)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_orbit_sum_guards_the_singled_labels():
    # A coefficient symmetric in labels 3.. by construction but not in 1, 2.
    symmetric = expand_orbits(volumes._orbit_sum(4, lambda a: 5, singled=2))
    assert symmetric == P.sum(P.monomial(5, [(lsq(i), 1)]) for i in range(1, 5)) + 5 * P.of_atom(PI2)
    with pytest.raises(ArithmeticError):
        volumes._orbit_sum(4, lambda a: 5 + a[1], singled=2)


def test_reduced_guard_catches_an_asymmetric_weight(monkeypatch):
    # The reduced route's special factor scaled by (1 + a_1) depends on the
    # exponent placed on label 1, so the guard's reads of an orbit disagree.
    reduced_factor = volumes._reduced

    def scaled(a1, a2):
        return tuple((e1, e2, w * (1 + a1)) for e1, e2, w in reduced_factor(a1, a2))

    monkeypatch.setattr(volumes, "_reduced", scaled)
    with pytest.raises(ArithmeticError):
        v0n_reduced(6)


# -- the defining per-tree sums --------------------------------------------

def tree_weight(t, skip=()):
    """prod_{b not in skip} t_{deg(b)-1}(L_b) * prod_v gamma_{deg(v)-1}."""
    out = P.one()
    for v, d in t.degrees().items():
        if v < 0:
            out = out * weight_gamma(d - 1)
        elif v not in skip:
            out = out * weight_t(d - 1, v)
    return out


def alternating_pair(d1, d2):
    """sum_{m=0}^{d2-1} (-1)^m t_{d1+m}(L1) t_{d2-1-m}(L2)."""
    return P.sum(weight_t(d1 + m, 1) * weight_t(d2 - 1 - m, 2) * (-1) ** m
                 for m in range(d2))


def per_tree_htc(n):
    L1, L2 = P.of_atom(lsq(1)), P.of_atom(lsq(2))
    return P.sum(weight_t_tilde(t.degrees()[2] - 1, L2, L1) * tree_weight(t, (2,))
                 for t in enumerate_family("htc", n)) * Fraction(1, 4)


def per_tree_pairs(family, n, pair):
    return P.sum(pair(d.t1.degrees()[1], d.t2.degrees()[2])
                 * tree_weight(d.t1, (1,)) * tree_weight(d.t2, (2,))
                 for d in enumerate_family(family, n))


PER_TREE = {
    "htc": (htc_volume, per_tree_htc),
    "reduced": (v0n_reduced, lambda n: P.sum(
        weight_t(d.t1.degrees()[1], 1) * tree_weight(d.t1, (1,)) * tree_weight(d.t2)
        for d in enumerate_family("two-three", n)) * Fraction(1, 8)),
    "graph-sum": (v0n_graph_sum, lambda n: per_tree_pairs(
        "graph", n, alternating_pair) * Fraction(1, 8)),
    "decomposition": (full_decomposition_v0n, lambda n: per_tree_htc(n) + per_tree_pairs(
        "full", n, lambda d1, d2: ell_integral(d1 - 1, d2 - 1, mode="integral"))
        * Fraction(1, 16)),
}


@pytest.mark.parametrize("route", PER_TREE)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_routes_equal_per_tree_sums(route, n):
    computed, per_tree = PER_TREE[route]
    assert expand_orbits(computed(n)) == per_tree(n)


# -- beyond the reference table ----------------------------------------------

reduced = cache(v0n_reduced)


def recursion_route(n):
    return symmetric_from_moments(f_substituted(n), n)


@pytest.mark.parametrize("route, n", [(v0n_graph_sum, 7), (full_decomposition_v0n, 7),
                                      (reduced, 8)],
                         ids=["graph-sum-7", "decomposition-7", "reduced-8"])
def test_tree_routes_match_recursion_beyond_table(route, n):
    assert route(n) == recursion_route(n)


def zograf_constant_term(n: int) -> Polynomial:
    """V_{0,n}(0) = 2^(n-3) / (n-3)! * v_n * pi^(2(n-3))."""
    return P.monomial(Fraction(2 ** (n - 3), factorial(n - 3)) * zograf_v(n),
                      [(PI2, n - 3)])


def length_free_part(p: Polynomial, drop=()) -> Polynomial:
    """The terms of p in pi^2 alone, after deleting the atoms in ``drop``."""
    return P({tuple((a, e) for a, e in mono if a not in drop): c
              for mono, c in p.items()
              if all(a == PI2 or a in drop for a, _ in mono)})


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10])
def test_zograf_constant_term_reduced_route(n):
    assert length_free_part(expand_orbits(reduced(n))) == zograf_constant_term(n)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10])
def test_zograf_constant_term_recursion_route(n):
    # symmetric_from_moments maps c * pi2^k * m0^n to c * pi2^k and every
    # other moment monomial to terms with lengths, so V_{0,n}(0) is also the
    # m0^n part of the mu-average: both readings must give Zograf's value.
    constant = length_free_part(f_substituted(n), drop=(mom(0),))
    assert constant == length_free_part(expand_orbits(recursion_route(n)))
    assert constant == zograf_constant_term(n)


def moment_orbits(n):
    """f_substituted(n) read as orbit coefficients: a moment monomial
    C pi^(2p) prod_k m_k^(c_k) gives C prod_k c_k! / n! to the orbit
    (p, exponents in nonincreasing order)."""
    out = {}
    for mono, c in f_substituted(n).items():
        p, exponents, mult = 0, [], 1
        for a, e in mono:
            if a == PI2:
                p = e
            else:
                exponents += [a.index] * e
                mult *= factorial(e)
        out[p, tuple(sorted(exponents, reverse=True))] = c * mult / factorial(n)
    return out


ORBIT_ROUTES = {
    "reduced": lambda n: volumes._split_sum(family_splits("two-three", n), volumes._reduced),
    "graph-sum": lambda n: volumes._split_sum(family_splits("graph", n),
                                              partial(volumes._glued, "closed")),
    "decomposition": lambda n: volumes._split_sum(family_splits("graph", n),
                                                  partial(volumes._glued, "integral")),
}


@pytest.mark.parametrize("route, n", [("reduced", n) for n in (9, 10, 11, 12)]
                         + [(r, n) for r in ("graph-sum", "decomposition") for n in (9, 10)])
def test_orbit_coefficients_match_recursion(route, n):
    # One coefficient per orbit, read at the representative the routes
    # expand from; every nonzero one must be the recursion's.
    coefficient = ORBIT_ROUTES[route](n)
    orbits = {(n - 3 - sum(a), a): c for a in volumes._representatives(n)
              if (c := coefficient(a))}
    assert orbits == moment_orbits(n)
