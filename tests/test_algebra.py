"""Exact arithmetic: ring axioms, calculus rules, serialization."""
import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptrees import algebra
from wptrees.algebra import (
    AUX,
    PI2,
    GradedSeries,
    Polynomial,
    expand_orbits,
    ghat,
    integrate_halfsquare,
    lsq,
    mom,
    multiset_permutations,
    poly_from_json_terms,
    poly_to_json_terms,
    that,
)
from wptrees.volumes import htc_volume, v0n_reduced

P = Polynomial


def atom_poly(a, e=1):
    return P.of_atom(a, e)


# -- hand-checked operation examples -----------------------------------

def test_add_additive_inverse():
    assert atom_poly(PI2) + (-atom_poly(PI2)) == P.zero()


def test_add_disjoint_terms():
    a = P.const(2) * atom_poly(PI2) + P.const(Fraction(1, 2)) * atom_poly(lsq(1))
    b = P.const(Fraction(1, 2)) * atom_poly(lsq(2))
    total = a + b
    assert total.coefficient([(PI2, 1)]) == 2
    assert total.coefficient([(lsq(1), 1)]) == Fraction(1, 2)
    assert total.coefficient([(lsq(2), 1)]) == Fraction(1, 2)
    assert len(total) == 3


def test_add_merges_like_terms():
    half = P.const(Fraction(1, 2)) * atom_poly(lsq(1))
    assert half + half == atom_poly(lsq(1))


def test_mul_difference_of_squares():
    a = atom_poly(lsq(2)) - atom_poly(lsq(1))
    b = atom_poly(lsq(2)) + atom_poly(lsq(1))
    assert a * b == atom_poly(lsq(2), 2) - atom_poly(lsq(1), 2)


def test_mul_identity():
    p = P.const(3) * atom_poly(PI2) + atom_poly(mom(1))
    assert P.one() * p == p


def test_mul_pi2_squares():
    assert atom_poly(PI2) * atom_poly(PI2) == atom_poly(PI2, 2)


def test_partial_examples():
    p = P.monomial(1, [(mom(0), 3), (mom(1), 1)])
    assert p.partial(mom(1)) == atom_poly(mom(0), 3)
    q = P.monomial(1, [(lsq(1), 2), (PI2, 1)])
    assert q.partial(lsq(1)) == P.monomial(2, [(lsq(1), 1), (PI2, 1)])
    assert atom_poly(PI2).partial(mom(0)) == P.zero()


def test_integrate_halfsquare_examples():
    up = lsq(1)
    assert integrate_halfsquare(P.one(), up) == P.const(Fraction(1, 2)) * atom_poly(up)
    assert integrate_halfsquare(atom_poly(AUX), up) == P.const(Fraction(1, 4)) * atom_poly(up, 2)
    p = atom_poly(lsq(2)) - atom_poly(AUX)
    expected = (P.monomial(Fraction(1, 2), [(lsq(1), 1), (lsq(2), 1)])
                - P.monomial(Fraction(1, 4), [(lsq(1), 2)]))
    assert integrate_halfsquare(p, up) == expected


def test_integrate_rejects_aux_upper():
    with pytest.raises(ValueError):
        integrate_halfsquare(P.one(), AUX)


def test_eval_exact_examples():
    p = P.const(2) * atom_poly(PI2)
    for i in range(1, 5):
        p = p + P.const(Fraction(1, 2)) * atom_poly(lsq(i))
    pi2 = Fraction(math.pi ** 2)
    bindings = {PI2: pi2}
    bindings.update({lsq(i): Fraction(1) for i in range(1, 5)})
    assert p.eval_exact(bindings) == 2 * pi2 + 2
    assert P.one().eval_exact({}) == 1
    assert atom_poly(lsq(1)).eval_exact({lsq(1): Fraction(4)}) == 4


def test_eval_unbound_atom_raises():
    with pytest.raises(KeyError):
        atom_poly(PI2).eval_exact({})


def test_series_examples():
    m0 = GradedSeries(atom_poly(mom(0)), 2)
    assert (m0 * m0).body == atom_poly(mom(0), 2)
    m0_cap1 = GradedSeries(atom_poly(mom(0)), 1)
    assert (m0_cap1 * m0_cap1).is_zero()
    a = GradedSeries(atom_poly(mom(0)) + atom_poly(PI2) * atom_poly(mom(0), 2), 2)
    b = GradedSeries(atom_poly(mom(0)), 2)
    total = a + b
    assert total.body == (P.const(2) * atom_poly(mom(0))
                          + atom_poly(PI2) * atom_poly(mom(0), 2))


def test_polynomial_is_unhashable():
    # A constant polynomial equals its number, so no hash could agree with
    # both; the class has value equality and no hash.
    assert P.const(2) == 2
    with pytest.raises(TypeError):
        hash(P.const(2))


def test_sum_accumulates_without_zero_terms():
    assert P.sum([]) == P.zero()
    a = atom_poly(PI2) + atom_poly(lsq(1))
    total = P.sum([a, -atom_poly(PI2), atom_poly(mom(0)), atom_poly(mom(0))])
    assert total == atom_poly(lsq(1)) + P.const(2) * atom_poly(mom(0))
    assert len(total) == 2 and all(c != 0 for _, c in total.items())
    assert len(P.sum([a, -a])) == 0
    assert a == atom_poly(PI2) + atom_poly(lsq(1))  # operands are not mutated


@pytest.mark.parametrize("items", [(), (4,), (2, 2, 2), (3, 1, 2, 0), (0, 2, 1, 0, 2, 0)],
                         ids=["empty", "single", "all-equal", "all-distinct", "mixed"])
def test_multiset_permutations(items):
    assert list(multiset_permutations(items)) == sorted(set(permutations(items)))


def test_expand_orbits_writes_each_arrangement_in_canonical_order():
    # A pi^2 power, a head on label 1, and a tail with repeats; the expected
    # sum goes through Polynomial.monomial.
    got = expand_orbits({(1, (1,), (2, 0, 0)): Fraction(3, 2)})
    expected = P.sum(P.monomial(Fraction(3, 2), [(PI2, 1), (lsq(1), 1)] + [
        (lsq(i), e) for i, e in zip((2, 3, 4), tail) if e])
        for tail in set(permutations((0, 2, 0))))
    assert got == expected and len(got) == 3


def symmetrised(orbits):
    """The orbit dict by brute force: each orbit's coefficient on every
    permutation of its tail, the repeats struck out."""
    return P.sum(P.monomial(c, [(PI2, p)] + [
        (lsq(i), e) for i, e in enumerate(head + arrangement, start=1)])
        for (p, head, tail), c in orbits.items() for arrangement in set(permutations(tail)))


@pytest.mark.parametrize("n", range(3, 9))
def test_expand_orbits_matches_brute_force_symmetrisation(n):
    for orbits in (v0n_reduced(n), htc_volume(n)):
        assert expand_orbits(orbits) == symmetrised(orbits)


def test_expand_orbits_writes_each_distinct_arrangement_once():
    for orbits in (v0n_reduced(10), htc_volume(10)):
        arrangements = sum(math.factorial(len(tail)) // math.prod(
            map(math.factorial, Counter(tail).values())) for _, _, tail in orbits)
        assert len(expand_orbits(orbits)) == arrangements


def test_map_terms_merges_like_terms_and_drops_cancelled_ones():
    L1, L2 = lsq(1), lsq(2)
    p = atom_poly(L1) - atom_poly(L2)
    swap = {L1: L2, L2: L1}
    renamed = p.map_terms(lambda m, c: (tuple(sorted((swap.get(a, a), e) for a, e in m)), c))
    assert renamed == -p
    assert p.substitute({L1: atom_poly(L2), L2: atom_poly(L1)}) == -p
    collapsed = p.substitute({L2: atom_poly(L1)})
    assert collapsed == P.zero() and len(collapsed) == 0
    # Two terms onto one monomial, and a rule that drops every other term.
    q = atom_poly(L1) * atom_poly(L2) + P.const(3) * atom_poly(L1, 2)
    merged = q.substitute({L2: atom_poly(L1)})
    assert merged == P.const(4) * atom_poly(L1, 2) and len(merged) == 1
    assert q.map_terms(lambda m, c: (m, c) if len(m) == 1 else None) == P.const(3) * atom_poly(L1, 2)


def test_substitute_refuses_a_two_term_image():
    with pytest.raises(ValueError):
        atom_poly(lsq(1)).substitute({lsq(1): atom_poly(lsq(2)) + atom_poly(PI2)})


def test_series_operations_never_grade_a_term_again(monkeypatch):
    # A series grades a body once, when built; sums, products and the
    # readers work on its parts as filed.
    sa = GradedSeries(atom_poly(mom(0)) + atom_poly(PI2) * atom_poly(mom(1), 2), 2)
    sb = GradedSeries(atom_poly(mom(1)) + atom_poly(mom(0), 3), 2)
    body_a, body_b = sa.body, sb.body

    def refuse(mono):
        raise AssertionError("graded again")

    monkeypatch.setattr(algebra, "_grade", refuse)
    assert (sa * sb).body == atom_poly(mom(0)) * atom_poly(mom(1))
    assert (sa + sb).body == body_a + body_b
    assert sa.grade_part(2) == atom_poly(PI2) * atom_poly(mom(1), 2)
    assert sb.grade_part(3) == P.zero()
    assert not (sa * sb).is_zero() and (sa * sb * sb).is_zero()
    assert sa + sb == sb + sa and sa != sb


def test_json_terms_build_each_length_atom_once(monkeypatch):
    p = P.sum(P.monomial(k, [(lsq(i), k)]) for i in range(1, 5) for k in (1, 2))
    expected = poly_to_json_terms(p, n_lengths=6)
    calls = []
    monkeypatch.setattr(algebra, "lsq", lambda i: calls.append(i) or lsq(i))
    assert poly_to_json_terms(p, n_lengths=6) == expected
    assert calls == [1, 2, 3, 4, 5, 6]


def test_series_cap_mismatch():
    with pytest.raises(ValueError):
        GradedSeries(P.one(), 1) + GradedSeries(P.one(), 2)


def test_series_truncation_idempotent():
    body = atom_poly(mom(0), 3) + atom_poly(mom(1))
    s = GradedSeries(body, 2)
    assert s.body == atom_poly(mom(1))
    assert GradedSeries(s.body, 2).body == s.body


# -- property tests -------------------------------------------------------

ATOMS = [PI2, lsq(1), lsq(2), mom(0), mom(1)]


@st.composite
def polynomials(draw, include_aux=False):
    atoms = ATOMS + ([AUX] if include_aux else [])
    n_terms = draw(st.integers(0, 4))
    total = P.zero()
    for _ in range(n_terms):
        coeff = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        pairs = draw(st.dictionaries(st.sampled_from(atoms), st.integers(1, 3),
                                     max_size=3))
        total = total + P.monomial(coeff, pairs.items())
    return total


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert P.sum([a, b, c]) == (a + b) + c


@pytest.mark.parametrize("cap", [0, 1, 2, 3, 4])
@given(polynomials(include_aux=True), polynomials(include_aux=True))
@settings(max_examples=40, deadline=None)
def test_graded_product_matches_truncated_product(cap, a, b):
    # Operands mix pi2, r, lengths and moments, with grades up to 6 per term.
    # Each operand, sum and product, with products reused as operands, must
    # file every term under its own grade and keep no empty part.
    sa, sb = GradedSeries(a, cap), GradedSeries(b, cap)
    ab = sa * sb
    assert ab.body == GradedSeries(a * b, cap).body
    assert (sa * sa).body == GradedSeries(a * a, cap).body
    assert (ab * sa).body == GradedSeries(a * b * a, cap).body
    assert (sb * sa).body == GradedSeries(b * a, cap).body
    assert (sa + sb).body == GradedSeries(a + b, cap).body
    # Cancelling sums and products: a - a, and the cross terms of (a + b)(a - b).
    gone = sa + GradedSeries(-a, cap)
    square_diff = (sa + sb) * GradedSeries(a - b, cap)
    assert gone.is_zero()
    assert square_diff.body == GradedSeries(a * a - b * b, cap).body
    for s in (sa, sb, ab, sa * sa, ab * sa, sb * sa, sa + sb, gone, square_diff):
        for g, part in s.parts.items():
            assert part and g <= cap
            assert all(algebra._grade(m) == g for m, _ in part.items())


# Every atom kind, with indices that tie and differ within a kind.
ALL_KINDS = [PI2, lsq(1), lsq(2), mom(0), mom(1), AUX, that(0), that(2), ghat(2), ghat(3)]


def nested_order(mono):
    """The graded order as nested pairs: degree, then (atom, -exponent)."""
    return (sum(e for _, e in mono), tuple((a, -e) for a, e in mono))


@given(st.lists(st.dictionaries(st.sampled_from(ALL_KINDS), st.integers(1, 3), max_size=4),
                max_size=6))
@settings(max_examples=80, deadline=None)
def test_sorted_terms_follow_the_nested_graded_order(drawn):
    # Every leading part of a drawn monomial is added, and again with its last
    # exponent raised, which ties in degree with the part one pair longer
    # when that pair's exponent is 1.
    monos = set()
    for pairs in drawn:
        mono = tuple(sorted(pairs.items()))
        for k in range(len(mono) + 1):
            monos.add(mono[:k])
            if k:
                monos.add(mono[:k - 1] + ((mono[k - 1][0], mono[k - 1][1] + 1),))
    expected = sorted(monos, key=nested_order)
    # Inserted in reverse, so a key that ties two monomials keeps them reversed.
    p = P.sum(P.monomial(1, mono) for mono in reversed(expected))
    assert [mono for mono, _ in p.sorted_terms()] == expected


@given(polynomials(), polynomials(), st.sampled_from(ATOMS))
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(a, b, x):
    assert (a * b).partial(x) == a.partial(x) * b + a * b.partial(x)


@given(polynomials(include_aux=True))
@settings(max_examples=60, deadline=None)
def test_integrate_then_differentiate(p):
    # p avoids the upper atom, so d/d(upper) of the integral is p(upper)/2.
    upper = lsq(3)
    integrated = integrate_halfsquare(p, upper)
    recovered = integrated.partial(upper)
    substituted = p.substitute({AUX: P.of_atom(upper)})
    assert recovered * 2 == substituted


@given(polynomials(), st.fractions(max_denominator=20), st.sampled_from(ATOMS))
@settings(max_examples=60, deadline=None)
def test_number_image_equals_constant_image(p, value, atom):
    by_number = p.substitute({atom: value})
    assert by_number == p.substitute({atom: P.const(value)})
    assert all(a != atom for mono, _ in by_number.items() for a, _ in mono)


@given(polynomials(include_aux=True))
@settings(max_examples=60, deadline=None)
def test_json_round_trip(p):
    assert poly_from_json_terms(poly_to_json_terms(p)) == p


@given(polynomials())
@settings(max_examples=30, deadline=None)
def test_text_is_insertion_order_independent(p):
    rebuilt = P.zero()
    for mono, coeff in reversed(p.sorted_terms()):
        rebuilt = rebuilt + P.monomial(coeff, mono)
    assert rebuilt.text() == p.text()


def test_canonical_text_form():
    p = (P.const(2) * atom_poly(PI2)
         + P.const(Fraction(1, 2)) * atom_poly(lsq(1)))
    assert p.text() == "2*pi2 + 1/2*L1^2"
    assert atom_poly(lsq(1), 2).text() == "L1^4"
    assert atom_poly(PI2, 2).text() == "pi2^2"
    assert P.zero().text() == "0"
    assert (-atom_poly(mom(0))).text() == "-m0"
