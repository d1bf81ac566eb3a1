"""Series root, half-tight generating function, and the insertion recursion."""
import subprocess
import sys
from fractions import Fraction
from math import factorial

import pytest

from wptrees.algebra import (
    AUX, PI2, GradedSeries, Polynomial, expand_orbits, ghat, lsq, mom, that)
from wptrees.checks import f_from_trees
from wptrees.genfun import (
    f_recursion,
    f_substituted,
    htc_genfun,
    mu_average,
    solve_r,
    symmetric_from_moments,
    t_moment,
    z_residual,
    z_series,
)
from wptrees.trees import enumerate_family, family_splits, prufer_counts
from wptrees.volumes import htc_volume, v0n_reduced

P = Polynomial


def test_z_series_low_coefficients():
    # Recomputed by hand from J1(x) = sum (-1)^k (x/2)^(2k+1)/(k!(k+1)!)
    # and I0(x) = sum (x/2)^(2k)/(k!)^2 at x = 2 pi sqrt(2r), L sqrt(2r).
    z = z_series(3).body
    assert z.coefficient([(mom(0), 1)]) == -1
    assert z.coefficient([(AUX, 1)]) == 1
    assert z.coefficient([(mom(1), 1), (AUX, 1)]) == Fraction(-1, 2)
    assert z.coefficient([(PI2, 1), (AUX, 2)]) == -1
    assert z.coefficient([(mom(2), 1), (AUX, 2)]) == Fraction(-1, 16)
    assert z.coefficient([(PI2, 2), (AUX, 3)]) == Fraction(1, 3)
    assert z.coefficient([(mom(3), 1), (AUX, 3)]) == Fraction(-1, 288)


def test_t_moment_conversion():
    assert t_moment(0) == P.const(2) * P.of_atom(mom(0))
    assert t_moment(1) == P.const(Fraction(1, 2)) * P.of_atom(mom(1))
    assert t_moment(2) == P.const(Fraction(1, 16)) * P.of_atom(mom(2))


def test_solve_r_grade_1():
    assert solve_r(1).body == P.of_atom(mom(0))


def test_solve_r_grade_2():
    expected = (P.of_atom(mom(0))
                + P.monomial(Fraction(1, 2), [(mom(0), 1), (mom(1), 1)])
                + P.monomial(1, [(PI2, 1), (mom(0), 2)]))
    assert solve_r(2).body == expected


def test_solve_r_grade_3():
    # Z(R) = 0 reads R = m0 + m1 R/2 + (pi^2 + m2/16) R^2 - pi^4 R^3/3 + ...
    # Its grade-3 part, with R_1 = m0 and R_2 = 1/2 m0 m1 + pi^2 m0^2, is
    # R_3 = m1 R_2/2 + 2 pi^2 R_1 R_2 + m2 R_1^2/16 - pi^4 R_1^3/3
    #     = 5/3 pi^4 m0^3 + 3/2 pi^2 m0^2 m1 + 1/4 m0 m1^2 + 1/16 m0^2 m2.
    grade3 = solve_r(3).grade_part(3)
    expected = (P.monomial(Fraction(5, 3), [(PI2, 2), (mom(0), 3)])
                + P.monomial(Fraction(3, 2), [(PI2, 1), (mom(0), 2), (mom(1), 1)])
                + P.monomial(Fraction(1, 4), [(mom(0), 1), (mom(1), 2)])
                + P.monomial(Fraction(1, 16), [(mom(0), 2), (mom(2), 1)]))
    assert grade3 == expected


@pytest.mark.parametrize("cap", [1, 2, 3, 4, 5, 6, 9, 10])
def test_z_root_vanishes(cap):
    assert z_residual(solve_r(cap)).is_zero()


# Each mutant of the composition adds m1, a term of grade 1, to the residual
# at the calls it names, and the guard that must catch it is named by its
# message (a grade-1 error keeps every power of the root truncated, so a
# missing guard shows as the wrong message, not as a long run): at every
# call the step for grade 2 refuses it; at the working cap 3 only, the step
# for grade 3; at the final full-cap call only (the second call at cap 5,
# after the step for grade 5), the closing zero-residual check.
ROOT_GUARD_SCRIPT = """\
import wptrees.genfun as g
compose = g._compose_aux
mutants = [
    (lambda r, calls: True, "below grade 2"),
    (lambda r, calls: r.grade_cap == 3, "below grade 3"),
    (lambda r, calls: calls.count(5) == 2, "did not reach a zero residual"),
]
for when, message in mutants:
    calls = []

    def spurious(p, r):
        calls.append(r.grade_cap)
        out = compose(p, r)
        if when(r, calls):
            out = out + g.GradedSeries(g.Polynomial.of_atom(g.mom(1)), r.grade_cap)
        return out

    g._compose_aux = spurious
    try:
        g.solve_r(5)
    except ArithmeticError as exc:
        if message not in str(exc):
            raise SystemExit(f"{message}: another guard fired: {exc}")
    else:
        raise SystemExit(f"{message}: solve_r returned despite a nonzero residual")
    g._compose_aux = compose
    if not g.z_residual(g.solve_r(5)).is_zero():
        raise SystemExit(f"{message}: no root after the patch was undone")
"""


def test_root_guard_survives_optimize():
    # Under ``python -O`` a bare assert would vanish; both guards must not.
    # Each mutant must make solve_r raise from the guard meant for it, and
    # solve_r must solve again once the composition is restored.
    out = subprocess.run([sys.executable, "-O", "-c", ROOT_GUARD_SCRIPT],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_graded_product_of_series_root():
    r = solve_r(6)
    assert (r * r).body == GradedSeries(r.body * r.body, 6).body


def test_htc_genfun_low_grades():
    h = htc_genfun(2)
    assert h.grade_part(1) == P.of_atom(mom(0))
    expected2 = (P.monomial(Fraction(1, 2), [(mom(0), 1), (mom(1), 1)])
                 + P.monomial(1, [(PI2, 1), (mom(0), 2)])
                 + P.monomial(Fraction(1, 4), [(mom(0), 2), (lsq(2), 1)])
                 - P.monomial(Fraction(1, 4), [(mom(0), 2), (lsq(1), 1)]))
    assert h.grade_part(2) == expected2


def test_htc_genfun_structure():
    # Each power of (L2^2 - L1^2) appears with weight 2^-k R^(k+1)/(k!(k+1)!).
    cap = 3
    h = htc_genfun(cap)
    r = solve_r(cap)
    diff = P.of_atom(lsq(2)) - P.of_atom(lsq(1))
    total = GradedSeries(P.zero(), cap)
    r_power = r
    for k in range(cap):
        coeff = Fraction(1, 2 ** k * factorial(k) * factorial(k + 1))
        total = total + r_power * GradedSeries(diff ** k * coeff, cap)
        r_power = r_power * r
    assert h.body == total.body


@pytest.mark.parametrize("p", [1, 2, 3])
def test_htc_genfun_matches_averaged_volumes(p):
    h = htc_genfun(3)
    avg = mu_average(expand_orbits(htc_volume(p + 2)), range(3, p + 3))
    assert h.grade_part(p) == avg * Fraction(1, factorial(p))


def test_htc_genfun_collapses_to_r_at_equal_lengths():
    collapsed = htc_genfun(4).body.substitute({lsq(2): P.of_atom(lsq(1))})
    assert collapsed == solve_r(4).body


def test_f_base_and_one_step():
    # At gam1 = -1: -t0^3/gam1 is t0^3, and 4 t0^3 t1/gam1^2 - t0^4 gam2/gam1^3
    # is 4 t0^3 t1 + t0^4 gam2.
    assert f_recursion(3) == P.of_atom(that(0), 3)
    expected4 = (P.monomial(4, [(that(0), 3), (that(1), 1)])
                 + P.monomial(1, [(that(0), 4), (ghat(2), 1)]))
    assert f_recursion(4) == expected4
    with pytest.raises(ValueError):
        f_recursion(2)


def test_f4_substitution_matches_averaged_v04():
    sub = f_substituted(4)
    expected = (P.monomial(2, [(mom(0), 3), (mom(1), 1)])
                + P.monomial(2, [(PI2, 1), (mom(0), 4)]))
    assert sub == expected
    assert sub == mu_average(expand_orbits(v0n_reduced(4)), range(1, 5))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_f_from_trees_equals_recursion(n):
    assert f_from_trees(n) == f_recursion(n)


# The number of double trees in the two-three family at n = 3 .. 11.
TWO_THREE_SIZES = [1, 5, 44, 572, 9952, 217968, 5768464, 179189872, 6394573984]


def _trees_on(m):
    """The number of trees on m boundary labels, from the Pruefer counts: the
    boundary excesses summing to s spread over the labels in m^s / s! ways."""
    if m == 1:
        return 1
    return sum(count * Fraction(m ** s, factorial(s))
               for s in range(m - 1) for _, count in prufer_counts(m, s))


@pytest.mark.parametrize("n", range(3, 12))
def test_f_coefficients_count_two_three_trees(n):
    # At gam1 = -1 each double tree adds its degree monomial with coefficient
    # 1, so f_n's coefficients are positive integers summing to the family size.
    coefficients = [c for _, c in f_recursion(n).items()]
    assert all(c.denominator == 1 and c > 0 for c in coefficients)
    total = sum(coefficients)
    if n <= 6:
        assert total == len(enumerate_family("two-three", n))
    assert total == sum(_trees_on(len(s1)) * _trees_on(len(s2))
                        for s1, s2 in family_splits("two-three", n))
    assert total == TWO_THREE_SIZES[n - 3]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_recursion_equals_averaged_volumes(n):
    lhs = f_substituted(n)
    assert lhs == mu_average(expand_orbits(v0n_reduced(n)), range(1, n + 1))


def test_mu_average_examples():
    assert mu_average(P.one(), (1, 2, 3)) == P.of_atom(mom(0), 3)
    avg = mu_average(expand_orbits(v0n_reduced(4)), range(1, 5))
    assert avg == (P.monomial(2, [(PI2, 1), (mom(0), 4)])
                   + P.monomial(2, [(mom(0), 3), (mom(1), 1)]))


def test_symmetric_from_moments_round_trip():
    for n in (3, 4, 5):
        orbits = v0n_reduced(n)
        avg = mu_average(expand_orbits(orbits), range(1, n + 1))
        assert symmetric_from_moments(avg, n) == orbits


def test_symmetric_from_moments_degree_check():
    with pytest.raises(ValueError):
        symmetric_from_moments(P.of_atom(mom(0), 2), 3)


@pytest.mark.parametrize("stray", [AUX, lsq(1)], ids=["r", "squared-length"])
def test_symmetric_from_moments_refuses_other_atoms(stray):
    # A term of the right moment degree is still refused if it holds any atom
    # besides pi^2 and the moments, rather than passing the atom through.
    with pytest.raises(ValueError, match="besides pi2 and the moments"):
        symmetric_from_moments(P.monomial(1, [(PI2, 1), (mom(0), 2), (stray, 1)]), 2)


def test_moment_context_validation():
    with pytest.raises(ValueError):
        z_series(0)
