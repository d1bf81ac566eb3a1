"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all on
success).  The exact criteria run named checks of the identity registry in
``wptrees.checks``, the same checks ``wptrees verify identities`` runs; each
test lists the names, so its n-range stays pinned here.  The Monte Carlo
criterion uses the stated z-score bounds at the stated seed and sample count.
"""
import json
import subprocess
import sys
import time

from wptrees.algebra import PI2, expand_orbits, lsq, poly_from_json_terms, poly_to_json_terms
from wptrees.checks import identity_checks
from wptrees.montecarlo import mc_full_volume
from wptrees.trees import brute_force_enumerate, enumerate_family
from wptrees.volumes import v0n_reduced


def report(index: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {index:02d} {'PASS' if ok else 'FAIL'} {name}")
    assert ok, f"acceptance criterion {index} failed: {name}"


def passes(max_n: int, names) -> bool:
    """Run the named registry checks; a name the registry lacks is an error."""
    checks = identity_checks(max_n)
    return all(checks[name]() for name in names)


def each_n(prefix: str, last: int) -> list[str]:
    return [f"{prefix}-{n}" for n in range(3, last + 1)]


def test_criterion_1_table_reproduction(capfd):
    start = time.monotonic()
    ok = passes(6, each_n("table-v0", 6))
    out = subprocess.run(
        [sys.executable, "-m", "wptrees.cli", "vol", "--n", "5", "--method", "tree"],
        capture_output=True, text=True)
    ok = ok and out.returncode == 0 and "3*pi" in out.stderr  # the note
    ok = ok and expand_orbits(v0n_reduced(5)).coefficient([(PI2, 1), (lsq(1), 1)]) == 3
    elapsed = time.monotonic() - start
    report(1, f"exact table rows n=3..6 incl. 3*pi2 note ({elapsed:.1f}s < 10s)",
           ok and elapsed < 10)


def test_criterion_2_route_equivalence():
    start = time.monotonic()
    ok = passes(9, each_n("route-graph-sum", 9) + each_n("route-decomposition", 9))
    elapsed = time.monotonic() - start
    report(2, f"graph-sum = reduced = decomposition, n<=9 ({elapsed:.1f}s < 120s)",
           ok and elapsed < 120)


def test_criterion_3_recursion_equivalence():
    start = time.monotonic()
    ok = passes(7, each_n("recursion-vs-volume", 7))
    elapsed = time.monotonic() - start
    report(3, f"(1/8) f_n = mu-averaged volume, n<=7 ({elapsed:.1f}s < 300s)",
           ok and elapsed < 300)


def test_criterion_4_trees_vs_recursion():
    ok = passes(6, each_n("f-trees-vs-recursion", 6))
    report(4, "tree generating function = recursion, n<=6", ok)


def test_criterion_5_generating_functions():
    # H is checked through grade max(1, max_n - 2), so max_n = 5 gives p <= 3
    # and max_n = 10 gives p <= 8, that is, H_n for n = 3..10.
    ok = passes(5, ["z-root-through-grade-5", "h-genfun-matches-averages", "r-grade-2"])
    ok = ok and passes(10, ["h-genfun-matches-averages"])
    report(5, "Z(R)=0 through grade 5; H grades p<=8; R grade 2", ok)


def test_criterion_6_ell_integration():
    ok = passes(3, ["ell-integral-grid"])
    report(6, "l-integral closed form = direct integration, a in -1..3, b in 0..3", ok)


def test_criterion_7_enumerator_integrity():
    ok = len(enumerate_family("two-three", 3)) == 1
    ok = ok and len(brute_force_enumerate("two-three", 4)) == 5
    ok = ok and passes(6, each_n("enumerator-oracle", 6))
    report(7, "insertion = brute-force enumeration, n<=6; counts 1 and 5", ok)


def test_criterion_8_dimension_formula():
    ok = passes(5, each_n("dimension-formula", 5))
    report(8, "dimension formula = coordinate count, n<=5, <=2 ideal corners", ok)


def test_criterion_9_monte_carlo():
    start = time.monotonic()
    lengths = [1.0, 2.0, 1.0, 1.0, 1.0]
    constrained = mc_full_volume(5, lengths, samples=10 ** 6, seed=42)
    ablation = constrained.unconstrained()
    elapsed = time.monotonic() - start
    ok = abs(constrained.z_score) < 3 and abs(ablation.z_score) > 5
    report(9, (f"mc z={constrained.z_score:.2f} (<3), "
               f"ablation z={ablation.z_score:.0f} (>5) ({elapsed:.1f}s < 300s)"),
           ok and elapsed < 300)


def test_criterion_10_invariants():
    # Symmetry on the adjacent transpositions, which generate S_n.
    ok = passes(6, each_n("homogeneity", 6) + each_n("symmetry", 6))
    poly = expand_orbits(v0n_reduced(5))
    ok = ok and poly_from_json_terms(poly_to_json_terms(poly)) == poly
    ok = ok and poly.text() == expand_orbits(v0n_reduced(5)).text()
    first = subprocess.run(
        [sys.executable, "-m", "wptrees.cli", "vol", "--n", "5", "--format", "json"],
        capture_output=True, text=True).stdout
    second = subprocess.run(
        [sys.executable, "-m", "wptrees.cli", "vol", "--n", "5", "--format", "json"],
        capture_output=True, text=True).stdout
    ok = ok and first == second and json.loads(first)["terms"]
    report(10, "homogeneity n-3, full symmetry, byte-stable serialization", ok)


def test_criterion_11_zograf_constant_terms():
    start = time.monotonic()
    ok = passes(10, [f"zograf-{n}" for n in range(4, 11)])
    elapsed = time.monotonic() - start
    report(11, f"pi-only part of V_0n = Zograf's v_n, n=4..10 ({elapsed:.1f}s < 60s)",
           ok and elapsed < 60)
