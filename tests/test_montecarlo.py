"""Dimension bookkeeping and the sampled polytope volumes."""
import json
import math
import statistics
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from wptrees import checks, cli, montecarlo, polytope
from wptrees.algebra import Polynomial, expand_orbits
from wptrees.montecarlo import mc_full_volume
from wptrees.polytope import member, polytope_dimension, side
from wptrees.trees import DoubleTree, Tree, canonical_key, enumerate_family
from wptrees.volumes import _component, htc_volume


def trivalent_n5_tree() -> Tree:
    # boundary labels 2..5 around two joined trivalent inner vertices
    return Tree.make((2, 3, 4, 5),
                     [(2, -1), (3, -1), (-1, -2), (4, -2), (5, -2)])


def test_dimension_formula_examples():
    assert polytope_dimension(trivalent_n5_tree()) == 4  # 2n - 6 at n = 5
    # boundary 2 of degree 2 has two corners, so one may be ideal
    t = Tree.make((2, 3, 4, 5), [(2, 3), (2, -1), (-1, 4), (-1, 5)])
    assert polytope_dimension(t) == 4
    assert polytope_dimension(t, {2: 1}) == 3
    star = Tree.make((2, 3, 4, 5), [(2, -1), (3, -1), (4, -1), (5, -1)])
    assert polytope_dimension(star) == 3  # one degree-4 inner vertex


def test_dimension_check_counts_coordinates():
    # n = 6 runs past the registry's cap of 5
    assert all(checks._check_dimensions(n) for n in (3, 4, 5, 6))


def test_dimension_validation():
    t = trivalent_n5_tree()
    with pytest.raises(ValueError):
        polytope_dimension(t, {2: 5})
    with pytest.raises(ValueError):
        polytope_dimension(t, {9: 1})


def path_n6_tree() -> Tree:
    # three trivalent inner vertices in a row; the middle one has two
    # constrained slots
    return Tree.make((2, 3, 4, 5, 6), [(2, -1), (3, -1), (-1, -2), (4, -2),
                                       (-2, -3), (5, -3), (6, -3)])


def star_n7_tree() -> Tree:
    # inner vertex -1 joined to three trivalent inner vertices, so all three
    # of its slots are constrained
    return Tree.make((2, 3, 4, 5, 6, 7), [(-1, -2), (-1, -3), (-1, -4), (2, -2),
                                          (3, -2), (4, -3), (5, -3), (6, -4), (7, -4)])


def lone(tree: Tree) -> DoubleTree:
    """``tree`` as the sampler takes a half-tight tree: glued to the lone
    vertex 1."""
    return DoubleTree(Tree.single(1), tree)


def top_dimensional(tree: Tree) -> bool:
    return all(d == 3 for v, d in tree.degrees().items() if v < 0)


def path_n7_tree() -> Tree:
    # four trivalent inner vertices in a row: the edge between the two
    # middle ones joins two vertices that are no leaf, so it is tested
    return Tree.make((2, 3, 4, 5, 6, 7), [(2, -1), (3, -1), (-1, -2), (4, -2), (-2, -3),
                                          (5, -3), (-3, -4), (6, -4), (7, -4)])


def constraints_of(tree: Tree) -> tuple:
    pair = lone(tree)
    (_, none, _), (_, constraints, _) = side(pair.t1), side(pair.t2)
    assert none == ()
    return constraints


@pytest.mark.parametrize("tree, slots, uniforms, squares, tests", [
    (trivalent_n5_tree(), [(-2, 0)], 1, 1, 0),
    (path_n6_tree(), [(-2, 0), (-2, 1)], 2, 2, 0),
    (star_n7_tree(), [(-1, 0), (-1, 1), (-1, 2)], 2, 3, 0),
    (path_n7_tree(), [(-3, 0), (-3, 1), (-2, 0), (-2, 1)], 4, 2, 1),
], ids=["one-slot-edge", "two-slot-path", "three-slot-star", "tested-edge-path"])
def test_plan_draws_no_leaf(tree, slots, uniforms, squares, tests):
    # A leaf, an inner vertex with one constrained slot, is integrated: its
    # partner's slot enters as a factor 1 - f^2.  An isolated edge samples
    # its u end (the smaller id) only; an edge between two vertices that are
    # no leaf is tested.
    plan = montecarlo._plan(constraints_of(tree))
    assert list(plan.slots) == slots
    assert plan.drawn == uniforms
    assert (len(plan.squares), len(plan.tests)) == (squares, tests)


def test_sample_angle_polytope():
    # The star's three leaves are integrated, so its centre is the only
    # sampled vertex.  Its slots are, bit for bit, the stick-breaking shares
    # of two uniforms drawn in one call: 1 - sqrt(U0), sqrt(U0) (1 - U1) and
    # the remainder sqrt(U0) U1, which draws nothing.
    star = Tree.make((2, 3, 4), [(2, -1), (3, -1), (4, -1)])  # always accepted
    assert [side(t)[1] for t in (lone(star).t1, lone(star).t2)] == [(), ()]
    pair = lone(star_n7_tree())
    (vertex, none, _), (pairs, constraints, _) = side(pair.t1), side(pair.t2)
    assert (vertex, none) == (((1, -1),), ())  # the lone vertex: degree 0
    assert pairs == tuple((b, d - 1) for b, d in star_n7_tree().degrees().items() if b > 0)
    # ``member`` pools both sides' pairs and keeps the sides with constraints.
    assert member(pair)[:2] == (tuple(sorted(vertex + pairs)), (constraints,))
    plan = montecarlo._plan(constraints)
    assert plan.slots == ((-1, 0), (-1, 1), (-1, 2))
    fractions = np.empty((3, 1000))
    montecarlo._sample_angles(plan, montecarlo._stream(1, 0), fractions)
    twin = montecarlo._stream(1, 0)
    first, second = np.sqrt(twin.random(1000)), twin.random(1000)
    assert fractions[0].tobytes() == (1.0 - first).tobytes()
    assert fractions[1].tobytes() == (first * (1.0 - second)).tobytes()
    assert fractions[2].tobytes() == (first * second).tobytes()
    for r in plan.squares:
        factor = 1.0 - fractions[r] ** 2
        assert 0.0 < factor.min() and factor.max() < 1.0  # each leaf factor is nontrivial


def dirichlet_moment(a: int, b: int, c: int) -> Fraction:
    """E[X^a Y^b Z^c] for (X, Y, Z) ~ Dirichlet(1, 1, 1)."""
    return Fraction(2 * math.factorial(a) * math.factorial(b) * math.factorial(c),
                    math.factorial(a + b + c + 2))


def leaf_weight_moments(slots: int) -> tuple[Fraction, Fraction]:
    """E[w] and E[w^2], exactly, for the weight w = prod_{i < slots} (1 - X_i^2)
    of one vertex whose ``slots`` constrained slots all lead to leaves."""
    def mul(p: dict, q: dict) -> dict:
        out: dict = {}
        for e, a in p.items():
            for f, b in q.items():
                key = tuple(x + y for x, y in zip(e, f))
                out[key] = out.get(key, 0) + a * b
        return out

    w = {(0, 0, 0): Fraction(1)}
    for i in range(slots):
        square = tuple(2 if j == i else 0 for j in range(3))
        w = mul(w, {(0, 0, 0): Fraction(1), square: Fraction(-1)})
    return tuple(sum(c * dirichlet_moment(*e) for e, c in p.items()) for p in (w, mul(w, w)))


def path_n7_moments() -> tuple[Fraction, Fraction]:
    """E[w] and E[w^2], exactly, for the four-vertex path: w = (1 - X^2)
    (1 - Y^2) [S + T < 1], with (X, S) and (Y, T) two coordinates of
    independent Dirichlet(1, 1, 1) vertices.  Given S = s, X is uniform on
    (0, c), c = 1 - s, and S has density 2c, so each vertex contributes
    2c E[(1 - X^2)^k] = 2c - 2k c^3 / 3 (+ 2 c^5 / 5 at k = 2), and
    s + t < 1 is c_s + c_t > 1, where the integral of c_s^i c_t^j over the
    unit square is 1/((i+1)(j+1)) minus i! j! / (i+j+2)! over its lower
    triangle."""
    def pair(p: dict) -> Fraction:
        return sum(a * b * (Fraction(1, (i + 1) * (j + 1))
                            - Fraction(math.factorial(i) * math.factorial(j),
                                       math.factorial(i + j + 2)))
                   for i, a in p.items() for j, b in p.items())

    return (pair({1: Fraction(2), 3: Fraction(-2, 3)}),
            pair({1: Fraction(2), 3: Fraction(-4, 3), 5: Fraction(2, 5)}))


def test_leaf_rule_moments_are_exact():
    # Leaf weights against their Bernoulli counterparts: each mean is the
    # acceptance rate, and each variance is 3.6, 5.1, 13 and 2.3 times below
    # the rate's p (1 - p).
    moments = [leaf_weight_moments(1), leaf_weight_moments(2), leaf_weight_moments(3),
               path_n7_moments()]
    assert [mean for mean, _ in moments] == [Fraction(5, 6), Fraction(61, 90),
                                             Fraction(1343, 2520), Fraction(277, 504)]
    assert [square - mean ** 2 for mean, square in moments] == [
        Fraction(7, 180), Fraction(2411, 56700), Fraction(17367313, 908107200),
        Fraction(7498837, 69854400)]
    # Summed over the cubic trees on D labelled leaves (3, 15 and 90 + 15
    # of them, stars last), the rates are the exact engine's G(D, 0).
    edge, path, star, tested = (mean for mean, _ in moments)
    assert [3 * edge, 15 * path, 90 * tested + 15 * star] == [
        _component(D, 0, 0) for D in (4, 5, 6)]


@pytest.mark.parametrize("tree, moments", [
    (trivalent_n5_tree(), leaf_weight_moments(1)),
    (path_n6_tree(), leaf_weight_moments(2)),
    (star_n7_tree(), leaf_weight_moments(3)),
    (path_n7_tree(), path_n7_moments()),
], ids=["one-slot-edge", "two-slot-path", "three-slot-star", "tested-edge-path"])
def test_sampled_rate_matches_closed_form(tree, moments):
    mean, square = moments
    draws = 10 ** 6
    se = math.sqrt((square - mean ** 2) / draws)
    constraints = constraints_of(tree)
    _, sampled, shape = member(lone(tree))
    assert sampled == (constraints,)
    sums = montecarlo._estimate(sampled, draws, 9, 0)
    row = montecarlo._row("k", "half-tight", 1.0, shape, sums, draws)
    assert not row["exact"]
    assert abs(row["estimate"] - mean) < 5 * se
    assert row["std_error"] == pytest.approx(se, rel=1e-2)

    plan = montecarlo._plan(constraints)
    fractions = np.empty((len(plan.slots), draws))
    montecarlo._sample_angles(plan, montecarlo._stream(9, 1), fractions)
    for x in fractions:  # Beta(1, 2): mean 1/3, variance 1/18
        assert abs(x.mean() - 1 / 3) < 5 * math.sqrt(1 / 18 / draws)
    if len(plan.slots) == 3:  # the star's centre: all of its stick
        assert np.abs(fractions.sum(axis=0) - 1.0).max() <= 4 * np.finfo(float).eps


def reference_weight_sums(sampled, samples: int, seed: int, i: int) -> tuple[float, float]:
    """The weight sums (sum w, sum w^2) of ``_estimate``, drawn out of place
    from a twin of its stream.  Per chunk and side, a leaf (one constrained
    slot) draws nothing, an isolated edge draws its u end, and every other
    vertex its constrained slots, in vertex order, then slot order: shares
    1 - sqrt(U), 1 - U and the remainder of a trivalent vertex's stick.
    Each edge multiplies the weight, in edge order, by a fresh array:
    1 - f^2 of a leaf's partner, else [a + b < 1].  Chunk sums add up in a
    float."""
    twin = montecarlo._stream(seed, i)
    total = squares = 0.0
    for done in range(0, samples, montecarlo._CHUNK):
        m = min(montecarlo._CHUNK, samples - done)
        weight = np.ones(m)
        for cons in sampled:
            slots = {}
            for u, su, v, sv in cons:
                slots.setdefault(u, set()).add(su)
                slots.setdefault(v, set()).add(sv)
            leaves = {v for v, own in slots.items() if len(own) == 1}
            drawn = {v: own for v, own in slots.items() if v not in leaves}
            for u, su, v, sv in cons:
                if u in leaves and v in leaves:
                    drawn[u] = {su}
            fractions = {}
            for v in sorted(drawn):
                left = None
                for k, j in enumerate(sorted(drawn[v])):
                    rest = 2 - k  # coordinates after this one
                    if rest == 0:
                        fractions[v, j] = left
                        continue
                    keep = twin.random(m)
                    if rest > 1:
                        keep **= 1.0 / rest
                    if left is None:
                        fractions[v, j], left = 1.0 - keep, keep
                    else:
                        fractions[v, j] = left * (1.0 - keep)
                        left = left * keep
            for u, su, v, sv in cons:
                if v in leaves:
                    weight = weight * (1.0 - fractions[u, su] ** 2)
                elif u in leaves:
                    weight = weight * (1.0 - fractions[v, sv] ** 2)
                else:
                    weight = weight * (fractions[u, su] + fractions[v, sv] < 1.0)
        total += float(weight.sum())
        squares += float((weight * weight).sum())
    return total, squares


@pytest.mark.parametrize("tree", [trivalent_n5_tree(), path_n6_tree(), star_n7_tree(),
                                  path_n7_tree()],
                         ids=["one-slot-edge", "two-slot-path", "three-slot-star",
                              "tested-edge-path"])
def test_in_place_acceptance_matches_out_of_place_across_chunks(tree):
    # Two full chunks and a ragged one of 5 draws.
    samples = 2 * montecarlo._CHUNK + 5
    _, sampled, shape = member(lone(tree))
    sums = montecarlo._estimate(sampled, samples, 13, 4)
    assert sums == reference_weight_sums(sampled, samples, 13, 4)
    row = montecarlo._row("k", "half-tight", 1.0, shape, sums, samples)
    assert not row["exact"]
    assert row["estimate"] == sums[0] / samples


def test_glued_pair_samples_both_sides():
    # Each side is one inner-inner edge between trivalent vertices, whose
    # weight is independent of the other's, so the pair's mean weight is
    # (5/6)^2 and its second moment (11/15)^2.
    t1 = Tree.make((1, 3, 4, 5), [(1, -1), (3, -1), (-1, -2), (4, -2), (5, -2)])
    t2 = Tree.make((2, 6, 7, 8), [(2, -1), (6, -1), (-1, -2), (7, -2), (8, -2)])
    _, sampled, shape = member(DoubleTree(t1, t2))
    assert [len(cons) for cons in sampled] == [1, 1]
    mean, square = leaf_weight_moments(1)
    draws, rate = 10 ** 6, mean ** 2
    sums = montecarlo._estimate(sampled, draws, 21, 3)
    row = montecarlo._row("k", "full", 1.0, shape, sums, draws)
    assert row["shape"] == "(()) (())" and not row["exact"]
    assert abs(row["estimate"] - rate) < 5 * math.sqrt((square ** 2 - rate ** 2) / draws)
    assert sums == reference_weight_sums(sampled, draws, 21, 3)


def exact_gluing_mean(L1: Fraction, L2: Fraction, d1: int, d2: int) -> Fraction:
    """The integral over (0, min(L1, L2)) of l S((L1-l)/2, d1) S((L1+l)/2, d1)
    S((L2-l)/2, d2) S((L2+l)/2, d2) dl, by exact polynomial arithmetic."""
    def mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    poly = [Fraction(0), Fraction(1)]  # l
    for length, d in ((L1, d1), (L2, d2)):
        for sign in (-1, 1):
            for _ in range(d - 1):
                poly = mul(poly, [length / 2, Fraction(sign, 2)])
            poly = [c / math.factorial(d - 1) for c in poly]
    top = min(L1, L2)
    return sum(c * top ** (k + 1) / (k + 1) for k, c in enumerate(poly))


def old_convention_constant(member, n: int, L: dict, pi2: Fraction) -> Fraction:
    """A top-dimensional member's volume without its Delaunay constraints,
    built as the polytope picture states it: plane embeddings x measure
    factor 2^(n-3) (half-tight) or 2^(n-4) (glued) x the two boundary
    simplices per boundary vertex x pi^2/2 per trivalent angle block, and
    for a glued pair the integral over the gluing length."""
    glued = isinstance(member, DoubleTree)
    const = Fraction(2) ** (n - 4 if glued else n - 3)
    glue = []  # degrees of boundary 1 in t1 and boundary 2 in t2

    def simplex(size, d):
        return size ** (d - 1) / math.factorial(d - 1)

    for t in (member.t1, member.t2) if glued else (member,):
        for v, d in t.degrees().items():
            const *= math.factorial(d - 1)
            if v < 0:
                const *= pi2 / 2
            elif glued and v in (1, 2):
                glue.append(d)
            elif v == 2:
                const *= simplex((L[2] - L[1]) / 2, d) * simplex((L[2] + L[1]) / 2, d)
            else:
                const *= simplex(L[v] / 2, d) ** 2
    if glued:
        const *= exact_gluing_mean(L[1], L[2], *glue)
    return const


@pytest.mark.parametrize("n, lengths", [
    (5, ["3/4", "5/2", "9/8", "1", "7/4"]),
    (6, ["3/4", "5/2", "9/8", "1", "7/4", "13/16"]),
], ids=["n5", "n6"])
def test_member_constants_are_their_exact_summands(n, lengths):
    # Dyadic lengths: each L_i^2 is a binary64 value, so the bindings the
    # sampler reads are the lengths' exact squares.
    L = {i: Fraction(v) for i, v in enumerate(lengths, start=1)}
    pi2 = Fraction(math.pi ** 2)
    want = {}
    for family in ("htc", "full"):
        for member in enumerate_family(family, n):
            sides = (member.t1, member.t2) if isinstance(member, DoubleTree) else (member,)
            if all(top_dimensional(t) for t in sides):
                want[canonical_key(member).decode()] = old_convention_constant(member, n, L, pi2)
    report = mc_full_volume(n, list(L.values()), samples=1, seed=0)
    assert [row["key"] for row in report.per_tree] == list(want)
    for row in report.per_tree:
        assert row["constant"] == float(want[row["key"]]), row["key"]


def half_tight(n: int, lengths, samples: int, seed: int) -> montecarlo.McReport:
    """The half-tight rows of ``mc_full_volume``, scored against H_n at the
    same bindings."""
    report = mc_full_volume(n, lengths, samples=samples, seed=seed)
    rows = [row for row in report.per_tree if row["kind"] == "half-tight"]
    assert rows
    reference = float(expand_orbits(htc_volume(n)).eval_exact(montecarlo._squares(lengths)))
    return montecarlo._report(rows, reference, samples, seed)


@pytest.mark.parametrize("n", [5, 6])
def test_mc_rows_are_htc_trees_then_glued_pairs(n):
    # Row i is member i of the graph family's canonical order, so it draws
    # from child i of the seed: the top-dimensional htc trees in htc order,
    # then the top-dimensional full pairs in full order.  Keys and kinds
    # only, so no numpy figure enters.
    htc = [canonical_key(t).decode() for t in enumerate_family("htc", n)
           if top_dimensional(t)]
    full = [canonical_key(d).decode() for d in enumerate_family("full", n)
            if top_dimensional(d.t1) and top_dimensional(d.t2)]
    report = mc_full_volume(n, [1.0, 2.0] + [1.0] * (n - 2), samples=1, seed=0)
    assert [(row["key"], row["kind"]) for row in report.per_tree] == (
        [(key, "half-tight") for key in htc] + [(key, "full") for key in full])


def test_mc_htc_n3_exact():
    report = half_tight(3, [1.0, 2.0, 1.5], samples=10, seed=0)
    assert all(row["exact"] for row in report.per_tree)
    assert report.estimate == 1.0
    assert report.estimate == pytest.approx(report.reference, rel=1e-12)
    assert report.std_error == 0.0
    assert report.z_score == 0.0


def test_mc_htc_n4_exact_blocks():
    # No tree at n = 4 has an inner-inner edge, so the estimate is exact.
    report = half_tight(4, [1.0, 2.0, 1.0, 1.0], samples=10, seed=0)
    assert report.std_error == 0.0
    assert report.estimate == pytest.approx(2 * math.pi ** 2 + 2.5, rel=1e-12)
    assert report.estimate == pytest.approx(report.reference, rel=1e-12)
    assert report.z_score == 0.0
    assert all(row["exact"] for row in report.per_tree)


def test_mc_full_n4():
    # No glued pair at n = 4 has an inner-inner edge, so every glued row is
    # its exact constant and the glued part is L1^2 = 1.
    report = mc_full_volume(4, [1.0, 2.0, 3.0, 4.0], samples=200_000, seed=11)
    assert report.reference == pytest.approx(2 * math.pi ** 2 + 15, rel=1e-12)
    assert report.z_score == 0.0
    glued = [r for r in report.per_tree if r["kind"] == "full"]
    assert glued and all(r["exact"] and r["std_error"] == 0.0 for r in glued)
    assert math.fsum(r["estimate"] for r in glued) == pytest.approx(1.0, rel=1e-12)


def test_mc_htc_zscores_across_seeds():
    lengths = [1.0, 2.0, 1.0, 1.0, 1.0]
    zs = [half_tight(5, lengths, samples=100_000, seed=s).z_score
          for s in range(10)]
    assert sum(1 for z in zs if abs(z) < 3) >= 9


def test_mc_full_zscores_across_seeds():
    lengths = [1.0, 2.0, 1.0, 1.0, 1.0]
    zs = [mc_full_volume(5, lengths, samples=100_000, seed=s).z_score
          for s in range(10)]
    assert sum(1 for z in zs if abs(z) < 3) >= 9


def test_mc_ablation_disagrees():
    lengths = [1.0, 2.0, 1.0, 1.0, 1.0]
    off = mc_full_volume(5, lengths, samples=100_000, seed=3).unconstrained()
    assert abs(off.z_score) > 5
    assert off.estimate > off.reference  # dropping constraints only adds volume


@pytest.mark.parametrize("n, lengths", [(5, [1.0, 2.0, 1.0, 1.0, 1.0]),
                                        (6, [1.0, 2.0, 3.0, 1.0, 2.0, 1.0])], ids=["n5", "n6"])
@pytest.mark.parametrize("seed", [1, 7, 42], ids=lambda seed: f"seed{seed}")
def test_mc_unconstrained_reads_the_constants(monkeypatch, n, lengths, seed):
    report = mc_full_volume(n, lengths, samples=500, seed=seed)

    def entered(*args, **kwargs):
        raise AssertionError("deriving the ablation enumerated, evaluated or drew")

    for name in ("_stream", "enumerate_family", "v0n_reduced"):
        monkeypatch.setattr(montecarlo, name, entered)
    off = report.unconstrained()
    assert (off.reference, off.seed, off.samples) == (report.reference, seed, 500)
    assert off.std_error == 0.0
    assert len(off.per_tree) == len(report.per_tree)
    for on_row, off_row in zip(report.per_tree, off.per_tree):
        assert off_row["exact"] and off_row["std_error"] == 0.0
        assert off_row["estimate"] == on_row["constant"]
        if on_row["exact"]:
            assert off_row == on_row
        else:
            assert off_row["estimate"] >= on_row["estimate"]
    assert any(not row["exact"] for row in report.per_tree)
    assert off.estimate == math.fsum(row["constant"] for row in report.per_tree)
    assert off.estimate > off.reference
    assert off.z_score == math.inf



def test_mc_records_refuse_field_assignment():
    report = mc_full_volume(4, [1, 2, 1, 1], samples=10, seed=1)
    with pytest.raises(AttributeError):
        report.estimate = 0.0
    plan = montecarlo._plan(((-1, 0, -2, 0),))
    with pytest.raises(AttributeError):
        plan.drawn = 0


def test_mc_refuses_large_n_before_the_reference(monkeypatch):
    def evaluated(n):
        raise AssertionError("the reference was evaluated")

    monkeypatch.setattr(montecarlo, "v0n_reduced", evaluated)
    with pytest.raises(ValueError, match="tree enumeration .* n <= 8, got n = 9"):
        mc_full_volume(9, [1.0, 2.0] + [1.0] * 7, samples=10, seed=1)


def test_cli_refuses_large_mc_n_before_the_reference(monkeypatch, capsys):
    def evaluated(n):
        raise AssertionError("the reference was evaluated")

    monkeypatch.setattr(montecarlo, "v0n_reduced", evaluated)
    argv = ["verify", "mc", "--n", "9", "--lengths", "1,2,1,1,1,1,1,1,1",
            "--samples", "10", "--seed", "1", "--ablation"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tree enumeration")
    assert len(captured.err.splitlines()) == 1


def test_cli_mc_enumerates_each_family_once(monkeypatch, capsys):
    enumerated, sampled = [], []
    enumerate_family = montecarlo.enumerate_family
    full_volume = cli.mc_full_volume

    def counting_enumeration(family, n):
        enumerated.append(family)
        return enumerate_family(family, n)

    def counting_volume(*args, **kwargs):
        sampled.append(args)
        return full_volume(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "enumerate_family", counting_enumeration)
    monkeypatch.setattr(cli, "mc_full_volume", counting_volume)
    argv = ["--threads", "2", "verify", "mc", "--n", "5", "--lengths", "1,2,1,1,1",
            "--samples", "2000", "--seed", "42", "--ablation"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1::2] == ["PASS mc-z-score |z| < 3.0", "PASS mc-ablation |z| > 5.0"]
    assert enumerated == ["graph"]
    assert len(sampled) == 1


def test_mc_all_or_none_accepted_is_still_sampled():
    # One draw per shape: a weight's sample variance is undefined, so each
    # sampled row is scored as if one further draw had gone the other way,
    # with standard error constant / 2.  The three equal K2 rows at n = 5
    # share one shape, so one weight w in [0, 1] and a total standard error
    # of 3 constant / 2: |z| = 2 |w - 5/6| <= 5/3 < 3 whatever the draw.
    for seed in range(20):
        report = mc_full_volume(5, [1.0, 2.0, 1.0, 1.0, 1.0], samples=1, seed=seed)
        sampled = [row for row in report.per_tree if not row["exact"]]
        assert len(sampled) == 3
        assert len({(row["estimate"], row["constant"]) for row in sampled}) == 1
        const = sampled[0]["constant"]
        for row in sampled:
            assert 0.0 <= row["estimate"] <= row["constant"]
            assert row["std_error"] == row["constant"] / 2
        assert report.std_error == 3 * (const / 2)
        weight = sampled[0]["estimate"] / const
        assert report.z_score == pytest.approx(2 * (weight - 5 / 6), abs=1e-9)
        assert math.isfinite(report.z_score) and abs(report.z_score) < 3


def test_cli_single_sample_passes(capsys):
    argv = ["verify", "mc", "--n", "5", "--lengths", "1,2,1,1,1", "--samples", "1",
            "--seed", "1"]
    assert cli.main(argv) == 0
    first, verdict = capsys.readouterr().out.splitlines()
    assert math.isfinite(json.loads(first)["z_score"])
    assert verdict == "PASS mc-z-score |z| < 3.0"


def test_mc_thread_count_invariance(capsys):
    # --threads is accepted and ignored: any count prints the same bytes, at
    # n = 5 (one sampled shape) and n = 6 (two).
    for n, lengths in ((5, "1,2,1,1,1"), (6, "1,2,1,1,1,2")):
        argv = ["verify", "mc", "--n", str(n), "--lengths", lengths,
                "--samples", "20000", "--seed", "5", "--sigma", "100"]
        outputs = []
        for threads in ("1", "4", str(10 ** 9)):
            assert cli.main(["--threads", threads] + argv) == 0
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1


def test_shape_key_is_label_and_slot_free():
    # An edge, a three-vertex path and a two-sided pair of edges, each read
    # off trees by ``side`` as (u, slot_u, v, slot_v) constraints per side
    # and keyed by ``member``.
    edge = member(lone(trivalent_n5_tree()))[2]
    assert edge == "(())"
    other_ids = Tree.make((2, 3, 4, 5), [(2, -7), (3, -7), (-7, -3), (4, -3), (5, -3)])
    assert side(other_ids)[1] != side(trivalent_n5_tree())[1]
    assert member(lone(other_ids))[2] == edge  # other labels
    path = member(lone(path_n6_tree()))[2]
    middle_first = Tree.make((2, 3, 4, 5, 6), [(2, -2), (3, -2), (-2, -1), (4, -1),
                                               (-1, -3), (5, -3), (6, -3)])
    assert side(middle_first)[1] == ((-3, 0, -1, 0), (-2, 0, -1, 1))  # other slots
    assert side(path_n6_tree())[1] == ((-3, 0, -2, 0), (-2, 1, -1, 0))
    assert path == member(lone(middle_first))[2] != edge
    t1 = Tree.make((1, 3, 4, 5), [(1, -1), (3, -1), (-1, -2), (4, -2), (5, -2)])
    pair = member(DoubleTree(t1, Tree.make((2, 6, 7, 8), [(2, -1), (6, -1), (-1, -2), (7, -2),
                                                          (8, -2)])))[2]
    assert pair == "(()) (())" != edge
    # Components are pooled over both sides, in sorted order.
    edge_then_path = member(DoubleTree(t1, Tree.make((2, 6, 7, 8, 9), [
        (2, -1), (6, -1), (-1, -2), (7, -2), (-2, -3), (8, -3), (9, -3)])))[2]
    assert edge_then_path == "((())) (())"
    assert edge_then_path == member(DoubleTree(
        Tree.make((1, 3, 4, 5, 6), [(1, -4), (3, -4), (-4, -5), (4, -5), (-5, -6), (5, -6),
                                    (6, -6)]),
        Tree.make((2, 7, 8, 9), [(2, -8), (7, -8), (-8, -9), (8, -9), (9, -9)])))[2]
    # A path and a star on four vertices differ; their rootings do not matter.
    star = member(lone(star_n7_tree()))[2]  # each constraint has its leaf as u
    centre_first = Tree.make((2, 3, 4, 5, 6, 7), [(-4, -1), (-4, -2), (-4, -3), (2, -1), (3, -1),
                                                  (4, -2), (5, -2), (6, -3), (7, -3)])
    assert [u for u, *_ in side(centre_first)[1]] == [-4, -4, -4]
    long_path = member(lone(path_n7_tree()))[2]
    assert star == member(lone(centre_first))[2] != long_path
    assert member(lone(Tree.make((2, 3, 4), [(2, -1), (3, -1), (4, -1)])))[2] == ""
    # A degree-4 inner vertex is not top-dimensional: the member is not read.
    assert member(lone(Tree.make((2, 3, 4, 5), [(2, -1), (3, -1), (4, -1), (5, -1)]))) is None
    # Members with the same forest under other labels, or on the other
    # side, share a key.
    relabelled = Tree.make((2, 3, 4, 5), [(3, -2), (5, -2), (-2, -1), (2, -1), (4, -1)])
    glued = DoubleTree(t1, Tree.make((2, 6), [(2, 6)]))
    keys = {member(m)[2] for m in (lone(trivalent_n5_tree()), lone(relabelled), glued)}
    assert keys == {edge}


@pytest.mark.parametrize("n, shapes, rows", [
    (5, ["(())"], 3),
    (6, ["((()))", "(())"], 99),
    (7, ["(((())))", "((()()))", "((()))", "(())"], 2805),
], ids=["5-1-3", "6-2-99", "7-4-2805"])  # n, number of shapes, sampled rows
def test_mc_rows_of_a_shape_share_their_draws(n, shapes, rows):
    # Shape i in sorted order draws on stream i, so the code format seeds
    # every sampled row: the shape strings are pinned, not only counted.
    report = mc_full_volume(n, [1.0, 2.0] + [1.0] * (n - 2), samples=200, seed=5)
    sampled = [row for row in report.per_tree if not row["exact"]]
    assert len(sampled) == rows
    assert all(row["shape"] == "" for row in report.per_tree if row["exact"])
    groups = {}
    for row in sampled:
        groups.setdefault(row["shape"], []).append(row)
    assert len(groups) == len(shapes)
    assert sorted(groups) == shapes
    ratios = []
    for group in groups.values():
        mean = group[0]["estimate"] / group[0]["constant"]
        spread = group[0]["std_error"] / group[0]["constant"]
        for row in group:
            assert row["estimate"] / row["constant"] == pytest.approx(mean, rel=1e-15)
            assert row["std_error"] / row["constant"] == pytest.approx(spread, rel=1e-15)
        ratios.append(mean)
    assert len(set(ratios)) == len(shapes)  # independent streams


def test_mc_total_std_error_is_calibrated():
    # The rows of one shape are fully correlated, so the total's standard
    # error adds their errors per shape.  Over 30 seeds the z-scores then
    # have variance near 1; hypot over rows would make it about 20.
    lengths = [1.0, 2.0, 3.0, 1.0, 2.0, 1.0]
    zs, naive = [], []
    for seed in range(30):
        report = mc_full_volume(6, lengths, samples=2000, seed=seed)
        by_shape = {}
        for row in report.per_tree:
            by_shape[row["shape"]] = math.fsum([by_shape.get(row["shape"], 0.0),
                                                row["std_error"]])
        assert len(by_shape) == 3  # the exact rows and two sampled shapes
        assert report.std_error == pytest.approx(math.hypot(*by_shape.values()), rel=1e-14)
        zs.append(report.z_score)
        diff = report.estimate - report.reference
        naive.append(diff / math.hypot(*(row["std_error"] for row in report.per_tree)))
    assert 0.4 <= statistics.variance(zs) <= 2.5
    assert statistics.variance(naive) > 5


def first_members(n: int) -> dict:
    """Shape -> the sampled sides of its first top-dimensional member in
    the graph family's order."""
    firsts = {}
    for pair in enumerate_family("graph", n):
        if all(top_dimensional(t) for t in (pair.t1, pair.t2)):
            _, sampled, shape = member(pair)
            if sampled:
                firsts.setdefault(shape, sampled)
    return firsts


@pytest.mark.parametrize("n", [5, 6])
def test_mc_shape_i_draws_stream_i(n):
    # The shape at index i of the sorted shapes draws from _stream(seed, i)
    # and is planned from its first member.
    lengths = [1.0, 2.0, 1.0, 1.0, 1.0, 2.0][:n]
    firsts = first_members(n)
    shapes = sorted(firsts)
    assert len(shapes) == n - 4
    shipped = mc_full_volume(n, lengths, samples=300, seed=8)
    means = {shape: reference_weight_sums(firsts[shape], 300, 8, i)[0] / 300
             for i, shape in enumerate(shapes)}
    for row in shipped.per_tree:
        if not row["exact"]:
            assert row["estimate"] == row["constant"] * means[row["shape"]]


M64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, 1))


def splitmix64(state: int, count: int) -> list[int]:
    """The next ``count`` outputs of the reference splitmix64.c from Weyl
    state ``state``, in Python ints."""
    out = []
    for _ in range(count):
        state = (state + GAMMA) & M64
        z = state
        for shift, factor in MIX:
            z = ((z ^ (z >> shift)) * factor) & M64
        out.append(z)
    return out


def unmix64(z: int) -> int:
    """The Weyl state at which splitmix64's finalizer outputs ``z``."""
    for shift, factor in reversed(MIX):
        z = (z * pow(factor, -1, 1 << 64)) & M64
        x = z
        for _ in range(64 // shift):  # undo z ^= z >> shift
            x = z ^ (x >> shift)
        z = x
    return z


def as_uniforms(outputs: list[int]) -> list[float]:
    return [(z >> 11) * 2.0 ** -53 for z in outputs]


def test_stream_is_splitmix64():
    assert splitmix64(0, 3) == [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]
    assert montecarlo._SplitMix64(0).random(3).tolist() == as_uniforms(splitmix64(0, 3))
    # A two-slot side's full chunk, its ragged last chunk, then a plain draw:
    # one counter runs across the calls.
    key = montecarlo._key(13, 2)
    stream = montecarlo._stream(13, 2)
    chunk, ragged = np.empty((2, montecarlo._CHUNK)), np.empty((2, 5))
    assert stream.random(out=chunk) is chunk
    stream.random(out=ragged)
    drawn = np.concatenate([chunk.ravel(), ragged.ravel(), stream.random(7)])
    assert drawn.tolist() == as_uniforms(splitmix64(key, drawn.size))


def test_stream_uniforms_lie_in_the_half_open_unit_interval():
    # Keys whose first output is 0, 2^11 - 1 and 2^64 - 1.
    for z, u in ((0, 0.0), ((1 << 11) - 1, 0.0), (M64, 1.0 - 2.0 ** -53)):
        key = (unmix64(z) - GAMMA) & M64
        assert splitmix64(key, 1) == [z]
        assert montecarlo._SplitMix64(key).random(1).tolist() == [u]


def test_stream_keys_fold_the_shape_and_every_seed_limb():
    seeds = (0, 1, 2 ** 64, 2 ** 64 + 1, 2 ** 200)
    keys = {montecarlo._key(seed, i) for seed in seeds for i in range(4)}
    assert len(keys) == 4 * len(seeds) and all(0 <= key <= M64 for key in keys)


def test_single_sample_draws_raise_no_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (1, 2 ** 64 + 1, 2 ** 200):
            assert montecarlo._stream(seed, 0).random(1).shape == (1,)
            report = mc_full_volume(6, [1.0, 2.0, 1.0, 1.0, 1.0, 2.0], samples=1, seed=seed)
            assert math.isfinite(report.z_score)


def test_stream_moments_smoke():
    # Mean, mean square and lag-1 product of 2^20 uniforms within 5 sigma
    # of 1/2, 1/3 and 1/4.  Adjacent lag-1 products covary by 1/48, so
    # their mean has variance (7/144 + 2/48) / N.
    n = 1 << 20
    u = montecarlo._stream(2024, 3).random(n)
    assert 0.0 <= u.min() and u.max() < 1.0
    for value, mean, var in ((u.mean(), 1 / 2, 1 / 12), ((u * u).mean(), 1 / 3, 4 / 45),
                             ((u[1:] * u[:-1]).mean(), 1 / 4, 13 / 144)):
        assert abs(value - mean) < 5 * math.sqrt(var / n)


@pytest.mark.parametrize("constrained", [True, False])
def test_mc_stream_built_only_to_draw(monkeypatch, constrained):
    calls = []
    stream = montecarlo._stream

    def recording(seed, i):
        calls.append(i)
        return stream(seed, i)

    monkeypatch.setattr(montecarlo, "_stream", recording)
    report = mc_full_volume(6, [1.0, 2.0, 1.0, 1.0, 1.0, 2.0], samples=100, seed=4)
    shapes = {row["shape"] for row in report.per_tree if not row["exact"]}
    assert len(shapes) == 2
    if not constrained:  # the ablation is derived without a stream
        report = report.unconstrained()
        assert all(row["exact"] for row in report.per_tree)
    assert calls == [0, 1]  # one stream per shape, each built once
    assert any(row["exact"] for row in report.per_tree)


def test_mc_negative_seed_refused_without_draws(capsys):
    # No member is sampled at n = 3, so the seed is checked up front.
    argv = ["verify", "mc", "--n", "3", "--lengths", "1,2,1", "--samples", "10",
            "--seed", "-1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("lengths", ["1,1e100,1,1,1", "1,1e400,1,1,1"])
def test_mc_overflowing_lengths_refused(monkeypatch, capsys, lengths):
    def drawn(seed, i):
        raise AssertionError("a member was sampled")

    monkeypatch.setattr(montecarlo, "_stream", drawn)
    with pytest.raises(ValueError, match="binary64"):
        mc_full_volume(5, [Fraction(v) for v in lengths.split(",")], samples=100, seed=1)
    argv = ["verify", "mc", "--n", "5", "--lengths", lengths, "--samples", "100",
            "--seed", "1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "binary64" in captured.err


@pytest.mark.parametrize("lengths, message", [
    ("2,1,1,1,1", "need L1 < L2"),
    ("1,1e400,1,1,1", "lengths must be below the binary64 maximum"),
    ("1,2,1,1,1e-400", "lengths must stay positive when rounded to binary64"),
    ("1,1.00000000000000000001,1,1,1", "need L1 < L2 after rounding to binary64"),
    ("2,2,1,1,1", "need L1 < L2"),
], ids=["l1-above-l2", "overflow", "rounds-to-zero", "l1-l2-round-equal", "l1-equals-l2"])
def test_mc_lengths_checked_exactly_then_in_binary64(monkeypatch, capsys, lengths, message):
    # 1e-400 > 0 and 1 < 1.00000000000000000001 hold exactly, so a refusal
    # names the binary64 rounding that breaks them.
    def evaluated(n):
        raise AssertionError("the reference was evaluated")

    monkeypatch.setattr(montecarlo, "v0n_reduced", evaluated)
    argv = ["verify", "mc", "--n", "5", "--lengths", lengths, "--samples", "10",
            "--seed", "1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def refuse_draws(monkeypatch):
    def drawn(seed, i):
        raise AssertionError("a member was sampled")

    monkeypatch.setattr(montecarlo, "_stream", drawn)


def test_mc_overflowing_constants_refused_before_drawing(monkeypatch):
    # An exact constant past the binary64 maximum overflows when rounded.
    refuse_draws(monkeypatch)
    monkeypatch.setattr(polytope, "ell_integral",
                        lambda *args: Polynomial.const(Fraction(10) ** 400))
    with pytest.raises(ValueError, match="binary64"):
        mc_full_volume(5, [1.0, 2.0, 1.0, 1.0, 1.0], samples=100, seed=1)


def test_mc_overflowing_constant_sum_refused_before_drawing(monkeypatch):
    # Every constant is finite, but their sum is not.
    refuse_draws(monkeypatch)
    # mc_full_volume imports the constant from polytope when it runs.
    monkeypatch.setattr(polytope, "constant", lambda *args: sys.float_info.max)
    with pytest.raises(ValueError, match="binary64"):
        mc_full_volume(5, [1.0, 2.0, 1.0, 1.0, 1.0], samples=100, seed=1)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_mc_huge_lengths_reported(capsys, recwarn, threads):
    # Only fractions and weights in [0, 1] are squared, so lengths near 1e40
    # report and pass with no numpy warning.
    argv = ["--threads", threads, "verify", "mc", "--n", "5",
            "--lengths", "1e40,2e40,1e40,1e40,1e40", "--samples", "100", "--seed", "1"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[1] == "PASS mc-z-score |z| < 3.0"
    assert not recwarn.list


@pytest.mark.parametrize("lengths", ["1,1e30,1,1,1", "1e25,2e25,1e25,1e25,1e25",
                                     "1e40,2e40,1e40,1e40,1e40"])
def test_mc_zscore_allows_for_rounding(lengths):
    # Lengths of very different scales report and pass: the sampled rows'
    # standard error is about 22 beside totals of 1e101 to 1e161.  Each
    # constant is rounded once, exactly, so here the float total equals the
    # reference; the input below is one that needs the rounding allowance.
    report = mc_full_volume(5, [Fraction(v) for v in lengths.split(",")],
                            samples=100, seed=1)
    assert 0.0 < report.std_error < 1e3
    assert abs(report.z_score) < 3


def test_mc_mixed_scales_need_the_rounding_allowance(capsys):
    # The float sum of the rows misses the correctly rounded reference by
    # about 3e36, some 6e16 sampled standard errors, but by far less than
    # the rounding allowance.
    argv = ["verify", "mc", "--n", "6", "--lengths", "0.009,1e9,600,0.08,1e7,400",
            "--samples", "100", "--seed", "1"]
    assert cli.main(argv) == 0
    first, verdict = capsys.readouterr().out.splitlines()
    report = json.loads(first)
    assert abs(report["estimate"] - report["reference"]) > 1e15 * report["std_error"]
    assert abs(report["z_score"]) < 1e-3
    assert verdict == "PASS mc-z-score |z| < 3.0"


@pytest.mark.parametrize("error, z", [(1e-7, math.inf), (-1e-7, -math.inf),
                                      (1e-11, 0.0), (-1e-11, 0.0)])
def test_mc_all_exact_report_scored_to_a_relative_1e9(error, z):
    row = {"key": "", "kind": "full", "constant": 1e3, "shape": "",
           "estimate": 1e3 * (1 + error), "std_error": 0.0, "exact": True}
    assert montecarlo._report([row], 1e3, 10, 1).z_score == z


def test_mc_rounding_allowance_is_small_at_ordinary_lengths():
    report = mc_full_volume(5, [1.0, 2.0, 1.0, 1.0, 1.0], samples=2000, seed=1)
    plain = (report.estimate - report.reference) / report.std_error
    assert report.z_score == pytest.approx(plain, rel=1e-9)


def refuse_setup(monkeypatch):
    """Make the reference, the enumeration and any draw fail the test."""
    def entered(*args):
        raise AssertionError("the reference was evaluated, a family enumerated or a shape drawn")

    for name in ("v0n_reduced", "enumerate_family", "_stream"):
        monkeypatch.setattr(montecarlo, name, entered)


def test_cli_refuses_huge_samples_before_drawing(monkeypatch, capsys):
    # Every n >= 5 samples a shape, so more samples than the budget are
    # refused before the reference and the enumeration.
    refuse_setup(monkeypatch)
    for n in (5, 8):
        argv = ["verify", "mc", "--n", str(n), "--lengths", ",".join(["1", "2"] + ["1"] * (n - 2)),
                "--samples", "100000000000000", "--seed", "1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: sampling is limited to samples x sampled shapes <= "
                                "100000000000, got 100000000000000 samples of at least one shape\n")


def test_draw_budget_is_inclusive(monkeypatch):
    # One sampled shape at n = 5, two at n = 6.
    monkeypatch.setattr(montecarlo, "DRAW_BUDGET", 2 * 20)
    five, six = [1.0, 2.0, 1.0, 1.0, 1.0], [1.0, 2.0, 1.0, 1.0, 1.0, 2.0]
    assert mc_full_volume(5, five, samples=40, seed=1).samples == 40
    assert mc_full_volume(6, six, samples=20, seed=1).samples == 20
    refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match="<= 40, got 21 x 2 = 42"):
        mc_full_volume(6, six, samples=21, seed=1)
    refuse_setup(monkeypatch)
    for n, lengths in ((5, five), (6, six)):
        with pytest.raises(ValueError, match="<= 40, got 41 samples of at least one shape"):
            mc_full_volume(n, lengths, samples=41, seed=1)
    monkeypatch.undo()
    # No member at n = 4 is sampled, so no sample count is refused.
    assert mc_full_volume(4, [1.0, 2.0, 1.0, 1.0], samples=10 ** 14, seed=1).std_error == 0.0


@pytest.mark.parametrize("n, samples", [(6, 200_000), (5, 10 ** 6), (6, 40_000), (7, 2000)],
                         ids=["benchmark-n6", "acceptance-seed42", "ci-n6", "ci-n7"])
def test_shipped_configurations_are_within_the_draw_budget(n, samples):
    # The benchmark's verify mc runs, criterion 9 and the CI runs: samples
    # x sampled shapes.
    assert samples * len(first_members(n)) <= montecarlo.DRAW_BUDGET


def test_mc_validation_errors():
    with pytest.raises(ValueError):
        mc_full_volume(4, [2.0, 1.0, 1.0, 1.0], samples=10, seed=0)  # L1 >= L2
    with pytest.raises(ValueError):
        mc_full_volume(4, [1.0, 2.0, 1.0], samples=10, seed=0)
    with pytest.raises(ValueError):
        mc_full_volume(4, [1.0, 2.0, 1.0, 1.0], samples=0, seed=0)
    with pytest.raises(ValueError):
        mc_full_volume(4, [1.0, 2.0, -1.0, 1.0], samples=10, seed=0)
