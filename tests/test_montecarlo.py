"""Dimension bookkeeping and the sampled polytope volumes."""
import json
import math
import os
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from wptrees import cli, montecarlo
from wptrees.algebra import Polynomial
from wptrees.montecarlo import corner_markings, mc_full_volume, polytope_dimension
from wptrees.trees import DoubleTree, Tree, canonical_key, enumerate_family
from wptrees.volumes import htc_volume


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


def test_dimension_rank_mode_matches_formula():
    for n in (3, 4, 5):
        for tree in enumerate_family("htc", n):
            for marks in corner_markings(tree, 2):
                assert (polytope_dimension(tree, marks, "formula")
                        == polytope_dimension(tree, marks, "rank"))


def test_dimension_validation():
    t = trivalent_n5_tree()
    with pytest.raises(ValueError):
        polytope_dimension(t, {2: 1}, mode="nope")
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


def test_sample_angle_polytope():
    # Each constrained slot is, bit for bit, its stick-breaking share of one
    # uniform per slot drawn in vertex order, then slot order: a lone slot
    # takes 1 - sqrt(U); the three slots of the centre take 1 - sqrt(U0),
    # sqrt(U0) (1 - U1) and the remainder sqrt(U0) U1, drawing nothing.
    star = Tree.make((2, 3, 4), [(2, -1), (3, -1), (4, -1)])  # always accepted
    assert [cons for _, cons in montecarlo._sides(lone(star))] == [[], []]
    (vertex, none), (deg, constraints) = montecarlo._sides(lone(star_n7_tree()))
    assert (vertex, none) == ({1: 0}, [])
    assert deg == star_n7_tree().degrees()
    fractions = montecarlo._sample_angles(constraints,
                                          np.random.Generator(np.random.Philox(1)), 1000)
    assert sorted(fractions) == [(-4, 0), (-3, 0), (-2, 0), (-1, 0), (-1, 1), (-1, 2)]
    twin = np.random.Generator(np.random.Philox(1))
    for leaf in (-4, -3, -2):
        assert fractions[leaf, 0].tobytes() == (1.0 - np.sqrt(twin.random(1000))).tobytes()
    first, second = np.sqrt(twin.random(1000)), twin.random(1000)
    assert fractions[-1, 0].tobytes() == (1.0 - first).tobytes()
    assert fractions[-1, 1].tobytes() == (first * (1.0 - second)).tobytes()
    assert fractions[-1, 2].tobytes() == (first * second).tobytes()
    for u, su, v, sv in constraints:
        accepted = fractions[u, su] + fractions[v, sv] < 1.0
        assert 0 < accepted.sum() < 1000  # each edge constraint is nontrivial


@pytest.mark.parametrize("tree, slots, rate", [
    (trivalent_n5_tree(), 1, Fraction(5, 6)),
    (path_n6_tree(), 2, Fraction(61, 90)),
    (star_n7_tree(), 3, Fraction(1343, 2520)),
], ids=["one-slot-edge", "two-slot-path", "three-slot-star"])
def test_sampled_rate_matches_closed_form(tree, slots, rate):
    # With X_i the Dirichlet(1,1,1) coordinates of the vertex with the most
    # constrained slots and each neighbour's fraction Beta(1, 2), the rate is
    # E prod_i (1 - X_i^2) over its constrained slots i.
    draws = 10 ** 6
    _, (deg, constraints) = montecarlo._sides(lone(tree))
    row = montecarlo._estimate(lone(tree), 1.0, (constraints,), draws, 9, 0)
    assert abs(row["estimate"] - rate) < 5 * math.sqrt(rate * (1 - rate) / draws)
    assert row["std_error"] == pytest.approx(math.sqrt(rate * (1 - rate) / draws), rel=1e-2)

    fractions = montecarlo._sample_angles(constraints,
                                          np.random.Generator(np.random.Philox(9)), draws)
    for x in fractions.values():  # Beta(1, 2): mean 1/3, variance 1/18
        assert abs(x.mean() - 1 / 3) < 5 * math.sqrt(1 / 18 / draws)
    centre = max(deg, key=lambda v: sum(1 for w, _ in fractions if w == v))
    own = [x for (w, _), x in fractions.items() if w == centre]
    assert len(own) == slots
    if slots == 3:
        assert np.abs(sum(own) - 1.0).max() <= 4 * np.finfo(float).eps


def reference_accepted(sampled, samples: int, seed: int, i: int) -> int:
    """The accepted count of ``_estimate``, drawn out of place from a twin of
    its stream: per chunk, each side's slots in vertex order, then slot
    order, shares 1 - sqrt(U), 1 - U and the remainder of each trivalent
    vertex's stick, each constraint a fresh array ``a + b < 1`` and-ed into
    ``ok``."""
    twin = montecarlo._stream(seed, i)
    accepted = 0
    for done in range(0, samples, montecarlo._CHUNK):
        m = min(montecarlo._CHUNK, samples - done)
        ok = True
        for cons in sampled:
            slots = {}
            for u, su, v, sv in cons:
                slots.setdefault(u, set()).add(su)
                slots.setdefault(v, set()).add(sv)
            fractions = {}
            for v in sorted(slots):
                left = None
                for k, j in enumerate(sorted(slots[v])):
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
                ok = ok & (fractions[u, su] + fractions[v, sv] < 1.0)
        accepted += int(ok.sum())
    return accepted


def sampled_count(row: dict, samples: int) -> int:
    # At constant 1 the estimate is accepted / samples, correctly rounded.
    return round(row["estimate"] * samples)


@pytest.mark.parametrize("tree", [trivalent_n5_tree(), path_n6_tree(), star_n7_tree()],
                         ids=["one-slot-edge", "two-slot-path", "three-slot-star"])
def test_in_place_acceptance_matches_out_of_place_across_chunks(tree):
    # Two full chunks and a ragged one of 5 draws.
    samples = 2 * montecarlo._CHUNK + 5
    sampled = tuple(cons for _, cons in montecarlo._sides(lone(tree)) if cons)
    row = montecarlo._estimate(lone(tree), 1.0, sampled, samples, 13, 4)
    assert not row["exact"]
    assert sampled_count(row, samples) == reference_accepted(sampled, samples, 13, 4)


def test_glued_pair_samples_both_sides():
    # Each side is one inner-inner edge between trivalent vertices, accepted
    # at 5/6 independently of the other, so the pair passes at (5/6)^2.
    t1 = Tree.make((1, 3, 4, 5), [(1, -1), (3, -1), (-1, -2), (4, -2), (5, -2)])
    t2 = Tree.make((2, 6, 7, 8), [(2, -1), (6, -1), (-1, -2), (7, -2), (8, -2)])
    pair = DoubleTree(t1, t2)
    sampled = tuple(cons for _, cons in montecarlo._sides(pair))
    assert [len(cons) for cons in sampled] == [1, 1]
    draws, rate = 10 ** 6, 25 / 36
    row = montecarlo._estimate(pair, 1.0, sampled, draws, 21, 3)
    assert row["kind"] == "full" and not row["exact"]
    assert abs(row["estimate"] - rate) < 5 * math.sqrt(rate * (1 - rate) / draws)
    assert sampled_count(row, draws) == reference_accepted(sampled, draws, 21, 3)


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
    reference = htc_volume(n).eval_float(montecarlo._bindings(lengths))
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
    report = mc_full_volume(n, lengths, samples=500, seed=seed, threads=2)

    def entered(*args, **kwargs):
        raise AssertionError("deriving the ablation enumerated, evaluated or drew")

    for name in ("_stream", "enumerate_family", "v0n_reduced", "ThreadPoolExecutor"):
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
    # One draw per member: every sampled row's rate is 0 or 1.  Each row is
    # scored as if one further draw had gone the other way, so its standard
    # error is its constant / 2, and the three equal K2 rows at n = 5 keep
    # |z| <= 5/6 * 3 / (sqrt(3) / 2) < 3 whatever the draws.
    for seed in range(20):
        report = mc_full_volume(5, [1.0, 2.0, 1.0, 1.0, 1.0], samples=1, seed=seed)
        sampled = [row for row in report.per_tree if not row["exact"]]
        assert len(sampled) == 3
        for row in sampled:
            assert row["estimate"] in (0.0, row["constant"])
            assert row["std_error"] == row["constant"] / 2
        assert math.isfinite(report.z_score) and abs(report.z_score) < 3


def test_cli_single_sample_passes(capsys):
    argv = ["verify", "mc", "--n", "5", "--lengths", "1,2,1,1,1", "--samples", "1",
            "--seed", "1"]
    assert cli.main(argv) == 0
    first, verdict = capsys.readouterr().out.splitlines()
    assert math.isfinite(json.loads(first)["z_score"])
    assert verdict == "PASS mc-z-score |z| < 3.0"


def test_mc_thread_count_invariance():
    lengths = [1.0, 2.0, 1.0, 1.0, 1.0]
    one = mc_full_volume(5, lengths, samples=20_000, seed=5, threads=1)
    four = mc_full_volume(5, lengths, samples=20_000, seed=5, threads=4)
    assert one.estimate == four.estimate
    assert one.std_error == four.std_error


@pytest.mark.parametrize("n", [5, 6])
def test_mc_streams_are_spawned_children(monkeypatch, n):
    # Job i draws from child i of SeedSequence(seed).spawn(count), whichever
    # thread runs it.  Compared run against run, not against a golden file:
    # chunk sums may differ in the last bit across numpy builds and CPUs.
    lengths = [1.0, 2.0, 1.0, 1.0, 1.0, 2.0][:n]
    for threads in (1, 2):
        shipped = mc_full_volume(n, lengths, samples=300, seed=8, threads=threads)
        children = np.random.SeedSequence(8).spawn(len(shipped.per_tree))
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_stream",
                          lambda seed, i: np.random.default_rng(children[i]))
            spawned = mc_full_volume(n, lengths, samples=300, seed=8, threads=threads)
        assert spawned == shipped


@pytest.mark.parametrize("constrained", [True, False])
def test_mc_stream_built_only_to_draw(monkeypatch, constrained):
    calls = []
    stream = montecarlo._stream

    def recording(seed, i):
        calls.append(i)
        return stream(seed, i)

    monkeypatch.setattr(montecarlo, "_stream", recording)
    report = mc_full_volume(5, [1.0, 2.0, 1.0, 1.0, 1.0], samples=100, seed=4)
    drawn = [i for i, row in enumerate(report.per_tree) if not row["exact"]]
    if not constrained:  # the ablation is derived without a stream
        report = report.unconstrained()
        assert all(row["exact"] for row in report.per_tree)
    assert calls == drawn
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
], ids=["l1-above-l2", "overflow", "rounds-to-zero", "l1-l2-round-equal"])
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
    monkeypatch.setattr(montecarlo, "ell_integral",
                        lambda *args: Polynomial.const(Fraction(10) ** 400))
    with pytest.raises(ValueError, match="binary64"):
        mc_full_volume(5, [1.0, 2.0, 1.0, 1.0, 1.0], samples=100, seed=1)


def test_mc_overflowing_constant_sum_refused_before_drawing(monkeypatch):
    # Every constant is finite, but their sum is not.
    refuse_draws(monkeypatch)
    monkeypatch.setattr(montecarlo, "_constant", lambda *args: sys.float_info.max)
    with pytest.raises(ValueError, match="binary64"):
        mc_full_volume(5, [1.0, 2.0, 1.0, 1.0, 1.0], samples=100, seed=1)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_mc_huge_lengths_reported(capsys, recwarn, threads):
    # No sampled value is squared, so lengths near 1e40 report and pass
    # with no numpy warning.
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
    # The float sum of the exact rows may differ from the correctly rounded
    # reference by far more than the sampled standard error of about 25.
    report = mc_full_volume(5, [Fraction(v) for v in lengths.split(",")],
                            samples=100, seed=1)
    assert 0.0 < report.std_error < 1e3
    assert abs(report.z_score) < 3


def test_mc_rounding_allowance_is_small_at_ordinary_lengths():
    report = mc_full_volume(5, [1.0, 2.0, 1.0, 1.0, 1.0], samples=2000, seed=1)
    plain = (report.estimate - report.reference) / report.std_error
    assert report.z_score == pytest.approx(plain, rel=1e-9)


def test_mc_worker_pool_is_capped(monkeypatch, capsys):
    recorded = []

    class RecordingPool:
        """Stands in for the executor: records its size, runs jobs inline."""

        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    argv = ["verify", "mc", "--n", "5", "--lengths", "1,2,1,1,1",
            "--samples", "2000", "--seed", "3", "--sigma", "100"]
    threads_before = threading.active_count()
    assert cli.main(argv) == 0
    serial = capsys.readouterr().out
    assert recorded == []
    assert cli.main(["--threads", str(10 ** 9)] + argv) == 0
    huge = capsys.readouterr().out
    assert threading.active_count() == threads_before
    jobs = len(json.loads(serial.splitlines()[0])["per_tree"])
    assert jobs > 4
    assert recorded == [4]
    assert huge == serial


def test_mc_validation_errors():
    with pytest.raises(ValueError):
        mc_full_volume(4, [2.0, 1.0, 1.0, 1.0], samples=10, seed=0)  # L1 >= L2
    with pytest.raises(ValueError):
        mc_full_volume(4, [1.0, 2.0, 1.0], samples=10, seed=0)
    with pytest.raises(ValueError):
        mc_full_volume(4, [1.0, 2.0, 1.0, 1.0], samples=0, seed=0)
    with pytest.raises(ValueError):
        mc_full_volume(4, [1.0, 2.0, -1.0, 1.0], samples=10, seed=0)
