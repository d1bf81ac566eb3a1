"""Dimension bookkeeping and the sampled polytope volumes."""
import json
import math
import os
import threading
from fractions import Fraction

import numpy as np
import pytest

from wptrees import cli, montecarlo
from wptrees.montecarlo import (
    corner_markings,
    mc_full_volume,
    mc_htc_volume,
    polytope_dimension,
)
from wptrees.trees import Tree, enumerate_family


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


def test_sample_angle_polytope():
    # The vectorized sampler and acceptance mask that the estimators run.
    star = Tree.make((2, 3, 4), [(2, -1), (3, -1), (4, -1)])
    assert montecarlo._inner_edge_constraints(star) == []  # always accepted
    joined = trivalent_n5_tree()
    constraints = montecarlo._inner_edge_constraints(joined)
    rng = np.random.Generator(np.random.Philox(1))
    angles = montecarlo._sample_angles(joined, constraints, rng, 400)
    assert sorted(angles) == [-2, -1]
    for rows in angles.values():
        assert rows.shape == (400, 3)
        assert (rows > 0).all()
        assert np.allclose(rows.sum(axis=1), math.pi)
    accepted = montecarlo._acceptance_mask(constraints, angles)
    assert 0 < accepted.sum() < 400  # the edge constraint is nontrivial


def test_mc_htc_n3_exact():
    report = mc_htc_volume(3, [1.0, 2.0, 1.5], samples=10, seed=0)
    assert report.estimate == 1.0
    assert report.std_error == 0.0
    assert report.z_score == 0.0


def test_mc_htc_n4_exact_blocks():
    # No tree at n = 4 has an inner-inner edge, so the estimate is exact.
    report = mc_htc_volume(4, [1.0, 2.0, 1.0, 1.0], samples=10, seed=0)
    assert report.std_error == 0.0
    assert report.estimate == pytest.approx(2 * math.pi ** 2 + 2.5, rel=1e-12)
    assert report.z_score == 0.0
    assert all(row["exact"] for row in report.per_tree)


def test_mc_full_n4():
    report = mc_full_volume(4, [1.0, 2.0, 3.0, 4.0], samples=200_000, seed=11)
    assert report.reference == pytest.approx(2 * math.pi ** 2 + 15, rel=1e-12)
    assert abs(report.z_score) < 4
    full_part = sum(r["estimate"] for r in report.per_tree if r["kind"] == "full")
    full_se = math.sqrt(sum(r["std_error"] ** 2
                            for r in report.per_tree if r["kind"] == "full"))
    assert abs(full_part - 1.0) < 4 * full_se  # exact gluing part is L1^2 = 1


def test_mc_htc_zscores_across_seeds():
    lengths = [1.0, 2.0, 1.0, 1.0, 1.0]
    zs = [mc_htc_volume(5, lengths, samples=100_000, seed=s).z_score
          for s in range(10)]
    assert sum(1 for z in zs if abs(z) < 3) >= 9


def test_mc_full_zscores_across_seeds():
    lengths = [1.0, 2.0, 1.0, 1.0, 1.0]
    zs = [mc_full_volume(5, lengths, samples=100_000, seed=s).z_score
          for s in range(10)]
    assert sum(1 for z in zs if abs(z) < 3) >= 9


def test_mc_ablation_disagrees():
    lengths = [1.0, 2.0, 1.0, 1.0, 1.0]
    off = mc_full_volume(5, lengths, samples=100_000, seed=3, delaunay=False)
    assert abs(off.z_score) > 5
    assert off.estimate > off.reference  # dropping constraints only adds volume


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
            patch.setattr(montecarlo, "_stream", lambda seed, i: np.random.Generator(
                np.random.Philox(children[i])))
            spawned = mc_full_volume(n, lengths, samples=300, seed=8, threads=threads)
        assert spawned == shipped


@pytest.mark.parametrize("delaunay", [True, False])
def test_mc_stream_built_only_to_draw(monkeypatch, delaunay):
    calls = []
    stream = montecarlo._stream

    def recording(seed, i):
        calls.append(i)
        return stream(seed, i)

    monkeypatch.setattr(montecarlo, "_stream", recording)
    report = mc_full_volume(5, [1.0, 2.0, 1.0, 1.0, 1.0], samples=100, seed=4,
                            delaunay=delaunay)
    assert calls == [i for i, row in enumerate(report.per_tree) if not row["exact"]]
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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_mc_overflowing_squares_refused(capsys, recwarn, threads):
    # At lengths near 1e40 the glued samples are finite but their squares
    # are not: the run is refused as invalid input once sampled, with no
    # numpy warning and no report built on overflowed sums.
    argv = ["--threads", threads, "verify", "mc", "--n", "5",
            "--lengths", "1e40,2e40,1e40,1e40,1e40", "--samples", "100", "--seed", "1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the sampled volumes or their squares overflow "
                            "binary64 at these lengths\n")
    assert not recwarn.list


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
        mc_htc_volume(4, [2.0, 1.0, 1.0, 1.0], samples=10, seed=0)  # L1 >= L2
    with pytest.raises(ValueError):
        mc_htc_volume(4, [1.0, 2.0, 1.0], samples=10, seed=0)
    with pytest.raises(ValueError):
        mc_htc_volume(4, [1.0, 2.0, 1.0, 1.0], samples=0, seed=0)
    with pytest.raises(ValueError):
        mc_full_volume(4, [1.0, 2.0, -1.0, 1.0], samples=10, seed=0)
