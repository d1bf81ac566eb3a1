"""The identity-check registry shares one computation per route and n, a
raised guard included; its dimension, half-tight, route, homogeneity,
symmetry, recursion and Zograf checks fail on each mutant of what they
read."""
from collections import Counter

import pytest

from wptrees import checks


def test_registry_computes_each_volume_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(n):
            calls[name, n] += 1
            return fn(n)
        return wrapper

    monkeypatch.setattr(checks, "v0n_reduced", counted("reduced", checks.v0n_reduced))
    monkeypatch.setattr(checks, "htc_volume", counted("htc", checks.htc_volume))
    registry = checks.identity_checks(5)
    assert all(thunk() for thunk in registry.values())
    assert calls == {("reduced", n): 1 for n in range(3, 6)} | {
        ("htc", n): 1 for n in range(3, 6)}


def test_registry_keeps_a_raised_guard_and_computes_once(monkeypatch, capsys):
    # A reduced-route weight scaled by (1 + a_1) trips the symmetry guard for
    # n >= 4: each check that reads V_{0,n} fails with the guard's message,
    # and the route still runs once per n.
    from wptrees import cli, volumes
    reduced_factor = volumes._reduced

    def scaled(a1, a2):
        return tuple((e1, e2, w * (1 + a1)) for e1, e2, w in reduced_factor(a1, a2))

    calls = Counter()
    route = checks.v0n_reduced

    def counted(n):
        calls[n] += 1
        return route(n)

    monkeypatch.setattr(volumes, "_reduced", scaled)
    monkeypatch.setattr(checks, "v0n_reduced", counted)
    assert cli.main(["verify", "identities", "--max-n", "6"]) == 1
    captured = capsys.readouterr()
    assert calls == {n: 1 for n in range(3, 7)}
    failed = [line[5:] for line in captured.out.splitlines() if line.startswith("FAIL ")]
    assert len(failed) == 21 and "symmetry-6" in failed and "table-v0-3" not in failed
    assert captured.err.splitlines() == [
        f"{name}: orbit coefficient depends on the placement of its exponents"
        for name in failed]


def inner_degrees(tree):
    return [d for v, d in tree.degrees().items() if v < 0]


@pytest.mark.parametrize("name, mutant", [
    ("polytope_dimension", lambda real: lambda tree, ideal=None: (
        real(tree, ideal) + inner_degrees(tree).count(4))),
    ("polytope_dimension", lambda real: lambda tree, ideal=None: real(tree)),
    ("side", lambda real: lambda tree: (
        () if set(inner_degrees(tree)) <= {3, 4} else None)),
], ids=["degree-4-counted-high", "ideal-corners-ignored", "side-admits-degree-4"])
def test_dimension_check_fails_on_a_mutant(monkeypatch, name, mutant):
    monkeypatch.setattr(checks, name, mutant(getattr(checks, name)))
    assert not checks.identity_checks(5)["dimension-formula-5"]()


def test_h_check_reads_every_half_tight_volume(monkeypatch):
    # H_7 with one orbit coefficient doubled stays homogeneous; only a check
    # that reads n = 7 sees it.
    real = checks.htc_volume

    def doubled(n):
        h = real(n)
        if n != 7:
            return h
        key, c = next(iter(h.items()))
        return {**h, key: 2 * c}

    monkeypatch.setattr(checks, "htc_volume", doubled)
    assert checks.identity_checks(6)["h-genfun-matches-averages"]()
    assert not checks.identity_checks(9)["h-genfun-matches-averages"]()


def test_route_checks_run_past_the_table(monkeypatch):
    # A route whose V_{0,8} has one orbit coefficient raised by 1 fails its
    # check at n = 8, past the n <= 6 table.
    def raised(n):
        orbits = checks.v0n_reduced(n)
        key = next(iter(orbits))
        return {**orbits, key: orbits[key] + 1}

    monkeypatch.setattr(checks, "v0n_graph_sum", raised)
    monkeypatch.setattr(checks, "full_decomposition_v0n", raised)
    registry = checks.identity_checks(8)
    assert not registry["route-graph-sum-8"]()
    assert not registry["route-decomposition-8"]()


def _one_orbit_changed(change):
    """The reduced route with ``change`` applied to one V_{0,8} orbit whose
    tail is not constant: (key, c) -> (key', c')."""
    real = checks.v0n_reduced

    def changed(n):
        orbits = real(n)
        if n != 8:
            return orbits
        key = next(k for k in orbits if len(set(k[2])) > 1)
        new_key, c = change(key, orbits[key])
        return {**{k: v for k, v in orbits.items() if k != key}, new_key: c}
    return changed


@pytest.mark.parametrize("change, failing", [
    (lambda key, c: ((key[0] + 1, *key[1:]), c), "homogeneity-8"),
    (lambda key, c: ((key[0], (), key[2][::-1]), c), "symmetry-8"),
    (lambda key, c: ((key[0], key[2][:1], key[2][1:]), c), "symmetry-8"),
    (lambda key, c: (key, c + 1), "recursion-vs-volume-8"),
], ids=["p-off-by-one", "increasing-tail", "nonempty-head", "coefficient-raised"])
def test_a_changed_orbit_of_v08_fails_its_check(monkeypatch, change, failing):
    registry = checks.identity_checks(8)
    assert registry[failing]()
    monkeypatch.setattr(checks, "v0n_reduced", _one_orbit_changed(change))
    registry = checks.identity_checks(8)
    assert not registry[failing]()


@pytest.mark.parametrize("key", [(3, (), (0,) * 6), (0, (), (0,) * 6)],
                         ids=["pi-only-off-by-one", "length-free-term"])
def test_zograf_check_rejects_a_changed_length_free_part(key):
    volume = checks.v0n_reduced(6)
    assert checks._check_zograf(volume, 6)
    assert not checks._check_zograf({**volume, key: volume.get(key, 0) + 1}, 6)
