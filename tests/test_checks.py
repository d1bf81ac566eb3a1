"""The identity-check registry shares one computation per route and n, a
raised guard included, and its dimension check fails on each mutant of what
it reads."""
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
        return tuple((e1, e2, lambda w=w: w() * (1 + a1)) for e1, e2, w in reduced_factor(a1, a2))

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
