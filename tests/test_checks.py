"""The identity-check registry shares one computation per route and n, and
its dimension check fails on each mutant of what it reads."""
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
