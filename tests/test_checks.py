"""The identity-check registry shares one computation per route and n."""
from collections import Counter

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
