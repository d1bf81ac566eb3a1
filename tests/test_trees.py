"""Tree families: counts, oracle agreement, insertion properties, keys,
and the Pruefer counts of the degree profiles."""
import gc
import json
from collections import Counter
from itertools import product
from math import factorial, prod

import pytest

from wptrees import trees
from wptrees.trees import (
    ENUMERATION_MAX_N,
    FAMILIES,
    DoubleTree,
    Tree,
    brute_force_enumerate,
    canonical_key,
    enumerate_family,
    family_splits,
    insert_label,
    partitions,
    plane_embedding_count,
    prufer_counts,
    tree_to_json,
    trees_on,
    validate_tree,
)


def keys(items):
    return {canonical_key(t) for t in items}


def test_two_three_n3_is_the_single_seed():
    family = enumerate_family("two-three", 3)
    assert len(family) == 1
    d = family[0]
    assert d.t1 == Tree.single(1)
    assert d.t2 == Tree.edge(2, 3)


def test_two_three_n4_count_is_five():
    assert len(enumerate_family("two-three", 4)) == 5
    assert len(brute_force_enumerate("two-three", 4)) == 5


def test_full_n4_is_two_single_edge_pairs():
    family = enumerate_family("full", 4)
    assert len(family) == 2
    partitions = {(d.t1.boundary, d.t2.boundary) for d in family}
    assert partitions == {((1, 3), (2, 4)), ((1, 4), (2, 3))}
    for d in family:
        assert len(d.t1.edges) == 1 and len(d.t2.edges) == 1


def test_graph_n3_single_element():
    assert len(enumerate_family("graph", 3)) == 1
    assert len(brute_force_enumerate("graph", 3)) == 1


@pytest.mark.parametrize("family", ["two-three", "graph", "htc", "full"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_enumerators_agree_with_oracle(family, n):
    assert keys(enumerate_family(family, n)) == keys(brute_force_enumerate(family, n))


def test_two_three_oracle_n6():
    assert keys(enumerate_family("two-three", 6)) == keys(brute_force_enumerate("two-three", 6))


def test_family_validation_and_bounds():
    for family in ("two-three", "graph", "htc", "full"):
        for n in (3, 4, 5):
            for item in enumerate_family(family, n):
                comps = (item,) if isinstance(item, Tree) else (item.t1, item.t2)
                for t in comps:
                    validate_tree(t)
        with pytest.raises(ValueError):
            enumerate_family(family, 2)
    with pytest.raises(ValueError):
        enumerate_family("nope", 4)
    with pytest.raises(ValueError):
        brute_force_enumerate("htc", 8)


def test_graph_is_isolated_union_full():
    for n in (3, 4, 5):
        isolated = {canonical_key(DoubleTree(Tree.single(1), t))
                    for t in trees_on(tuple(range(2, n + 1)))}
        full = keys(enumerate_family("full", n))
        graph = keys(enumerate_family("graph", n))
        assert isolated.isdisjoint(full)
        assert graph == isolated | full
        assert keys(enumerate_family("two-three", n)) <= graph


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_graph_order_is_htc_order_then_full_order(n):
    # Every key D[B1()|...] of an isolated pair sorts before each D[B1(...,
    # so the graph order lists the htc trees, each glued to the lone vertex
    # 1, in htc order, then the full members in full order.
    graph = enumerate_family("graph", n)
    htc = enumerate_family("htc", n)
    isolated, rest = graph[:len(htc)], graph[len(htc):]
    assert all(d.t1 == Tree.single(1) for d in isolated)
    assert [canonical_key(d.t2) for d in isolated] == [canonical_key(t) for t in htc]
    assert [canonical_key(d) for d in rest] == [
        canonical_key(d) for d in enumerate_family("full", n)]


def test_insert_label_seed_children():
    # The n = 3 two-three member is the single vertex 1 beside the edge 2-3;
    # label 4 enters either component, giving 4 + 1 children.
    children = insert_label(Tree.edge(2, 3), 4)
    assert len(children) == 4
    # one subdivision (degree 2), two leaf attachments, one via a new inner
    # vertex (degree 1); no inner vertex exists, so no replacement.
    assert sorted(c.degrees()[4] for c in children) == [1, 1, 1, 2]
    new_inner = [c for c in children if c.adjacency()[4][0] < 0]
    assert len(new_inner) == 1
    assert insert_label(Tree.single(1), 4) == [Tree.edge(1, 4)]


def test_insert_label_numbers_a_new_inner_vertex_below_the_least():
    star = Tree.make((2, 3, 4), [(2, -3), (3, -3), (4, -3)])
    inner = Counter(frozenset(c.inner_ids()) for c in insert_label(star, 5))
    # three subdivisions, three boundary and one inner attachment keep -3;
    # the replacement drops it; the three edge attachments add -4.
    assert inner == {frozenset({-3}): 7, frozenset(): 1, frozenset({-3, -4}): 3}


def test_insert_label_counts_match_oracle_n5():
    children = [c for p in trees_on((2, 3, 4)) for c in insert_label(p, 5)]
    # injectivity across parents: all children distinct
    assert len(keys(children)) == len(children)
    assert keys(children) == keys(trees_on((2, 3, 4, 5)))
    assert keys(children) == keys(brute_force_enumerate("htc", 5))
    # label 5 entering either component of a two-three member at n = 4
    parents = enumerate_family("two-three", 4)
    pairs = [DoubleTree(c, p.t2) for p in parents for c in insert_label(p.t1, 5)]
    pairs += [DoubleTree(p.t1, c) for p in parents for c in insert_label(p.t2, 5)]
    assert len(keys(pairs)) == len(pairs) == len(brute_force_enumerate("two-three", 5))


def test_overlapping_splits_raise(monkeypatch):
    monkeypatch.setattr(trees, "family_splits", lambda family, n: [((1,), (2, 3))] * 2)
    with pytest.raises(RuntimeError, match="family splits overlap"):
        trees._assemble("graph", 3, trees_on)
    with pytest.raises(RuntimeError, match="family splits overlap"):
        brute_force_enumerate("graph", 3)


def test_insert_label_requires_new_label():
    with pytest.raises(ValueError):
        insert_label(Tree.edge(2, 3), 2)


def test_canonical_key_ignores_inner_ids():
    a = Tree.make((2, 3, 4), [(2, -1), (3, -1), (4, -1)])
    b = Tree.make((2, 3, 4), [(2, -7), (3, -7), (4, -7)])
    assert canonical_key(a) == canonical_key(b)


def test_canonical_key_distinguishes_labelings():
    path_234 = Tree.make((2, 3, 4), [(2, 3), (3, 4)])
    path_243 = Tree.make((2, 3, 4), [(2, 4), (4, 3)])
    assert canonical_key(path_234) != canonical_key(path_243)


def test_canonical_key_deterministic():
    t = Tree.make((2, 3, 4, 5), [(2, -1), (3, -1), (-1, -2), (4, -2), (5, -2)])
    fresh = Tree.make((2, 3, 4, 5), [(2, -3), (3, -3), (-3, -4), (4, -4), (5, -4)])
    assert canonical_key(t) == canonical_key(fresh)


def test_plane_embedding_counts():
    star = Tree.make((2, 3, 4), [(2, -1), (3, -1), (4, -1)])
    assert plane_embedding_count(star) == 2
    path = Tree.make((2, 3, 4, 5), [(2, 3), (3, 4), (4, 5)])
    assert plane_embedding_count(path) == 1
    star4 = Tree.make((2, 3, 4, 5), [(2, -1), (3, -1), (4, -1), (5, -1)])
    assert plane_embedding_count(star4) == 6


def test_inner_vertex_count_bound():
    for n in (4, 5, 6):
        for t in enumerate_family("htc", n):
            assert len(t.inner_ids()) <= len(t.boundary) - 2


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_edge_views_match_edge_scans(family, n):
    for member in enumerate_family(family, n):
        for t in (member,) if isinstance(member, Tree) else (member.t1, member.t2):
            vertices = set(t.boundary) | {v for edge in t.edges for v in edge}
            assert t.inner_ids() == {v for v in vertices if v < 0}
            neighbors = {v: sorted([b for a, b in t.edges if a == v]
                                   + [a for a, b in t.edges if b == v])
                         for v in vertices}
            assert t.adjacency() == neighbors
            degrees = {v: len(nbrs) for v, nbrs in neighbors.items()}
            assert t.degrees() == degrees
            assert all(t.degree(v) == d for v, d in degrees.items())
            assert t.degree(99) == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_enumerated_trees_are_freed_with_their_tuple(family):
    # No process-wide cache holds a tree: once the caller drops the family,
    # its members and their components are gone.
    def live():
        gc.collect()
        return sum(isinstance(o, (Tree, DoubleTree)) for o in gc.get_objects())

    before = live()
    members = enumerate_family(family, 5)
    assert live() > before
    del members
    assert live() == before


def test_trees_are_read_only_and_equal_by_their_edges():
    star = Tree.make((2, 3, 4), [(2, -1), (3, -1), (4, -1)])
    pair = DoubleTree(Tree.single(1), star)
    with pytest.raises(AttributeError):
        star.edges = frozenset()
    with pytest.raises(AttributeError):
        pair.t1 = Tree.single(1)
    again = Tree.make((4, 3, 2), [(-1, 4), (3, -1), (-1, 2)])
    assert again == star
    assert again.key == star.key
    assert hash(again) == hash(star)


def test_tree_json_export():
    t = enumerate_family("htc", 4)[0]
    payload = tree_to_json(t)
    blob = json.dumps(payload)
    again = json.loads(blob)
    labels = [v["label"] for v in again["vertices"] if v["kind"] == "boundary"]
    assert labels == list(t.boundary)
    inner = [v["id"] for v in again["vertices"] if v["kind"] == "inner"]
    assert len(inner) == len(t.inner_ids())
    assert again["plane_embeddings"] == plane_embedding_count(t)
    assert len(again["edges"]) == len(t.edges)
    d = enumerate_family("two-three", 4)[0]
    payload = tree_to_json(d)
    assert set(payload) == {"t1", "t2", "key", "plane_embeddings"}


# -- degree profiles ---------------------------------------------------------

FAMILY_SIZES_N7 = {"htc": 6692, "two-three": 9952, "full": 6520, "graph": 13212}


def tree_profile(t: Tree) -> tuple:
    deg = t.degrees()
    return (t.boundary, tuple(deg[b] for b in t.boundary),
            tuple(sorted((deg[v] for v in t.inner_ids()), reverse=True)))


def compositions(total, parts):
    """Tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for tail in compositions(total - first, parts - 1):
            yield (first,) + tail


def component_profiles(labels) -> Counter:
    """Profile -> tree count on ``labels``, from the Pruefer counts per
    (m, s, inner multiset), divided by prod_b (deg(b) - 1)! per boundary
    degree vector."""
    m = len(labels)
    if m == 1:
        return Counter({(labels, (0,), inner): count
                        for inner, count in prufer_counts(1, -1)})
    out = Counter()
    for s in range(m - 1):
        for inner, count in prufer_counts(m, s):
            for excess in compositions(s, m):
                trees, rest = divmod(count, prod(factorial(e) for e in excess))
                assert rest == 0
                out[labels, tuple(e + 1 for e in excess), tuple(e + 1 for e in inner)] += trees
    return out


def profile_counts(family, n) -> Counter:
    """Profile key -> Pruefer count, over every member of the family."""
    out = Counter()
    for split in family_splits(family, n):
        for parts in product(*(component_profiles(labels).items() for labels in split)):
            out[tuple(key for key, _ in parts)] += prod(count for _, count in parts)
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_prufer_counts_vanish_outside_the_excess_range(m):
    # Boundary excesses of a tree on m >= 2 labels sum to 0 .. m - 2; a
    # lone vertex has excess -1.
    allowed = [-1] if m == 1 else list(range(m - 1))
    assert [s for s in range(-3, m + 3) if prufer_counts(m, s)] == allowed


def test_partitions_match_brute_force():
    for total in range(8):
        for parts in range(5):
            for least in (1, 2):
                expected = sorted(
                    (c for c in product(range(least, total + 1), repeat=parts)
                     if sum(c) == total and list(c) == sorted(c, reverse=True)),
                    reverse=True)
                assert list(partitions(total, parts, least)) == expected


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_profile_counts_match_enumeration(family, n):
    enumerated = Counter(
        (tree_profile(t),) if family == "htc" else (tree_profile(t.t1), tree_profile(t.t2))
        for t in enumerate_family(family, n))
    assert profile_counts(family, n) == enumerated


@pytest.mark.parametrize("family", FAMILIES)
def test_profile_counts_give_family_sizes_n7(family):
    assert sum(profile_counts(family, 7).values()) == FAMILY_SIZES_N7[family]


@pytest.mark.parametrize("family", FAMILIES)
def test_enumeration_gives_family_sizes_n7(family):
    assert len(enumerate_family(family, 7)) == FAMILY_SIZES_N7[family]


def test_profile_counts_give_two_three_size_n8():
    assert sum(profile_counts("two-three", 8).values()) == 217_968


def test_enumeration_refused_above_limit():
    with pytest.raises(ValueError, match="limited to n <= 8"):
        enumerate_family("two-three", ENUMERATION_MAX_N + 1)
    with pytest.raises(ValueError, match="limited to n <= 8"):
        trees_on(tuple(range(1, ENUMERATION_MAX_N + 1)))
