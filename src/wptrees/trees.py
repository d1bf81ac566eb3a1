"""Enumeration of boundary-labeled trees and double trees.

Vertices are plain ints: boundary vertices are their positive labels, inner
vertices are negative ids.  Inner vertices are anonymous (two trees that
differ only by inner ids are the same tree) and must have degree >= 3 in any
valid tree, which forces every leaf to be a boundary vertex and bounds the
inner vertex count by (#boundary - 2).

Four families are enumerated, all over combinatorial (non-plane) trees:

* ``htc``        single trees with boundary labels 2..n;
* ``full``       ordered pairs (t1, t2) partitioning labels 1..n with
                 1 in t1, 2 in t2 and at least two boundary vertices per
                 component;
* ``graph``      the disjoint union of ``full`` and the single trees on
                 labels 2..n paired with an isolated vertex 1 of degree 0;
* ``two-three``  the elements of ``graph`` whose second component contains
                 label 3.

Every family is a split product: :func:`family_splits` lists the boundary
label sets of the components, and once the labels are split each component
is any tree on its labels, chosen independently of the other.  One assembler
takes the product over every split and sorts the members by canonical key;
it raises if two splits produce the same member.

The production enumerator grows the trees on a label set (:func:`trees_on`)
by inserting boundary labels in ascending order; each insertion applies five
local operations (subdivide an edge, replace an inner vertex, attach to a
boundary vertex, attach to an inner vertex, attach to an edge through a new
inner vertex).  Deleting the largest label and smoothing the result recovers
the unique parent, so the construction is complete and duplicate-free; the
enumerator checks this at run time and raises on a duplicate rather than
assuming it.  The brute-force oracle (exhaustive Pruefer sequences plus
degree filtering) differs from it only in how it enumerates the trees of one
component, and serves as the reference for small n.  Nothing is cached
between calls: the caller holds the trees, for one call, all in memory at
once, so enumeration is refused above ``ENUMERATION_MAX_N``.

Boundary-labeled trees are rigid (no nontrivial automorphisms fixing the
labels), so counting needs no symmetry factors and the number of plane
embeddings of a tree factorizes as prod_v (deg(v) - 1)!.

Sums whose summand depends only on vertex degrees need no trees at all.  A
tree on m boundary labels with j inner vertices has N = m + j vertices whose
excesses deg(v) - 1 sum to N - 2; the inner excesses are >= 2.  By Pruefer,
(N - 2)! / prod_v (deg(v) - 1)! trees on N labelled vertices have a given
degree sequence; rigidity makes the inner relabellings act freely, so
dividing by prod_k mult_k! (the repeats in the inner multiset) counts the
trees with anonymous inner vertices.  :func:`prufer_counts` lists these
counts per inner multiset for a given sum s of the boundary excesses, with
the boundary part prod_b (deg(b) - 1)! left for the caller to divide out.  A
lone vertex has degree 0 and count 1.
"""
from __future__ import annotations

import heapq
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import combinations, product
from math import factorial, prod

__all__ = [
    "Tree",
    "DoubleTree",
    "canonical_key",
    "plane_embedding_count",
    "insert_label",
    "trees_on",
    "enumerate_family",
    "brute_force_enumerate",
    "check_enumeration_size",
    "family_splits",
    "partitions",
    "prufer_counts",
    "validate_tree",
    "tree_to_json",
    "FAMILIES",
    "BRUTE_FORCE_MAX_N",
    "ENUMERATION_MAX_N",
]

FAMILIES = ("two-three", "graph", "htc", "full")
BRUTE_FORCE_MAX_N = 7
# The caller holds every tree of one call: two-three at n = 8 is 217,968 trees
# and 345 MB peak RSS, and each further label multiplies both by about 25.
ENUMERATION_MAX_N = 8


def _norm_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _adjacency(boundary, edges) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {b: [] for b in boundary}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for nbrs in adj.values():
        nbrs.sort()
    return adj


class Tree(namedtuple("Tree", "boundary edges key")):
    """A boundary-labeled tree; a single boundary vertex has no edges.
    A read-only tuple whose ``key`` is computed from (boundary, edges) when
    the tree is made, so two trees are equal exactly when those are."""

    __slots__ = ()

    def __new__(cls, boundary: tuple[int, ...], edges: frozenset[tuple[int, int]]):
        key = _encode(_adjacency(boundary, edges), min(boundary), None)
        return super().__new__(cls, boundary, edges, key)

    @staticmethod
    def make(boundary, edges) -> "Tree":
        return Tree(tuple(sorted(boundary)),
                    frozenset(_norm_edge(a, b) for a, b in edges))

    @staticmethod
    def single(label: int) -> "Tree":
        return Tree((label,), frozenset())

    @staticmethod
    def edge(a: int, b: int) -> "Tree":
        return Tree.make((a, b), [(a, b)])

    def adjacency(self) -> dict[int, list[int]]:
        """Vertex -> ascending neighbours, built afresh in one pass over the edges."""
        return _adjacency(self.boundary, self.edges)

    def inner_ids(self) -> set[int]:
        return {v for v in self.adjacency() if v < 0}

    def degree(self, v: int) -> int:
        """The degree of ``v``, 0 if absent (``perfbench/probe.py`` reads it)."""
        return sum(v in edge for edge in self.edges)

    def degrees(self) -> dict[int, int]:
        return {v: len(nbrs) for v, nbrs in self.adjacency().items()}


class DoubleTree(namedtuple("DoubleTree", "t1 t2 key")):
    """An ordered pair of trees with label 1 in t1 and label 2 in t2, as a
    read-only tuple whose ``key`` joins the two trees' keys."""

    __slots__ = ()

    def __new__(cls, t1: Tree, t2: Tree):
        if 1 not in t1.boundary or 2 not in t2.boundary:
            raise ValueError("double tree needs label 1 in t1 and 2 in t2")
        return super().__new__(cls, t1, t2, b"D[" + t1.key + b"|" + t2.key + b"]")


def canonical_key(t: Tree | DoubleTree) -> bytes:
    """Isomorphism-invariant key; equal iff the labeled graphs are equal.
    Computed once, when the tree is made."""
    return t.key


def _encode(adj: dict[int, list[int]], v: int, parent: int | None) -> bytes:
    """Canonical bytes of the subtree at v, seen from ``parent``."""
    kids = sorted(_encode(adj, u, v) for u in adj[v] if u != parent)
    tag = b"B%d" % v if v > 0 else b"I"
    return tag + b"(" + b",".join(kids) + b")"


def plane_embedding_count(t: Tree | DoubleTree) -> int:
    """Number of plane structures: prod over vertices of (deg - 1)!."""
    if isinstance(t, DoubleTree):
        return plane_embedding_count(t.t1) * plane_embedding_count(t.t2)
    out = 1
    for d in t.degrees().values():
        if d >= 2:
            out *= factorial(d - 1)
    return out


def validate_tree(t: Tree) -> None:
    """Raise if t is not connected, acyclic, with inner degrees >= 3."""
    adj = t.adjacency()
    if len(set(t.boundary)) != len(t.boundary):
        raise ValueError("duplicate boundary labels")
    if len(t.edges) != len(adj) - 1:
        raise ValueError("edge count does not match a tree")
    if len(adj) > 1:
        seen = {next(iter(adj))}
        frontier = list(seen)
        while frontier:
            v = frontier.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        if seen != adj.keys():
            raise ValueError("tree is not connected")
    inner = [v for v in adj if v < 0]
    for v in inner:
        if len(adj[v]) < 3:
            raise ValueError(f"inner vertex of degree {len(adj[v])} < 3")
    if len(inner) > max(0, len(t.boundary) - 2):
        raise ValueError("too many inner vertices")


# -- constructive enumeration by label insertion ------------------------

def insert_label(t: Tree, label: int) -> list[Tree]:
    """All trees obtained by adding one new boundary vertex ``label``.

    The five operations: (1) subdivide an edge with the new vertex;
    (2) replace an inner vertex by it; (3) attach it by a new edge to a
    boundary vertex; (4) attach it by a new edge to an inner vertex;
    (5) attach it to an edge through a new inner vertex.
    """
    if label in t.boundary:
        raise ValueError(f"label {label} already present")
    new_boundary = t.boundary + (label,)
    inner = t.inner_ids()
    fresh = (min(inner) - 1) if inner else -1
    children: list[Tree] = []

    for e in t.edges:  # (1)
        a, b = e
        edges = (t.edges - {e}) | {_norm_edge(a, label), _norm_edge(label, b)}
        children.append(Tree.make(new_boundary, edges))

    for w in inner:  # (2)
        edges = frozenset(
            _norm_edge(label if a == w else a, label if b == w else b)
            for a, b in t.edges)
        children.append(Tree.make(new_boundary, edges))

    for b in t.boundary:  # (3)
        children.append(Tree.make(new_boundary, t.edges | {_norm_edge(b, label)}))

    for v in inner:  # (4)
        children.append(Tree.make(new_boundary, t.edges | {_norm_edge(v, label)}))

    for e in t.edges:  # (5)
        a, b = e
        edges = (t.edges - {e}) | {_norm_edge(a, fresh), _norm_edge(fresh, b),
                                   _norm_edge(fresh, label)}
        children.append(Tree.make(new_boundary, edges))

    keys = [canonical_key(c) for c in children]
    if len(set(keys)) != len(keys):
        raise RuntimeError("insertion produced duplicates")
    return children


def _check_family(family: str, n: int) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")


def check_enumeration_size(n: int) -> None:
    if n > ENUMERATION_MAX_N:
        raise ValueError(
            f"tree enumeration keeps every tree in memory and is limited to "
            f"n <= {ENUMERATION_MAX_N}, got n = {n}")


def trees_on(labels: tuple[int, ...]) -> tuple[Tree, ...]:
    """All trees with the given boundary labels, sorted by canonical key.

    Refused for more than ``ENUMERATION_MAX_N - 1`` labels, the size of the
    largest component of any family at n = ``ENUMERATION_MAX_N``.
    """
    labels = tuple(sorted(labels))
    if not labels:
        raise ValueError("need at least one boundary label")
    check_enumeration_size(len(labels) + 1)
    if len(labels) == 1:
        return (Tree.single(labels[0]),)
    current = {canonical_key(t): t for t in (Tree.edge(labels[0], labels[1]),)}
    for label in labels[2:]:
        grown: dict[bytes, Tree] = {}
        for t in current.values():
            for child in insert_label(t, label):
                key = canonical_key(child)
                if key in grown:
                    raise RuntimeError("insertion collided across parents")
                grown[key] = child
        current = grown
    return tuple(t for _, t in sorted(current.items()))


def family_splits(family: str, n: int):
    """The boundary label sets of the components, one tuple per split.

    ``htc`` has the single split (2..n,); the double-tree families yield
    pairs (s1, s2) with 1 in s1 and 2 in s2: ``full`` those with two labels
    or more on each side, ``graph`` also the isolated split ((1,), 2..n),
    and ``two-three`` the ``graph`` splits with 3 in s2.
    """
    _check_family(family, n)
    if family == "htc":
        yield (tuple(range(2, n + 1)),)
        return
    if family != "full":
        yield ((1,), tuple(range(2, n + 1)))
    rest = list(range(3, n + 1))
    for r in range(1, len(rest)):
        for picked in combinations(rest, r):
            if family == "two-three" and 3 in picked:
                continue
            yield ((1,) + picked, (2,) + tuple(x for x in rest if x not in picked))


def _assemble(family: str, n: int, component_trees) -> tuple:
    """The members of ``family`` at n, sorted by canonical key: per split,
    the product of ``component_trees(labels)`` over its components."""
    out: dict[bytes, Tree | DoubleTree] = {}
    for split in family_splits(family, n):
        for parts in product(*(component_trees(labels) for labels in split)):
            t = parts[0] if family == "htc" else DoubleTree(*parts)
            key = canonical_key(t)
            if key in out:
                raise RuntimeError("family splits overlap")
            out[key] = t
    return tuple(t for _, t in sorted(out.items()))


def enumerate_family(family: str, n: int) -> tuple:
    """Complete duplicate-free enumeration, sorted by canonical key."""
    _check_family(family, n)
    check_enumeration_size(n)
    return _assemble(family, n, trees_on)


# -- Pruefer counts -----------------------------------------------------------

def partitions(total: int, parts: int, least: int = 1, cap: int | None = None):
    """Nonincreasing tuples of ``parts`` integers in [least, cap] summing to
    ``total`` (``cap`` defaults to ``total``)."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    top = total if cap is None else cap
    for first in range(min(top, total - least * (parts - 1)), least - 1, -1):
        for tail in partitions(total - first, parts - 1, least, first):
            yield (first,) + tail


@lru_cache(maxsize=None)
def prufer_counts(m: int, s: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(inner excesses, count) per inner multiset of the trees on m boundary
    labels whose boundary excesses deg(b) - 1 sum to s.

    With j inner vertices of excesses e_v >= 2 (nonincreasing) the count is
    (m + j - 2)! / prod_v e_v! / prod_k mult_k!, and the trees whose boundary
    excesses are e_b number count / prod_b e_b! (see the module docstring).
    A lone vertex (m = 1) has degree 0, so excess -1.
    """
    if m == 1:
        return (((), 1),) if s == -1 else ()
    if s < 0:
        return ()
    out = []
    for j in range(m - 1):
        slack = m + j - 2
        for inner in partitions(slack - s, j, 2):
            out.append((inner, factorial(slack) // (
                prod(factorial(e) for e in inner)
                * prod(factorial(k) for k in Counter(inner).values()))))
    return tuple(out)


# -- independent brute-force oracle -------------------------------------

def _prufer_edges(seq: tuple[int, ...], vertices: list[int]) -> list[tuple[int, int]]:
    deg = {v: 1 for v in vertices}
    for v in seq:
        deg[v] += 1
    leaves = [v for v in vertices if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append(_norm_edge(leaf, v))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(leaves, v)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append(_norm_edge(a, b))
    return edges


def _brute_trees_on(labels: tuple[int, ...]):
    """The trees on ``labels``, from every Pruefer sequence of every size."""
    labels = tuple(sorted(labels))
    if len(labels) == 1:
        return (Tree.single(labels[0]),)
    found: dict[bytes, Tree] = {}
    for j in range(len(labels) - 1):
        inner = tuple(range(-1, -j - 1, -1))
        vertices = sorted(labels + inner)
        if len(vertices) == 2:
            t = Tree.edge(*labels)
            found.setdefault(canonical_key(t), t)
            continue
        for seq in product(vertices, repeat=len(vertices) - 2):
            counts = Counter(seq)
            # Inner degree is (occurrences in the sequence) + 1, so an inner
            # vertex must occur at least twice.
            if any(counts.get(v, 0) < 2 for v in inner):
                continue
            t = Tree.make(labels, _prufer_edges(seq, vertices))
            found.setdefault(canonical_key(t), t)
    return found.values()


def brute_force_enumerate(family: str, n: int) -> tuple:
    """Exhaustive oracle enumeration; independent of the insertion scheme."""
    _check_family(family, n)
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is limited to n <= {BRUTE_FORCE_MAX_N}")
    return _assemble(family, n, _brute_trees_on)


# -- export ---------------------------------------------------------------

def _canonical_inner_ids(t: Tree) -> dict[int, int]:
    """Relabel inner vertices -1, -2, ... along the canonical traversal."""
    adj = t.adjacency()
    mapping: dict[int, int] = {}

    def visit(v: int, parent: int | None) -> None:
        if v < 0 and v not in mapping:
            mapping[v] = -(len(mapping) + 1)
        kids = sorted((_encode(adj, u, v), u) for u in adj[v] if u != parent)
        for _, u in kids:
            visit(u, v)

    visit(min(t.boundary), None)
    return mapping


def tree_to_json(t: Tree | DoubleTree) -> dict:
    """JSON-ready description with canonical inner ids and sorted edges."""
    if isinstance(t, DoubleTree):
        return {
            "t1": tree_to_json(t.t1),
            "t2": tree_to_json(t.t2),
            "key": canonical_key(t).decode(),
            "plane_embeddings": plane_embedding_count(t),
        }
    relabel = _canonical_inner_ids(t)
    edges = sorted(
        tuple(sorted((relabel.get(a, a), relabel.get(b, b)))) for a, b in t.edges)
    vertices = [{"kind": "boundary", "label": b} for b in t.boundary]
    vertices += [{"kind": "inner", "id": i} for i in sorted(relabel.values(), reverse=True)]
    return {
        "vertices": vertices,
        "edges": [list(e) for e in edges],
        "key": canonical_key(t).decode(),
        "plane_embeddings": plane_embedding_count(t),
    }
