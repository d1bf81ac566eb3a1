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

The production enumerator grows trees by inserting boundary labels in
ascending order; each insertion applies five local operations (subdivide an
edge, replace an inner vertex, attach to a boundary vertex, attach to an
inner vertex, attach to an edge through a new inner vertex).  Deleting the
largest label and smoothing the result recovers the unique parent, so the
construction is complete and duplicate-free; the enumerator checks this at
run time and raises on a duplicate rather than assuming it.  An independent brute-force enumerator (exhaustive
Pruefer sequences plus degree filtering) serves as the oracle for small n.

Boundary-labeled trees are rigid (no nontrivial automorphisms fixing the
labels), so counting needs no symmetry factors and the number of plane
embeddings of a tree factorizes as prod_v (deg(v) - 1)!.
"""
from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import factorial

__all__ = [
    "Tree",
    "DoubleTree",
    "canonical_key",
    "plane_embedding_count",
    "insert_label",
    "insert_boundary",
    "trees_on",
    "enumerate_family",
    "brute_force_enumerate",
    "validate_tree",
    "tree_to_json",
    "FAMILIES",
    "BRUTE_FORCE_MAX_N",
]

FAMILIES = ("two-three", "graph", "htc", "full")
BRUTE_FORCE_MAX_N = 7


def _norm_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Tree:
    """A boundary-labeled tree; a single boundary vertex has no edges."""

    boundary: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

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

    def vertices(self) -> set[int]:
        out = set(self.boundary)
        for a, b in self.edges:
            out.add(a)
            out.add(b)
        return out

    def inner_ids(self) -> set[int]:
        return {v for v in self.vertices() if v < 0}

    def neighbors(self, v: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def degree(self, v: int) -> int:
        return sum(1 for a, b in self.edges if a == v or b == v)

    def degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in self.vertices()}
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg


@dataclass(frozen=True)
class DoubleTree:
    """An ordered pair of trees with label 1 in t1 and label 2 in t2."""

    t1: Tree
    t2: Tree

    def __post_init__(self):
        if 1 not in self.t1.boundary or 2 not in self.t2.boundary:
            raise ValueError("double tree needs label 1 in t1 and 2 in t2")

    def all_boundary(self) -> tuple[int, ...]:
        return tuple(sorted(self.t1.boundary + self.t2.boundary))

    def component_of(self, label: int) -> Tree:
        return self.t1 if label in self.t1.boundary else self.t2


@lru_cache(maxsize=None)
def canonical_key(t: Tree | DoubleTree) -> bytes:
    """Isomorphism-invariant key; equal iff the labeled graphs are equal."""
    if isinstance(t, DoubleTree):
        return b"D[" + canonical_key(t.t1) + b"|" + canonical_key(t.t2) + b"]"
    return _encode(t, min(t.boundary), None)


def _encode(t: Tree, v: int, parent: int | None) -> bytes:
    """Canonical bytes of the subtree of t at v, seen from ``parent``."""
    kids = sorted(_encode(t, u, v) for u in t.neighbors(v) if u != parent)
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
    verts = t.vertices()
    if len(set(t.boundary)) != len(t.boundary):
        raise ValueError("duplicate boundary labels")
    if len(t.edges) != len(verts) - 1:
        raise ValueError("edge count does not match a tree")
    if len(verts) > 1:
        seen = {next(iter(verts))}
        frontier = list(seen)
        while frontier:
            v = frontier.pop()
            for u in t.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        if seen != verts:
            raise ValueError("tree is not connected")
    deg = t.degrees()
    for v in t.inner_ids():
        if deg[v] < 3:
            raise ValueError(f"inner vertex of degree {deg[v]} < 3")
    inner_bound = len(t.boundary) - 2
    if len(t.inner_ids()) > max(0, inner_bound):
        raise ValueError("too many inner vertices")


# -- constructive enumeration by label insertion ------------------------

def _fresh_inner(t: Tree) -> int:
    inner = t.inner_ids()
    return (min(inner) - 1) if inner else -1


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
    children: list[Tree] = []

    for e in t.edges:  # (1)
        a, b = e
        edges = (t.edges - {e}) | {_norm_edge(a, label), _norm_edge(label, b)}
        children.append(Tree.make(new_boundary, edges))

    for w in t.inner_ids():  # (2)
        edges = frozenset(
            _norm_edge(label if a == w else a, label if b == w else b)
            for a, b in t.edges)
        children.append(Tree.make(new_boundary, edges))

    for b in t.boundary:  # (3)
        children.append(Tree.make(new_boundary, t.edges | {_norm_edge(b, label)}))

    for v in t.inner_ids():  # (4)
        children.append(Tree.make(new_boundary, t.edges | {_norm_edge(v, label)}))

    for e in t.edges:  # (5)
        a, b = e
        w = _fresh_inner(t)
        edges = (t.edges - {e}) | {_norm_edge(a, w), _norm_edge(w, b),
                                   _norm_edge(w, label)}
        children.append(Tree.make(new_boundary, edges))

    keys = [canonical_key(c) for c in children]
    if len(set(keys)) != len(keys):
        raise RuntimeError("insertion produced duplicates")
    return children


def insert_boundary(d: DoubleTree) -> list[DoubleTree]:
    """All children of a double tree under insertion of the next label."""
    label = max(d.all_boundary()) + 1
    out = [DoubleTree(t1c, d.t2) for t1c in insert_label(d.t1, label)]
    out += [DoubleTree(d.t1, t2c) for t2c in insert_label(d.t2, label)]
    return out


@lru_cache(maxsize=None)
def trees_on(labels: tuple[int, ...]) -> tuple[Tree, ...]:
    """All trees with the given boundary labels, sorted by canonical key."""
    labels = tuple(sorted(labels))
    if not labels:
        raise ValueError("need at least one boundary label")
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


@lru_cache(maxsize=None)
def enumerate_family(family: str, n: int) -> tuple:
    """Complete duplicate-free enumeration, sorted by canonical key."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")

    if family == "htc":
        return trees_on(tuple(range(2, n + 1)))

    if family == "full":
        out: dict[bytes, DoubleTree] = {}
        rest = list(range(3, n + 1))
        for r in range(len(rest) + 1):
            for picked in combinations(rest, r):
                s1 = (1,) + picked
                s2 = (2,) + tuple(x for x in rest if x not in picked)
                if len(s1) < 2 or len(s2) < 2:
                    continue
                for t1 in trees_on(s1):
                    for t2 in trees_on(s2):
                        d = DoubleTree(t1, t2)
                        out[canonical_key(d)] = d
        return tuple(d for _, d in sorted(out.items()))

    if family == "graph":
        out = {}
        for t2 in trees_on(tuple(range(2, n + 1))):
            d = DoubleTree(Tree.single(1), t2)
            out[canonical_key(d)] = d
        for d in enumerate_family("full", n):
            key = canonical_key(d)
            if key in out:
                raise RuntimeError("graph family components overlap")
            out[key] = d
        return tuple(d for _, d in sorted(out.items()))

    # two-three: grown by boundary insertion from its single n = 3 element.
    seed = DoubleTree(Tree.single(1), Tree.edge(2, 3))
    current = {canonical_key(seed): seed}
    for _ in range(4, n + 1):
        grown: dict[bytes, DoubleTree] = {}
        for d in current.values():
            for child in insert_boundary(d):
                key = canonical_key(child)
                if key in grown:
                    raise RuntimeError("insertion collided across parents")
                grown[key] = child
        current = grown
    return tuple(d for _, d in sorted(current.items()))


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


def _brute_trees_on(labels: tuple[int, ...]) -> dict[bytes, Tree]:
    labels = tuple(sorted(labels))
    if len(labels) == 1:
        t = Tree.single(labels[0])
        return {canonical_key(t): t}
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
    return found


def brute_force_enumerate(family: str, n: int) -> tuple:
    """Exhaustive oracle enumeration; independent of the insertion scheme."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is limited to n <= {BRUTE_FORCE_MAX_N}")

    if family == "htc":
        found = _brute_trees_on(tuple(range(2, n + 1)))
        return tuple(t for _, t in sorted(found.items()))

    def doubles(require_3_in_t2: bool, allow_isolated: bool) -> dict[bytes, DoubleTree]:
        out: dict[bytes, DoubleTree] = {}
        if allow_isolated:
            for t2 in _brute_trees_on(tuple(range(2, n + 1))).values():
                d = DoubleTree(Tree.single(1), t2)
                out[canonical_key(d)] = d
        rest = list(range(3, n + 1))
        for r in range(len(rest) + 1):
            for picked in combinations(rest, r):
                s1 = (1,) + picked
                s2 = (2,) + tuple(x for x in rest if x not in picked)
                if len(s1) < 2 or len(s2) < 2:
                    continue
                if require_3_in_t2 and 3 in picked:
                    continue
                for t1 in _brute_trees_on(s1).values():
                    for t2 in _brute_trees_on(s2).values():
                        d = DoubleTree(t1, t2)
                        out[canonical_key(d)] = d
        return out

    if family == "full":
        found = doubles(require_3_in_t2=False, allow_isolated=False)
    elif family == "graph":
        found = doubles(require_3_in_t2=False, allow_isolated=True)
    else:  # two-three
        found = doubles(require_3_in_t2=True, allow_isolated=True)
    return tuple(d for _, d in sorted(found.items()))


# -- export ---------------------------------------------------------------

def _canonical_inner_ids(t: Tree) -> dict[int, int]:
    """Relabel inner vertices -1, -2, ... along the canonical traversal."""
    mapping: dict[int, int] = {}

    def visit(v: int, parent: int | None) -> None:
        if v < 0 and v not in mapping:
            mapping[v] = -(len(mapping) + 1)
        kids = sorted((_encode(t, u, v), u) for u in t.neighbors(v) if u != parent)
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
