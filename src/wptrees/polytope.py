"""Exact geometry of the polytopes behind the tree sums, free of numpy.

The tree bijection sends each half-tight tree, and each glued pair of
trees, to a polytope of angles and simplices.  Here are its dimension by
formula (:func:`polytope_dimension`; :mod:`wptrees.checks` counts its
coordinates against it), a tree's part (:func:`side`), a member's reading
of its two (:func:`member`) and its volume without the Delaunay
constraints (:func:`constant`); :mod:`wptrees.montecarlo` samples the
constraints.  Conventions:

* Only top-dimensional strata enter the volumes: every inner vertex
  trivalent and all corners non-ideal.  Lower-dimensional polytopes carry
  no (2n-6)-dimensional volume, so they cannot contribute.
* The angle block of an inner vertex is the open simplex
  {phi_i > 0, sum_i phi_i = pi}; in the measure's coordinates (one
  coordinate dropped per simplex) its Lebesgue volume is
  pi^(deg-1)/(deg-1)!.  The per-edge constraints
  phi(forward) + phi(backward) < pi are automatic when one endpoint is a
  boundary vertex (its slots are pinned to 0) and bind on edges joining
  two inner vertices, where, as fractions of pi, the two angles must sum
  below 1.
* A boundary vertex of degree d carries two simplices of dimension d-1 and
  volume size^(d-1)/(d-1)! each.  Sizes: L_b/2 twice for an ordinary
  boundary; (L2-L1)/2 and (L2+L1)/2 for boundary 2 of a half-tight tree;
  (L_i-l)/2 and (L_i+l)/2 for boundaries 1 and 2 of a glued pair at gluing
  length l.
* The half-tight measure is 2^(n-3) times Lebesgue.  The glued measure is
  2^(n-4) dl dtau times Lebesgue.  Neither the twist tau nor the gluing
  length l enters an angle, so both are integrated exactly; the fiber of
  tau has length l.
* A combinatorial tree enters with its plane-embedding count
  prod_v (deg(v) - 1)! as an integer multiplicity, since the polytope only
  depends on the combinatorial tree.

These factors make a member's constant, its volume without the Delaunay
constraints, its summand in the decomposition route of
:mod:`wptrees.volumes` with every gamma_2 = pi^2.  With e_b = deg(b) - 1,
a vertex's embedding count e_b! (2 at a trivalent inner vertex) cancels
against its simplex normalisations:

    boundary b           e_b! ((L_b/2)^e_b / e_b!)^2 = t_{e_b}(L_b) / 2
    half-tight b = 2     e_b! ((L2^2 - L1^2)/4)^e_b / e_b!^2
                             = ttilde_{e_b}(L2, L1) / 2
    glued b = 1, 2       ttilde_{e_b}(L_b, l) / 2
    inner vertex         2 * pi^2/2 = pi^2

The half-tight tree has n - 1 boundaries, so 2^(n-3) / 2^(n-1) = 1/4 and
its constant is ttilde_{e_2}(L2, L1) / 4 times the rest, which is
ell_integral(-1, e_2) / 16: boundary 1 is the lone vertex, of degree 0 and
so of excess -1, as in :func:`wptrees.volumes.htc_volume`, and the
half-tight tree is sampled as the glued pair (lone vertex 1, tree).  The
glued pair of two trees has n boundaries,
so 2^(n-4) / 2^n = 1/16 times int l dl ttilde_{e_1}(L1, l) ttilde_{e_2}(L2, l)
= ell_integral(e_1, e_2) / 16.  Either way, with j trivalent inner vertices,

    const = (pi^2)^j / 16 * ell_integral(e_1, e_2) * prod_{b>2} t_{e_b}(L_b),

a function of the boundaries' (label, excess) pairs alone.  It is
evaluated exactly at the reference's binary64 bindings of pi^2 and the
L_i^2 and rounded once.
"""
from __future__ import annotations

from .algebra import PI2
from .trees import Tree
from .volumes import ell_integral, weight_t

__all__ = ["polytope_dimension", "corner_markings", "side", "member", "constant"]


# -- dimension formula ------------------------------------------------------

def polytope_dimension(tree: Tree, ideal=None) -> int:
    """Dimension of the half-tight polytope of ``tree``:

        2n - 6 + sum_v (3 - deg(v)) + sum_b (nonid(b) - deg(b)),

    with n = #boundary vertices + 1.  ``ideal`` maps a boundary label to
    its number of ideal corners (default all corners non-ideal); a vertex
    of degree d has d corners and needs at least one non-ideal one.
    """
    ideal = dict(ideal or {})
    deg = tree.degrees()
    n = len(tree.boundary) + 1
    for b, i in ideal.items():
        if b not in tree.boundary:
            raise ValueError(f"label {b} is not a boundary vertex")
        if not 0 <= i <= deg[b] - 1:
            raise ValueError("each boundary vertex needs a non-ideal corner")
    return (2 * n - 6 + sum(3 - d for v, d in deg.items() if v < 0)
            - sum(ideal.values()))


def corner_markings(tree: Tree, max_ideal: int):
    """All ideal-corner count assignments with at most ``max_ideal`` ideal
    corners in total (each boundary vertex keeps a non-ideal corner)."""
    labels = list(tree.boundary)
    deg = tree.degrees()

    def rec(i: int, budget: int, acc: dict):
        if i == len(labels):
            yield dict(acc)
            return
        b = labels[i]
        for ideal in range(min(budget, deg[b] - 1) + 1):
            if ideal:
                acc[b] = ideal
            yield from rec(i + 1, budget - ideal, acc)
            acc.pop(b, None)

    yield from rec(0, max_ideal, {})


def side(tree: Tree) -> tuple | None:
    """``tree``'s part of a member's polytope, from one adjacency: None
    unless every inner vertex is trivalent, else its boundaries' (label,
    deg - 1) pairs, a (u, slot_u, v, slot_v) per inner-inner edge (slots
    index ascending neighbours) and the least :func:`_code` over all
    rootings of each constraint-forest component, equal iff isomorphic."""
    adj = tree.adjacency()
    if any(len(nbrs) != 3 for v, nbrs in adj.items() if v < 0):
        return None
    constraints = tuple((a, adj[a].index(b), b, adj[b].index(a))
                        for a, b in sorted(tree.edges) if a < 0 and b < 0)
    codes, seen = [], set()
    for root, _, _, _ in constraints:
        if root not in seen:
            component = [root]
            for v in component:  # grows while it is read
                component.extend(u for u in adj[v] if u < 0 and u not in component)
            seen.update(component)
            codes.append(min(_code(adj, v, None) for v in component))
    return tuple((b, len(adj[b]) - 1) for b in tree.boundary), constraints, tuple(codes)


def member(pair) -> tuple | None:
    """None unless both trees of a glued ``pair`` are top-dimensional, else its
    sorted (label, excess) pairs, the constraints of each :func:`side` that
    has any, and its *shape*: both sides' codes, sorted and joined by spaces."""
    sides = side(pair.t1), side(pair.t2)
    if None not in sides:
        (e1, c1, k1), (e2, c2, k2) = sides
        return tuple(sorted(e1 + e2)), tuple(c for c in (c1, c2) if c), " ".join(sorted(k1 + k2))


def _code(adj: dict[int, list[int]], v: int, parent: int | None) -> str:
    """The AHU code of the subtree at inner vertex v of the inner-inner
    forest, seen from ``parent``: "(", its children's codes in sorted
    order, ")"."""
    return "(" + "".join(sorted(_code(adj, u, v) for u in adj[v] if u < 0 and u != parent)) + ")"


def constant(excess: tuple[tuple[int, int], ...], squares: dict) -> float:
    """The exact decomposition-route summand, at the bindings ``squares``
    and rounded once, of a top-dimensional member whose boundaries have the
    sorted (label, excess) pairs ``excess``."""
    e = dict(excess)
    inner = len(e) - 4 - sum(e.values())  # trivalent, so 2n - 4 - sum deg(b)
    exact = (squares[PI2] ** inner / 16
             * ell_integral(e[1], e[2], "integral").eval_exact(squares))
    for b, k in excess[2:]:
        exact *= weight_t(k, b).eval_exact(squares)
    return float(exact)
