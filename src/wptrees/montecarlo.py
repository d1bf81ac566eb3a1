"""Monte Carlo verification of the polytope volumes.

Conventions, matching the exact engine:

* Only top-dimensional strata are sampled: every inner vertex trivalent and
  all corners non-ideal.  Lower-dimensional polytopes carry no
  (2n-6)-dimensional volume, so they cannot contribute.
* The angle block of an inner vertex is the open simplex
  {phi_i > 0, sum_i phi_i = pi}; in the measure's coordinates (one
  coordinate dropped per simplex) its Lebesgue volume is
  pi^(deg-1)/(deg-1)!.  The per-edge constraints
  phi(forward) + phi(backward) < pi are automatic when one endpoint is a
  boundary vertex (its slots are pinned to 0) and are estimated by rejection
  on edges joining two inner vertices.  Only the angles at the slots of
  those edges are drawn, as fractions of pi, by stick breaking over the
  three slots of a trivalent vertex: one uniform per constrained slot but a
  third, which takes the remainder, so an edge is accepted when its two
  fractions sum below 1.
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
L_i^2 and rounded once; a run evaluates it once per signature.

One seed drives everything: the sampled member at index i in the canonical
order of the ``graph`` family (the lone-vertex pairs first, in the ``htc``
order of their trees, then the ``full`` pairs in ``full`` order) draws from
numpy's default PCG64 generator on child i of ``SeedSequence(seed)``, so a
report depends only on (seed, samples) and not on the worker-thread count.  ``_stream``
builds that generator inside the job, when the job first draws; a member
with no inner-inner edge is exact and builds none.  Draws go in chunks of
``_CHUNK``, small enough that each chunk's arrays stay in cache.  Only the
drawing functions import numpy, so the exact commands, and a ``verify mc``
that samples no member, never load it.  A sampled row is its constant,
computed before any draw, times the fraction of draws that meet every
constraint; ``McReport.unconstrained`` (the ablation) reads the constants
kept on the rows back as exact rows.  No sampled value is squared, so
lengths at which a constant or their sum overflows binary64 are refused,
before any draw, with ``ValueError``, as is an n too large to enumerate.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .algebra import PI2, lsq
from .trees import DoubleTree, Tree, _check_enumeration_size, canonical_key, enumerate_family
from .volumes import _t, ell_integral, v0n_reduced

__all__ = [
    "McReport",
    "polytope_dimension",
    "corner_markings",
    "mc_full_volume",
]

_CHUNK = 1 << 14


# -- dimension formula and its rank-based verification ---------------------

def polytope_dimension(tree: Tree, ideal=None, mode: str = "formula") -> int:
    """Dimension of the half-tight polytope of ``tree``.

    ``ideal`` maps a boundary label to its number of ideal corners (default
    all corners non-ideal); a vertex of degree d has d corners and needs at
    least one non-ideal one.  ``formula`` mode evaluates

        2n - 6 + sum_v (3 - deg(v)) + sum_b (nonid(b) - deg(b)),

    with n = #boundary vertices + 1.  ``rank`` mode recomputes the same
    number as the affine dimension of the equality-constraint system (angle
    slots pinned to 0 at boundary vertices, per-inner-vertex angle sums,
    per-boundary simplex sums) by exact rank computation over the rationals.
    """
    ideal = dict(ideal or {})
    adj = tree.adjacency()
    deg = {v: len(nbrs) for v, nbrs in adj.items()}
    n = len(tree.boundary) + 1
    for b, i in ideal.items():
        if b not in tree.boundary:
            raise ValueError(f"label {b} is not a boundary vertex")
        if not 0 <= i <= deg[b] - 1:
            raise ValueError("each boundary vertex needs a non-ideal corner")

    if mode == "formula":
        return (2 * n - 6 + sum(3 - d for v, d in deg.items() if v < 0)
                - sum(ideal.values()))

    if mode != "rank":
        raise ValueError(f"unknown mode {mode!r}")

    columns: dict = {}

    def col(key) -> int:
        return columns.setdefault(key, len(columns))

    rows: list[dict[int, int]] = []
    for v in sorted(adj):
        for u in adj[v]:
            col(("phi", v, u))
    for b in tree.boundary:
        for u in adj[b]:  # boundary slots pinned to zero
            rows.append({col(("phi", b, u)): 1})
    for v in sorted(v for v in adj if v < 0):  # angle sum per inner vertex
        rows.append({col(("phi", v, u)): 1 for u in adj[v]})
    for b in tree.boundary:
        nonid = deg[b] - ideal.get(b, 0)
        rows.append({col(("w", b, j)): 1 for j in range(deg[b])})
        rows.append({col(("v", b, j)): 1 for j in range(nonid)})
    return len(columns) - _rank(rows, len(columns))


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


def _rank(rows: list[dict[int, int]], ncols: int) -> int:
    matrix = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    rank = 0
    for j in range(ncols):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][j]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][j]
        matrix[rank] = [x * inv for x in matrix[rank]]
        for i in range(len(matrix)):
            if i != rank and matrix[i][j]:
                factor = matrix[i][j]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[rank])]
        rank += 1
    return rank


# -- sampling ---------------------------------------------------------------

def _stream(seed: int, i: int):
    """The PCG64 generator on child ``i`` of ``SeedSequence(seed)``, the
    same stream as ``default_rng(SeedSequence(seed).spawn(count)[i])``."""
    import numpy as np
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))


def _sides(member: DoubleTree) -> list[tuple]:
    """Per tree of ``member``, read from one adjacency: its degrees and a
    (u, slot_u, v, slot_v) per edge with both endpoints inner."""
    out = []
    for t in (member.t1, member.t2):
        adj = t.adjacency()
        out.append(({v: len(nbrs) for v, nbrs in adj.items()},
                    [(a, adj[a].index(b), b, adj[b].index(a))
                     for a, b in sorted(t.edges) if a < 0 and b < 0]))
    return out


def _is_top_dimensional(degrees: dict[int, int]) -> bool:
    return all(d == 3 for v, d in degrees.items() if v < 0)


def _constant(excess: tuple[tuple[int, int], ...], squares: dict) -> float:
    """The volume without Delaunay constraints of a top-dimensional member
    whose boundaries have the sorted (label, excess) pairs ``excess``: its
    exact decomposition-route summand at the bindings ``squares``, rounded
    once."""
    e = dict(excess)
    inner = len(e) - 4 - sum(e.values())  # trivalent, so 2n - 4 - sum deg(b)
    exact = (squares[PI2] ** inner / 16
             * ell_integral(e[1], e[2], "integral").eval_exact(squares))
    for b, k in excess[2:]:
        exact *= _t(k) * squares[lsq(b)] ** k
    return float(exact)


def _sample_angles(constraints, rng, m: int) -> dict:
    """The angles at the constrained slots of trivalent vertices as fractions
    of pi, by stick breaking: {(vertex, slot): fractions}.

    Slots are taken in vertex order, then slot order.  A vertex's first
    constrained slot takes the share 1 - sqrt(U) of the whole stick and its
    second the share 1 - U of what the first left, one ``rng.random(m)``
    draw U per slot; a third takes the remainder and draws nothing.  The
    fractions are the constrained coordinates of a uniform point on the
    angle simplex (Dirichlet(1, 1, 1), exchangeable, so no other coordinate
    need be drawn)."""
    slots: dict[int, set[int]] = {}
    for u, su, v, sv in constraints:
        slots.setdefault(u, set()).add(su)
        slots.setdefault(v, set()).add(sv)
    out = {}
    for v in sorted(slots):
        left = None  # what the earlier slots left; None for the whole stick
        for k, j in enumerate(sorted(slots[v])):
            if k == 2:  # the vertex's last coordinate
                out[v, j] = left
                continue
            keep = rng.random(m)
            if k == 0:
                keep **= 0.5
            out[v, j] = share = 1.0 - keep
            if left is None:
                left = keep
            else:
                share *= left
                left *= keep
    return out


def _estimate(member: DoubleTree, const: float, sampled, samples: int,
              seed: int, i: int) -> dict:
    """The report row of one member: ``const`` times the sampled rate at which
    every side's constraints in ``sampled`` pass, exact if none.  A member
    whose t1 is the lone vertex 1 is reported as its half-tight tree t2.
    A rate of 0 or 1 gets the standard error it would have if one further
    draw had gone the other way, so no sampled row has a zero one."""
    glued = bool(member.t1.edges)
    row = {"key": canonical_key(member if glued else member.t2).decode(),
           "kind": "full" if glued else "half-tight",
           "constant": const}
    if not sampled:
        return row | {"estimate": const, "std_error": 0.0, "exact": True}

    import numpy as np
    rng = _stream(seed, i)
    accepted = 0
    for done in range(0, samples, _CHUNK):
        m = min(_CHUNK, samples - done)
        ok = np.ones(m, bool)
        total, below = np.empty(m), np.empty(m, bool)
        for cons in sampled:
            fractions = _sample_angles(cons, rng, m)
            for u, su, v, sv in cons:
                np.add(fractions[u, su], fractions[v, sv], out=total)
                ok &= np.less(total, 1.0, out=below)
        accepted += np.count_nonzero(ok)
    p = accepted / samples
    if 0 < accepted < samples:
        se = abs(const) * math.sqrt(p * (1.0 - p) / samples)
    else:  # p(1-p)/samples at the rate samples/(samples+1) or its complement
        se = abs(const) / (samples + 1)
    return row | {"estimate": const * p, "std_error": se, "exact": False}


@dataclass
class McReport:
    """A Monte Carlo estimate next to its exact reference.

    ``z_score`` is (estimate - reference) / hypot(std_error, r), where
    r = 64 eps rows (sum |row estimate| + |reference|) bounds the rounding
    of both; when every row is exact it is 0 for agreement to a relative
    1e-9 and infinite otherwise.  A sampled row is never exact, whatever its
    draws.  Each row keeps the member's ``constant``, its volume without the
    Delaunay constraints.
    """

    estimate: float
    std_error: float
    samples: int
    seed: int
    reference: float
    z_score: float
    per_tree: list = field(default_factory=list)

    def unconstrained(self) -> "McReport":
        """The ablation: every row exact at its constant, the volume without
        the Delaunay constraints.  Nothing is enumerated, evaluated or drawn."""
        rows = [row | {"estimate": row["constant"], "std_error": 0.0, "exact": True}
                for row in self.per_tree]
        return _report(rows, self.reference, self.samples, self.seed)


def _zscore(estimate: float, reference: float, exact: bool, std_error: float,
            rounding: float) -> float:
    if not exact:
        return (estimate - reference) / math.hypot(std_error, rounding)
    if math.isclose(estimate, reference, rel_tol=1e-9, abs_tol=1e-12):
        return 0.0
    return math.copysign(math.inf, estimate - reference)


def _bindings(lengths) -> dict:
    out = {PI2: math.pi ** 2}
    for i, length in enumerate(lengths, start=1):
        out[lsq(i)] = float(Fraction(length) ** 2)
    return out


def _check_lengths(n: int, lengths) -> None:
    """Refuse lengths outside the sampler's domain: checked on the exact
    values, then on their binary64 roundings, which the run binds."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if len(lengths) != n:
        raise ValueError(f"need {n} lengths, got {len(lengths)}")
    try:
        exact = [Fraction(v) for v in lengths]
        if any(v <= 0 for v in exact):
            raise ValueError("lengths must be positive")
        if not exact[0] < exact[1]:
            raise ValueError("need L1 < L2")
        L = [float(v) for v in exact]
    except OverflowError:
        raise ValueError("lengths must be below the binary64 maximum") from None
    if any(v <= 0 for v in L):
        raise ValueError("lengths must stay positive when rounded to binary64")
    if not L[0] < L[1]:
        raise ValueError("need L1 < L2 after rounding to binary64")


def _report(rows: list[dict], reference: float, samples: int, seed: int) -> McReport:
    total = math.fsum(r["estimate"] for r in rows)
    se = math.hypot(*(r["std_error"] for r in rows))
    scale = 64 * len(rows) * math.ulp(1.0)
    rounding = scale * math.fsum(abs(r["estimate"]) for r in rows) + scale * abs(reference)
    return McReport(total, se, samples, seed, reference,
                    _zscore(total, reference, all(r["exact"] for r in rows), se,
                            rounding), rows)


def mc_full_volume(n: int, lengths, samples: int, seed: int, threads: int = 1) -> McReport:
    """Estimate V_{0,n}(L) by sampling the top-dimensional members of the
    ``graph`` family in canonical order, one stream each: the half-tight
    trees, as gluings of the lone vertex 1, then the glued pairs.

    The reference is the exact reduced tree sum evaluated at the lengths.
    """
    _check_lengths(n, lengths)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    _check_enumeration_size(n)
    try:
        bindings = _bindings(lengths)
        reference = v0n_reduced(n).eval_float(bindings)
    except OverflowError:
        raise ValueError("the exact reference overflows binary64") from None
    squares = {a: Fraction(v) for a, v in bindings.items()}  # the same, exactly
    constants: dict[tuple, float] = {}  # by (label, excess) signature
    members = []
    # Every row and sum lies between 0 and the sum of the constants, and
    # rounding a constant or summing finite ones raises on overflow.
    try:
        for m in enumerate_family("graph", n):
            sides = _sides(m)
            if all(_is_top_dimensional(d) for d, _ in sides):
                key = tuple(sorted((b, k - 1) for d, _ in sides
                                   for b, k in d.items() if b > 0))
                if key not in constants:
                    constants[key] = _constant(key, squares)
                members.append((m, constants[key],
                                tuple(cons for _, cons in sides if cons)))
        math.fsum(const for _, const, _ in members)
    except OverflowError:
        raise ValueError("the per-tree volumes overflow binary64 at these lengths") from None
    jobs = [partial(_estimate, m, const, sampled, samples, seed, i)
            for i, (m, const, sampled) in enumerate(members)]
    # More workers than jobs or CPUs only cost thread start-ups.
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda f: f(), jobs))
    else:
        rows = [f() for f in jobs]
    return _report(rows, reference, samples, seed)
