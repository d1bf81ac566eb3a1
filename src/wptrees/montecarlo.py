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
  boundary vertex (its slots are pinned to 0) and are estimated on edges
  joining two inner vertices, where, as fractions of pi, the two angles
  must sum below 1.
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

The Delaunay acceptance is estimated by conditional Monte Carlo.  The
three angle fractions of a trivalent vertex are Dirichlet(1, 1, 1), so
each is Beta(1, 2), with P(X < x) = 1 - (1 - x)^2.  In one side's forest of
inner-inner edges, a *leaf* is an inner vertex with one constrained slot.
Its fraction X is independent of every other constrained fraction, so,
given its partner's fraction f, its edge passes with probability
P(X < 1 - f) = 1 - f^2.  A leaf is therefore never drawn: each draw gets
the weight

    w = prod_{leaf edges} (1 - f^2) * prod_{other edges} [f_a + f_b < 1],

with f the fraction at the leaf's partner.  An isolated edge has two
leaves; it integrates its v end and samples its u end.  The drawn slots are
those of the vertices that are no leaf and of those u ends, taken by stick
breaking: one uniform per slot but a vertex's third, which takes the
remainder.  Those fractions are exchangeable, so a member's weight has
the law of its *shape*, the multiset of the unrooted shapes of its
constraint-forest components over both sides (:func:`_shape`): one stream
per shape serves all of its members.  A sampled row is its constant times
its shape's mean weight, and its standard error is |const| sqrt(s^2 / N),
with s^2 the weights' unbiased sample variance over N draws.  The rows of
one shape share their draws, so their errors are fully correlated: the
total's standard error is sqrt(sum over shapes of (sum of the shape's row
errors)^2), not ``hypot`` over rows.  Only fractions and weights, all in
[0, 1], are squared, so the constants are the only values that can
overflow: lengths at which a constant or their sum overflows binary64 are
refused, before any draw, with ``ValueError``, as are an n too large to
enumerate and more than ``DRAW_BUDGET`` draws (samples x sampled shapes).
Every n >= 5 has a sampled shape, so there a samples count above the
budget is refused before the reference and the enumeration.

One seed drives everything: the sampled shape at index i in sorted order of
the shape strings draws from numpy's default PCG64 generator on child i of
``SeedSequence(seed)``, planned from the shape's first member in the
canonical order of the ``graph`` family (the lone-vertex pairs first, in
the ``htc`` order of their trees, then the ``full`` pairs in ``full``
order), so a report depends only on (seed, samples).  The shapes are drawn
one after another in the calling thread.  ``_stream`` builds a shape's
generator when its job first draws; a member with no inner-inner edge is
exact and draws nothing.  Members are kept as (key, kind, constant,
shape), not as trees.  Draws go in chunks of ``_CHUNK``, small enough that
each chunk's arrays stay in cache.  Each job allocates its arrays once,
and every chunk works on views of them: per side one ``rng.random`` call
fills the drawn slots, stick breaking runs in place, and the weights and
their squares are summed by ufuncs and ``.sum()``.  Fresh 128 KiB arrays
per chunk would sit at glibc's mmap threshold and be page-faulted anew.
No ``np.dot`` or ``@`` is called, so an OpenBLAS thread pool would serve
nothing, and :func:`wptrees.cli.main` limits OpenBLAS to one thread.
Only the drawing functions import numpy, so the exact commands, and a
``verify mc`` that samples no member, never load it.
``McReport.unconstrained`` (the ablation) reads the constants kept on the
rows back as exact rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import PI2, lsq
from .trees import DoubleTree, Tree, _check_enumeration_size, canonical_key, enumerate_family
from .volumes import _t, ell_integral, v0n_reduced

__all__ = [
    "McReport",
    "polytope_dimension",
    "corner_markings",
    "mc_full_volume",
    "DRAW_BUDGET",
]

_CHUNK = 1 << 14
# Draws of one run, samples x sampled shapes, refused above this: 17 to 25
# minutes of drawing at the 7e7 to 1e8 draws per second measured at n = 5
# and 6 on 2 vCPU.
DRAW_BUDGET = 10 ** 11


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


class _Plan:
    """How one side's constraints are drawn and weighed.

    Row r of the side's fraction buffer holds the angle fraction at the
    (vertex, slot) ``slots[r]``.  The first ``drawn`` rows take one uniform
    each, in vertex order, then slot order; the rest are third slots, which
    take what their vertex's first two left.  ``sticks`` lists each sampled
    vertex's rows in slot order, ``squares`` the rows whose partner is an
    integrated leaf (weight 1 - f^2), in edge order, and ``tests`` the row
    pairs of the edges tested f_a + f_b < 1.  A plain class: a dataclass
    would add a millisecond to every command's import."""

    __slots__ = ("slots", "drawn", "sticks", "squares", "tests")

    def __init__(self, slots: tuple, drawn: int, sticks: tuple, squares: tuple,
                 tests: tuple):
        self.slots, self.drawn, self.sticks = slots, drawn, sticks
        self.squares, self.tests = squares, tests


def _plan(constraints) -> _Plan:
    """The plan of one side's (u, slot_u, v, slot_v) constraints: a leaf
    (a vertex with one constrained slot) is integrated, so its partner's
    slot enters ``squares``; an isolated edge samples its u end; every
    other edge is tested."""
    slots: dict[int, list[int]] = {}
    for u, su, v, sv in constraints:
        slots.setdefault(u, []).append(su)
        slots.setdefault(v, []).append(sv)
    leaves = {v for v, own in slots.items() if len(own) == 1}
    sampled = {v: sorted(own) for v, own in slots.items() if v not in leaves}
    for u, su, v, sv in constraints:
        if u in leaves and v in leaves:  # an isolated edge samples its u end
            sampled[u] = [su]
    order = sorted(sampled)
    drawn = [(v, j) for v in order for j in sampled[v][:2]]
    keys = drawn + [(v, sampled[v][2]) for v in order if len(sampled[v]) == 3]
    row = {key: r for r, key in enumerate(keys)}
    squares, tests = [], []
    for u, su, v, sv in constraints:
        if v in leaves:
            squares.append(row[u, su])
        elif u in leaves:
            squares.append(row[v, sv])
        else:
            tests.append((row[u, su], row[v, sv]))
    return _Plan(tuple(keys), len(drawn),
                 tuple(tuple(row[v, j] for j in sampled[v]) for v in order),
                 tuple(squares), tuple(tests))


def _sample_angles(plan: _Plan, rng, fractions) -> None:
    """Fill ``fractions``, one row per slot of ``plan``, with the angles at
    those slots as fractions of pi, in place, by stick breaking.

    One ``rng.random`` call fills the drawn rows.  A vertex's first slot
    takes the share 1 - sqrt(U) of the whole stick, its second the share
    1 - U of what the first left, and a third the remainder.  These are the
    sampled coordinates of a uniform point on the angle simplex
    (Dirichlet(1, 1, 1), exchangeable, so no other coordinate need be
    drawn)."""
    import numpy as np
    rng.random(out=fractions[:plan.drawn])
    for rows in plan.sticks:
        first = fractions[rows[0]]
        np.sqrt(first, out=first)  # what the first slot leaves
        if len(rows) > 1:
            second = fractions[rows[1]]
            if len(rows) == 3:
                np.multiply(first, second, out=fractions[rows[2]])
            np.subtract(1.0, second, out=second)
            second *= first
        np.subtract(1.0, first, out=first)


def _weigh(plan: _Plan, fractions, weight, scratch, mask) -> None:
    """Multiply into ``weight`` the side's factors: 1 - f^2 per integrated
    leaf, in edge order, then 0 where a tested edge fails."""
    import numpy as np
    for r in plan.squares:
        np.multiply(fractions[r], fractions[r], out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        weight *= scratch
    for a, b in plan.tests:
        np.add(fractions[a], fractions[b], out=scratch)
        np.copyto(weight, 0.0, where=np.greater_equal(scratch, 1.0, out=mask))


def _code(adj: dict[int, list[int]], v: int, parent: int | None) -> str:
    """The AHU code of the subtree at v, seen from ``parent``: "(", its
    children's codes in sorted order, ")"."""
    return "(" + "".join(sorted(_code(adj, u, v) for u in adj[v] if u != parent)) + ")"


def _shape(sampled) -> str:
    """The label- and slot-free shape of a member's sampled sides: the
    sorted codes of all their constraint-forest components, joined by
    spaces, "" if there are none.  A component's code is its least
    :func:`_code` over all rootings, so equal codes mean isomorphic trees.
    The angles at a trivalent vertex are exchangeable, so a member's
    weight has the law of its shape's."""
    codes = []
    for constraints in sampled:
        adj: dict[int, list[int]] = {}
        for u, _, v, _ in constraints:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        seen: set[int] = set()
        for root in adj:
            if root not in seen:
                component = [root]
                for v in component:  # grows while it is read
                    component.extend(u for u in adj[v] if u not in component)
                seen.update(component)
                codes.append(min(_code(adj, v, None) for v in component))
    return " ".join(sorted(codes))


def _estimate(sampled, samples: int, seed: int, i: int) -> tuple[float, float]:
    """Sum w and sum w^2 over ``samples`` draws of the weight under every
    side's constraints in ``sampled``, from the stream on child ``i``."""
    import numpy as np
    plans = [_plan(cons) for cons in sampled]
    rng = _stream(seed, i)
    size = min(_CHUNK, samples)
    buffers = [np.empty(len(plan.slots) * size) for plan in plans]
    weights, scratches, masks = np.empty(size), np.empty(size), np.empty(size, bool)
    total = squares = 0.0
    for done in range(0, samples, size):
        m = min(size, samples - done)
        weight, scratch, mask = weights[:m], scratches[:m], masks[:m]
        weight.fill(1.0)
        for plan, buffer in zip(plans, buffers):
            fractions = buffer[:len(plan.slots) * m].reshape(-1, m)
            _sample_angles(plan, rng, fractions)
            _weigh(plan, fractions, weight, scratch, mask)
        total += float(weight.sum())
        np.multiply(weight, weight, out=scratch)
        squares += float(scratch.sum())
    return total, squares


def _row(key: str, kind: str, const: float, shape: str, sums, samples: int) -> dict:
    """The report row of one member: exact at ``const`` if its ``shape`` is
    "", else ``const`` times its shape's mean weight, from the weight sums
    ``sums``.  The standard error is |const| sqrt(s^2 / samples), with s^2
    the weights' unbiased sample variance; where s^2 is 0 or undefined (one
    draw) it is |const| / (samples + 1), so no sampled row has a zero one."""
    row = {"key": key, "kind": kind, "constant": const, "shape": shape}
    if not shape:
        return row | {"estimate": const, "std_error": 0.0, "exact": True}
    total, squares = sums
    var = (squares - total * total / samples) / (samples - 1) if samples > 1 else 0.0
    if var > 0.0:
        se = abs(const) * math.sqrt(var / samples)
    else:
        se = abs(const) / (samples + 1)
    return row | {"estimate": const * (total / samples), "std_error": se, "exact": False}


@dataclass
class McReport:
    """A Monte Carlo estimate next to its exact reference.

    ``z_score`` is (estimate - reference) / hypot(std_error, r), where
    r = 64 eps rows (sum |row estimate| + |reference|) bounds the rounding
    of both; when every row is exact it is 0 for agreement to a relative
    1e-9 and infinite otherwise.  A sampled row is never exact, whatever its
    draws.  Each row keeps the member's ``constant``, its volume without the
    Delaunay constraints, and its ``shape``, "" for an exact row.
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
    # The rows of one shape share their draws, so their errors add; shapes
    # draw from independent streams, so theirs add in quadrature.
    by_shape: dict[str, float] = {}
    for r in rows:
        by_shape[r["shape"]] = by_shape.get(r["shape"], 0.0) + r["std_error"]
    se = math.hypot(*by_shape.values())
    scale = 64 * len(rows) * math.ulp(1.0)
    rounding = scale * math.fsum(abs(r["estimate"]) for r in rows) + scale * abs(reference)
    return McReport(total, se, samples, seed, reference,
                    _zscore(total, reference, all(r["exact"] for r in rows), se,
                            rounding), rows)


def mc_full_volume(n: int, lengths, samples: int, seed: int) -> McReport:
    """Estimate V_{0,n}(L) over the top-dimensional members of the ``graph``
    family in canonical order, one stream per sampled shape: the half-tight
    trees, as gluings of the lone vertex 1, then the glued pairs.

    The reference is the exact reduced tree sum evaluated at the lengths.
    """
    _check_lengths(n, lengths)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    _check_enumeration_size(n)
    if n >= 5 and samples > DRAW_BUDGET:  # every such n has a sampled shape
        raise ValueError(f"sampling is limited to samples x sampled shapes <= {DRAW_BUDGET}, "
                         f"got {samples} samples of at least one shape")
    try:
        bindings = _bindings(lengths)
        reference = v0n_reduced(n).eval_float(bindings)
    except OverflowError:
        raise ValueError("the exact reference overflows binary64") from None
    squares = {a: Fraction(v) for a, v in bindings.items()}  # the same, exactly
    constants: dict[tuple, float] = {}  # by (label, excess) signature
    members = []  # (key, kind, constant, shape): no tree is kept
    firsts: dict[str, tuple] = {}  # shape -> sampled sides of its first member
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
                sampled = tuple(cons for _, cons in sides if cons)
                shape = _shape(sampled)
                if shape:
                    firsts.setdefault(shape, sampled)
                glued = bool(m.t1.edges)
                members.append((canonical_key(m if glued else m.t2).decode(),
                                "full" if glued else "half-tight", constants[key], shape))
        math.fsum(const for _, _, const, _ in members)
    except OverflowError:
        raise ValueError("the per-tree volumes overflow binary64 at these lengths") from None
    shapes = sorted(firsts)
    if samples * len(shapes) > DRAW_BUDGET:
        raise ValueError(f"sampling is limited to samples x sampled shapes <= {DRAW_BUDGET}, "
                         f"got {samples} x {len(shapes)} = {samples * len(shapes)}")
    by_shape = {s: _estimate(firsts[s], samples, seed, i) for i, s in enumerate(shapes)}
    rows = [_row(key, kind, const, shape, by_shape.get(shape), samples)
            for key, kind, const, shape in members]
    return _report(rows, reference, samples, seed)
