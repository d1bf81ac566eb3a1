"""Monte Carlo verification of the polytope volumes.

Only top-dimensional members are sampled.  Their conventions and exact
constants are in :mod:`wptrees.polytope`; a run evaluates one per signature.

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
the law of its *shape* (:func:`wptrees.polytope.member`), the multiset of
the unrooted shapes of its constraint-forest components over both sides:
one stream per shape serves all of its members.  A sampled row is its constant times
its shape's mean weight, and its standard error is |const| sqrt(s^2 / N),
with s^2 the weights' unbiased sample variance over N draws.  The rows of
one shape share their draws, so their errors are fully correlated: the
total's standard error is sqrt(sum over shapes of (sum of the shape's row
errors)^2), not ``hypot`` over rows.  Only fractions and weights, all in
[0, 1], are squared, so the constants are the only values that can
overflow: lengths at which a constant or their sum overflows binary64 are
refused, before any draw, with ``UsageError``, as are an n too large to
enumerate and more than ``DRAW_BUDGET`` draws (samples x sampled shapes).
Every n >= 5 has a sampled shape, so there a samples count above the
budget is refused before the reference and the enumeration.

One seed drives everything: the sampled shape at index i in sorted order of
the shape strings draws from a counter-based SplitMix64 stream keyed by
(seed, i), planned from the shape's first member in the
canonical order of the ``graph`` family (the lone-vertex pairs first, in
the ``htc`` order of their trees, then the ``full`` pairs in ``full``
order), so a report depends only on (seed, samples).  Uniform j of a
stream is mix64(key + (j + 1) gamma) >> 11 times 2^-53, mixed in integers
on numpy ``uint64`` arrays, so the draws are the same bits on every numpy
build and ``numpy.random`` is never loaded.  The shapes are drawn
one after another in the calling thread.  ``_stream`` builds a shape's
stream when the shape is first drawn; a member with no inner-inner edge
is exact and draws nothing.  Draws go in chunks of ``_CHUNK``, small enough
that each chunk's arrays stay in cache.  Each shape allocates its arrays once,
and every chunk works on views of them: per side one ``rng.random`` call
fills the drawn slots, stick breaking runs in place, and the weights and
their squares are summed by ufuncs and ``.sum()``.  Fresh 128 KiB arrays
per chunk would sit at glibc's mmap threshold and be page-faulted anew.
No ``np.dot`` or ``@`` is called, so an OpenBLAS thread pool would serve
nothing, and :func:`wptrees.cli.main` limits OpenBLAS to one thread.
Only the drawing functions import numpy, so the exact commands, and a
``verify mc`` that samples no member, never load it.
The reference and every constant are evaluated exactly at one set of
bindings, ``_squares``: pi^2 and each L_i^2 rounded to binary64 and held as
exact fractions; each result is rounded once into binary64.  A report
(:class:`McReport`) and a side's plan (``_Plan``) are named tuples, so
their fields are read-only.  ``McReport.unconstrained`` (the ablation)
reads the constants kept on the rows back as exact rows.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import UsageError
from .algebra import PI2, expand_orbits, lsq
from .trees import canonical_key, check_enumeration_size, enumerate_family
from .volumes import v0n_reduced

__all__ = ["McReport", "mc_full_volume", "DRAW_BUDGET"]

_CHUNK = 1 << 14
# Draws of one run, samples x sampled shapes, refused above this: 13 to 26
# minutes of drawing at the 6.5e7 to 1.3e8 draws per second measured at
# n = 6 and 5 on 2 vCPU.
DRAW_BUDGET = 10 ** 11


# -- sampling ---------------------------------------------------------------

_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's Weyl increment, 2^64 / golden ratio
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))  # then z ^= z >> 31
_M64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    """SplitMix64's finalizer on a Python int below 2^64."""
    for shift, factor in _MIX:
        z = (z ^ z >> shift) * factor & _M64
    return z ^ z >> 31


def _key(seed: int, i: int) -> int:
    """Output ``i`` of the SplitMix64 stream whose state folds in every
    64-bit limb of ``seed``, low limb first, so seeds s and s + 2^64 differ."""
    state = 0
    while True:
        state = _mix64(((state ^ (seed & _M64)) + _GAMMA) & _M64)
        seed >>= 64
        if not seed:
            return _mix64((state + (i + 1) * _GAMMA) & _M64)


class _SplitMix64:
    """A counter-based SplitMix64 stream: uniform j is
    mix64(key + (j + 1) gamma) >> 11 times 2^-53, in [0, 1)."""

    def __init__(self, key: int):
        self.key, self.drawn, self._steps, self._scratch = key, 0, None, None

    def random(self, size=None, out=None):
        """Fill ``out``, or a new array of ``size``, with the next uniforms
        in C order, mixing in place on ``uint64`` views, which wrap."""
        import numpy as np
        out = np.empty(size) if out is None else out
        n = out.size
        if self._steps is None or len(self._steps) < n:  # (k + 1) gamma, k < n
            self._steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
            self._scratch = np.empty(n, np.uint64)
        z, t = out.view(np.uint64), self._scratch[:n].reshape(out.shape)
        np.add(self._steps[:n].reshape(out.shape),
               np.uint64((self.key + self.drawn * _GAMMA) & _M64), out=z)
        for shift, factor in _MIX:
            np.right_shift(z, np.uint64(shift), out=t)
            z ^= t
            z *= np.uint64(factor)
        np.right_shift(z, np.uint64(31), out=t)
        t ^= z
        t >>= np.uint64(11)
        np.multiply(t, 2.0 ** -53, out=out)
        self.drawn += n
        return out


def _stream(seed: int, i: int) -> _SplitMix64:
    """The stream of the sampled shape at index ``i``, keyed by
    :func:`_key`: SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) on numpy
    arrays, with no ``numpy.random``."""
    return _SplitMix64(_key(seed, i))


class _Plan(namedtuple("_Plan", "slots drawn sticks squares tests")):
    """How one side's constraints are drawn and weighed.

    Row r of the side's fraction buffer holds the angle fraction at the
    (vertex, slot) ``slots[r]``.  The first ``drawn`` rows take one uniform
    each, in vertex order, then slot order; the rest are third slots, which
    take what their vertex's first two left.  ``sticks`` lists each sampled
    vertex's rows in slot order, ``squares`` the rows whose partner is an
    integrated leaf (weight 1 - f^2), in edge order, and ``tests`` the row
    pairs of the edges tested f_a + f_b < 1."""

    __slots__ = ()


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


class McReport(namedtuple("McReport", "estimate std_error samples seed reference "
                                        "z_score per_tree")):
    """A Monte Carlo estimate next to its exact reference.

    ``z_score`` is (estimate - reference) / hypot(std_error, r), where
    r = 64 eps rows (sum |row estimate| + |reference|) bounds the rounding
    of both; when every row is exact it is 0 for agreement to a relative
    1e-9 and infinite otherwise.  A sampled row is never exact, whatever its
    draws.  Each row keeps the member's ``constant``, its volume without the
    Delaunay constraints, and its ``shape``, "" for an exact row.  Two
    reports are equal when every field is.
    """

    __slots__ = ()

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


def _squares(lengths) -> dict:
    """pi^2 and each L_i^2, rounded to binary64 as the run binds them and
    held as exact ``Fraction`` values."""
    out = {PI2: Fraction(math.pi ** 2)}
    for i, length in enumerate(lengths, start=1):
        out[lsq(i)] = Fraction(float(Fraction(length) ** 2))
    return out


def _check_lengths(n: int, lengths) -> None:
    """Refuse lengths outside the sampler's domain: checked on the exact
    values, then on their binary64 roundings, which the run binds."""
    if n < 3:
        raise UsageError(f"need n >= 3, got {n}")
    if len(lengths) != n:
        raise UsageError(f"need {n} lengths, got {len(lengths)}")
    try:
        exact = [Fraction(v) for v in lengths]
        if any(v <= 0 for v in exact):
            raise UsageError("lengths must be positive")
        if not exact[0] < exact[1]:
            raise UsageError("need L1 < L2")
        L = [float(v) for v in exact]
    except OverflowError:
        raise UsageError("lengths must be below the binary64 maximum") from None
    if any(v <= 0 for v in L):
        raise UsageError("lengths must stay positive when rounded to binary64")
    if not L[0] < L[1]:
        raise UsageError("need L1 < L2 after rounding to binary64")


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
    from .polytope import constant, member  # here, so vol, htc, gf and trees never load it
    _check_lengths(n, lengths)
    if samples < 1:
        raise UsageError("samples must be >= 1")
    if seed < 0:
        raise UsageError("seed must be >= 0")
    check_enumeration_size(n)
    if n >= 5 and samples > DRAW_BUDGET:  # every such n has a sampled shape
        raise UsageError(f"sampling is limited to samples x sampled shapes <= {DRAW_BUDGET}, "
                         f"got {samples} samples of at least one shape")
    try:
        squares = _squares(lengths)
        reference = float(expand_orbits(v0n_reduced(n)).eval_exact(squares))  # rounded once
    except OverflowError:
        raise UsageError("the exact reference overflows binary64") from None
    constants: dict[tuple, float] = {}  # by (label, excess) signature
    members = []  # (key, kind, constant, shape): no tree is kept
    firsts: dict[str, tuple] = {}  # shape -> sampled sides of its first member
    # Every row and sum lies between 0 and the sum of the constants, and
    # rounding a constant or summing finite ones raises on overflow.
    try:
        for m in enumerate_family("graph", n):
            if read := member(m):
                key, sampled, shape = read
                if key not in constants:
                    constants[key] = constant(key, squares)
                firsts.setdefault(shape, sampled)
                glued = bool(m.t1.edges)
                members.append((canonical_key(m if glued else m.t2).decode(),
                                "full" if glued else "half-tight", constants[key], shape))
        math.fsum(const for _, _, const, _ in members)
    except OverflowError:
        raise UsageError("the per-tree volumes overflow binary64 at these lengths") from None
    shapes = sorted(s for s in firsts if s)  # "" is the exact members'
    if samples * len(shapes) > DRAW_BUDGET:
        raise UsageError(f"sampling is limited to samples x sampled shapes <= {DRAW_BUDGET}, "
                         f"got {samples} x {len(shapes)} = {samples * len(shapes)}")
    by_shape = {s: _estimate(firsts[s], samples, seed, i) for i, s in enumerate(shapes)}
    rows = [_row(key, kind, const, shape, by_shape.get(shape), samples)
            for key, kind, const, shape in members]
    return _report(rows, reference, samples, seed)
