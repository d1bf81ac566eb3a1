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
  on edges joining two inner vertices.
* A boundary vertex of degree d carries two simplices of dimension d-1 and
  volume size^(d-1)/(d-1)! each.  Sizes: L_b/2 twice for an ordinary
  boundary; (L2-L1)/2 and (L2+L1)/2 for boundary 2 of a half-tight tree;
  (L_i-l)/2 and (L_i+l)/2 for boundaries 1 and 2 of a glued pair at gluing
  length l.
* The half-tight measure is 2^(n-3) times Lebesgue.  The glued measure is
  2^(n-4) dl dtau times Lebesgue; the twist tau is integrated exactly (its
  fiber has length l) and l is sampled uniformly on (0, min(L1, L2)), giving
  the unbiased weight min(L1, L2) * l per sample.
* A combinatorial tree enters with its plane-embedding count as an integer
  multiplicity, since the polytope only depends on the combinatorial tree.

One seed drives everything: the sampled tree at index i in canonical tree
order (half-tight trees first, then glued pairs) draws from a counter-based
Philox generator on child i of ``SeedSequence(seed)``, so a report depends
only on (seed, samples) and not on the worker-thread count.  ``_stream``
builds that generator inside the job, when the job first draws; a tree whose
volume is exact builds none.  Only it and the glued estimator import numpy,
so the exact commands never load it.  Chunk sums use numpy's pairwise
summation; cross-chunk accumulation uses math.fsum.  Lengths at which a
sampled value, its square or a sum of squares overflows binary64 are
refused with ``ValueError``.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import factorial

from .algebra import PI2, lsq
from .trees import DoubleTree, Tree, canonical_key, enumerate_family, plane_embedding_count
from .volumes import htc_volume, v0n_reduced

__all__ = [
    "McReport",
    "polytope_dimension",
    "corner_markings",
    "mc_htc_volume",
    "mc_full_volume",
]

_CHUNK = 1 << 17


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
    deg = tree.degrees()
    n = len(tree.boundary) + 1
    for b, i in ideal.items():
        if b not in tree.boundary:
            raise ValueError(f"label {b} is not a boundary vertex")
        if not 0 <= i <= deg[b] - 1:
            raise ValueError("each boundary vertex needs a non-ideal corner")

    if mode == "formula":
        value = 2 * n - 6
        for v in tree.inner_ids():
            value += 3 - deg[v]
        value -= sum(ideal.values())
        return value

    if mode != "rank":
        raise ValueError(f"unknown mode {mode!r}")

    columns: dict = {}

    def col(key) -> int:
        return columns.setdefault(key, len(columns))

    rows: list[dict[int, int]] = []
    for v in sorted(tree.vertices()):
        for u in tree.neighbors(v):
            col(("phi", v, u))
    for b in tree.boundary:
        for u in tree.neighbors(b):  # boundary slots pinned to zero
            rows.append({col(("phi", b, u)): 1})
    for v in sorted(tree.inner_ids()):  # angle sum per inner vertex
        rows.append({col(("phi", v, u)): 1 for u in tree.neighbors(v)})
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
    """The Philox generator on child ``i`` of ``SeedSequence(seed)``, the
    same stream as ``SeedSequence(seed).spawn(count)[i]``."""
    import numpy as np
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))))


def _chunks(samples: int):
    """Draw counts of at most ``_CHUNK`` that add up to ``samples``."""
    return (min(_CHUNK, samples - done) for done in range(0, samples, _CHUNK))


def _is_top_dimensional(t: Tree | DoubleTree) -> bool:
    if isinstance(t, DoubleTree):
        return _is_top_dimensional(t.t1) and _is_top_dimensional(t.t2)
    deg = t.degrees()
    return all(deg[v] == 3 for v in t.inner_ids())


def _inner_edge_constraints(t: Tree) -> list[tuple[int, int, int, int]]:
    """(u, slot_u, v, slot_v) per edge with both endpoints inner."""
    out = []
    for a, b in sorted(t.edges):
        if a < 0 and b < 0:
            out.append((a, t.neighbors(a).index(b), b, t.neighbors(b).index(a)))
    return out


def _simplex_volume(size, dim: int):
    """Lebesgue volume of the size-``size`` simplex on ``dim`` coordinates."""
    if dim == 1:
        return size ** 0  # scalar 1 or an array of ones
    return size ** (dim - 1) / factorial(dim - 1)


def _angle_constant(t: Tree) -> float:
    deg = t.degrees()
    out = 1.0
    for v in t.inner_ids():
        out *= math.pi ** (deg[v] - 1) / factorial(deg[v] - 1)
    return out


def _acceptance_mask(constraints, angles_by_vertex):
    acc = None
    for u, su, v, sv in constraints:
        ok = angles_by_vertex[u][:, su] + angles_by_vertex[v][:, sv] < math.pi
        acc = ok if acc is None else (acc & ok)
    return acc


def _sample_angles(t: Tree, constraints, rng, m: int):
    """Uniform simplex points via normalized exponential spacings."""
    deg = t.degrees()
    needed = sorted({u for u, _, _, _ in constraints} | {v for _, _, v, _ in constraints})
    out = {}
    for v in needed:
        g = rng.exponential(size=(m, deg[v]))
        out[v] = math.pi * g / g.sum(axis=1, keepdims=True)
    return out


def _htc_tree_estimate(tree: Tree, n: int, L: dict[int, float], samples: int,
                       stream, delaunay: bool) -> dict:
    deg = tree.degrees()
    const = float(plane_embedding_count(tree)) * 2.0 ** (n - 3)
    for b in tree.boundary:
        d = deg[b]
        if b == 2:
            const *= _simplex_volume((L[2] - L[1]) / 2.0, d)
            const *= _simplex_volume((L[2] + L[1]) / 2.0, d)
        else:
            const *= _simplex_volume(L[b] / 2.0, d) ** 2
    const *= _angle_constant(tree)
    constraints = _inner_edge_constraints(tree)
    row = {"key": canonical_key(tree).decode(), "kind": "half-tight"}
    if not constraints or not delaunay:
        return row | {"estimate": const, "std_error": 0.0, "exact": True}

    rng = stream()
    accepted = 0
    for m in _chunks(samples):
        angles = _sample_angles(tree, constraints, rng, m)
        accepted += int(_acceptance_mask(constraints, angles).sum())
    p = accepted / samples
    se = abs(const) * math.sqrt(p * (1.0 - p) / samples)
    return row | {"estimate": const * p, "std_error": se, "exact": False}


def _full_tree_estimate(dt: DoubleTree, n: int, L: dict[int, float],
                        samples: int, stream, delaunay: bool) -> dict:
    import numpy as np
    lmax = min(L[1], L[2])
    base = float(plane_embedding_count(dt)) * 2.0 ** (n - 4)
    for t in (dt.t1, dt.t2):
        deg = t.degrees()
        for b in t.boundary:
            if b not in (1, 2):
                base *= _simplex_volume(L[b] / 2.0, deg[b]) ** 2
        base *= _angle_constant(t)
    d1 = dt.t1.degree(1)
    d2 = dt.t2.degree(2)
    cons1 = _inner_edge_constraints(dt.t1)
    cons2 = _inner_edge_constraints(dt.t2)

    rng = stream()
    chunk_sums: list[float] = []
    chunk_sumsq: list[float] = []
    # An overflowing value or square raises FloatingPointError (see _sample).
    with np.errstate(over="raise"):
        for m in _chunks(samples):
            ell = rng.uniform(0.0, lmax, size=m)
            vals = base * lmax * ell
            vals = vals * _simplex_volume((L[1] - ell) / 2.0, d1)
            vals = vals * _simplex_volume((L[1] + ell) / 2.0, d1)
            vals = vals * _simplex_volume((L[2] - ell) / 2.0, d2)
            vals = vals * _simplex_volume((L[2] + ell) / 2.0, d2)
            if delaunay:
                for t, cons in ((dt.t1, cons1), (dt.t2, cons2)):
                    if cons:
                        angles = _sample_angles(t, cons, rng, m)
                        vals = vals * _acceptance_mask(cons, angles)
            chunk_sums.append(float(vals.sum()))
            chunk_sumsq.append(float((vals * vals).sum()))
    total = math.fsum(chunk_sums)
    totalsq = math.fsum(chunk_sumsq)
    mean = total / samples
    var = 0.0
    if samples > 1:
        var = max(0.0, (totalsq - samples * mean * mean) / (samples - 1))
    return {"key": canonical_key(dt).decode(), "kind": "full", "estimate": mean,
            "std_error": math.sqrt(var / samples), "exact": False}


@dataclass
class McReport:
    """A Monte Carlo estimate next to its exact reference.

    ``z_score`` is (estimate - reference) / std_error; when the estimate is
    exact (zero standard error) it is 0 for agreement to a relative 1e-9 and
    infinite otherwise.
    """

    estimate: float
    std_error: float
    samples: int
    seed: int
    reference: float
    z_score: float
    per_tree: list = field(default_factory=list)


def _zscore(estimate: float, reference: float, std_error: float) -> float:
    if std_error > 0.0:
        return (estimate - reference) / std_error
    if math.isclose(estimate, reference, rel_tol=1e-9, abs_tol=1e-12):
        return 0.0
    return math.copysign(math.inf, estimate - reference)


def _bindings(lengths) -> dict:
    out = {PI2: math.pi ** 2}
    for i, length in enumerate(lengths, start=1):
        out[lsq(i)] = float(Fraction(length) ** 2)
    return out


def _check_lengths(n: int, lengths) -> dict[int, float]:
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if len(lengths) != n:
        raise ValueError(f"need {n} lengths, got {len(lengths)}")
    try:
        L = {i: float(v) for i, v in enumerate(lengths, start=1)}
    except OverflowError:
        raise ValueError("lengths must be below the binary64 maximum") from None
    if any(v <= 0 for v in L.values()):
        raise ValueError("lengths must be positive")
    if not L[1] < L[2]:
        raise ValueError("need L1 < L2")
    return L


def _combine(jobs, reference: float, samples: int, seed: int,
             threads: int) -> McReport:
    # More workers than jobs or CPUs only cost thread start-ups.
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda f: f(), jobs))
    else:
        rows = [f() for f in jobs]
    total = math.fsum(r["estimate"] for r in rows)
    se = math.sqrt(math.fsum(r["std_error"] ** 2 for r in rows))
    return McReport(total, se, samples, seed, reference,
                    _zscore(total, reference, se), rows)


_ESTIMATORS = {"htc": _htc_tree_estimate, "full": _full_tree_estimate}


def _sample(families, reference_route, n: int, lengths, samples: int, seed: int,
            threads: int, delaunay: bool) -> McReport:
    """Sample the top-dimensional members of ``families`` in order, one
    stream each, against ``reference_route(n)`` evaluated at the lengths."""
    L = _check_lengths(n, lengths)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    try:
        reference = reference_route(n).eval_float(_bindings(lengths))
    except OverflowError:
        raise ValueError("the exact reference overflows binary64") from None
    members = [(family, m) for family in families
               for m in enumerate_family(family, n) if _is_top_dimensional(m)]
    jobs = [partial(_ESTIMATORS[family], m, n, L, samples, partial(_stream, seed, i),
                    delaunay)
            for i, (family, m) in enumerate(members)]
    try:
        return _combine(jobs, reference, samples, seed, threads)
    except (FloatingPointError, OverflowError):
        raise ValueError("the sampled volumes or their squares overflow binary64 "
                         "at these lengths") from None


def mc_htc_volume(n: int, lengths, samples: int, seed: int,
                  threads: int = 1, delaunay: bool = True) -> McReport:
    """Estimate H_n(L) by sampling the top-dimensional half-tight polytopes.

    ``delaunay=False`` drops the per-edge rejection test (an ablation used
    to demonstrate that the constraints carry real volume).
    """
    return _sample(("htc",), htc_volume, n, lengths, samples, seed, threads, delaunay)


def mc_full_volume(n: int, lengths, samples: int, seed: int,
                   threads: int = 1, delaunay: bool = True) -> McReport:
    """Estimate V_{0,n}(L): half-tight part plus glued-pair part.

    The reference is the exact reduced tree sum evaluated at the lengths.
    """
    return _sample(("htc", "full"), v0n_reduced, n, lengths, samples, seed, threads,
                   delaunay)
