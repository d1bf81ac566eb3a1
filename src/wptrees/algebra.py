"""Exact sparse polynomial arithmetic over a fixed family of formal atoms.

All symbolic computation in this package happens in one polynomial ring with
rational coefficients.  The atoms are:

* ``pi2``                the constant pi^2, kept formal so that volume
                         polynomials can be compared exactly;
* ``L1^2, ..., Ln^2``    squared boundary lengths (every formula in scope is
                         even in each length, so the square is the atom and
                         odd powers are unrepresentable by construction);
* ``m0, m1, ...``        moments of a boundary-length measure,
                         m_k = int dmu(L) L^(2k);
* ``r``                  one auxiliary formal variable, used both as the
                         series variable of the root-finding problem and as
                         the substitution symbol u = l^2 during integration;
* ``t0, t1, ...``,
  ``gam2, gam3, ...``    counting variables of the boundary-insertion
                         recursion.

A monomial is a sorted tuple of ``(atom, exponent)`` pairs with exponent
>= 1; a polynomial maps monomials to nonzero ``Fraction`` coefficients.  The
zero polynomial stores no terms.  All arithmetic is exact and the algebra
holds no floats: the sampler evaluates its reference with
:meth:`Polynomial.eval_exact` and rounds the result once into binary64.

Substitution, differentiation, evaluation and the half-square integral (and
elsewhere the mu-average and the symmetry test) are term rules handed to
:meth:`Polynomial.map_terms`, the one place where the like terms of a
rewritten polynomial are summed.  Ring operations, :func:`orbit_terms` and
the sums and products of a :class:`GradedSeries`, which stores its terms by
moment grade, keep their own loops.  A volume stays an orbit dict,
``(p, head, tail) -> coefficient``: :func:`orbit_terms` streams its terms in
canonical order for the printer, and :func:`expand_orbits` collects them
for a reader that needs monomials.

Canonical term order, used by every serializer: ascending total degree, then
descending lexicographic with respect to the atom order

    pi2 < L1^2 < L2^2 < ... < m0 < m1 < ... < r < t0 < ... < gam2 < ...

Terms are rendered one at a time, as text, LaTeX or JSON, by
:func:`render_text`, :func:`render_latex` and :func:`json_terms`, whether
they come sorted from a polynomial or streamed from an orbit dict.

Monomials, coefficients, polynomials and series are immutable (a series
writes nothing after it is built) and operations are pure functions, so
values can be shared freely across threads and summed in any order.
"""
from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import getitem
from typing import Iterable, Iterator, Mapping, NamedTuple

__all__ = [
    "Atom",
    "PI2",
    "AUX",
    "lsq",
    "mom",
    "that",
    "ghat",
    "Polynomial",
    "GradedSeries",
    "multiset_permutations",
    "orbit_terms",
    "expand_orbits",
    "integrate_halfsquare",
    "render_text",
    "render_latex",
    "json_terms",
    "json_layout",
    "poly_to_json_terms",
    "poly_from_json_terms",
]

# Atom kinds, listed in canonical sort order.
_PI2, _LSQ, _MOM, _AUX, _THAT, _GHAT = range(6)


class Atom(NamedTuple):
    """A formal variable of the ring; as a tuple it orders by (kind, index)."""

    kind: int
    index: int = 0

    def name(self) -> str:
        if self.kind == _PI2:
            return "pi2"
        if self.kind == _LSQ:
            return f"L{self.index}"
        if self.kind == _MOM:
            return f"m{self.index}"
        if self.kind == _AUX:
            return "r"
        if self.kind == _THAT:
            return f"t{self.index}"
        return f"gam{self.index}"


PI2 = Atom(_PI2)
AUX = Atom(_AUX)


def lsq(i: int) -> Atom:
    """The atom L_i^2 (squared length of boundary i), i >= 1."""
    if i < 1:
        raise ValueError(f"boundary index must be >= 1, got {i}")
    return Atom(_LSQ, i)


def mom(k: int) -> Atom:
    """The moment atom m_k, k >= 0."""
    if k < 0:
        raise ValueError(f"moment order must be >= 0, got {k}")
    return Atom(_MOM, k)


def that(k: int) -> Atom:
    """Counting variable for boundary vertices of degree k + 1."""
    if k < 0:
        raise ValueError(f"t-hat index must be >= 0, got {k}")
    return Atom(_THAT, k)


def ghat(k: int) -> Atom:
    """Counting variable for inner vertices of degree k + 1, k >= 2."""
    if k < 2:
        raise ValueError(f"gamma-hat index must be >= 2, got {k}")
    return Atom(_GHAT, k)


# A monomial: (atom, exponent) pairs in ascending atom order, exponents >= 1.
Mono = tuple[tuple[Atom, int], ...]

_EMPTY_MONO: Mono = ()


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    merged: dict[Atom, int] = dict(a)
    for atom, e in b:
        merged[atom] = merged.get(atom, 0) + e
    return tuple(sorted(merged.items()))


def _mul_into(out: dict, a, b) -> None:
    """Add the product of the term lists ``a`` and ``b``, with ``Fraction``
    or integer coefficients, into ``out``.

    Cancelled terms are left in place as zeros for the caller to drop.
    A new monomial stores its product as is: ``0 + Fraction`` would take
    the slow ``Fraction.__radd__`` path.
    """
    for ma, ca in a:
        for mb, cb in b:
            m = _mono_mul(ma, mb)
            c = ca * cb
            if m in out:
                out[m] += c
            else:
                out[m] = c


def _nonzero(terms: dict[Mono, Fraction]) -> dict[Mono, Fraction]:
    return {m: c for m, c in terms.items() if c}


def _grade(mono: Mono) -> int:
    """The moment grade of a monomial: its total degree in the atoms m_k."""
    return sum(e for a, e in mono if a.kind == _MOM)


def _mono_order(m: Mono) -> tuple[int, ...]:
    # Graded order: total degree first; within a degree the flattened
    # (kind, index, -exponent) triples realize descending lexicographic
    # comparison, exactly as the nested (atom, -exponent) pairs would.
    key = [0]
    degree = 0
    for (kind, index), e in m:
        key += (kind, index, -e)
        degree += e
    key[0] = degree
    return tuple(key)


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Mono, Fraction] | None = None):
        self._terms = {m: f for m, c in (terms or {}).items() if (f := Fraction(c))}

    @staticmethod
    def _of_terms(terms: dict[Mono, Fraction]) -> "Polynomial":
        """Wrap a dict of nonzero Fraction coefficients without copying it."""
        p = Polynomial.__new__(Polynomial)
        p._terms = terms
        return p

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial({_EMPTY_MONO: Fraction(1)})

    @staticmethod
    def const(c) -> "Polynomial":
        return Polynomial({_EMPTY_MONO: Fraction(c)})

    @staticmethod
    def of_atom(a: Atom, power: int = 1) -> "Polynomial":
        if power < 0:
            raise ValueError("negative powers are not representable")
        if power == 0:
            return Polynomial.one()
        return Polynomial({((a, power),): Fraction(1)})

    @staticmethod
    def monomial(coeff, pairs: Iterable[tuple[Atom, int]]) -> "Polynomial":
        pairs = [(a, e) for a, e in pairs if e != 0]
        if any(e < 0 for _, e in pairs):
            raise ValueError("negative powers are not representable")
        mono = tuple(sorted(pairs))
        return Polynomial({mono: Fraction(coeff)})

    @staticmethod
    def sum(polys: Iterable["Polynomial"]) -> "Polynomial":
        """The sum of ``polys``, accumulated in place into one term dict.

        Unlike a chain of ``+``, which copies the running total on every
        addition, this costs one dict update per term summed.  Given a
        generator, it keeps only one summand alive at a time.
        """
        out: dict[Mono, Fraction] = {}
        for p in polys:
            for m, c in p._terms.items():
                out[m] = out.get(m, 0) + c
        return Polynomial._of_terms(_nonzero(out))

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def items(self) -> Iterator[tuple[Mono, Fraction]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        """Terms in the canonical graded order (byte-stable)."""
        return sorted(self._terms.items(), key=lambda mc: _mono_order(mc[0]))

    def coefficient(self, pairs: Iterable[tuple[Atom, int]]) -> Fraction:
        mono = tuple(sorted((a, e) for a, e in pairs if e != 0))
        return self._terms.get(mono, Fraction(0))

    # -- ring operations ------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __eq__(self, other) -> bool:
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other) -> "Polynomial":
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial._of_terms(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._of_terms({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return Polynomial._coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Mono, Fraction] = {}
        _mul_into(out, self._terms.items(), other._terms.items())
        return Polynomial._of_terms(_nonzero(out))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- term rewriting --------------------------------------------------

    def map_terms(self, rule) -> "Polynomial":
        """One term ``rule(monomial, coefficient)`` per term, a ``(monomial,
        coefficient)`` pair or None to drop the term.  Like terms are summed,
        and zeros dropped, once at the end."""
        out: dict[Mono, Fraction] = {}
        for m, c in self._terms.items():
            term = rule(m, c)
            if term is not None:
                m, c = term
                if m in out:
                    out[m] += c
                else:
                    out[m] = c
        return Polynomial._of_terms(_nonzero(out))

    def partial(self, x: Atom) -> "Polynomial":
        """Formal partial derivative with respect to the atom x."""
        def rule(m: Mono, c: Fraction):
            for i, (a, e) in enumerate(m):
                if a == x:
                    rest = m[:i] + ((a, e - 1),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:]
                    return rest, c * e
            return None

        return self.map_terms(rule)

    def substitute(self, mapping: Mapping[Atom, "Polynomial | Fraction | int"]) -> "Polynomial":
        """Substitute numbers or one-term polynomials for atoms, all at once;
        unmapped atoms pass through, and a longer image raises ``ValueError``."""
        if any(isinstance(v, Polynomial) and len(v) > 1 for v in mapping.values()):
            raise ValueError("an atom's image must be a number or a one-term polynomial")
        images = {a: next(v.items(), (_EMPTY_MONO, 0)) if isinstance(v, Polynomial)
                  else (_EMPTY_MONO, Fraction(v)) for a, v in mapping.items()}

        def rule(m: Mono, c: Fraction):
            merged: dict[Atom, int] = {}
            for a, e in m:
                if a in images:
                    mono, value = images[a]
                    c *= value ** e
                    for b, f in mono:
                        merged[b] = merged.get(b, 0) + f * e
                else:
                    merged[a] = merged.get(a, 0) + e
            return tuple(sorted(merged.items())), c

        return self.map_terms(rule)

    # -- evaluation -----------------------------------------------------

    def eval_exact(self, bindings: Mapping[Atom, Fraction]) -> Fraction:
        """Evaluate with exact rational bindings for every atom present."""
        atoms = dict.fromkeys(a for m in self._terms for a, _ in m)
        unbound = [a for a in atoms if a not in bindings]
        if unbound:
            raise KeyError(f"unbound atom {unbound[0].name()}")
        return self.substitute({a: bindings[a] for a in atoms}).coefficient(())

    # -- rendering -------------------------------------------------------

    def text(self) -> str:
        """Canonical plain-text form, e.g. ``2*pi2 + 1/2*L1^2``."""
        return "".join(render_text(self.sorted_terms()))

    def latex(self) -> str:
        return "".join(render_latex(self.sorted_terms()))

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Polynomial({self.text()})"


def _atom_text(a: Atom, e: int) -> str:
    if a.kind == _LSQ:
        return f"L{a.index}^{2 * e}"
    base = a.name()
    return base if e == 1 else f"{base}^{e}"


def _atom_latex(a: Atom, e: int) -> str:
    if a.kind == _PI2:
        return f"\\pi^{{{2 * e}}}" if 2 * e != 2 else "\\pi^2"
    if a.kind == _LSQ:
        return f"L_{{{a.index}}}^{{{2 * e}}}" if 2 * e != 2 else f"L_{{{a.index}}}^2"
    if a.kind == _MOM:
        base = f"m_{{{a.index}}}"
    elif a.kind == _AUX:
        base = "r"
    elif a.kind == _THAT:
        base = f"\\hat t_{{{a.index}}}"
    else:
        base = f"\\hat\\gamma_{{{a.index}}}"
    return base if e == 1 else f"{base}^{{{e}}}"


def _coeff_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"\\frac{{{c.numerator}}}{{{c.denominator}}}"


def _render(terms: Iterable[tuple[Mono, Fraction]], atom_text, coeff_text,
            sep: str) -> Iterator[str]:
    """Signed terms joined by `` + ``/`` - ``, one string per term, or "0"
    for no terms; ``atom_text(a, e)`` renders an atom power, ``coeff_text(c)``
    a positive coefficient, and ``sep`` joins the coefficient and the atom
    powers of a term."""
    texts: dict[tuple[Atom, int], str] = {}  # each atom power rendered once
    first = True
    for m, c in terms:
        negative = c.numerator < 0
        atom_parts = []
        for pair in m:
            text = texts.get(pair)
            if text is None:
                text = texts[pair] = atom_text(*pair)
            atom_parts.append(text)
        atoms = sep.join(atom_parts)
        if atoms and c.denominator == 1 and abs(c.numerator) == 1:
            body = atoms
        else:
            mag = -c if negative else c
            body = f"{coeff_text(mag)}{sep}{atoms}" if atoms else coeff_text(mag)
        if first:
            yield "-" + body if negative else body
            first = False
        else:
            yield (" - " if negative else " + ") + body
    if first:
        yield "0"


def render_text(terms: Iterable[tuple[Mono, Fraction]]) -> Iterator[str]:
    """The plain-text form of canonically ordered terms, as
    :meth:`Polynomial.text` joins it."""
    return _render(terms, _atom_text, str, "*")


def render_latex(terms: Iterable[tuple[Mono, Fraction]]) -> Iterator[str]:
    """The LaTeX form of canonically ordered terms, as
    :meth:`Polynomial.latex` joins it."""
    return _render(terms, _atom_latex, _coeff_latex, " ")


def integrate_halfsquare(p: Polynomial, upper: Atom) -> Polynomial:
    """Integrate a length variable against its square.

    For a polynomial q with ``int_0^U l q(l^2) dl = 1/2 int_0^{U^2} q(u) du``,
    this computes the right-hand side exactly: ``p`` is read as a polynomial
    in the auxiliary atom u = r, and the result is half the antiderivative
    evaluated at u = ``upper`` (an atom standing for U^2).
    """
    if upper == AUX:
        raise ValueError("upper bound must not be the integration symbol")

    def antiderivative(m: Mono, c: Fraction):
        # c * u^j integrates to c * upper^(j+1) / (j+1); the 1/2 is global.
        powers = dict(m)
        j = powers.pop(AUX, 0)
        powers[upper] = powers.get(upper, 0) + j + 1
        return tuple(sorted(powers.items())), c / (2 * (j + 1))

    return p.map_terms(antiderivative)


class GradedSeries:
    """A polynomial truncated by moment grade, its terms stored by grade.

    ``parts`` maps each grade g <= grade_cap (a term's total degree in m_0,
    m_1, ...) to the nonzero polynomial of its terms of grade g.  A body is
    graded once and its terms above the cap dropped; sums add equal-grade
    parts, products multiply only part pairs whose grades sum to <= the cap.
    Operands must share the cap.  Equal when parts and cap are.
    """

    __slots__ = ("parts", "grade_cap")

    def __init__(self, body: Polynomial, grade_cap: int):
        if grade_cap < 0:
            raise ValueError("grade_cap must be >= 0")
        parts: dict[int, dict[Mono, Fraction]] = {}
        for m, c in body._terms.items():
            if (g := _grade(m)) <= grade_cap:
                parts.setdefault(g, {})[m] = c
        self.parts = {g: Polynomial._of_terms(t) for g, t in parts.items()}
        self.grade_cap = grade_cap

    @staticmethod
    def _of_parts(parts: dict[int, Polynomial], grade_cap: int) -> "GradedSeries":
        """Wrap parts already filed by grade, none of them zero."""
        s = GradedSeries.__new__(GradedSeries)
        s.parts, s.grade_cap = parts, grade_cap
        return s

    def __eq__(self, other):
        if other.__class__ is not GradedSeries:
            return NotImplemented
        return self.parts == other.parts and self.grade_cap == other.grade_cap

    def _check(self, other: "GradedSeries") -> None:
        if self.grade_cap != other.grade_cap:
            raise ValueError(
                f"grade_cap mismatch: {self.grade_cap} != {other.grade_cap}")

    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        self._check(other)
        parts = {**self.parts, **other.parts}
        for g in self.parts.keys() & other.parts.keys():
            parts[g] = self.parts[g] + other.parts[g]
        return GradedSeries._of_parts({g: p for g, p in parts.items() if p}, self.grade_cap)

    def _numerators(self) -> tuple[int, dict[int, list[tuple[Mono, int]]]]:
        """The lcm D of the coefficients' denominators, and each part's terms
        with their coefficients times D, all integers."""
        d = lcm(*(c.denominator for p in self.parts.values() for c in p._terms.values()))
        return d, {g: [(m, c.numerator * (d // c.denominator)) for m, c in p._terms.items()]
                   for g, p in self.parts.items()}

    def __mul__(self, other: "GradedSeries") -> "GradedSeries":
        """The truncated product, summed over integer numerators: each
        coefficient is one ``Fraction`` of the summed integer over the
        product of the operands' common denominators."""
        self._check(other)
        cap = self.grade_cap
        da, a = self._numerators()
        db, b = other._numerators()
        out: dict[int, dict[Mono, int]] = {}
        for ga, ta in a.items():
            for gb, tb in b.items():
                if ga + gb <= cap:
                    _mul_into(out.setdefault(ga + gb, {}), ta, tb)
        den = da * db
        parts = {g: Polynomial._of_terms({m: Fraction(n, den) for m, n in terms.items() if n})
                 for g, terms in out.items()}
        return GradedSeries._of_parts({g: p for g, p in parts.items() if p}, cap)

    @property
    def body(self) -> Polynomial:
        """All terms of the series, the union of its parts."""
        return Polynomial._of_terms(
            {m: c for p in self.parts.values() for m, c in p._terms.items()})

    def is_zero(self) -> bool:
        return not self.parts

    def grade_part(self, g: int) -> Polynomial:
        """The sum of terms of exact grade g."""
        return self.parts.get(g, Polynomial.zero())


def multiset_permutations(items: Iterable) -> Iterator[tuple]:
    """The distinct permutations of ``items``, in descending lexicographic order.

    Walks previous-permutation steps from the nonincreasing order, so a
    multiset with repeats costs one step per distinct arrangement, not one
    per permutation.
    """
    a = sorted(items, reverse=True)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] <= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] >= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def orbit_terms(orbits: Mapping) -> Iterator[tuple[Mono, Fraction]]:
    """The terms of the orbit sum :func:`expand_orbits` writes out, in the
    canonical order, like terms summed and zeros dropped.

    Within one total degree the canonical order is descending lexicographic
    order on the exponent vector (p, e_1, .., e_n): two monomials of equal
    degree first differ in an exponent, never in a missing atom.  So each
    orbit walks its arrangements in that order, and one ``heapq.merge`` per
    total degree and pi^2 power (the degree ascending, then the power
    descending) interleaves them; no monomial dict is built and no sort key
    computed.  Every key spreads over the same n labels.
    """
    groups: dict[tuple[int, int], list] = {}
    width = degree = 0
    for (p, head, tail), coefficient in orbits.items():
        total = p + sum(head) + sum(tail)
        exps = multiset_permutations(tail)
        if head:
            exps = map(head.__add__, exps)
        groups.setdefault((total, -p), []).append(zip(exps, repeat(Fraction(coefficient))))
        width, degree = max(width, len(head) + len(tail)), max(degree, total)
    # pairs[i][e] is the one shared (L_(i+1)^2, e), and pairs[i][0] is None
    pairs = [[None] + [(lsq(i + 1), e) for e in range(1, degree + 1)] for i in range(width)]
    for total, p in sorted(groups):
        lead = ((PI2, -p),) if p else ()
        last, coefficient = None, 0
        for exps, c in heapq.merge(*groups[total, p], reverse=True):
            if exps == last:
                coefficient += c
                continue
            if coefficient:
                yield lead + tuple(filter(None, map(getitem, pairs, last))), coefficient
            last, coefficient = exps, c
        if coefficient:
            yield lead + tuple(filter(None, map(getitem, pairs, last))), coefficient


def expand_orbits(orbits: Mapping) -> Polynomial:
    """The sum of monomial orbits in pi^2 and the squared lengths L_1^2 .. L_n^2.

    ``orbits`` maps ``(p, head, tail)`` to a number, n = len(head) +
    len(tail): the monomials pi^(2p) * prod_i L_i^(2 e_i), where e is
    ``head`` on labels 1..len(head) followed by each distinct arrangement of
    the nonincreasing ``tail``, each with that number as its coefficient.
    The terms are those of :func:`orbit_terms`.
    """
    return Polynomial._of_terms(dict(orbit_terms(orbits)))


# -- JSON serialization ------------------------------------------------

def json_terms(terms: Iterable[tuple[Mono, Fraction]], n_lengths: int,
               n_moments: int = 0, has_aux: bool = False,
               with_grade: bool = False) -> Iterator[dict]:
    """One JSON term per term, in the order given.

    Each term is ``{"coeff": "p/q", "pi2": a, "L": [b1..bn], "m": [c0..cK]}``
    with ``n_lengths`` L exponents, of the squared-length atoms, and
    ``n_moments`` m exponents; ``has_aux`` adds an ``"r"`` key, and
    ``with_grade`` the moment grade of the term.
    """
    lengths = [lsq(i) for i in range(1, n_lengths + 1)]
    moments = [mom(k) for k in range(n_moments)]
    for mono, c in terms:
        exps = {a: e for a, e in mono}
        term = {
            "coeff": f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator),
            "pi2": exps.get(PI2, 0),
            "L": [exps.get(a, 0) for a in lengths],
            "m": [exps.get(a, 0) for a in moments],
        }
        if has_aux:
            term["r"] = exps.get(AUX, 0)
        if with_grade:
            term["grade"] = _grade(mono)
        yield term


def json_layout(p: Polynomial) -> dict:
    """The :func:`json_terms` options that list every atom of ``p``: as many
    L and m exponents as its highest L_i^2 and m_k need, and an ``"r"`` key
    when the auxiliary variable is present."""
    max_l = 0
    max_m = -1
    has_aux = False
    for m, _ in p.items():
        for a, _e in m:
            if a.kind == _LSQ:
                max_l = max(max_l, a.index)
            elif a.kind == _MOM:
                max_m = max(max_m, a.index)
            elif a.kind == _AUX:
                has_aux = True
    return {"n_lengths": max_l, "n_moments": max_m + 1, "has_aux": has_aux}


def poly_to_json_terms(p: Polynomial,
                       n_lengths: int | None = None,
                       with_grade: bool = False) -> list[dict]:
    """Canonically ordered JSON term list, laid out by :func:`json_layout`
    but with ``n_lengths`` L exponents when given."""
    layout = json_layout(p)
    if n_lengths is not None:
        layout["n_lengths"] = n_lengths
    return list(json_terms(p.sorted_terms(), **layout, with_grade=with_grade))


def poly_from_json_terms(terms: list[dict]) -> Polynomial:
    """Inverse of :func:`poly_to_json_terms`."""
    def term(t: dict) -> Polynomial:
        pairs: list[tuple[Atom, int]] = []
        if t.get("pi2"):
            pairs.append((PI2, t["pi2"]))
        for i, e in enumerate(t.get("L", []), start=1):
            if e:
                pairs.append((lsq(i), e))
        for k, e in enumerate(t.get("m", [])):
            if e:
                pairs.append((mom(k), e))
        if t.get("r"):
            pairs.append((AUX, t["r"]))
        return Polynomial.monomial(Fraction(t["coeff"]), pairs)

    return Polynomial.sum(term(t) for t in terms)
