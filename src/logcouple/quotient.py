"""Convex-subgroup scales, quotient projections, and counting.

For a finite scale value s^k0 the convex subgroup consists of the
elements whose first k coordinates vanish, so the quotient is the
lexicographic rational k-space and the projection is coordinate
truncation.  Images of small sets in these quotients are finite and are
computed exactly from capped index profiles: the first k coordinates of a
staircase sum only depend on min(n_i, k).  The distinct prefixes of
those values are the paths of a component's determinized profile
automaton (``psifun._ProfileAutomaton``, over one common denominator D
for a union, the same at every depth), whose docstring gives the
argument: the subset construction, and the clock signatures of
constrained chains.  The automaton knows no depth:
``psifun._prefix_walk`` reads it to depth k one coordinate at a time,
adding the component's offset, and builds each distinct prefix once.
The successor lists of those signatures are kept per constraint system
across calls (``psifun._clock_memo``), so ``solve_min`` counts quoted
for a walk are first-call counts: 36 for ``project_set(fig2_set(), 30)``
from an empty memo, and 0 when repeated.

``project_set`` walks each component to depth k, keeps the distinct
integer vectors of their last layers and returns them, with D, as a
read-only ``QuotientImage`` and makes no Fraction while it computes:
its length is the count at depth k, a membership query is scaled by D
and looked up among the integer vectors, and iteration yields sorted
Fraction tuples, one Fraction per distinct value.  ``count_function``
builds no prefix: it counts the paths of the product of the
components' automata by the transfer recurrence, once, to its largest
k, and ``fit_count_polynomial`` fits the table's tail in Newton form.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Set as AbcSet
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .element import GammaElement, GammaExt, INF, format_rational, json_int, psi_point
from .psifun import _automata, _prefix_walk, _scaled, _transfer_counts

__all__ = [
    "Phi",
    "PHI_INF",
    "TruncatedVector",
    "in_delta",
    "project",
    "project_set",
    "QuotientImage",
    "count_function",
    "closed_discrete_certificate",
    "fit_count_polynomial",
    "format_vector",
]

TruncatedVector = Tuple[Fraction, ...]


@functools.total_ordering
@dataclass(frozen=True, order=False)
class Phi:
    """A scale value: s^k0 (the k-th staircase point) or infinity (k=None)."""

    k: Optional[int] = None

    def __post_init__(self):
        if self.k is not None and json_int(self.k, "a finite scale value s^{k}0 takes an integer k") < 1:
            raise ValueError("finite scale values are s^{k}0 with k >= 1")

    @property
    def is_finite(self) -> bool:
        return self.k is not None

    def as_element(self) -> GammaExt:
        return INF if self.k is None else psi_point(self.k)

    def __le__(self, other: "Phi") -> bool:
        if self.k is None:
            return other.k is None
        return other.k is None or self.k <= other.k

    def __str__(self) -> str:
        return "inf" if self.k is None else f"s^{{{self.k}}}0"

    @staticmethod
    def parse(text: str) -> "Phi":
        """Read ``inf``, the printed form ``s^{k}0``, or the short form
        ``s^k``.  A short form whose digits end in 0 and have more than one
        digit is refused: ``s^10`` reads as s^{1}0 or as s^{10}0."""
        text = text.strip()
        if text in ("inf", "∞"):
            return Phi(None)
        m = re.fullmatch(r"s\^\{([0-9]+)\}0", text)
        if m:
            return Phi(int(m.group(1)))
        m = re.fullmatch(r"s\^([0-9]+)", text)
        if not m:
            raise ValueError(f"not a scale value (expected s^{{k}}0, s^k or inf): {text!r}")
        digits = m.group(1)
        if len(digits) > 1 and digits.endswith("0"):
            raise ValueError(f"ambiguous scale value {text!r}: write s^{{{digits[:-1]}}}0 or s^{{{digits}}}0")
        return Phi(int(digits))


PHI_INF = Phi(None)


def in_delta(gamma: GammaElement, phi: Phi) -> bool:
    """Membership in the convex subgroup at scale phi: for s^k0, the first
    k coordinates vanish; at infinity only zero qualifies."""
    if not isinstance(gamma, GammaElement):
        raise ValueError("in_delta takes a group element")
    if not isinstance(phi, Phi):
        raise ValueError(f"in_delta takes a scale value: {phi!r}")
    if phi.k is None:
        return gamma.is_zero
    return gamma.is_zero or gamma.leading_index >= phi.k


def project(gamma: GammaElement, k: int) -> TruncatedVector:
    """Coordinate truncation onto the rational k-space (zeros kept)."""
    if not isinstance(gamma, GammaElement):
        raise ValueError(f"project takes a group element: {gamma!r}")
    if json_int(k, "projection depth must be an integer") < 1:
        raise ValueError("projection depth must be >= 1")
    return gamma.truncate(k)


class QuotientImage(AbcSet):
    """A finite quotient image at depth k, as ``project_set`` returns it:
    a read-only set of Fraction k-tuples, stored as the walk's distinct
    integer vectors over one common denominator D > 0.

    ``len`` is O(1).  Iteration yields Fraction tuples in sorted order
    (the integer tuples sorted, which is the same order since D > 0), one
    Fraction per distinct value.  ``v in img`` scales a tuple of ints and
    Fractions by D with ``psifun._scaled`` and looks it up among the
    integer vectors, so a coordinate outside (1/D)Z matches nothing; any
    other v (floats, for one) is looked up in ``set(img)``, so membership
    agrees with that of the plain set for every hashable v.  Equality is
    the ``collections.abc.Set`` rule (equal lengths, then membership), so
    images over different denominators compare by value; ``|``, ``&``,
    ``-`` and ``^`` return plain sets, and an image is unhashable, like
    ``set``.
    """

    __slots__ = ("_vectors", "_D", "_k")

    def __init__(self, vectors: Set[Tuple[int, ...]], D: int, k: int):
        # the set is taken over, not copied: nothing else may hold it
        self._vectors = vectors
        self._D = D
        self._k = k

    @classmethod
    def _from_iterable(cls, it) -> set:
        return set(it)

    def __len__(self) -> int:
        return len(self._vectors)

    def __iter__(self) -> Iterator[TruncatedVector]:
        D = self._D
        value = {x: Fraction(x, D) for x in {x for vec in self._vectors for x in vec}}
        return iter([tuple(map(value.__getitem__, vec)) for vec in sorted(self._vectors)])

    def __contains__(self, v: object) -> bool:
        if type(v) is tuple:
            if len(v) != self._k:
                return False  # tuples of different lengths are never equal
            if all(isinstance(x, (int, Fraction)) for x in v):
                return tuple(_scaled(v, self._D)) in self._vectors
        return v in set(self)

    def __repr__(self) -> str:
        return f"QuotientImage(k={self._k}, [{', '.join(map(format_vector, self))}])"


def project_set(X, k: int) -> QuotientImage:
    """The exact finite projection of an image union or constrained image:
    the prefixes of each component's walk to depth k (``_prefix_walk``),
    kept in a ``QuotientImage`` over the union's denominator D; no
    Fraction is made until the image is iterated."""
    if json_int(k, "projection depth must be an integer") < 1:
        raise ValueError("projection depth must be >= 1")
    D, walks = _automata(X, k)
    return QuotientImage({prefix for shifts, auto in walks for prefix, _ in _prefix_walk(auto, shifts)}, D, k)


def count_function(X, ks: Iterable[int]) -> List[Tuple[int, int]]:
    """Exact quotient cardinalities |projection at s^k0| for each k, in the
    order of ks (repeats kept): ``len(project_set(X, k))``, counted by the
    transfer-matrix method (Stanley, *Enumerative Combinatorics I*, 4.7)
    over the components' automata (``psifun._transfer_counts``), run once
    to K = max(ks).  No prefix, vector or Fraction is built.

    1. A prefix fixes its state set.  One state set's moves
       (``psifun._ProfileAutomaton``) have distinct symbols, so the depth-k
       prefixes of a component are its paths of length k from the start,
       one each, and a prefix's path ends at its state set.  A layer that
       keeps, per state set, the number of prefixes that reach it
       therefore counts prefixes exactly: each parent adds its number to
       each child, and the layer's sum is the count.
    2. The product reads each union vector once.  Over the common D, a
       vector is in component i's image iff its coordinates minus
       offset_i are a path of i's automaton.  A product state is the tuple
       of the components' state sets, 0 for a component that has died,
       and the value v at coordinate c moves each live component on its
       symbol v - offset_i[c], if it has one.  Each product state has one
       child per value, so the product is deterministic too: a vector is
       one path of it, read once however many components contain it, and
       step 1 applies."""
    ks = list(ks)
    if any(json_int(k, "projection depth must be an integer") < 1 for k in ks):
        raise ValueError("projection depth must be >= 1")
    if not ks:
        return []
    counts = _transfer_counts(X, max(ks))
    return [(k, counts[k - 1]) for k in ks]


def closed_discrete_certificate(X, phi: Phi) -> Tuple[TruncatedVector, ...]:
    """The finite quotient image at a finite scale, sorted; its finiteness
    certifies that the image is closed and discrete in the dense quotient
    order."""
    if not phi.is_finite:
        raise ValueError("certificates exist at finite scales only")
    return tuple(project_set(X, phi.k))


# The highest degree that fit_count_polynomial tries.
_FIT_MAX_DEGREE = 4


def fit_count_polynomial(counts: Sequence[Tuple[int, int]]) -> Optional[Tuple[Fraction, ...]]:
    """Exact polynomial fit of the count table: the least degree d (at most
    ``_FIT_MAX_DEGREE``) whose interpolant through the last d+1 rows also
    meets row d+2 from the end.  Returns its coefficients (constant first),
    or None when no degree fits or two of the interpolated rows share a k.
    Any fit is conjectural; the caller must flag it as such.

    The Newton form (Knuth, TAOCP Vol. 2, 4.6.4) grows from the end of the
    table: node j is the k of row j + 1 from the end, and the table keeps
    its last diagonal, the divided differences f[x_{d-i}, ..., x_d] for
    i = 0..d.  Degree d costs one new diagonal and one Horner check in
    Newton form, and only the degree returned is expanded into monomial
    coefficients."""
    rows = counts[-(_FIT_MAX_DEGREE + 2) :][::-1]
    if len(rows) < 2:
        return None
    xs = [k for k, _ in rows]
    newton = [Fraction(rows[0][1])]  # f[x_0, ..., x_j] for j = 0..d
    diagonal = newton[:]  # f[x_{d-i}, ..., x_d] for i = 0..d
    for d in range(len(rows) - 1):
        x, y = rows[d + 1]
        value = newton[d]
        for j in range(d - 1, -1, -1):
            value = value * (x - xs[j]) + newton[j]
        if value == y:
            coeffs = [newton[d]]
            for j in range(d - 1, -1, -1):
                coeffs = [newton[j] - xs[j] * coeffs[0]] + [
                    low - xs[j] * high for low, high in zip(coeffs, coeffs[1:])
                ] + coeffs[-1:]
            return tuple(coeffs)
        grown = [Fraction(y)]
        for i in range(d + 1):
            if x == xs[d - i]:
                return None  # a repeated node: no larger degree interpolates
            grown.append((grown[i] - diagonal[i]) / (x - xs[d - i]))
        diagonal = grown
        newton.append(grown[-1])
    return None


def format_vector(vec: TruncatedVector) -> str:
    return "(" + ",".join(format_rational(q) for q in vec) + ")"
