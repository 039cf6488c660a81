"""Exact arithmetic and primitives of the computable asymptotic couple.

The ground group is the set of finitely supported rational sequences
(r_0, r_1, r_2, ...) under lexicographic order: a nonzero element is
positive iff its first nonzero coordinate is.  On top of the group we
have the valuation-like map ``psi`` (leading index n goes to the
staircase point E_{n+1} = e_0 + ... + e_n), the asymptotic integral,
the successor/predecessor pair, and a distinguished top value ``INF``
that makes every primitive total.

All values are immutable and all operations are pure.

An element stores its coordinates as a canonical tuple of (index, value)
pairs: sorted by index, no zero value, every value a ``Fraction``.  The
public constructor ``GammaElement(...)`` accepts any pairs and validates
and normalises them.  The private ``_element(coords)`` wraps a tuple that
is already canonical and checks nothing; only this module and
``PsiFunction.evaluate`` call it, and only with tuples derived from
canonical ones (a merge of two sorted tuples that drops zero sums, a
negation, a product with a nonzero ``Fraction``, the staircase point
E_n, a staircase of running sums that skips zero ones).  Everything
else goes through the public constructor.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Tuple, Union

__all__ = [
    "GammaElement",
    "GammaExt",
    "INF",
    "ZERO",
    "unit",
    "psi_point",
    "psi_point_index",
    "is_psi_point",
    "parse_element",
    "format_element",
    "parse_rational",
    "format_rational",
    "json_int",
    "compare",
    "psi",
    "integral",
    "succ",
    "pred",
    "delta",
    "small_diff_witness",
    "rv_equiv",
    "arch_class",
    "psi_precedes",
]

Rational = Union[int, Fraction]

_QZERO = Fraction(0)
_QONE = Fraction(1)


class _Infinity:
    """The adjoined top value: greater than every group element, absorbing."""

    _instance: Optional["_Infinity"] = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    # Order: INF is strictly above all of Gamma.
    def __lt__(self, other: object) -> bool:
        if other is self or isinstance(other, GammaElement):
            return False
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, GammaElement):
            return False
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if other is self:
            return False
        if isinstance(other, GammaElement):
            return True
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if other is self or isinstance(other, GammaElement):
            return True
        return NotImplemented

    # Arithmetic defaults: alpha + INF = INF + alpha = -INF = INF.
    def __add__(self, other: object) -> "_Infinity":
        if other is self or isinstance(other, GammaElement):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object) -> "_Infinity":
        if other is self or isinstance(other, GammaElement):
            return self
        return NotImplemented

    def __rsub__(self, other: object) -> "_Infinity":
        if isinstance(other, GammaElement):
            return self
        return NotImplemented

    def __neg__(self) -> "_Infinity":
        return self

    def __mul__(self, q: object) -> "_Infinity":
        if isinstance(q, (int, Fraction)):
            if q == 0:
                raise ValueError("0 * inf is undefined")
            return self
        return NotImplemented

    __rmul__ = __mul__


INF = _Infinity()


class GammaElement:
    """A finitely supported rational sequence, kept in canonical sparse form.

    No zero coordinate is ever stored, so structural equality coincides
    with semantic equality and hashing is canonical.
    """

    __slots__ = ("_coords",)

    def __init__(self, coords: Union[Mapping[int, Rational], Iterable[Tuple[int, Rational]]] = ()):
        if isinstance(coords, Mapping):
            items = coords.items()
        else:
            items = coords
        acc: dict[int, Fraction] = {}
        for n, q in items:
            if json_int(n, "a coordinate index must be an integer") < 0:
                raise ValueError("coordinate index must be >= 0")
            q = _rational(q, f"coordinate {n} must be an int or a Fraction")
            if q:
                acc[n] = acc.get(n, Fraction(0)) + q
                if not acc[n]:
                    del acc[n]
        self._coords = tuple(sorted(acc.items()))

    @classmethod
    def from_list(cls, values: Iterable[Rational]) -> "GammaElement":
        return cls(enumerate(values))

    def coord(self, n: int) -> Fraction:
        for i, q in self._coords:
            if i == n:
                return q
            if i > n:
                break
        return _QZERO

    @property
    def is_zero(self) -> bool:
        return not self._coords

    @property
    def leading_index(self) -> int:
        """Index of the first nonzero coordinate. Raises on zero."""
        if not self._coords:
            raise ValueError("the zero element has no leading index")
        return self._coords[0][0]

    @property
    def leading_coeff(self) -> Fraction:
        if not self._coords:
            raise ValueError("the zero element has no leading coefficient")
        return self._coords[0][1]

    def truncate(self, k: int) -> Tuple[Fraction, ...]:
        """The first k coordinates as a dense tuple (zeros kept)."""
        dense = [_QZERO] * k
        for i, q in self._coords:
            if i >= k:
                break
            dense[i] = q
        return tuple(dense)

    def items(self) -> Tuple[Tuple[int, Fraction], ...]:
        return self._coords

    # -- group structure --------------------------------------------------

    def __add__(self, other: object):
        if isinstance(other, GammaElement):
            return _element(_merge(self._coords, other._coords, False))
        if other is INF:
            return INF
        return NotImplemented

    def __sub__(self, other: object):
        if isinstance(other, GammaElement):
            return _element(_merge(self._coords, other._coords, True))
        if other is INF:
            return INF
        return NotImplemented

    def __neg__(self) -> "GammaElement":
        return _element(tuple((n, -q) for n, q in self._coords))

    def __mul__(self, q: object):
        if isinstance(q, (int, Fraction)):
            if not q:
                return ZERO
            if not isinstance(q, Fraction):
                q = Fraction(q)
            return _element(tuple((n, q * c) for n, c in self._coords))
        return NotImplemented

    __rmul__ = __mul__

    def __abs__(self) -> "GammaElement":
        return self if self >= ZERO else -self

    # -- lexicographic order ----------------------------------------------

    def _cmp(self, other: "GammaElement") -> int:
        # sign of self - other without allocating the difference
        a, b = self._coords, other._coords
        i = j = 0
        while i < len(a) and j < len(b):
            na, qa = a[i]
            nb, qb = b[j]
            if na < nb:
                return 1 if qa > 0 else -1
            if nb < na:
                return -1 if qb > 0 else 1
            if qa != qb:
                return 1 if qa > qb else -1
            i += 1
            j += 1
        if i < len(a):
            return 1 if a[i][1] > 0 else -1
        if j < len(b):
            return -1 if b[j][1] > 0 else 1
        return 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GammaElement):
            return self._coords == other._coords
        if other is INF:
            return False
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coords)

    def __lt__(self, other: object) -> bool:
        if isinstance(other, GammaElement):
            return self._cmp(other) < 0
        if other is INF:
            return True
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, GammaElement):
            return self._cmp(other) <= 0
        if other is INF:
            return True
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, GammaElement):
            return self._cmp(other) > 0
        if other is INF:
            return False
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, GammaElement):
            return self._cmp(other) >= 0
        if other is INF:
            return False
        return NotImplemented

    def __repr__(self) -> str:
        return format_element(self)


GammaExt = Union[GammaElement, _Infinity]


def _element(coords: Tuple[Tuple[int, Fraction], ...]) -> GammaElement:
    """The trusted constructor: wrap a coordinate tuple that is already
    canonical (see the module docstring) without checking it."""
    out = object.__new__(GammaElement)
    out._coords = coords
    return out


def _merge(a, b, negate: bool) -> Tuple[Tuple[int, Fraction], ...]:
    """The canonical coordinates of a + b, or of a - b if negate, for
    canonical coordinate tuples a and b: one pass over both."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        na, qa = a[i]
        nb, qb = b[j]
        if na < nb:
            out.append(a[i])
            i += 1
        elif nb < na:
            out.append((nb, -qb) if negate else b[j])
            j += 1
        else:
            s = qa - qb if negate else qa + qb
            if s:
                out.append((na, s))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(((n, -q) for n, q in b[j:]) if negate else b[j:])
    return tuple(out)


ZERO = GammaElement()


def unit(n: int) -> GammaElement:
    """The basis vector e_n."""
    return GammaElement([(n, 1)])


def psi_point(n: int) -> GammaElement:
    """The staircase point E_n = e_0 + ... + e_{n-1}; requires n >= 1."""
    if n < 1:
        raise ValueError("psi points are E_n with n >= 1")
    return _element(tuple((i, _QONE) for i in range(n)))


def psi_point_index(x: GammaExt) -> Optional[int]:
    """Return n if x = E_n for some n >= 1, else None."""
    if not isinstance(x, GammaElement) or x.is_zero:
        return None
    coords = x.items()
    n = len(coords)
    if all(coords[i] == (i, 1) for i in range(n)):
        return n
    return None


def is_psi_point(x: GammaExt) -> bool:
    return psi_point_index(x) is not None


# -- literal syntax --------------------------------------------------------


# An optional sign, digits, and an optional '/' with a denominator; each
# part may be surrounded by whitespace.
_match_rational = re.compile(r"\s*([+-]?)\s*(\d+)\s*(?:/\s*(\d+)\s*)?").fullmatch


def parse_rational(text: str) -> Fraction:
    """Read a rational literal such as '3', '+3', '- 2/3' or ' 1 / 2 '.  The
    denominator must be positive; anything else is a ValueError."""
    m = _match_rational(text)
    if m is not None:
        sign, num, den = m.groups()
        if den is None:
            return Fraction(int(sign + num))
        if int(den):
            return Fraction(int(sign + num), int(den))
    raise ValueError(f"not a rational: {text!r}")


def json_int(value: object, message: str) -> int:
    """value if it is a JSON integer, else ValueError(f"{message}: {value!r}").
    Booleans, floats and numeric strings are refused, not read as 1, truncated
    or parsed."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{message}: {value!r}")
    return value


def _rational(value: object, message: str) -> Fraction:
    """value as a Fraction if it is an int (not a bool) or a Fraction, else
    ValueError(f"{message}: {value!r}").  Strings and floats are refused, not
    parsed or expanded in binary: text goes through ``parse_rational``."""
    if isinstance(value, Fraction):
        return value
    return Fraction(json_int(value, message))


def format_rational(q: Rational) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_element(text: str) -> GammaExt:
    """Parse the element literal syntax: '[q0, q1, ...]', '[]', or 'inf'."""
    text = text.strip()
    if text == "inf":
        return INF
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not an element literal: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ZERO
    return GammaElement.from_list(parse_rational(part) for part in body.split(","))


def format_element(x: GammaExt) -> str:
    """Print an element in the literal syntax (trailing zeros stripped)."""
    if x is INF:
        return "inf"
    assert isinstance(x, GammaElement)
    if x.is_zero:
        return "[]"
    top = x.items()[-1][0]
    return "[" + ", ".join(format_rational(x.coord(i)) for i in range(top + 1)) + "]"


# -- order helpers ----------------------------------------------------------


def compare(a: GammaExt, b: GammaExt) -> int:
    """Total order on Gamma with INF on top: -1, 0, or 1."""
    if a is INF:
        return 0 if b is INF else 1
    if b is INF:
        return -1
    return a._cmp(b)


# -- the couple's primitives ------------------------------------------------


def psi(x: GammaExt) -> GammaExt:
    """Send a nonzero element with leading index n to E_{n+1}; psi(0) = psi(INF) = INF."""
    if x is INF or x.is_zero:
        return INF
    return psi_point(x.leading_index + 1)


def _integration_index(x: GammaElement) -> int:
    # The unique n with x_i = 1 for i < n and x_n != 1; the integral of x
    # then has leading index exactly n.
    n = 0
    for i, q in x._coords:
        if i != n or q != 1:
            break
        n += 1
    return n


def integral(x: GammaExt) -> GammaExt:
    """The unique beta with beta + psi(beta) = x; strictly increasing; integral(INF) = INF."""
    if x is INF:
        return INF
    return x - psi_point(_integration_index(x) + 1)


def succ(x: GammaExt) -> GammaExt:
    """The successor s(x) = psi(integral(x)); maps Gamma onto the psi set."""
    if x is INF:
        return INF
    return psi_point(_integration_index(x) + 1)


def pred(x: GammaExt) -> GammaExt:
    """Partial inverse of succ: E_{n+1} -> E_n for n >= 1, INF elsewhere."""
    n = psi_point_index(x)
    if n is None or n < 2:
        return INF
    return psi_point(n - 1)


def delta(n: int, x: GammaExt) -> GammaExt:
    """Division by a positive integer, delta_n(x) = x/n; delta_n(INF) = INF."""
    if n < 1:
        raise ValueError("delta_n requires n >= 1")
    if x is INF:
        return INF
    return x * Fraction(1, n)


def small_diff_witness(eps: GammaElement) -> Tuple[GammaElement, GammaElement]:
    """Two psi points delta0 = s(psi(eps)), delta1 = psi(eps) whose positive
    difference sits below eps in the psi order: psi(delta0 - delta1) > psi(eps)."""
    if eps is INF:
        raise ValueError("small_diff_witness requires a group element, not inf")
    if not isinstance(eps, GammaElement) or eps <= ZERO:
        raise ValueError("small_diff_witness requires eps > 0")
    d1 = psi(eps)
    d0 = succ(d1)
    assert isinstance(d0, GammaElement) and isinstance(d1, GammaElement)
    return d0, d1


def rv_equiv(x: GammaElement, y: GammaElement) -> bool:
    """The leading-term equivalence: psi(x) < psi(x - y)."""
    if not isinstance(x, GammaElement) or not isinstance(y, GammaElement):
        raise ValueError("rv_equiv requires group elements")
    if x.is_zero or y.is_zero:
        raise ValueError("rv_equiv requires nonzero arguments")
    return compare(psi(x), psi(x - y)) < 0


def arch_class(x: GammaElement) -> int:
    """Token for the archimedean class: the leading index."""
    if not isinstance(x, GammaElement) or x.is_zero:
        raise ValueError("arch_class requires a nonzero group element")
    return x.leading_index


def psi_precedes(a: GammaElement, b: GammaElement) -> bool:
    """a strictly below b in the psi order: psi(a) > psi(b)."""
    for v in (a, b):
        if not isinstance(v, GammaElement) or v.is_zero:
            raise ValueError("psi_precedes requires nonzero group elements")
    return compare(psi(a), psi(b)) > 0
