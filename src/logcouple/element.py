"""Exact arithmetic and primitives of the computable asymptotic couple.

The ground group is the set of finitely supported rational sequences
(r_0, r_1, r_2, ...) under lexicographic order: a nonzero element is
positive iff its first nonzero coordinate is.  On top of the group we
have the valuation-like map ``psi`` (leading index n goes to the
staircase point E_{n+1} = e_0 + ... + e_n), the asymptotic integral,
the successor/predecessor pair, and a distinguished top value ``INF``
that makes every primitive total.

``_Infinity`` alone holds the rules of ``INF``: it lies above every group
element and absorbs addition and subtraction.  The operators of
``GammaElement`` answer only for two group elements and return
NotImplemented otherwise, so Python asks ``_Infinity``'s reflected method,
and ``==`` and ``!=`` with ``INF`` fall back to identity.

All values are immutable and all operations are pure.

An element stores one positive integer denominator ``den`` and a tuple of
(index, numerator) pairs with integer numerators: sorted by index, no zero
numerator, and ``gcd(den, *numerators) == 1``; zero is ``den = 1`` and no
pairs.  Coordinate n is its numerator over ``den``, which ``denominator``
reads, and ``items()``, ``coord`` and ``truncate`` show it as a ``Fraction``.
The public constructor ``GammaElement(...)`` accepts any (index, value)
pairs and validates and normalises them.  The private
``_element(den, nums)`` wraps a pair that is already canonical and checks
nothing; only this module calls it, and only with numerators derived from
canonical ones and reduced by their common factor with the denominator (a
merge of two sorted tuples over the least common multiple of their
denominators that drops zero sums, a negation, a product with a nonzero
rational, the staircase point E_n, and ``staircase_sum``'s runs of integer
running sums that skip zero ones).  Everything else goes through the
public constructor.

``staircase_sum`` is the one computation behind every affine map of the
small-set calculus: ``PsiFunction.evaluate`` is an offset plus
sum q * E_n, and a generalized s-function is the same sum at shifted
indices, because s(E_n) = E_{n+1}.  ``staircase_size`` counts the nonzero
coordinates of that sum from the same walk, without building it.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Mapping, Optional, Tuple, Union

__all__ = [
    "GammaElement",
    "GammaExt",
    "INF",
    "ZERO",
    "unit",
    "psi_point",
    "psi_point_index",
    "is_psi_point",
    "staircase_sum",
    "staircase_size",
    "parse_element",
    "format_element",
    "parse_integer",
    "parse_rational",
    "format_rational",
    "json_int",
    "psi_argument",
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


@functools.total_ordering
class _Infinity:
    """The adjoined top value: greater than every group element, absorbing."""

    _instance: Optional["_Infinity"] = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    # Order: INF is strictly above all of Gamma; <=, > and >= follow.
    def __lt__(self, other: object) -> bool:
        if other is self or isinstance(other, GammaElement):
            return False
        return NotImplemented

    # Arithmetic: alpha + INF = INF + alpha = alpha - INF = INF - alpha = -INF = INF.
    def __add__(self, other: object) -> "_Infinity":
        if other is self or isinstance(other, GammaElement):
            return self
        return NotImplemented

    __radd__ = __sub__ = __rsub__ = __add__

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

    Coordinate n is ``c / den`` for one positive integer ``den`` and the
    integer numerator c of the pair (n, c) in ``_nums``.  No zero numerator
    is stored and ``gcd(den, *numerators) == 1``, so structural equality
    coincides with semantic equality and hashing is canonical.
    """

    __slots__ = ("_den", "_nums")

    def __init__(self, coords: Union[Mapping[int, Rational], Iterable[Tuple[int, Rational]]] = ()):
        if isinstance(coords, Mapping):
            items = coords.items()
        else:
            items = coords
        acc: dict[int, Rational] = {}
        for n, q in items:
            _index(n)
            if not isinstance(q, Fraction):
                json_int(q, f"coordinate {n} must be an int or a Fraction")
            acc[n] = acc[n] + q if n in acc else q
        # Over the least common multiple of the reduced denominators, the
        # numerators share no factor with it: a prime at its highest power
        # in one denominator does not divide that value's scaled numerator.
        pairs = sorted((n, q) for n, q in acc.items() if q)
        den = lcm(*(q.denominator for _, q in pairs))
        self._den = den
        self._nums = tuple((n, q.numerator * (den // q.denominator)) for n, q in pairs)

    @classmethod
    def from_list(cls, values: Iterable[Rational]) -> "GammaElement":
        return cls(enumerate(values))

    def coord(self, n: int) -> Fraction:
        for i, c in self._nums:
            if i == n:
                return Fraction(c, self._den)
            if i > n:
                break
        return _QZERO

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def leading_index(self) -> int:
        """Index of the first nonzero coordinate. Raises on zero."""
        if not self._nums:
            raise ValueError("the zero element has no leading index")
        return self._nums[0][0]

    @property
    def last_index(self) -> int:
        """Index of the last nonzero coordinate. Raises on zero."""
        if not self._nums:
            raise ValueError("the zero element has no last index")
        return self._nums[-1][0]

    @property
    def denominator(self) -> int:
        """The least common denominator of the coordinates (1 for zero)."""
        return self._den

    def truncate(self, k: int) -> Tuple[Fraction, ...]:
        """The first k coordinates as a dense tuple (zeros kept)."""
        dense = [_QZERO] * k
        for i, c in self._nums:
            if i >= k:
                break
            dense[i] = Fraction(c, self._den)
        return tuple(dense)

    def prefix_numerators(self, k: int) -> Tuple[int, List[int]]:
        """(d, nums) with coordinate i < k equal to nums[i] / d, where d is
        the least common denominator of those k coordinates."""
        nums = [0] * k
        for i, c in self._nums:
            if i >= k:
                break
            nums[i] = c
        g = gcd(self._den, *nums)
        if g == 1:
            return self._den, nums
        return self._den // g, [c // g for c in nums]

    def numerators(self) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
        """(den, pairs): the stored form, the nonzero coordinates as sorted
        (index, c) pairs, coordinate index being c / den."""
        return self._den, self._nums

    def items(self) -> Tuple[Tuple[int, Fraction], ...]:
        """The nonzero coordinates as sorted (index, value) pairs."""
        den = self._den
        return tuple((n, Fraction(c, den)) for n, c in self._nums)

    # -- group structure --------------------------------------------------

    def __add__(self, other: object):
        if isinstance(other, GammaElement):
            return _combine(self, other, 1)
        return NotImplemented

    def __sub__(self, other: object):
        if isinstance(other, GammaElement):
            return _combine(self, other, -1)
        return NotImplemented

    def __neg__(self) -> "GammaElement":
        return _element(self._den, tuple((n, -c) for n, c in self._nums))

    def __mul__(self, q: object):
        if isinstance(q, (int, Fraction)):
            if not q:
                return ZERO
            den, p = self._den * q.denominator, q.numerator
            return _reduced(den, [(n, p * c) for n, c in self._nums], den)
        return NotImplemented

    __rmul__ = __mul__

    def __abs__(self) -> "GammaElement":
        return self if self >= ZERO else -self

    # -- lexicographic order ----------------------------------------------

    def _cmp(self, other: "GammaElement") -> int:
        # sign of self - other without allocating the difference
        a, b = self._nums, other._nums
        da, db = self._den, other._den
        for (na, ca), (nb, cb) in zip(a, b):
            if na != nb:
                # the smaller index is a coordinate of one side only
                return (1 if ca > 0 else -1) if na < nb else (-1 if cb > 0 else 1)
            ua, ub = ca * db, cb * da
            if ua != ub:
                return 1 if ua > ub else -1
        if len(a) > len(b):
            return 1 if a[len(b)][1] > 0 else -1
        if len(b) > len(a):
            return -1 if b[len(a)][1] > 0 else 1
        return 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GammaElement):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._den, self._nums))

    def __lt__(self, other: object) -> bool:
        if isinstance(other, GammaElement):
            return self._cmp(other) < 0
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, GammaElement):
            return self._cmp(other) <= 0
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, GammaElement):
            return self._cmp(other) > 0
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, GammaElement):
            return self._cmp(other) >= 0
        return NotImplemented

    def __repr__(self) -> str:
        return format_element(self)


GammaExt = Union[GammaElement, _Infinity]


def _element(den: int, nums: Tuple[Tuple[int, int], ...]) -> GammaElement:
    """The trusted constructor: wrap a denominator and numerator tuple that
    are already canonical (see the module docstring) without checking them."""
    out = object.__new__(GammaElement)
    out._den = den
    out._nums = nums
    return out


def _reduced(den: int, nums: list, g: int) -> GammaElement:
    """The element with the sorted nonzero integer numerators nums over den,
    after dividing out their common factor with den, which divides g."""
    g = gcd(g, *[c for _, c in nums])
    if g != 1:
        den //= g
        nums = [(n, c // g) for n, c in nums]
    return _element(den, tuple(nums))


def _combine(x: GammaElement, y: GammaElement, sign: int) -> GammaElement:
    """x + sign * y for sign 1 or -1: one merge of the numerators over the
    least common multiple of the denominators, then one reduction.  A prime
    dividing that multiple and every numerator divides both denominators
    (Knuth, TAOCP Vol. 2, 4.5.1), so the common factor divides their gcd."""
    da, db = x._den, y._den
    g = gcd(da, db)
    sa, sb = db // g, sign * (da // g)
    a, b = x._nums, y._nums
    la, lb = len(a), len(b)
    out = []
    i = j = 0
    while i < la and j < lb:
        na, ca = a[i]
        nb, cb = b[j]
        if na < nb:
            out.append((na, ca * sa))
            i += 1
        elif nb < na:
            out.append((nb, cb * sb))
            j += 1
        else:
            s = ca * sa + cb * sb
            if s:
                out.append((na, s))
            i += 1
            j += 1
    if i < la:
        out += [(n, c * sa) for n, c in a[i:]]
    if j < lb:
        out += [(n, c * sb) for n, c in b[j:]]
    if g == 1:
        return _element(da * sa, tuple(out))
    return _reduced(da * sa, out, g)


ZERO = GammaElement()


def _index(n: object) -> int:
    """n if it is a valid coordinate index, else ValueError."""
    if json_int(n, "a coordinate index must be an integer") < 0:
        raise ValueError("coordinate index must be >= 0")
    return n


def unit(n: int) -> GammaElement:
    """The basis vector e_n."""
    return _element(1, ((_index(n), 1),))


# The numerators of E_1, ..., E_64 are slices of this table, which never
# grows; larger staircases are built when asked for.
_STAIRS = tuple((i, 1) for i in range(64))


def _stairs(n: int) -> Tuple[Tuple[int, int], ...]:
    return _STAIRS[:n] if n <= len(_STAIRS) else tuple((i, 1) for i in range(n))


def psi_point(n: int) -> GammaElement:
    """The staircase point E_n = e_0 + ... + e_{n-1}; requires n >= 1."""
    if n < 1:
        raise ValueError("psi points are E_n with n >= 1")
    return _element(1, _stairs(n))


def _staircase_runs(pairs: Iterable[Tuple[int, Rational]]) -> Tuple[int, list]:
    """(den, runs) for sum q * E_n over the (n, q) pairs: coordinate c lies
    in one run (lo, hi, t) with lo <= c < hi and is t / den, or is 0.

    Coordinate c is the sum of the q with n > c, so the walk takes the
    indices downwards and keeps that sum, times the common denominator of
    the q, as a running integer total; the runs come from the top down,
    and none is empty or has a zero total."""
    drops = sorted(pairs, reverse=True)
    if drops and drops[-1][0] < 1:
        raise ValueError("psi indices start at 1")
    den = lcm(*(q.denominator for _, q in drops))
    runs = []
    total = top = 0
    for n, q in drops:
        if total and n < top:
            runs.append((n, top, total))
        total += q.numerator * (den // q.denominator)
        top = n
    if total:
        runs.append((0, top, total))
    return den, runs


def staircase_sum(pairs: Iterable[Tuple[int, Rational]]) -> GammaElement:
    """sum q * E_n over (index n, rational q) pairs with integer n >= 1 (an
    index below 1 is a ValueError), built in one walk of the sorted indices
    (``_staircase_runs``) and one reduction."""
    den, runs = _staircase_runs(pairs)
    nums = [(c, t) for lo, hi, t in reversed(runs) for c in range(lo, hi)]
    return _reduced(den, nums, den)


def staircase_size(pairs: Iterable[Tuple[int, Rational]]) -> int:
    """The number of nonzero coordinates of ``staircase_sum(pairs)``, read
    off its runs without building it, so its cost does not grow with the
    indices."""
    return sum(hi - lo for lo, hi, _ in _staircase_runs(pairs)[1])


def psi_point_index(x: GammaExt) -> Optional[int]:
    """Return n if x = E_n for some n >= 1, else None."""
    if not isinstance(x, GammaElement) or x.is_zero or x._den != 1:
        return None
    n = len(x._nums)
    return n if x._nums == _stairs(n) else None


def is_psi_point(x: GammaExt) -> bool:
    return psi_point_index(x) is not None


# -- literal syntax --------------------------------------------------------


# An optional sign and digits, for a rational then an optional '/' with a
# denominator; each part may be surrounded by whitespace.
_INTEGER = r"\s*([+-]?)\s*(\d+)\s*"
_match_integer = re.compile(_INTEGER).fullmatch
_match_rational = re.compile(_INTEGER + r"(?:/\s*(\d+)\s*)?").fullmatch


def parse_integer(text: str) -> int:
    """Read an integer literal such as '7', '+7' or ' - 2': the grammar of
    ``parse_rational`` without a denominator, so '1_0' and '7/1' are
    ValueErrors."""
    m = _match_integer(text)
    if m is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(m.group(1) + m.group(2))


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


def psi_argument(value: object, message: str) -> int:
    """n for the psi point E_n or for the JSON integer n, the one reader of
    "E_n or n" arguments; the bound n >= 1 is the caller's.  An element
    that is no psi point is ValueError(message), and any other value is
    read by ``json_int`` with the same message."""
    if isinstance(value, GammaElement):
        n = psi_point_index(value)
        if n is None:
            raise ValueError(message)
        return n
    return json_int(value, message)


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
    # each part in the grammar of parse_rational, kept as integers and
    # put over the lcm of the denominators once
    den, parts = 1, []
    for n, part in enumerate(body.split(",")):
        m = _match_rational(part)
        d = int(m[3] or 1) if m else 0
        if not d:
            raise ValueError(f"not a rational: {part!r}")
        if num := int(m[1] + m[2]):
            parts.append((n, num, d))
            den = lcm(den, d)
    return _reduced(den, [(n, num * (den // d)) for n, num, d in parts], den)


def format_element(x: GammaExt) -> str:
    """Print an element in the literal syntax (trailing zeros stripped)."""
    if x is INF:
        return "inf"
    assert isinstance(x, GammaElement)
    parts: list = []
    for i, q in x.items():
        parts += ["0"] * (i - len(parts))
        parts.append(format_rational(q))
    return "[" + ", ".join(parts) + "]"


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
    for i, c in x._nums:
        if i != n or c != x._den:
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
