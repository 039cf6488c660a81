"""Parser, AST, and evaluator for the couple's term language.

Terms are built from variables, element literals, negation, addition,
scalar division d<n>, and the primitives psi, s, p, and the asymptotic
integral.  The integral is not a primitive of the language but is
definable from s, and the evaluator keeps int(t) == t - s(t) exact.

Generalized s-functions (rational combinations of shifted arguments
s^k(alpha_i) plus an offset, with negative shifts read as predecessors)
live here too, together with their covering by affine maps.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .element import (
    GammaElement,
    GammaExt,
    INF,
    ZERO,
    _rational,
    delta,
    format_element,
    format_rational,
    integral,
    json_int,
    parse_element,
    parse_rational,
    pred,
    psi,
    psi_point_index,
    staircase_sum,
    succ,
)
from .psifun import PsiFunction

__all__ = [
    "Var",
    "Const",
    "Add",
    "Neg",
    "Delta",
    "Psi",
    "Succ",
    "Pred",
    "Integ",
    "TermSyntaxError",
    "UnboundVariableError",
    "PRIMITIVES",
    "parse_term",
    "print_term",
    "free_vars",
    "eval_term",
    "GenSFunction",
    "eval_gensfun",
    "gensfun_cover",
    "AffineReport",
    "local_slope",
]


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: GammaExt


@dataclass(frozen=True)
class Add:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Neg:
    arg: "Term"


@dataclass(frozen=True)
class Delta:
    n: int
    arg: "Term"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("d_n requires a positive integer")


@dataclass(frozen=True)
class Psi:
    arg: "Term"


@dataclass(frozen=True)
class Succ:
    arg: "Term"


@dataclass(frozen=True)
class Pred:
    arg: "Term"


@dataclass(frozen=True)
class Integ:
    arg: "Term"


Term = Union[Var, Const, Add, Neg, Delta, Psi, Succ, Pred, Integ]

# The couple's primitives, each as (name, node, function): the name a term
# and the CLI verb spell it with, its AST node, and what evaluates it.
PRIMITIVES = (("psi", Psi, psi), ("int", Integ, integral), ("s", Succ, succ), ("p", Pred, pred))
_PRIMITIVE_OF_NODE = {node: (name, fn) for name, node, fn in PRIMITIVES}


class TermSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnboundVariableError(ValueError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


# A whole '[...]' literal is one token, read by element.parse_element; an
# unclosed one runs to the end of the input, which parse_element refuses.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<elem>\[[^\]]*\]?)|(?P<punct>[()+-]))"
)

_DELTA_RE = re.compile(r"d(\d+)$")

# The deepest term parse_term accepts.  Every parenthesis, unary operator,
# function call and link of a sum adds a level; the bound keeps parsing and
# the recursive walks over terms well inside Python's recursion limit.
_MAX_DEPTH = 100


def _too_deep(pos: int) -> TermSyntaxError:
    return TermSyntaxError(f"term nested deeper than {_MAX_DEPTH} levels", pos)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: List[Tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise TermSyntaxError(f"unexpected character {stripped[0]!r}", pos)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0
        self.open = 0  # parse_unary calls on the stack

    def peek(self) -> Optional[Tuple[str, str, int]]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise TermSyntaxError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.next()
        if tok[1] != value:
            raise TermSyntaxError(f"expected {value!r}, found {tok[1]!r}", tok[2])

    # Each parse_* method returns the term and its depth.
    # term := unary (('+'|'-') unary)*
    def parse_sum(self) -> Tuple[Term, int]:
        t, depth = self.parse_unary()
        while True:
            tok = self.peek()
            if tok and tok[1] in "+-":
                self.next()
                rhs, rhs_depth = self.parse_unary()
                if tok[1] == "-":
                    rhs, rhs_depth = Neg(rhs), rhs_depth + 1
                t, depth = Add(t, rhs), max(depth, rhs_depth) + 1
            else:
                return t, depth

    def parse_unary(self) -> Tuple[Term, int]:
        tok = self.peek()
        self.open += 1
        if self.open > _MAX_DEPTH:
            raise _too_deep(tok[2] if tok else len(self.text))
        if tok and tok[1] == "-":
            self.next()
            t, depth = self.parse_unary()
            t, depth = Neg(t), depth + 1
        else:
            t, depth = self.parse_primary()
        self.open -= 1
        return t, depth

    def parse_primary(self) -> Tuple[Term, int]:
        tok = self.next()
        kind, value, pos = tok
        if value == "(":
            inner, depth = self.parse_sum()
            self.expect(")")
            return inner, depth + 1
        if kind == "elem":
            try:
                return Const(parse_element(value)), 1
            except ValueError as exc:
                raise TermSyntaxError(str(exc), pos) from None
        if kind == "ident":
            if value == "inf":
                return Const(INF), 1
            nxt = self.peek()
            if nxt and nxt[1] == "(":
                ctor = next((node for name, node, _ in PRIMITIVES if name == value), None)
                dm = _DELTA_RE.match(value)
                if ctor is None and dm:
                    n = int(dm.group(1))
                    if n < 1:
                        raise TermSyntaxError("d_n requires a positive n", pos)
                    ctor = lambda arg: Delta(n, arg)
                if ctor is not None:
                    self.expect("(")
                    inner, depth = self.parse_sum()
                    self.expect(")")
                    return ctor(inner), depth + 1
                raise TermSyntaxError(f"unknown function {value!r}", pos)
            return Var(value), 1
        raise TermSyntaxError(f"unexpected token {value!r}", pos)


def parse_term(text: str) -> Term:
    """Parse a term; TermSyntaxError on bad input, or on a term nested
    deeper than _MAX_DEPTH levels."""
    parser = _Parser(text)
    t, depth = parser.parse_sum()
    tok = parser.peek()
    if tok is not None:
        raise TermSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    if depth > _MAX_DEPTH:
        raise _too_deep(0)
    return t


def print_term(t: Term) -> str:
    """Render a term; parse_term(print_term(t)) == t structurally."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return format_element(t.value)
    if isinstance(t, Add):
        left = print_term(t.left)
        if isinstance(t.right, Add):
            return f"{left} + ({print_term(t.right)})"
        if isinstance(t.right, Neg):
            inner = t.right.arg
            body = print_term(inner)
            if isinstance(inner, (Add, Neg)):
                return f"{left} - ({body})"
            return f"{left} - {body}"
        return f"{left} + {print_term(t.right)}"
    if isinstance(t, Neg):
        body = print_term(t.arg)
        if isinstance(t.arg, Add):
            return f"-({body})"
        return f"-{body}"
    if isinstance(t, Delta):
        return f"d{t.n}({print_term(t.arg)})"
    if type(t) not in _PRIMITIVE_OF_NODE:
        raise TypeError(f"not a term: {t!r}")
    return f"{_PRIMITIVE_OF_NODE[type(t)][0]}({print_term(t.arg)})"


def free_vars(t: Term) -> Set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Const):
        return set()
    if isinstance(t, Add):
        return free_vars(t.left) | free_vars(t.right)
    return free_vars(t.arg)


def eval_term(t: Term, env: Mapping[str, GammaExt]) -> GammaExt:
    """Structural evaluation over the extended group; total thanks to the
    default value of every primitive at infinity."""
    if isinstance(t, Var):
        if t.name not in env:
            raise UnboundVariableError(t.name)
        return env[t.name]
    if isinstance(t, Const):
        return t.value
    if isinstance(t, Add):
        return eval_term(t.left, env) + eval_term(t.right, env)
    if isinstance(t, Neg):
        return -eval_term(t.arg, env)
    if isinstance(t, Delta):
        return delta(t.n, eval_term(t.arg, env))
    if type(t) not in _PRIMITIVE_OF_NODE:
        raise TypeError(f"not a term: {t!r}")
    return _PRIMITIVE_OF_NODE[type(t)][1](eval_term(t.arg, env))


# -- generalized s-functions ---------------------------------------------------


class GenSFunction:
    """A finite rational combination of shifted arguments plus an offset:
    alpha -> sum q[(i, k)] * s^k(alpha_i) + beta, where negative shifts are
    read as predecessors (and may push a value off the psi set to inf).

    Zero coefficients are kept in the table so arity and shape survive
    serialization round trips; they contribute nothing when evaluating.
    """

    __slots__ = ("arity", "terms", "offset")

    def __init__(
        self,
        arity: int,
        terms: Iterable[Tuple[int, int, object]] = (),
        offset: GammaExt = ZERO,
    ):
        json_int(arity, "'arity' of a generalized s-function must be an integer")
        if arity < 0:
            raise ValueError("arity must be >= 0")
        self.arity = arity
        normalized: List[Tuple[int, int, Fraction]] = []
        seen = set()
        for var, shift, coeff in terms:
            json_int(var, "'var' of a term must be an integer")
            json_int(shift, "'shift' of a term must be an integer")
            if not 0 <= var < arity:
                raise ValueError(f"variable index {var} out of range")
            if (var, shift) in seen:
                raise ValueError(f"duplicate (variable, shift) pair ({var}, {shift})")
            seen.add((var, shift))
            normalized.append((var, shift, _rational(coeff, "'coeff' of a term must be an int or a Fraction")))
        self.terms = tuple(sorted(normalized, key=lambda t: (t[0], t[1])))
        if offset is not INF and not isinstance(offset, GammaElement):
            raise ValueError(f"'offset' of a generalized s-function must be a group element or inf: {offset!r}")
        self.offset = offset

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GenSFunction):
            return (
                self.arity == other.arity
                and self.terms == other.terms
                and self.offset == other.offset
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.arity, self.terms, self.offset))

    def __repr__(self) -> str:
        pieces = [
            f"{format_rational(q)}*s^{k}(a{i})" for i, k, q in self.terms
        ]
        pieces.append(format_element(self.offset) if self.offset is not INF else "inf")
        return " + ".join(pieces)

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "terms": [
                {"var": i, "shift": k, "coeff": format_rational(q)}
                for i, k, q in self.terms
            ],
            "offset": format_element(self.offset),
        }

    @staticmethod
    def from_json(obj: Mapping) -> "GenSFunction":
        if not isinstance(obj, Mapping):
            raise ValueError("a generalized s-function is a JSON object")
        terms = obj.get("terms", [])
        if not isinstance(terms, list) or not all(isinstance(t, Mapping) for t in terms):
            raise ValueError(f"'terms' of a generalized s-function must be a list of objects: {terms!r}")
        offset = obj.get("offset", "[]")
        if not isinstance(offset, str):
            raise ValueError(f"'offset' of a generalized s-function must be an element string: {offset!r}")
        for t in terms:
            if "coeff" not in t:
                raise ValueError("a term of a generalized s-function is missing the key 'coeff'")
        return GenSFunction(
            obj.get("arity"),
            [(t.get("var"), t.get("shift"), parse_rational(str(t["coeff"]))) for t in terms],
            parse_element(offset),
        )


def eval_gensfun(F: GenSFunction, args: Sequence) -> GammaExt:
    """Evaluate at a tuple of psi points (or their indices).  Since
    s(E_n) = E_{n+1}, the value is the offset plus the staircase sum of the
    nonzero terms at the indices n_i + k; a predecessor falling off the psi
    set (an index below 1) makes the whole value inf."""
    if len(args) != F.arity:
        raise ValueError(f"expected {F.arity} arguments, got {len(args)}")
    indices: List[int] = []
    for a in args:
        if isinstance(a, GammaElement):
            n = psi_point_index(a)
            if n is None:
                raise ValueError("arguments must be psi points")
        else:
            n = operator.index(a)
            if n < 1:
                raise ValueError("psi points are E_n with n >= 1")
        indices.append(n)
    drops = [(indices[i] + k, q) for i, k, q in F.terms if q]
    if F.offset is INF or any(n < 1 for n, _ in drops):
        return INF
    return F.offset + staircase_sum(drops)


def gensfun_cover(F: GenSFunction) -> PsiFunction:
    """An affine map whose image contains every finite value of F: one fresh
    index per nonzero table entry, same offset."""
    nonzero = [(i, k, q) for i, k, q in F.terms if q]
    if F.offset is INF:
        # no finite values at all; the empty cover
        return PsiFunction({}, ZERO)
    return PsiFunction(
        {fresh: q for fresh, (_, _, q) in enumerate(nonzero)}, F.offset
    )


# -- local affineness probe -----------------------------------------------------


@dataclass(frozen=True)
class AffineReport:
    slopes: Dict[str, Fraction]
    value: GammaExt


def _ratio(diff: GammaElement, h: GammaElement) -> Optional[Fraction]:
    # the rational q with diff = q*h, if any
    if diff.is_zero:
        return Fraction(0)
    if diff.leading_index != h.leading_index:
        return None
    q = diff.leading_coeff / h.leading_coeff
    return q if h * q == diff else None


def local_slope(
    t: Term,
    at: Union[GammaElement, Mapping[str, GammaElement]],
    radius: GammaElement,
) -> Optional[AffineReport]:
    """Probe t for an affine law around a point: evaluate at offsets
    +-radius/2^i (i = 1..4) in each variable, plus two joint offsets, and
    report the unique matching slopes and base value, or None.  This
    falsifies non-affineness on the probe set; it does not prove local
    affineness."""
    if not isinstance(radius, GammaElement) or radius <= ZERO:
        raise ValueError("radius must be a positive group element")
    names = sorted(free_vars(t))
    if isinstance(at, GammaElement):
        if len(names) != 1:
            raise ValueError("a bare point needs exactly one free variable")
        env = {names[0]: at}
    else:
        env = dict(at)
        missing = set(names) - set(env)
        if missing:
            raise ValueError(f"missing values for {sorted(missing)}")
    offsets = [radius * Fraction(1, 2**i) for i in range(1, 5)]
    offsets += [-h for h in offsets]
    base = eval_term(t, env)
    evaluations: Dict[Tuple[str, int], GammaExt] = {}
    any_inf = base is INF
    all_inf = base is INF
    for v in names:
        for idx, h in enumerate(offsets):
            shifted = dict(env)
            shifted[v] = env[v] + h
            val = eval_term(t, shifted)
            evaluations[(v, idx)] = val
            any_inf = any_inf or val is INF
            all_inf = all_inf and val is INF
    if any_inf:
        # all_inf: base and every probe are INF (just base when t has no variable)
        return AffineReport(dict.fromkeys(names, Fraction(0)), INF) if all_inf else None
    slopes: Dict[str, Fraction] = {}
    for v in names:
        q: Optional[Fraction] = None
        for idx, h in enumerate(offsets):
            val = evaluations[(v, idx)]
            ratio = _ratio(val - base, h)
            if ratio is None:
                return None
            if q is None:
                q = ratio
            elif q != ratio:
                return None
        slopes[v] = q
    # joint probes: the affine law must predict simultaneous offsets
    for i in (1, 2):
        h = radius * Fraction(1, 2**i)
        shifted = {v: env[v] + h for v in names}
        shifted.update({k: w for k, w in env.items() if k not in shifted})
        predicted = base
        for v in names:
            predicted = predicted + h * slopes[v]
        if eval_term(t, shifted) != predicted:
            return None
    return AffineReport(slopes, base)
