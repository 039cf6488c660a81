"""Parser, AST, and evaluator for the couple's term language.

Terms are built from variables, element literals, negation, addition,
scalar division d<n>, and the primitives psi, s, p, and the asymptotic
integral.  The integral is not a primitive of the language but is
definable from s, and the evaluator keeps int(t) == t - s(t) exact.

Generalized s-functions (rational combinations of shifted arguments
s^k(alpha_i) plus an offset, with negative shifts read as predecessors)
live here too, together with their exact images as constrained images.
"""

from __future__ import annotations

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
    psi_argument,
    staircase_sum,
    succ,
)
from .psifun import Atom, ConstrainedImage, PsiFunction

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
    "gensfun_image",
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
        n = psi_argument(a, "arguments must be psi points")
        if n < 1:
            raise ValueError("psi points are E_n with n >= 1")
        indices.append(n)
    drops = [(indices[i] + k, q) for i, k, q in F.terms if q]
    if F.offset is INF or any(n < 1 for n, _ in drops):
        return INF
    return F.offset + staircase_sum(drops)


def gensfun_image(F: GenSFunction, order: Iterable[Tuple[int, int]] = ()) -> ConstrainedImage:
    """The exact image of F over tuples of psi points, as one constrained
    image; each pair (i, j) of ``order`` restricts it to alpha_i < alpha_j.

    Each nonzero term (i, k) gets a label N_(i,k), numbered by variable and,
    within a variable, by descending shift; its coefficient is the term's.
    The variable's lowest-shift label is its anchor, with shift k0.  Atoms:
    N_(i,k) - N_(i,k0) = k - k0 for every other label of the variable, then
    N_(i,k0) >= 1 + k0 when k0 > 0; then, per pair (i, j), N_(i,k0_i) -
    N_(j,k0_j) <= k0_i - k0_j - 1.

    Why this is exact.  At alpha_i = E_(n_i), s^k(alpha_i) = E_(n_i + k),
    so F(n) is finite exactly when every nonzero term has n_i + k >= 1 (the
    offset is finite here), and then F(n) is the base map at the indices
    N_(i,k) = n_i + k.  Map n to that N.  A finite value gives indices
    N >= 1, the range of every PsiFunction label, that satisfy the ties,
    and N_(i,k0) = n_i + k0 >= 1 + k0.  Conversely, indices N >= 1 that
    satisfy the atoms give n_i = N_(i,k0) - k0 >= 1 (by the ``ge`` atom when
    k0 > 0, and as N_(i,k0) >= 1 when k0 <= 0), and the ties give back
    every N_(i,k) = n_i + k, each >= 1, so F is finite at n.  The two maps
    are inverse to each other.  Since E_n < E_m exactly when n < m,
    alpha_i < alpha_j reads n_i - n_j <= -1, which is the order atom once
    n_i = N_(i,k0_i) - k0_i and n_j = N_(j,k0_j) - k0_j.  So n -> N is a
    bijection between the argument tuples with a finite value that satisfy
    the order and the index tuples that satisfy the atoms, where an
    argument tuple keeps only the variables with a nonzero term (the others
    change no value), and F(n) is the base map at N.

    An offset of inf (F has no finite value) is refused, as is an order pair
    that is not two variable indices below the arity or names a variable
    with no nonzero term, which has no label to bind."""
    if F.offset is INF:
        raise ValueError("a generalized s-function with offset inf has no finite value")
    coeffs: Dict[int, Fraction] = {}
    atoms: List[Atom] = []
    anchors: Dict[int, Tuple[int, int]] = {}  # variable -> (anchor label, its shift)
    for var in range(F.arity):
        row = sorted(((k, q) for i, k, q in F.terms if i == var and q), reverse=True)
        if not row:
            continue
        first = len(coeffs)
        coeffs.update((first + r, q) for r, (_, q) in enumerate(row))
        anchor, k0 = len(coeffs) - 1, row[-1][0]
        anchors[var] = (anchor, k0)
        atoms += [Atom("diff_eq", i=first + r, j=anchor, c=k - k0) for r, (k, _) in enumerate(row[:-1])]
        if k0 > 0:
            atoms.append(Atom("ge", i=anchor, c=1 + k0))
    for pair in order:
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(type(v) is int and 0 <= v < F.arity for v in pair)):
            raise ValueError(f"an order pair is two variable indices below the arity {F.arity}: {pair!r}")
        unbound = [v for v in pair if v not in anchors]
        if unbound:
            raise ValueError(f"variable {unbound[0]} of the order pair {pair!r} has no nonzero term")
        (a, ka), (b, kb) = anchors[pair[0]], anchors[pair[1]]
        atoms.append(Atom("diff_le", i=a, j=b, c=ka - kb - 1))
    return ConstrainedImage(PsiFunction(coeffs, F.offset), atoms)
