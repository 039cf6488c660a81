"""The small-set calculus: affine maps out of the psi set and their images.

A PsiFunction is an affine map (alpha_i) -> sum q_i * alpha_i + beta from
tuples of staircase points into the group, with nonzero rational
coefficients.  Finite unions of their images are exactly the sets whose
every quotient picture is degenerate, and they admit an exact derived-set
calculus: the limit points of image(F) are the images of the restrictions
F_{I\\J} over nonempty J with zero coefficient sum (under difference
constraints, over those J that the constraints leave unbounded and that
move F; see ``derived_set``).

Membership is one staircase search, on the shape of E_n = e_0+...+e_{n-1}:
one loop places the labels position by position, each block summing to
the drop of gamma - beta there, as integer subset sums of the coefficients
over one denominator, with zero-sum blocks free to sit beyond the support
(reported as parametric families).  It keeps its own stack, so the depth
it reaches is bounded by ``_MAX_DEPTH`` (4,096 coordinates), not by
Python's recursion limit.  It yields one family at a time: ``contains`` and
``member_constrained`` stop at the first family that answers them, and
``member`` lists them all.

Quotient images, counts, the limit-point probe and thickened membership
all read one enumerator of capped index profiles: the determinized
profile automaton (``_ProfileAutomaton``).  Everything here is pure and
immutable, but for one bounded cache of the constrained automata's
successor lists shared across calls (``_clock_memo``), which changes no
answer, only how often ``solve_min`` is asked.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .element import (
    GammaElement,
    INF,
    ZERO,
    _rational,
    format_element,
    format_rational,
    json_int,
    parse_element,
    parse_rational,
    psi_argument,
    psi_point,
    psi_point_index,
    staircase_size,
    staircase_sum,
)

__all__ = [
    "PsiFunction",
    "Atom",
    "ConstrainedImage",
    "MemberSolution",
    "derived_set",
    "d_rank",
    "closure",
    "member",
    "member_constrained",
    "contains",
    "limit_point_probe",
    "recover",
    "recovery_probes",
    "equilateral_max_clique",
    "solve_min",
    "satisfies",
    "sample_points",
    "product_derived_step",
    "product_derived_direct",
    "product_contains",
    "parse_linear",
    "fig2_set",
    "psifunction_to_json",
    "component_to_json",
    "component_from_json",
    "imageunion_to_json",
    "imageunion_from_json",
]


class PsiFunction:
    """An affine map out of a finite power of the psi set.

    ``coeffs`` maps integer index labels to nonzero rationals; an empty
    map denotes the constant function with value ``offset``.
    """

    __slots__ = ("_coeffs", "offset")

    def __init__(
        self,
        coeffs: Union[Mapping[int, object], Iterable[Tuple[int, object]]] = (),
        offset: GammaElement = ZERO,
    ):
        if isinstance(coeffs, Mapping):
            items = coeffs.items()
        else:
            items = coeffs
        acc = {}
        for label, q in items:
            json_int(label, "a label must be an integer")
            if label < 0:
                raise ValueError(f"labels are x0, x1, ...: {label} is negative")
            q = _rational(q, f"the coefficient of x{label} must be an int or a Fraction")
            if not q:
                raise ValueError(f"coefficient of x{label} must be nonzero")
            if label in acc:
                raise ValueError(f"duplicate label x{label}")
            acc[label] = q
        if not isinstance(offset, GammaElement):
            raise ValueError("offset must be a group element (not inf)")
        self._coeffs = tuple(sorted(acc.items()))
        self.offset = offset

    @property
    def labels(self) -> Tuple[int, ...]:
        return tuple(l for l, _ in self._coeffs)

    @property
    def coeffs(self) -> Dict[int, Fraction]:
        return dict(self._coeffs)

    @property
    def is_constant(self) -> bool:
        return not self._coeffs

    def norm(self) -> Fraction:
        """Sum of the coefficients (empty sum for constants)."""
        return sum((q for _, q in self._coeffs), Fraction(0))

    def restrict(self, J: Iterable[int]) -> "PsiFunction":
        """Keep the coefficients on J (a subset of the labels), same offset."""
        J = set(J)
        missing = J - set(self.labels)
        if missing:
            raise ValueError(f"labels not in index set: {sorted(missing)}")
        return PsiFunction(((l, q) for l, q in self._coeffs if l in J), self.offset)

    def evaluate(self, assignment) -> GammaElement:
        """Value at an index assignment (label -> n, or a sequence in label order)."""
        if not isinstance(assignment, Mapping):
            seq = tuple(assignment)
            if len(seq) != len(self._coeffs):
                raise ValueError("assignment length does not match arity")
            assignment = {l: seq[i] for i, (l, _) in enumerate(self._coeffs)}
        drops = []
        for l, q in self._coeffs:
            if l not in assignment:
                raise ValueError(f"the assignment gives no index for x{l}")
            n = psi_argument(assignment[l], "arguments must be psi points")
            if n < 1:
                raise ValueError("psi indices start at 1")
            drops.append((n, q))
        return self.offset + staircase_sum(drops)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PsiFunction):
            return self._coeffs == other._coeffs and self.offset == other.offset
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._coeffs, self.offset))

    def __repr__(self) -> str:
        if not self._coeffs:
            return format_element(self.offset)
        parts: List[str] = []
        for l, q in self._coeffs:
            mag = abs(q)
            body = f"x{l}" if mag == 1 else f"{format_rational(mag)} x{l}"
            if not parts:
                parts.append(body if q > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if q > 0 else '-'} {body}")
        if not self.offset.is_zero:
            parts.append(f"+ {format_element(self.offset)}")
        return " ".join(parts)


# -- difference constraints --------------------------------------------------

# Each atom kind and how ConstrainedImage prints it; ``Atom.edges`` says
# what it means.
_ATOM_KINDS = {
    "diff_le": "n{i} - n{j} <= {c}",
    "diff_eq": "n{i} - n{j} = {c}",
    "ge": "n{i} >= {c}",
    "le": "n{i} <= {c}",
}


@dataclass(frozen=True)
class Atom:
    """One conjunct over index variables: n_i - n_j <= c, n_i - n_j = c,
    n_i >= c, or n_i <= c, over integers i, j and c (a bool or a float is
    refused).  Only the two ``diff`` kinds take ``j``."""

    kind: str
    i: int
    c: int
    j: Optional[int] = None

    def __post_init__(self):
        for key in ("i", "j", "c"):
            value = getattr(self, key)
            if key != "j" or value is not None:
                json_int(value, f"the key {key!r} of a constraint atom must be an integer")
        if not isinstance(self.kind, str) or self.kind not in _ATOM_KINDS:
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if self.kind.startswith("diff") and self.j is None:
            raise ValueError(f"{self.kind} needs both variables")
        if not self.kind.startswith("diff") and self.j is not None:
            raise ValueError(f"{self.kind} bounds one variable and takes no 'j': {self.j!r}")
        for label in (self.i, self.j):
            if label is not None and label < 0:
                raise ValueError(f"labels are x0, x1, ...: {label} is negative")

    @functools.cached_property
    def edges(self) -> Tuple[Tuple[Optional[int], Optional[int], int], ...]:
        """The atom in the normal form of difference constraints (CLRS 24.4):
        edges (i, j, c), each meaning n_i - n_j <= c, where ``None`` stands
        for the constant 0."""
        if self.kind == "ge":
            return ((None, self.i, -self.c),)
        if self.kind == "le":
            return ((self.i, None, self.c),)
        if self.kind == "diff_le":
            return ((self.i, self.j, self.c),)
        return ((self.i, self.j, self.c), (self.j, self.i, -self.c))

    def to_json(self) -> dict:
        d = {"kind": self.kind, "i": self.i, "c": self.c}
        if self.j is not None:
            d["j"] = self.j
        return d

    @staticmethod
    def from_json(obj: Mapping) -> "Atom":
        if not isinstance(obj, Mapping):
            raise ValueError("a constraint atom is a JSON object")
        for key in ("kind", "i", "c"):
            if key not in obj:
                raise ValueError(f"a constraint atom is missing the key {key!r}")
        if obj.get("j", 0) is None:  # an explicit null is not an absent 'j'
            raise ValueError("the key 'j' of a constraint atom must be an integer: None")
        return Atom(kind=obj["kind"], **{key: obj[key] for key in ("i", "j", "c") if key in obj})


def satisfies(assignment: Mapping[int, int], atoms: Iterable[Atom]) -> bool:
    """Whether the index assignment (label -> n) meets every atom, read in
    the normal form ``Atom.edges`` with ``None`` as 0; a label that the
    assignment lacks raises KeyError."""
    x = {**assignment, None: 0}
    return all(x[i] - x[j] <= c for a in atoms for i, j, c in a.edges)


def solve_min(
    labels: Iterable[int],
    atoms: Iterable[Atom] = (),
    lower: Optional[Mapping[int, int]] = None,
    upper: Optional[Mapping[int, int]] = None,
) -> Optional[Dict[int, int]]:
    """Least integer solution of the difference-constraint system with all
    variables >= 1, or None if unsatisfiable.

    Bellman-Ford, longest-path form (CLRS 24.4), over the labels and a node
    fixed at 0 (``None`` in ``Atom.edges``): x starts at the lower bounds
    and the zero node at 0, and each pass raises n_j to n_i - c for every
    edge n_i - n_j <= c that x violates, an upper bound b on n_l being the
    edge (l, None, b).  Each raise is forced, so x stays below every
    solution, and once a pass changes nothing x is a solution: the least
    one.  A raise of the zero node proves the system unsatisfiable.
    Without a cycle of edges whose constants sum below 0, the final x_j is
    a start value carried along a simple path of at most |labels| edges
    through the |labels| + 1 nodes, and pass p has carried every path of p
    edges; so a feasible system settles within |labels| passes, and the
    ``len(labels) + 2`` bound never cuts one off.  With such a gain cycle
    no solution exists, some edge is violated after every pass, and the
    loop ends in None."""
    labels = sorted(set(labels))
    x: Dict[Optional[int], int] = dict.fromkeys(labels, 1)
    if lower:
        for l, b in lower.items():
            x[l] = max(x[l], b)
    edges: List[Tuple[Optional[int], Optional[int], int]] = []
    for a in atoms:
        if a.i not in x or (a.j is not None and a.j not in x):
            raise ValueError(f"atom over unknown variable: {a}")
        edges += a.edges
    x[None] = 0
    if upper:
        edges += [(l, None, b) for l, b in upper.items()]
    for _ in range(len(labels) + 2):
        changed = False
        for i, j, c in edges:
            need = x[i] - c  # n_j >= n_i - c
            if x[j] < need:
                if j is None:
                    return None  # the zero node would have to rise
                x[j] = need
                changed = True
        if not changed:
            del x[None]
            return x
    return None  # raising never stabilized: positive-gain cycle


class ConstrainedImage:
    """The image of a PsiFunction restricted to index tuples satisfying a
    conjunction of difference constraints."""

    __slots__ = ("base", "constraints")

    def __init__(self, base: PsiFunction, constraints: Iterable[Atom] = ()):
        self.base = base
        atoms = tuple(constraints)
        known = set(base.labels)
        for a in atoms:
            if a.i not in known or (a.j is not None and a.j not in known):
                raise ValueError(f"constraint over unknown label: {a}")
        self.constraints = atoms

    def is_empty(self) -> bool:
        return solve_min(self.base.labels, self.constraints) is None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConstrainedImage):
            return self.base == other.base and self.constraints == other.constraints
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.base, self.constraints))

    def __repr__(self) -> str:
        if not self.constraints:
            return f"{{{self.base!r}}}"
        atoms = ", ".join(
            _ATOM_KINDS[a.kind].format(i=a.i, j=a.j, c=a.c) for a in self.constraints
        )
        return f"{{{self.base!r} : {atoms}}}"


Component = Union[PsiFunction, ConstrainedImage]


def _components(X) -> List[Component]:
    if isinstance(X, (PsiFunction, ConstrainedImage)):
        return [X]
    return [C for comp in X for C in _components(comp)]


def _component_parts(X) -> List[Tuple[PsiFunction, Tuple[Atom, ...]]]:
    return [(C, ()) if isinstance(C, PsiFunction) else (C.base, C.constraints) for C in _components(X)]


# -- derived sets ------------------------------------------------------------


def derived_set(X) -> List[Component]:
    """Exact derived set of a finite union of images, plain or constrained.
    Components with identical data are merged; components whose atoms have
    no solution are skipped.

    Let S be the solutions of a component's atoms.  Take distinct points
    F(n^t), n^t in S, tending to gamma.  Pass to a subsequence on which the
    labels of a set J tend to infinity and the others stay at m; J is
    nonempty, as the points are distinct.  Once every n_j > c, coordinate c
    of the J part sum_J q_j E_{n_j} is the sum of the q_j over J, so the
    limit exists iff (i) that sum is 0, and then gamma = F_{I\\J}(m).  The
    labels of J grow without bound on S only if (ii) no atom edge leaves J:
    no edge n_i - n_j <= c of ``Atom.edges`` has i in J and j outside J,
    the zero node counting as outside, so an upper bound on a label of J
    (its edge to 0) is such an edge.  The points differ, so (iii) the J
    part is not 0 on every solution of the atoms within J.

    Conversely, let J satisfy (i)-(iii), m solve the atoms within I\\J and p
    solve those within J with a nonzero J part P(p).  By (ii) every edge of
    the other atoms that meets J enters it, and so bounds a J label from
    below.  With the sum over J zero, P(p + t) is P(p) moved up t
    positions, so the points F(m, p + t) are distinct and tend to
    F_{I\\J}(m); p + t solves the atoms within J, and for t large the
    lower bounds hold too.  So the derived set is the union, over every
    nonempty J with (i)-(iii), of F_{I\\J} under the atoms within I\\J, a
    plain map when none remain.

    (iii) is ``_leaves`` on F restricted to J, which keeps the offset,
    under the atoms within J, with the offset as gamma at depth 1: every
    point of it has the offset's coordinate 0, as the sum over J is 0, so
    a point other than the offset is a solution whose J part is not 0.
    Without atoms (ii) and (iii) always hold: a zero-sum J has two labels
    or more, and its J part has coordinate 1 equal to -q_j when n_j = 1
    and the others are 2, so the rule is the zero-sum rule."""
    out: List[Component] = []
    seen = set()
    for F, atoms in _component_parts(X):
        labels = F.labels
        if solve_min(labels, atoms) is None:
            continue
        n = len(labels)
        msum = _subset_sums(F, _denominator([(F, atoms)]))
        for mask in range(1, 1 << n):
            if msum[mask]:
                continue  # (i): the coefficients over J must sum to 0
            J = {labels[i] for i in range(n) if mask >> i & 1}
            if any(i in J and j not in J for a in atoms for i, j, _ in a.edges):
                continue  # (ii): an edge leaves J, so it bounds a label of J from above
            inside = tuple(a for a in atoms if a.i in J and (a.j is None or a.j in J))
            if not _leaves(F.restrict(J), inside, F.offset, 1):
                continue  # (iii): the J part is 0 on every solution
            rest = tuple(a for a in atoms if a.i not in J and a.j not in J)
            G = F.restrict(set(labels) - J)
            G = ConstrainedImage(G, rest) if rest else G
            if G not in seen:
                seen.add(G)
                out.append(G)
    return out


def d_rank(X) -> int:
    """Least n with the n-th derived set empty; at most 1 + max arity, as
    every derived component drops a nonempty set of labels."""
    n = 0
    while any(solve_min(F.labels, atoms) is not None for F, atoms in _component_parts(X)):
        X = derived_set(X)
        n += 1
    return n


def closure(X) -> List[Component]:
    """X together with its derived set (the topological closure)."""
    comps = _components(X)
    have = set(comps)
    return comps + [G for G in derived_set(comps) if G not in have]


# -- membership: the staircase solver ----------------------------------------


@dataclass(frozen=True)
class MemberSolution:
    """One solution family of sum q_i E_{n_i} = gamma - beta.

    ``assignment`` is the canonical witness.  Each frozenset in
    ``floating`` is a zero-sum group of labels whose members share one
    position that may be moved to any index (the family is then infinite);
    in the witness the groups sit just beyond the support of gamma - beta.
    """

    assignment: Tuple[Tuple[int, int], ...]
    floating: Tuple[frozenset, ...] = ()

    @property
    def parametric(self) -> bool:
        return bool(self.floating)

    def as_dict(self) -> Dict[int, int]:
        return dict(self.assignment)


def _subset_sums(F: PsiFunction, D: int) -> List[int]:
    """D times the sum of F's coefficients over every bit mask of positions
    in ``F.labels``, indexed by mask, as integers: D must be a multiple of
    the coefficients' denominators.  msum[0] is 0."""
    msum = [0]
    for _, q in F._coeffs:
        q = q.numerator * (D // q.denominator)
        msum += [s + q for s in msum]
    return msum


def _member_families(gamma: GammaElement, F: PsiFunction) -> Iterator[MemberSolution]:
    """The solution families of F(assignment) = gamma, one at a time, so a
    caller that only needs the first one stops the search there.

    Coordinate c of sum q_i E_{n_i} is the sum of the q_i with n_i > c.
    So coordinate 0 of gamma - offset must be the sum of every q_i, and
    the block of labels at position m >= 1 (those with n_i = m) must sum
    to the drop of gamma - offset from coordinate m - 1 to m.  Let M be
    one past the last nonzero coordinate of gamma - offset, so the drop at
    M is not 0.  Up to M a block is any sub of the labels left with that
    sum, the empty one too.  Past M every drop is 0: the labels left fall
    into zero-sum blocks, each free to sit at any position past M, which
    makes a parametric family.  It is listed once, with each block
    holding the lowest label left and the blocks at M + 1, M + 2, ...

    One loop walks the positions depth first, with one generator of
    candidate blocks per open position, each in decreasing order of sub,
    so its own stack, not Python's, holds the depth.  Position 0 holds no
    label, and a branch that places every label before M dies there.  The sums are integer
    numerators over one D (``_subset_sums``).  A search that would read a
    coordinate past ``_MAX_DEPTH`` is refused with one line when it gets
    there."""
    if not isinstance(gamma, GammaElement):
        return
    delta = gamma - F.offset
    labels = F.labels
    n = len(labels)
    if n > 16:
        raise ValueError("membership solving supports at most 16 indices")
    M = 0 if delta.is_zero else delta.last_index + 1
    d, nums = delta.prefix_numerators(min(M, _MAX_DEPTH + 1))
    D = math.lcm(d, *[q.denominator for _, q in F._coeffs])
    coords = [c * (D // d) for c in nums] + [0] * (n + 1)  # 0 at each position past M that a block reaches
    msum = _subset_sums(F, D)
    full = (1 << n) - 1
    if coords[0] != msum[full]:
        return

    def blocks(m: int, left: int) -> Iterator[Tuple[int, int]]:
        """(block, labels left after it) for each block at position m."""
        if _MAX_DEPTH < m <= M:
            raise ValueError(f"depth {M} is past the deepest supported, {_MAX_DEPTH}")
        low = left & -left if m > M else 0
        target = coords[m - 1] - coords[m]
        rest = sub = left ^ low
        while True:
            if msum[low | sub] == target:
                yield low | sub, rest ^ sub
            if sub == 0:
                break
            sub = (sub - 1) & rest

    path: List[int] = []  # the block at each position 0, 1, ... of the open branch
    stack = [iter([(0, full)])]  # every n_i >= 1
    while stack:
        for block, left in stack[-1]:  # the next block at the deepest open position
            path[len(stack) - 1 :] = [block]
            if left:
                stack.append(blocks(len(path), left))
            elif len(path) > M:  # up to M no label is left for the drop at M, which is not 0
                assignment = sorted((labels[i], m) for m, b in enumerate(path) for i in range(n) if b >> i & 1)
                floating = [frozenset(labels[i] for i in range(n) if b >> i & 1) for b in path[M + 1 :]]
                yield MemberSolution(tuple(assignment), tuple(floating))
            break
        else:
            stack.pop()


def member(gamma: GammaElement, F: PsiFunction) -> List[MemberSolution]:
    """All index assignments with F(assignment) = gamma, including parametric
    zero-sum families, in the order of the one staircase search
    (``_member_families``); an empty list means gamma is not in the image.
    A search that would read a coordinate of gamma - offset past 4,096
    raises a one-line ValueError."""
    return list(_member_families(gamma, F))


def member_constrained(gamma: GammaElement, C: ConstrainedImage) -> Optional[Dict[int, int]]:
    """A witness assignment satisfying the constraints, or None.  Parametric
    families are intersected with the constraints via the least solution of
    the combined difference system; the search stops at the first family
    that has one."""
    for sol in _member_families(gamma, C.base):
        floating_labels = set().union(*sol.floating)
        fixed = {l: v for l, v in sol.assignment if l not in floating_labels}
        atoms = list(C.constraints)
        for group in sol.floating:
            anchor = min(group)
            for other in sorted(group - {anchor}):
                atoms.append(Atom("diff_eq", anchor, 0, other))
        witness = solve_min(C.base.labels, atoms, lower=fixed, upper=fixed)
        if witness is not None:
            return witness
    return None


def contains(X, gamma: GammaElement) -> bool:
    """Membership in a component, a constrained component, or a union: the
    staircase search of ``member``, stopped at the first family that
    answers, with the same ValueError past 4,096 coordinates."""
    if isinstance(X, PsiFunction):
        return next(_member_families(gamma, X), None) is not None
    if isinstance(X, ConstrainedImage):
        return member_constrained(gamma, X) is not None
    return any(contains(comp, gamma) for comp in X)


# -- capped index profiles -----------------------------------------------------


# The deepest coordinate that a walk of the profile automaton, or the
# staircase search of ``member``, reads.  A walk to depth k reads its
# component's first k offset coordinates from a list (``_shifts``), so a
# deeper k is refused with one line before any such list is made; the
# search refuses with the same line on reaching a position past it.  The
# README, the tests and the benchmark ask depths up to 1,004.
_MAX_DEPTH = 4096


def _denominator(parts) -> int:
    """The lcm of the denominators of every coefficient and of every offset
    of the components in parts: one D that serves every depth."""
    dens = [q.denominator for F, _ in parts for _, q in F._coeffs]
    return math.lcm(*dens, *[F.offset.denominator for F, _ in parts])


def _shifts(F: PsiFunction, k: int, D: int) -> List[int]:
    """F's first k offset coordinates as integer numerators over D, a
    multiple of the offset's denominator.  Every walk reads its offset
    here, so this is where a k past ``_MAX_DEPTH`` is refused."""
    if k > _MAX_DEPTH:
        raise ValueError(f"depth {k} is past the deepest supported, {_MAX_DEPTH}")
    d, offset = F.offset.prefix_numerators(k)
    return [c * (D // d) for c in offset]


def _scaled(vec: Sequence[Fraction], D: int) -> List[Optional[int]]:
    """D times each coordinate of vec, or None where that is not an integer."""
    out: List[Optional[int]] = []
    for q in vec:
        num, rem = divmod(q.numerator * D, q.denominator)
        out.append(None if rem else num)
    return out


@functools.lru_cache(maxsize=64)
def _clock_memo(labels: Tuple[int, ...], atoms: Tuple[Atom, ...]):
    """The successor memo of one constraint system, shared by every
    ``_ProfileAutomaton`` of it: a function successors(number) that
    returns the list of (sub, child number) pairs of the subs that may
    follow a chain whose signature has that number, in decreasing order of
    sub.  Number 0 is the start signature (0, I, ()); a child is
    numbered, and its chain (c + 1, pins) kept, when the first list that
    holds it is built, and its own list is built once, from that chain.
    The cache keeps the 64 systems used last.

    Let C be the largest of 0 and the constants of the ``ge``/``le``
    atoms, and W the largest of 0 and the |constants| of the
    ``diff_le``/``diff_eq`` atoms.  A chain about to choose coordinate c,
    with open mask A (a bit mask over positions in labels) and old pins
    p_l < c, has the signature (min(c, C + 1), A, the pairs
    (l, min(c - p_l, W + 2)) over the old pins l that share a difference
    edge with a label of A, in the order the pins were made).  Its child
    for a sub ⊆ A pins the labels of A \\ sub at c, and the sub may follow
    if the difference system with n_i >= c + 1 on sub and every pin fixed
    is satisfiable.  That is sound, since every completion only tightens
    those bounds, and at the last coordinate it is exactly the
    satisfiability of the full capped profile.  Only sub = A = I may
    follow at step 0, as every n_i >= 1, and the capped step tells step 0
    apart: it is 0 there and at least 1 later.  The child's signature is
    (min(c + 1, C + 1), sub, the parent's ages advanced by one and capped
    at W + 2, then the new pins at age 1, each kept only if it shares a
    difference edge with a label of sub); the parent's signature already
    left out every pin with no edge to A, which has none to sub ⊆ A
    either.  So the child's signature follows from the parent's signature
    and the sub.  Which subs may follow does too, by the clock-region
    argument of Alur and Dill ("A theory of timed automata", TCS 126,
    1994): two feasible chains with one signature have the same list.

    1. The parent is feasible, so every edge between old pins, and every
       bound on one, already holds; a pin is a fixed value, so an edge
       between two of them is a fixed check and carries nothing.  What is
       left are the edges among the labels of A (new pins at c, sub at
       c + 1 or more), edges between A and old pins, and bounds on A.
    2. Difference edges are invariant under translation, so shift every
       label by -c: new pins sit at 0, sub at 1 or more, and an old pin of
       age a = c - p_l at -a.  An edge from it to a label x of A is one
       bound on x: x <= w - a, or x >= -a - w, for a constant |w| <= W.
    3. At an age of W + 2 or more, x <= w - a <= -2 is infeasible for
       every larger age, and x >= -a - w <= -2 is redundant for every
       larger age, since x >= 0.  So the capped age decides the edge, and
       an old pin with no edge to A plays no part at all.
    4. Past c = C + 1, every ``ge``/``le`` atom gives the same answer on
       the labels of A, which are at c or more: n >= g holds for g <= C,
       and n <= h fails for h <= C.  Below that, c is in the signature.

    - Key.  A list follows from the signature, the labels and the atoms,
      so (labels, atoms) is the whole key: the argument never reads the
      coefficients, the offset, a target, the depth or the denominator.
      The labels are part of it because the mask bits are positions in
      ``F.labels``: one mask names other labels under another label
      tuple.
    - Memory.  A system has finitely many signatures (the step is capped
      at C + 1, the open mask is one of 2^|labels|, and each pin age at
      W + 2), each with one number, one chain and a list of at most
      2^|labels| subs, and the cache keeps a fixed number of systems, so
      the memo is bounded whatever the depths asked.  ``solve_min`` is
      asked once per signature and sub.
    - Threads.  A missing list is built, numbering included, under the
      system's lock, taken only after a miss and checking the memo again:
      without it two callers could give two signatures one number.  A hit
      is one atomic ``dict`` get, and a list is stored after its
      children's signatures and chains.  Two first calls racing on one
      system may build two memos; the cache keeps one, and an automaton
      keeps the one it was given, so its numbers never mix."""
    n = len(labels)
    C = W = 0
    near = dict.fromkeys(labels, 0)
    for a in atoms:
        if a.j is None:
            C = max(C, a.c)
        else:
            W = max(W, abs(a.c))
            near[a.i] |= 1 << a.j
            near[a.j] |= 1 << a.i
    reach = [0] * (1 << n)  # the bits 1 << l of the labels l with an edge to a label of the mask
    for mask in range(1, len(reach)):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | near[labels[low.bit_length() - 1]]
    signatures = [(0, (1 << n) - 1, ())]  # number i is signatures[i], first reached by chains[i]
    chains = [(0, ())]
    numbers = {signatures[0]: 0}
    memo: Dict[int, List[Tuple[int, int]]] = {}
    lock = threading.Lock()

    def successors(number: int) -> List[Tuple[int, int]]:
        moves = memo.get(number)
        if moves is not None:
            return moves
        with lock:
            if number in memo:
                return memo[number]
            capped, open_mask, ages = signatures[number]
            c, pins = chains[number]
            step = min(capped + 1, C + 1)
            older = [(l, min(a + 1, W + 2)) for l, a in ages]
            moves = []
            sub = open_mask
            while True:
                left = open_mask ^ sub
                new = [(labels[i], c) for i in range(n) if left >> i & 1]
                pinned = dict(pins + tuple(new))
                lower = dict.fromkeys(labels, c + 1)  # every label not pinned is in sub
                lower.update(pinned)
                if solve_min(labels, atoms, lower=lower, upper=pinned) is not None:
                    edges = reach[sub]
                    grown = (step, sub, tuple([(l, a) for l, a in older + [(l, 1) for l, _ in new] if edges >> l & 1]))
                    child = numbers.setdefault(grown, len(signatures))
                    if child == len(signatures):
                        signatures.append(grown)
                        chains.append((c + 1, pins + tuple(new)))
                    moves.append((sub, child))
                if sub == 0 or capped == 0:
                    break
                sub = (sub - 1) & open_mask
            memo[number] = moves
            return moves

    return successors


_START = -1


class _ProfileAutomaton(dict):
    """The determinized profile automaton of F under atoms, with its
    symbols as integer numerators over D: a map from a state set to its
    moves, a list of (symbol, child state set) pairs, each built on first
    use (``__missing__``) and kept for the object's life.  The key
    ``_START`` (-1, as a state set is a positive int) holds the moves of
    the start, read at coordinate 0.  D must be a multiple of the
    denominators of the coefficients (``_denominator``).  The automaton
    knows no depth and no offset: a walk to depth k reads k moves and adds
    the first k offset coordinates (``_shifts``) to their symbols, so one
    object serves every depth.

    The first k coordinates of F(n) only depend on the capped profile
    min(n_i, k): coordinate c < k is offset_c + (sum of q_i over
    A_c = {i : n_i > c}).  A profile is therefore a chain of open masks
    A_0 = I ⊇ A_1 ⊇ ... ⊇ A_{k-1}, bit masks over positions in
    ``F.labels``; the labels that leave at step c are pinned to n_i = c.
    Nothing at step c depends on k.

    A chain's state is its open mask without atoms, and its signature
    (``_clock_memo``) with them.  At step c a state reads a sub of its
    open mask (only sub = I at step 0, as every n_i >= 1), moves to the
    child's state and emits the symbol msum[sub]; coordinate c is
    offset_c plus the symbol, so one step's distinct symbols are distinct
    values.  A prefix's state set holds the state of every chain with
    that prefix, as a nonzero int with one bit per state: the mask itself
    without atoms, and the signature's number in ``_clock_memo`` with
    them.  The moves of a state set join, for each symbol, the child
    states of its members, so one state set's moves have distinct
    symbols, and the state set of a prefix follows from its symbols.
    Step 0 has one parent, the empty chain, whose moves are
    ``_START``'s; every later step shares the map: a mask's moves are the
    same at every step from 1 on, and a signature holds its own step,
    capped at C + 1, which is all its moves read of the step.

    The automaton is exact if a chain's state alone decides which subs
    may follow it and the state of each child.
    - Without atoms every sub of the open mask may follow, and the
      child's state is sub: this is the subset construction (Rabin and
      Scott, 1959) of the automaton whose states are masks.
    - With atoms, the subs that may follow and the child signatures are
      the signature's list in ``_clock_memo``, a function of the
      signature, so two chains with one prefix and one signature have the
      same feasible continuations.

    The memo outlives the automaton, so ``solve_min`` counts are
    first-call counts: ``project_set(fig2_set(), 30)`` makes 36 calls from
    an empty memo, and none again while the memo holds that system."""

    __slots__ = ("D", "_build")

    def __init__(self, F: PsiFunction, atoms: Tuple[Atom, ...], D: int):
        msum = _subset_sums(F, D)
        self.D = D
        full = len(msum) - 1

        def mask_moves(states: int) -> List[Tuple[int, int]]:
            children: Dict[int, int] = {}
            while states:
                low = states & -states
                states ^= low
                open_mask = sub = low.bit_length() - 1
                while True:
                    children[msum[sub]] = children.get(msum[sub], 0) | 1 << sub
                    if sub == 0:
                        break
                    sub = (sub - 1) & open_mask
            return list(children.items())

        def signature_moves(states: int) -> List[Tuple[int, int]]:
            children: Dict[int, int] = {}
            while states:
                low = states & -states
                states ^= low
                for sub, child in successors(low.bit_length() - 1):
                    children[msum[sub]] = children.get(msum[sub], 0) | 1 << child
            return list(children.items())

        if atoms:
            successors = _clock_memo(F.labels, atoms)
            self._build = signature_moves
            self[_START] = signature_moves(1)
        else:
            self._build = mask_moves
            self[_START] = [(msum[full], 1 << full)]

    def __missing__(self, states: int) -> List[Tuple[int, int]]:
        moves = self[states] = self._build(states)
        return moves


def _automata(X, K: int):
    """(D, walks): D = ``_denominator`` of X's components, and for each
    component the pair (its first K offset coordinates over D, its
    ``_ProfileAutomaton`` over D).  The shifts come first, so a K past
    ``_MAX_DEPTH`` is refused before any automaton is built."""
    parts = _component_parts(X)
    D = _denominator(parts)
    return D, [(_shifts(F, K, D), _ProfileAutomaton(F, atoms, D)) for F, atoms in parts]


def _prefix_walk(auto: _ProfileAutomaton, shifts: Sequence[int]):
    """The quotient image of one component at depth k = len(shifts) >= 1,
    read off its automaton: the list of (prefix, state set) pairs of
    depth k, one per distinct prefix, each prefix a tuple of integer
    numerators over D whose coordinate c is shifts[c] plus a symbol.  The
    walk extends each prefix by the symbols of its state set's moves, so
    every distinct prefix is built exactly once, and no layer is hashed or
    deduplicated: distinct parents have distinct prefixes, and one
    parent's children have distinct symbols.  Nothing at step c depends
    on k, so one automaton serves every depth: ``shifts[:j]`` walks it to
    depth j."""
    layer = [((shifts[0] + symbol,), child) for symbol, child in auto[_START]]
    for shift in shifts[1:]:
        layer = [(prefix + (shift + symbol,), child) for prefix, states in layer for symbol, child in auto[states]]
    return layer


def _transfer_counts(X, K: int) -> List[int]:
    """The number of distinct depth-k prefixes over X's components, for
    k = 1..K, by the transfer recurrence over the product of their
    automata (``quotient.count_function`` gives the argument).  A layer
    maps each product state to its number of prefixes; a product state is
    a tuple of state sets, ``_START`` before coordinate 0 and 0 for a
    component that has died."""
    _, walks = _automata(X, K)
    n = len(walks)
    counts = []
    layer = {(_START,) * n: 1}  # the empty prefix
    for c in range(K):
        grown: Dict[tuple, int] = {}
        for key, m in layer.items():
            children: Dict[int, list] = {}
            for i, states in enumerate(key):
                if states:
                    shifts, auto = walks[i]
                    shift = shifts[c]
                    for symbol, child in auto[states]:
                        row = children.get(shift + symbol)
                        if row is None:
                            row = children[shift + symbol] = [0] * n
                        row[i] = child
            for row in children.values():
                row = tuple(row)
                grown[row] = grown.get(row, 0) + m
        counts.append(sum(grown.values()))
        layer = grown
    return counts


# -- the limit-point probe ----------------------------------------------------


def _along(F: PsiFunction, atoms: Tuple[Atom, ...], gamma: GammaElement, K: int):
    """(auto, states): the automaton of the component F under atoms, over
    D = ``_denominator`` of that component, and the state set of its
    points that agree with gamma on the first K coordinates, found by
    following gamma's coordinates from the start: at coordinate c the
    move taken is the one whose symbol is D gamma_c minus the shift
    (``_shifts``).  The state set is 0 if no point agrees: the path ends
    at the first coordinate that no move matches, and one outside (1/D)Z
    matches none."""
    D = _denominator([(F, atoms)])
    shifts = _shifts(F, K, D)
    auto = _ProfileAutomaton(F, atoms, D)
    d, nums = gamma.prefix_numerators(K)
    states = _START
    for num, shift in zip(nums, shifts):
        goal, rem = divmod(num * D, d)
        if rem:
            return auto, 0
        goal -= shift
        for symbol, child in auto[states]:
            if symbol == goal:
                states = child
                break
        else:
            return auto, 0
    return auto, states


def _leaves(F: PsiFunction, atoms: Tuple[Atom, ...], gamma: GammaElement, K: int) -> bool:
    """Whether the component F under atoms has a point other than gamma
    that agrees with gamma on the first K coordinates: whether the
    automaton's path along gamma branches off at some coordinate c >= K.

    The walk goes on from ``_along``'s state set at c = K.  A state set
    with two moves or more answers True: its symbols are distinct, so one
    of them leaves gamma's path.  A single move whose symbol differs from
    D (gamma - offset)_c answers True too.  Otherwise the walk follows
    the move, and at a state set it has seen it answers whether
    gamma - offset has a nonzero coordinate past c.
    1. Every state set the walk reaches holds a chain with a completion,
       a point of the component: without atoms every chain completes, and
       a signature chain was kept because ``solve_min`` found a
       completion.  So a move off gamma's path at c >= K is a point other
       than gamma that agrees with gamma below K.  Conversely, every such point leaves the path at some c >= K, where
       its state set has that point's symbol among its moves.
    2. A state set's moves do not depend on c.  Once only single moves
       are left, each step is fixed by the state set alone, and a repeat
       closes a cycle that every chain reaching it follows for ever.  A
       completion has finite support, so the cycle reads only 0, and it
       stays on gamma's path iff gamma - offset is 0 from there on.
    gamma - offset is read sparsely, from its nonzero coordinates past
    K, and only once a state set has a single move."""
    auto, states = _along(F, atoms, gamma, K)
    if not states:
        return False
    seen = {states}
    ahead = None  # D (gamma - offset)_c at its nonzero coordinates c >= K, the nearest last
    c = K
    while True:
        moves = auto[states]
        if len(moves) > 1:
            return True
        symbol, states = moves[0]
        if ahead is None:
            ahead = [(i, auto.D * q) for i, q in reversed((gamma - F.offset).items()) if i >= K]
        if ahead and ahead[-1][0] == c:
            if symbol != ahead.pop()[1]:
                return True
        elif symbol:
            return True
        if states in seen:
            return bool(ahead)
        seen.add(states)
        c += 1


def limit_point_probe(gamma: GammaElement, X, K: int) -> bool:
    """True iff for every k <= K some point of X other than gamma matches
    gamma on the first k coordinates.

    A point that matches gamma on the first K coordinates matches it on
    every shorter prefix, so only depth K is asked, of each component in
    turn (``_leaves``): the probe is False for a component whose path
    along gamma ends before depth K.  The successor lists of the
    constrained automata are memoized per constraint system
    (``_clock_memo``), and each signature's list asks ``solve_min`` once
    for every sub of its open mask.  There are finitely many signatures,
    so the calls do not grow with K: from an empty memo, the probe of
    ``fig2_set()`` toward 0, e_1 and e_6 makes 17, 33 and 33 calls at
    every K from 10 to 60.  The memo is kept across calls, so seven probes
    of ``fig2_set()`` toward 0 and e_1..e_6 at K = 30 make 33 calls from an
    empty memo, and none when repeated."""
    if json_int(K, "probe depth must be an integer") < 1:
        raise ValueError("probe depth must be >= 1")
    if not isinstance(gamma, GammaElement):
        raise ValueError("the limit-point probe takes a group element")
    return any(_leaves(F, atoms, gamma, K) for F, atoms in _component_parts(X))


# -- recovery from probe evaluations -------------------------------------------


def recovery_probes(arity: int) -> List[Tuple[int, ...]]:
    """The documented spanning probe set: the all-ones tuple, then one bump
    of each coordinate to 2."""
    base = (1,) * arity
    probes = [base]
    for i in range(arity):
        probes.append(base[:i] + (2,) + base[i + 1 :])
    return probes


def recover(evals: Iterable[Tuple[Sequence[int], GammaElement]]) -> PsiFunction:
    """The unique PsiFunction consistent with evaluations on the spanning
    probe set of ``recovery_probes``; extra evaluations are verified.
    Raises ValueError on inconsistent data."""
    table: Dict[Tuple[int, ...], GammaElement] = {}
    arity = None
    for args, value in evals:
        key = tuple(psi_argument(a, "probe arguments must be psi indices") for a in args)
        if arity is None:
            arity = len(key)
        elif len(key) != arity:
            raise ValueError("evaluations have mixed arities")
        if key in table and table[key] != value:
            raise ValueError("inconsistent evaluations")
        table[key] = value
    if arity is None:
        raise ValueError("no evaluations given")
    probes = recovery_probes(arity)
    missing = [p for p in probes if p not in table]
    if missing:
        raise ValueError(f"missing required probes: {missing}")
    if not all(isinstance(table[p], GammaElement) for p in probes):  # no map takes the value inf
        raise ValueError("inconsistent evaluations")
    base_val = table[probes[0]]
    coeffs: Dict[int, Fraction] = {}
    for i in range(arity):
        q = (table[probes[i + 1]] - base_val).coord(1)
        if q:
            coeffs[i] = q
    offset = base_val - psi_point(1) * sum(coeffs.values())
    F = PsiFunction(coeffs, offset)
    # The probes first, so that a bad probe is reported before any extra
    # evaluation, and at each key an index below 1 (at any label, whatever
    # its coefficient) before the value.  F is built at a key only when
    # sum q_l E_{n_l} has as many nonzero coordinates as value - offset, so
    # its cost is bounded by the input, however large the key's indices.
    for key in sorted(table, key=lambda key: key not in probes):
        if any(n < 1 for n in key):
            raise ValueError("psi indices start at 1")
        value, size = table[key], staircase_size((key[l], q) for l, q in coeffs.items())
        if (
            not isinstance(value, GammaElement)
            or size != len((value - offset).items())
            or F.evaluate(dict(enumerate(key))) != value
        ):
            raise ValueError("inconsistent evaluations")
    return F


# -- equilateral sets ----------------------------------------------------------


def equilateral_max_clique(sample: Sequence[GammaElement], phi: Union[GammaElement, int]) -> List[GammaElement]:
    """A maximum subset of the sample whose pairwise psi-differences all
    equal phi = E_k, in sample order; phi is the psi point E_k or its
    index k, which a caller at a far scale passes without building E_k.

    psi(a - b) = E_k exactly when a - b has leading index k - 1, that is
    when a and b agree on coordinates 0..k-2 and differ at k-1.  So an
    equilateral set lies in one class of points with a common prefix, the
    nonzero coordinates below k - 1, and it is equilateral iff its
    coordinates k - 1 are pairwise distinct: a clique of a class takes at
    most one point per value there, and one point per value is a clique.
    The largest class by number of values gives a maximum clique.  Of all
    maximum cliques this returns the one whose sorted sample positions
    are lexicographically least: in each class the first position of each
    value, and of the classes with the most values the one whose
    positions come first."""
    k = phi if type(phi) is int and phi >= 1 else psi_point_index(phi)
    if k is None:
        raise ValueError("phi must be a finite psi point")
    points = list(sample)
    if not all(isinstance(p, GammaElement) for p in points):
        raise ValueError("sample points must be group elements")
    if len(set(points)) != len(points):
        raise ValueError("sample must be pairwise distinct")
    classes: Dict[Tuple[Tuple[int, Fraction], ...], Dict[Fraction, int]] = {}
    for i, p in enumerate(points):
        prefix = tuple(item for item in p.items() if item[0] < k - 1)
        classes.setdefault(prefix, {}).setdefault(p.coord(k - 1), i)
    best = min(
        (list(c.values()) for c in classes.values()), key=lambda pos: (-len(pos), pos), default=[]
    )
    return [points[i] for i in best]


# -- sampling ------------------------------------------------------------------


# The largest index budget that sample_points tries.
_SAMPLE_ROUNDS = 24


def sample_points(X, count: int) -> List[GammaElement]:
    """A deterministic sample of at most count distinct points of X,
    enumerated by increasing index budget (at most ``_SAMPLE_ROUNDS``)."""
    if json_int(count, "sample size must be an integer") < 0:
        raise ValueError(f"sample size must be >= 0, got {count}")
    if count == 0:
        return []
    # an empty constrained component yields no point in any round
    parts = [
        (F, atoms) for F, atoms in _component_parts(X) if not atoms or solve_min(F.labels, atoms) is not None
    ]
    seen = set()
    out: List[GammaElement] = []
    for t in range(1, _SAMPLE_ROUNDS + 1):
        for F, atoms in parts:
            labels = F.labels
            # a constant's () counts at t = 1
            for combo in itertools.product(range(1, t + 1), repeat=len(labels)):
                if max(combo, default=1) != t:
                    continue
                assignment = dict(zip(labels, combo))
                if atoms and not satisfies(assignment, atoms):
                    continue
                v = F.evaluate(assignment)
                if v not in seen:
                    seen.add(v)
                    out.append(v)
                    if len(out) >= count:
                        return out
    return out


# -- products of closures --------------------------------------------------------


def product_derived_step(pairs):
    """One derived-set step of a union of products of closed factors:
    (A x C)' = A' x C  union  A x C'."""
    out = []
    for A, C in pairs:
        A1, C1 = derived_set(A), derived_set(C)
        if A1 and C:
            out.append((A1, list(C)))
        if A and C1:
            out.append((list(A), C1))
    return out


def product_derived_direct(A, C, k: int):
    """The k-th derived set of A x C assembled factorwise: the union of
    A^(m) x C^(n) over m + n = k."""
    iterates_A = [_components(A)]
    iterates_C = [_components(C)]
    for _ in range(k):
        iterates_A.append(derived_set(iterates_A[-1]))
        iterates_C.append(derived_set(iterates_C[-1]))
    out = []
    for m in range(k + 1):
        Am, Cn = iterates_A[m], iterates_C[k - m]
        if Am and Cn:
            out.append((Am, Cn))
    return out


def product_contains(pairs, x: GammaElement, y: GammaElement) -> bool:
    return any(contains(A, x) and contains(C, y) for A, C in pairs)


# -- parsing and JSON --------------------------------------------------------------

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+(?:\s*/\s*\d+)?)\s*\*?\s*)?"
    r"(?:x(?P<var>\d+)|(?P<elem>\[[^\]]*\]))\s*"
)


def parse_linear(text: str):
    """Parse a linear expression like 'x0 - x1 + 2x2 + [1, 1/2]' into a
    PsiFunction (repeated variables accumulate; element literals sum into
    the offset)."""
    pos = 0
    coeffs: Dict[int, Fraction] = {}
    offset = ZERO
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad linear expression at position {pos}: {text!r}")
        sign = m.group("sign")
        if sign is None and not first:
            raise ValueError(f"missing +/- at position {pos}: {text!r}")
        s = -1 if sign == "-" else 1
        q = parse_rational(m.group("coeff")) if m.group("coeff") else Fraction(1)
        q *= s
        if m.group("var") is not None:
            label = int(m.group("var"))
            coeffs[label] = coeffs.get(label, Fraction(0)) + q
        else:
            e = parse_element(m.group("elem"))
            offset = offset + e * q
        pos = m.end()
        first = False
    coeffs = {l: q for l, q in coeffs.items() if q}
    return PsiFunction(coeffs, offset)


def fig2_set() -> ConstrainedImage:
    """The worked example: (s x - x) + (s y - y) over x < y in the psi set,
    compiled by ``terms.gensfun_image`` to x0 - x1 + x2 - x3 with
    n0 - n1 = 1, n2 - n3 = 1 and n1 - n3 <= -1."""
    from .terms import GenSFunction, gensfun_image  # terms imports this module

    return gensfun_image(GenSFunction(2, [(0, 1, 1), (0, 0, -1), (1, 1, 1), (1, 0, -1)]), order=[(0, 1)])


def psifunction_to_json(F: PsiFunction) -> dict:
    return {
        "vars": [f"x{l}" for l in F.labels],
        "coeffs": {f"x{l}": format_rational(q) for l, q in F._coeffs},
        "offset": format_element(F.offset),
    }


def component_to_json(comp: Component) -> dict:
    if isinstance(comp, PsiFunction):
        return psifunction_to_json(comp)
    d = psifunction_to_json(comp.base)
    d["constraints"] = [a.to_json() for a in comp.constraints]
    return d


def component_from_json(obj: Mapping) -> Component:
    if not isinstance(obj, Mapping):
        raise ValueError("a component of an image union is a JSON object")
    named = obj.get("coeffs", {})
    if not isinstance(named, Mapping):
        raise ValueError("'coeffs' of a component must be a JSON object")
    coeffs = {}
    for name, q in named.items():
        if not re.fullmatch(r"x\d+", name):
            raise ValueError(f"variable names must look like x0, x1, ...: {name!r}")
        label = int(name[1:])
        if label in coeffs:
            raise ValueError(f"the label x{label} is spelled twice: {name!r}")
        coeffs[label] = parse_rational(str(q))
    offset = obj.get("offset", "[]")
    if not isinstance(offset, str):
        raise ValueError("'offset' of a component must be an element string")
    offset = parse_element(offset)
    if offset is INF:
        raise ValueError("offset must be a group element")
    F = PsiFunction(coeffs, offset)
    if "constraints" in obj:
        if not isinstance(obj["constraints"], (list, tuple)):
            raise ValueError("'constraints' of a component must be a list of atoms")
        return ConstrainedImage(F, tuple(Atom.from_json(a) for a in obj["constraints"]))
    return F


def imageunion_to_json(X) -> list:
    return [component_to_json(c) for c in (X if isinstance(X, (list, tuple)) else [X])]


def imageunion_from_json(data) -> List[Component]:
    if isinstance(data, Mapping):
        return [component_from_json(data)]
    if not isinstance(data, (list, tuple)):
        raise ValueError("an image union is a JSON object or a list of objects")
    return [component_from_json(obj) for obj in data]
