"""The representable class of definable sets and the dimension functions.

A unary representation is a finite union of open intervals and thickened
small sets (an image union or constrained image, fattened by a convex
subgroup).  Higher arity representations are finite unions of products.
The class is closed under union and product but deliberately not under
complement or intersection.

Dimension is computed two ways and cross-checked: route A applies the
structural rules (interval width against the subgroup, thickening scale
against the scale, max over unions, sums over products); route B scans
for a wide interval using the valuation comparison directly.  At
dimension <= 0 the finite quotient image and, at the top scale, the
derived-set rank corroborate the answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .element import (
    GammaElement,
    INF,
    format_element,
    json_int,
    parse_element,
    unit,
)
from .psifun import (
    Component,
    ConstrainedImage,
    _along,
    _component_parts,
    _components,
    component_to_json,
    contains as image_contains,
    d_rank,
    imageunion_from_json,
)
from .quotient import PHI_INF, Phi, TruncatedVector, in_delta, project, project_set

__all__ = [
    "NEG_DIM",
    "Interval",
    "ThickenedSmall",
    "UnaryRep",
    "NaryRep",
    "Rep",
    "FULL_LINE",
    "dim",
    "dim_product",
    "has_wide_box",
    "member",
    "union",
    "product_rep",
    "CrosscheckReport",
    "sst_crosscheck",
    "rep_to_json",
    "rep_from_json",
]

NEG_DIM = float("-inf")


@dataclass(frozen=True)
class Interval:
    """An open interval; a None endpoint is an unbounded marker.  A
    degenerate interval (lower >= upper) denotes the empty set."""

    lo: Optional[GammaElement]
    hi: Optional[GammaElement]

    @property
    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo >= self.hi

    @property
    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    def contains(self, x: GammaElement) -> bool:
        if self.is_empty:
            return False
        return (self.lo is None or self.lo < x) and (self.hi is None or x < self.hi)

    def width(self) -> Optional[GammaElement]:
        """hi - lo for bounded intervals, None when a marker makes it unbounded."""
        if not self.bounded:
            return None
        return self.hi - self.lo


FULL_LINE = Interval(None, None)


@dataclass(frozen=True)
class ThickenedSmall:
    """core + Delta_xi: a small set fattened by the convex subgroup at
    scale xi; xi = inf means no thickening."""

    core: Tuple[Component, ...]
    thicken: Phi = PHI_INF

    def __init__(self, core, thicken: Phi = PHI_INF):
        object.__setattr__(self, "core", tuple(_components(core)))
        object.__setattr__(self, "thicken", thicken)

    @property
    def is_empty(self) -> bool:
        return all(isinstance(comp, ConstrainedImage) and comp.is_empty() for comp in self.core)

    def contains(self, x: GammaElement) -> bool:
        """At a finite scale s^k, project(x, k) in project_set(self.core, k)
        without building the image: whether some component's automaton
        has a path along the first k coordinates of x (``psifun._along``).
        inf is in no thickened small set."""
        if self.thicken.is_finite:
            parts = _component_parts(self.core)
            return isinstance(x, GammaElement) and any(_along(F, atoms, x, self.thicken.k)[1] for F, atoms in parts)
        return image_contains(self.core, x)


UnaryComponent = Union[Interval, ThickenedSmall]


@dataclass(frozen=True)
class UnaryRep:
    components: Tuple[UnaryComponent, ...]

    def __init__(self, components: Iterable[UnaryComponent] = ()):
        object.__setattr__(self, "components", tuple(components))

    @property
    def is_empty(self) -> bool:
        return all(c.is_empty for c in self.components)


@dataclass(frozen=True)
class NaryRep:
    arity: int
    products: Tuple[Tuple[UnaryRep, ...], ...]

    def __init__(self, arity: int, products: Iterable[Sequence[UnaryRep]] = ()):
        products = tuple(tuple(p) for p in products)
        for p in products:
            if len(p) != arity:
                raise ValueError("all products must have the declared arity")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "products", products)

    @property
    def is_empty(self) -> bool:
        return all(any(f.is_empty for f in p) for p in self.products)


Rep = Union[UnaryRep, NaryRep]


# -- dimension, route A ------------------------------------------------------


def _component_dim(comp: UnaryComponent, phi: Phi):
    if isinstance(comp, Interval):
        if comp.is_empty:
            return NEG_DIM
        w = comp.width()
        if w is None or not in_delta(w, phi):
            return 1
        return 0
    if comp.is_empty:
        return NEG_DIM
    # thickening survives the quotient exactly when it is coarser than phi
    return 0 if phi <= comp.thicken else 1


def dim(rep: Rep, phi: Phi):
    """The dimension at scale phi: -inf on empty, max over unions, width
    test on intervals, scale comparison on thickenings, sums over products."""
    if isinstance(rep, UnaryRep):
        return max((_component_dim(c, phi) for c in rep.components), default=NEG_DIM)
    best = NEG_DIM
    for product in rep.products:
        total = dim_product(product, phi)
        best = max(best, total)
    return best


def dim_product(factors: Sequence[UnaryRep], phi: Phi):
    """Sum of factor dimensions; -inf if any factor is empty."""
    total = 0
    for factor in factors:
        d = dim(factor, phi)
        if d == NEG_DIM:
            return NEG_DIM
        total += d
    return total


# -- dimension, route B: wide-interval scan via the valuation ----------------


def _wide_width(width: Optional[GammaElement], phi: Phi) -> bool:
    # width None encodes an unbounded marker: automatically wide since the
    # subgroup is proper; every psi value is at most phi = inf.  Otherwise
    # psi(width) <= E_k: psi(0) is INF, and psi(width) is E_{n+1} for the
    # leading index n, with E_a <= E_b iff a <= b; E_k itself is not built
    if width is None or phi.k is None:
        return True
    return not width.is_zero and width.leading_index + 1 <= phi.k


def _component_wide(comp: UnaryComponent, phi: Phi) -> bool:
    if isinstance(comp, Interval):
        return not comp.is_empty and _wide_width(comp.width(), phi)
    if comp.is_empty:
        return False
    if not comp.thicken.is_finite:
        return False
    # the thickening contains intervals of any width inside its subgroup;
    # e_i generates the widest archimedean class of Delta at s^i 0
    return _wide_width(unit(comp.thicken.k), phi)


def has_wide_box(rep: Rep, phi: Phi) -> bool:
    """Whether the representation contains an open box all of whose sides
    are wider than the subgroup at phi (an interval, in the unary case)."""
    if isinstance(rep, UnaryRep):
        return any(_component_wide(c, phi) for c in rep.components)
    return any(
        all(has_wide_box(factor, phi) for factor in product)
        for product in rep.products
    )


def _dim_route_b(rep: UnaryRep, phi: Phi):
    if rep.is_empty:
        return NEG_DIM
    return 1 if has_wide_box(rep, phi) else 0


# -- membership and union -----------------------------------------------------


def member(point, rep: Rep) -> bool:
    """Pointwise membership; n-ary points are sequences of elements."""
    if isinstance(rep, UnaryRep):
        if not isinstance(point, GammaElement):
            raise ValueError("unary membership takes a single group element")
        return any(c.contains(point) for c in rep.components)
    point = tuple(point)
    if len(point) != rep.arity:
        raise ValueError("point arity does not match the representation")
    return any(
        all(member(x, factor) for x, factor in zip(point, product))
        for product in rep.products
    )


def union(a: Rep, b: Rep) -> Rep:
    if isinstance(a, UnaryRep) and isinstance(b, UnaryRep):
        return UnaryRep(a.components + b.components)
    if isinstance(a, NaryRep) and isinstance(b, NaryRep):
        if a.arity != b.arity:
            raise ValueError("cannot union representations of different arity")
        return NaryRep(a.arity, a.products + b.products)
    raise ValueError("cannot union representations of different arity")


def product_rep(*factors: UnaryRep) -> NaryRep:
    return NaryRep(len(factors), [tuple(factors)])


# -- the crosscheck ------------------------------------------------------------


@dataclass(frozen=True)
class CrosscheckReport:
    phi: Phi
    dim_route_a: object
    dim_route_b: object
    consistent: bool
    quotient_size: Optional[int] = None
    quotient_image: Optional[Tuple] = None
    rank: Optional[int] = None


def _quotient_image_of_rep(rep: UnaryRep, k: int) -> Tuple[TruncatedVector, ...]:
    """The finite projection of a rep of dimension <= 0 at scale s^k0,
    sorted: narrow intervals collapse to the image of an endpoint,
    thickenings coarser than the scale vanish.  The cores of all
    components are projected as one union, whose image iterates sorted."""
    points = set()
    cores: List[Component] = []
    for comp in rep.components:
        if comp.is_empty:
            continue
        if isinstance(comp, Interval):
            # dim <= 0 forces a bounded narrow interval, which the convex
            # subgroup collapses to one coset
            points.add(project(comp.lo, k))
        else:
            cores.extend(comp.core)
    image = project_set(cores, k)
    return tuple(sorted(points.union(image))) if points else tuple(image)


def sst_crosscheck(rep: UnaryRep, phi: Phi) -> CrosscheckReport:
    """Compute the dimension by the structural rules and by the
    wide-interval scan; on small sets additionally produce the finite
    quotient certificate (finite scale) or the derived-set rank of the
    cores, plain or constrained (top scale).  The routes must agree; a
    report with consistent=False is a discrepancy certificate."""
    dim_a = dim(rep, phi)
    dim_b = _dim_route_b(rep, phi)
    consistent = dim_a == dim_b
    quotient_size = None
    quotient_image = None
    rank = None
    if consistent and dim_a <= 0 and phi.is_finite:
        quotient_image = _quotient_image_of_rep(rep, phi.k)
        quotient_size = len(quotient_image)
    if consistent and dim_a <= 0 and not phi.is_finite:
        # at the top scale a nonempty component of dimension <= 0 is an
        # unthickened small set, so the cores make up the whole set
        rank = d_rank([c for comp in rep.components if not comp.is_empty for c in comp.core])
    return CrosscheckReport(
        phi=phi,
        dim_route_a=dim_a,
        dim_route_b=dim_b,
        consistent=consistent,
        quotient_size=quotient_size,
        quotient_image=quotient_image,
        rank=rank,
    )


# -- JSON ----------------------------------------------------------------------


def _endpoint_to_json(v: Optional[GammaElement], side: str) -> str:
    if v is None:
        return "-inf" if side == "lo" else "+inf"
    return format_element(v)


def _endpoint_from_json(v: str, side: str) -> Optional[GammaElement]:
    if not isinstance(v, str):
        raise ValueError(f"interval endpoint {side!r} must be a string: {v!r}")
    if v in ("-inf", "+inf"):
        return None
    e = parse_element(v)
    if e is INF:
        raise ValueError("interval endpoints are group elements or markers")
    return e


def _unary_component_to_json(comp: UnaryComponent) -> dict:
    if isinstance(comp, Interval):
        return {
            "kind": "interval",
            "lo": _endpoint_to_json(comp.lo, "lo"),
            "hi": _endpoint_to_json(comp.hi, "hi"),
        }
    return {
        "kind": "small",
        "core": [component_to_json(c) for c in comp.core],
        "thicken": str(comp.thicken),
    }


def _unary_component_from_json(obj: Mapping) -> UnaryComponent:
    if not isinstance(obj, Mapping):
        raise ValueError("a component of a definable-set rep is a JSON object")
    kind = obj.get("kind")
    if kind == "interval":
        for key in ("lo", "hi"):
            if key not in obj:
                raise ValueError(f"an interval component is missing the key {key!r}")
        return Interval(
            _endpoint_from_json(obj["lo"], "lo"), _endpoint_from_json(obj["hi"], "hi")
        )
    if kind == "small":
        thicken = obj.get("thicken", "inf")
        if not isinstance(thicken, str):
            raise ValueError(f"'thicken' must be a scale string such as \"s^3\" or \"inf\": {thicken!r}")
        if "core" not in obj:
            raise ValueError("a small component is missing the key 'core'")
        return ThickenedSmall(imageunion_from_json(obj["core"]), Phi.parse(thicken))
    raise ValueError(f"unknown component kind {kind!r}")


def rep_to_json(rep: Rep) -> dict:
    if isinstance(rep, UnaryRep):
        return {
            "arity": 1,
            "products": [[_unary_component_to_json(c)] for c in rep.components],
        }
    products = []
    for product in rep.products:
        # distribute multi-component factors into single-component tuples
        choices = [
            [(_unary_component_to_json(c)) for c in factor.components]
            for factor in product
        ]
        for combo in itertools.product(*choices):
            products.append(list(combo))
    return {"arity": rep.arity, "products": products}


def rep_from_json(obj: Mapping) -> Rep:
    if not isinstance(obj, Mapping) or not isinstance(obj.get("products"), list):
        raise ValueError('a definable-set rep is a JSON object with a "products" list')
    arity = json_int(obj.get("arity", 1), "'arity' of a definable-set rep must be an integer")
    if arity < 1:
        raise ValueError(f"'arity' of a definable-set rep must be at least 1: {arity}")
    products = obj["products"]
    if not all(isinstance(product, list) for product in products):
        raise ValueError("each product of a definable-set rep is a list of components")
    parsed = []
    for product in products:
        if len(product) != arity:
            raise ValueError("product length does not match arity")
        parsed.append([_unary_component_from_json(c) for c in product])
    if arity == 1:
        return UnaryRep(product[0] for product in parsed)
    return NaryRep(arity, [tuple(UnaryRep([c]) for c in product) for product in parsed])
