"""Seeded random generation of elements, affine maps, and representations.

All generators take an explicit random.Random so suites are reproducible.
Elements have support inside the first eight coordinates and numerators
and denominators up to 100, which keeps every generated width strictly
wider than the subgroup at s^8 0 (dimension sweeps stabilize by then) and
keeps constraint systems inside small brute-force windows.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .element import GammaElement, ZERO
from .psifun import Atom, Component, ConstrainedImage, PsiFunction
from .quotient import PHI_INF, Phi
from .sets import Interval, ThickenedSmall, UnaryRep

__all__ = [
    "random_rational",
    "random_element",
    "random_positive_element",
    "random_psi_function",
    "random_constraints",
    "random_image_union",
    "random_unary_rep",
    "random_small_unary_rep",
]


def random_rational(rng: random.Random, bound: int = 100) -> Fraction:
    """A nonzero rational with numerator and denominator up to bound."""
    num = rng.randint(1, bound) * rng.choice([-1, 1])
    return Fraction(num, rng.randint(1, bound))


def random_element(
    rng: random.Random, max_support: int = 8, bound: int = 100
) -> GammaElement:
    size = rng.randint(0, max_support)
    indices = rng.sample(range(max_support), size)
    return GammaElement((i, random_rational(rng, bound)) for i in indices)


def random_nonzero_element(rng: random.Random, **kwargs) -> GammaElement:
    while True:
        x = random_element(rng, **kwargs)
        if not x.is_zero:
            return x


def random_positive_element(rng: random.Random, **kwargs) -> GammaElement:
    x = random_nonzero_element(rng, **kwargs)
    return x if x > ZERO else -x


def random_psi_function(
    rng: random.Random,
    min_arity: int = 0,
    max_arity: int = 3,
    coeff_bound: int = 9,
    zero_sum_bias: float = 0.0,
) -> PsiFunction:
    """A random affine map.  With probability zero_sum_bias (and arity >= 2)
    one coefficient is chosen to cancel a random subset of the others, so the
    image has limit points; otherwise random rational coefficients almost
    never admit a zero-sum subset and the derived set is empty.  The offset
    lives on the first four coordinates, with numerators and denominators
    up to 9."""
    arity = rng.randint(min_arity, max_arity)
    coeffs = {
        label: random_rational(rng, coeff_bound) for label in range(arity)
    }
    if arity >= 2 and rng.random() < zero_sum_bias:
        subset = rng.sample(range(arity - 1), rng.randint(1, arity - 1))
        total = sum(coeffs[l] for l in subset)
        if total:
            coeffs[arity - 1] = -total
    size = rng.randint(0, 4)
    offset = GammaElement((i, random_rational(rng, 9)) for i in rng.sample(range(4), size))
    return PsiFunction(coeffs, offset)


def random_constraints(rng: random.Random, labels: Sequence[int]) -> Tuple[Atom, ...]:
    """A conjunction of at most three difference constraints with unit
    offsets, so least solutions stay within small index windows."""
    if len(labels) < 1:
        return ()
    atoms: List[Atom] = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(["diff_le", "diff_eq", "ge"] if len(labels) > 1 else ["ge"])
        if kind == "ge":
            atoms.append(Atom("ge", i=rng.choice(labels), c=rng.randint(1, 2)))
        else:
            i, j = rng.sample(list(labels), 2)
            atoms.append(Atom(kind, i=i, j=j, c=rng.randint(-1, 1)))
    return tuple(atoms)


def random_image_union(
    rng: random.Random,
    max_components: int = 2,
    allow_constraints: bool = False,
    **fn_kwargs,
) -> List[Component]:
    out: List[Component] = []
    for _ in range(rng.randint(1, max_components)):
        F = random_psi_function(rng, **fn_kwargs)
        if allow_constraints and F.labels and rng.random() < 0.5:
            out.append(ConstrainedImage(F, random_constraints(rng, F.labels)))
        else:
            out.append(F)
    return out


def _random_interval(rng: random.Random) -> Interval:
    lo = None if rng.random() < 0.15 else random_element(rng, bound=9)
    hi = None if rng.random() < 0.15 else random_element(rng, bound=9)
    if lo is not None and hi is not None and rng.random() < 0.7 and not (lo < hi):
        lo, hi = hi, lo  # keep most generated intervals nonempty
    return Interval(lo, hi)


def _random_thickening(rng: random.Random, at_least: Optional[int] = None) -> Phi:
    if rng.random() < 0.35:
        return PHI_INF
    low = at_least if at_least is not None else 1
    if low > 6:
        return PHI_INF
    return Phi(rng.randint(low, 6))


def random_unary_rep(rng: random.Random) -> UnaryRep:
    """At most three components, each an interval or a thickened image union."""
    comps = []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            comps.append(_random_interval(rng))
        else:
            core = random_image_union(
                rng, max_components=2, allow_constraints=True, max_arity=2
            )
            comps.append(ThickenedSmall(core, _random_thickening(rng)))
    return UnaryRep(comps)


def random_small_unary_rep(rng: random.Random, phi: Phi) -> UnaryRep:
    """A representation of one or two components that is small at scale phi
    by construction: thickenings at least as coarse as phi and intervals
    narrower than its subgroup."""
    comps = []
    for _ in range(rng.randint(1, 2)):
        if phi.is_finite and rng.random() < 0.3:
            lo = random_element(rng, bound=9)
            gap = random_positive_element(rng, max_support=2, bound=9)
            width = GammaElement((i + phi.k, q) for i, q in gap.items())
            comps.append(Interval(lo, lo + width))
        else:
            core = random_image_union(
                rng, max_components=2, allow_constraints=True, max_arity=2
            )
            thicken = (
                _random_thickening(rng, at_least=phi.k) if phi.is_finite else PHI_INF
            )
            comps.append(ThickenedSmall(core, thicken))
    return UnaryRep(comps)
