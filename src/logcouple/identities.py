"""The seeded identity suite: exact algebraic laws of the primitives.

Runs the Integral, Fixed Point, and Successor Identities, the round trip
and monotonicity of the asymptotic integral, and the valuation axioms of
psi over a stream of pseudo-random elements.  Every comparison is exact;
a single failure anywhere fails the suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from .element import GammaElement, ZERO, compare, integral, psi, psi_point, succ, unit
from .gen import random_element, random_rational

__all__ = ["CheckLine", "run_identity_suite", "suite_passed"]


@dataclass
class CheckLine:
    name: str
    checked: int = 0
    failures: int = 0

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, ok: bool) -> None:
        self.checked += 1
        if not ok:
            self.failures += 1


def _ladder(a: GammaElement, k: int) -> GammaElement:
    """Prefix a run of k ones and shift a behind it (inside the first eight
    coordinates), so successors range over several staircase points."""
    if k == 0:
        return a
    shifted = GammaElement((i + k, q) for i, q in a.items() if i + k < 8)
    return psi_point(k) + shifted


def run_identity_suite(n: int, seed: int) -> List[CheckLine]:
    if n < 1:
        raise ValueError("the identity suite needs n >= 1")
    rng = random.Random(seed)
    elements = [_ladder(random_element(rng), rng.choice((0, 0, 0, 1, 2, 3, 4, 5))) for _ in range(n)]
    succs = [succ(a) for a in elements]
    integrals = [integral(a) for a in elements]
    psis = [psi(a) for a in elements]

    integral_identity = CheckLine("integral identity: int(a) = a - s(a)")
    round_trip = CheckLine("integral round trip: int(a) + psi(int(a)) = a")
    monotone = CheckLine("integral strictly increasing")
    fixed_point = CheckLine("fixed point: b = psi(a - b) iff b = s(a)")
    successor = CheckLine("successor: s(a) < s(b) implies psi(b - a) = s(a)")
    psi_even = CheckLine("psi(a) = psi(-a)")
    psi_scale = CheckLine("psi(q a) = psi(a) for rational q != 0")
    ultrametric = CheckLine("psi(a + b) >= min(psi(a), psi(b))")

    for idx, a in enumerate(elements):
        nxt = (idx + 1) % n
        other = elements[nxt]
        b, ia, pa = succs[idx], integrals[idx], psis[idx]
        gap = a - b
        integral_identity.record(ia == gap)
        round_trip.record(ia + psi(ia) == a)
        fixed_ok = psi(gap) == b
        # a perturbed candidate must fail the fixed point equation
        bump = unit(idx % 8) * random_rational(rng, 9)
        b2 = b + bump
        gap2 = a - b2
        if gap2 != ZERO:
            fixed_ok = fixed_ok and psi(gap2) != b2
        fixed_point.record(fixed_ok)
        if not a.is_zero:
            psi_even.record(pa == psi(-a))
            psi_scale.record(psi(a * random_rational(rng, 99)) == pa)
        if a < other:
            monotone.record(ia < integrals[nxt])
        elif other < a:
            monotone.record(integrals[nxt] < ia)
        sa, sb = b, succs[nxt]
        if compare(sa, sb) < 0:
            successor.record(psi(other - a) == sa)
        elif compare(sb, sa) < 0:
            successor.record(psi(a - other) == sb)
        pb = psis[nxt]
        lo = pa if compare(pa, pb) <= 0 else pb
        ultrametric.record(compare(psi(a + other), lo) >= 0)

    return [
        integral_identity,
        round_trip,
        monotone,
        fixed_point,
        successor,
        psi_even,
        psi_scale,
        ultrametric,
    ]


def suite_passed(lines: List[CheckLine]) -> bool:
    return all(line.passed for line in lines)
