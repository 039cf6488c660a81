"""Reference answers for the benchmark queries, computed off the timed path.

Each query the benchmark times is checked against an answer that does not
come from the code being timed:

* a small reference model of the group (dense tuples of Fractions) that
  re-implements psi, the integral, the successor, the predecessor and
  affine evaluation from their definitions, used by the ``cli`` checks;
* the windowed brute force of acceptance criterion 10 for quotient images
  (every index assignment in {1..k+3}^I, filtered by the constraints and
  truncated), used by ``count`` and ``cli``;
* closed forms: |fig2 projection at s^k0| = k^2/2 - k/2 + 1, and the
  first derived set of the worked example, {0} and the unit vectors e_m
  for m >= 1;
* answers too costly to recompute on every run, stored in
  ``oracle_answers.json`` next to this file.  Regenerate them with

      python3 bench/oracles.py

  which recomputes the stored quotient images with the brute force below
  and records the ``--json`` payloads of the ``dim`` and ``crosscheck``
  queries of the default ``cli`` seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
STORED_PATH = os.path.join(HERE, "oracle_answers.json")

# -- reference model of the group ---------------------------------------------
#
# An element is a tuple of Fractions without trailing zeros; INF is None.

Ref = Optional[Tuple[Fraction, ...]]
INF = None


def ref_norm(values: Iterable[Fraction]) -> Tuple[Fraction, ...]:
    out = list(values)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def ref_parse(text: str) -> Ref:
    text = text.strip()
    if text == "inf":
        return INF
    body = text[1:-1].strip()
    if not body:
        return ()
    return ref_norm(Fraction(part.strip()) for part in body.split(","))


def ref_coord(a: Tuple[Fraction, ...], n: int) -> Fraction:
    return a[n] if n < len(a) else Fraction(0)


def ref_add(a: Ref, b: Ref) -> Ref:
    if a is INF or b is INF:
        return INF
    size = max(len(a), len(b))
    return ref_norm(ref_coord(a, i) + ref_coord(b, i) for i in range(size))


def ref_scale(a: Ref, q) -> Ref:
    if a is INF:
        return INF
    return ref_norm(x * Fraction(q) for x in a)


def ref_sub(a: Ref, b: Ref) -> Ref:
    return ref_add(a, ref_scale(b, -1)) if b is not INF else INF


def ref_staircase(n: int) -> Tuple[Fraction, ...]:
    """E_n = e_0 + ... + e_{n-1}."""
    return (Fraction(1),) * n


def ref_psi(a: Ref) -> Ref:
    if a is INF or not a:
        return INF
    lead = next(i for i, x in enumerate(a) if x != 0)
    return ref_staircase(lead + 1)


def _ref_integration_index(a: Tuple[Fraction, ...]) -> int:
    n = 0
    while ref_coord(a, n) == 1:
        n += 1
    return n


def ref_succ(a: Ref) -> Ref:
    if a is INF:
        return INF
    return ref_staircase(_ref_integration_index(a) + 1)


def ref_integral(a: Ref) -> Ref:
    if a is INF:
        return INF
    return ref_sub(a, ref_succ(a))


def ref_pred(a: Ref) -> Ref:
    if a is INF or not a or any(x != 1 for x in a) or len(a) < 2:
        return INF
    return ref_staircase(len(a) - 1)


def ref_truncate(a: Tuple[Fraction, ...], k: int) -> Tuple[Fraction, ...]:
    return tuple(ref_coord(a, i) for i in range(k))


# -- affine maps and quotient images ------------------------------------------
#
# A component is (coeffs, offset, atoms): coeffs a tuple of (label, q),
# offset a reference element, atoms a tuple of (kind, i, c, j) difference
# constraints in the JSON schema of the library.


def component_from_json(obj: dict):
    coeffs = tuple(
        sorted((int(name[1:]), Fraction(q)) for name, q in obj.get("coeffs", {}).items())
    )
    offset = ref_parse(obj.get("offset", "[]"))
    atoms = tuple(
        (a["kind"], int(a["i"]), int(a["c"]), int(a["j"]) if "j" in a else None)
        for a in obj.get("constraints", ())
    )
    return coeffs, offset, atoms


def ref_evaluate(coeffs, offset, assignment: Dict[int, int]) -> Tuple[Fraction, ...]:
    total = offset
    for label, q in coeffs:
        total = ref_add(total, ref_scale(ref_staircase(assignment[label]), q))
    return total


def ref_satisfies(assignment: Dict[int, int], atoms) -> bool:
    for kind, i, c, j in atoms:
        ni = assignment[i]
        if kind == "diff_le" and not ni - assignment[j] <= c:
            return False
        if kind == "diff_eq" and not ni - assignment[j] == c:
            return False
        if kind == "ge" and not ni >= c:
            return False
        if kind == "le" and not ni <= c:
            return False
    return True


def brute_projection(components, k: int) -> set:
    """The quotient image at s^k0 by the windowed brute force of acceptance
    criterion 10: every assignment in {1..k+3}^I that meets the constraints,
    evaluated and truncated to its first k coordinates."""
    window = k + 3
    out = set()
    for coeffs, offset, atoms in components:
        labels = [label for label, _ in coeffs]
        for combo in itertools.product(range(1, window + 1), repeat=len(labels)):
            assignment = dict(zip(labels, combo))
            if atoms and not ref_satisfies(assignment, atoms):
                continue
            out.add(ref_truncate(ref_evaluate(coeffs, offset, assignment), k))
    return out


def fig2_count(k: int) -> int:
    """Closed form of the worked example's counting function."""
    return k * (k - 1) // 2 + 1


def vectors_digest(vectors: Iterable[Sequence[Fraction]]) -> str:
    """Order-independent digest of a set of truncated vectors."""
    lines = sorted(",".join(str(Fraction(q)) for q in v) for v in vectors)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# -- derived sets --------------------------------------------------------------


def ref_derived_set(components) -> set:
    """Per component, the restrictions to the complement of each nonempty
    zero-sum label set; components are (coeffs, offset) pairs."""
    out = set()
    for coeffs, offset in components:
        n = len(coeffs)
        for mask in range(1, 1 << n):
            if sum(q for i, (_, q) in enumerate(coeffs) if mask >> i & 1) == 0:
                rest = tuple(c for i, c in enumerate(coeffs) if not mask >> i & 1)
                out.add((rest, offset))
    return out


def ref_d_rank(components) -> int:
    current = set(components)
    n = 0
    while current:
        current = ref_derived_set(current)
        n += 1
    return n


def ref_max_clique_size(points, phi) -> int:
    """Largest subset whose pairwise psi-differences all equal phi, by
    trying every subset (samples here have at most ten points)."""
    n = len(points)
    adj = [[ref_psi(ref_sub(points[i], points[j])) == phi for j in range(n)] for i in range(n)]
    best = 0
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if len(members) > best and all(adj[i][j] for i, j in itertools.combinations(members, 2)):
            best = len(members)
    return best


# -- stored answers --------------------------------------------------------------


def load_stored() -> dict:
    with open(STORED_PATH) as handle:
        return json.load(handle)


def _regenerate() -> None:
    import sys

    sys.path.insert(0, HERE)
    from workloads import ALTERNATING, COUNT_ALT_KS, CLI_DEFAULT_SEED, cli_stored_payloads

    images = {}
    for name, expr in ALTERNATING.items():
        n = expr.count("x")
        coeffs = tuple((i, Fraction((-1) ** i)) for i in range(n))
        for k in COUNT_ALT_KS[name]:
            vectors = brute_projection([(coeffs, (), ())], k)
            images[f"{name}:{k}"] = {"count": len(vectors), "digest": vectors_digest(vectors)}
            print(f"{name} k={k}: {len(vectors)} vectors", file=sys.stderr)
    stored = {
        "generated_by": "python3 bench/oracles.py",
        "quotient_images": images,
        "cli_payloads": {},
    }
    _write_stored(stored)
    # the cli queries are built without stored payloads, then recorded
    stored["cli_payloads"] = {str(CLI_DEFAULT_SEED): cli_stored_payloads(CLI_DEFAULT_SEED)}
    _write_stored(stored)


def _write_stored(stored: dict) -> None:
    with open(STORED_PATH, "w") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    _regenerate()
