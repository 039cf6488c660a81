"""The three benchmark workloads: seeded query lists with their oracles.

A workload builder takes the imported library (``lib``, a namespace of the
``logcouple`` modules) and a seed, and returns one *round*: a list of
queries.  A query is one call into the library that the benchmark times,
plus a check that compares its answer with an oracle from ``oracles.py``.
Only the call is timed; choosing inputs and computing expected answers is
set-up, and the expensive oracles run once per query after the timed
rounds.

The seed only picks coefficients, offsets, points and constraints.  The
shape of a round (how many queries of each kind, the arity of every map,
every depth k) is fixed, so every seed gives the same query count, the
same mix of kinds and about the same work.  Calls look the library
function up on its module at call time, so the span wrappers of a traced
run see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

import oracles as O

PROBE_DEPTH = 8

# A round has at least 100 queries.  The mixes are chosen so that p50 and
# p90 fall inside a group of queries of like cost, not on the edge between
# two groups: then a seed moves them little.

# probe: 100 queries.  By cost: cheap false answers, then the arity-2 true
# points (p50 falls in the middle of them), arity-3 true points, the deep
# fig2 non-members (p90 falls in the middle of them) and the fig2 true
# points.  Arity-3 points come from maps whose first zero-sum label set J
# is {1, 2}: the probe scans capped profiles in lexicographic order and
# meets a point late when label 0 is in J, which costs as much as a deep
# non-member and would blur the two groups.  Of the example's derived
# points only e_1 and e_2 are probed: 0 and e_3..e_6 take 1-3 s each, and
# with them a round would fit only twice into a run.
PROBE_FIG2_TRUE_UNITS = (1, 2)
PROBE_FIG2_DEEP_FALSE = 13
PROBE_FIG2_FALSE = 8
PROBE_MAP_FALSE_PER_ARITY = 5  # arities 1, 2, 3
PROBE_A2_TRUE = 54
PROBE_A3_TRUE = 8

# count: 120 queries.  By cost: cheap random unions, the middle group of
# random unions, all of one shape (p50 falls in the middle of it), costly
# random unions and the small fixed inputs, the p90 group of random unions,
# again of one shape (p90 falls in the middle of it) with two fixed inputs
# of like cost, and the five large fixed inputs.  The fixed depths stop
# where one call would take about a second: a round then takes about 4 s,
# and a run repeats every query seven times or more.
FIG2_KS = (8, 12, 14, 16)
ALTERNATING = {"alt4": "x0-x1+x2-x3", "alt6": "x0-x1+x2-x3+x4-x5"}
COUNT_ALT_KS = {"alt4": (4, 5, 6, 7), "alt6": (2, 3)}
# Small random unions as (component arities, k).  Cheap and costly slots are
# used with and without constraints, the middle and p90 slots without.
COUNT_CHEAP = (((1, 1), 4), ((1, 1), 6), ((1, 1), 8), ((1, 1), 10), ((1, 2), 3),
               ((1, 2), 4), ((1, 2), 5), ((2, 2), 2), ((2, 2), 3)) * 2
COUNT_MIDDLE = (((2, 2), 5),) * 50
COUNT_COSTLY = (((1, 3), 5), ((2, 3), 4), ((2, 3), 5), ((3, 3), 4), ((3, 3), 5),
                ((2, 2), 9), ((2, 2), 10))
COUNT_P90 = (((2, 3), 8),) * 10

CLI_DEFAULT_SEED = 3
CLI_EVAL_TEMPLATES = {
    "psi(int(x))": lambda x, y: O.ref_psi(O.ref_integral(x)),
    "int(x) + s(x)": lambda x, y: O.ref_add(O.ref_integral(x), O.ref_succ(x)),
    "s(x - y) + p(s(y))": lambda x, y: O.ref_add(O.ref_succ(O.ref_sub(x, y)), O.ref_pred(O.ref_succ(y))),
    "d3(x) - psi(y)": lambda x, y: O.ref_sub(O.ref_scale(x, Fraction(1, 3)), O.ref_psi(y)),
}
CLI_PRIMITIVES = {"psi": O.ref_psi, "int": O.ref_integral, "s": O.ref_succ, "p": O.ref_pred}
CLI_PER_VERB = 8
CLI_SCALES = (1, 3, 6)  # finite scales s^k0 of dim and crosscheck, plus inf
CLI_COUNT_K = 5
CLI_FIG2_COUNT_K = 8
CLI_IDENTITIES_N = 100
CLI_CLIQUE_POINTS = 10

WORKLOAD_SEEDS = {"probe": 1, "count": 2, "cli": CLI_DEFAULT_SEED}


@dataclass
class Query:
    kind: str
    call: Callable[[], object]
    # Returns None when the answer is right, else a one-line reason.
    check: Callable[[object], Optional[str]]
    qid: str = ""
    # Run once during set-up, so lazy first-call work is not timed.
    warm: bool = False


def _expect(value):
    return lambda got: None if got == value else f"expected {value!r}, got {got!r}"


# -- probe -----------------------------------------------------------------------


def build_probe(lib, seed: int, workdir: str) -> List[Query]:
    rng = random.Random(seed)
    P, E, G = lib.psifun, lib.element, lib.gen
    queries: List[Query] = []

    def probe(kind, gamma, X, expected):
        queries.append(
            Query(kind, lambda: P.limit_point_probe(gamma, X, PROBE_DEPTH), _expect(expected))
        )

    # The worked example is {e_a + e_b : 1 <= a < b}; its first derived set
    # is {0} and the e_m with m >= 1.
    def in_fig2_derived(g):
        return g.is_zero or (len(g.items()) == 1 and g.items()[0][1] == 1 and g.leading_index >= 1)

    fig2 = P.fig2_set()
    for gamma in [E.unit(m) for m in PROBE_FIG2_TRUE_UNITS]:
        probe("fig2_true", gamma, fig2, in_fig2_derived(gamma))
    # Random non-members with a nonzero coordinate 0, where every point of
    # the example and of its derived set has 0, so the probe answers at
    # depth 1; other random non-members can agree with the example to any
    # depth, and their cost (up to seconds) would depend on the seed.
    made = 0
    while made < PROBE_FIG2_FALSE:
        g = G.random_element(rng)
        if g.is_zero or g.leading_index != 0 or P.member_constrained(g, fig2) is not None:
            continue
        probe("fig2_false", g, fig2, in_fig2_derived(g))
        made += 1
    # e_1 + e_2 + e_4 + q e_m (m >= 5) agrees with points of the example up
    # to depth 4 and with none at depth 5, so the probe scans every capped
    # profile at k = 5 before answering False; the cost does not depend on q.
    for _ in range(PROBE_FIG2_DEEP_FALSE):
        g = E.unit(1) + E.unit(2) + E.unit(4) + E.unit(rng.randint(5, 7)) * G.random_rational(rng, 9)
        probe("fig2_deep_false", g, fig2, in_fig2_derived(g))

    def zero_sum_map(arity, J):
        while True:
            F = G.random_psi_function(rng, min_arity=arity, max_arity=arity, zero_sum_bias=1.0)
            D = P.derived_set([F])
            if D and tuple(sorted(set(F.labels) - set(D[0].labels))) == J:
                return F, D

    for kind, arity, J, count in (
        ("map2_true", 2, (0, 1), PROBE_A2_TRUE),
        ("map3_true", 3, (1, 2), PROBE_A3_TRUE),
    ):
        for _ in range(count):
            F, D = zero_sum_map(arity, J)
            point = P.sample_points([D[0]], 1)[0]
            probe(kind, point, [F], P.contains(D, point))

    for arity in (1, 2, 3):
        for _ in range(PROBE_MAP_FALSE_PER_ARITY):
            F = G.random_psi_function(rng, min_arity=arity, max_arity=arity, zero_sum_bias=0.6)
            D = P.derived_set([F])
            while True:
                g = G.random_element(rng)
                if not P.contains([F], g) and not P.contains(D, g):
                    break
            probe(f"map{arity}_false", g, [F], False)
        queries[-1].warm = True

    rng.shuffle(queries)
    return queries


# -- count -----------------------------------------------------------------------


def _structured_union(lib, rng, arities, constrained):
    """Components built as gen.random_image_union builds them, with the
    arities fixed and, when constrained, at least one constraint each."""
    P, G = lib.psifun, lib.gen
    out = []
    for arity in arities:
        F = G.random_psi_function(rng, min_arity=arity, max_arity=arity)
        if constrained:
            atoms = ()
            while not atoms:
                atoms = G.random_constraints(rng, F.labels)
            out.append(P.ConstrainedImage(F, atoms))
        else:
            out.append(F)
    return out


def _brute_check(lib, union, k):
    comps = [O.component_from_json(obj) for obj in lib.psifun.imageunion_to_json(union)]

    def check(got):
        expected = O.brute_projection(comps, k)
        if got != expected:
            return f"project_set at k={k} has {len(got)} vectors, brute force {len(expected)}"
        return None

    return check


def build_count(lib, seed: int, workdir: str) -> List[Query]:
    rng = random.Random(seed)
    P, Q = lib.psifun, lib.quotient
    stored = O.load_stored()["quotient_images"]
    queries: List[Query] = []

    def count(kind, X, k, check):
        queries.append(Query(kind, lambda: Q.project_set(X, k), check))

    fig2 = P.fig2_set()
    for k in FIG2_KS:
        n = O.fig2_count(k)
        count("fig2", fig2, k, lambda got, n=n: None if len(got) == n else f"{len(got)} != {n}")
    queries[0].warm = True
    for name, expr in ALTERNATING.items():
        F = P.parse_linear(expr)
        for k in COUNT_ALT_KS[name]:
            want = stored[f"{name}:{k}"]

            def check(got, want=want):
                if len(got) != want["count"] or O.vectors_digest(got) != want["digest"]:
                    return f"{len(got)} vectors, stored {want['count']}"
                return None

            count(name, F, k, check)
    slots = [(shape, k, c) for shape, k in COUNT_CHEAP + COUNT_COSTLY for c in (False, True)]
    for arities, k, constrained in slots + [(shape, k, False) for shape, k in COUNT_MIDDLE + COUNT_P90]:
        union = _structured_union(lib, rng, arities, constrained)
        kind = "random_constrained" if constrained else "random"
        count(kind, union, k, _brute_check(lib, union, k))
    rng.shuffle(queries)
    return queries


# -- cli ---------------------------------------------------------------------------


def _run_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue()


def _payload(result):
    code, text = result
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(text)


def seed_fields_match(expected, got) -> bool:
    """Compare only the fields present in the stored payload, so fields
    added later still match."""
    if isinstance(expected, dict):
        return isinstance(got, dict) and all(
            key in got and seed_fields_match(value, got[key]) for key, value in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(got, list)
            and len(got) == len(expected)
            and all(seed_fields_match(e, g) for e, g in zip(expected, got))
        )
    return expected == got


def _write_json(workdir, name, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as handle:
        json.dump(obj, handle)
    return path


def _lit(lib, x) -> str:
    return lib.element.format_element(x)


def build_cli(lib, seed: int, workdir: str) -> List[Query]:
    rng = random.Random(seed)
    E, P, Q, S, G = lib.element, lib.psifun, lib.quotient, lib.sets, lib.gen
    os.makedirs(workdir, exist_ok=True)
    stored = O.load_stored()["cli_payloads"].get(str(seed), {})
    queries: List[Query] = []

    def verb(kind, argv, check):
        qid = f"{kind}#{sum(q.kind == kind for q in queries)}"
        want = stored.get(qid)

        def full_check(result):
            payload = _payload(result)
            reason = check(payload)
            if reason is None and want is not None and not seed_fields_match(want, payload):
                reason = "payload differs from the stored seed payload"
            return reason

        queries.append(Query(kind, lambda: _run_cli(lib, argv), full_check, qid, qid.endswith("#0")))

    def element(**kw):
        return G.random_element(rng, bound=9, **kw)

    def value_check(expected):
        return lambda payload: None if O.ref_parse(payload["value"]) == expected else "wrong value"

    templates = list(CLI_EVAL_TEMPLATES.items())
    for i in range(CLI_PER_VERB * 3):
        text, ref = templates[i % len(templates)]
        x, y = element(), element()
        argv = ["eval", text, "--env", f"x={_lit(lib, x)}", "--env", f"y={_lit(lib, y)}", "--json"]
        verb("eval", argv, value_check(ref(O.ref_parse(_lit(lib, x)), O.ref_parse(_lit(lib, y)))))

    for name, ref in CLI_PRIMITIVES.items():
        for i in range(CLI_PER_VERB):
            # every other argument starts with a run of ones, so s and p
            # meet several staircase points
            x = element()
            if i % 2:
                n = rng.randint(1, 4)
                x = E.psi_point(n) + E.GammaElement((j + n, q) for j, q in x.items())
            text = _lit(lib, x)
            verb(name, [name, text, "--json"], value_check(ref(O.ref_parse(text))))

    for _ in range(CLI_PER_VERB):
        eps = G.random_positive_element(rng, bound=9)
        d1 = O.ref_psi(O.ref_parse(_lit(lib, eps)))
        want = (O.ref_succ(d1), d1)
        verb(
            "witness",
            ["witness", _lit(lib, eps), "--json"],
            lambda p, want=want: None
            if (O.ref_parse(p["delta0"]), O.ref_parse(p["delta1"])) == want
            else "wrong witness",
        )

    fig2_path = _write_json(workdir, "fig2.json", P.component_to_json(P.fig2_set()))

    def member_check(gamma_text):
        gamma = O.ref_parse(gamma_text)

        def check(payload):
            if not payload["member"]:
                return "constructed member reported absent"
            for sol in payload["solutions"]:
                coeffs, offset, atoms = O.component_from_json(sol["component"])
                assignment = dict(zip([l for l, _ in coeffs], sol["witness"]))
                if O.ref_evaluate(coeffs, offset, assignment) != gamma:
                    return "witness does not evaluate back to gamma"
                if atoms and not O.ref_satisfies(assignment, atoms):
                    return "witness violates the constraints"
            return None

        return check

    for i in range(CLI_PER_VERB * 2):
        if i % 4 == 3:
            a = rng.randint(1, 5)
            b = rng.randint(a + 1, 7)
            gamma = E.unit(a) + E.unit(b)  # fig2 at x1 = a < x3 = b
            path = fig2_path
        else:
            F = G.random_psi_function(rng, min_arity=2, max_arity=3, zero_sum_bias=0.5)
            gamma = F.evaluate([rng.randint(1, 5) for _ in F.labels])
            path = _write_json(workdir, f"member{i}.json", P.imageunion_to_json([F]))
        text = _lit(lib, gamma)
        verb("member", ["member", "--file", path, "--gamma", text, "--json"], member_check(text))

    def dset_check(comps):
        want = O.ref_derived_set([(c, o) for c, o, _ in comps])

        def check(payload):
            got = {(c, o) for c, o, _ in (O.component_from_json(obj) for obj in payload)}
            return None if got == want else "derived set differs from the zero-sum restrictions"

        return check

    for i in range(CLI_PER_VERB):
        union = G.random_image_union(rng, max_components=2, max_arity=4, zero_sum_bias=0.7)
        obj = P.imageunion_to_json(union)
        path = _write_json(workdir, f"dset{i}.json", obj)
        comps = [O.component_from_json(c) for c in obj]
        verb("dset", ["dset", "--file", path, "--json"], dset_check(comps))
        rank = O.ref_d_rank([(c, o) for c, o, _ in comps])
        verb(
            "drank",
            ["drank", "--file", path, "--json"],
            lambda p, rank=rank: None if p["d_rank"] == rank else f"d_rank {p['d_rank']} != {rank}",
        )

    def vectors_of(rows):
        return {tuple(Fraction(q) for q in row) for row in rows}

    def union_file(name, i):
        union = _structured_union(lib, rng, (2, 2), bool(i % 2))
        obj = P.imageunion_to_json(union)
        return _write_json(workdir, f"{name}{i}.json", obj), [O.component_from_json(c) for c in obj]

    for i in range(CLI_PER_VERB):
        path, comps = union_file("project", i)
        k = 2 + i % 3

        def project_check(payload, comps=comps, k=k):
            ok = vectors_of(payload["vectors"]) == O.brute_projection(comps, k)
            return None if ok else "quotient image differs from the brute force"

        verb("project-set", ["project-set", "--file", path, "--k", str(k), "--json"], project_check)

    for i in range(CLI_PER_VERB * 2 - 1):
        path, comps = union_file("count", i)

        def count_check(payload, comps=comps):
            counts = [(row["k"], row["count"]) for row in payload["counts"]]
            want = [(k, len(O.brute_projection(comps, k))) for k in range(1, CLI_COUNT_K + 1)]
            return _fit_reason(counts, want, payload.get("fit"))

        verb("count", ["count", "--file", path, "--k", f"1..{CLI_COUNT_K}", "--fit", "--json"], count_check)

    fig2_counts = [(k, O.fig2_count(k)) for k in range(1, CLI_FIG2_COUNT_K + 1)]
    verb(
        "count",
        ["count", "--file", fig2_path, "--k", f"1..{CLI_FIG2_COUNT_K}", "--fit", "--json"],
        lambda p: _fit_reason([(r["k"], r["count"]) for r in p["counts"]], fig2_counts, p.get("fit")),
    )

    phis = [Q.Phi(k) for k in CLI_SCALES] + [Q.PHI_INF]
    phi_arg = ",".join(str(phi) for phi in phis)

    def dim_check(payload):
        rows = payload["dims"]
        if [Q.Phi.parse(r["phi"]) for r in rows] != phis:
            return "scales differ from the request"
        finite = [float(r["dim"]) for r in rows[:-1]]
        return None if finite == sorted(finite) else "dimension not monotone in the scale"

    def crosscheck_check(payload):
        reports = payload["reports"]
        if [Q.Phi.parse(r["phi"]) for r in reports] != phis:
            return "scales differ from the request"
        return None if all(r["consistent"] for r in reports) else "crosscheck discrepancy"

    for i in range(CLI_PER_VERB):
        rep = G.random_unary_rep(rng) if i % 2 else G.random_small_unary_rep(rng, Q.Phi(CLI_SCALES[1]))
        path = _write_json(workdir, f"rep{i}.json", S.rep_to_json(rep))
        verb("dim", ["dim", "--rep", path, "--phi", phi_arg, "--json"], dim_check)
        verb("crosscheck", ["crosscheck", "--rep", path, "--phi", phi_arg, "--json"], crosscheck_check)

    for i in range(CLI_PER_VERB):
        X = G.random_image_union(rng, max_components=2, max_arity=3, zero_sum_bias=0.5)
        points = P.sample_points(X, CLI_CLIQUE_POINTS)
        k = 2 + i % 4
        argv = ["clique", "--phi", str(Q.Phi(k)), "--json"]
        for p in points:
            argv += ["--point", _lit(lib, p)]
        ref_points = [O.ref_parse(_lit(lib, p)) for p in points]
        phi_ref = O.ref_staircase(k)

        def clique_check(payload, ref_points=ref_points, phi_ref=phi_ref):
            clique = [O.ref_parse(x) for x in payload["clique"]]
            if any(O.ref_psi(O.ref_sub(a, b)) != phi_ref for a in clique for b in clique if a != b):
                return "clique is not equilateral"
            best = O.ref_max_clique_size(ref_points, phi_ref)
            return None if payload["size"] == len(clique) == best else "clique is not maximum"

        verb("clique", argv, clique_check)

    for i in range(CLI_PER_VERB):
        arity = rng.randint(0, 4)
        hidden = G.random_psi_function(rng, min_arity=arity, max_arity=arity)
        evals = []
        for args in P.recovery_probes(arity) + [tuple(rng.randint(1, 5) for _ in range(arity))]:
            value = hidden.evaluate({l: args[j] for j, l in enumerate(hidden.labels)})
            evals.append({"args": list(args), "value": _lit(lib, value)})
        path = _write_json(workdir, f"evals{i}.json", {"evals": evals})
        want = O.component_from_json(P.psifunction_to_json(hidden))
        verb(
            "recover",
            ["recover", "--file", path, "--json"],
            lambda p, want=want: None if O.component_from_json(p) == want else "recovered map differs",
        )

    for i in range(CLI_PER_VERB):
        argv = ["identities", "--n", str(CLI_IDENTITIES_N), "--seed", str(rng.randint(0, 10**6)), "--json"]
        verb(
            "identities",
            argv,
            lambda p: None
            if p["passed"] and all(c["failures"] == 0 for c in p["checks"])
            else "identity suite failed",
        )

    rng.shuffle(queries)
    return queries


def _fit_reason(counts, want, fit) -> Optional[str]:
    if counts != want:
        return f"counts {counts} differ from the oracle {want}"
    if fit is not None:
        coeffs = [Fraction(c) for c in fit["coefficients"]]
        for k, c in counts[-len(coeffs) - 1 :]:
            if sum(q * k**i for i, q in enumerate(coeffs)) != c:
                return "fit does not reproduce the counts it was fitted to"
    return None


BUILDERS = {"probe": build_probe, "count": build_count, "cli": build_cli}


def _without_scales(obj):
    if isinstance(obj, dict):
        return {key: _without_scales(value) for key, value in obj.items() if key != "phi"}
    if isinstance(obj, list):
        return [_without_scales(value) for value in obj]
    return obj


def cli_stored_payloads(seed: int) -> dict:
    """The --json payloads of the dim and crosscheck queries of one cli
    round, keyed by query id, for ``oracle_answers.json``.  Scales are left
    out: their spelling may change, and ``dim_check`` and
    ``crosscheck_check`` already compare every row's scale with the request."""
    import tempfile

    from run import load_library, repo_root

    lib = load_library(os.path.join(repo_root(), "src"))
    out = {}
    with tempfile.TemporaryDirectory(dir=repo_root()) as workdir:
        for q in build_cli(lib, seed, workdir):
            if q.kind in ("dim", "crosscheck"):
                out[q.qid] = _without_scales(_payload(q.call()))
    return out
