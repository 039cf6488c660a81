"""Per-layer measurement from outside the library.

``Tracer`` wraps the public functions of each layer in span wrappers and
installs a wrapper in every ``logcouple`` module that binds the name (for
example ``quotient.solve_min`` and ``sets.project_set`` as well as their
home modules), so calls made inside the library nest under their callers.
Spans are aggregated in memory as they close, per function and per
(caller, callee) edge, and written out when the run ends.  A span's self
time is its duration minus the time its child spans cover.  Counts of work
are recorded at the same boundaries.

``element_metrics`` reads a cProfile pass: the element layer is the group
arithmetic of ``element.py`` and ``fractions.py``, too fine-grained to wrap.
Only shares and call counts are reported, because profiling inflates its
absolute times several-fold.
"""

from __future__ import annotations

import time
from collections import defaultdict

ROOT = "query"


def _component_arities(X):
    if hasattr(X, "base"):
        return [len(X.base.labels)]
    if hasattr(X, "labels"):
        return [len(X.labels)]
    return [a for comp in X for a in _component_arities(comp)]


def _count_solve_min(counts, args, kwargs, result):
    counts["psifun.solve_min.unsat"] += result is None


def _count_project_set(counts, args, kwargs, result):
    X, k = args
    counts["quotient.project_set.profiles"] += sum(k**a for a in _component_arities(X))
    counts["quotient.project_set.vectors"] += len(result)


def _count_member(counts, args, kwargs, result):
    counts["psifun.member.solutions"] += len(result)


# (module, function, counter) for every wrapped public function.
SPANS = (
    ("psifun", "solve_min", _count_solve_min),
    ("psifun", "limit_point_probe", None),
    ("psifun", "member", _count_member),
    ("psifun", "derived_set", None),
    ("psifun", "equilateral_max_clique", None),
    ("quotient", "project_set", _count_project_set),
    ("sets", "sst_crosscheck", None),
    ("sets", "dim", None),
    ("terms", "eval_term", None),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start_ns, child_ns]
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.edges = defaultdict(lambda: [0, 0])  # (caller, callee) -> [calls, ns]
        self.counts = defaultdict(int)
        self._installed = []

    def _wrap(self, name, fn, counter):
        stack, calls, self_ns, edges, counts = (
            self.stack, self.calls, self.self_ns, self.edges, self.counts,
        )

        def span(*args, **kwargs):
            frame = [name, time.perf_counter_ns(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter_ns() - frame[1]
                stack.pop()
                calls[name] += 1
                self_ns[name] += duration - frame[2]
                caller = stack[-1][0] if stack else ROOT
                edge = edges[(caller, name)]
                edge[0] += 1
                edge[1] += duration
                if stack:
                    stack[-1][2] += duration
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def install(self, lib):
        for home, attr, counter in SPANS:
            original = getattr(getattr(lib, home), attr)
            wrapper = self._wrap(f"{home}.{attr}", original, counter)
            for module in lib.modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def metrics(self):
        def calls(name):
            return (self.calls[name], "count")

        def self_s(name):
            return (self.self_ns[name] / 1e9, "s")

        solve_calls = self.calls["psifun.solve_min"]
        profiles = self.counts["quotient.project_set.profiles"]
        vectors = self.counts["quotient.project_set.vectors"]
        return {
            "psifun.solve_min.calls": calls("psifun.solve_min"),
            "psifun.solve_min.self_s": self_s("psifun.solve_min"),
            "psifun.solve_min.unsat_ratio": (
                self.counts["psifun.solve_min.unsat"] / solve_calls if solve_calls else 0.0, "ratio"),
            "quotient.project_set.calls": calls("quotient.project_set"),
            "quotient.project_set.self_s": self_s("quotient.project_set"),
            "quotient.project_set.profiles": (profiles, "count"),
            "quotient.project_set.vectors": (vectors, "count"),
            "quotient.project_set.profiles_per_vector": (profiles / vectors if vectors else 0.0, "ratio"),
            "psifun.limit_point_probe.calls": calls("psifun.limit_point_probe"),
            "psifun.limit_point_probe.self_s": self_s("psifun.limit_point_probe"),
            "psifun.member.calls": calls("psifun.member"),
            "psifun.member.self_s": self_s("psifun.member"),
            "psifun.member.solutions": (self.counts["psifun.member.solutions"], "count"),
            "psifun.derived_set.self_s": self_s("psifun.derived_set"),
            "psifun.equilateral_max_clique.self_s": self_s("psifun.equilateral_max_clique"),
            "sets.sst_crosscheck.calls": calls("sets.sst_crosscheck"),
            "sets.sst_crosscheck.self_s": self_s("sets.sst_crosscheck"),
            "sets.dim.self_s": self_s("sets.dim"),
            "terms.eval_term.self_s": self_s("terms.eval_term"),
            "cli.main.calls": calls("cli.main"),
            "cli.main.self_s": self_s("cli.main"),
        }

    def report(self, out):
        """Write the aggregated spans: one line per (caller, callee) edge."""
        print("spans: caller -> callee  calls  total_s", file=out)
        for (caller, callee), (n, ns) in sorted(self.edges.items()):
            print(f"  {caller} -> {callee}  {n}  {ns / 1e9:.6f}", file=out)
        for name in sorted(self.calls):
            print(f"  self {name}  {self.self_ns[name] / 1e9:.6f}", file=out)


def element_metrics(stats):
    """Shares and call counts of the element layer from cProfile stats
    ({(file, line, function): (primitive calls, calls, self s, cumulative s, callers)})."""
    total = element = 0.0
    calls = defaultdict(int)
    for (path, _, func), (_, ncalls, tottime, _, _) in stats.items():
        total += tottime
        in_element = path.endswith("logcouple/element.py")
        if in_element or path.endswith("/fractions.py"):
            element += tottime
        if in_element and func in ("__init__", "psi_point"):
            calls[func] += ncalls
        elif path.endswith("/fractions.py") and func == "__new__":
            calls["Fraction_new"] += ncalls
    return {
        "element.self_share": (element / total if total else 0.0, "ratio"),
        "element.GammaElement_init.calls": (calls["__init__"], "count"),
        "element.Fraction_new.calls": (calls["Fraction_new"], "count"),
        "element.psi_point.calls": (calls["psi_point"], "count"),
    }
