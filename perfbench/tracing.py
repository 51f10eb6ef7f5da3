"""Spans around the public functions of each nilorb layer, recorded from
outside the package.

`Tracer.install` replaces each listed function by a wrapper under every
module name that holds it (`carrier` imports `decide_normal`, `nullcone`
imports `classify_orbits`, ...), and each listed method on its class.  A
wrapper records one span per call: name, start, end and parent span.
Spans stay in memory, in flat arrays, until `write` saves them.

Per span name the tracer keeps the call count, the total time of the
outermost calls (a recursive call is not counted twice) and the self time:
the span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (module, attribute) of every traced entry point; "Class.method" patches
# the class.  The span name is "<module>.<function>".
TRACED = (
    ("rootsystem", "build_root_system"),
    ("chevalley", "build_algebra"),
    ("chevalley", "ChevalleyAlgebra.complete_sl2"),
    ("linalg", "solve"),
    ("linalg", "rank_int"),
    ("linalg", "nullspace"),
    ("weyl", "shortest_coset_reps"),
    ("weyl", "WeylElement.act_weight"),
    ("weyl", "to_subdominant"),
    ("weyl", "conjugate_tuples"),
    ("weyl", "conjugate_sets"),
    ("characteristics", "classify_nilpotent_g"),
    ("characteristics", "h_from_wdd"),
    ("characteristics", "normal_list"),
    ("characteristics", "decide_normal"),
    ("pisystems", "classify_all"),
    ("pisystems", "classify_maximal"),
    ("carrier", "candidate_pi_systems"),
    ("carrier", "completion"),
    ("grading", "grading_from_kac"),
    ("records", "wdd_of_cartan"),
    ("nullcone", "classify_orbits"),
    ("nullcone", "orbit_dimension"),
    ("nullcone", "summarize"),
)
# Span names whose results feed a count; see Tracer._count.
COUNTED = frozenset({
    "chevalley.complete_sl2", "characteristics.decide_normal", "carrier.completion",
    "weyl.shortest_coset_reps", "pisystems.classify_all", "pisystems.classify_maximal",
    "carrier.candidate_pi_systems", "nullcone.classify_orbits",
})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # One entry per span, indexed by span id in the order spans open.
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []  # ids of the open spans
        self.child_ns: list[int] = []  # per open span: duration of its closed children
        # name -> [calls, outermost total ns, self ns]
        self.stats: dict[str, list[int]] = {}
        self.counts: Counter[str] = Counter()
        self._ids: dict[str, int] = {}
        self._open: dict[str, list[int]] = {}  # name or layer -> number of open spans

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count(self, name: str, kwargs, result, outermost_in_layer: bool) -> None:
        c = self.counts
        if name in ("chevalley.complete_sl2", "characteristics.decide_normal", "carrier.completion"):
            c[name + ".ok"] += result is not None and getattr(result, "flat", True)
        elif name == "weyl.shortest_coset_reps":
            c["weyl.coset_reps"] += len(result)
        elif name.startswith("pisystems."):
            # classify_all calls classify_maximal: count only the outer call.
            c["pisystems.classes"] += len(result) if outermost_in_layer else 0
        elif name == "carrier.candidate_pi_systems":
            c["carrier.candidates"] += len(result)
        elif name == "nullcone.classify_orbits":
            orbits = sum(not r.is_zero() for r in result)
            c["nullcone.orbits"] += orbits
            # Each nonzero record of the carrier walk is one new canonical h.
            if kwargs.get("method") == "2":
                c["carrier.new_h"] += orbits

    def wrap(self, name: str, fn):
        """fn, recording a span named `name` around every call."""
        name_id = self._name_id(name)
        counted = name in COUNTED
        stats = self.stats.setdefault(name, [0, 0, 0])
        open_name = self._open.setdefault(name, [0])
        open_layer = self._open.setdefault(name.split(".")[0], [0])
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, child_ns = self.stack, self.child_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(sid)
            child_ns.append(0)
            outermost = open_name[0] == 0
            outermost_in_layer = open_layer[0] == 0
            open_name[0] += 1
            open_layer[0] += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                start[sid] = t0
                end[sid] = t1
                stack.pop()
                dur = t1 - t0
                children = child_ns.pop()
                if child_ns:
                    child_ns[-1] += dur
                open_name[0] -= 1
                open_layer[0] -= 1
                stats[0] += 1
                if outermost:
                    stats[1] += dur
                stats[2] += dur - children
            if counted:
                self._count(name, kwargs, result, outermost_in_layer)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every traced entry point in every loaded nilorb module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "nilorb" or n.startswith("nilorb.")]
        for module_name, attr in TRACED:
            module = sys.modules[f"nilorb.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                name = f"{module_name}.{meth}"
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            name = f"{module_name}.{attr}"
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def self_ns_since(self, t0: int) -> int:
        """Summed self time of all spans that started at or after t0."""
        total = 0
        child = [0] * len(self.start)
        for sid in range(len(self.start) - 1, -1, -1):
            dur = self.end[sid] - self.start[sid]
            p = self.parent[sid]
            if p >= 0:
                child[p] += dur
            if self.start[sid] >= t0:
                total += dur - child[sid]
        return total

    def write(self, path) -> None:
        """Save every span as one JSON line: id, name, start and end in ns
        (relative to the first span), and parent id (-1 for none)."""
        base = self.start[0] if self.start else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            for sid in range(len(self.start)):
                out.write(json.dumps({
                    "id": sid,
                    "name": self.names[self.name_of[sid]],
                    "start_ns": self.start[sid] - base,
                    "end_ns": self.end[sid] - base,
                    "parent": self.parent[sid],
                }) + "\n")

