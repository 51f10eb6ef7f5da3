"""Job lists of the benchmark workloads, and the canonical form of each
job's output.

A job is one call into nilorb's public API whose output is checked against
`pins.json`.  The inputs are literal data here, so that a change to the
program cannot change what the benchmark asks of it.  `Job.compute` is the
timed call; `Job.canonical`, outside the job's timer, turns its result into
  * `pinned`: the seed-independent output, compared with `pins.json`;
  * `full`: a digest of the whole output, the random parts of the sl2
    triples included, which must repeat byte for byte for one seed;
  * `info`: the method-selection data of a grading (coset index, dims).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import nilorb

# Kac labels s_0..s_l, in the order nilorb.enumerate_kac_diagrams lists them.
F4_KAC = {
    2: [(0, 0, 0, 0, 1), (0, 1, 0, 0, 0), (2, 0, 0, 0, 0)],
    3: [(0, 0, 1, 0, 0), (1, 0, 0, 0, 1), (1, 1, 0, 0, 0), (3, 0, 0, 0, 0)],
    4: [(0, 0, 0, 0, 2), (0, 0, 0, 1, 0), (0, 1, 0, 0, 1), (0, 2, 0, 0, 0),
        (1, 0, 1, 0, 0), (2, 0, 0, 0, 1), (2, 1, 0, 0, 0), (4, 0, 0, 0, 0)],
    5: [(0, 0, 1, 0, 1), (0, 1, 1, 0, 0), (1, 0, 0, 0, 2), (1, 0, 0, 1, 0), (1, 1, 0, 0, 1),
        (1, 2, 0, 0, 0), (2, 0, 1, 0, 0), (3, 0, 0, 0, 1), (3, 1, 0, 0, 0), (5, 0, 0, 0, 0)],
    6: [(0, 0, 0, 0, 3), (0, 0, 0, 1, 1), (0, 0, 2, 0, 0), (0, 1, 0, 0, 2), (0, 1, 0, 1, 0),
        (0, 2, 0, 0, 1), (0, 3, 0, 0, 0), (1, 0, 1, 0, 1), (1, 1, 1, 0, 0), (2, 0, 0, 0, 2),
        (2, 0, 0, 1, 0), (2, 1, 0, 0, 1), (2, 2, 0, 0, 0), (3, 0, 1, 0, 0), (4, 0, 0, 0, 1),
        (4, 1, 0, 0, 0), (6, 0, 0, 0, 0)],
}
E6_KAC_ORDER2 = [(0, 0, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0, 0)]
# The order-3 E6 diagram whose sweep spends about half its time in act_weight.
E6_KAC_ORDER3_HEAVY = (0, 0, 0, 0, 1, 0, 0)


def _type(name: str) -> tuple[str, int]:
    return name[0], int(name[1:])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _frac(x) -> str:
    return str(Fraction(x))


def _element(x) -> str:
    return " ".join(f"{k}:{_frac(c)}" for k, c in sorted(x.coeffs.items()))


@dataclass(frozen=True)
class Job:
    """One call into nilorb.  `kind` selects the call, `arg` its input:
    Kac labels, a grading order, or a node of the extended diagram."""

    kind: str
    type_name: str
    arg: tuple | int | None = None

    @property
    def name(self) -> str:
        if self.kind == "kac":
            return f"{self.type_name} kac {','.join(map(str, self.arg))}"
        if self.kind == "principal":
            return f"{self.type_name} principal {self.arg}"
        if self.kind == "cosets":
            return f"{self.type_name} cosets omit {self.arg}"
        return f"{self.type_name} {self.kind}"

    @property
    def is_grading(self) -> bool:
        return self.kind in ("kac", "principal")

    def compute(self, method: str, seed: int):
        rs = nilorb.build_root_system(*_type(self.type_name))
        if self.kind == "ambient":
            return nilorb.classify_nilpotent_g(nilorb.build_algebra(rs))
        if self.kind == "classify_all":
            return nilorb.classify_all(rs)
        if self.kind == "classify_maximal":
            return nilorb.classify_maximal(rs)
        if self.kind == "cosets":
            ext = rs.extended_basis()
            basis = rs.subsystem_positive_basis([r for i, r in enumerate(ext) if i != self.arg])
            return basis, nilorb.shortest_coset_reps(rs, nilorb.WeylSubgroup(rs, basis))
        alg = nilorb.build_algebra(rs)
        if self.kind == "kac":
            grading = nilorb.grading_from_kac(alg, nilorb.KacDiagram.from_labels(rs, self.arg))
        else:
            grading = nilorb.principal_nregular_grading(alg, self.arg)
        records = nilorb.classify_orbits(grading, method=method, seed=seed)
        return grading, records, nilorb.summarize(grading, records)

    def canonical(self, result) -> tuple[dict, str, dict]:
        rs = nilorb.build_root_system(*_type(self.type_name))
        if self.kind == "ambient":
            wdds = sorted(list(w.labels) for w, _ in result)
            full = ";".join(f"{w.labels}={_element(h)}" for w, h in result)
            return {"orbits": len(result), "wdds": wdds}, _digest(full), {}
        if self.kind in ("classify_all", "classify_maximal"):
            # Representatives may change with the algorithm; the Dynkin type
            # and root lengths of each class may not.
            classes = sorted(
                nilorb.format_dynkin_type(rs.dynkin_type(pi))
                + ":" + ",".join(sorted(_frac(rs.length2(r)) for r in pi))
                for pi in result
            )
            full = ";".join(repr(pi) for pi in result)
            return {"classes": len(result), "signatures": classes}, _digest(full), {}
        if self.kind == "cosets":
            basis, reps = result
            lengths = Counter(len(w.word) for w in reps)
            pinned = {
                "subsystem": nilorb.format_dynkin_type(rs.dynkin_type(basis)),
                "count": len(reps),
                "lengths": [lengths[k] for k in range(max(lengths) + 1)],
            }
            full = ";".join(",".join(map(str, w.word)) for w in reps)
            return pinned, _digest(full), {}
        grading, records, s = result
        hkeys = ";".join(",".join(_frac(c) for c in key) for key in sorted(r.h_key() for r in records))
        pinned = {
            "summary": [s.orbit_count, s.component_count, s.component_dim, s.rank,
                        s.nregular, s.very_nregular],
            "wdds": [list(r.ambient_wdd.labels) for r in records],
            "hkeys": _digest(hkeys),
        }
        full = ";".join(
            f"{_element(r.h)}|{_element(r.e)}|{_element(r.f)}|{r.ambient_wdd.labels}|{r.dim}"
            for r in records
        )
        dims = grading.dims()
        info = {"coset_index": grading.coset_index(), "dim_g0": dims[0], "dim_g1": dims[1 % grading.m]}
        return pinned, _digest(full), info


@dataclass(frozen=True)
class Workload:
    """Types set up before the clock starts, the listing method passed to
    classify_orbits, and the job list."""

    types: tuple[str, ...]
    algebras: bool
    method: str | None
    jobs: tuple[Job, ...]


def kac_jobs(type_name, labels_list):
    return tuple(Job("kac", type_name, labels) for labels in labels_list)


F4_SHARED = kac_jobs("F4", [kd for m in range(3, 7) for kd in F4_KAC[m]])

WORKLOADS = {
    "sweep": Workload(
        types=("F4", "E6"),
        algebras=True,
        method="1",
        jobs=(Job("ambient", "F4"),)
        + kac_jobs("F4", F4_KAC[2])
        + F4_SHARED
        + (Job("ambient", "E6"),)
        + kac_jobs("E6", E6_KAC_ORDER2 + [E6_KAC_ORDER3_HEAVY]),
    ),
    "carrier": Workload(
        types=("F4", "E6"),
        algebras=True,
        method="2",
        jobs=F4_SHARED + (Job("principal", "E6", 7),),
    ),
    "ambient": Workload(
        types=("F4", "E6", "E7"),
        algebras=True,
        method=None,
        jobs=(Job("ambient", "F4"), Job("ambient", "E6"), Job("ambient", "E7")),
    ),
    "structure": Workload(
        types=("E8", "F4", "E6", "C6"),
        algebras=False,
        method=None,
        jobs=(
            Job("cosets", "E8", 5),
            Job("classify_all", "F4"),
            Job("classify_all", "E6"),
            Job("classify_maximal", "C6"),
        ),
    ),
}


def setup(workload: Workload) -> None:
    """Build the root systems (and algebras) of the workload's types; both
    builders are cached, so the jobs find them ready."""
    for type_name in workload.types:
        rs = nilorb.build_root_system(*_type(type_name))
        if workload.algebras:
            nilorb.build_algebra(rs)
