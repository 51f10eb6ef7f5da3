"""Regenerate pins.json: the seed-independent output of every benchmark job.

Usage (from the repository root, about two minutes):
    PYTHONPATH=src python3 perfbench/make_pins.py

Before it writes anything it checks what the pins rest on:
  * both listing methods give the same output on every grading that
    CROSS_CHECK names, method 1 with seed 0 and method 2 with seed 1, so
    the pins hold for more than one seed;
  * the N-regular grading of each complete order matches the published
    table row (the acceptance suite's criteria 2 and 3);
  * the counts named in ROADMAP.md: 16, 21 and 45 ambient orbits, 48384
    cosets of 2A4 in E8, 23 and 20 nonempty pi-system classes.
Change pins.json only with a reason: a wrong pin hides a wrong answer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from workloads import F4_KAC, WORKLOADS, Job

HERE = Path(__file__).resolve().parent

# (type, order) -> orbit count, components, component dim, rank, very N-regular
# of the one N-regular grading of that order
PUBLISHED_ROWS = {
    ("F4", 2): (26, 1, 24, 4, True),
    ("F4", 3): (19, 1, 16, 2, True),
    ("F4", 4): (29, 3, 12, 2, False),
    ("F4", 5): (15, 1, 11, 0, True),
    ("E6", 2): (37, 1, 36, 4, True),
}
KAC_OF_ORDER = {("F4", m): F4_KAC[m] for m in (2, 3, 4, 5)}
KAC_OF_ORDER[("E6", 2)] = workloads.E6_KAC_ORDER2
# The carrier walk takes 45 s on E6 (0,0,1,0,0,0,0) and 30 s on E6
# (0,0,0,0,1,0,0), so neither is cross-checked; the first is still covered
# by the published E6 order-2 row.
CROSS_CHECK = {job.name for job in workloads.F4_SHARED + workloads.kac_jobs("F4", F4_KAC[2])}
CROSS_CHECK.add("E6 principal 7")
EXPECTED = {
    "F4 ambient": ("orbits", 16),
    "E6 ambient": ("orbits", 21),
    "E7 ambient": ("orbits", 45),
    "E8 cosets omit 5": ("count", 48384),
    "F4 classify_all": ("classes", 24),  # 23 nonempty classes and the empty one
    "E6 classify_all": ("classes", 21),
}


def pinned(job: Job, method: str | None, seed: int) -> dict:
    return job.canonical(job.compute(method, seed))[0]


def main() -> None:
    jobs: dict[str, dict] = {}
    for name, workload in WORKLOADS.items():
        for job in workload.jobs:
            if job.name in jobs:
                continue
            print(f"{name}: {job.name}", file=sys.stderr, flush=True)
            jobs[job.name] = pinned(job, "1" if job.is_grading else None, 0)
            if job.name in CROSS_CHECK:
                other = pinned(job, "2", 1)
                if other != jobs[job.name]:
                    raise SystemExit(f"methods disagree on {job.name}: {jobs[job.name]} != {other}")
    for (type_name, m), want in PUBLISHED_ROWS.items():
        rows = [jobs[Job("kac", type_name, kd).name]["summary"] for kd in KAC_OF_ORDER[(type_name, m)]]
        hits = [s for s in rows if s[4]]
        if len(hits) != 1 or tuple(hits[0][:4]) + (hits[0][5],) != want:
            raise SystemExit(f"{type_name} order {m}: N-regular rows {hits}, published {want}")
    for name, (key, value) in EXPECTED.items():
        if jobs[name][key] != value:
            raise SystemExit(f"{name}: {key} = {jobs[name][key]}, expected {value}")

    spec = {
        name: {"method": w.method, "jobs": [job.name for job in w.jobs]} for name, w in WORKLOADS.items()
    }
    lines = ["{", ' "workloads": {']
    lines += [f"  {json.dumps(k)}: {json.dumps(v)}," for k, v in spec.items()]
    lines[-1] = lines[-1].rstrip(",")
    lines += [" },", ' "jobs": {']
    lines += [f"  {json.dumps(k)}: {json.dumps(v)}," for k, v in jobs.items()]
    lines[-1] = lines[-1].rstrip(",")
    lines += [" }", "}"]
    (HERE / "pins.json").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
