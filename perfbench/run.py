"""nilorb benchmark: run one workload and print its metrics as JSON.

Usage (from the repository root):
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

A run starts SETUP_PASSES processes that only set up, then repeats passes
of the workload's job list, each pass in a fresh process (see one_pass.py),
until the next pass would end after --seconds, and at least MIN_PASSES
times.  Untraced times are corrected for the host's speed (hostspeed.py).  Every job's output is checked against
pins.json, and for one seed the full output of a job must repeat byte for
byte from pass to pass.  The last line of stdout is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Per-job records (the method-selection data) and, when traced, the spans
go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 2
# Set-up is short, so an untraced run first starts this many processes that
# only set up; setup_s is the median over them and the full passes.
SETUP_PASSES = 6
# A traced run alternates untraced and traced passes to measure the overhead.
MIN_TRACED_PASSES = 4
# The run must end within 180 s; no pass may start after this.
HARD_LIMIT_S = 120
MIN_COVERAGE = 0.9

LAYER_TIMES = [
    ("rootsystem.build_root_system", ("s",)),
    ("chevalley.build_algebra", ("s",)),
    ("chevalley.complete_sl2", ("calls", "s")),
    ("linalg.solve", ("calls", "s")),
    ("linalg.rank_int", ("calls", "s")),
    ("linalg.nullspace", ("calls", "s")),
    ("weyl.shortest_coset_reps", ("calls", "s")),
    ("weyl.act_weight", ("calls", "s")),
    ("weyl.to_subdominant", ("calls", "s")),
    ("weyl.conjugate_tuples", ("calls", "s")),
    ("weyl.conjugate_sets", ("calls", "s")),
    ("characteristics.classify_nilpotent_g", ("s",)),
    ("characteristics.h_from_wdd", ("calls", "s")),
    ("characteristics.normal_list", ("s",)),
    ("characteristics.decide_normal", ("calls", "s")),
    ("pisystems.classify_all", ("calls", "s")),
    ("pisystems.classify_maximal", ("calls", "s")),
    ("carrier.candidate_pi_systems", ("self_s",)),
    ("carrier.completion", ("calls", "s")),
    ("grading.grading_from_kac", ("calls", "s")),
    ("records.wdd_of_cartan", ("calls", "s")),
    ("nullcone.classify_orbits", ("s",)),
    ("nullcone.orbit_dimension", ("calls", "s")),
    ("nullcone.summarize", ("s",)),
]
# count name -> (numerator count, denominator: a span's call count or a count)
RATIOS = {
    "chevalley.complete_sl2.ok_ratio": ("chevalley.complete_sl2.ok", "chevalley.complete_sl2"),
    "characteristics.decide_normal.hit_ratio": ("characteristics.decide_normal.ok", "characteristics.decide_normal"),
    "carrier.flat_ratio": ("carrier.completion.ok", "carrier.completion"),
    "carrier.new_h_ratio": ("carrier.new_h", "carrier.completion.ok"),
}
COUNTS = ["weyl.coset_reps", "pisystems.classes", "carrier.candidates", "nullcone.orbits"]
UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def run_pass(workload: str, seed: int, spans_path: Path | None, timeout: float,
             setup_only: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # nilorb uses numpy only for integer permutations; keep every pass on one thread.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "one_pass.py"), workload, str(seed)]
    spawned = time.monotonic()
    cmd.append(repr(spawned))
    if spans_path is not None:
        cmd.append(str(spans_path))
    elif setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"a pass of {workload} took longer than {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"a pass of {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def job_failures(passes: list[dict], pins: dict, job_names: list[str]) -> list[str]:
    """One message per failed job: it raised, its seed-independent output
    differs from the pin, or its full output differs from the first pass
    (all passes of a run share one seed)."""
    problems = []
    first = {job["name"]: job.get("full") for job in passes[0]["jobs"]}
    for k, p in enumerate(passes):
        if [job["name"] for job in p["jobs"]] != job_names:
            fail(f"pass {k} ran other jobs than pins.json lists")
        for job in p["jobs"]:
            name = job["name"]
            if job["error"]:
                problems.append(f"pass {k} {name} raised:\n{job['error']}")
            elif job["pinned"] != pins[name]:
                problems.append(f"pass {k} {name}: output {job['pinned']} differs from pin {pins[name]}")
            elif job["full"] != first[name]:
                problems.append(f"pass {k} {name}: output differs from pass 0 with the same seed")
    return problems


def tail_index(n: int, n_min: int) -> int:
    """Index, in n sorted samples, of the percentile (n_min - 10) / n_min:
    the highest with at least 10 samples beyond it in a run of MIN_PASSES
    passes of n_min samples."""
    return -(-(n_min - 10) * n // n_min) - 1


def end_to_end(passes: list[dict], setups: list[dict]) -> dict:
    jobs = passes[0]["jobs"]
    grading = [j["name"] for j in jobs if j["grading"]] or [j["name"] for j in jobs]
    # Job times pool every pass; the tail percentile is fixed per workload.
    samples = sorted(t for name in grading for t in job_seconds(passes, name))
    n_min = len(grading) * MIN_PASSES
    if n_min > 10:
        tail = samples[tail_index(len(samples), n_min)]
    else:  # no percentile has 10 samples beyond it: take the slowest job
        tail = max(statistics.median(job_seconds(passes, name)) for name in grading)
    values = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes + setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "job_p50_s": (statistics.median(samples), "s"),
        "job_tail_s": (tail, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def job_seconds(passes: list[dict], name: str) -> list[float]:
    return [j["seconds"] for p in passes for j in p["jobs"] if j["name"] == name]


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    def layer_values(p: dict) -> dict:
        stats, counts = p["trace"]["stats"], p["trace"]["counts"]
        out = {}
        for name, fields in LAYER_TIMES:
            calls, total, self_s = stats.get(name, [0, 0.0, 0.0])
            for field in fields:
                out[f"{name}.{field}"] = {"calls": calls, "s": total, "self_s": self_s}[field]
        for name in COUNTS:
            out[name] = counts.get(name, 0)
        for name, (num, den) in RATIOS.items():
            base = counts.get(den, stats.get(den, [0])[0])
            out[name] = counts.get(num, 0) / base if base else 0.0
        out["trace.coverage"] = p["trace"]["coverage"]
        return out

    rows = [layer_values(p) for p in traced]
    metrics = {}
    for key in rows[0]:
        field = key.rsplit(".", 1)[1]
        unit = UNITS.get(field, "1" if "ratio" in field or field == "coverage" else "count")
        metrics[key] = {"value": statistics.median(r[key] for r in rows), "unit": unit}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    # Traced passes take no host-speed probes, so compare raw times.
    metrics["trace.overhead_ratio"] = {
        "value": traced_wall / statistics.median(p["raw_wall_s"] for p in untraced),
        "unit": "1",
    }
    return metrics


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "nilorb" / "__init__.py").is_file():
        fail(f"no nilorb sources under {ROOT / 'src'}; run from a checkout of the repository")
    pins = json.loads((HERE / "pins.json").read_text())
    if args.workload not in pins["workloads"]:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(pins['workloads'])}")
    OUT.mkdir(exist_ok=True)

    start = time.monotonic()
    min_passes = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    setups = [] if args.trace else [
        run_pass(args.workload, args.seed, None, timeout=60, setup_only=True) for _ in range(SETUP_PASSES)
    ]
    passes: list[dict] = []
    durations: list[float] = []
    while True:
        elapsed = time.monotonic() - start
        if len(passes) >= min_passes and elapsed + statistics.median(durations) > args.seconds:
            break
        if elapsed > HARD_LIMIT_S:
            fail(f"{len(passes)} passes took {elapsed:.0f} s; the run is too slow to finish in time")
        traced = bool(args.trace) and len(passes) % 2 == 1
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz" if traced else None
        t0 = time.monotonic()
        p = run_pass(args.workload, args.seed, spans, timeout=170 - elapsed)
        durations.append(time.monotonic() - t0)
        p["traced"] = traced
        passes.append(p)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    spec = pins["workloads"][args.workload]
    failures = job_failures(passes, pins["jobs"], spec["jobs"])
    problems = list(failures)
    if traced:
        metrics = per_layer(traced, untraced)
        coverage = metrics["trace.coverage"]["value"]
        if not MIN_COVERAGE <= coverage <= 1:
            problems.append(f"layer and job self times cover {coverage:.3f} of the traced wall time")
    else:
        metrics = end_to_end(untraced, setups)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{len(passes)} passes; host slowdown per untraced pass: "
          + " ".join(f"{p['slowdown']:.2f}" for p in untraced), file=sys.stderr)

    record = [
        {"name": j["name"], **j.get("info", {}), "method": spec["method"],
         "seconds": job_seconds(untraced, j["name"]),
         "raw_seconds": [job["raw_seconds"] for p in untraced for job in p["jobs"] if job["name"] == j["name"]]}
        for j in untraced[0]["jobs"]
    ]
    lines = ",\n".join(json.dumps(r) for r in record)
    (OUT / f"jobs-{args.workload}-seed{args.seed}.json").write_text(f"[\n{lines}\n]\n")

    attempted = sum(len(p["jobs"]) for p in passes)
    failed = len(failures)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
