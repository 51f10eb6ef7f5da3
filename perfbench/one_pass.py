"""One pass of a workload in a fresh interpreter, so every lru_cache of
nilorb starts cold.

Usage: one_pass.py WORKLOAD SEED SPAWN_TIME [SPANS_PATH | --setup-only]

SPAWN_TIME is the parent's time.monotonic() just before it started this
process, so that set-up time counts interpreter start and `import nilorb`.
With SPANS_PATH the pass is traced and its spans are written there.
With --setup-only it stops after set-up and runs no job.
Prints one JSON object: set-up and wall time, peak RSS, and per job its
time, its canonical output and any error.

An untraced pass samples the host's speed (hostspeed.py) and reports its
times in reference seconds, with the raw times next to them.  A traced
pass does not sample, so that no probe lands inside a span; its times are
raw.
"""

import json
import resource
import sys
import time
import traceback

SETUP_ONLY = sys.argv[4:] == ["--setup-only"]
SPANS_PATH = sys.argv[4] if len(sys.argv) > 4 and not SETUP_ONLY else None
sampler = None
if not SPANS_PATH:
    from hostspeed import Sampler

    sampler = Sampler()
    sampler.install()

import workloads  # noqa: E402  (imports nilorb, which set-up time counts)

tracer = None
if SPANS_PATH:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()


def main() -> None:
    name, seed, spawned = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    workload = workloads.WORKLOADS[name]
    workloads.setup(workload)
    setup_s = time.monotonic() - spawned
    setup_end_ns = time.perf_counter_ns()

    jobs = []
    check_ns = 0  # canonicalising outputs is the benchmark's work, not the job list's
    wall_start_ns = time.perf_counter_ns()
    for job in () if SETUP_ONLY else workload.jobs:
        out = {"name": job.name, "grading": job.is_grading, "error": None}
        t0 = time.perf_counter_ns()
        compute = tracer.wrap("job", job.compute) if tracer else job.compute
        try:
            result = compute(workload.method, seed)
        except Exception:  # a failed job is counted; the pass goes on
            out["error"] = traceback.format_exc(limit=3)
        t1 = time.perf_counter_ns()
        out["interval"] = (t0, t1)
        if out["error"] is None:
            try:
                out["pinned"], out["full"], out["info"] = job.canonical(result)
            except Exception:  # malformed output fails the job too
                out["error"] = traceback.format_exc(limit=3)
            check_ns += time.perf_counter_ns() - t1
        jobs.append(out)
    wall_ns = time.perf_counter_ns() - wall_start_ns - check_ns

    report = {
        "setup_s": setup_s,
        "wall_s": wall_ns / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": jobs,
    }
    if sampler:
        sampler.uninstall()
        setup_ns = int(setup_s * 1e9)
        report["setup_s"] = sampler.normalized(sampler.installed_ns, setup_end_ns, setup_ns)
        report["raw_setup_s"] = (setup_ns - sampler.overhead_ns(sampler.installed_ns, setup_end_ns)) / 1e9
        report["slowdown"] = sampler.slowdown(wall_start_ns, time.perf_counter_ns())
    probes_ns = 0  # handler time inside the jobs
    for out in jobs:
        t0, t1 = out.pop("interval")
        out["seconds"] = out["raw_seconds"] = (t1 - t0) / 1e9
        if sampler:
            probes_ns += sampler.overhead_ns(t0, t1)
            out["raw_seconds"] -= sampler.overhead_ns(t0, t1) / 1e9
            out["seconds"] = sampler.normalized(t0, t1)
    report["raw_wall_s"] = (wall_ns - probes_ns) / 1e9
    if sampler:
        report["wall_s"] = sum(out["seconds"] for out in jobs)
    if tracer:
        report["trace"] = {
            "stats": {k: [v[0], v[1] / 1e9, v[2] / 1e9] for k, v in tracer.stats.items()},
            "counts": dict(tracer.counts),
            "coverage": tracer.self_ns_since(wall_start_ns) / wall_ns,
        }
        tracer.write(SPANS_PATH)
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
