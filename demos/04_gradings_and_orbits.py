#!/usr/bin/env python3
"""From a Kac diagram to the nilpotent orbits of its theta-group.

The order-3 grading of sl4 with labels (1,1,1,0) is worked end to end: the
degree-0 part is sl2 plus a two-dimensional torus (the centre of g_0, of
dimension rank - len(delta0)), the degree-1 part is five-dimensional, and
both listing methods agree on the orbits.
"""

from nilorb import (
    KacDiagram,
    build_algebra,
    build_root_system,
    classify_by_carriers,
    classify_by_characteristics,
    classify_orbits,
    grading_from_kac,
    summarize,
)

alg = build_algebra(build_root_system("A", 3))
kd = KacDiagram.from_labels(alg.rs, (1, 1, 1, 0))
g = grading_from_kac(alg, kd)

print(f"sl4, Kac labels {list(kd.labels)}: order m = {g.m}")
print("component dimensions:", list(g.dims()))
print("degree-0 simple system:", [list(r) for r in g.delta0], "+ centre of dim", alg.rs.rank - len(g.delta0))
print()

records = classify_orbits(g)
print(f"{len(records)} records (zero orbit included):")
for r in records:
    print(f"  h = {r.h or 0!r:24}  dim {r.dim}  ambient wdd {r.ambient_wdd.labels}  e = {r.e!r}")

s = summarize(g, records)
print()
print(
    f"summary: {s.orbit_count} nonzero orbits, {s.component_count} component(s) "
    f"of dim {s.component_dim}, rank {s.rank}"
)

t1 = [(r.h, r.e, r.f) for r in classify_by_characteristics(g)]
t2 = [(r.h, r.e, r.f) for r in classify_by_carriers(g)]
print("characteristic sweep and carrier walk give the same triples:", t1 == t2)
