#!/usr/bin/env python3
"""Survey of N-regular automorphisms: for each order m there is exactly one
inner automorphism class whose degree-1 part contains a regular nilpotent
element, exp(2 pi i ad rho^vee / m), whose Kac diagram nregular_survey
computes in closed form before classifying its one grading.  The table
lists, per order, the Kac labels, the number of nonzero nilpotent orbits,
the component count of the nullcone (starred when the components do not
all lie in one ambient orbit), their dimension, and the rank of the
degree-1 part.
"""

from nilorb import build_algebra, build_root_system, nregular_survey, principal_nregular_grading

for label, rank, orders in [("G", 2, range(2, 6)), ("F", 4, range(2, 12))]:
    alg = build_algebra(build_root_system(label, rank))
    print(f"{label}{rank}")
    print("order  kac            orbits  comps  dim  rank")
    for m in orders:
        kd, s = nregular_survey(alg, m)
        star = "" if s.very_nregular else "*"
        print(
            f"{m:5d}  {','.join(map(str, kd.labels)):13}  {s.orbit_count:6d}  "
            f"{s.component_count}{star:4}  {s.component_dim:3d}  {s.rank:4d}"
        )
    print()

# cross-check: folding the even grading of a principal sl2 mod m gives a
# grading with the same component dimensions as the survey winner
g2 = build_algebra(build_root_system("G", 2))
for m in range(2, 6):
    kd, _ = nregular_survey(g2, m)
    from nilorb import grading_from_kac

    print(
        f"G2 m={m}: survey dims {grading_from_kac(g2, kd).dims()}"
        f" = principal fold dims {principal_nregular_grading(g2, m).dims()}"
    )
