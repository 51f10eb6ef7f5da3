#!/usr/bin/env python3
"""Carrier algebras up close, on the order-3 grading of sl4.

A nilpotent element in general position inside a complete, standard,
locally flat graded subalgebra has that subalgebra as its carrier.  The
worked example: the candidate with degree-1 basis {e_23, e_31} completes to
itself, its defining element is -e_11 + e_22, and twice the defining
element is the h of a normal sl2-triple.  A completion holds integers
(den * h0 and den * alpha(h0) for every root alpha); the demo builds the
Fraction h0 from them for printing, and hands the doubled integers to the
normality test, decide_normal, which takes h in that integer form (a
Fraction h would go through alg.cartan_values first).
"""

from nilorb import (
    GradedCandidate,
    KacDiagram,
    build_algebra,
    build_root_system,
    candidate_pi_systems,
    completion,
    decide_normal,
    grading_from_kac,
)

alg = build_algebra(build_root_system("A", 3))
g = grading_from_kac(alg, KacDiagram.from_labels(alg.rs, (1, 1, 1, 0)))

cands = candidate_pi_systems(g)
print(f"{len(cands)} candidates for sl4 labels (1,1,1,0); a few of them:")
for cand in cands[:6]:
    print(f"  pi0 = {[list(r) for r in cand.pi0]}, pi1 = {[list(r) for r in cand.pi1]}")

# in root coordinates: e_23 is the root vector of alpha_2 and e_31 the root
# vector of -(alpha_1 + alpha_2)
example = GradedCandidate((), ((-1, -1, 0), (0, 1, 0)))
comp = completion(g, example)
print()
print("the {e_23, e_31} candidate:")
print("  defining element h0 =", alg.cartan(comp.hnum, comp.den))
print("  psi0 =", [list(r) for r in comp.psi0], " psi1 =", [list(r) for r in comp.psi1])
print("  locally flat:", comp.flat)

triple = decide_normal(g, [2 * x for x in comp.hnum], comp.den, [2 * v for v in comp.values])
print("  normal triple from 2 h0: e =", triple.e)

print()
flat = sum(
    1
    for c in cands
    if not c.is_empty() and (r := completion(g, c)) is not None and r.flat
)
print(f"{flat} of the {len(cands) - 1} nonempty candidates complete to a locally flat subalgebra")
