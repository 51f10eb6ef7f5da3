#!/usr/bin/env python3
"""Classifying pi-systems (bases of root subsystems) up to Weyl conjugacy.

The search runs over conjugacy classes (told apart by a canonical key,
weyl.conjugacy_key): starting from the simple basis, adjoin a component's
lowest root and erase another root of that component, but only in the first
system met of each class; then drop one root at a time from the maximal
classes, again from one system per class.  Both moves commute with the Weyl
group, so one representative per class reaches every class.
"""

from nilorb import build_root_system, classify_all, classify_maximal, elementary_transformations, format_dynkin_type

g2 = build_root_system("G", 2)
delta = [g2.simple_root(0), g2.simple_root(1)]
print("One elementary transformation away from the G2 simple basis:")
for pi in elementary_transformations(g2, delta):
    print("  ", [list(r) for r in pi], "=", format_dynkin_type(g2.dynkin_type(pi)))

print()
print("G2 subsystem classes:")
for pi in classify_all(g2):
    print("  ", format_dynkin_type(g2.dynkin_type(pi)) if pi else "0", [list(r) for r in pi])

print()
for label, rank in [("F", 4), ("E", 6)]:
    rs = build_root_system(label, rank)
    maximal = classify_maximal(rs)
    classes = [p for p in classify_all(rs) if p]
    types = sorted(format_dynkin_type(rs.dynkin_type(p)) for p in maximal)
    print(f"{label}{rank}: {len(maximal)} maximal classes {types}")
    print(f"      {len(classes)} classes in total")
