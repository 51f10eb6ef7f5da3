"""Pi-systems: linearly independent root sets with no pairwise difference
in the root system, and their classification up to Weyl conjugacy.

A pi-system is exactly a basis of a root subsystem.  Classification is a
search over conjugacy classes (weyl.conjugacy_classes, classes told apart by
weyl.conjugacy_key): from the simple basis it applies elementary
transformations (add a component's lowest root, erase another root of that
component) to the first system met in each class only; from the maximal
classes it drops one root at a time, again from one system per class.  Both
moves commute with the Weyl group, so one representative per class reaches
every class that the whole closure reaches.
"""

from __future__ import annotations

from functools import lru_cache

from .rootsystem import Root, RootSystem
from .weyl import WeylSubgroup, conjugacy_classes

PiSystem = tuple  # canonically sorted tuple of roots


def canonical(roots) -> PiSystem:
    return tuple(sorted(tuple(r) for r in roots))


def elementary_transformations(rs: RootSystem, pi) -> list[PiSystem]:
    """All pi-systems obtained by one elementary transformation.

    For each connected component D: adjoin the lowest root of the subsystem
    spanned by D, then erase one original root of D.  Erasing inside D keeps
    the set independent, so only the difference condition needs rechecking.
    Components and lowest roots are read off the root system's integer
    pairing table: the lowest root is -theta_D, where theta_D, the one long
    root of the subsystem dominant for D, is reached by a chamber walk from
    a long root of D (RootSystem.lowest_root_of_subsystem).
    """
    pi = canonical(pi)
    out = []
    seen = set()
    for comp in rs.components(pi):
        low = rs.lowest_root_of_subsystem(comp)
        for erased in comp:
            rest = [r for r in pi if r != erased]
            if low in rest:
                continue
            # -Phi = Phi, so testing low - r covers r - low
            if any(tuple(x - y for x, y in zip(low, r)) in rs.root_index for r in rest):
                continue
            new = canonical(rest + [low])
            if new != pi and new not in seen:
                seen.add(new)
                out.append(new)
    return out


def classify_maximal(rs: RootSystem, basis=None) -> list[PiSystem]:
    """Maximal-rank pi-systems reachable from the given simple basis by
    elementary transformations, up to conjugacy under its Weyl subgroup:
    the first system met in each class by the class search, sorted.

    The default basis classifies within the whole root system under the
    full Weyl group; a subsystem basis classifies inside that subsystem.
    """
    if basis is None:
        basis = tuple(rs.simple_root(i) for i in range(rs.rank))
    reps = conjugacy_classes(
        rs,
        WeylSubgroup(rs, basis),
        [canonical(basis)],
        moves=lambda pi, _: elementary_transformations(rs, pi),
    )
    return sorted(reps)


def classify_all(rs: RootSystem, basis=None) -> list[PiSystem]:
    """All pi-systems (the empty one included) up to conjugacy under the
    Weyl subgroup of the basis: the class search from the maximal classes,
    dropping one root at a time, ordered by size and then by roots.

    The classes are computed once per root system and basis (gradings with
    the same Delta_0 share them); every call returns a new list."""
    if basis is None:
        basis = tuple(rs.simple_root(i) for i in range(rs.rank))
    return list(_classes(rs, tuple(map(tuple, basis))))


@lru_cache(maxsize=None)
def _classes(rs: RootSystem, basis: tuple[Root, ...]) -> tuple[PiSystem, ...]:
    reps = conjugacy_classes(
        rs,
        WeylSubgroup(rs, basis),
        classify_maximal(rs, basis),
        moves=lambda pi, _: [pi[:i] + pi[i + 1 :] for i in range(len(pi))],
    )
    return tuple(sorted(reps, key=lambda p: (len(p), p)))
