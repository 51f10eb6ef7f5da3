"""Pi-systems: linearly independent root sets with no pairwise difference
in the root system, and their classification up to Weyl conjugacy.

A pi-system is exactly a basis of a root subsystem.  Classification walks
the elementary-transformation graph from the simple basis (add a component's
lowest root, erase another root of that component), keeps the first system
of each conjugacy class found (classes are told apart by weyl.conjugacy_key),
then takes the subsets of those and keeps the first of each class again.
"""

from __future__ import annotations

from .linalg import rank_int
from .rootsystem import Root, RootSystem
from .weyl import WeylSubgroup, conjugacy_classes

PiSystem = tuple  # canonically sorted tuple of roots


def canonical(roots) -> PiSystem:
    return tuple(sorted(tuple(r) for r in roots))


def is_pi_system(rs: RootSystem, roots) -> bool:
    """C1: no difference of two elements is a root; C2: linear independence."""
    roots = [tuple(r) for r in roots]
    for r in roots:
        if r not in rs.root_index:
            raise ValueError(f"{r} is not a root of {rs!r}")
    for i, a in enumerate(roots):
        for b in roots[i + 1 :]:
            if tuple(x - y for x, y in zip(a, b)) in rs.root_index:
                return False
    if len(set(roots)) != len(roots):
        return False
    return rank_int([list(r) for r in roots]) == len(roots) if roots else True


def elementary_transformations(rs: RootSystem, pi, _lowest_cache=None) -> list[PiSystem]:
    """All pi-systems obtained by one elementary transformation.

    For each connected component D: adjoin the lowest root of the subsystem
    spanned by D, then erase one original root of D.  Erasing inside D keeps
    the set independent, so only the difference condition needs rechecking.
    """
    pi = canonical(pi)
    cache = _lowest_cache if _lowest_cache is not None else {}
    out = []
    seen = set()
    for comp in rs.components(pi):
        key = frozenset(comp)
        low = cache.get(key)
        if low is None:
            low = rs.lowest_root_of_subsystem(comp)
            cache[key] = low
        for erased in comp:
            rest = [r for r in pi if r != erased]
            if low in rest:
                continue
            if any(
                tuple(x - y for x, y in zip(low, r)) in rs.root_index
                or tuple(y - x for x, y in zip(low, r)) in rs.root_index
                for r in rest
            ):
                continue
            new = canonical(rest + [low])
            if new != pi and new not in seen:
                seen.add(new)
                out.append(new)
    return out


def _transformation_closure(rs: RootSystem, start: PiSystem) -> list[PiSystem]:
    start = canonical(start)
    seen = {start}
    work = [start]
    cache: dict = {}
    while work:
        cur = work.pop()
        for new in elementary_transformations(rs, cur, _lowest_cache=cache):
            if new not in seen:
                seen.add(new)
                work.append(new)
    return sorted(seen)


def classify_maximal(rs: RootSystem, basis=None, sub: WeylSubgroup | None = None) -> list[PiSystem]:
    """Maximal-rank pi-systems reachable from the given simple basis by
    elementary transformations, up to conjugacy under the given subgroup:
    the first of each class in the sorted transformation closure.

    Defaults classify within the whole root system under the full Weyl group;
    passing a subsystem basis and its Weyl subgroup classifies inside that
    subsystem instead.
    """
    if basis is None:
        basis = tuple(rs.simple_root(i) for i in range(rs.rank))
    if sub is None:
        sub = WeylSubgroup(rs, basis)
    if not basis:
        return [()]
    closure = _transformation_closure(rs, canonical(basis))
    return conjugacy_classes(rs, sub, closure)


def classify_all(rs: RootSystem, basis=None, sub: WeylSubgroup | None = None) -> list[PiSystem]:
    """All pi-systems (the empty one included) up to conjugacy under the
    given subgroup: the first of each class among the subsets of the maximal
    classes, ordered by size and then by roots."""
    if basis is None:
        basis = tuple(rs.simple_root(i) for i in range(rs.rank))
    if sub is None:
        sub = WeylSubgroup(rs, basis)
    maximal = classify_maximal(rs, basis, sub)
    subsets = set()
    for pi in maximal:
        n = len(pi)
        for mask in range(1 << n):
            subsets.add(canonical(p for i, p in enumerate(pi) if mask >> i & 1))
    ordered = sorted(subsets, key=lambda p: (len(p), p))
    return conjugacy_classes(rs, sub, ordered)
