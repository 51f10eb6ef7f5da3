"""Orbit listing through carrier algebras.

Every nilpotent orbit of the theta-group has a representative in general
position inside a complete, standard, locally flat Z-graded semisimple
subalgebra.  Candidate subalgebras are generated as pi-systems split into a
degree-0 part inside Phi_0 and a degree-1 part inside Phi_1, one per
conjugacy class under the Weyl group of g_0 (a class search that adds one
degree-1 root at a time); each flat completion contributes the canonical
form of twice its defining element, and distinct canonical forms are
exactly the distinct orbits.

The walk stays in integers from the class-search move to the canonical h
of an orbit: one integer kernel per candidate tests root independence, and
the completion solves its Cartan system and its centraliser kernel once
each with linalg.solve_int and linalg.kernel_int.  Only the public
completion builds Fraction elements, and the walk does not call it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from . import linalg
from .characteristics import decide_normal, task_rng
from .chevalley import LieElement
from .grading import ThetaGrading
from .pisystems import canonical, classify_all
from .records import (
    InternalConsistencyError,
    OrbitRecord,
    sort_records,
    wdd_of_cartan,
    zero_record,
)
from .rootsystem import Root, RootSystem
from .weyl import conjugacy_classes, dominant_values

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GradedCandidate:
    """Basis of a graded subalgebra: degree-0 roots and degree-1 roots."""

    pi0: tuple[Root, ...]
    pi1: tuple[Root, ...]

    def roots(self) -> tuple[Root, ...]:
        return self.pi0 + self.pi1

    def is_empty(self) -> bool:
        return not self.pi0 and not self.pi1


@dataclass
class CompletionResult:
    """Defining element and root data of the completion of a candidate."""

    h0: LieElement
    z_basis: tuple[LieElement, ...]
    psi0: tuple[Root, ...]
    psi1: tuple[Root, ...]
    flat: bool


def candidate_pi_systems(grading: ThetaGrading) -> list[GradedCandidate]:
    """Candidate set covering, up to conjugacy under the Weyl group of g_0,
    the bases of all locally flat standard graded subalgebras.

    A class search (weyl.conjugacy_classes with blocks (pi0, pi1)) starts
    from (pi0, ()) for each pi-system class pi0 of Phi_0 and adds one root
    of Phi_1 at a time while the union stays a pi-system, extending only
    the first candidate met in each W_0-class.  W_0 preserves Phi_1 and the
    pi-system conditions, so this reaches every class of graded pi-systems
    once.  Since the candidate already is a pi-system, a new root r keeps
    it one when r is outside the union of the candidate's difference masks
    (and not in the candidate) and the rows stay independent, that is,
    when some vector of the integer kernel of the candidate's root rows
    (one linalg.kernel_int per candidate) pairs with r to a nonzero value.
    """
    rs = grading.rs
    w0 = grading.weyl_subgroup()
    masks = _difference_masks(rs)
    phi1 = [(rs.root_index[r], r) for r in grading.phi1]

    def add_one(cand: GradedCandidate) -> list[GradedCandidate]:
        roots = cand.roots()
        blocked = 0
        for i in map(rs.root_index.__getitem__, roots):
            blocked |= masks[i] | 1 << i
        kernel, _ = linalg.kernel_int(roots, rs.rank)
        return [
            GradedCandidate(cand.pi0, canonical(cand.pi1 + (r,)))
            for i, r in phi1
            if not blocked >> i & 1 and any(sum(map(mul, k, r)) for k in kernel)
        ]

    start = [GradedCandidate(pi0, ()) for pi0 in classify_all(rs, basis=grading.delta0)]
    found = conjugacy_classes(rs, w0, start, lambda c: (c.pi0, c.pi1), add_one)
    ordered = sorted(found, key=lambda c: (len(c.pi0) + len(c.pi1), c.pi0, c.pi1))
    log.debug("%s: %d candidates", grading, len(ordered))
    return ordered


@lru_cache(maxsize=None)
def _difference_masks(rs: RootSystem) -> tuple[int, ...]:
    """For each root index i, the bitmask of the indices j with
    roots[i] - roots[j] a root."""
    masks = []
    for a in rs.roots:
        m = 0
        for j, b in enumerate(rs.roots):
            if tuple(x - y for x, y in zip(a, b)) in rs.root_index:
                m |= 1 << j
        masks.append(m)
    return tuple(masks)


@dataclass
class _IntCompletion:
    """Integer form of a completion: h0 = hnum / den over h_1..h_l, values
    the integers den * alpha(h0) in root order, and the centraliser
    directions z / zden, z in z_num."""

    hnum: list[int]
    den: int
    values: list[int]
    z_num: list[list[int]]
    zden: int
    psi0: tuple[Root, ...]
    psi1: tuple[Root, ...]
    flat: bool


def _complete(grading: ThetaGrading, cand: GradedCandidate) -> _IntCompletion | None:
    """The completion of a non-empty candidate in integers (see completion),
    or None when its Cartan system is inconsistent."""
    alg, rs = grading.alg, grading.rs
    pi = [rs.root_index[a] for a in cand.pi0 + cand.pi1]
    if not pi:
        raise ValueError("empty candidate has no completion; handle upstream")
    degs = [0] * len(cand.pi0) + [1] * len(cand.pi1)
    pair = alg.simple_pairings
    coroots = [alg.coroot_coords[j] for j in pi]
    rows = [[sum(map(mul, hc, pair[b])) for hc in coroots] for b in pi]
    sol = linalg.solve_int(rows, degs)
    if sol is None:
        log.debug("candidate %s: no defining element", cand)
        return None
    solnum, den = sol
    hnum = [sum(map(mul, solnum, col)) for col in zip(*coroots)]
    values = alg.root_values(hnum)
    z_num, zden = linalg.kernel_int([pair[b] for b in pi], rs.rank)

    def in_completion(i: int) -> bool:
        return all(sum(map(mul, z, pair[i])) == 0 for z in z_num)

    one = 1 % grading.m
    psi0, psi1 = [], []
    for i, (d, v) in enumerate(zip(grading.deg_by_index, values)):
        # test both: at m = 1, one == 0, so a degree-0 root may be in psi1
        if d == 0 and v == 0 and in_completion(i):
            psi0.append(rs.roots[i])
        if d == one and v == den and in_completion(i):
            psi1.append(rs.roots[i])
    flat = len(pi) + len(psi0) == len(psi1)
    return _IntCompletion(hnum, den, values, z_num, zden, tuple(psi0), tuple(psi1), flat)


def completion(grading: ThetaGrading, cand: GradedCandidate) -> CompletionResult | None:
    """Defining element of the completion of the candidate's subalgebra.

    Solves alpha(h0) = deg(alpha) over the span of the candidate's coroots,
    computes the centraliser directions z, and reads off the degree-0 and
    degree-1 root sets of the completion; returns None when no defining
    element exists (the linear system is inconsistent).  All of it is in
    integers: linalg.solve_int gives hnum = den * h0 over the coroot span
    and linalg.kernel_int the integer z rows, and a root of degree 0 (or 1)
    with den * alpha(h0) = 0 (or den) belongs to the completion when its
    integer row of simple pairings is orthogonal to every z row.  h0 and
    z_basis are the only Fraction elements, built from those integers.
    """
    comp = _complete(grading, cand)
    if comp is None:
        return None
    alg = grading.alg
    return CompletionResult(
        alg.cartan(comp.hnum, comp.den),
        tuple(alg.cartan(z, comp.zden) for z in comp.z_num),
        comp.psi0,
        comp.psi1,
        comp.flat,
    )


def classify_by_carriers(grading: ThetaGrading, seed: int = 0) -> list[OrbitRecord]:
    """All nilpotent orbits of the theta-group via flat carrier candidates.

    Each flat completion contributes h = 2 h0, canonicalised into the
    dominant chamber of W_l on its integer root values; unseen canonical
    forms are completed to normal triples, which must succeed for a flat
    carrier.  The completion is the integer core of `completion`, so no
    Fraction is built before the normal triple; one debug line on the
    module logger counts the candidates, the non-empty ones, the solvable
    and the flat completions, the distinct canonical h and the records.
    """
    alg, rs = grading.alg, grading.rs
    basis0 = [rs.root_index[b] for b in grading.delta0]
    records = [zero_record(alg)]
    seen = set()
    candidates = candidate_pi_systems(grading)
    nonempty = solvable = flat = 0
    for idx, cand in enumerate(candidates):
        if cand.is_empty():
            continue
        nonempty += 1
        comp = _complete(grading, cand)
        if comp is None:
            continue
        solvable += 1
        if not comp.flat:
            continue
        flat += 1
        values = dominant_values(rs, basis0, [2 * v for v in comp.values])
        h = alg.cartan(alg.hnum_from_values([values[i] for i in rs.simple_indices]), comp.den)
        if h in seen:
            continue
        seen.add(h)
        triple = decide_normal(grading, h, rng=task_rng(seed, idx))
        if triple is None:
            raise InternalConsistencyError(
                f"flat carrier {cand} produced non-normal canonical h = {h!r}"
            )
        records.append(
            OrbitRecord(triple.h, triple.e, triple.f, ambient_wdd=wdd_of_cartan(alg, triple.h))
        )
    log.debug(
        "%s: %d candidates, %d non-empty, %d solvable, %d flat, %d distinct h, %d records",
        grading, len(candidates), nonempty, solvable, flat, len(seen), len(records),
    )
    return sort_records(records)
