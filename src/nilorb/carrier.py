"""Orbit listing through carrier algebras.

Every nilpotent orbit of the theta-group has a representative in general
position inside a complete, standard, locally flat Z-graded semisimple
subalgebra.  Candidate subalgebras are generated as pi-systems split into a
degree-0 part inside Phi_0 and a degree-1 part inside Phi_1, one per
conjugacy class under the Weyl group of g_0 (a class search that adds one
degree-1 root at a time); each flat completion contributes the canonical
form of twice its defining element, and distinct canonical forms are
exactly the distinct orbits.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from . import linalg
from .characteristics import DEFAULT_OMEGA_CAP, check_omega_cap, decide_normal, task_rng
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
    (and not in the candidate) and the rows stay independent.
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
        rows = [list(r) for r in roots]
        return [
            GradedCandidate(cand.pi0, canonical(cand.pi1 + (r,)))
            for i, r in phi1
            if not blocked >> i & 1 and linalg.rank_int(rows + [list(r)]) == len(rows) + 1
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


def completion(grading: ThetaGrading, cand: GradedCandidate) -> CompletionResult | None:
    """Defining element of the completion of the candidate's subalgebra.

    Solves alpha(h0) = deg(alpha) over the span of the candidate's coroots,
    computes the centraliser directions z, and reads off the degree-0 and
    degree-1 root sets of the completion; returns None when no defining
    element exists (the linear system is inconsistent).  Everything after
    the solve is in integers: the solution's denominators are cleared once,
    giving hnum = den * h0, and a root of degree 0 (or 1) with
    den * alpha(h0) = 0 (or den) belongs to the completion when its integer
    row of simple pairings is orthogonal to every integer z row.
    """
    alg, rs = grading.alg, grading.rs
    pi = [rs.root_index[a] for a in cand.pi0 + cand.pi1]
    if not pi:
        raise ValueError("empty candidate has no completion; handle upstream")
    degs = [0] * len(cand.pi0) + [1] * len(cand.pi1)
    pair = alg.simple_pairings
    coroots = [alg.coroot_coords[j] for j in pi]
    rows = [[sum(map(mul, hc, pair[b])) for hc in coroots] for b in pi]
    sol = linalg.solve(rows, degs)
    if sol is None:
        log.debug("candidate %s: no defining element", cand)
        return None
    solnum, den = linalg.clear_denominators(sol)
    hnum = [sum(map(mul, solnum, col)) for col in zip(*coroots)]
    z_rat = linalg.nullspace([pair[b] for b in pi])
    z_int = [linalg.clear_denominators(v)[0] for v in z_rat]

    def in_completion(i: int) -> bool:
        return all(sum(map(mul, z, pair[i])) == 0 for z in z_int)

    one = 1 % grading.m
    psi0, psi1 = [], []
    for i, (d, v) in enumerate(zip(grading.deg_by_index, alg.root_values(hnum))):
        # test both: at m = 1, one == 0, so a degree-0 root may be in psi1
        if d == 0 and v == 0 and in_completion(i):
            psi0.append(rs.roots[i])
        if d == one and v == den and in_completion(i):
            psi1.append(rs.roots[i])
    flat = len(pi) + len(psi0) == len(psi1)
    return CompletionResult(
        alg.cartan(hnum, den),
        tuple(alg.cartan(v) for v in z_rat),
        tuple(psi0),
        tuple(psi1),
        flat,
    )


def classify_by_carriers(
    grading: ThetaGrading,
    seed: int = 0,
    omega_cap: int = DEFAULT_OMEGA_CAP,
) -> list[OrbitRecord]:
    """All nilpotent orbits of the theta-group via flat carrier candidates.

    Each flat completion contributes h = 2 h0, canonicalised into the
    dominant chamber of W_l on its integer root values; unseen canonical
    forms are completed to normal triples, which must succeed for a flat
    carrier.
    """
    check_omega_cap(omega_cap)
    alg, rs = grading.alg, grading.rs
    basis0 = [rs.root_index[b] for b in grading.delta0]
    records = [zero_record(alg)]
    seen = set()
    for idx, cand in enumerate(candidate_pi_systems(grading)):
        if cand.is_empty():
            continue
        comp = completion(grading, cand)
        if comp is None or not comp.flat:
            continue
        _, den, values = alg.cartan_values(comp.h0.scale(2))
        values = dominant_values(rs, basis0, values)
        h = alg.cartan(alg.hnum_from_values([values[i] for i in rs.simple_indices]), den)
        if h in seen:
            continue
        seen.add(h)
        triple = decide_normal(grading, h, rng=task_rng(seed, idx), omega_cap=omega_cap)
        if triple is None:
            raise InternalConsistencyError(
                f"flat carrier {cand} produced non-normal canonical h = {h!r}"
            )
        records.append(
            OrbitRecord(triple.h, triple.e, triple.f, ambient_wdd=wdd_of_cartan(alg, triple.h))
        )
    return sort_records(records)
