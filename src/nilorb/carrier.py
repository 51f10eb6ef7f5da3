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
from fractions import Fraction

from . import linalg
from .characteristics import DEFAULT_OMEGA_CAP, decide_normal, task_rng
from .chevalley import LieElement
from .grading import ThetaGrading
from .pisystems import canonical, classify_all, is_pi_system
from .records import (
    InternalConsistencyError,
    OrbitRecord,
    cartan_from_dual_weight,
    dual_weight,
    sort_records,
    wdd_of_cartan,
    zero_record,
)
from .rootsystem import Root
from .weyl import conjugacy_classes, to_subdominant

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
    once.
    """
    rs = grading.rs
    w0 = grading.weyl_subgroup()

    def add_one(cand: GradedCandidate) -> list[GradedCandidate]:
        return [
            GradedCandidate(cand.pi0, canonical(cand.pi1 + (r,)))
            for r in grading.phi1
            if r not in cand.pi1 and is_pi_system(rs, cand.roots() + (r,))
        ]

    start = [GradedCandidate(pi0, ()) for pi0 in classify_all(rs, basis=grading.delta0, sub=w0)]
    found = conjugacy_classes(rs, w0, start, lambda c: (c.pi0, c.pi1), add_one)
    ordered = sorted(found, key=lambda c: (len(c.pi0) + len(c.pi1), c.pi0, c.pi1))
    log.debug("%s: %d candidates", grading, len(ordered))
    return ordered


def completion(grading: ThetaGrading, cand: GradedCandidate) -> CompletionResult | None:
    """Defining element of the completion of the candidate's subalgebra.

    Solves alpha(h0) = deg(alpha) over the span of the candidate's coroots,
    computes the centraliser directions z, and reads off the degree-0 and
    degree-1 root sets of the completion; returns None when no defining
    element exists (the linear system is inconsistent).
    """
    alg, rs = grading.alg, grading.rs
    pi = list(cand.pi0) + list(cand.pi1)
    if not pi:
        raise ValueError("empty candidate has no completion; handle upstream")
    degs = [0] * len(cand.pi0) + [1] * len(cand.pi1)
    coroots = [alg.coroot(a) for a in pi]
    rows = [[alg.root_value(b, hc) for hc in coroots] for b in pi]
    sol = linalg.solve(rows, degs)
    if sol is None:
        log.debug("candidate %s: no defining element", cand)
        return None
    h0 = alg.zero()
    for c, hc in zip(sol, coroots):
        if c:
            h0 = h0 + hc.scale(c)
    pair_rows = [[rs.pairing(a, rs.simple_root(k)) for k in range(rs.rank)] for a in pi]
    z_basis = tuple(alg.cartan(v) for v in linalg.nullspace(pair_rows))

    def in_completion(root: Root) -> bool:
        return all(alg.root_value(root, u) == 0 for u in z_basis)

    one = 1 % grading.m
    psi0 = tuple(
        r
        for r, d in zip(rs.roots, grading.deg_by_index)
        if d == 0 and alg.root_value(r, h0) == 0 and in_completion(r)
    )
    psi1 = tuple(
        r
        for r, d in zip(rs.roots, grading.deg_by_index)
        if d == one and alg.root_value(r, h0) == 1 and in_completion(r)
    )
    flat = len(pi) + len(psi0) == len(psi1)
    return CompletionResult(h0, z_basis, psi0, psi1, flat)


def classify_by_carriers(
    grading: ThetaGrading,
    seed: int = 0,
    omega_cap: int = DEFAULT_OMEGA_CAP,
) -> list[OrbitRecord]:
    """All nilpotent orbits of the theta-group via flat carrier candidates.

    Each flat completion contributes h = 2 h0, canonicalised into the
    dominant chamber of W_l; unseen canonical forms are completed to normal
    triples, which must succeed for a flat carrier.
    """
    alg, rs = grading.alg, grading.rs
    wl = grading.weyl_subgroup()
    records = [zero_record(alg)]
    seen = set()
    for idx, cand in enumerate(candidate_pi_systems(grading)):
        if cand.is_empty():
            continue
        comp = completion(grading, cand)
        if comp is None or not comp.flat:
            continue
        htilde = comp.h0.scale(2)
        lam, _ = to_subdominant(rs, wl, dual_weight(alg, htilde))
        h = cartan_from_dual_weight(alg, lam)
        key = tuple(Fraction(c) for c in h.cartan_part())
        if key in seen:
            continue
        seen.add(key)
        triple = decide_normal(grading, h, rng=task_rng(seed, idx), omega_cap=omega_cap)
        if triple is None:
            raise InternalConsistencyError(
                f"flat carrier {cand} produced non-normal canonical h = {h!r}"
            )
        records.append(
            OrbitRecord(triple.h, triple.e, triple.f, ambient_wdd=wdd_of_cartan(alg, triple.h))
        )
    return sort_records(records)
