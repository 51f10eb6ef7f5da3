"""Orbit listing through carrier algebras.

Every nilpotent orbit of the theta-group has a representative in general
position inside a complete, standard, locally flat Z-graded semisimple
subalgebra.  Candidate subalgebras are generated as pi-systems split into a
degree-0 part inside Phi_0 and a degree-1 part inside Phi_1, one per
conjugacy class under the Weyl group of g_0 (a class search that adds one
degree-1 root at a time); each flat completion contributes the canonical
form of twice its defining element, and distinct canonical forms are
exactly the distinct orbits.

The walk stays in integers from the class-search move to the normal
triple of an orbit.  Each candidate keeps an integer basis of the kernel of
its root rows (GradedCandidate.root_kernel), derived from its parent's: the
move tests root independence with it, and completion tests membership in
the completion.  The canonical h goes to characteristics.decide_normal_int
and records.wdd_of_values as (hnum, den, values); the first Fraction is the
h of the normal triple, which records.orbit_record makes a record.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import mul

from . import linalg
from .characteristics import cartan_key, decide_normal_int
from .chevalley import ChevalleyAlgebra, LieElement
from .grading import ThetaGrading
from .pisystems import canonical, classify_all
from .records import InternalConsistencyError, OrbitRecord, listing, orbit_record, wdd_of_values
from .rootsystem import Root
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

    def root_kernel(self, rank: int) -> list[list[int]]:
        """Integer vectors spanning the kernel of the root rows in rank
        columns, rank minus the number of roots of them: a root lies in the
        span of the candidate's roots exactly when it pairs with every
        vector to zero.  A candidate made by `extend` derives them from its
        parent's (_kernel_with); any other takes linalg.kernel_int.  Computed
        on the first call and kept by the candidate (with its rank, since
        the empty candidate has the same roots in every root system)."""
        kept = self.__dict__.get("_root_kernel")
        if kept is not None and kept[0] == rank:
            return kept[1]
        parent = self.__dict__.get("_parent_kernel")
        if parent is not None and parent[0] == rank:
            vectors = _kernel_with(parent[1], parent[2])
        else:
            vectors = linalg.kernel_int(self.roots(), rank)[0]
        object.__setattr__(self, "_root_kernel", (rank, vectors))
        return vectors

    def extend(self, root: Root, rank: int) -> "GradedCandidate":
        """The candidate with one more degree-1 root, which must be
        independent of the candidate's roots; its root_kernel will come from
        this one's."""
        child = GradedCandidate(self.pi0, canonical(self.pi1 + (root,)))
        object.__setattr__(child, "_parent_kernel", (rank, self.root_kernel(rank), root))
        return child


def _kernel_with(kernel: list[list[int]], root: Root) -> list[list[int]]:
    """A basis of the vectors in the span of `kernel` that pair with root to
    zero, when some vector does not: with c_s = <k_s, root> and t the first
    index with c_t != 0, the vectors c_t k_s - c_s k_t for s != t, each
    divided by the gcd of its entries."""
    pairings = [sum(map(mul, k, root)) for k in kernel]
    t = next(s for s, c in enumerate(pairings) if c)
    ct, kt = pairings[t], kernel[t]
    vectors = []
    for s, (k, cs) in enumerate(zip(kernel, pairings)):
        if s != t:
            v = [ct * a - cs * b for a, b in zip(k, kt)]
            g = gcd(*v)
            vectors.append([x // g for x in v])
    return vectors


@dataclass
class CompletionResult:
    """The completion of a candidate, in integers.

    den * h0 = sum_k hnum[k] h_k with den > 0, values[i] = den * alpha_i(h0)
    in root order, psi0 and psi1 the degree-0 and degree-1 roots of the
    completed subalgebra, and flat when the candidate and psi0 together have
    as many roots as psi1.  The Fraction elements h0 and z_basis are built
    from alg and cand only when read.
    """

    alg: ChevalleyAlgebra
    cand: GradedCandidate
    hnum: list[int]
    den: int
    values: list[int]
    psi0: tuple[Root, ...]
    psi1: tuple[Root, ...]
    flat: bool

    @property
    def h0(self) -> LieElement:
        """The defining element hnum / den."""
        return self.alg.cartan(self.hnum, self.den)

    @property
    def z_basis(self) -> tuple[LieElement, ...]:
        """Centraliser directions: a basis of the Cartan elements on which
        every root of the candidate vanishes, the kernel of its rows of
        simple pairings."""
        alg = self.alg
        pair, index = alg.simple_pairings, alg.rs.root_index
        kernel, den = linalg.kernel_int([pair[index[b]] for b in self.cand.roots()], alg.rs.rank)
        return tuple(alg.cartan(z, den) for z in kernel)


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
    when some vector of the candidate's root_kernel pairs with r to a
    nonzero value.
    """
    rs = grading.rs
    w0 = grading.weyl_subgroup()
    masks = _difference_masks(grading.alg)
    phi1 = [(rs.root_index[r], r) for r in grading.phi1]

    def add_one(cand: GradedCandidate) -> list[GradedCandidate]:
        roots = cand.roots()
        blocked = 0
        for i in map(rs.root_index.__getitem__, roots):
            blocked |= masks[i] | 1 << i
        kernel = cand.root_kernel(rs.rank)
        return [
            cand.extend(r, rs.rank)
            for i, r in phi1
            if not blocked >> i & 1 and any(sum(map(mul, k, r)) for k in kernel)
        ]

    start = [GradedCandidate(pi0, ()) for pi0 in classify_all(rs, basis=grading.delta0)]
    found = conjugacy_classes(rs, w0, start, lambda c: (c.pi0, c.pi1), add_one)
    ordered = sorted(found, key=lambda c: (len(c.pi0) + len(c.pi1), c.pi0, c.pi1))
    log.debug("%s: %d candidates", grading, len(ordered))
    return ordered


@lru_cache(maxsize=None)
def _difference_masks(alg: ChevalleyAlgebra) -> tuple[int, ...]:
    """For each root index i, the bitmask of the indices j with
    roots[i] - roots[j] a root, read off the structure constants: (i, k)
    is a key exactly when roots[i] + roots[k] is a root, and roots[k] =
    -roots[j] for j = k -+ n_pos."""
    n_pos = alg.rs.n_pos
    masks = [0] * alg.n_roots
    for i, k in alg.structure_constants:
        masks[i] |= 1 << (k + n_pos if k < n_pos else k - n_pos)
    return tuple(masks)


def completion(grading: ThetaGrading, cand: GradedCandidate) -> CompletionResult | None:
    """The completion of a non-empty candidate's subalgebra, or None when
    no defining element exists (the linear system is inconsistent).

    Solves alpha(h0) = deg(alpha) over the span of the candidate's coroots
    with linalg.solve_int.  A root of degree 0 (or 1) with den * alpha(h0) =
    0 (or den) is in the completion when it lies in the span of the
    candidate's roots, that is, when the candidate's root_kernel (the one
    the class-search move read) pairs with it to zero.  A pairing row is the
    root row times the invertible Cartan matrix, so this is the test
    against z_basis.
    """
    alg, rs = grading.alg, grading.rs
    roots = cand.roots()
    if not roots:
        raise ValueError("empty candidate has no completion; handle upstream")
    pi = [rs.root_index[a] for a in roots]
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
    kernel = cand.root_kernel(rs.rank)

    def in_span(i: int) -> bool:
        return not any(sum(map(mul, k, rs.roots[i])) for k in kernel)

    # at m = 1 the degree-1 roots are the degree-0 ones, and a root with
    # value den goes to psi1
    psi0 = [rs.roots[i] for i in grading.phi0_indices if values[i] == 0 and in_span(i)]
    psi1 = [rs.roots[i] for i in grading.phi1_indices if values[i] == den and in_span(i)]
    flat = len(roots) + len(psi0) == len(psi1)
    return CompletionResult(alg, cand, hnum, den, values, tuple(psi0), tuple(psi1), flat)


def classify_by_carriers(grading: ThetaGrading, seed: int = 0) -> list[OrbitRecord]:
    """All nilpotent orbits of the theta-group via flat carrier candidates.

    Each flat completion contributes h = 2 h0, canonicalised into the
    dominant chamber of W_l on its integer root values; unseen canonical
    forms (characteristics.cartan_key, since completion's den need not be
    the least) are completed to normal triples by decide_normal_int, which
    must succeed for a flat carrier, with their weighted Dynkin diagram from
    wdd_of_values.  A candidate with no degree-1 root has defining element
    0, so it is never flat; it is not completed, and counts as solvable in
    the one debug line on the module logger.
    """
    alg, rs = grading.alg, grading.rs
    basis0 = [rs.root_index[b] for b in grading.delta0]
    records = []
    seen = set()
    candidates = candidate_pi_systems(grading)
    nonempty = solvable = flat = 0
    for cand in candidates:
        if cand.is_empty():
            continue
        nonempty += 1
        if not cand.pi1:
            # h0 = 0 solves the system, so no root has value den: never flat
            solvable += 1
            continue
        comp = completion(grading, cand)
        if comp is None:
            continue
        solvable += 1
        if not comp.flat:
            continue
        flat += 1
        den = comp.den
        values = dominant_values(rs, basis0, [2 * v for v in comp.values])
        hnum = alg.hnum_from_values([values[i] for i in rs.simple_indices])
        key = cartan_key(hnum, den)
        if key in seen:
            continue
        seen.add(key)
        triple = decide_normal_int(grading, hnum, den, values, seed)
        if triple is None:
            raise InternalConsistencyError(
                f"flat carrier {cand} produced non-normal canonical h = {alg.cartan(hnum, den)!r}"
            )
        records.append(orbit_record(grading, triple, wdd_of_values(rs, den, values)))
    records = listing(grading, records)
    log.debug(
        "%s: %d candidates, %d non-empty, %d solvable, %d flat, %d distinct h, %d records",
        grading, len(candidates), nonempty, solvable, flat, len(seen), len(records),
    )
    return records
