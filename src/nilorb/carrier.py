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
its root rows (GradedCandidate.root_kernel), derived from its parent's or,
for a seed, from linalg.nullspace, and the set of roots of Phi_1 in the
span of its roots (GradedCandidate.phi1_span), read off that kernel: the
move admits no root of the span, and completion solves its Cartan system
with linalg.solve, reads psi1 from the span and tests the roots of psi0
against the kernel; the result holds integers only.

The walk completes only candidates that can be flat.  A flat completion
has |pi| + |psi0| = |psi1|, where psi1 lies in Phi_1 and the span of pi,
and psi0 holds every root +-b with b in pi0 (value 0, in the span, degree
0, and pi0 meets -pi0 nowhere).  So a flat candidate has at least
|pi| + 2|pi0| = |pi1| + 3|pi0| roots of Phi_1 in its span, at every order
m; a candidate with fewer is skipped.  The canonical h goes to
characteristics.decide_normal as (hnum, den, values); the first Fraction
is the h of the normal triple, and records.listing makes the triples the
listing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import mul

from . import linalg
from .characteristics import cartan_key, decide_normal
from .chevalley import ChevalleyAlgebra
from .grading import ThetaGrading
from .pisystems import canonical, classify_all
from .records import InternalConsistencyError, OrbitRecord, listing
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

    def root_kernel(self, rank: int) -> list[tuple[int, ...]]:
        """Integer vectors spanning the kernel of the root rows in rank
        columns, rank minus the number of roots of them: a root lies in the
        span of the candidate's roots exactly when it pairs with every
        vector to zero.  A candidate made by `extend` derives them from its
        parent's (_kernel_with); any other takes linalg.nullspace.  Computed
        on the first call and kept by the candidate (with its rank, since
        the empty candidate has the same roots in every root system), as
        tuples, which hold less memory than lists."""
        kept = self.__dict__.get("_root_kernel")
        if kept is not None and kept[0] == rank:
            return kept[1]
        parent = self.__dict__.get("_parent_kernel")
        if parent is not None and parent[0] == rank:
            vectors = _kernel_with(parent[1], parent[2])
        else:
            vectors = [tuple(v) for v in linalg.nullspace(self.roots(), rank)[0]]
        object.__setattr__(self, "_root_kernel", (rank, vectors))
        return vectors

    def phi1_span(self, grading: ThetaGrading) -> int:
        """Bitmask over root indices of the roots of Phi_1 in the span of the
        candidate's roots, those with which every root_kernel vector pairs
        to zero (one pairing with _packed, or with the vector itself when
        there is one).  A candidate of full rank has an empty kernel, and
        its span is the whole of Phi_1 (grading.phi1_mask).  The
        class-search move reads it on every candidate it expands; any other
        candidate computes it on the first call.  Kept by the candidate with
        its grading."""
        kept = self.__dict__.get("_phi1_span")
        if kept is not None and kept[0] is grading:
            return kept[1]
        rs = grading.rs
        kernel = self.root_kernel(rs.rank)
        if not kernel:
            span = grading.phi1_mask
        else:
            packed = kernel[0] if len(kernel) == 1 else _packed(kernel, rs.highest_root)
            span = 0
            for i, r in zip(grading.phi1_indices, grading.phi1):
                if not sum(map(mul, packed, r)):
                    span |= 1 << i
        object.__setattr__(self, "_phi1_span", (grading, span))
        return span

    def extend(self, root: Root, rank: int) -> "GradedCandidate":
        """The candidate with one more degree-1 root, which must be
        independent of the candidate's roots; its root_kernel will come from
        this one's."""
        child = GradedCandidate(self.pi0, canonical(self.pi1 + (root,)))
        object.__setattr__(child, "_parent_kernel", (rank, self.root_kernel(rank), root))
        return child


def _packed(kernel: list[tuple[int, ...]], theta: Root) -> list[int]:
    """The vector sum_s B^s k_s, whose pairing with a root r is sum_s
    <k_s, r> B^s: each |<k_s, r>| is at most sum_j |k_s[j]| theta[j], since
    theta (the highest root) bounds the coefficients of every root, and B
    is more than twice that, so the pairing is zero exactly when every
    <k_s, r> is."""
    b = 2 * max((sum(abs(x) * t for x, t in zip(k, theta)) for k in kernel), default=0) + 1
    packed = [0] * len(theta)
    for k in reversed(kernel):
        packed = [p * b + x for p, x in zip(packed, k)]
    return packed


def _kernel_with(kernel: list[tuple[int, ...]], root: Root) -> list[tuple[int, ...]]:
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
            vectors.append(tuple([x // g for x in v]))
    return vectors


@dataclass
class CompletionResult:
    """The completion of a candidate, in integers.

    den * h0 = sum_k hnum[k] h_k with den > 0, values[i] = den * alpha_i(h0)
    in root order, psi0 and psi1 the degree-0 and degree-1 roots of the
    completed subalgebra, and flat when the candidate and psi0 together have
    as many roots as psi1.  The Fraction defining element h0 is
    alg.cartan(hnum, den).
    """

    hnum: list[int]
    den: int
    values: list[int]
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
    when some vector of the candidate's root_kernel pairs with r to a
    nonzero value.  Only the first admissible root of each orbit of the
    candidate's stabiliser (conjugacy_classes) makes a child: the others'
    children are conjugate to it and queued after it, so keying them too
    would find the same classes and first members.
    """
    rs = grading.rs
    w0 = grading.weyl_subgroup()
    masks = _difference_masks(grading.alg)
    phi1 = list(zip(grading.phi1_indices, grading.phi1))

    def add_one(cand: GradedCandidate, orbit) -> list[GradedCandidate]:
        blocked = cand.phi1_span(grading)  # holds the candidate's own roots
        if blocked == grading.phi1_mask:
            return []  # every root of Phi_1 is in the span, as at full rank: none admissible
        for i in map(rs.root_index.__getitem__, cand.roots()):
            blocked |= masks[i]
        first = {}  # stabiliser-orbit label -> first admissible root
        for i, r in phi1:
            if not blocked >> i & 1:
                first.setdefault(orbit(i), r)
        return [cand.extend(r, rs.rank) for r in first.values()]

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
    with linalg.solve.  A root of degree 0 (or 1) with den * alpha(h0) =
    0 (or den) is in the completion when it lies in the span of the
    candidate's roots: for degree 1, when it is in the kept phi1_span; for
    degree 0, when the candidate's root_kernel pairs with it to zero.  Each
    kernel vector lists the simple-root values of a Cartan element on which
    every root of the candidate vanishes, so this is the test against that
    centraliser.
    """
    alg, rs = grading.alg, grading.rs
    roots = cand.roots()
    if not roots:
        raise ValueError("empty candidate has no completion; handle upstream")
    pi = [rs.root_index[a] for a in roots]
    degs = [0] * len(cand.pi0) + [1] * len(cand.pi1)
    pair = alg.simple_pairings
    coroots = [rs.coroot_coords[j] for j in pi]
    rows = [[sum(map(mul, hc, pair[b])) for hc in coroots] for b in pi]
    sol = linalg.solve(rows, degs)
    if sol is None:
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
    span = cand.phi1_span(grading)
    psi1 = [rs.roots[i] for i in grading.phi1_indices if values[i] == den and span >> i & 1]
    flat = len(roots) + len(psi0) == len(psi1)
    return CompletionResult(hnum, den, values, tuple(psi0), tuple(psi1), flat)


def classify_by_carriers(grading: ThetaGrading, seed: int = 0) -> list[OrbitRecord]:
    """All nilpotent orbits of the theta-group via flat carrier candidates.

    Each flat completion contributes h = 2 h0, canonicalised into the
    dominant chamber of W_l on its integer root values; unseen canonical
    forms (characteristics.cartan_key, since completion's den need not be
    the least) are completed to normal triples by decide_normal, which
    must succeed for a flat carrier, and records.listing makes the triples
    the listing.  A candidate with no degree-1 root has defining element 0,
    so it is never flat and is not completed.  Nor is a candidate with
    fewer than |pi1| + 3|pi0| roots of Phi_1 in its span (phi1_span), by
    the count bound of the module docstring.  Every other candidate has
    independent roots, so completion must find its defining element.  The
    counts, skipped candidates among them, go to one debug line on the
    module logger.
    """
    alg, rs = grading.alg, grading.rs
    basis0 = [rs.root_index[b] for b in grading.delta0]
    triples = {}  # by the canonical h's cartan_key
    candidates = candidate_pi_systems(grading)
    flat = skipped = 0
    for cand in candidates:
        if not cand.pi1:
            # h0 = 0 solves the system, so no root has value den: never flat
            continue
        if cand.phi1_span(grading).bit_count() < len(cand.pi1) + 3 * len(cand.pi0):
            skipped += 1  # too few roots of Phi_1 in the span: never flat
            continue
        comp = completion(grading, cand)
        if comp is None:
            raise InternalConsistencyError(
                f"{grading.describe()}: candidate {cand} has no defining element"
            )
        if not comp.flat:
            continue
        flat += 1
        den = comp.den
        values = dominant_values(rs, basis0, [2 * v for v in comp.values])
        hnum = alg.hnum_from_values([values[i] for i in rs.simple_indices])
        key = cartan_key(hnum, den)
        if key in triples:
            continue
        triple = decide_normal(grading, hnum, den, values, seed)
        if triple is None:
            raise InternalConsistencyError(
                f"{grading.describe()}: flat carrier {cand} produced non-normal "
                f"canonical h = {alg.cartan(hnum, den)!r}"
            )
        triples[key] = triple, den, values
    records = listing(grading, list(triples.values()))
    log.debug(
        "%s: %d candidates, %d non-empty, %d skipped by the count bound, %d flat, "
        "%d distinct h, %d records",
        grading, len(candidates), sum(not c.is_empty() for c in candidates), skipped, flat,
        len(triples), len(records),
    )
    return records
