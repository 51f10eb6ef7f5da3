"""Orbit listing by ambient characteristics and the Weyl coset sweep.

Nilpotent orbits of the ambient algebra are classified by weighted Dynkin
diagrams.  For each dominant characteristic h, the images under the minimal
coset representatives of W_l exhaust the chamber C_l + r, and testing each
image for membership in a normal sl2-triple (h in g_0, e in g_1, f in
g_{m-1}) yields one triple per nilpotent orbit of the theta-group.  A
graded form of the sl2 multiplicity bound, counted without elimination,
drops most images before that test.
"""

from __future__ import annotations

import logging
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from . import linalg
from .chevalley import ChevalleyAlgebra, LieElement, Sl2Triple
from .grading import ThetaGrading, trivial_grading
from .records import (
    InternalConsistencyError,
    OrbitRecord,
    WeightedDynkinDiagram,
    listing,
    orbit_record,
)
from .weyl import WeylElement, check_root_count, shortest_coset_reps

log = logging.getLogger(__name__)

# Largest coefficient range of the random search for e in general position.
OMEGA_CAP = 2**20


class RetryBudgetError(RuntimeError):
    """The random search for an element in general position exhausted its
    coefficient budget (OMEGA_CAP).  The message names the grading and h.
    The ambient stage draws with seed 0, which no seed option reaches, so
    another seed does not always help."""


def cartan_key(hnum, den: int) -> tuple[int, ...]:
    """(den, *hnum) reduced by their gcd: the same for every integer form
    den * h = sum_k hnum[k] h_k of one Cartan element h."""
    g = gcd(den, *hnum)
    return (den // g, *(x // g for x in hnum))


def h_rng(seed: int, hnum, den: int) -> random.Random:
    """The generator of the normality search for h = hnum / den, seeded from
    the repr of (seed, *cartan_key(hnum, den)): the draws depend on the seed
    and h alone, in every process and Python version."""
    return random.Random(repr((seed, *cartan_key(hnum, den))))


def h_from_wdd(alg: ChevalleyAlgebra, wdd: WeightedDynkinDiagram) -> LieElement:
    """The Cartan element with alpha_i(h) = d_i for every simple root."""
    return alg.cartan(*alg.cartan_solution(wdd.labels))


def decide_normal(grading: ThetaGrading, h: LieElement, seed: int = 0) -> Sl2Triple | None:
    """Normal sl2-triple (h, e, f) with e in g_1(2), f in g_{m-1}(-2), or None.

    h must lie in the Cartan subalgebra of g_0.  This is
    ChevalleyAlgebra.cartan_values followed by decide_normal_int, which
    does the work on the integers den * h and den * alpha(h).
    """
    hnum, den, values = grading.alg.cartan_values(h)
    return decide_normal_int(grading, hnum, den, values, seed)


def decide_normal_int(
    grading: ThetaGrading, hnum, den: int, values, seed: int = 0
) -> Sl2Triple | None:
    """decide_normal on the integer form of h: den * h = sum_k hnum[k] h_k
    with den > 0, not necessarily the least, and values[i] = den * alpha_i(h)
    for every root.

    Steps (see _spanning_eye and _normal_triple): quick membership test of h
    in [g_1(2), g_{m-1}(-2)]; random search for e in general position
    ([g_0(0), e] = g_1(2)), with coefficients uniform in {0..n}, n = 4
    doubled after every failure up to OMEGA_CAP; f from the same
    elimination as the general-position test, through the Killing form.
    The draws come from h_rng(seed, hnum, den), so scaling (hnum, den,
    values) by a common factor changes neither the draws nor the triple.
    """
    eye = _spanning_eye(grading, hnum, den, values)
    if eye is None:
        return None
    return _normal_triple(grading, eye, hnum, den, values, seed)


def _spanning_eye(grading, hnum, den, values) -> list[int] | None:
    """The roots of g_1(2), in root order, when h lies in [g_1(2), g_{m-1}(-2)],
    else None; den * h = sum_k hnum[k] h_k and values[i] = den * alpha_i(h).

    Only the alpha = beta pairs of [x_alpha, x_-beta] hit the Cartan, so the
    test is whether hnum lies in the span of the coroots of these roots.  An
    empty g_1(2) gives None, for h = 0 too: a normal triple has e != 0.
    """
    two = 2 * den
    eye = [i for i in grading.phi1_indices if values[i] == two]
    if not eye or not linalg.in_span([grading.alg.coroot_coords[i] for i in eye], hnum):
        return None
    return eye


def _normal_triple(grading, eye, hnum, den, values, seed) -> Sl2Triple | None:
    """decide_normal_int past the span test, for the roots eye of g_1(2)
    that _spanning_eye returned: den * h = sum_k hnum[k] h_k and values[i] =
    den * alpha_i(h) for every root i.

    With eye the roots gamma_t of g_1(2) and e = sum_t c_t x_gamma_t, the
    matrix M of ad e: g_0(0) -> g_1(2) has one row per basis element b of
    g_0(0) and one column per gamma_t.  The sparse x_beta rows (beta(h) =
    0) come before the dense h_k rows: neither the rank nor the unique
    solution depends on the row order, and sparse pivot rows leave more
    zero multipliers, whose rows the elimination skips (linalg._echelon).
    e is in general position when M has rank len(eye).  For f = sum_t y_t
    x_-gamma_t, [e, f] - h lies in g_0(0), on which the invariant form B is
    nondegenerate, and B([e, f], b) = B(f, [b, e]); so [e, f] = h iff
    M u = r, where in the integer form B' of ChevalleyAlgebra.killing_weights
    (weights w) r_k = w_k * values[simple_k] on the h_k rows, r = 0 on the
    x_beta rows, and u_t = den * w_gamma_t * y_t.  One elimination of
    [M | r] per try gives both the rank and f, which is unique given (h, e):
    linalg.rank_and_solve returns u = num / d, so y_t = num_t / (d * den *
    w_gamma_t), one Fraction per coefficient.  The triple is checked
    (Sl2Triple.check) before it is returned.

    The coefficients come from h_rng(seed, hnum, den).  The range n starts
    at 4 and doubles after every failure; past OMEGA_CAP,
    read at call time, the search raises RetryBudgetError naming the grading
    and h.  The Fraction h is built only for the triple (or the error
    message).
    """
    alg, rs = grading.alg, grading.rs
    pair, consts = alg.simple_pairings, alg.structure_constants
    weights = alg.killing_weights
    rhs = [weights[i] * values[i] for i in rs.simple_indices]
    zero_idx = [i for i in grading.phi0_indices if values[i] == 0]
    pos_in_eye = {i: t for t, i in enumerate(eye)}
    s = len(eye)
    rng = h_rng(seed, hnum, den)

    n = 4
    while True:
        coeffs = [rng.randint(0, n) for _ in range(s)]
        rows = []
        for j in zero_idx:  # [x_beta, e] | 0
            row = [0] * (s + 1)
            for t, i in enumerate(eye):
                hit = consts.get((j, i))
                if hit is not None and coeffs[t]:
                    target, c = hit
                    row[pos_in_eye[target]] += coeffs[t] * c
            rows.append(row)
        for k in range(rs.rank):  # [h_k, e] | r_k
            rows.append([coeffs[t] * pair[eye[t]][k] for t in range(s)] + [rhs[k]])
        rank, sol = linalg.rank_and_solve(rows, s)
        if rank == s:
            break
        n *= 2
        if n > OMEGA_CAP:
            raise RetryBudgetError(
                f"{grading}: no element in general position found for "
                f"h = {alg.cartan(hnum, den)!r} with coefficients up to {OMEGA_CAP}"
            )

    if sol is None:
        return None
    u, d = sol
    n_pos = rs.n_pos
    f = {
        i + n_pos if i < n_pos else i - n_pos: Fraction(x, d * den * weights[i])
        for i, x in zip(eye, u)
    }
    triple = Sl2Triple(
        alg.cartan(hnum, den), LieElement(alg, dict(zip(eye, coeffs))), LieElement(alg, f)
    )
    triple.check()
    return triple


def _sl2_module_multiplicities(rank: int, pos: list[int]) -> bool:
    """Whether d_1 is even and d_k >= d_{k+2} for every k >= 0, where d_k
    is the multiplicity of the eigenvalue k of ad h on g, for the dominant h
    with pos the values alpha(h) >= 0 of the positive roots: d_0 = rank +
    2 #{alpha(h) = 0} and d_k = #{alpha(h) = k} for k >= 1.

    Both are necessary for h to lie in an sl2-triple (h, e, f).  For the
    parity: ad f maps g(1) bijectively onto g(-1) (weight 1 to weight -1 in
    each odd V(n)), and the Killing form B pairs g(-1) with g(1), so
    omega(x, y) = B(f, [x, y]) is a nondegenerate skew form on g(1), whose
    dimension d_1 is then even."""
    counts = [0] * (max(pos) + 3)
    for v in pos:
        counts[v] += 1
    counts[0] = rank + 2 * counts[0]
    return counts[1] % 2 == 0 and all(a >= b for a, b in zip(counts, counts[2:]))


def _sl2_label_vectors(alg: ChevalleyAlgebra):
    """(labels, hnum, den, values) for every nonzero label vector in
    {0, 1, 2}^l whose ad h multiplicities pass _sl2_module_multiplicities;
    h = hnum / den has alpha_i(h) = labels[i] and values =
    root_values(hnum).

    The values come from the integers alpha(h) = coords(alpha) . labels of
    the positive roots, summed a column at a time.  Product order steps the
    last nonzero label k and zeroes the labels after it, so prefix[j], the
    sum over the first j labels, stays valid for j <= k, and one column
    pass per vector gives the sum over all of them.
    """
    rs = alg.rs
    l = rs.rank
    columns = list(zip(*rs.positive_roots))
    prefix = [[0] * rs.n_pos] * (l + 1)
    for labels in product((0, 1, 2), repeat=l):
        if not any(labels):
            continue
        k = max(i for i, c in enumerate(labels) if c)
        c = labels[k]
        pos = [v + c * x for v, x in zip(prefix[k], columns[k])]
        prefix[k + 1 :] = [pos] * (l - k)
        if _sl2_module_multiplicities(l, pos):
            hnum, den = alg.cartan_solution(labels)
            values = [den * v for v in pos]
            yield labels, hnum, den, values + [-v for v in values]


@lru_cache(maxsize=None)
def classify_nilpotent_g(alg: ChevalleyAlgebra) -> tuple:
    """Dominant characteristics (wdd, h) of all nilpotent orbits of the
    ambient algebra, the zero orbit included.

    A characteristic h has labels alpha_i(h) in {0, 1, 2}.  Under its
    sl2-triple g is a sum of irreducible modules V(n), each adding one to
    the multiplicities d_n, d_{n-2}, ... of the ad h eigenvalues; so d_k
    counts the V(n) with n >= k and n = k mod 2, and d_k >= d_{k+2} for
    every k >= 0 (Kostant, "The principal three-dimensional subgroup and
    the Betti numbers of a complex simple Lie group", Amer. J. Math. 81,
    1959; Collingwood and McGovern, Nilpotent Orbits in Semisimple Lie
    Algebras, 1993, section 3.3).  Besides, d_1 = dim g(1) carries the
    nondegenerate skew form B(f, [x, y]), so it is even.  Label vectors
    failing these necessary conditions (_sl2_module_multiplicities) are no
    characteristics and are skipped before any elimination.  Every other
    nonzero vector runs the normality test over the trivial grading, on
    the integers den * h of ChevalleyAlgebra.cartan_solution, with the
    draws of h_rng at seed 0; the surviving set does not depend on the
    draws, so the result is cached per algebra.  A type with more than 256 roots, which the coset and carrier
    stages refuse too, is refused before the 3^l label vectors.
    """
    check_root_count(alg.rs)
    triv = trivial_grading(alg)
    out = [(WeightedDynkinDiagram((0,) * alg.rs.rank), alg.zero())]
    passed = 0
    for labels, hnum, den, values in _sl2_label_vectors(alg):
        passed += 1
        triple = decide_normal_int(triv, hnum, den, values)
        if triple is not None:
            out.append((WeightedDynkinDiagram(labels), triple.h))
    log.debug(
        "ambient classification %s: %d label vectors tried, %d pass the sl2 test, %d orbits",
        alg, 3**alg.rs.rank - 1, passed, len(out),
    )
    return tuple(out)


def _graded_sl2_bound(grading: ThetaGrading, perm, zero, two) -> bool:
    """Whether dim g_i(0) >= dim g_{i+1}(2) for every i in Z/m, for the image
    w h of a Cartan element h: zero and two are the roots (indices) with
    alpha(h) = 0 and alpha(h) = 2, and perm[j] is the index of w(roots[j]),
    so w h has the values 0 and 2 on the roots perm[j].  Pass perm =
    range(len(roots)) to test h itself.

    The bound is necessary for (w h, e, f) to be a normal triple.  Under the
    triple g is a sum of irreducible modules V(n), and ad e maps the 0
    weight space of each V(n), n >= 2 even, onto its 2 weight space; so
    ad e: g(0) -> g(2) is onto.  With e in g_1, ad e maps g_i(0) into
    g_{i+1}(2), and g(0), g(2) are the sums of these pieces over Z/m; so
    each block g_i(0) -> g_{i+1}(2) is onto.  With w h in the Cartan
    subalgebra, g_i(0) is spanned by the x_alpha of degree i with alpha(w h)
    = 0, plus the Cartan subalgebra when i = 0, and g_{i+1}(2) by the
    x_alpha of degree i + 1 with alpha(w h) = 2.  At m = 1 this is
    d_0 >= d_2 of _sl2_module_multiplicities.
    """
    deg = grading.deg_by_index
    have = [0] * grading.m  # dim g_i(0) minus the demand of g_{i+1}(2) so far
    for j in zero:
        have[deg[perm[j]]] += 1
    have[0] += grading.rs.rank
    for j in two:
        d = deg[perm[j]] - 1  # -1 is the index of degree m - 1
        have[d] -= 1
        if have[d] < 0:
            return False
    return True


def normal_list(
    grading: ThetaGrading, coset_reps, h: LieElement, seed: int = 0
) -> list[Sl2Triple]:
    """Normal sl2-triples whose h lies in C_l + r and is W-conjugate to h.

    Applies every minimal coset representative w to h and keeps those images
    that embed in a normal triple, testing each on integers: the values
    den * alpha(w h) = den * (w^-1 alpha)(h) are those of h permuted by the
    inverse root permutation of w.  Images with equal simple-root values are
    equal and tested once.

    The images are keyed all at once: the bytes w^-1(alpha_1)..w^-1(alpha_l)
    of every w (WeylElement.inverse_simple_images) are joined, mapped by one
    translate from root index to a one-byte code of the value of h there
    (at most 256 roots, hence at most 256 values), and sliced into one key
    per w.
    Each new image first meets the graded sl2 bound (_graded_sl2_bound),
    read off w and the roots where h has the value 0 or 2; only an image
    that passes gets its inverse permutation, its coordinates and the span
    test of _spanning_eye.  The bound is necessary, so it drops only images
    that have no triple, and the draws depend on the image alone
    (h_rng): the triples are those of testing every image.
    """
    alg = grading.alg
    l = grading.rs.rank
    _, den, vals = alg.cartan_values(h)
    n_roots = len(vals)
    ident = bytes(range(n_roots))
    code = {v: c for c, v in enumerate(sorted(set(vals)))}
    codes = b"".join(map(WeylElement.inverse_simple_images, coset_reps)).translate(
        bytes(code[v] for v in vals).ljust(256, b"\0")
    )
    keys = [codes[i : i + l] for i in range(0, len(codes), l)]
    images = dict(zip(keys, coset_reps))
    zero = [j for j, v in enumerate(vals) if v == 0]
    two = [j for j, v in enumerate(vals) if v == 2 * den]
    triples = []
    bounded = spanless = 0
    for w in images.values():
        if not _graded_sl2_bound(grading, w.perm, zero, two):
            bounded += 1
            continue
        inv = bytes.maketrans(w.perm, ident)[:n_roots]
        hnum = alg.hnum_from_values([vals[i] for i in w.inverse_simple_images()])
        values = [vals[i] for i in inv]
        eye = _spanning_eye(grading, hnum, den, values)
        if eye is None:
            spanless += 1
            continue
        triple = _normal_triple(grading, eye, hnum, den, values, seed)
        if triple is not None:
            triples.append(triple)
    log.debug(
        "%s, characteristic %r: %d images, %d merged, %d fail the graded sl2 bound, "
        "%d fail the span test, %d triples",
        grading, h, len(keys), len(keys) - len(images), bounded, spanless, len(triples),
    )
    return triples


def classify_by_characteristics(grading: ThetaGrading, seed: int = 0) -> list[OrbitRecord]:
    """All nilpotent orbits of the theta-group, one record per orbit, by
    sweeping coset images of every ambient characteristic; records.orbit_record
    checks that each h lies in the chamber of Delta_0."""
    reps = shortest_coset_reps(grading.rs, grading.weyl_subgroup())
    records = []
    for wdd, h in classify_nilpotent_g(grading.alg):
        if wdd.is_zero():
            continue
        for tr in normal_list(grading, reps, h, seed=seed):
            records.append(orbit_record(grading, tr, wdd))
    keys = [r.h_key() for r in records]
    if len(set(keys)) != len(keys):
        raise InternalConsistencyError("duplicate canonical h across characteristics")
    return listing(grading, records)
