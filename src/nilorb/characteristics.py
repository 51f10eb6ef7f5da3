"""Orbit listing by ambient characteristics and the Weyl coset sweep.

Nilpotent orbits of the ambient algebra are classified by weighted Dynkin
diagrams.  For each dominant characteristic h, the images under the minimal
coset representatives of W_l exhaust the chamber C_l + r, and testing each
image for membership in a normal sl2-triple (h in g_0, e in g_1, f in
g_{m-1}) yields one triple per orbit of the theta-group, certified on the
integers that found it, which records.listing makes the listing with the
WDD of h.  A graded sl2 multiplicity bound, counted without elimination,
drops most images before that test.  decide_normal, the one normality
test of the ambient stage, the sweep and the carrier walk, takes h in
integers; only normal_list and h_from_wdd take or give a Fraction h.
"""

from __future__ import annotations

import logging
import random
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from math import gcd
from operator import mul

from . import linalg
from .chevalley import ChevalleyAlgebra, LieElement, Sl2Triple
from .grading import ThetaGrading, trivial_grading
from .records import InternalConsistencyError, OrbitRecord, WeightedDynkinDiagram, listing
from .weyl import WeylElement, check_root_count, dominant_simple_values, shortest_coset_reps

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


def decide_normal(
    grading: ThetaGrading, hnum, den: int, values, seed: int = 0
) -> Sl2Triple | None:
    """Normal sl2-triple (h, e, f) with e in g_1(2), f in g_{m-1}(-2), or None.

    h lies in the Cartan subalgebra of g_0 and is given in integers: den * h
    = sum_k hnum[k] h_k with den > 0, not necessarily the least, and
    values[i] = den * alpha_i(h) for every root.  A caller that holds a
    Fraction h passes *alg.cartan_values(h).

    Only the alpha = beta pairs of [x_alpha, x_-beta] hit the Cartan, so h
    lies in [g_1(2), g_{m-1}(-2)] exactly when hnum lies in the span of the
    coroots of the roots eye of g_1(2).  An empty g_1(2) gives None, for h =
    0 too: a normal triple has e != 0.  Past this span test, _normal_triple
    searches for e in general position and f.  The draws come from
    h_rng(seed, hnum, den), so scaling (hnum, den, values) by a common
    factor changes neither the draws nor the triple.
    """
    two = 2 * den
    eye = [i for i in grading.phi1_indices if values[i] == two]
    if not eye or not linalg.in_span([grading.rs.coroot_coords[i] for i in eye], hnum):
        return None
    return _normal_triple(grading, eye, hnum, den, values, seed)


def _normal_triple(grading, eye, hnum, den, values, seed) -> Sl2Triple | None:
    """decide_normal past the span test, for the roots eye of g_1(2)
    in root order: den * h = sum_k hnum[k] h_k and values[i] =
    den * alpha_i(h) for every root i.

    With eye the roots gamma_t of g_1(2) and e = sum_t c_t x_gamma_t, the
    matrix M of ad e: g_0(0) -> g_1(2) has one row per basis element b of
    g_0(0) and one column per gamma_t, the sparse x_beta rows (beta(h) = 0,
    their entries found once per h) before the dense h_k rows, so that the
    elimination skips more rows (linalg._echelon).  e is in general
    position when M has rank len(eye).  For f = sum_t y_t x_-gamma_t,
    [e, f] - h lies in g_0(0), on which the invariant form B is
    nondegenerate, and B([e, f], b) = B(f, [b, e]); so [e, f] = h iff M u
    = r, where in the integer form of ChevalleyAlgebra.killing_weights w,
    r_k = w_k * values[simple_k] on the h_k rows, r = 0 on the x_beta rows
    and u_t = den * w_gamma_t * y_t.  One elimination of [M | r] per try
    gives the rank and f, unique given (h, e): u = num / d, so y_t = F_t /
    (d den L) with L = max w and F_t = num_t L / w_gamma_t.
    ChevalleyAlgebra.check_sl2 certifies the triple on these integers, or
    InternalConsistencyError names the grading and h, before the Fraction f.

    The coefficients of e are uniform in {0..n}, n = 4 doubled after every
    failure; past OMEGA_CAP, read at call time, the search raises
    RetryBudgetError naming the grading and h."""
    alg, rs = grading.alg, grading.rs
    pair, consts = alg.simple_pairings, alg.structure_constants
    weights, top = alg.killing_weights, max(alg.killing_weights)
    rhs = [weights[i] * values[i] for i in rs.simple_indices]
    pos_in_eye = {i: t for t, i in enumerate(eye)}
    pattern = [  # (t, column, N) of each [x_beta, e] row, beta(h) = 0 in Phi_0
        [(t, pos_in_eye[hit[0]], hit[1]) for t, i in enumerate(eye) if (hit := consts.get((j, i)))]
        for j in grading.phi0_indices if values[j] == 0
    ]
    h_cols = [[pair[i][k] for i in eye] for k in range(rs.rank)]
    s = len(eye)
    rng = h_rng(seed, hnum, den)

    n = 4
    while True:
        coeffs = [rng.randint(0, n) for _ in range(s)]
        rows = []
        for entries in pattern:  # [x_beta, e] | 0
            row = [0] * (s + 1)
            for t, col, c in entries:
                row[col] += coeffs[t] * c
            rows.append(row)
        rows += [[*map(mul, coeffs, col), r] for col, r in zip(h_cols, rhs)]  # [h_k, e] | r_k
        rank, sol = linalg.rank_and_solve(rows, s)
        if rank == s:
            break
        n *= 2
        if n > OMEGA_CAP:
            raise RetryBudgetError(
                f"{grading.describe()}: no element in general position found for "
                f"h = {alg.cartan(hnum, den)!r} with coefficients up to {OMEGA_CAP}"
            )

    if sol is None:
        return None
    u, d = sol
    n_pos, fden = rs.n_pos, d * den * top
    e = {i: c for i, c in zip(eye, coeffs) if c}
    fnum = {i + n_pos if i < n_pos else i - n_pos: x * top // weights[i] for i, x in zip(eye, u) if x}
    try:
        alg.check_sl2(hnum, den, e, fnum, fden)
    except ValueError as exc:
        raise InternalConsistencyError(
            f"{grading.describe()}: the triple of h = {alg.cartan(hnum, den)!r} fails {exc}"
        ) from None
    f = {j: Fraction(x, fden) for j, x in fnum.items()}
    return Sl2Triple(alg.cartan(hnum, den), LieElement(alg, e), LieElement(alg, f))


def _sl2_module_multiplicities(rank: int, pos: bytes) -> bool:
    """Whether d_1 is even and d_k >= d_{k+2} for every k >= 0, counted up
    to the first failure; d_k is the multiplicity of the eigenvalue k of
    ad h on g, for the dominant h with the values alpha(h) >= 0 of the
    positive roots in pos, a byte each: d_0 = rank + 2 #{alpha(h) = 0} and
    d_k = #{alpha(h) = k} for k >= 1.

    Both are necessary for h to lie in an sl2-triple (h, e, f): g is a sum
    of modules V(n), each adding one to d_n, d_{n-2}, ... (Kostant, Amer. J.
    Math. 81, 1959), and B(f, [x, y]) is a nondegenerate skew form on g(1),
    since ad f maps g(1) onto g(-1), which the Killing form B pairs with g(1)."""
    d = [rank + 2 * pos.count(0), pos.count(1)]
    if d[1] % 2:
        return False
    for k in range(2, max(pos) + 1):
        d.append(pos.count(k))
        if d[k - 2] < d[k]:
            return False
    return True


@lru_cache(maxsize=None)
def _opposition(rs) -> tuple[int, ...]:
    """sigma = -w0 on the nodes: sigma(i) is where the dominant conjugate of -e_i has its 1."""
    nodes = range(rs.rank)
    return tuple(dominant_simple_values(rs, [-(i == j) for j in nodes]).index(1) for i in nodes)


def _sl2_label_vectors(alg: ChevalleyAlgebra):
    """(labels, hnum, den, values) for every nonzero labels in {0, 1, 2}^l
    fixed by _opposition that pass _sl2_module_multiplicities, in
    lexicographic order; alpha_i(hnum / den) = labels[i], values = root_values(hnum).

    The walk runs over the least node of each sigma-orbit with the orbit's
    columns summed (two fixed vectors first differ at such a node, so the
    order stays lexicographic), on the values alpha(h) of the positive roots
    packed in one int, a byte each (alpha(h) <= 2 height(alpha) <= 58 within
    the 256-root cap).  Product order steps the last nonzero label k and
    zeroes those after it, so prefix[k] stays valid: one multiply-add each.
    """
    rs = alg.rs
    sigma = _opposition(rs)
    nodes = [i for i, s in enumerate(sigma) if i <= s]
    where = [nodes.index(min(i, s)) for i, s in enumerate(sigma)]
    columns = [bytes(sum(r[j] for j in {i, sigma[i]}) for r in rs.positive_roots) for i in nodes]
    columns = [int.from_bytes(c, "little") for c in columns]
    prefix = [0] * (len(nodes) + 1)
    for labels in islice(product((0, 1, 2), repeat=len(nodes)), 1, None):  # all but 0
        k = max(i for i, c in enumerate(labels) if c)
        prefix[k + 1 :] = [prefix[k] + labels[k] * columns[k]] * (len(nodes) - k)
        pos = prefix[k + 1].to_bytes(rs.n_pos, "little")
        if _sl2_module_multiplicities(rs.rank, pos):
            labels = tuple(labels[j] for j in where)
            hnum, den = alg.cartan_solution(labels)
            values = [den * v for v in pos]
            yield labels, hnum, den, values + [-v for v in values]


@lru_cache(maxsize=None)
def classify_nilpotent_g(alg: ChevalleyAlgebra) -> tuple:
    """Dominant characteristics (wdd, h) of all nilpotent orbits of the
    ambient algebra, the zero orbit included.

    A characteristic h has labels alpha_i(h) in {0, 1, 2} and is fixed by
    sigma = -w0 (_opposition): (-h, f, e) is an sl2-triple with f in the
    orbit of e, so -h is conjugate to h (Collingwood and McGovern, Nilpotent
    Orbits in Semisimple Lie Algebras, 1993, chapter 3).  Every vector of
    _sl2_label_vectors, sigma-fixed and past the sl2 multiplicity test, runs
    the normality test over the trivial grading with the draws of h_rng at
    seed 0; the surviving set does not depend on the draws, so the result
    is cached per algebra.  A type with more than 256 roots, which the coset
    and carrier stages refuse too, is refused before any label vector.
    """
    check_root_count(alg.rs.type_label, alg.rs.rank)
    triv = trivial_grading(alg)
    out = [(WeightedDynkinDiagram((0,) * alg.rs.rank), alg.zero())]
    passed = 0
    for labels, hnum, den, values in _sl2_label_vectors(alg):
        passed += 1
        triple = decide_normal(triv, hnum, den, values)
        if triple is not None:
            out.append((WeightedDynkinDiagram(labels), triple.h))
    walked = 3 ** sum(i <= s for i, s in enumerate(_opposition(alg.rs))) - 1
    log.debug(
        "ambient classification %s: %d label vectors tried, %d pass the sl2 test, %d orbits",
        alg, walked, passed, len(out),
    )
    return tuple(out)


@lru_cache(maxsize=None)
def _characteristics(alg: ChevalleyAlgebra) -> tuple:
    """(wdd, _characteristic of h) for every nonzero (wdd, h) of
    classify_nilpotent_g (all but its first)."""
    nonzero = classify_nilpotent_g(alg)[1:]
    return tuple((wdd, _characteristic(h, *alg.cartan_values(h)[1:])) for wdd, h in nonzero)


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
    equal and tested once.  This is _sweep on ChevalleyAlgebra.cartan_values.
    """
    joined = b"".join(map(WeylElement.inverse_simple_images, coset_reps))
    char = _characteristic(h, *grading.alg.cartan_values(h)[1:])
    return [triple for triple, _, _ in _sweep(grading, coset_reps, joined, char, seed)]


def _characteristic(h: LieElement, den: int, vals) -> tuple:
    """(h, den, vals, table, zero, two), vals[i] = den * alpha_i(h): table
    maps a root index to a one-byte code of the value of h there (at most
    256 roots), zero and two list the roots where h is 0 and 2."""
    code = {v: c for c, v in enumerate(sorted(set(vals)))}
    table = bytes(code[v] for v in vals).ljust(256, b"\0")
    zero = [j for j, v in enumerate(vals) if v == 0]
    return h, den, vals, table, zero, [j for j, v in enumerate(vals) if v == 2 * den]


def _sweep(grading, coset_reps, joined, char, seed) -> list:
    """normal_list on a _characteristic of h and the joined bytes
    w^-1(alpha_1)..w^-1(alpha_l) of every w (inverse_simple_images), each
    triple with the den and values of its h.  One translate by the table
    keys every image at once, sliced into one key per w.
    Each new image first meets the graded sl2 bound (_graded_sl2_bound),
    read off w and the roots where h has the value 0 or 2; only an image
    that passes gets its inverse permutation, its coordinates and
    decide_normal.  The bound is necessary, so it drops only images
    that have no triple, and the draws depend on the image alone
    (h_rng): the triples are those of testing every image.
    """
    h, den, vals, table, zero, two = char
    alg = grading.alg
    l = grading.rs.rank
    n_roots = len(vals)
    ident = bytes(range(n_roots))
    codes = joined.translate(table)
    keys = [codes[i : i + l] for i in range(0, len(codes), l)]
    images = dict(zip(keys, coset_reps))
    found = []
    bounded = 0
    for w in images.values():
        if not _graded_sl2_bound(grading, w.perm, zero, two):
            bounded += 1
            continue
        inv = bytes.maketrans(w.perm, ident)[:n_roots]
        hnum = alg.hnum_from_values([vals[i] for i in w.inverse_simple_images()])
        values = [vals[i] for i in inv]
        triple = decide_normal(grading, hnum, den, values, seed)
        if triple is not None:
            found.append((triple, den, values))
    log.debug(
        "%s, characteristic %r: %d images, %d merged, %d fail the graded sl2 bound, "
        "%d normality tests, %d triples",
        grading, h, len(keys), len(keys) - len(images), bounded,
        len(images) - bounded, len(found),
    )
    return found


def classify_by_characteristics(grading: ThetaGrading, seed: int = 0) -> list[OrbitRecord]:
    """All nilpotent orbits of the theta-group, one record per orbit, by
    sweeping coset images of every nonzero ambient characteristic: the sweep
    of normal_list per characteristic, on the _characteristics kept per
    algebra and on the representatives' bytes joined once.  The normal
    triples, each with the integers of its h and the WDD of its
    characteristic, go to records.listing, which builds the records and
    checks that no two share an h."""
    reps = shortest_coset_reps(grading.rs, grading.weyl_subgroup())
    joined = b"".join(map(WeylElement.inverse_simple_images, reps))
    found = []
    for wdd, char in _characteristics(grading.alg):
        found += [(*x, wdd) for x in _sweep(grading, reps, joined, char, seed)]
    return listing(grading, found)
