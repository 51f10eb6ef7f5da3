"""Brute-force oracles, kept independent of the library's own machinery.

Weyl groups are enumerated as integer matrices acting on simple-root
coordinates, built only from the Cartan matrix; pi-system classification
enumerates all root subsets directly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import NamedTuple


def dense(x):
    """The coefficient vector of a LieElement over the whole basis."""
    v = [Fraction(0)] * x.alg.dim
    for k, c in x.coeffs.items():
        v[k] = Fraction(c)
    return v


def inner(rs, lam, mu):
    """The W-invariant inner product (lam, mu) of two weight vectors, from
    the bilinear form of the simple roots: the reference form."""
    b = rs.bilinear_form
    l = rs.rank
    return sum(lam[i] * sum(b[i][j] * mu[j] for j in range(l)) for i in range(l))


def is_identity(w) -> bool:
    """Whether a WeylElement fixes every root."""
    return w.perm == bytes(range(len(w.perm)))


def root_value(alg, root, h):
    """alpha(h) for h in the Cartan subalgebra, one root at a time, in the
    coefficients of h (Fractions for a Fraction h)."""
    n = alg.n_roots
    pair = alg.simple_pairings[alg.rs.root_index[tuple(root)]]
    return sum(h.coeffs.get(n + i, 0) * pair[i] for i in range(alg.rs.rank))


def weyl_identity(rs):
    """The identity WeylElement, with the empty word."""
    from nilorb.weyl import WeylElement

    return WeylElement(rs, bytes(range(len(rs.roots))), b"")


def weyl_simple(rs, i: int):
    """The simple reflection s_i as a WeylElement."""
    from nilorb.weyl import WeylElement, _simple_perm_table

    return WeylElement(rs, _simple_perm_table(rs)[i], bytes((i,)))


def weyl_from_word(rs, word):
    """The WeylElement s_{i1} o ... o s_{ik} of the word i1..ik (bytes or
    ints), keeping the word as given, as bytes."""
    from nilorb.weyl import WeylElement

    w = weyl_identity(rs)
    for i in word:
        w = w * weyl_simple(rs, i)
    return WeylElement(rs, w.perm, bytes(word))


def root_string_positive_roots(rs):
    """The positive roots by height and then by coordinates, grown one height
    at a time by root strings: beta + alpha_i is a root exactly when
    p - <beta, alpha_i^vee> > 0, p the length of the alpha_i-string down from
    beta (Humphreys, Introduction to Lie Algebras, 9.4)."""
    l = rs.rank
    a = rs.cartan_matrix
    simples = [tuple(1 if j == i else 0 for j in range(l)) for i in range(l)]
    known = set(simples)
    layer = list(simples)
    while layer:
        nxt = []
        for beta in layer:
            for i, alpha in enumerate(simples):
                if beta == alpha:
                    continue
                p = 0
                cur = tuple(b - s for b, s in zip(beta, alpha))
                while cur in known:
                    p += 1
                    cur = tuple(c - s for c, s in zip(cur, alpha))
                if p - sum(beta[j] * a[j][i] for j in range(l)) > 0:
                    up = tuple(b + s for b, s in zip(beta, alpha))
                    if up not in known:
                        known.add(up)
                        nxt.append(up)
        layer = nxt
    return tuple(sorted(known, key=lambda r: (sum(r), r)))


def is_root(rs, v) -> bool:
    return tuple(v) in rs.root_index


def bracket_basis(alg, i: int, j: int) -> dict:
    """Sparse bracket of the basis elements i and j of alg, case by case."""
    n = alg.n_roots
    if i >= n and j >= n:
        return {}
    if i >= n:
        return {k: -v for k, v in bracket_basis(alg, j, i).items()}
    if j >= n:
        c = -alg.simple_pairings[i][j - n]
        return {i: c} if c else {}
    hit = alg.structure_constants.get((i, j))
    if hit is not None:
        k, c = hit
        return {k: c}
    if abs(i - j) == alg.rs.n_pos:  # j indexes -roots[i]
        return {n + t: c for t, c in enumerate(alg.rs.coroot_coords[i]) if c}
    return {}


def reference_bracket(alg, x, y):
    """[x, y] summed in Fractions over the pairs of basis elements."""
    from nilorb.chevalley import LieElement

    out: dict = {}
    for i, a in x.coeffs.items():
        for j, b in y.coeffs.items():
            for k, v in bracket_basis(alg, i, j).items():
                out[k] = out.get(k, 0) + Fraction(a) * b * v
    return LieElement(alg, out)


def graded_sl2_bound_of(grading, h) -> bool:
    """The graded sl2 bound of the coset sweep on a Cartan element h itself
    (the identity permutation)."""
    from nilorb import characteristics

    _, den, values = grading.alg.cartan_values(h)
    zero = [j for j, v in enumerate(values) if v == 0]
    two = [j for j, v in enumerate(values) if v == 2 * den]
    return characteristics._graded_sl2_bound(grading, range(len(values)), zero, two)


def n_const(alg, i: int, j: int):
    """The structure constant N with [x_a, x_b] = N x_{a+b}, for the roots a,
    b of indices i, j; 0 when a + b is not a root."""
    rs = alg.rs
    s = tuple(x + y for x, y in zip(rs.roots[i], rs.roots[j]))
    return bracket_basis(alg, i, j).get(rs.root_index[s], 0) if s in rs.root_index else 0


def reference_structure_constants(alg):
    """The structure-constant table of ChevalleyAlgebra, built as before the
    one-pass table: extraspecial and Carter constants on a table of positive
    root pairs keyed by root tuples, every other sign pattern through a
    recursive normaliser with Fraction length ratios, then an expansion over
    all root pairs."""
    rs = alg.rs
    pos = rs.positive_roots
    order = {r: k for k, r in enumerate(pos)}
    npos: dict = {}  # (alpha, beta) positive pairs, alpha + beta a root

    def neg(a):
        return tuple(-x for x in a)

    def plus(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def minus(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def put(a, b, val):
        npos[(a, b)] = val
        npos[(b, a)] = -val

    def string_down(alpha, beta):
        p, cur = 0, minus(beta, alpha)
        while cur in rs.root_index:
            p, cur = p + 1, minus(cur, alpha)
        return p

    def n_any(a, b):
        s = plus(a, b)
        if s not in rs.root_index:
            return 0
        a_pos, b_pos = rs.is_positive(a), rs.is_positive(b)
        if a_pos and b_pos:
            return npos[(a, b)]
        if not a_pos and not b_pos:
            return -n_any(neg(a), neg(b))
        if not a_pos:  # normalise to (positive, negative)
            return -n_any(b, a)
        eta, zeta = neg(b), s
        if rs.is_positive(zeta):
            val = Fraction(rs.length2(zeta), rs.length2(a)) * npos[(zeta, eta)]
        else:
            val = Fraction(rs.length2(zeta), rs.length2(eta)) * npos[(neg(zeta), a)]
        if val.denominator != 1:
            raise AssertionError(f"non-integral constant for {a}, {b}")
        return int(val)

    for rho in pos:
        if sum(rho) < 2:
            continue
        pairs = []
        for alpha in pos:
            if order[alpha] >= order[rho]:
                break
            beta = minus(rho, alpha)
            if beta in rs.root_index and rs.is_positive(beta) and order[alpha] < order[beta]:
                pairs.append((alpha, beta))
        gamma, delta = pairs[0]  # extraspecial: minimal first member
        put(gamma, delta, string_down(gamma, delta) + 1)
        for alpha, beta in pairs[1:]:
            f2 = n_any(delta, neg(alpha))
            t2 = f2 and f2 * n_any(minus(delta, alpha), gamma)
            f3 = n_any(neg(alpha), gamma)
            t3 = f3 and f3 * n_any(minus(gamma, alpha), delta)
            n_rho_malpha = Fraction(-(t2 + t3), npos[(gamma, delta)])
            val = -Fraction(rs.length2(rho), rs.length2(beta)) * n_rho_malpha
            if val.denominator != 1:
                raise AssertionError(f"non-integral constant for {alpha}, {beta}")
            put(alpha, beta, int(val))

    table: dict = {}
    for i, a in enumerate(rs.roots):
        for j, b in enumerate(rs.roots):
            k = rs.root_index.get(plus(a, b))
            if k is not None:
                table[(i, j)] = (k, n_any(a, b))
    return table


def component_basis(grading, i: int):
    """Basis of g_i: root vectors of degree i, plus the Cartan for i = 0."""
    alg = grading.alg
    i %= grading.m
    out = [alg.root_vector(r) for r, d in zip(alg.rs.roots, grading.deg_by_index) if d == i]
    if i == 0:
        out.extend(
            alg.cartan([1 if j == k else 0 for j in range(alg.rs.rank)]) for k in range(alg.rs.rank)
        )
    return out


def is_pi_system(rs, roots) -> bool:
    """C1: no difference of two elements is a root; C2: linear independence."""
    from nilorb.linalg import rank_int

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


def reflection_matrix(rs, i: int):
    """Matrix of s_i on simple-root coordinates: column j of the matrix is
    alpha_j - <alpha_j, alpha_i^vee> alpha_i."""
    l = rs.rank
    rows = [[1 if a == b else 0 for b in range(l)] for a in range(l)]
    for j in range(l):
        rows[i][j] -= rs.cartan_matrix[j][i]
    return tuple(tuple(r) for r in rows)


def weyl_matrix(w):
    """Integer matrix of a Weyl element on simple-root coordinates, read off
    its root permutation: column j is w(alpha_j)."""
    rs = w.rs
    cols = [rs.roots[w.perm[k]] for k in rs.simple_indices]
    return tuple(tuple(col[i] for col in cols) for i in range(rs.rank))


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def weyl_matrices(rs):
    """Every element of the Weyl group, by closure over simple reflections."""
    gens = [reflection_matrix(rs, i) for i in range(rs.rank)]
    ident = tuple(tuple(1 if a == b else 0 for b in range(rs.rank)) for a in range(rs.rank))
    seen = {ident}
    work = [ident]
    while work:
        m = work.pop()
        for g in gens:
            p = mat_mul(g, m)
            if p not in seen:
                seen.add(p)
                work.append(p)
    return sorted(seen)


def root_reflection_matrix(rs, root):
    """Matrix of the reflection in a root on simple-root coordinates."""
    l = rs.rank
    rows = [[1 if a == b else 0 for b in range(l)] for a in range(l)]
    for j in range(l):
        unit = tuple(1 if t == j else 0 for t in range(l))
        c = rs.pairing(unit, root)
        for a in range(l):
            rows[a][j] -= c * root[a]
    return tuple(tuple(r) for r in rows)


def subgroup_matrices(rs, basis):
    """Closure of the reflections in the given roots, as matrices."""
    gens = [root_reflection_matrix(rs, tuple(b)) for b in basis]
    ident = tuple(tuple(1 if a == b else 0 for b in range(rs.rank)) for a in range(rs.rank))
    seen = {ident}
    work = [ident]
    while work:
        m = work.pop()
        for g in gens:
            p = mat_mul(g, m)
            if p not in seen:
                seen.add(p)
                work.append(p)
    return sorted(seen)


def orbit_ids(rs, basis, items):
    """For each item, a sequence of root sets, the index of its orbit under
    the group generated by the basis reflections, acting on every set at
    once; indices count from 0 in order of first appearance."""
    group = subgroup_matrices(rs, basis)
    ids = {}
    out = []
    for blocks in items:
        orbit = frozenset(
            tuple(frozenset(mat_vec(m, r) for r in block) for block in blocks) for m in group
        )
        out.append(ids.setdefault(orbit, len(ids)))
    return out


def matrix_length(rs, m) -> int:
    """Number of positive roots sent to negative roots."""
    count = 0
    for r in rs.positive_roots:
        img = mat_vec(m, r)
        if not rs.is_positive(img):
            count += 1
    return count


def brute_pi_classes(rs, max_size=None):
    """All pi-systems of the root system up to W-conjugacy, by enumerating
    every subset of the roots (the empty system included)."""
    max_size = rs.rank if max_size is None else max_size
    systems = [()]
    for size in range(1, max_size + 1):
        for combo in combinations(rs.roots, size):
            if is_pi_system(rs, combo):
                systems.append(tuple(sorted(combo)))
    group = weyl_matrices(rs)
    classes = []
    seen = set()
    for pi in systems:
        if pi in seen:
            continue
        orbit = {tuple(sorted(mat_vec(m, r) for r in pi)) for m in group}
        seen |= orbit
        classes.append(pi)
    return classes


def partition_count(n: int) -> int:
    """Number of partitions of n, by direct enumeration."""
    count = 0

    def rec(remaining: int, largest: int) -> None:
        nonlocal count
        if remaining == 0:
            count += 1
            return
        for p in range(min(remaining, largest), 0, -1):
            rec(remaining - p, p)

    rec(n, n)
    return count


def partitions(n: int, largest: int | None = None):
    """Every partition of n as a non-increasing tuple of parts."""
    if n == 0:
        yield ()
        return
    for p in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - p, p):
            yield (p, *rest)


def classical_wdds(label: str, rank: int) -> list[tuple[int, ...]]:
    """The sorted weighted Dynkin diagrams of the nilpotent orbits of the
    classical algebra of a type A, B, C or D and rank, in Bourbaki order,
    from the Jordan types (Collingwood and McGovern, Nilpotent Orbits in
    Semisimple Lie Algebras, ch. 5).

    An orbit of sl_n is a partition of n; of so_n, a partition of n whose
    even parts have even multiplicity; of sp_n, one whose odd parts have
    even multiplicity.  A part k gives the eigenvalues k - 1, k - 3, ...,
    1 - k of h on the natural module; sorted down, the first l of them
    (all of them in type A) are the epsilon-coordinates of the dominant h,
    and the labels are the simple roots on it.  In type D a very even
    partition (every part even) gives two orbits, h and its image with
    the last coordinate negated, whose last two labels trade places.
    """
    n = {"A": rank + 1, "B": 2 * rank + 1, "C": 2 * rank, "D": 2 * rank}[label]
    bad_parity = {"A": None, "B": 0, "C": 1, "D": 0}[label]
    out = []
    for p in partitions(n):
        if any(k % 2 == bad_parity and p.count(k) % 2 for k in p):
            continue
        eig = sorted((k - 1 - 2 * i for k in p for i in range(k)), reverse=True)
        lam = eig if label == "A" else eig[:rank]
        chain = tuple(a - b for a, b in zip(lam, lam[1:]))
        if label == "A":
            out.append(chain)
        elif label == "B":
            out.append((*chain, lam[-1]))
        elif label == "C":
            out.append((*chain, 2 * lam[-1]))
        else:
            out.append((*chain, lam[-2] + lam[-1]))
            if all(k % 2 == 0 for k in p):
                out.append((*chain[:-1], lam[-2] + lam[-1], lam[-2] - lam[-1]))
    return sorted(out)


def type_a_graded_orbit_count(labels) -> int:
    """The number of nilpotent G_0-orbits in g_1, the zero orbit included,
    for sl_n with Kac labels s_0..s_{n-1} of order m = sum s_i.

    The grading splits C^n = V_0 + ... + V_{m-1}, d_j = dim V_j counting
    the k in 0..n-1 with s_1 + ... + s_k = j mod m, and g_1 is the maps
    V_j -> V_{j+1}: the representations of the cyclic quiver with m
    vertices and dimension vector d.  Its nilpotent ones are, up to
    isomorphism, the multisets of segments (a start vertex and a length)
    whose dimension vectors add up to d (Kempken, Bonner Math. Schriften
    137, 1982); the segments of length 1 alone give the zero orbit.
    """
    m = sum(labels)
    d = [0] * m
    for k in range(len(labels)):
        d[sum(labels[1 : k + 1]) % m] += 1
    segments = []
    for start in range(m):
        for length in range(1, sum(d) + 1):
            vec = [0] * m
            for t in range(length):
                vec[(start + t) % m] += 1
            if all(v <= c for v, c in zip(vec, d)):
                segments.append(vec)

    def count(i: int, left: tuple) -> int:
        if not any(left):
            return 1
        if i == len(segments):
            return 0
        total, seg = 0, segments[i]
        while all(v >= 0 for v in left):
            total += count(i + 1, left)
            left = tuple(v - c for v, c in zip(left, seg))
        return total

    return count(0, tuple(d))


def same_partition(labels1, labels2) -> bool:
    """Whether two labellings of one list group its entries alike."""
    pairs = set(zip(labels1, labels2))
    return len(pairs) == len(set(labels1)) == len(set(labels2))


def form_components(rs, roots):
    """The classes of the roots joined by a chain of pairs with a nonzero
    inner product, as lists in the given order."""
    roots = [tuple(r) for r in roots]
    label = list(range(len(roots)))
    for i, a in enumerate(roots):
        for j in range(i):
            if inner(rs, a, roots[j]):
                old, new = label[i], label[j]
                label = [new if x == old else x for x in label]
    return [[r for r, x in zip(roots, label) if x == c] for c in sorted(set(label))]


def lowest_root_by_height(rs, basis):
    """The least-height root of the closure of a connected pi-system, with
    heights taken in the pi-system's own basis by exact solves."""
    basis = [tuple(b) for b in basis]
    gram = [[inner(rs, a, b) for b in basis] for a in basis]
    return min(
        rs.subsystem_roots(basis),
        key=lambda r: sum(fraction_solve(gram, [inner(rs, r, b) for b in basis])),
    )


def fraction_solve(rows, rhs):
    """One exact solution of A x = b with free variables zero, as Fractions,
    or None: each row [A | b] cleared to integers (least common
    denominator), then the integer linalg.solve divided back."""
    from nilorb import linalg

    augmented = [linalg.clear_denominators(list(r) + [b])[0] for r, b in zip(rows, rhs)]
    sol = linalg.solve([r[:-1] for r in augmented], [r[-1] for r in augmented])
    return None if sol is None else [Fraction(x, sol[1]) for x in sol[0]]


def _rref(m, ncols):
    """Reduce the Fraction rows m in place to reduced row-echelon form by
    Gauss-Jordan elimination, pivoting on the first ncols columns only;
    returns (m, pivot columns).  Rows past the last pivot are zero in those
    columns."""
    nrows = len(m)
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return m, piv_cols


def rref_solve(rows, rhs):
    """One solution of A x = b with free variables zero, or None, by
    Gauss-Jordan elimination over Fractions."""
    if not rows:
        return [] if all(v == 0 for v in rhs) else None
    ncols = len(rows[0])
    m = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    m, piv_cols = _rref(m, ncols)
    if any(row[ncols] != 0 for row in m[len(piv_cols) :]):
        return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(piv_cols):
        sol[c] = m[i][ncols]
    return sol


def rref_nullspace(rows, ncols):
    """Kernel basis of A, with ncols columns, read off its reduced
    row-echelon form, one vector per free column, by Gauss-Jordan
    elimination over Fractions; with no rows, the kernel is everything."""
    m, piv_cols = _rref([[Fraction(x) for x in r] for r in rows], ncols)
    basis = []
    for fc in range(ncols):
        if fc in piv_cols:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def rref_row_reduce(vectors):
    """Nonzero rows of the reduced row-echelon form, by Gauss-Jordan
    elimination over Fractions."""
    m = [[Fraction(x) for x in r] for r in vectors if any(r)]
    if not m:
        return []
    m, piv_cols = _rref(m, len(m[0]))
    return m[: len(piv_cols)]


def reference_classify_maximal(rs, basis, sub):
    """Maximal-rank pi-systems up to conjugacy by exhaustive enumeration:
    walk the whole elementary-transformation closure of the basis, then
    keep the first system of each class in sorted order."""
    from nilorb.pisystems import canonical, elementary_transformations
    from nilorb.weyl import conjugacy_classes

    start = canonical(basis)
    seen = {start}
    work = [start]
    while work:
        for new in elementary_transformations(rs, work.pop()):
            if new not in seen:
                seen.add(new)
                work.append(new)
    return conjugacy_classes(rs, sub, sorted(seen))


def reference_classify_all(rs, basis, sub):
    """All pi-systems up to conjugacy: every subset of every reference
    maximal class, then the first of each class by size and roots."""
    from nilorb.pisystems import canonical
    from nilorb.weyl import conjugacy_classes

    subsets = {
        canonical(p for i, p in enumerate(pi) if mask >> i & 1)
        for pi in reference_classify_maximal(rs, basis, sub)
        for mask in range(1 << len(pi))
    }
    return conjugacy_classes(rs, sub, sorted(subsets, key=lambda p: (len(p), p)))


def reference_candidates(grading):
    """Graded candidates by exhaustive enumeration: every maximal extension
    of each reference pi-system class of Phi_0 by roots of Phi_1, found by
    backtracking and deduplicated by W_0-conjugacy, then every subset of the
    degree-1 part of each, with no deduplication of the subsets."""
    from nilorb import linalg
    from nilorb.carrier import GradedCandidate
    from nilorb.pisystems import canonical
    from nilorb.weyl import conjugacy_classes

    rs = grading.rs
    w0 = grading.weyl_subgroup()
    phi1 = sorted(grading.phi1, key=lambda r: (sum(r), r))

    def maximal_extensions(base):
        out = []

        def compatible(r, chosen):
            for q in base + chosen:
                if tuple(a - b for a, b in zip(r, q)) in rs.root_index:
                    return False
            rows = [list(q) for q in base + chosen] + [list(r)]
            return linalg.rank_int(rows) == len(rows)

        def recurse(chosen, start):
            extendable = False
            for idx, r in enumerate(phi1):
                if r not in chosen and compatible(r, chosen):
                    extendable = True
                    if idx >= start:
                        recurse(chosen + [r], idx + 1)
            if not extendable:
                out.append(tuple(chosen))

        recurse([], 0)
        return out

    pairs = [
        GradedCandidate(pi0, canonical(pi1))
        for pi0 in reference_classify_all(rs, grading.delta0, w0)
        for pi1 in maximal_extensions(list(pi0))
    ]
    pairs = conjugacy_classes(rs, w0, pairs, lambda c: (c.pi0, c.pi1))
    return sorted(
        {
            GradedCandidate(c.pi0, canonical(p for i, p in enumerate(c.pi1) if mask >> i & 1))
            for c in pairs
            for mask in range(1 << len(c.pi1))
        },
        key=lambda c: (len(c.pi0) + len(c.pi1), c.pi0, c.pi1),
    )


def orbit_dimension_by_rank(grading, e):
    """dim [g_0, e] as the rank of the brackets of e with a basis of g_0."""
    from nilorb import linalg

    if e.is_zero():
        return 0
    alg = grading.alg
    rows = [
        linalg.clear_denominators(dense(alg.bracket(b, e)))[0]
        for b in component_basis(grading, 0)
    ]
    return linalg.rank_int(rows)


class ReferenceCompletion(NamedTuple):
    """The Fraction record of reference_completion."""

    h0: object
    z_basis: tuple
    psi0: tuple
    psi1: tuple
    flat: bool


def reference_completion(grading, cand):
    """The completion of a candidate computed with LieElement coroots and
    Fraction root values alpha(h) throughout, as a ReferenceCompletion."""
    from nilorb import linalg

    alg, rs = grading.alg, grading.rs
    pi = list(cand.pi0) + list(cand.pi1)
    degs = [0] * len(cand.pi0) + [1] * len(cand.pi1)
    coroots = [alg.coroot(a) for a in pi]
    rows = [[root_value(alg, b, hc) for hc in coroots] for b in pi]
    sol = fraction_solve(rows, degs)
    if sol is None:
        return None
    h0 = alg.zero()
    for c, hc in zip(sol, coroots):
        if c:
            h0 = h0 + hc.scale(c)
    pair_rows = [[rs.pairing(a, rs.simple_root(k)) for k in range(rs.rank)] for a in pi]
    vectors, den = linalg.nullspace(pair_rows, rs.rank)
    z_basis = tuple(alg.cartan(v, den) for v in vectors)

    def in_completion(root):
        return all(root_value(alg, root, u) == 0 for u in z_basis)

    one = 1 % grading.m
    psi0 = tuple(
        r
        for r, d in zip(rs.roots, grading.deg_by_index)
        if d == 0 and root_value(alg, r, h0) == 0 and in_completion(r)
    )
    psi1 = tuple(
        r
        for r, d in zip(rs.roots, grading.deg_by_index)
        if d == one and root_value(alg, r, h0) == 1 and in_completion(r)
    )
    flat = len(pi) + len(psi0) == len(psi1)
    return ReferenceCompletion(h0, z_basis, psi0, psi1, flat)


def reference_candidate_pi_systems(grading, admissible=None):
    """The carrier candidates by the class search that keys every admissible
    child, with no stabiliser-orbit pruning, in the library's order.  A root
    r of Phi_1 extends a candidate when admissible(cand, r); by default by
    the library's test: r is neither in the candidate nor in its difference
    masks, and some vector of its root_kernel pairs with r to a nonzero
    value."""
    from nilorb.carrier import GradedCandidate, _difference_masks
    from nilorb.pisystems import classify_all
    from nilorb.weyl import conjugacy_classes

    rs = grading.rs
    w0 = grading.weyl_subgroup()
    masks = _difference_masks(grading.alg)

    def library_test(cand, r):
        i = rs.root_index[r]
        for q in map(rs.root_index.__getitem__, cand.roots()):
            if q == i or masks[q] >> i & 1:
                return False
        return any(sum(map(mul, k, r)) for k in cand.root_kernel(rs.rank))

    admissible = admissible or library_test

    def add_one(cand, orbit):
        return [cand.extend(r, rs.rank) for r in grading.phi1 if admissible(cand, r)]

    start = [GradedCandidate(pi0, ()) for pi0 in classify_all(rs, basis=grading.delta0)]
    found = conjugacy_classes(rs, w0, start, lambda c: (c.pi0, c.pi1), add_one)
    return sorted(found, key=lambda c: (len(c.pi0) + len(c.pi1), c.pi0, c.pi1))


def dual_weight(alg, h):
    """Weight vector lam with (alpha, lam) = alpha(h) for all roots alpha."""
    if not h.is_cartan():
        raise ValueError("element is not in the Cartan subalgebra")
    return tuple(Fraction(c) / d for c, d in zip(h.cartan_part(), alg.rs.d))


def cartan_from_dual_weight(alg, lam):
    return alg.cartan([Fraction(x) * d for x, d in zip(lam, alg.rs.d)])


def reference_normal_list(grading, coset_reps, h, seed=0):
    """normal_list through weight vectors: each coset representative acts
    on den * lam (lam the dual weight of h) by its matrix, duplicate images
    are merged, and every new image is built as a Fraction Cartan element
    and handed to decide_normal."""
    from nilorb import linalg
    from nilorb.characteristics import decide_normal

    alg = grading.alg
    lam, den = linalg.clear_denominators(dual_weight(alg, h))
    seen = set()
    triples = []
    for w in coset_reps:
        mu = w.act_weight(lam)
        if mu in seen:
            continue
        seen.add(mu)
        image = cartan_from_dual_weight(alg, [Fraction(x, den) for x in mu])
        triple = decide_normal(grading, *alg.cartan_values(image), seed=seed)
        if triple is not None:
            triples.append(triple)
    return triples


def reference_classify_nilpotent_g(alg):
    """classify_nilpotent_g through h_from_wdd and decide_normal on every
    nonzero label vector in {0, 1, 2}^l."""
    from itertools import product

    from nilorb.characteristics import decide_normal, h_from_wdd
    from nilorb.grading import trivial_grading
    from nilorb.records import WeightedDynkinDiagram

    triv = trivial_grading(alg)
    out = [(WeightedDynkinDiagram((0,) * alg.rs.rank), alg.zero())]
    for labels in product((0, 1, 2), repeat=alg.rs.rank):
        if not any(labels):
            continue
        wdd = WeightedDynkinDiagram(labels)
        h = h_from_wdd(alg, wdd)
        if decide_normal(triv, *alg.cartan_values(h)) is not None:
            out.append((wdd, h))
    return tuple(out)


def reference_sl2_module_multiplicities(rank, pos):
    """Whether d_1 is even and d_k >= d_{k+2} for every k >= 0, with the
    ad h multiplicities d_0 = rank + 2 #{alpha(h) = 0} and d_k =
    #{alpha(h) = k} counted in a list from the values pos of the positive
    roots."""
    counts = [0] * (max(pos) + 3)
    for v in pos:
        counts[v] += 1
    counts[0] = rank + 2 * counts[0]
    return counts[1] % 2 == 0 and all(a >= b for a, b in zip(counts, counts[2:]))


def reference_sl2_label_vectors(alg):
    """(labels, hnum, den, values) for every nonzero label vector in
    {0, 1, 2}^l, in product order, whose multiplicities pass
    reference_sl2_module_multiplicities: every vector walked, the values
    kept as lists of ints summed a column at a time."""
    from itertools import product

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
        if reference_sl2_module_multiplicities(l, pos):
            hnum, den = alg.cartan_solution(labels)
            values = [den * v for v in pos]
            yield labels, hnum, den, values + [-v for v in values]


def reference_orbit_record(grading, record):
    """The record of record's triple built from the Fraction h: the integer
    form of h rebuilt by ChevalleyAlgebra.cartan_values, then
    records.orbit_record."""
    from nilorb.chevalley import Sl2Triple
    from nilorb.records import orbit_record

    triple = Sl2Triple(record.h, record.e, record.f)
    return orbit_record(grading, triple, *grading.alg.cartan_values(record.h)[1:])


def reference_wdd_of_cartan(alg, h):
    """The simple-root values of the dominant W-conjugate of h, through
    to_subdominant on the dual weight of h (scaled to integers, since the
    reflections are linear)."""
    from nilorb import linalg
    from nilorb.weyl import WeylSubgroup, to_subdominant

    rs = alg.rs
    full = WeylSubgroup(rs, [rs.simple_root(i) for i in range(rs.rank)])
    lam, den = linalg.clear_denominators(dual_weight(alg, h))
    lam, _ = to_subdominant(rs, full, lam)
    return tuple(Fraction(inner(rs, rs.simple_root(i), lam), den) for i in range(rs.rank))


def eager_echelon(m, ncols):
    """linalg._echelon without deferred scaling: every step rewrites every
    row below the pivot, (p * row_i - f * row_p) / prev, also when f = 0.
    Brings the integer rows m in place to echelon form, pivoting on the
    first ncols columns, and returns the pivot columns."""
    nrows = len(m)
    piv_cols = []
    prev = 1
    for col in range(ncols):
        rank = len(piv_cols)
        piv = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        row_p = m[rank]
        p = row_p[col]
        for i in range(rank + 1, nrows):
            f = m[i][col]
            row_i = m[i]
            for j in range(col, len(row_p)):
                row_i[j] = (p * row_i[j] - f * row_p[j]) // prev
        prev = p
        piv_cols.append(col)
        if rank + 1 == nrows:
            break
    return piv_cols


def bareiss_row_reduce(vectors):
    """Reduced row-echelon basis of the row span (zero rows dropped), through
    linalg's fraction-free elimination and back-substitution on every
    column; compared against the Gauss-Jordan rref_row_reduce."""
    from nilorb import linalg

    m = [linalg.clear_denominators(r)[0] for r in vectors if any(r)]
    if not m:
        return []
    piv_cols = linalg._echelon(m, len(m[0]))
    cols = [linalg._back_substitute(m, piv_cols, j) for j in range(len(m[0]))]
    return [[Fraction(num[i], den) for num, den in cols] for i in range(len(piv_cols))]


def in_span(vectors, target):
    """Whether target lies in the rational span of the vectors, by
    fraction_solve."""
    if all(x == 0 for x in target):
        return True
    if not vectors:
        return False
    cols = [[v[i] for v in vectors] for i in range(len(target))]
    return fraction_solve(cols, list(target)) is not None


def ad_matrix(alg, x, domain, codomain):
    """Matrix of ad(x): span(domain) -> span(codomain), columns exact.

    Raises ValueError if some bracket leaves the codomain span.
    """
    cod = [dense(v) for v in codomain]
    cols = []
    for d in domain:
        img = dense(alg.bracket(x, d))
        coords = rref_solve([[cod[j][i] for j in range(len(cod))] for i in range(alg.dim)], img)
        if coords is None:
            raise ValueError(f"bracket image {alg.bracket(x, d)!r} outside codomain span")
        cols.append(coords)
    return [[cols[j][i] for j in range(len(domain))] for i in range(len(codomain))]


def is_nilpotent(alg, x):
    """Whether ad(x) is nilpotent, by iterating image spaces to zero."""
    from nilorb.chevalley import LieElement

    if x.is_zero():
        return True
    cur = [dense(alg.basis_element(k)) for k in range(alg.dim)]
    dim_prev = alg.dim
    while True:
        imgs = [
            dense(alg.bracket(x, LieElement(alg, {k: c for k, c in enumerate(v) if c})))
            for v in cur
        ]
        basis = rref_row_reduce(imgs)
        if not basis:
            return True
        if len(basis) == dim_prev:
            return False
        dim_prev = len(basis)
        cur = basis


def killing_form(alg, x, y):
    """kappa(x, y) = trace(ad x o ad y)."""
    total = 0
    for k in range(alg.dim):
        v = alg.bracket(x, alg.bracket(y, alg.basis_element(k)))
        total += v.coeffs.get(k, 0)
    return total


def semisimple_part_cartan(grading):
    """The coroots of Delta_0: a basis of the Cartan of [g_0, g_0]."""
    return tuple(grading.alg.coroot(b) for b in grading.delta0)


def eigenspace(grading, h, k, i):
    """Basis of g_i(k) = {x in g_i : [h, x] = k x} for h in g_0."""
    alg = grading.alg
    i %= grading.m
    if h.is_cartan():
        out = [
            alg.root_vector(r)
            for r, d in zip(alg.rs.roots, grading.deg_by_index)
            if d == i and root_value(alg, r, h) == k
        ]
        if i == 0 and k == 0:
            out.extend(
                alg.cartan([1 if j == t else 0 for j in range(alg.rs.rank)])
                for t in range(alg.rs.rank)
            )
        return out
    basis = component_basis(grading, i)
    index_of = {next(iter(b.coeffs)): col for col, b in enumerate(basis)}
    mat = [[Fraction(0)] * len(basis) for _ in range(len(basis))]
    for col, b in enumerate(basis):
        for idx, c in alg.bracket(h, b).coeffs.items():
            if idx not in index_of:
                raise ValueError("ad h does not preserve the component; h is not in g_0")
            mat[index_of[idx]][col] = Fraction(c)
    for t in range(len(basis)):
        mat[t][t] -= Fraction(k)
    out = []
    for v in rref_nullspace(mat, len(basis)):
        x = alg.zero()
        for c, b in zip(v, basis):
            if c:
                x = x + b.scale(c)
        out.append(x)
    return out


def reference_complete_sl2(alg, h, e, f_space):
    """ChevalleyAlgebra.complete_sl2 as a dense solve: the preconditions
    checked with bracket, and [e, f] = h solved by fraction_solve over all
    dim g rows."""
    from nilorb.chevalley import Sl2Triple

    if alg.bracket(h, e) != e.scale(2):
        raise ValueError("[h, e] != 2e")
    for v in f_space:
        if alg.bracket(h, v) != v.scale(-2):
            raise ValueError("f_space vector is not a -2 eigenvector of ad h")
    if e.is_zero():
        return None
    cols = [dense(alg.bracket(e, v)) for v in f_space]
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(alg.dim)]
    sol = fraction_solve(rows, dense(h))
    if sol is None:
        return None
    f = alg.zero()
    for c, v in zip(sol, f_space):
        if c:
            f = f + v.scale(c)
    triple = Sl2Triple(h, e, f)
    triple.check()
    return triple


def survey_nregular_diagrams(alg, m):
    """Every order-m Kac diagram whose g_1 meets the regular nilpotent
    orbit, found by classifying the orbits of each diagram of the order."""
    from nilorb import classify_orbits, enumerate_kac_diagrams, grading_from_kac, summarize

    hits = []
    for kd in enumerate_kac_diagrams(alg.rs, m):
        grading = grading_from_kac(alg, kd)
        if summarize(grading, classify_orbits(grading)).nregular:
            hits.append(kd)
    return hits


def toral_summary(labels):
    """(orbit_count, component_count, component_dim, rank) of the nullcone
    of g_1 for Kac labels s_0..s_l that are all at least 1, in closed form.

    Then g_0 is the Cartan subalgebra t, and g_1 is spanned by the root
    vectors of the extended simple roots alpha_i with s_i = 1 (alpha_0 =
    -theta); let k be their number.  Any l of the l + 1 extended simple
    roots are linearly independent, so for k <= l the torus T acts on g_1 =
    C^k by independent characters: the nonzero orbits are the 2^k - 1
    coordinate strata, all nilpotent, and the open one is the one component,
    of dimension k, with rank 0 (k = 0 leaves g_1 = 0).  For k = l + 1 the
    grading is principal, m is the Coxeter number, and the one relation
    sum a_i alpha_i = 0 gives the invariant prod x_i^{a_i}: the nullcone is
    the union of the l + 1 coordinate hyperplanes, of dimension l, with the
    2^(l+1) - 2 proper nonzero strata as its orbits, and rank 1 (Kac,
    Infinite-dimensional Lie algebras, 8.6; Kostant, Amer. J. Math. 81,
    1959, for the principal case).
    """
    l = len(labels) - 1
    k = list(labels).count(1)
    if k == l + 1:
        return (2 ** (l + 1) - 2, l + 1, l, 1)
    if k == 0:
        return (0, 0, 0, 0)
    return (2**k - 1, 1, k, 0)


def reference_shortest_coset_reps(rs, sub):
    """Minimal coset representatives grown level by level as before the
    one-lookup test: each element carries its inverse permutation, and
    w*s_i is kept when l(w s_i) > l(w) and (w s_i)^{-1} sends every basis
    root to a positive root."""
    from nilorb.weyl import WeylElement, _compose, _simple_perm_table

    simples = _simple_perm_table(rs)
    simple_idx = rs.simple_indices
    n_pos = rs.n_pos
    beta_idx = [rs.root_index[b] for b in sub.basis]
    ident = bytes(range(len(rs.roots)))
    reps = []
    level = {ident: (ident, b"")}  # perm -> (inverse perm, word)
    while level:
        nxt = {}
        for perm, (inv, word) in level.items():
            reps.append(WeylElement(rs, perm, word))
            for i in range(rs.rank):
                if perm[simple_idx[i]] >= n_pos:
                    continue  # l(w s_i) < l(w)
                si = simples[i]
                if any(si[inv[bj]] >= n_pos for bj in beta_idx):
                    continue  # (w s_i)^{-1} sends some beta_j negative
                new_perm = _compose(perm, si)
                if new_perm not in nxt:
                    nxt[new_perm] = (_compose(si, inv), word + bytes((i,)))
        level = nxt
    return reps


def reference_least_images(rs, sub, blocks):
    """The conjugacy key of `blocks` and an ordering of the input roots,
    block by block, whose successive images realise it, by the search that
    keeps (block, image, position) entries of all blocks in every state and
    merges states on the images of every root not placed yet."""
    from nilorb.weyl import _coroot_column, _dominant_perm

    roots, entries = [], []
    for k, block in enumerate(blocks):
        for r in block:
            r = tuple(r)
            if r not in rs.root_index:
                raise ValueError(f"{r} is not a root of {rs!r}")
            entries.append((k, rs.root_index[r], len(roots)))
            roots.append(r)
    # A search state: the (block, image, position in roots) entries of the
    # roots not yet placed, sorted, and the positions placed so far.  All
    # states of a step share the key prefix and hence the stabiliser basis.
    states = [(tuple(sorted(entries)), ())]
    basis = tuple(rs.root_index[b] for b in sub.basis)
    key = []
    while states[0][0]:
        block = states[0][0][0][0]
        best, hits = None, []
        for remaining, placed in states:
            for p, (k, img, _) in enumerate(remaining):
                if k != block:
                    break
                lam, perm = _dominant_perm(rs, basis, img)
                if best is None or lam < best:
                    best, hits = lam, []
                if lam == best:
                    hits.append((remaining, placed, p, perm))
        merged = {}
        for remaining, placed, p, perm in hits:
            rest = remaining[:p] + remaining[p + 1 :]
            rest = tuple(sorted((k, perm[img], n) for k, img, n in rest))
            ident = tuple((k, img) for k, img, _ in rest)
            if ident not in merged:
                merged[ident] = (rest, placed + (remaining[p][2],))
        states = list(merged.values())
        key.append((block, best))
        basis = tuple(b for b in basis if _coroot_column(rs, b)[best] == 0)
    return tuple(key), tuple(roots[n] for n in states[0][1])


def reference_difference_masks(rs):
    """For each root index i, the bitmask of the indices j with
    roots[i] - roots[j] a root, by testing every pair."""
    masks = []
    for a in rs.roots:
        m = 0
        for j, b in enumerate(rs.roots):
            if tuple(x - y for x, y in zip(a, b)) in rs.root_index:
                m |= 1 << j
        masks.append(m)
    return tuple(masks)


def reference_phi1_span(grading, cand):
    """The bitmask over root indices of the roots of Phi_1 in the span of
    the candidate's roots: those that leave the rank unchanged when
    appended to them."""
    from nilorb.linalg import rank_int

    roots = [list(r) for r in cand.roots()]
    rank = rank_int(roots)
    span = 0
    for i, r in zip(grading.phi1_indices, grading.phi1):
        if rank_int(roots + [list(r)]) == rank:
            span |= 1 << i
    return span
