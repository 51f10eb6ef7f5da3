"""Simple Lie algebras over Q as integer structure-constant tables.

The basis is one root vector x_alpha per root, followed by the Cartan
generators h_1..h_l (the simple coroots).  Signs are fixed by setting the
constant of each extraspecial pair positive; any consistent convention is
equivalent for the invariant quantities computed downstream.  One table,
structure_constants, keyed by pairs of root indices, gives a bracket of
root vectors in one lookup.  It is built in one pass over the positive
roots by height: each constant N_{x,y} of a positive pair is written
together with the eleven that two identities tie to it, N_{-a,-b} =
-N_{a,b} and N_{a,b} / |c|^2 = N_{b,c} / |a|^2 = N_{c,a} / |b|^2 for
a + b + c = 0, and Carter's formula for a later pair reads the table.  One
integer bracket over the tables serves both ChevalleyAlgebra.bracket and
Sl2Triple.check.

The algebra also owns the integer form of a Cartan element, which both
listing methods test on: cartan_values gives den * h and den * alpha(h) for
every root, and the integer inverse of the Cartan matrix (cartan_inverse,
one integer linalg.solve per row; cartan_solution, hnum_from_values) turns
simple-root values back into coordinates.  Its killing_weights give the
invariant form in integers, through which the normality test solves
[e, f] = h on the matrix of ad e it has already built; complete_sl2 is the
general solve of [e, f] = h over any span of -2 eigenvectors, its rows
cleared to integers for linalg.solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import mul, sub

from . import linalg
from .rootsystem import Root, RootSystem


class LieElement:
    """Element with rational coefficients over the algebra basis."""

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg: "ChevalleyAlgebra", coeffs: dict):
        self.alg = alg
        self.coeffs = {k: v for k, v in coeffs.items() if v != 0}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LieElement") -> "LieElement":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return LieElement(self.alg, out)

    def __sub__(self, other: "LieElement") -> "LieElement":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return LieElement(self.alg, out)

    def __neg__(self) -> "LieElement":
        return LieElement(self.alg, {k: -v for k, v in self.coeffs.items()})

    def scale(self, c) -> "LieElement":
        return LieElement(self.alg, {k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieElement)
            and self.alg is other.alg
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def cartan_part(self) -> tuple:
        """Coefficients over h_1..h_l."""
        n = self.alg.n_roots
        return tuple(self.coeffs.get(n + i, 0) for i in range(self.alg.rs.rank))

    def is_cartan(self) -> bool:
        return all(k >= self.alg.n_roots for k in self.coeffs)

    def to_triples(self) -> list[tuple[str, int, int]]:
        """Serialisable form: (basis label, numerator, denominator) triples."""
        out = []
        for k in sorted(self.coeffs):
            c = Fraction(self.coeffs[k])
            out.append((self.alg.basis_label(k), c.numerator, c.denominator))
        return out

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"{v}*{self.alg.basis_label(k)}" for k, v in sorted(self.coeffs.items())]
        return " + ".join(parts)


@dataclass(frozen=True)
class Sl2Triple:
    """(h, e, f) with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""

    h: LieElement
    e: LieElement
    f: LieElement

    def check(self) -> None:
        """Raise ValueError unless e != 0, [h,e] = 2e, [h,f] = -2f and [e,f] = h.

        h, e and f are cleared to integers once, H = dh h, E = de e and
        F = df f, and the three identities are compared as integer dicts
        through the integer bracket B of ChevalleyAlgebra: B(H, E) = 2 dh E,
        B(H, F) = -2 dh F and dh B(E, F) = de df H.  h need not lie in the
        Cartan subalgebra.  No Fraction is built.
        """
        alg = self.h.alg
        if self.e.is_zero():
            raise ValueError("sl2 triple with e = 0")
        hs, dh = _cleared(self.h)
        es, de = _cleared(self.e)
        fs, df = _cleared(self.f)
        if alg._bracket_int(hs, es) != {k: 2 * dh * v for k, v in es.items()}:
            raise ValueError("[h,e] != 2e")
        if alg._bracket_int(hs, fs) != {k: -2 * dh * v for k, v in fs.items()}:
            raise ValueError("[h,f] != -2f")
        efs = alg._bracket_int(es, fs)
        if {k: dh * v for k, v in efs.items()} != {k: de * df * v for k, v in hs.items()}:
            raise ValueError("[e,f] != h")


def _cleared(x: LieElement) -> tuple[dict, int]:
    """(coefficients of den * x as a dict of nonzero ints, den), with den the
    least common denominator of the coefficients of x."""
    nums, den = linalg.clear_denominators(x.coeffs.values())
    return dict(zip(x.coeffs, nums)), den


class ChevalleyAlgebra:
    """Structure-constant model of the simple Lie algebra of a root system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.n_roots = len(rs.roots)
        self.dim = self.n_roots + rs.rank
        # The structure tables, in root order and read by the listing methods
        # beside rs.coroot_coords (the coordinates of roots[i]^vee over
        # h_1..h_l): simple_pairings[i][k] = <roots[i], alpha_k^vee>;
        # structure_constants[(i, j)] = (k, N_{i,j}) with roots[k] = roots[i]
        # + roots[j], for the pairs whose sum is a root.
        a = rs.cartan_matrix
        self.simple_pairings = tuple(
            tuple(sum(r[j] * a[j][k] for j in range(rs.rank)) for k in range(rs.rank))
            for r in rs.roots
        )
        # the same pairings as columns, over the positive roots
        self._pair_columns = tuple(
            tuple(p[k] for p in self.simple_pairings[: rs.n_pos]) for k in range(rs.rank)
        )
        self.structure_constants = self._build_constants()

    def __repr__(self) -> str:
        return f"ChevalleyAlgebra({self.rs.type_label}{self.rs.rank})"

    # -- construction ---------------------------------------------------------

    def _build_constants(self) -> dict:
        """(k, N_{i,j}) with roots[k] = roots[i] + roots[j], keyed by the
        index pairs (i, j) whose sum is a root: one pass over one table.

        The positive roots z are taken by height.  The first pair (x, y) of
        positive roots with x + y = z, x least, is extraspecial and gets
        N_{x,y} = p + 1, p the largest k with y - k x a root; every other
        pair gets Carter's formula (Simple Groups of Lie Type, 1972, 4.1.2),
        which reads constants of pairs of lower sums.  put writes N_{x,y}
        together with the eleven constants that the bracket identities tie
        to it: N_{-a,-b} = -N_{a,b}, and N_{a,b} / |c|^2 = N_{b,c} / |a|^2 =
        N_{c,a} / |b|^2 for a + b + c = 0, here (x, y, -z), with
        antisymmetry.  Every pair whose sum is a root lies in exactly one
        such family, so each constant is written once.
        """
        rs, n_pos = self.rs, self.rs.n_pos
        roots, index = rs.roots, rs.root_index
        len2 = [rs.length2(r) for r in rs.positive_roots]
        neg = tuple(range(n_pos, 2 * n_pos)) + tuple(range(n_pos))  # index of -roots[i]
        table: dict = {}
        none = (None, 0)

        def exact(num: int, den: int, x: int, y: int) -> int:
            q, r = divmod(num, den)
            if r:
                raise AssertionError(f"non-integral constant for {roots[x]}, {roots[y]}")
            return q

        def put(x: int, y: int, z: int, n: int) -> None:
            mz = neg[z]
            n_yz = exact(n * len2[x], len2[z], y, mz)  # N_{y,-z}
            n_zx = exact(n * len2[y], len2[z], mz, x)  # N_{-z,x}
            for i, j, k, c in ((x, y, z, n), (y, mz, neg[x], n_yz), (mz, x, neg[y], n_zx)):
                table[(i, j)], table[(j, i)] = (k, c), (k, -c)
                table[(neg[i], neg[j])], table[(neg[j], neg[i])] = (neg[k], -c), (neg[k], c)

        for z, rho in enumerate(rs.positive_roots):
            first = None
            for x in range(z):
                y = index.get(tuple(map(sub, rho, roots[x])))
                if y is None or not x < y < n_pos:
                    continue
                if first is None:
                    first, p, cur = (x, y), 0, y
                    while (cur := table.get((cur, neg[x]), none)[0]) is not None:
                        p += 1
                    put(x, y, z, p + 1)
                    continue
                g, d = first
                ma = neg[x]
                k2, f2 = table.get((d, ma), none)
                t2 = f2 and f2 * table.get((k2, g), none)[1]
                k3, f3 = table.get((ma, g), none)
                t3 = f3 and f3 * table.get((k3, d), none)[1]
                put(x, y, z, exact((t2 + t3) * len2[z], len2[y] * table[(g, d)][1], x, y))
        return table

    # -- basis bookkeeping -----------------------------------------------------

    def basis_label(self, k: int) -> str:
        if k < self.n_roots:
            return "x[" + ",".join(str(c) for c in self.rs.roots[k]) + "]"
        return f"h[{k - self.n_roots + 1}]"

    def basis_element(self, k: int) -> LieElement:
        return LieElement(self, {k: Fraction(1)})

    def zero(self) -> LieElement:
        return LieElement(self, {})

    def root_vector(self, root: Root) -> LieElement:
        return self.basis_element(self.rs.root_index[tuple(root)])

    def cartan(self, coeffs, den: int = 1) -> LieElement:
        """Element sum_i coeffs[i] / den * h_i of the Cartan subalgebra."""
        return LieElement(
            self, {self.n_roots + i: Fraction(c, den) for i, c in enumerate(coeffs) if c != 0}
        )

    def coroot(self, root: Root) -> LieElement:
        """The coroot of a root, as a Cartan element ([x_a, x_{-a}])."""
        return self.cartan(self.rs.coroot_coords[self.rs.root_index[tuple(root)]])

    def cartan_values(self, h: LieElement) -> tuple[list[int], int, list[int]]:
        """The integer form of a Cartan element h: (hnum, den, values) with
        hnum = den * h over h_1..h_l, den the least such denominator, and
        values = root_values(hnum), the integers den * alpha(h) in root order.
        """
        if not h.is_cartan():
            raise ValueError("h must lie in the Cartan subalgebra")
        hnum, den = linalg.clear_denominators(h.cartan_part())
        return hnum, den, self.root_values(hnum)

    @cached_property
    def killing_weights(self) -> tuple[int, ...]:
        """w[i] = |longest root|^2 / |roots[i]|^2 for every root, in root order.

        The invariant form B with B(x_a, x_-a) = 2 / |a|^2 (short roots of
        length^2 2) is 2 / |longest|^2 times the integer form with
        B'(x_a, x_-a) = w_a and B'(h, h_k) = w_k alpha_k(h), h_k the coroot
        of the k-th simple root: [x_a, x_-a] = h_a and invariance give
        B(h, h_a) = alpha(h) B(x_a, x_-a).
        """
        lmax = max(self.rs.length2(r) for r in self.rs.roots)
        return tuple(lmax // self.rs.length2(r) for r in self.rs.roots)

    @cached_property
    def cartan_inverse(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(num, den) with num / den the inverse of the Cartan matrix, num
        integer and den least.  Row i of the inverse solves the transposed
        system with right-hand side e_i; each row is one elimination of the
        same matrix, over its |det|, reduced by the gcd of all the integers."""
        l = self.rs.rank
        transposed = [list(col) for col in zip(*self.rs.cartan_matrix)]
        rows = [linalg.solve(transposed, [int(j == i) for j in range(l)]) for i in range(l)]
        g = gcd(rows[0][1], *(x for num, _ in rows for x in num))
        return tuple(tuple(x // g for x in num) for num, _ in rows), rows[0][1] // g

    def cartan_solution(self, simple_values) -> tuple[list[int], int]:
        """(hnum, den) with h = hnum / den over h_1..h_l the Cartan element
        with alpha_i(h) = simple_values[i]: hnum = num . simple_values for
        the integer inverse (num, den) of the Cartan matrix."""
        num, den = self.cartan_inverse
        return [sum(map(mul, row, simple_values)) for row in num], den

    def hnum_from_values(self, simple_values) -> list[int]:
        """Integer coordinates over h_1..h_l of the h with alpha_i(h) =
        simple_values[i].  The division is exact for h in the coroot
        lattice, as den * w(h) is for every w in W when den * h has integer
        coordinates (W permutes the coroots)."""
        hnum, den = self.cartan_solution(simple_values)
        return [x // den for x in hnum]

    def root_values(self, hnum) -> list:
        """alpha(h) for every root, in root order, where h = sum_k hnum[k] h_k.

        One pass over the columns of the pairing table; integer hnum (the
        den * h of linalg.clear_denominators) gives the integers den * alpha(h).
        """
        vals = [0] * self.rs.n_pos
        for c, col in zip(hnum, self._pair_columns):
            if c:
                vals = [v + c * x for v, x in zip(vals, col)]
        return vals + [-v for v in vals]

    # -- bracket and derived maps ----------------------------------------------

    def _bracket_int(self, x: dict, y: dict) -> dict:
        """[x, y] for x and y given as dicts of int coefficients over the
        basis, as a dict of nonzero ints, read off the structure tables:
        [h_k, x_a] = <a, alpha_k^vee> x_a, [x_a, x_b] = N_ab x_{a+b} when
        a + b is a root, and [x_a, x_-a] = h_a, the coroot of a."""
        n, n_pos = self.n_roots, self.rs.n_pos
        pair, consts, coroots = self.simple_pairings, self.structure_constants, self.rs.coroot_coords
        out: dict = {}
        for i, a in x.items():
            for j, b in y.items():
                if i >= n:
                    if j < n:
                        out[j] = out.get(j, 0) + a * b * pair[j][i - n]
                elif j >= n:
                    out[i] = out.get(i, 0) - a * b * pair[i][j - n]
                elif (hit := consts.get((i, j))) is not None:
                    k, c = hit
                    out[k] = out.get(k, 0) + a * b * c
                elif abs(i - j) == n_pos:  # j indexes -roots[i]
                    for t, c in enumerate(coroots[i], n):
                        if c:
                            out[t] = out.get(t, 0) + a * b * c
        return {k: v for k, v in out.items() if v}

    def bracket(self, x: LieElement, y: LieElement) -> LieElement:
        """[x, y] by the integer bracket: the coefficients of x and of y are
        scaled to integers once, and each coefficient of the result is
        divided back once."""
        xs, dx = _cleared(x)
        ys, dy = _cleared(y)
        out = self._bracket_int(xs, ys)
        den = dx * dy
        return LieElement(self, out if den == 1 else {k: Fraction(v, den) for k, v in out.items()})

    def complete_sl2(self, h: LieElement, e: LieElement, f_space) -> Sl2Triple | None:
        """Solve [e, f] = h for f in the span of f_space, or return None.

        h must lie in the Cartan subalgebra, and [h, e] = 2e and [h, v] = -2v
        for every v in f_space: for a Cartan h these say that e and v have no
        Cartan part and alpha(h) = 2, resp. -2, on every root of their support.
        The solve runs over the basis rows that some [e, v] or h reaches; every
        other row reads 0 = 0 and leaves the solution (free variables 0) as it
        is.
        """
        _, den, values = self.cartan_values(h)
        n = self.n_roots

        def eigenvector(x: LieElement, c: int) -> bool:
            return all(k < n and values[k] == c * den for k in x.coeffs)

        if not eigenvector(e, 2):
            raise ValueError("[h, e] != 2e")
        for v in f_space:
            if not eigenvector(v, -2):
                raise ValueError("f_space vector is not a -2 eigenvector of ad h")
        if e.is_zero():
            return None
        cols = [self.bracket(e, v).coeffs for v in f_space]
        reached = sorted(set(h.coeffs).union(*cols))
        rows = [[col.get(i, 0) for col in cols] + [h.coeffs.get(i, 0)] for i in reached]
        rows = [linalg.clear_denominators(r)[0] for r in rows]
        sol = linalg.solve([r[:-1] for r in rows], [r[-1] for r in rows])
        if sol is None:
            return None
        num, d = sol
        f: dict = {}
        for c, v in zip(num, f_space):
            if c:
                for k, x in v.coeffs.items():
                    f[k] = f.get(k, 0) + c * x
        triple = Sl2Triple(h, e, LieElement(self, {k: Fraction(x) / d for k, x in f.items()}))
        triple.check()
        return triple


@lru_cache(maxsize=None)
def build_algebra(rs: RootSystem) -> ChevalleyAlgebra:
    return ChevalleyAlgebra(rs)
