"""Root systems of the simple complex Lie algebras, types A-G.

Roots are stored as integer coordinate tuples with respect to the simple
roots (Bourbaki numbering; for G2 the first simple root is short).  The
invariant bilinear form is normalised so that short roots have squared
length 2, which keeps every pairing and structure constant integral.  The
positive roots are built from the Cartan integers alone, as the closure of
the simple roots under the simple reflections.  One pass over (alpha_k, r)
per root r gives |r|^2, the integer coroot coordinates (coroot_coords) and
<alpha_k, r^vee>, so a pairing <lam, r^vee> is one integer dot product;
the components of a set of roots and the lowest root of a subsystem are
read off the same table.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import factorial
from operator import mul

from . import linalg

Root = tuple  # integer coordinates in the simple-root basis
Weight = tuple  # rational coordinates in the simple-root basis

_ROOT_COUNTS = {
    "A": lambda l: l * (l + 1),
    "B": lambda l: 2 * l * l,
    "C": lambda l: 2 * l * l,
    "D": lambda l: 2 * l * (l - 1),
    "E": lambda l: {6: 72, 7: 126, 8: 240}[l],
    "F": lambda l: 48,
    "G": lambda l: 12,
}

_WEYL_ORDERS = {
    "A": lambda l: factorial(l + 1),
    "B": lambda l: 2**l * factorial(l),
    "C": lambda l: 2**l * factorial(l),
    "D": lambda l: 2 ** (l - 1) * factorial(l),
    "E": lambda l: {6: 51840, 7: 2903040, 8: 696729600}[l],
    "F": lambda l: 1152,
    "G": lambda l: 12,
}

_RANK_RANGES = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _validate_type(type_label: str, rank: int) -> None:
    if type_label not in _RANK_RANGES:
        raise ValueError(f"unknown type label {type_label!r}; expected one of A-G")
    lo, hi = _RANK_RANGES[type_label]
    if rank < lo:
        raise ValueError(f"type {type_label} requires rank >= {lo}, got {rank}")
    if hi is not None and rank > hi:
        raise ValueError(f"type {type_label} requires rank <= {hi}, got {rank}")


def _cartan_edges(type_label: str, rank: int) -> list[tuple[int, int, int, int]]:
    """Edges (i, j, aij, aji) of the Dynkin diagram, 0-based Bourbaki order.

    aij is the Cartan integer <alpha_i, alpha_j^vee>.
    """
    l = rank
    chain = [(i, i + 1, -1, -1) for i in range(l - 1)]
    if type_label == "A":
        return chain
    if type_label == "B":
        chain[-1] = (l - 2, l - 1, -2, -1)  # alpha_l short
        return chain
    if type_label == "C":
        chain[-1] = (l - 2, l - 1, -1, -2)  # alpha_l long
        return chain
    if type_label == "D":
        chain = chain[:-1]
        chain.append((l - 3, l - 1, -1, -1))
        return chain
    if type_label == "E":
        edges = [(0, 2, -1, -1), (2, 3, -1, -1), (3, 4, -1, -1), (1, 3, -1, -1)]
        edges += [(i, i + 1, -1, -1) for i in range(4, l - 1)]
        return edges
    if type_label == "F":
        return [(0, 1, -1, -1), (1, 2, -2, -1), (2, 3, -1, -1)]
    if type_label == "G":
        return [(0, 1, -1, -3)]  # alpha_1 short, alpha_2 long
    raise AssertionError(type_label)


def cartan_matrix(type_label: str, rank: int) -> list[list[int]]:
    """Cartan matrix A with A[i][j] = <alpha_i, alpha_j^vee>."""
    _validate_type(type_label, rank)
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, aij, aji in _cartan_edges(type_label, rank):
        a[i][j] = aij
        a[j][i] = aji
    return a


def _half_lengths(type_label: str, rank: int) -> list[int]:
    """d_i = (alpha_i, alpha_i)/2 with short roots normalised to length^2 = 2."""
    l = rank
    if type_label == "B":
        return [2] * (l - 1) + [1]
    if type_label == "C":
        return [1] * (l - 1) + [2]
    if type_label == "F":
        return [2, 2, 1, 1]
    if type_label == "G":
        return [1, 3]
    return [1] * l


class RootSystem:
    """Immutable root system with exact pairings and extended-diagram data."""

    def __init__(self, type_label: str, rank: int):
        _validate_type(type_label, rank)
        self.type_label = type_label
        self.rank = rank
        self.cartan_matrix = tuple(tuple(r) for r in cartan_matrix(type_label, rank))
        self.d = tuple(_half_lengths(type_label, rank))
        # (alpha_i, alpha_j) = d_j * A[i][j]
        self.bilinear_form = tuple(
            tuple(self.d[j] * self.cartan_matrix[i][j] for j in range(rank))
            for i in range(rank)
        )
        self.positive_roots = self._build_positive_roots()
        self.n_pos = len(self.positive_roots)
        expected = _ROOT_COUNTS[type_label](rank) // 2
        if self.n_pos != expected:
            raise AssertionError(
                f"{type_label}{rank}: built {self.n_pos} positive roots, expected {expected}"
            )
        self.roots = self.positive_roots + tuple(
            tuple(-c for c in r) for r in self.positive_roots
        )
        self.root_index = {r: i for i, r in enumerate(self.roots)}
        self.simple_indices = tuple(self.root_index[self.simple_root(i)] for i in range(rank))
        self.highest_root = self.positive_roots[-1]
        self.marks = (1,) + self.highest_root
        # Per root r, from br[k] = (alpha_k, r) and half = |r|^2 / 2: the
        # coordinates of r^vee = 2 r / |r|^2 over alpha_j^vee = alpha_j / d_j,
        # and <alpha_k, r^vee> = br[k] / half (A times those coordinates).
        len2, coroots, pairs = [], [], []
        for r in self.roots:
            br = [sum(map(mul, row, r)) for row in self.bilinear_form]
            half = sum(map(mul, br, r)) // 2  # short roots have length^2 = 2
            if any(x * d % half for x, d in zip(r, self.d)):
                raise AssertionError(f"non-integral coroot for {r}")
            len2.append(2 * half)
            coroots.append(tuple(x * d // half for x, d in zip(r, self.d)))
            pairs.append(tuple(x // half for x in br))
        self._len2 = tuple(len2)
        self.coroot_coords = tuple(coroots)
        self._coroot_pairs = tuple(pairs)
        self._ext_autos = None

    def __repr__(self) -> str:
        return f"RootSystem({self.type_label}{self.rank})"

    def _build_positive_roots(self) -> tuple[Root, ...]:
        """The positive roots, by height and then by coordinates: the closure
        of the simple roots under the simple reflections s_i(b) = b - <b,
        alpha_i^vee> alpha_i, kept where positive.  Every root is W-conjugate
        to a simple root, and s_i permutes the positive roots other than
        alpha_i (Humphreys, Introduction to Lie Algebras, 10.2-10.3).  s_i(b)
        differs from b in coordinate i only: it is positive iff that is >= 0."""
        l, a = self.rank, self.cartan_matrix
        known = {self.simple_root(i) for i in range(l)}
        work = list(known)
        while work:
            b = work.pop()
            for i in range(l):
                c = sum(b[j] * a[j][i] for j in range(l))  # <b, alpha_i^vee>
                r = b[:i] + (b[i] - c,) + b[i + 1 :]
                if r[i] >= 0 and r not in known:
                    known.add(r)
                    work.append(r)
        return tuple(sorted(known, key=lambda r: (sum(r), r)))

    # -- basic queries ------------------------------------------------------

    def is_positive(self, root: Root) -> bool:
        return self.root_index[tuple(root)] < self.n_pos

    def simple_root(self, i: int) -> Root:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def _index(self, root) -> int:
        """The index of a root in roots; ValueError for a vector that is not one."""
        idx = self.root_index.get(tuple(root))
        if idx is None:
            raise ValueError(f"{root} is not a root of {self!r}")
        return idx

    def length2(self, root: Root):
        return self._len2[self.root_index[tuple(root)]]

    def check_weight(self, lam) -> None:
        """Raise ValueError unless the weight lam has one entry per simple root."""
        if len(lam) != self.rank:
            raise ValueError(f"weight {tuple(lam)} has {len(lam)} entries, not rank {self.rank}")

    def pairing(self, lam, mu: Root):
        """<lam, mu^vee> = 2 (lam, mu) / (mu, mu) = sum_k lam_k <alpha_k, mu^vee>
        for a root mu: an int for an integer lam, a Fraction for a Fraction lam."""
        pairs = self._coroot_pairs[self._index(mu)]
        self.check_weight(lam)
        return sum(map(mul, lam, pairs))

    def reflect(self, lam, mu: Root):
        """Image of the weight lam under the reflection in the root mu."""
        c = self.pairing(lam, mu)
        return tuple(x - c * m for x, m in zip(lam, mu))

    # -- subsystems ---------------------------------------------------------

    def components(self, roots) -> list[list[Root]]:
        """Partition a set of roots into Dynkin-diagram components: r_i and
        r_j are joined when <r_j, r_i^vee> != 0, read off the integer
        pairing table, which is zero exactly when (r_i, r_j) is.  ValueError
        for a vector that is not a root."""
        roots = [tuple(r) for r in roots]
        pairs = [self._coroot_pairs[self._index(r)] for r in roots]
        n = len(roots)
        seen = [False] * n
        comps = []
        for s in range(n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                i = stack.pop()
                comp.append(roots[i])
                for j in range(n):
                    if not seen[j] and sum(map(mul, roots[j], pairs[i])):
                        seen[j] = True
                        stack.append(j)
            comps.append(comp)
        return comps

    def subsystem_roots(self, generators) -> set[Root]:
        """Closure of the given roots under the reflections they generate."""
        gens = [tuple(g) for g in generators]
        for g in gens:
            self._index(g)  # ValueError for a vector that is not a root
        out = set(gens)
        work = list(gens)
        while work:
            x = work.pop()
            for g in gens:
                y = self.reflect(x, g)
                if y not in out:
                    out.add(y)
                    work.append(y)
        return out

    def simple_system(self, positive) -> tuple[Root, ...]:
        """Simple system of a closed set of positive roots: the roots of the
        set that are not the sum of two of its roots, by height and then by
        coordinates."""
        pos = set(positive)
        return tuple(
            sorted(
                (r for r in pos if not any(tuple(a - b for a, b in zip(r, q)) in pos for q in pos)),
                key=lambda r: (sum(r), r),
            )
        )

    def subsystem_positive_basis(self, roots) -> tuple[Root, ...]:
        """Canonical simple system (positive in Phi) of the subsystem the
        reflections of the given roots generate."""
        return self.simple_system(r for r in self.subsystem_roots(roots) if self.is_positive(r))

    def check_pi_system(self, basis) -> list[int]:
        """The root indices of a pi-system basis, in its order.  ValueError
        unless every element is a root, no difference of two elements is a
        root and the elements are linearly independent."""
        basis = [tuple(b) for b in basis]
        indices = [self._index(b) for b in basis]
        for k, a in enumerate(basis):
            for b in basis[:k]:
                if tuple(x - y for x, y in zip(a, b)) in self.root_index:
                    raise ValueError(f"basis is not a pi-system: {a} - {b} is a root")
        if linalg.rank_int(basis) != len(basis):
            raise ValueError("basis is not a pi-system: its roots are linearly dependent")
        return indices

    def lowest_root_of_subsystem(self, basis) -> Root:
        """Lowest root -theta_B of the subsystem with the connected pi-system
        basis B, by one chamber walk on the integer pairing table.

        The walk starts at a root of B of greatest length and, while some b
        in B has <r, b^vee> < 0, replaces r by s_b(r) = r - <r, b^vee> b,
        which is higher by a positive multiple of b.  So the walk ends, and
        it ends at a long root of the subsystem that is dominant for B.
        The subsystem is irreducible (B is connected), and its highest root
        theta_B is its only dominant long root (Bourbaki, Lie groups and Lie
        algebras VI 1.8, Prop. 25).  ValueError unless B passes
        check_pi_system and is connected, which makes it a basis of the
        subsystem it spans (Dynkin).
        """
        basis = [tuple(b) for b in basis]
        pairs = [self._coroot_pairs[i] for i in self.check_pi_system(basis)]
        if len(self.components(basis)) != 1:
            raise ValueError("basis is not connected")
        r = max(basis, key=self.length2)
        while True:
            for b, p in zip(basis, pairs):
                c = sum(map(mul, r, p))
                if c < 0:
                    r = tuple(x - c * y for x, y in zip(r, b))
                    break
            else:
                return tuple(-x for x in r)

    # -- Dynkin types and Weyl orders ----------------------------------------

    def dynkin_type(self, basis) -> tuple[tuple[str, int], ...]:
        """Dynkin type of the subsystem with the given pi-system basis,
        as a sorted tuple of (letter, rank) component types."""
        return tuple(sorted(
            _identify_component(tuple(tuple(self.pairing(a, b) for b in comp) for a in comp))
            for comp in self.components(basis)
        ))

    def weyl_order(self, basis=None) -> int:
        """Order of the Weyl group of the subsystem (full group by default)."""
        if basis is None:
            return _WEYL_ORDERS[self.type_label](self.rank)
        order = 1
        for letter, rank in self.dynkin_type(basis):
            order *= _WEYL_ORDERS[letter](rank)
        return order

    def degrees(self) -> tuple[int, ...]:
        """Degrees of the basic invariants of W, ascending.  With n_k the
        number of positive roots of height k, the exponent k occurs
        n_k - n_{k+1} times, and its degree is k + 1 (Kostant, "The principal
        three-dimensional subgroup and the Betti numbers of a complex simple
        Lie group", Amer. J. Math. 81, 1959)."""
        n = Counter(sum(r) for r in self.positive_roots)
        return tuple(k + 1 for k in range(1, max(n) + 1) for _ in range(n[k] - n[k + 1]))

    # -- extended diagram -----------------------------------------------------

    def extended_basis(self) -> tuple[Root, ...]:
        """Nodes 0..l of the extended diagram: the lowest root, then Delta."""
        low = tuple(-c for c in self.highest_root)
        return (low,) + tuple(self.simple_root(i) for i in range(self.rank))

    def extended_cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        ext = self.extended_basis()
        return tuple(tuple(self.pairing(a, b) for b in ext) for a in ext)

    def extended_diagram_automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """All permutations of the extended-diagram nodes preserving the
        extended Cartan matrix."""
        if self._ext_autos is not None:
            return self._ext_autos
        a = self.extended_cartan_matrix()
        self._ext_autos = tuple(_isomorphisms(a, a))
        return self._ext_autos

    def describe(self) -> str:
        """Plain-text dump of the root system."""
        lines = [
            f"root system {self.type_label}{self.rank}",
            f"positive roots: {self.n_pos}",
            f"marks (node 0 = affine): {list(self.marks)}",
            f"highest root: {list(self.highest_root)}",
            "cartan matrix:",
        ]
        for row in self.cartan_matrix:
            lines.append("  " + " ".join(f"{x:3d}" for x in row))
        lines.append("positive roots by height:")
        for r in self.positive_roots:
            lines.append(f"  {list(r)}  (height {sum(r)})")
        return "\n".join(lines)


def root_count(type_label: str, rank: int) -> int:
    """The number of roots of the simple type, by its closed form; ValueError if invalid."""
    _validate_type(type_label, rank)
    return _ROOT_COUNTS[type_label](rank)


@lru_cache(maxsize=None)
def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Root system of the given simple type; raises ValueError if invalid."""
    return RootSystem(type_label, rank)


def parse_type(text: str) -> tuple[str, int]:
    """Parse a --type label like 'G2' or 'E8' into (letter, rank)."""
    text = text.strip().upper()
    if len(text) < 2 or not text[0].isalpha() or not text[1:].isdecimal():
        raise ValueError(
            f"cannot parse --type {text!r}; expected a letter and a rank in digits, "
            "e.g. 'G2', 'E8', 'A3'"
        )
    return text[0], int(text[1:])


@lru_cache(maxsize=None)
def _identify_component(m: tuple[tuple[int, ...], ...]) -> tuple[str, int]:
    """The simple type of a connected Cartan matrix, searched once per matrix.
    The isomorphism search runs only against a type with the same sorted
    off-diagonal rows, which a node permutation keeps."""
    k = len(m)
    rows = _off_diagonal_rows(m)
    for letter, (lo, hi) in _RANK_RANGES.items():
        if lo <= k <= (hi or k):
            a = cartan_matrix(letter, k)
            if _off_diagonal_rows(a) == rows and next(_isomorphisms(m, a), None) is not None:
                return (letter, k)
    raise ValueError(f"could not identify Cartan matrix {m}")


def _off_diagonal_rows(m) -> list[tuple[int, ...]]:
    """The sorted off-diagonal entries of each row, sorted."""
    return sorted(tuple(sorted(x for j, x in enumerate(row) if j != i)) for i, row in enumerate(m))


def _isomorphisms(m1, m2):
    """Every node permutation img with m1[i][j] == m2[img[i]][img[j]] for
    all i, j, in lexicographic order, by backtracking over the nodes; m1
    and m2 have the same size."""
    k = len(m1)
    img: list[int] = []

    def extend():
        i = len(img)
        if i == k:
            yield tuple(img)
            return
        for cand in range(k):
            if cand not in img and m1[i][i] == m2[cand][cand] and all(
                m1[i][j] == m2[cand][img[j]] and m1[j][i] == m2[img[j]][cand] for j in range(i)
            ):
                img.append(cand)
                yield from extend()
                img.pop()

    yield from extend()


def format_dynkin_type(types) -> str:
    """Render a component-type tuple like (('A', 1), ('A', 1), ('A', 2))
    as '2A1+A2'; the empty type renders as '0'."""
    types = list(types)
    if not types:
        return "0"
    out = []
    for (letter, rank), group in itertools.groupby(sorted(types)):
        count = len(list(group))
        name = f"{letter}{rank}"
        out.append(name if count == 1 else f"{count}{name}")
    return "+".join(out)
