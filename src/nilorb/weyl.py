"""Weyl group elements, minimal coset representatives, and conjugacy tests.

Elements act as permutations of the full root list; act_weight maps a weight
lam to sum_j lam_j w(alpha_j), reading w(alpha_j) off the permutation.  A
permutation is a `bytes` object of root indices (E8 has 240 roots), so
composing two is one `bytes.translate`; elements, coset enumeration and the
conjugacy tests all use this one format, and a type with more than 256 roots
is rejected with a ValueError.  A reduced word is `bytes` too, one
simple-root index per letter, so the cyclic garbage collector tracks
neither.  Equality is equality of the root permutation; words are kept for
display but are not canonical.  An element is also determined by the l bytes
of its simple-root images: shortest_coset_reps keys each level on
w(alpha_i), and the coset sweep keys the images of h on w^-1(alpha_i), which
an element computes once and keeps (inverse_simple_images).

Conjugacy rests on one chamber walk (_dominant_perm): each root in turn is
reflected into the chamber of the basis roots that fix the images already
placed.  conjugacy_key keeps the least image sequence over the orderings of
a sequence of root sets, found block by block by one search (_place) on
sorted bytes of images, moved by bytes.translate.  The search of a first
block that other blocks follow is kept per root system, subgroup basis and
block (_first_block): the carrier class search keys many (pi0, pi1) with
one of a few pi0.  So classifying n items takes n keys and one dict;
conjugacy_classes is the one class search, expanding only the first item of
each class through moves that commute with the subgroup and may read its
stabiliser.  conjugate_tuples (each root its own block) and conjugate_sets
compare the keys of one search, and return p2^-1 p1 for the elements p1, p2
that the two searches end with.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from .rootsystem import RootSystem, root_count


_IDENTITY = bytes(range(256))
_BYTE = tuple(bytes((k,)) for k in range(256))


def _compose(p: bytes, q: bytes) -> bytes:
    """The permutation k -> p[q[k]]."""
    return q.translate(p.ljust(256, b"\0"))


def check_root_count(type_label: str, rank: int) -> None:
    """Raise ValueError when the simple type has more roots than a bytes permutation holds."""
    n = root_count(type_label, rank)
    if n > 256:
        raise ValueError(
            f"{type_label}{rank} has {n} roots; Weyl group permutations support at most 256 roots"
        )


def _inverse(p: bytes) -> bytes:
    inv = bytearray(len(p))
    for k, x in enumerate(p):
        inv[x] = k
    return bytes(inv)


@lru_cache(maxsize=None)
def _simple_perm_table(rs: RootSystem) -> tuple[bytes, ...]:
    """Permutations of rs.roots induced by the simple reflections."""
    return tuple(_reflection_row(rs, k) for k in rs.simple_indices)


class WeylElement:
    """A Weyl group element; the word, bytes i1..ik, denotes s_{i1} o ... o s_{ik}."""

    __slots__ = ("rs", "perm", "word", "_inverse_simples")

    def __init__(self, rs: RootSystem, perm: bytes, word: bytes):
        self.rs = rs
        self.perm = perm
        self.word = word
        self._inverse_simples = None

    @staticmethod
    def from_perm(rs: RootSystem, perm: bytes) -> "WeylElement":
        """The element with the given root permutation, with its
        lexicographically least reduced word, read off by left descents:
        l(s_i w) < l(w) exactly when w^{-1}(alpha_i) is negative, so the
        word starts with the least such i and goes on with s_i w."""
        simples = _simple_perm_table(rs)
        inv = _inverse(perm)
        word = bytearray()
        while True:
            for i, k in enumerate(rs.simple_indices):
                if inv[k] >= rs.n_pos:
                    word.append(i)
                    inv = _compose(inv, simples[i])
                    break
            else:
                return WeylElement(rs, perm, bytes(word))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.rs, _compose(self.perm, other.perm), self.word + other.word)

    def inverse(self) -> "WeylElement":
        return WeylElement(self.rs, _inverse(self.perm), self.word[::-1])

    def inverse_simple_images(self) -> bytes:
        """The root indices of w^-1(alpha_1)..w^-1(alpha_l), one byte each,
        computed on the first call and kept."""
        if self._inverse_simples is None:
            self._inverse_simples = bytes(self.rs.simple_indices).translate(
                bytes.maketrans(self.perm, _IDENTITY[: len(self.perm)])
            )
        return self._inverse_simples

    def length(self) -> int:
        """Number of positive roots sent to negative roots."""
        n = self.rs.n_pos
        # deleting the indices below n leaves the negative images
        return len(self.perm[:n].translate(None, bytes(range(n))))

    def act_weight(self, lam):
        """Exact image sum_j lam_j w(alpha_j) of a weight vector in
        simple-root coordinates, with w(alpha_j) read off the permutation."""
        rs = self.rs
        rs.check_weight(lam)
        images = [rs.roots[self.perm[k]] for k in rs.simple_indices]
        return tuple(sum(c * img[i] for c, img in zip(lam, images) if c) for i in range(rs.rank))

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and self.rs is other.rs and self.perm == other.perm

    def __hash__(self) -> int:
        return hash(self.perm)

    def __repr__(self) -> str:
        return f"WeylElement(word={''.join(f's{i}' for i in self.word) or 'e'})"


class WeylSubgroup:
    """Weyl subgroup given by a pi-system basis of positive roots."""

    __slots__ = ("rs", "basis", "basis_indices")

    def __init__(self, rs: RootSystem, basis):
        check_root_count(rs.type_label, rs.rank)
        basis = tuple(tuple(b) for b in basis)
        indices = tuple(rs.check_pi_system(basis))
        for b, i in zip(basis, indices):
            if i >= rs.n_pos:
                raise ValueError(f"subgroup basis root {b} is not positive")
        self.rs = rs
        self.basis = basis
        self.basis_indices = indices

    def __repr__(self) -> str:
        return f"WeylSubgroup(basis={list(self.basis)})"


def shortest_coset_reps(rs: RootSystem, sub: WeylSubgroup) -> list[WeylElement]:
    """Minimal-length representatives of the right cosets of the subgroup,
    by length and then by word; each word is the element's
    lexicographically least reduced word.

    w is the minimal element of its coset exactly when w^{-1}(beta_j) > 0
    for every basis root beta_j.  The representatives are grown level by
    level, and a representative w is extended to w*s_i exactly when
    w(alpha_i) is neither a negative root nor a basis root: one lookup.
    For w(alpha_i) > 0 means l(w s_i) > l(w), and (w s_i)^{-1}(beta_j) =
    s_i(w^{-1} beta_j) is negative only when w^{-1} beta_j = alpha_i,
    because s_i permutes the positive roots other than alpha_i.  Nothing
    here needs the basis roots to be simple.  Every representative v != 1
    is reached: for s_i with l(v s_i) < l(v), u = v s_i is a
    representative, since v(alpha_i) < 0 is no basis root, and u(alpha_i)
    = -v(alpha_i) passes the test.

    Each level keeps the first (w, i) that reaches an element, scanning the
    previous level in order and i upwards.  By induction on the length that
    is the element's least reduced word, and the level comes out sorted by
    it.

    A level is keyed on the images w(alpha_1)..w(alpha_l), which determine
    w.  Since (w s_i)(alpha_j) = w(s_i alpha_j), the key of w s_i is the
    fixed string s_i(alpha_1)..s_i(alpha_l) mapped through w, one
    translate; the full permutation of w s_i is built only for a new key.
    The key of w, mapped through the blocked mask, also gives the letters
    i that extend w, looked up per mask.
    """
    simples = _simple_perm_table(rs)
    simple_bytes = bytes(rs.simple_indices)
    picks = [simple_bytes.translate(s.ljust(256, b"\0")) for s in simples]
    # w(alpha_i) is blocked when l(w s_i) < l(w) or w s_i leaves the coset condition
    blocked = bytearray(256)
    blocked[rs.n_pos : len(rs.roots)] = b"\1" * rs.n_pos
    for b in sub.basis:
        blocked[rs.root_index[b]] = 1
    blocked = bytes(blocked)
    letters: dict[bytes, tuple[int, ...]] = {}  # blocked mask of a key -> open letters
    reps: list[WeylElement] = []
    level = {simple_bytes: (bytes(range(len(rs.roots))), b"")}  # key -> (perm, word)
    while level:
        nxt = {}
        for key, (perm, word) in level.items():
            reps.append(WeylElement(rs, perm, word))
            mask = key.translate(blocked)
            open_letters = letters.get(mask)
            if open_letters is None:
                open_letters = letters[mask] = tuple(i for i, x in enumerate(mask) if not x)
            table = perm.ljust(256, b"\0")  # _compose(perm, .)
            for i in open_letters:
                new_key = picks[i].translate(table)
                if new_key not in nxt:
                    nxt[new_key] = (simples[i].translate(table), word + _BYTE[i])
        level = nxt
    return reps


def to_subdominant(rs: RootSystem, sub: WeylSubgroup, mu) -> tuple[tuple, WeylElement]:
    """The unique subgroup-dominant representative of the orbit of mu.

    Returns (lam, w) with w(mu) = lam and <lam, beta_i^vee> >= 0 for every
    basis root, reflecting at the smallest violating index until none is left.
    """
    rs.check_weight(mu)
    mu = tuple(mu)
    perm = bytes(range(len(rs.roots)))
    while True:
        for beta in sub.basis:
            if rs.pairing(mu, beta) < 0:
                mu = rs.reflect(mu, beta)
                perm = _compose(_reflection_row(rs, rs.root_index[beta]), perm)
                break
        else:
            return mu, WeylElement.from_perm(rs, perm)


@lru_cache(maxsize=None)
def _coroot_column(rs: RootSystem, j: int) -> tuple[int, ...]:
    """<roots[i], roots[j]^vee> for every root index i."""
    root = rs.roots[j]
    return tuple(rs.pairing(r, root) for r in rs.roots)


@lru_cache(maxsize=None)
def _reflection_row(rs: RootSystem, j: int) -> bytes:
    """The reflection in roots[j] as a permutation of root indices."""
    check_root_count(rs.type_label, rs.rank)
    root = rs.roots[j]
    return bytes(
        rs.root_index[tuple(x - c * y for x, y in zip(r, root))]
        for r, c in zip(rs.roots, _coroot_column(rs, j))
    )


def dominant_values(rs: RootSystem, basis, values) -> list:
    """The values of the image of h in the chamber of the pi-system `basis`
    (root indices), from values[i] = alpha_i(h) for every root: while some
    basis root has a negative value, the reflection s in the first such one
    permutes the vector, since alpha(s h) = (s alpha)(h).  The carrier walk
    canonicalises in the chamber of Delta_0 with it."""
    rows = [_reflection_row(rs, b) for b in basis]
    i = 0
    while i < len(basis):
        if values[basis[i]] < 0:
            values = [values[k] for k in rows[i]]
            i = 0
        else:
            i += 1
    return values


def dominant_simple_values(rs: RootSystem, values) -> list[int]:
    """The simple-root values of the dominant Weyl conjugate of h, from c_i =
    alpha_i(h): while some c_i is negative, the reflection in the first such
    alpha_i sends each c_j to c_j - A[j][i] c_i, A[j][i] = <alpha_j, alpha_i^vee>."""
    while True:
        for i, c in enumerate(values):
            if c < 0:
                values = [x - c * row[i] for x, row in zip(values, rs.cartan_matrix)]
                break
        else:
            return values


@lru_cache(maxsize=None)
def _dominant_perm(rs: RootSystem, basis: tuple[int, ...], i: int) -> tuple[int, bytes]:
    """The image of roots[i] in the chamber of the pi-system `basis` (root
    indices) and the product of the reflections that take it there, as a
    256-byte translate table that fixes the bytes past the roots; the same
    smallest-violating-index rule as to_subdominant."""
    perm = _IDENTITY
    while True:
        for b in basis:
            if _coroot_column(rs, b)[i] < 0:
                row = _reflection_row(rs, b)
                i = row[i]
                perm = perm.translate(row + _IDENTITY[len(row) :])
                break
        else:
            return i, perm


@lru_cache(maxsize=None)
def _stabiliser(rs: RootSystem, basis: tuple[int, ...], lam: int) -> tuple[int, ...]:
    """The roots of `basis` orthogonal to roots[lam]: for lam dominant, the
    basis of its stabiliser, a parabolic subgroup (Humphreys, Reflection
    Groups and Coxeter Groups, 1.12)."""
    return tuple(b for b in basis if _coroot_column(rs, b)[lam] == 0)


def _place(rs: RootSystem, basis: tuple[int, ...], states, merge: bool):
    """Place the roots of one block, least image first.

    A state is (images, perm): the sorted bytes of the current images of
    the block's roots not placed yet, and the subgroup element applied so
    far (a 256-byte table).  All states share the images placed so far,
    hence the stabiliser basis.  Each step takes the least dominant image
    over every state and root, and moves each tied state by the reflections
    that reach it.  The states left are merged on their images when
    `merge` (nothing follows the block), and otherwise kept apart by their
    element, which also images the blocks still to come.  Returns the
    images placed, the basis left, and the elements of the end states.
    """
    lams = []
    while states[0][0]:
        best, hits = 256, []
        for images, perm in states:
            for img in images:
                lam, q = _dominant_perm(rs, basis, img)
                if lam < best:
                    best, hits = lam, []
                if lam == best:
                    hits.append((images, perm, img, q))
        merged = {}
        for images, perm, img, q in hits:
            rest, perm = bytes(sorted(images.translate(q, _BYTE[img]))), perm.translate(q)
            merged.setdefault(rest if merge else perm, (rest, perm))
        states = list(merged.values())
        lams.append(best)
        basis = _stabiliser(rs, basis, best)
    return tuple(lams), basis, tuple(perm for _, perm in states)


@lru_cache(maxsize=None)
def _first_block(rs: RootSystem, basis: tuple[int, ...], block: bytes):
    """_place of a first block that other blocks follow, kept per root
    system, subgroup basis and block: the carrier class search keys many
    (pi0, pi1) with the same pi0."""
    return _place(rs, basis, [(block, _IDENTITY)], merge=False)


def _least_images(rs: RootSystem, sub: WeylSubgroup, blocks) -> tuple[tuple, bytes, tuple]:
    """The conjugacy key of `blocks` (see conjugacy_key), an element p of
    the subgroup, as a 256-byte table, that sends each block onto the set of
    its images in the key, and the basis (root indices) of the subgroup
    that fixes those images pointwise."""
    index, sets = rs.root_index, []
    for k, block in enumerate(blocks):
        try:
            block = bytes(sorted({index[tuple(r)] for r in block}))
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]} is not a root of {rs!r}") from None
        if block:
            sets.append((k, block))
    basis = sub.basis_indices
    key, perms = [], (_IDENTITY,)
    for n, (k, block) in enumerate(sets):
        if n == 0 and len(sets) > 1:
            lams, basis, perms = _first_block(rs, basis, block)
        else:
            # each element so far images the block; on a last block equal
            # images merge
            last = n == len(sets) - 1
            states = {}
            for perm in perms:
                images = bytes(sorted(block.translate(perm)))
                states.setdefault(images if last else perm, (images, perm))
            lams, basis, perms = _place(rs, basis, list(states.values()), last)
        key += [(k, lam) for lam in lams]
    return tuple(key), perms[0], basis


def conjugacy_key(rs: RootSystem, sub: WeylSubgroup, blocks) -> tuple:
    """A key equal for two sequences of root sets exactly when one element
    of the subgroup maps each set onto the corresponding set of the other.

    The key is the lexicographically least sequence of pairs (block
    number, root index of lam_k) over the orderings of the roots that keep
    the block order: lam_1 is the subgroup-dominant image of the first root,
    and each later lam_k is the image of the k-th root, under the element
    already chosen, made dominant for the stabiliser of lam_1..lam_{k-1}.
    Those stabilisers are parabolic: the basis roots orthogonal to the
    dominant lam (Humphreys, Reflection Groups and Coxeter Groups, 1.12).
    Ties branch (see _place).  A root repeated in a set counts once.
    """
    return _least_images(rs, sub, blocks)[0]


def conjugacy_classes(
    rs: RootSystem, sub: WeylSubgroup, items, blocks=lambda x: (x,), moves=lambda x, orbit: ()
) -> list:
    """The first item met in each subgroup-conjugacy class; `blocks` gives
    the root sets of an item (one set by default).

    The search is breadth-first from `items`: an item equal to one already
    met is skipped, the rest are keyed, and only the first item of each
    class is expanded, as moves(item, orbit).  When the moves commute with
    the subgroup, the moves of a class member are conjugate to those of its
    representative, so this reaches every class the full closure reaches.
    With no moves it is the first of the items per class, in input order.

    A move may read the representative's stabiliser: orbit(i) labels
    roots[i] by the dominant image of p(roots[i]) for W_B, where p (from
    _least_images) sends the item's roots onto their key images and the
    parabolic W_B fixes those pointwise.  Roots with one label are
    conjugate under p^-1 W_B p, which fixes every root of the item.
    """
    reps: dict = {}
    met = set()
    queue = deque(items)
    while queue:
        item = queue.popleft()
        if item in met:
            continue
        met.add(item)
        key, perm, basis = _least_images(rs, sub, blocks(item))
        if key not in reps:
            reps[key] = item
            queue.extend(moves(item, lambda i: _dominant_perm(rs, basis, perm[i])[0]))
    return list(reps.values())


def _conjugator(rs: RootSystem, sub: WeylSubgroup, blocks1, blocks2) -> WeylElement | None:
    """p2^-1 p1 when the two sequences of root sets have equal keys, where
    p_k is the element of _least_images that sends each set of blocks_k
    onto its images in the key; else None."""
    key1, p1, _ = _least_images(rs, sub, blocks1)
    key2, p2, _ = _least_images(rs, sub, blocks2)
    if key1 != key2:
        return None
    n = len(rs.roots)
    return WeylElement.from_perm(rs, _compose(_inverse(p2[:n]), p1[:n]))


def conjugate_tuples(rs: RootSystem, sub: WeylSubgroup, mus, lams) -> WeylElement | None:
    """An element w of the subgroup with w(mu_k) = lam_k for every k, or
    None; the mu_k and lam_k are roots.

    Each root is its own block, so the keys of the two tuples agree exactly
    when one element of the subgroup sends every mu_k to lam_k.
    """
    blocks1, blocks2 = [(m,) for m in mus], [(x,) for x in lams]
    if len(blocks1) != len(blocks2):
        raise ValueError("tuples must have equal length")
    return _conjugator(rs, sub, blocks1, blocks2)


def conjugate_sets(rs: RootSystem, sub: WeylSubgroup, gamma1, gamma2) -> WeylElement | None:
    """An element w of the subgroup with w(Gamma1) = Gamma2 as sets of
    roots, or None: equal conjugacy keys decide it, and w is read off the
    elements of the two searches."""
    gamma1, gamma2 = list(gamma1), list(gamma2)
    if len(gamma1) != len(gamma2):
        raise ValueError("sets must have equal size")
    return _conjugator(rs, sub, (gamma1,), (gamma2,))
