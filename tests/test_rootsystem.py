import math
import random
from fractions import Fraction

import pytest

from nilorb import (
    build_algebra,
    build_root_system,
    classify_all,
    enumerate_kac_diagrams,
    format_dynkin_type,
    grading_from_kac,
    parse_type,
)
from nilorb.rootsystem import _RANK_RANGES, _identify_component, _off_diagonal_rows, cartan_matrix
from oracles import form_components, inner, is_root, lowest_root_by_height, root_string_positive_roots

# textbook G2 positive roots for the short-alpha_1 convention
G2_POSITIVE = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}

ROOT_COUNTS = {
    ("A", 1): 1,
    ("A", 2): 3,
    ("A", 4): 10,
    ("B", 2): 4,
    ("B", 3): 9,
    ("C", 3): 9,
    ("C", 4): 16,
    ("D", 4): 12,
    ("G", 2): 6,
    ("F", 4): 24,
    ("E", 6): 36,
    ("E", 7): 63,
    ("E", 8): 120,
}

TYPES_UP_TO_RANK_8 = [
    (letter, k) for letter, (lo, hi) in _RANK_RANGES.items() for k in range(lo, min(hi or 8, 8) + 1)
]


@pytest.mark.parametrize("label,rank", sorted(ROOT_COUNTS))
def test_positive_root_counts(label, rank):
    rs = build_root_system(label, rank)
    assert rs.n_pos == ROOT_COUNTS[(label, rank)]


CLOSURE_TYPES = (
    [("A", l) for l in range(1, 10)]
    + [("B", l) for l in range(2, 9)]
    + [("C", l) for l in range(3, 9)]
    + [("D", l) for l in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("label,rank", CLOSURE_TYPES)
def test_reflection_closure_matches_root_strings(label, rank):
    # values and order: roots are indexed by their place in this tuple
    rs = build_root_system(label, rank)
    assert rs.positive_roots == root_string_positive_roots(rs)


def test_g2_exact_roots_and_marks():
    rs = build_root_system("G", 2)
    assert set(rs.positive_roots) == G2_POSITIVE
    assert rs.highest_root == (3, 2)
    # node order gives (1, 3, 2) with alpha_1 short; the multiset is {1, 2, 3}
    assert sorted(rs.marks) == [1, 2, 3]


def test_a1_trivial():
    rs = build_root_system("A", 1)
    assert rs.positive_roots == ((1,),)
    assert rs.highest_root == (1,)


def test_marks_sum_is_coxeter_number():
    coxeter = {("A", 3): 4, ("B", 4): 8, ("D", 4): 6, ("G", 2): 6, ("F", 4): 12, ("E", 8): 30}
    for (label, rank), h in coxeter.items():
        rs = build_root_system(label, rank)
        assert sum(rs.marks) == h
        assert rs.marks[0] == 1
        assert rs.highest_root == tuple(rs.marks[1:])


@pytest.mark.parametrize(
    "label,rank", [("B", 1), ("C", 2), ("D", 3), ("E", 9), ("E", 5), ("F", 3), ("G", 3), ("X", 2)]
)
def test_invalid_types_rejected(label, rank):
    with pytest.raises(ValueError):
        build_root_system(label, rank)


def test_pairing_examples():
    g2 = build_root_system("G", 2)
    assert g2.pairing((1, 0), (1, 0)) == 2
    assert g2.pairing((1, 0), (0, 1)) == -1
    assert g2.pairing((0, 1), (1, 0)) == -3
    a2 = build_root_system("A", 2)
    assert a2.pairing((1, 1), (1, 0)) == 1


def test_pairing_rejects_non_root():
    a2 = build_root_system("A", 2)
    with pytest.raises(ValueError):
        a2.pairing((1, 0), (0, 0))


@pytest.mark.parametrize("lam", [(1, 0, 5), (1,)])
def test_weights_of_the_wrong_length_are_refused(lam):
    a2 = build_root_system("A", 2)
    with pytest.raises(ValueError, match="not rank 2"):
        a2.pairing(lam, (1, 0))
    with pytest.raises(ValueError, match="not rank 2"):
        a2.reflect(lam, (1, 0))


@pytest.mark.parametrize("label,rank", TYPES_UP_TO_RANK_8)
def test_integer_coroots_and_pairing_against_the_form(label, rank):
    # coroot_coords[i][j] = 2 r_j d_j / |r|^2, all integers, and the one
    # integer pairing equals 2 (lam, mu) / |mu|^2: an int for an integer
    # weight, a Fraction for a Fraction weight (a few weights against every
    # fifth root keeps the 31 types fast)
    rs = build_root_system(label, rank)
    for r, coroot in zip(rs.roots, rs.coroot_coords):
        assert all(type(c) is int for c in coroot)
        assert coroot == tuple(Fraction(2 * x * d, rs.length2(r)) for x, d in zip(r, rs.d))
    rng = random.Random(rank)
    ints = [rs.simple_root(0), rs.highest_root]
    ints += [tuple(rng.randint(-6, 6) for _ in range(rank)) for _ in range(2)]
    fracs = [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rank)) for _ in range(2)]
    for mu in rs.roots[::5]:
        for weights, kind in ((ints, int), (fracs, Fraction)):
            for lam in weights:
                value = rs.pairing(lam, mu)
                assert type(value) is kind
                assert value == Fraction(2 * inner(rs, lam, mu), rs.length2(mu))


def test_pairing_integral_on_roots():
    for label, rank in [("G", 2), ("F", 4), ("C", 3), ("D", 4)]:
        rs = build_root_system(label, rank)
        for a in rs.roots:
            for b in rs.roots:
                assert rs.pairing(a, b) == int(rs.pairing(a, b))


def test_bilinear_form_positive_definite():
    for label, rank in [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("F", 4), ("E", 6)]:
        rs = build_root_system(label, rank)
        b = [list(r) for r in rs.bilinear_form]
        for k in range(1, rank + 1):
            assert _det([row[:k] for row in b[:k]]) > 0


def _det(m):
    if len(m) == 1:
        return Fraction(m[0][0])
    out = Fraction(0)
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        out += (-1) ** j * m[0][j] * _det(minor)
    return out


def test_reflections_preserve_root_set():
    for label, rank in [("A", 2), ("B", 2), ("G", 2), ("C", 3), ("D", 4), ("F", 4)]:
        rs = build_root_system(label, rank)
        for alpha in rs.roots:
            for beta in rs.roots:
                assert is_root(rs, rs.reflect(beta, alpha))


def test_root_strings_match_cartan_integers():
    # q - p = -<beta, alpha^vee> for the alpha-string through beta
    for label, rank in [("A", 2), ("B", 2), ("G", 2), ("B", 3)]:
        rs = build_root_system(label, rank)
        for alpha in rs.roots:
            for beta in rs.roots:
                if beta in (alpha, tuple(-x for x in alpha)):
                    continue
                p = 0
                cur = tuple(b - a for a, b in zip(alpha, beta))
                while is_root(rs, cur):
                    p += 1
                    cur = tuple(c - a for a, c in zip(alpha, cur))
                q = 0
                cur = tuple(b + a for a, b in zip(alpha, beta))
                while is_root(rs, cur):
                    q += 1
                    cur = tuple(c + a for a, c in zip(alpha, cur))
                assert q - p == -rs.pairing(beta, alpha)


def test_lowest_root_examples():
    a2 = build_root_system("A", 2)
    assert a2.lowest_root_of_subsystem([(1, 0), (0, 1)]) == (-1, -1)
    assert a2.lowest_root_of_subsystem([(1, 1)]) == (-1, -1)
    g2 = build_root_system("G", 2)
    assert g2.lowest_root_of_subsystem([(1, 0), (0, 1)]) == (-3, -2)


def test_lowest_root_is_least_height_root_on_every_class_up_to_rank_6():
    # the chamber walk starts at a long root; B, C, G2 and F4 have two
    # root lengths, and the components of their classes have either
    checked = 0
    for label, rank in TYPES_UP_TO_RANK_8:
        if rank > 6:
            continue
        rs = build_root_system(label, rank)
        for pi in classify_all(rs):
            comps = rs.components(pi)
            assert sorted(map(sorted, comps)) == sorted(map(sorted, form_components(rs, pi))), pi
            for comp in comps:
                assert rs.lowest_root_of_subsystem(comp) == lowest_root_by_height(rs, comp), comp
                checked += 1
    assert checked == 826


def test_components_refuse_a_vector_that_is_not_a_root():
    a2 = build_root_system("A", 2)
    with pytest.raises(ValueError, match="not a root"):
        a2.components([(1, 0), (2, 0)])


def test_lowest_root_rejects_bad_input():
    a2 = build_root_system("A", 2)
    with pytest.raises(ValueError):
        a2.lowest_root_of_subsystem([(1, 0), (-1, 0)])  # dependent
    a3 = build_root_system("A", 3)
    with pytest.raises(ValueError):
        a3.lowest_root_of_subsystem([(1, 0, 0), (0, 0, 1)])  # disconnected
    with pytest.raises(ValueError, match="not a pi-system"):
        # independent and connected, but (1, 1) - (1, 0) is a root
        a2.lowest_root_of_subsystem([(1, 0), (1, 1)])
    with pytest.raises(ValueError, match="not a root"):
        a2.lowest_root_of_subsystem([(1, 0), (2, 1)])


def test_dynkin_type_recognition():
    f4 = build_root_system("F", 4)
    delta = [f4.simple_root(i) for i in range(4)]
    assert f4.dynkin_type(delta) == (("F", 4),)
    d4 = build_root_system("D", 4)
    assert d4.dynkin_type([d4.simple_root(i) for i in range(4)]) == (("D", 4),)
    b3 = build_root_system("B", 3)
    assert b3.dynkin_type([b3.simple_root(i) for i in range(3)]) == (("B", 3),)
    e6 = build_root_system("E", 6)
    assert e6.dynkin_type([e6.simple_root(i) for i in range(6)]) == (("E", 6),)
    assert format_dynkin_type((("A", 1), ("A", 4), ("A", 4))) == "A1+2A4"
    assert format_dynkin_type(()) == "0"


# number of roots of a simple type of rank k
TYPE_ROOTS = {
    "A": lambda k: k * (k + 1), "B": lambda k: 2 * k * k, "C": lambda k: 2 * k * k,
    "D": lambda k: 2 * k * (k - 1), "E": {6: 72, 7: 126, 8: 240}.get, "F": lambda k: 48,
    "G": lambda k: 12,
}


@pytest.mark.parametrize("label,rank", [("G", 2), ("F", 4), ("E", 6), ("E", 7)])
def test_dynkin_type_of_every_delta0_is_the_uncached_search(label, rank):
    # the type memoised per Cartan matrix is that of a fresh search on every
    # Delta_0 of orders 2-4, and its ranks and root counts add up to those
    # of Delta_0 and of the degree-0 roots
    rs = build_root_system(label, rank)
    alg = build_algebra(rs)
    for m in (2, 3, 4):
        for kd in enumerate_kac_diagrams(rs, m):
            g = grading_from_kac(alg, kd)
            types = rs.dynkin_type(g.delta0)
            fresh = [
                _identify_component.__wrapped__([[rs.pairing(a, b) for b in c] for a in c])
                for c in rs.components(g.delta0)
            ]
            assert types == tuple(sorted(fresh)), kd.labels
            assert sum(k for _, k in types) == len(g.delta0)
            assert sum(TYPE_ROOTS[letter](k) for letter, k in types) == len(g.phi0)
            assert rs.dynkin_type(g.delta0) == types  # the cached answer again


def test_every_type_up_to_rank_8_identifies_its_own_cartan_matrix():
    # the off-diagonal invariant must not reject the matching type, in
    # Bourbaki order or with the nodes reversed, and tells B_k from C_k
    # before any isomorphism search
    identify = _identify_component.__wrapped__
    checked = 0
    for letter, k in TYPES_UP_TO_RANK_8:
        a = cartan_matrix(letter, k)
        assert identify(tuple(map(tuple, a))) == (letter, k)
        flipped = tuple(tuple(row[::-1]) for row in a[::-1])
        assert identify(flipped) == (letter, k)
        checked += 1
    assert checked == 8 + 7 + 6 + 5 + 3 + 1 + 1
    for k in range(3, 9):
        assert _off_diagonal_rows(cartan_matrix("B", k)) != _off_diagonal_rows(cartan_matrix("C", k))


def test_weyl_orders():
    assert build_root_system("G", 2).weyl_order() == 12
    assert build_root_system("F", 4).weyl_order() == 1152
    assert build_root_system("E", 8).weyl_order() == 696729600
    assert build_root_system("A", 3).weyl_order() == 24
    b2 = build_root_system("B", 2)
    assert b2.weyl_order([(1, 0)]) == 2


@pytest.mark.parametrize("label,rank", sorted(ROOT_COUNTS))
def test_degrees_multiply_to_the_weyl_order(label, rank):
    # prod d_i = |W| and sum (d_i - 1) = #positive roots (Chevalley)
    rs = build_root_system(label, rank)
    degrees = rs.degrees()
    assert len(degrees) == rank and list(degrees) == sorted(degrees)
    assert math.prod(degrees) == rs.weyl_order()
    assert sum(d - 1 for d in degrees) == rs.n_pos


def test_extended_diagram_automorphisms():
    counts = {("A", 1): 2, ("A", 3): 8, ("E", 6): 6, ("E", 7): 2, ("E", 8): 1, ("G", 2): 1, ("F", 4): 1, ("D", 4): 24}
    for (label, rank), n in counts.items():
        rs = build_root_system(label, rank)
        assert len(rs.extended_diagram_automorphisms()) == n


def test_parse_type():
    assert parse_type("G2") == ("G", 2)
    assert parse_type("e8") == ("E", 8)
    for text in ("42", "Gx", "G2.5", "G-2", "G 2"):
        with pytest.raises(ValueError, match="--type"):
            parse_type(text)


@pytest.mark.parametrize("label,rank", sorted(ROOT_COUNTS))
def test_simple_indices_index_the_simple_roots(label, rank):
    rs = build_root_system(label, rank)
    assert rs.simple_indices == tuple(rs.root_index[rs.simple_root(i)] for i in range(rank))


@pytest.mark.parametrize("label,rank", [("B", 3), ("F", 4), ("E", 6)])
def test_simple_system_of_a_subsystem_is_its_pi_system(label, rank):
    # the simple system of the subsystem a pi-system spans is a pi-system
    # of the same type that spans the same subsystem
    rs = build_root_system(label, rank)
    for pi in classify_all(rs):
        closure = rs.subsystem_roots(pi)
        basis = rs.simple_system(r for r in closure if rs.is_positive(r))
        assert len(basis) == len(pi)
        assert rs.dynkin_type(basis) == rs.dynkin_type(pi)
        assert rs.subsystem_roots(basis) == closure
