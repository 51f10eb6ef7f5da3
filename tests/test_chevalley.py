import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilorb import (
    LieElement,
    Sl2Triple,
    build_algebra,
    build_root_system,
    classify_nilpotent_g,
    decide_normal,
    orbit_dimension,
    trivial_grading,
)

from oracles import (
    ad_matrix,
    is_nilpotent,
    killing_form,
    n_const,
    reference_bracket,
    reference_complete_sl2,
    reference_structure_constants,
    root_value,
)

A1 = build_algebra(build_root_system("A", 1))
A2 = build_algebra(build_root_system("A", 2))
A3 = build_algebra(build_root_system("A", 3))
B2 = build_algebra(build_root_system("B", 2))
G2 = build_algebra(build_root_system("G", 2))


def jacobi_holds(alg, triples):
    for i, j, k in triples:
        xi, xj, xk = alg.basis_element(i), alg.basis_element(j), alg.basis_element(k)
        s = (
            alg.bracket(xi, alg.bracket(xj, xk))
            + alg.bracket(xj, alg.bracket(xk, xi))
            + alg.bracket(xk, alg.bracket(xi, xj))
        )
        if not s.is_zero():
            return False
    return True


def all_triples(alg):
    return [
        (i, j, k)
        for i in range(alg.dim)
        for j in range(i + 1, alg.dim)
        for k in range(j + 1, alg.dim)
    ]


@pytest.mark.parametrize("alg", [A1, A2, B2, G2, A3])
def test_jacobi_exhaustive_small(alg):
    assert jacobi_holds(alg, all_triples(alg))


def test_a1_is_sl2():
    h, e, f = A1.cartan([1]), A1.root_vector((1,)), A1.root_vector((-1,))
    assert A1.bracket(h, e) == e.scale(2)
    assert A1.bracket(h, f) == f.scale(-2)
    assert A1.bracket(e, f) == h


def test_structure_constant_magnitudes():
    i, j = A2.rs.root_index[(1, 0)], A2.rs.root_index[(0, 1)]
    assert abs(n_const(A2, i, j)) == 1
    i, j = G2.rs.root_index[(1, 0)], G2.rs.root_index[(1, 1)]
    assert abs(n_const(G2, i, j)) == 2
    i, j = G2.rs.root_index[(1, 1)], G2.rs.root_index[(2, 1)]
    assert abs(n_const(G2, i, j)) == 3


def test_extraspecial_pairs_positive():
    # the first special pair of each positive root gets the +(p+1) sign
    rs = G2.rs
    order = {r: k for k, r in enumerate(rs.positive_roots)}
    for rho in rs.positive_roots:
        if sum(rho) < 2:
            continue
        pairs = [
            (a, tuple(r - x for r, x in zip(rho, a)))
            for a in rs.positive_roots
            if tuple(r - x for r, x in zip(rho, a)) in rs.root_index
        ]
        pairs = [(a, b) for a, b in pairs if rs.is_positive(b) and order[a] < order[b]]
        a, b = min(pairs, key=lambda p: order[p[0]])
        assert n_const(G2, rs.root_index[a], rs.root_index[b]) > 0


def test_constants_integral():
    for alg in (A3, B2, G2):
        assert all(isinstance(n, int) for _, n in alg.structure_constants.values())


REFERENCE_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 8)]
    + [("C", r) for r in range(3, 8)]
    + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("typ,rank", REFERENCE_TYPES)
def test_structure_constants_match_reference_table(typ, rank):
    # the one-pass table equals, entry for entry, the table built through
    # the recursive sign normaliser and the all-pairs expansion
    alg = build_algebra(build_root_system(typ, rank))
    assert alg.structure_constants == reference_structure_constants(alg)


def test_cartan_brackets():
    # [h_i, x_alpha] = <alpha, alpha_i^vee> x_alpha
    for alg in (A2, G2):
        for i in range(alg.rs.rank):
            h = alg.cartan([1 if j == i else 0 for j in range(alg.rs.rank)])
            for r in alg.rs.roots:
                x = alg.root_vector(r)
                expect = x.scale(alg.rs.pairing(r, alg.rs.simple_root(i)))
                assert alg.bracket(h, x) == expect


def test_opposite_root_brackets_give_coroots():
    for alg in (A2, B2, G2):
        for r in alg.rs.roots:
            x, y = alg.root_vector(r), alg.root_vector(tuple(-c for c in r))
            assert alg.bracket(x, y) == alg.coroot(r)
            # sl2 relations of the standard triple of the root
            assert alg.bracket(alg.coroot(r), x) == x.scale(2)


def test_killing_form_values():
    h = A1.cartan([1])
    e, f = A1.root_vector((1,)), A1.root_vector((-1,))
    assert killing_form(A1, h, h) == 8
    assert killing_form(A1, e, e) == 0
    for alg in (A2, G2):
        for r in alg.rs.positive_roots:
            x, y = alg.root_vector(r), alg.root_vector(tuple(-c for c in r))
            assert killing_form(alg, x, x) == 0
            assert killing_form(alg, x, y) != 0


def test_killing_form_invariance_sampled():
    rng = random.Random(11)
    for _ in range(40):
        i, j, k = (rng.randrange(G2.dim) for _ in range(3))
        x, y, z = (G2.basis_element(t) for t in (i, j, k))
        assert killing_form(G2, x, G2.bracket(y, z)) == killing_form(G2, G2.bracket(x, y), z)


def defining_rep(alg):
    """Matrices of the basis of an A_{n-1} algebra in the defining rep,
    extended from the simple generators through the bracket recursion."""
    rs = alg.rs
    n = rs.rank + 1

    def unit(i, j):
        m = [[Fraction(0)] * n for _ in range(n)]
        m[i][j] = Fraction(1)
        return m

    def mat_bracket(a, b):
        ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        ba = [[sum(b[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]

    rep = {}
    for i in range(rs.rank):
        rep[rs.root_index[rs.simple_root(i)]] = unit(i, i + 1)
        rep[rs.root_index[tuple(-c for c in rs.simple_root(i))]] = unit(i + 1, i)
    order = {r: k for k, r in enumerate(rs.positive_roots)}
    for rho in rs.positive_roots:
        if sum(rho) < 2:
            continue
        for a in rs.positive_roots:
            b = tuple(r - x for r, x in zip(rho, a))
            if b in rs.root_index and rs.is_positive(b) and order[a] < order[b]:
                ia, ib, irho = rs.root_index[a], rs.root_index[b], rs.root_index[rho]
                nval = n_const(alg, ia, ib)
                rep[irho] = [
                    [x / nval for x in row] for row in mat_bracket(rep[ia], rep[ib])
                ]
                ja, jb = rs.root_index[tuple(-c for c in a)], rs.root_index[tuple(-c for c in b)]
                jrho = rs.root_index[tuple(-c for c in rho)]
                nneg = n_const(alg, ja, jb)
                rep[jrho] = [
                    [x / nneg for x in row] for row in mat_bracket(rep[ja], rep[jb])
                ]
                break
    for i in range(rs.rank):
        m = [[Fraction(0)] * n for _ in range(n)]
        m[i][i], m[i + 1][i + 1] = Fraction(1), Fraction(-1)
        rep[len(rs.roots) + i] = m

    def matrix_of(x):
        out = [[Fraction(0)] * n for _ in range(n)]
        for k, c in x.coeffs.items():
            for a in range(n):
                for b in range(n):
                    out[a][b] += c * rep[k][a][b]
        return out

    return matrix_of


def matrix_nilpotent(m):
    n = len(m)
    power = m
    for _ in range(n):
        power = [[sum(power[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return all(all(x == 0 for x in row) for row in power)


@pytest.mark.parametrize("alg", [A1, A2, A3])
def test_is_nilpotent_matches_defining_representation(alg):
    matrix_of = defining_rep(alg)
    rng = random.Random(alg.dim)
    # the rep is a homomorphism on our basis: spot-check brackets
    for _ in range(20):
        i, j = rng.randrange(alg.dim), rng.randrange(alg.dim)
        x, y = alg.basis_element(i), alg.basis_element(j)
        lhs = matrix_of(alg.bracket(x, y))
        a, b = matrix_of(x), matrix_of(y)
        n = len(a)
        rhs = [
            [
                sum(a[r][k] * b[k][c] - b[r][k] * a[k][c] for k in range(n))
                for c in range(n)
            ]
            for r in range(n)
        ]
        assert lhs == rhs
    samples = [alg.zero(), alg.cartan([1] * alg.rs.rank), alg.root_vector(alg.rs.positive_roots[-1])]
    for _ in range(15):
        coeffs = {rng.randrange(alg.dim): rng.randint(-2, 2) for _ in range(3)}
        from nilorb.chevalley import LieElement

        samples.append(LieElement(alg, coeffs))
    for x in samples:
        assert is_nilpotent(alg, x) == matrix_nilpotent(matrix_of(x))


def test_is_nilpotent_examples():
    assert is_nilpotent(A1, A1.zero())
    assert not is_nilpotent(A1, A1.cartan([1]))
    e, f = A1.root_vector((1,)), A1.root_vector((-1,))
    assert is_nilpotent(A1, e)
    assert not is_nilpotent(A1, e + f)  # semisimple, conjugate to the Cartan


def a1_triples():
    """The standard triple of A1, and its image (h - 2e, e, f + h - e) under
    exp(ad e), whose h has a root part."""
    h, e, f = A1.cartan([1]), A1.root_vector((1,)), A1.root_vector((-1,))
    return (h, e, f), (h - e.scale(2), e, f + h - e)


def test_check_accepts_a_triple_with_a_non_cartan_h():
    standard, moved = a1_triples()
    assert not moved[0].is_cartan()
    for h, e, f in (standard, moved):
        Sl2Triple(h, e, f).check()
        Sl2Triple(h, e.scale(Fraction(1, 3)), f.scale(3)).check()


def perturbed_triples():
    (h, e, f), (h1, e1, f1) = a1_triples()
    return [
        ("sl2 triple with e = 0", (h, A1.zero(), f)),
        ("[h,e] != 2e", (h, e + f, f)),
        ("[h,f] != -2f", (h, e, f + e.scale(Fraction(1, 2)))),
        ("[e,f] != h", (h1, e1, f1.scale(Fraction(1, 3)))),  # h1 is not Cartan
    ]


@pytest.mark.parametrize("message, triple", perturbed_triples())
def test_check_names_the_failing_identity(message, triple):
    with pytest.raises(ValueError, match=re.escape(message)):
        Sl2Triple(*triple).check()


def test_check_builds_no_fraction(monkeypatch):
    g2 = trivial_grading(G2)
    triples = [
        decide_normal(g2, *G2.cartan_values(h))
        for wdd, h in classify_nilpotent_g(G2)
        if not wdd.is_zero()
    ]
    assert any(isinstance(c, Fraction) and c.denominator > 1 for t in triples for c in t.f.coeffs.values())
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    for t in triples:
        t.check()
    monkeypatch.undo()
    assert made == []


C3 = build_algebra(build_root_system("C", 3))


@st.composite
def sparse_element_pairs(draw):
    """An algebra and two elements with Fraction coefficients on a few root
    vectors and at least one Cartan generator."""
    alg = draw(st.sampled_from([A2, B2, G2, C3]))
    coefficient = st.fractions(min_value=-4, max_value=4, max_denominator=6)

    def element():
        keys = draw(st.lists(st.integers(0, alg.n_roots - 1), max_size=5, unique=True))
        keys += draw(st.lists(st.integers(alg.n_roots, alg.dim - 1), min_size=1, unique=True))
        return LieElement(alg, {k: draw(coefficient) for k in keys})

    return alg, element(), element()


@given(sparse_element_pairs())
@settings(max_examples=200, deadline=None)
def test_bracket_matches_the_basis_bracket_reference(pair):
    alg, x, y = pair
    assert alg.bracket(x, y) == reference_bracket(alg, x, y)
    assert alg.bracket(y, x) == -reference_bracket(alg, x, y)


def test_complete_sl2_standard_triple():
    h, e, f = A1.cartan([1]), A1.root_vector((1,)), A1.root_vector((-1,))
    triple = A1.complete_sl2(h, e, [f])
    assert triple == Sl2Triple(h, e, f)


def test_complete_sl2_absence_for_zero_e():
    h = A1.cartan([1])
    assert A1.complete_sl2(h, A1.zero(), []) is None


def test_complete_sl2_rejects_bad_preconditions():
    h, e = A1.cartan([1]), A1.root_vector((1,))
    with pytest.raises(ValueError):
        A1.complete_sl2(h, A1.root_vector((-1,)), [])  # [h, e] != 2e
    with pytest.raises(ValueError):
        A1.complete_sl2(h, e, [e])  # f_space not in the -2 eigenspace


def test_complete_sl2_rejects_non_cartan_h():
    h, e, f = A1.cartan([1]), A1.root_vector((1,)), A1.root_vector((-1,))
    with pytest.raises(ValueError, match="Cartan subalgebra"):
        A1.complete_sl2(h + e, e, [f])


def test_cartan_values_is_the_integer_form_of_a_fraction_h():
    h = A2.cartan([Fraction(1, 2), Fraction(1, 3)])
    hnum, den, values = A2.cartan_values(h)
    assert (hnum, den) == ([3, 2], 6)
    # roots (0,1), (1,0), (1,1) and their negatives: alpha_2(h) = 1/6 etc.
    assert values == [1, 4, 5, -1, -4, -5]
    assert values == [den * root_value(A2, r, h) for r in A2.rs.roots]
    assert A2.cartan(hnum, den) == h


def test_cartan_values_rejects_a_non_cartan_element_with_one_message():
    x = A2.cartan([1, 0]) + A2.root_vector((1, 0))
    grading = trivial_grading(A2)
    for call in (
        lambda: A2.cartan_values(x),
        lambda: orbit_dimension(grading, x),
    ):
        with pytest.raises(ValueError, match="^h must lie in the Cartan subalgebra$"):
            call()


@pytest.mark.parametrize("alg", [A1, A2, A3, B2, G2], ids=repr)
def test_cartan_solution_inverts_the_simple_root_values(alg):
    rng = random.Random(7)
    l = alg.rs.rank
    simple = [alg.rs.simple_root(i) for i in range(l)]
    for _ in range(20):
        target = [rng.randint(-3, 3) for _ in range(l)]
        h = alg.cartan(*alg.cartan_solution(target))
        assert [root_value(alg, a, h) for a in simple] == target
        # a coroot-lattice h comes back from its simple-root values exactly
        coords = [rng.randint(-3, 3) for _ in range(l)]
        values = [root_value(alg, a, alg.cartan(coords)) for a in simple]
        assert alg.hnum_from_values(values) == coords


def test_complete_sl2_rejects_f_space_with_cartan_part():
    h, e, f = A1.cartan([1]), A1.root_vector((1,)), A1.root_vector((-1,))
    with pytest.raises(ValueError, match="-2 eigenvector"):
        A1.complete_sl2(h, e, [f + A1.cartan([1])])


def test_complete_sl2_keeps_rows_no_column_reaches():
    # alpha_1(2h_1 + 2h_2) = 2, but [x_1, x_-1] = h_1 never reaches the h_2
    # row of h: without that row the solve would accept f = x_-1
    h, e, f = A2.cartan([2, 2]), A2.root_vector((1, 0)), A2.root_vector((-1, 0))
    assert A2.complete_sl2(h, e, [f]) is None
    assert reference_complete_sl2(A2, h, e, [f]) is None


def test_ad_matrix_examples():
    h, e = A1.cartan([1]), A1.root_vector((1,))
    assert ad_matrix(A1, h, [e], [e]) == [[Fraction(2)]]
    x1 = A2.root_vector((1, 0))
    x2 = A2.root_vector((0, 1))
    x12 = A2.root_vector((1, 1))
    m = ad_matrix(A2, x1, [x2], [x12])
    assert m in ([[Fraction(1)]], [[Fraction(-1)]])
    with pytest.raises(ValueError):
        ad_matrix(A2, x1, [x2], [x2])  # image leaves the codomain span


def test_element_serialisation():
    x = A2.root_vector((1, 1)).scale(Fraction(3, 2)) + A2.cartan([0, 1])
    assert x.to_triples() == [("x[1,1]", 3, 2), ("h[2]", 1, 1)]
