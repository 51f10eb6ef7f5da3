"""Acceptance suite: every criterion pinned to its exact expected values.

Each test prints one PASS/FAIL line (run pytest -s to see them inline).
"""

import contextlib
import dataclasses
import random

import pytest

from nilorb import (
    KacDiagram,
    WeylSubgroup,
    build_algebra,
    build_root_system,
    classify_all,
    classify_by_carriers,
    classify_by_characteristics,
    classify_nilpotent_g,
    classify_orbits,
    enumerate_kac_diagrams,
    grading_from_kac,
    nregular_survey,
    principal_nregular_grading,
    shortest_coset_reps,
    summarize,
)
from nilorb.cli import _record_json, canonical_json
from oracles import (
    brute_pi_classes,
    component_basis,
    dual_weight,
    is_nilpotent,
    partition_count,
    root_value,
)

RANK_LE_4 = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4),
    ("D", 4), ("F", 4), ("G", 2),
]


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>2} [{title}]: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {num:>2} [{title}]: PASS", flush=True)


def summary_tuple(s):
    return (s.orbit_count, s.component_count, s.component_dim, s.rank)


def test_criterion_1_g2_table():
    expected = {
        2: ((5, 1, 6, 2), True),
        3: ((6, 2, 4, 1), False),
        4: ((4, 1, 4, 0), True),
        5: ((3, 1, 3, 0), True),
    }
    with criterion(1, "G2 N-regular table, orders 2-5"):
        alg = build_algebra(build_root_system("G", 2))
        for m, (row, very) in expected.items():
            _, s = nregular_survey(alg, m)
            assert summary_tuple(s) == row, (m, summary_tuple(s))
            assert s.very_nregular == very, m
            assert s.nregular


def test_criterion_2_f4_table():
    expected = {
        2: ((26, 1, 24, 4), True),
        3: ((19, 1, 16, 2), True),
        4: ((29, 3, 12, 2), False),
        5: ((15, 1, 11, 0), True),
    }
    with criterion(2, "F4 N-regular spot checks, orders 2-5"):
        alg = build_algebra(build_root_system("F", 4))
        for m, (row, very) in expected.items():
            _, s = nregular_survey(alg, m)
            assert summary_tuple(s) == row, (m, summary_tuple(s))
            assert s.very_nregular == very, m


def test_criterion_3_e6_rows():
    with criterion(3, "E6 inner, orders 2 and 3"):
        alg = build_algebra(build_root_system("E", 6))
        _, s = nregular_survey(alg, 2)
        assert summary_tuple(s) == (37, 1, 36, 4)
        _, s = nregular_survey(alg, 3)
        assert summary_tuple(s) == (62, 3, 24, 3)


def _sweep_size(alg, grading):
    from nilorb.linalg import clear_denominators

    reps = shortest_coset_reps(alg.rs, grading.weyl_subgroup())
    total = 0
    for wdd, h in classify_nilpotent_g(alg):
        if wdd.is_zero():
            continue
        # distinct images w(den * lam): counted on weights, independently of
        # normal_list, which keys its images on permuted root values
        lam, _ = clear_denominators(dual_weight(alg, h))
        total += len({w.act_weight(lam) for w in reps})
    return len(reps), total


def test_criterion_4_e7_structural():
    with criterion(4, "E7 dims, coset indices, sweep sizes"):
        alg = build_algebra(build_root_system("E", 7))
        assert len(classify_nilpotent_g(alg)) == 45
        g2fold = principal_nregular_grading(alg, 2)
        assert g2fold.dims() == (63, 70)
        index, sweep = _sweep_size(alg, g2fold)
        assert index == 72 and sweep == 721
        g3fold = principal_nregular_grading(alg, 3)
        index, sweep = _sweep_size(alg, g3fold)
        assert index == 672 and sweep == 4627


def test_e7_sweep_sizes_orders_4_and_5():
    alg = build_algebra(build_root_system("E", 7))
    for m, expected_index, expected_sweep in [(4, 4032, 22939), (5, 10080, 52109)]:
        g = principal_nregular_grading(alg, m)
        index, sweep = _sweep_size(alg, g)
        assert (index, sweep) == (expected_index, expected_sweep)


def test_criterion_4_e7_order3_orbit_count():
    with criterion(4, "E7 order 3: 75 orbits"):
        alg = build_algebra(build_root_system("E", 7))
        g = principal_nregular_grading(alg, 3)
        records = classify_by_characteristics(g)
        assert len(records) - 1 == 75


def test_criterion_4_e7_order5_orbit_count():
    with criterion(4, "E7 order 5: 82 orbits"):
        alg = build_algebra(build_root_system("E", 7))
        g = principal_nregular_grading(alg, 5)
        records = classify_by_carriers(g)
        assert len(records) - 1 == 82


# The sorted weighted Dynkin diagrams of all 70 nilpotent orbits of E8, the
# zero orbit included.  70 is the published orbit count; the label list is a
# regression pin, taken from the dense-solve completion this code replaced.
E8_AMBIENT_WDDS = """
    00000000 00000001 00000002 00000010 00000020 00000022 00000100 00000101
    00000200 00001000 00002000 00002002 00010000 00010001 00010002 00010010
    00010100 00010102 00020002 00020020 00020022 00100000 00100001 00100100
    00100101 01000000 01000010 01000012 01100010 01100012 01101022 02000000
    02000002 10000000 10000001 10000002 10000010 10000100 10000101 10000102
    10001000 10001010 10001012 10010001 10010100 10010101 10010102 10010110
    10010122 20000000 20000002 20000020 20000022 20000101 20000200 20000202
    20000222 20002002 20010102 20020020 20020022 20020202 20020222 21100012
    21101022 21101101 21101222 22202022 22202222 22222222
""".split()


def test_e8_ambient_classification():
    with criterion(4, "E8 ambient: 70 nilpotent orbits"):
        alg = build_algebra(build_root_system("E", 8))
        chars = classify_nilpotent_g(alg)
        assert len(chars) == 70
        assert sorted("".join(map(str, wdd.labels)) for wdd, _ in chars) == E8_AMBIENT_WDDS


def test_criterion_5_coset_counts():
    with criterion(5, "E8 2A4 coset count and counting identity"):
        e8 = build_root_system("E", 8)
        ext = e8.extended_basis()
        gens = [ext[i] for i in range(9) if i != 5]
        basis = e8.subsystem_positive_basis(gens)
        assert e8.dynkin_type(basis) == (("A", 4), ("A", 4))
        reps = shortest_coset_reps(e8, WeylSubgroup(e8, basis))
        assert len(reps) == 48384
        # representative count times subgroup order equals the group order,
        # for every subsystem class of every rank <= 4 system
        for label, rank in RANK_LE_4:
            rs = build_root_system(label, rank)
            for pi in classify_all(rs):
                count = len(shortest_coset_reps(rs, WeylSubgroup(rs, rs.subsystem_positive_basis(pi))))
                assert count * rs.weyl_order(pi) == rs.weyl_order(), (label, rank, pi)


def test_criterion_6_pisystem_classification():
    with criterion(6, "E8 pi-systems: 76 classes"):
        e8 = build_root_system("E", 8)
        classes = classify_all(e8)
        nonempty = [p for p in classes if p]
        assert len(nonempty) == 76
        for rs in (build_root_system("A", 1), build_root_system("A", 2),
                   build_root_system("B", 2), build_root_system("G", 2)):
            assert len(classify_all(rs)) == len(brute_pi_classes(rs))


# case: (types, orders, number of gradings)
CRITERION_7_CASES = {
    "G2-F4-orders-2-6": ([("G", 2), ("F", 4)], range(2, 7), 63),
    "E6-order-3": ([("E", 6)], [3], 6),
    "E6-order-2": ([("E", 6)], [2], 3),
}


def criterion_7_gradings(case):
    """Every grading of a case of CRITERION_7_CASES, or the E7 principal
    grading of order 2."""
    if case == "E7-principal-order-2":
        return [principal_nregular_grading(build_algebra(build_root_system("E", 7)), 2)]
    types, orders, count = CRITERION_7_CASES[case]
    gradings = [
        grading_from_kac(alg, kd)
        for alg in (build_algebra(build_root_system(*t)) for t in types)
        for m in orders
        for kd in enumerate_kac_diagrams(alg.rs, m)
    ]
    assert len(gradings) == count
    return gradings


@pytest.mark.parametrize("case", [*CRITERION_7_CASES, "E7-principal-order-2"])
def test_criterion_7_whole_record_equivalence(case):
    # both methods draw e from (seed, h) alone, so method 1, method 2 and
    # auto print the same JSON record (h, e, f, dim, wdd) for every orbit
    with criterion(7, f"whole-record method equivalence, {case}"):
        for g in criterion_7_gradings(case):
            printed = {
                method: [canonical_json(_record_json(r)) for r in classify_orbits(g, method, seed=3)]
                for method in ("1", "2", "auto")
            }
            assert printed["1"] == printed["2"] == printed["auto"], g


# (type, Kac labels, real form, whole summary, real rank) of the inner
# involutions not pinned elsewhere.  g_0 = k and g_1 = p: the nilpotent
# K-orbits in p are in bijection with the real nilpotent orbits
# (Kostant-Sekiguchi; Sekiguchi, J. Math. Soc. Japan 39, 1987), and the rank
# of p is the real rank (Kostant and Rallis, Amer. J. Math. 93, 1971).  The
# orbit counts agree with Djokovic's tables (J. Algebra 112, 1988) as
# recalled, with no copy at hand, so the summaries are regression pins.
INNER_INVOLUTIONS = [
    (("F", 4), (0, 0, 0, 0, 1), "F4(-20)", (2, 1, 15, 1, False, True), 1),
    (("E", 6), (1, 1, 0, 0, 0, 0, 0), "E6(-14)", (12, 1, 30, 2, False, True), 2),
    (("E", 7), (0, 1, 0, 0, 0, 0, 0, 0), "E7(-5)", (37, 1, 60, 4, False, True), 4),
    (("E", 7), (1, 0, 0, 0, 0, 0, 0, 1), "E7(-25)", (22, 2, 51, 3, False, True), 3),
    (("E", 8), (0, 0, 0, 0, 0, 0, 0, 0, 1), "E8(-24)", (36, 1, 108, 4, False, True), 4),
]


@pytest.mark.parametrize(
    "type_,labels,real_form,summary,real_rank", INNER_INVOLUTIONS, ids=[r[2] for r in INNER_INVOLUTIONS]
)
def test_inner_involutions_match_real_forms(type_, labels, real_form, summary, real_rank):
    alg = build_algebra(build_root_system(*type_))
    g = grading_from_kac(alg, KacDiagram.from_labels(alg.rs, labels))
    assert g.m == 2
    for method in ("1", "2"):
        s = summarize(g, classify_orbits(g, method=method))
        assert dataclasses.astuple(s) == summary, (real_form, method)
        assert s.rank == real_rank


def test_weyl_group_degrees_match_published_lists():
    # degrees of the basic invariants (Bourbaki, Lie Groups and Lie
    # Algebras, ch. V-VI, plates), against the root-height count
    published = {
        ("G", 2): (2, 6),
        ("F", 4): (2, 6, 8, 12),
        ("E", 6): (2, 5, 6, 8, 9, 12),
        ("E", 7): (2, 6, 8, 10, 12, 14, 18),
        ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    }
    for (label, rank), degrees in published.items():
        assert build_root_system(label, rank).degrees() == degrees


def test_e8_principal_order2_row():
    # The N-regular involution of E8 by the carrier walk.  Degree oracle:
    # for an N-regular theta of order m the invariants of G_0 on g_1 are
    # free of degrees the d_i of W divisible by m (Panyushev 2005; Springer
    # 1974), so rank = #{i : m | d_i}.
    alg = build_algebra(build_root_system("E", 8))
    g = principal_nregular_grading(alg, 2)
    s = summarize(g, classify_orbits(g, method="2"))
    assert summary_tuple(s) == (115, 1, 120, 8)
    assert s.rank == sum(d % 2 == 0 for d in g.rs.degrees())
    assert s.nregular


@pytest.mark.parametrize(
    "rank,m,row,degrees",
    [
        (7, 6, (233, 10, 21, 3), build_root_system("E", 7).degrees()),
        (8, 30, (510, 9, 8, 1), build_root_system("E", 8).degrees()),
    ],
)
def test_closed_form_nregular_rows_e7_e8(rank, m, row, degrees):
    # The N-regular gradings of E7 order 6 and E8 order 30 from the
    # closed-form Kac diagram.  The rows are regression pins of this
    # program's output, not published values; the degree oracle (Panyushev
    # 2005; Springer 1974) and rank + component_dim = dim g_1 are theory.
    alg = build_algebra(build_root_system("E", rank))
    kd, s = nregular_survey(alg, m)
    dim_g1 = grading_from_kac(alg, kd).dims()[1]
    assert s.rank == sum(d % m == 0 for d in degrees)
    assert s.component_dim == dim_g1 - s.rank
    assert summary_tuple(s) == row
    assert s.nregular and not s.very_nregular


def test_criterion_8_type_a_partition_oracle():
    with criterion(8, "type-A orbit counts equal partition counts"):
        expected = [2, 3, 5, 7]
        for rank, count in zip((1, 2, 3, 4), expected):
            alg = build_algebra(build_root_system("A", rank))
            assert partition_count(rank + 1) == count
            assert len(classify_nilpotent_g(alg)) == count


def test_criterion_9_algebraic_invariants():
    with criterion(9, "Jacobi, sl2 relations, grading compatibility, rank identity"):
        # Jacobi: exhaustive for every rank <= 4 type
        for label, rank in RANK_LE_4:
            alg = build_algebra(build_root_system(label, rank))
            for i in range(alg.dim):
                xi = alg.basis_element(i)
                for j in range(i + 1, alg.dim):
                    xj = alg.basis_element(j)
                    bij = alg.bracket(xi, xj)
                    for k in range(j + 1, alg.dim):
                        xk = alg.basis_element(k)
                        s = (
                            alg.bracket(xi, alg.bracket(xj, xk))
                            + alg.bracket(xj, alg.bracket(xk, xi))
                            + alg.bracket(xk, bij)
                        )
                        assert s.is_zero(), (label, rank, i, j, k)
        # Jacobi: 10^4 random triples for the E types, fixed seed
        for label, rank in [("E", 6), ("E", 8)]:
            alg = build_algebra(build_root_system(label, rank))
            rng = random.Random(20240 + rank)
            for _ in range(10_000):
                i, j, k = (rng.randrange(alg.dim) for _ in range(3))
                xi, xj, xk = (alg.basis_element(t) for t in (i, j, k))
                s = (
                    alg.bracket(xi, alg.bracket(xj, xk))
                    + alg.bracket(xj, alg.bracket(xk, xi))
                    + alg.bracket(xk, alg.bracket(xi, xj))
                )
                assert s.is_zero(), (label, rank, i, j, k)
        # reference gradings: sl2 relations on every emitted triple, degree
        # compatibility of the bracket, and the rank identity per summary
        reference = []
        g2 = build_algebra(build_root_system("G", 2))
        for m in (2, 3, 4, 5):
            kd, _ = nregular_survey(g2, m)
            reference.append(grading_from_kac(g2, kd))
        f4 = build_algebra(build_root_system("F", 4))
        kd, _ = nregular_survey(f4, 2)
        reference.append(grading_from_kac(f4, kd))
        a3 = build_algebra(build_root_system("A", 3))
        reference.append(grading_from_kac(a3, KacDiagram.from_labels(a3.rs, (1, 1, 1, 0))))
        for g in reference:
            alg = g.alg
            records = classify_orbits(g)
            for r in records:
                if r.is_zero():
                    continue
                assert alg.bracket(r.h, r.e) == r.e.scale(2)
                assert alg.bracket(r.h, r.f) == r.f.scale(-2)
                assert alg.bracket(r.e, r.f) == r.h
                assert all(g.deg_by_index[k] == 1 % g.m for k in r.e.coeffs)
                assert all(g.deg_by_index[k] == (g.m - 1) % g.m for k in r.f.coeffs)
                assert is_nilpotent(alg, r.e)
            s = summarize(g, records)
            assert s.rank + s.component_dim == g.dims()[1 % g.m]
            for i in range(g.m):
                for j in range(g.m):
                    for x in component_basis(g, i):
                        for y in component_basis(g, j):
                            z = alg.bracket(x, y)
                            for k in z.coeffs:
                                if k < alg.n_roots:
                                    assert g.deg_by_index[k] == (i + j) % g.m
                                else:
                                    assert (i + j) % g.m == 0


def test_criterion_10_sl4_order3_regression():
    with criterion(10, "sl4 order-3 grading: dims and module decomposition"):
        alg = build_algebra(build_root_system("A", 3))
        g = grading_from_kac(alg, KacDiagram.from_labels(alg.rs, (1, 1, 1, 0)))
        assert g.dims()[0] == 5 and g.dims()[1] == 5
        # decompose g_1 under the sl2 of g_0: highest-weight vectors are the
        # kernel of ad e on g_1; each contributes a module of dim weight + 1
        beta = g.delta0[0]
        e = alg.root_vector(beta)
        h = alg.coroot(beta)
        kernel = [
            x for x in component_basis(g, 1) if alg.bracket(e, x).is_zero()
        ]
        dims = sorted(
            int(root_value(alg, alg.rs.roots[next(iter(x.coeffs))], h)) + 1 for x in kernel
        )
        assert dims == [1, 2, 2]


def test_e6_orders_4_and_5_reproduction():
    # further published rows, beyond the gated ones
    alg = build_algebra(build_root_system("E", 6))
    _, s = nregular_survey(alg, 4)
    assert summary_tuple(s) == (43, 3, 18, 2) and not s.very_nregular
    _, s = nregular_survey(alg, 5)
    assert summary_tuple(s) == (60, 1, 15, 1) and s.very_nregular


def test_e7_order2_full_row_reproduction():
    alg = build_algebra(build_root_system("E", 7))
    g = principal_nregular_grading(alg, 2)
    records = classify_orbits(g)
    s = summarize(g, records)
    assert summary_tuple(s) == (94, 2, 63, 7)


def test_e8_order2_reproduction():
    # not acceptance-gated: the inner involution table row for E8
    alg = build_algebra(build_root_system("E", 8))
    kd, s = nregular_survey(alg, 2)
    assert summary_tuple(s) == (115, 1, 120, 8)
    assert s.nregular
