import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilorb import (
    KacDiagram,
    ThetaGrading,
    build_algebra,
    build_root_system,
    enumerate_kac_diagrams,
    grading_from_kac,
    principal_nregular_grading,
    trivial_grading,
)

from nilorb.grading import MAX_ORDER

from oracles import component_basis, eigenspace, is_root, semisimple_part_cartan

A1 = build_algebra(build_root_system("A", 1))
A3 = build_algebra(build_root_system("A", 3))
G2 = build_algebra(build_root_system("G", 2))


def test_kac_diagram_validation():
    with pytest.raises(ValueError):
        KacDiagram.from_labels(A1.rs, (0, 0))  # order 0
    with pytest.raises(ValueError):
        KacDiagram.from_labels(A1.rs, (1, -1))
    with pytest.raises(ValueError):
        KacDiagram.from_labels(A1.rs, (1, 1, 1))
    kd = KacDiagram.from_labels(G2.rs, (0, 0, 1))
    assert kd.order == 2


def test_grading_order_is_capped():
    # per-degree tables hold m entries, so an order past the cap is refused
    # before anything is built
    for m in (MAX_ORDER + 1, 10**20):
        with pytest.raises(ValueError, match=f"<= {MAX_ORDER}, got {m}"):
            ThetaGrading(G2, m, (1, 1))
    assert principal_nregular_grading(G2, MAX_ORDER).m == MAX_ORDER


def test_a1_grading():
    g = grading_from_kac(A1, KacDiagram.from_labels(A1.rs, (1, 1)))
    assert g.m == 2
    assert g.dims() == (1, 2)
    assert set(g.phi1) == {(1,), (-1,)}
    assert g.delta0 == ()
    assert g.rs.rank - len(g.delta0) == 1


def test_sl4_order3_example():
    g = grading_from_kac(A3, KacDiagram.from_labels(A3.rs, (1, 1, 1, 0)))
    assert g.m == 3
    assert g.dims() == (5, 5, 5)
    # g_0 = sl2 + 2-dimensional torus
    assert g.delta0 == ((0, 0, 1),)
    assert g.rs.rank - len(g.delta0) == 2
    assert len(semisimple_part_cartan(g)) == 1


def test_e7_order2_dims():
    e7 = build_algebra(build_root_system("E", 7))
    g = principal_nregular_grading(e7, 2)
    assert g.dims() == (63, 70)


def test_dims_account_for_roots_and_cartan():
    for labels in [(0, 0, 1), (1, 0, 1), (1, 1, 1)]:
        g = grading_from_kac(G2, KacDiagram.from_labels(G2.rs, labels))
        assert sum(g.dims()) == G2.dim
        assert g.dims()[0] == len(g.phi0) + 2
        assert g.dims()[1 % g.m] == len(g.phi1)


def test_bracket_degree_compatibility_exhaustive():
    for labels in [(0, 0, 1), (1, 0, 1), (0, 1, 1)]:
        g = grading_from_kac(G2, KacDiagram.from_labels(G2.rs, labels))
        for i in range(g.m):
            for j in range(g.m):
                for x in component_basis(g, i):
                    for y in component_basis(g, j):
                        z = G2.bracket(x, y)
                        for k in z.coeffs:
                            if k < G2.n_roots:
                                assert g.deg_by_index[k] == (i + j) % g.m
                            else:
                                assert (i + j) % g.m == 0


@given(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)))
@settings(max_examples=40, deadline=None)
def test_degree_is_additive_on_random_kac_labels(labels):
    if sum(a * s for a, s in zip(G2.rs.marks, labels)) == 0:
        return
    g = grading_from_kac(G2, KacDiagram.from_labels(G2.rs, labels))
    for a in G2.rs.roots:
        for b in G2.rs.roots:
            s = tuple(x + y for x, y in zip(a, b))
            if is_root(G2.rs, s):
                assert (g.degree(a) + g.degree(b)) % g.m == g.degree(s)


def test_trivial_grading():
    g = trivial_grading(G2)
    assert g.m == 1
    assert g.dims() == (14,)
    assert len(g.phi1) == 12  # residue 1 mod 1 is residue 0


def test_eigenspace_examples():
    g = grading_from_kac(A3, KacDiagram.from_labels(A3.rs, (1, 1, 1, 0)))
    # no eigenvalue 7 anywhere
    assert eigenspace(g, A3.cartan([1, 0, 0]), 7, 1) == []
    # h = 0: everything in g_1 has eigenvalue 0
    assert len(eigenspace(g, A3.zero(), 0, 1)) == 5
    # h = 2 h0 for the rank-2 carrier of the example grading: the eigenvalue-2
    # part of g_1 is 4-dimensional (the carrier's own degree-1 part is the
    # 2-dimensional slice cut out by the centraliser directions)
    from nilorb.carrier import GradedCandidate, completion

    comp = completion(g, GradedCandidate((), ((-1, -1, 0), (0, 1, 0))))
    basis = eigenspace(g, A3.cartan(comp.hnum, comp.den).scale(2), 2, 1)
    names = {A3.basis_label(next(iter(b.coeffs))) for b in basis}
    assert names == {"x[0,1,0]", "x[0,1,1]", "x[-1,-1,0]", "x[-1,-1,-1]"}
    assert {"x[0,1,0]", "x[-1,-1,0]"} <= names


def test_eigenspace_non_cartan_h():
    g = grading_from_kac(A3, KacDiagram.from_labels(A3.rs, (1, 1, 1, 0)))
    # h with a root-vector component still acts on g_1; eigenvalue 0 kernel
    h = A3.cartan([0, 0, 1]) + A3.root_vector((0, 0, 1))
    out = eigenspace(g, h, 0, 1)
    for x in out:
        assert A3.bracket(h, x).is_zero()


def test_enumerate_kac_diagrams_counts():
    assert len(enumerate_kac_diagrams(build_root_system("A", 1), 2)) == 2
    assert len(enumerate_kac_diagrams(G2.rs, 2)) == 2
    assert len(enumerate_kac_diagrams(build_root_system("A", 1), 1)) == 1
    assert len(enumerate_kac_diagrams(build_root_system("E", 6), 2)) == 3


def test_enumerate_matches_brute_orbit_dedup():
    # brute force: enumerate label vectors, dedup by explicit orbit closure
    for rs, m in [(build_root_system("A", 1), 4), (G2.rs, 4), (build_root_system("B", 2), 3)]:
        vectors = []

        def rec(i, rem, acc):
            if i == rs.rank:
                if rem % rs.marks[i] == 0:
                    vectors.append(tuple(acc + [rem // rs.marks[i]]))
                return
            for s in range(rem // rs.marks[i] + 1):
                rec(i + 1, rem - s * rs.marks[i], acc + [s])

        rec(0, m, [])
        autos = rs.extended_diagram_automorphisms()
        orbits = set()
        for v in vectors:
            orbits.add(frozenset(tuple(v[sigma[i]] for i in range(rs.rank + 1)) for sigma in autos))
        assert len(enumerate_kac_diagrams(rs, m)) == len(orbits)


def test_principal_gradings():
    g = principal_nregular_grading(A1, 2)
    assert g.dims() == grading_from_kac(A1, KacDiagram.from_labels(A1.rs, (1, 1))).dims() == (1, 2)
    g = principal_nregular_grading(G2, 2)
    assert g.dims() == (6, 8)
    # m at least the Coxeter number: the degree determines the height on
    # positive roots
    g = principal_nregular_grading(G2, 6)
    seen = {}
    for r in G2.rs.positive_roots:
        d = g.degree(r)
        assert seen.setdefault(d, sum(r)) == sum(r)


def test_grading_json_echo():
    g = grading_from_kac(G2, KacDiagram.from_labels(G2.rs, (0, 0, 1)))
    assert g.to_json_dict() == {"m": 2, "component_dims": [6, 8], "phi0_type": "2A1"}
