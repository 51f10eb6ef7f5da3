import pytest

from nilorb import (
    WeylSubgroup,
    build_algebra,
    build_root_system,
    classify_all,
    classify_maximal,
    conjugacy_key,
    elementary_transformations,
    enumerate_kac_diagrams,
    grading_from_kac,
)
from nilorb.weyl import conjugate_sets
from oracles import (
    brute_pi_classes,
    is_pi_system,
    mat_vec,
    reference_classify_all,
    reference_classify_maximal,
    weyl_matrices,
)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)


def test_is_pi_system_examples():
    assert is_pi_system(A2, [(1, 0), (0, 1)])
    assert not is_pi_system(A2, [(1, 0), (1, 1)])  # difference is a root
    assert not is_pi_system(A2, [(1, 0), (-1, -1), (0, 1)])  # dependent
    assert is_pi_system(A2, [])
    with pytest.raises(ValueError):
        is_pi_system(A2, [(2, 0)])


def test_elementary_transformations_a1():
    out = elementary_transformations(A1, [(1,)])
    assert out == [((-1,),)]


def test_elementary_transformations_a2():
    out = elementary_transformations(A2, [(1, 0), (0, 1)])
    assert (((-1, -1), (1, 0))) in out and (((-1, -1), (0, 1))) in out
    for pi in out:
        assert is_pi_system(A2, pi)


def test_elementary_transformations_g2():
    out = elementary_transformations(G2, [(1, 0), (0, 1)])
    for pi in out:
        assert is_pi_system(G2, pi)
        assert (-3, -2) in pi  # the added lowest root survives every erasure


def test_transformations_preserve_pi_property_along_walks():
    frontier = [tuple(sorted([G2.simple_root(0), G2.simple_root(1)]))]
    seen = set(frontier)
    for _ in range(4):
        new = []
        for pi in frontier:
            for out in elementary_transformations(G2, pi):
                assert is_pi_system(G2, out)
                assert len(out) <= G2.rank
                if out not in seen:
                    seen.add(out)
                    new.append(out)
        frontier = new


def test_classify_all_a1():
    classes = classify_all(A1)
    assert len(classes) == 2
    assert () in classes


def test_classify_all_returns_a_new_list_each_call():
    # the classes are computed once per root system and basis; mutating a
    # returned list must not change what the next call returns
    first = classify_all(G2)
    expected = list(first)
    first.append(((9, 9),))
    classify_all(G2, basis=[(1, 0), (0, 1)]).clear()
    assert classify_all(G2) == expected
    assert classify_all(G2, basis=[(1, 0)]) == [(), ((1, 0),)]


def test_classify_maximal_a2():
    assert len(classify_maximal(A2)) == 1


def test_classify_matches_brute_force_rank2():
    for rs in (A1, A2, B2, G2):
        got = classify_all(rs)
        expected = brute_pi_classes(rs)
        assert len(got) == len(expected)
        # every returned class is conjugate to exactly one brute class
        group = weyl_matrices(rs)
        full = WeylSubgroup(rs, [rs.simple_root(i) for i in range(rs.rank)])
        for pi in got:
            matches = [
                q
                for q in expected
                if len(q) == len(pi)
                and any({mat_vec(m, r) for r in pi} == set(q) for m in group)
            ]
            assert len(matches) == 1
        # and no two returned classes are conjugate to each other
        for i, p in enumerate(got):
            for q in got[i + 1 :]:
                if len(p) == len(q) and p and q:
                    assert conjugate_sets(rs, full, p, q) is None


def test_g2_maximal_types():
    from nilorb import format_dynkin_type

    types = sorted(format_dynkin_type(G2.dynkin_type(p)) for p in classify_maximal(G2))
    assert types == ["2A1", "A2", "G2"]


def test_classes_have_bounded_rank():
    for pi in classify_all(B2):
        assert len(pi) <= B2.rank


def assert_same_classes_as_closure_walk(rs, basis, sub):
    for search, reference in (
        (classify_maximal, reference_classify_maximal),
        (classify_all, reference_classify_all),
    ):
        got = [conjugacy_key(rs, sub, (p,)) for p in search(rs, basis)]
        assert len(set(got)) == len(got)
        assert set(got) == {conjugacy_key(rs, sub, (p,)) for p in reference(rs, basis, sub)}


@pytest.mark.parametrize("label,rank", [("G", 2), ("B", 3), ("C", 4), ("F", 4), ("E", 6)])
def test_class_search_matches_closure_walk(label, rank):
    rs = build_root_system(label, rank)
    basis = [rs.simple_root(i) for i in range(rs.rank)]
    assert_same_classes_as_closure_walk(rs, basis, WeylSubgroup(rs, basis))


def test_class_search_matches_closure_walk_on_f4_order3_phi0():
    alg = build_algebra(build_root_system("F", 4))
    for kd in enumerate_kac_diagrams(alg.rs, 3):
        g = grading_from_kac(alg, kd)
        assert_same_classes_as_closure_walk(alg.rs, g.delta0, g.weyl_subgroup())
