import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilorb import (
    WeylElement,
    WeylSubgroup,
    build_root_system,
    conjugacy_key,
    conjugate_sets,
    conjugate_tuples,
    shortest_coset_reps,
    stabilizer_generators,
    to_subdominant,
)
from nilorb.weyl import conjugacy_classes
from oracles import (
    mat_mul,
    mat_vec,
    matrix_length,
    orbit_ids,
    same_partition,
    subgroup_matrices,
    weyl_matrices,
)

A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)


def full_subgroup(rs):
    return WeylSubgroup(rs, [rs.simple_root(i) for i in range(rs.rank)])


def test_lengths():
    assert WeylElement.identity(A2).length() == 0
    assert WeylElement.simple(A2, 0).length() == 1
    lengths = sorted(matrix_length(A2, m) for m in weyl_matrices(A2))
    assert max(lengths) == 3
    assert WeylElement.from_word(A2, (0, 1, 0)).length() == 3


def test_element_action_matches_word():
    w = WeylElement.from_word(G2, (0, 1, 0, 1))
    lam = (2, -3)
    expect = lam
    for i in reversed((0, 1, 0, 1)):
        expect = G2.reflect(expect, G2.simple_root(i))
    assert w.act_weight(lam) == expect
    assert w.inverse().act_weight(w.act_weight(lam)) == lam


def test_action_preserves_form():
    w = WeylElement.from_word(B2, (0, 1, 0))
    for lam in [(1, 0), (0, 1), (2, -1)]:
        for mu in [(1, 1), (1, -1)]:
            assert B2.inner(w.act_weight(lam), w.act_weight(mu)) == B2.inner(lam, mu)


def test_coset_reps_full_group_is_identity():
    reps = shortest_coset_reps(A2, full_subgroup(A2))
    assert len(reps) == 1 and reps[0].is_identity()


def test_coset_reps_a2_against_brute_force():
    sub = WeylSubgroup(A2, [(1, 0)])
    reps = shortest_coset_reps(A2, sub)
    assert sorted(r.length() for r in reps) == [0, 1, 2]
    # brute force: partition W into right cosets W0 w, check one rep in each
    group = weyl_matrices(A2)
    subgroup = subgroup_matrices(A2, [(1, 0)])
    cosets = set()
    for m in group:
        from oracles import mat_mul

        coset = frozenset(mat_mul(u, m) for u in subgroup)
        cosets.add(coset)
    assert len(cosets) == len(reps) == 3
    rep_mats = {tuple(tuple(row) for row in r.matrix()) for r in reps}
    for coset in cosets:
        assert len(rep_mats & set(coset)) == 1
    # each rep is the unique shortest element of its coset
    for coset in cosets:
        lengths = sorted(matrix_length(A2, m) for m in coset)
        rep = next(iter(rep_mats & set(coset)))
        assert matrix_length(A2, rep) == lengths[0] < lengths[1]


@pytest.mark.parametrize("rs,basis", [(B2, [(1, 0)]), (B2, [(0, 1)]), (G2, [(1, 0)]), (G2, [(0, 1), (3, 1)])])
def test_coset_counting_identity(rs, basis):
    reps = shortest_coset_reps(rs, WeylSubgroup(rs, basis))
    subgroup = subgroup_matrices(rs, basis)
    assert len(reps) * len(subgroup) == rs.weyl_order()
    # each representative is the strict length minimum of its coset
    from oracles import mat_mul

    for w in reps:
        wm = tuple(tuple(row) for row in w.matrix())
        for u in subgroup:
            um = mat_mul(u, wm)
            if um != wm:
                assert matrix_length(rs, um) > matrix_length(rs, wm)


def test_to_subdominant_examples():
    full = full_subgroup(A2)
    lam, w = to_subdominant(A2, full, (1, 1))
    assert lam == (1, 1) and w.is_identity()
    lam, w = to_subdominant(A2, full, (-1, 0))
    assert lam == (1, 1)
    assert w.act_weight((-1, 0)) == lam
    sub = WeylSubgroup(A2, [(1, 0)])
    lam, w = to_subdominant(A2, sub, (-1, 0))
    assert lam == (1, 0)
    assert w.act_weight((-1, 0)) == (1, 0)


@given(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
@settings(max_examples=60, deadline=None)
def test_to_subdominant_matches_orbit_enumeration(mu):
    for rs, basis in [(A2, [(1, 0), (0, 1)]), (B2, [(1, 0), (0, 1)]), (B2, [(1, 0)])]:
        sub = WeylSubgroup(rs, basis)
        lam, w = to_subdominant(rs, sub, mu)
        assert w.act_weight(mu) == lam
        orbit = {mat_vec(m, mu) for m in subgroup_matrices(rs, basis)}
        dominant = [v for v in orbit if all(rs.pairing(v, b) >= 0 for b in basis)]
        assert lam in orbit
        assert set(dominant) == {lam}


def test_stabilizer_examples():
    full = full_subgroup(A2)
    # strictly dominant regular weight: trivial stabiliser
    assert stabilizer_generators(A2, full, (1, 1)) == ()
    # zero weight: everything fixes it
    assert set(stabilizer_generators(A2, full, (0, 0))) == {(1, 0), (0, 1)}
    # fundamental weight: stabiliser of order 2
    lam1 = (Fraction(2, 3), Fraction(1, 3))
    gens = stabilizer_generators(A2, full, lam1)
    stab_brute = [m for m in weyl_matrices(A2) if mat_vec(m, lam1) == tuple(lam1)]
    assert len(stab_brute) == 2
    assert len(subgroup_matrices(A2, gens)) == 2


def test_stabilizer_generates_exactly_the_stabilizer():
    for rs in (A2, B2):
        full = full_subgroup(rs)
        for mu in [(1, 0), (0, 1), (2, 0), (1, -1)]:
            gens = stabilizer_generators(rs, full, mu)
            generated = subgroup_matrices(rs, gens) if gens else [None]
            brute = [m for m in weyl_matrices(rs) if mat_vec(m, mu) == mu]
            assert len(brute) == (len(generated) if gens else 1)


def test_conjugate_tuples_examples():
    full = full_subgroup(A2)
    w = conjugate_tuples(A2, full, [(1, 0), (0, 1)], [(1, 0), (0, 1)])
    assert w is not None and w.is_identity()
    w = conjugate_tuples(A2, full, [(1, 0)], [(0, 1)])
    assert w is not None and w.act_weight((1, 0)) == (0, 1)
    sub = WeylSubgroup(A2, [(1, 0)])
    assert conjugate_tuples(A2, sub, [(0, 1)], [(1, 0)]) is None


def test_conjugate_sets_examples():
    full = full_subgroup(A2)
    w = conjugate_sets(A2, full, [(1, 0), (0, 1)], [(1, 0), (0, 1)])
    assert w is not None
    g2full = full_subgroup(G2)
    assert conjugate_sets(G2, g2full, [(1, 0)], [(0, 1)]) is None
    w = conjugate_sets(A2, full, [(1, 0), (0, 1)], [(-1, 0), (0, -1)])
    assert w is not None
    image = {w.act_weight((1, 0)), w.act_weight((0, 1))}
    assert image == {(-1, 0), (0, -1)}


def test_conjugate_sets_against_brute_force():
    # exhaustive cross-check over all pairs of small root subsets of B2
    group = weyl_matrices(B2)
    singles = [(r,) for r in B2.roots]
    pairs = [(a, b) for i, a in enumerate(B2.roots) for b in B2.roots[i + 1 :]]
    full = full_subgroup(B2)
    for g1 in singles + pairs[:12]:
        for g2 in singles + pairs[:12]:
            if len(g1) != len(g2):
                continue
            brute = any({mat_vec(m, r) for r in g1} == set(g2) for m in group)
            w = conjugate_sets(B2, full, list(g1), list(g2))
            assert (w is not None) == brute
            if w is not None:
                assert {w.act_weight(r) for r in g1} == set(g2)


@pytest.mark.parametrize(
    "rs,basis",
    [
        (A3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        (A3, [(1, 0, 0), (0, 0, 1)]),
        (B2, [(1, 0), (0, 1)]),
        (B2, [(1, 0)]),
        (G2, [(1, 0), (0, 1)]),
        (G2, [(0, 1), (3, 1)]),  # the long-root A2, not parabolic
    ],
)
def test_conjugacy_key_matches_brute_force_orbits(rs, basis):
    sub = WeylSubgroup(rs, basis)
    items = [(s,) for size in (1, 2, 3) for s in itertools.combinations(rs.roots, size)]
    keys = [conjugacy_key(rs, sub, blocks) for blocks in items]
    assert same_partition(keys, orbit_ids(rs, basis, items))



def test_conjugacy_classes_without_moves_keeps_the_first_of_each_key():
    full = full_subgroup(B2)
    items = [s for size in (0, 1, 2) for s in itertools.combinations(B2.roots, size)] * 2
    reps = {}
    for item in items:
        reps.setdefault(conjugacy_key(B2, full, (item,)), item)
    assert conjugacy_classes(B2, full, items) == list(reps.values())


def test_conjugacy_classes_search_keeps_and_expands_the_first_item_met():
    full = full_subgroup(A2)
    a, b, c = ((0, 1), (1, 0)), ((1, 0),), ((0, 1),)  # b and c are conjugate
    graph = {a: [b, c, a], b: [()], c: [((1, 1),)], (): []}
    expanded = []

    def moves(item):
        expanded.append(item)
        return graph[item]

    assert conjugacy_classes(A2, full, [a], moves=moves) == [a, b, ()]
    # the repeated a is skipped, and c, met after b, is never expanded
    assert expanded == [a, b, ()]

def test_subgroup_validation():
    with pytest.raises(ValueError):
        WeylSubgroup(A2, [(-1, 0)])  # not positive
    with pytest.raises(ValueError):
        WeylSubgroup(A2, [(1, 0), (1, 1)])  # difference is a root
    with pytest.raises(ValueError):
        WeylSubgroup(A2, [(1, 0), (0, 2)])  # not a root


def test_group_law_on_all_of_b3():
    b3 = build_root_system("B", 3)
    group = shortest_coset_reps(b3, WeylSubgroup(b3, ()))
    assert len(group) == 48
    for u in group:
        assert (u * u.inverse()).is_identity()
        for v in group:
            assert (u * v).matrix() == mat_mul(u.matrix(), v.matrix())
            assert (u == v) == (u.matrix() == v.matrix())
            if u == v:
                assert hash(u) == hash(v)


def test_import_does_not_load_numpy():
    import nilorb

    src = os.path.dirname(os.path.dirname(nilorb.__file__))
    code = "import sys, nilorb; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
