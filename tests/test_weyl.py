import functools
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilorb import (
    KacDiagram,
    WeylElement,
    WeylSubgroup,
    build_algebra,
    build_root_system,
    conjugacy_key,
    grading_from_kac,
    shortest_coset_reps,
)
from nilorb.weyl import conjugacy_classes, conjugate_sets, conjugate_tuples, to_subdominant
from oracles import (
    inner,
    is_identity,
    mat_mul,
    mat_vec,
    matrix_length,
    orbit_ids,
    reference_least_images,
    reference_shortest_coset_reps,
    reflection_matrix,
    same_partition,
    subgroup_matrices,
    weyl_from_word,
    weyl_identity,
    weyl_matrices,
    weyl_matrix,
    weyl_simple,
)

A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
B2 = build_root_system("B", 2)
B3 = build_root_system("B", 3)
G2 = build_root_system("G", 2)


def full_subgroup(rs):
    return WeylSubgroup(rs, [rs.simple_root(i) for i in range(rs.rank)])


def test_lengths():
    assert weyl_identity(A2).length() == 0
    assert weyl_simple(A2, 0).length() == 1
    lengths = sorted(matrix_length(A2, m) for m in weyl_matrices(A2))
    assert max(lengths) == 3
    assert weyl_from_word(A2, (0, 1, 0)).length() == 3


def test_element_action_matches_word():
    w = weyl_from_word(G2, (0, 1, 0, 1))
    lam = (2, -3)
    expect = lam
    for i in reversed((0, 1, 0, 1)):
        expect = G2.reflect(expect, G2.simple_root(i))
    assert w.act_weight(lam) == expect
    assert w.inverse().act_weight(w.act_weight(lam)) == lam


def test_action_preserves_form():
    w = weyl_from_word(B2, (0, 1, 0))
    for lam in [(1, 0), (0, 1), (2, -1)]:
        for mu in [(1, 1), (1, -1)]:
            assert inner(B2, w.act_weight(lam), w.act_weight(mu)) == inner(B2, lam, mu)


def test_coset_reps_full_group_is_identity():
    reps = shortest_coset_reps(A2, full_subgroup(A2))
    assert len(reps) == 1 and is_identity(reps[0])


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
    rep_mats = {weyl_matrix(r) for r in reps}
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
        wm = weyl_matrix(w)
        for u in subgroup:
            um = mat_mul(u, wm)
            if um != wm:
                assert matrix_length(rs, um) > matrix_length(rs, wm)


COSET_CASES = (
    [("G", 2, "node", k) for k in range(3)]
    + [("F", 4, "node", k) for k in range(5)]
    + [("E", 6, "node", k) for k in range(7)]
    + [("E", 7, "node", 3), ("E", 8, "node", 2)]
    + [("G", 2, "kac", (0, 1, 1)), ("F", 4, "kac", (0, 1, 0, 0, 1)),
       ("E", 6, "kac", (0, 1, 0, 0, 0, 0, 1))]
    + [("B", 3, "trivial", None)]
)
# the 48384 representatives of E8 mod W(2A4), about a second
E8_2A4 = ("E", 8, "node", 5)


def coset_case(label, rank, kind, arg):
    """The root system and subgroup of a COSET_CASES entry: the extended
    diagram without node `arg`, the W_0 of the Kac diagram `arg` (whose
    Delta_0 holds a non-simple root), or the trivial subgroup."""
    rs = build_root_system(label, rank)
    if kind == "node":
        ext = rs.extended_basis()
        gens = [ext[i] for i in range(rank + 1) if i != arg]
        return rs, WeylSubgroup(rs, rs.subsystem_positive_basis(gens))
    if kind == "kac":
        grading = grading_from_kac(build_algebra(rs), KacDiagram.from_labels(rs, arg))
        assert any(b not in {rs.simple_root(i) for i in range(rank)} for b in grading.delta0)
        return rs, grading.weyl_subgroup()
    return rs, WeylSubgroup(rs, ())


@pytest.mark.parametrize("label,rank,kind,arg", COSET_CASES + [E8_2A4])
def test_coset_reps_match_reference_enumeration(label, rank, kind, arg):
    rs, sub = coset_case(label, rank, kind, arg)
    got = [(w.perm, w.word) for w in shortest_coset_reps(rs, sub)]
    assert got == [(w.perm, w.word) for w in reference_shortest_coset_reps(rs, sub)]


@pytest.mark.parametrize("label,rank,kind,arg", COSET_CASES)
def test_coset_reps_come_by_length_then_word(label, rank, kind, arg):
    rs, sub = coset_case(label, rank, kind, arg)
    reps = shortest_coset_reps(rs, sub)
    assert reps == sorted(reps, key=lambda w: (w.length(), w.word))


@pytest.mark.parametrize("label,rank,kind,arg", COSET_CASES)
def test_inverse_simple_images_are_kept_per_element(label, rank, kind, arg):
    rs, sub = coset_case(label, rank, kind, arg)
    reps = shortest_coset_reps(rs, sub)

    def expected(w):
        return bytes(w.inverse().perm[k] for k in rs.simple_indices)

    for w in reps:
        assert w.inverse_simple_images() == expected(w)
        assert w.inverse_simple_images() == expected(w)  # the kept bytes
    # a product or an inverse of elements whose images are kept starts afresh
    if len(reps) > 1:
        w, v = reps[-1], reps[1]
        for u in (w * v, v * w, w.inverse(), v.inverse()):
            assert u.inverse_simple_images() == expected(u)
        assert (w * v).inverse_simple_images() != w.inverse_simple_images()


@functools.lru_cache(maxsize=None)
def least_words_b3():
    """The first word of each element of W(B3), over all words taken by
    length and then lexicographically, keyed by matrix."""
    gens = [reflection_matrix(B3, i) for i in range(3)]
    least = {}
    level = {b"": tuple(tuple(int(a == b) for b in range(3)) for a in range(3))}
    while True:
        for word, m in level.items():
            least.setdefault(m, word)
        if len(least) == 48:
            return least
        level = {word + bytes((i,)): mat_mul(m, g) for word, m in level.items() for i, g in enumerate(gens)}


@pytest.mark.parametrize("basis", [(), ((1, 1, 0),), ((0, 1, 0), (1, 1, 2))])
def test_coset_rep_words_are_least_reduced_words_on_b3(basis):
    least = least_words_b3()
    reps = shortest_coset_reps(B3, WeylSubgroup(B3, basis))
    assert len(reps) * len(subgroup_matrices(B3, basis)) == 48
    for w in reps:
        assert w.word == least[weyl_matrix(w)]
        assert len(w.word) == w.length()


@pytest.mark.parametrize("lam", [(1, 0, 5), (1,)])
def test_weights_of_the_wrong_length_are_refused(lam):
    with pytest.raises(ValueError, match="not rank 2"):
        weyl_simple(A2, 0).act_weight(lam)
    with pytest.raises(ValueError, match="not rank 2"):
        to_subdominant(A2, full_subgroup(A2), lam)


def test_act_weight_matches_the_reference_matrix_on_b3():
    # on every element of W(B3), the image read off the permutation equals
    # the product of the reflection matrices of the element's word applied
    # to the weight, with the weight's number type
    rng = random.Random(3)
    ints = [(1, 0, 0), (0, 0, 1)] + [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(4)]
    fracs = [
        tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4)) for _ in range(3))
        for _ in range(4)
    ]
    gens = [reflection_matrix(B3, i) for i in range(3)]
    ident = tuple(tuple(int(a == b) for b in range(3)) for a in range(3))
    for w in shortest_coset_reps(B3, WeylSubgroup(B3, ())):
        m = functools.reduce(mat_mul, (gens[i] for i in w.word), ident)
        assert weyl_matrix(w) == m
        for lam in ints + fracs:
            image = w.act_weight(lam)
            assert image == mat_vec(m, lam)
            assert {type(x) for x in image} == {type(lam[0])}


def test_to_subdominant_examples():
    full = full_subgroup(A2)
    lam, w = to_subdominant(A2, full, (1, 1))
    assert lam == (1, 1) and is_identity(w)
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
        group = subgroup_matrices(rs, basis)
        assert weyl_matrix(w) in group
        orbit = {mat_vec(m, mu) for m in group}
        dominant = [v for v in orbit if all(rs.pairing(v, b) >= 0 for b in basis)]
        assert lam in orbit
        assert set(dominant) == {lam}


def test_conjugate_tuples_examples():
    full = full_subgroup(A2)
    w = conjugate_tuples(A2, full, [(1, 0), (0, 1)], [(1, 0), (0, 1)])
    assert w is not None and is_identity(w)
    w = conjugate_tuples(A2, full, [(1, 0)], [(0, 1)])
    assert w is not None and w.act_weight((1, 0)) == (0, 1)
    sub = WeylSubgroup(A2, [(1, 0)])
    assert conjugate_tuples(A2, sub, [(0, 1)], [(1, 0)]) is None


def test_conjugate_tuples_rejects_bad_input():
    full = full_subgroup(A2)
    with pytest.raises(ValueError, match="not a root"):
        conjugate_tuples(A2, full, [(2, 0)], [(1, 0)])
    with pytest.raises(ValueError, match="not a root"):
        conjugate_tuples(A2, full, [(1, 0)], [(0, 0)])
    with pytest.raises(ValueError, match="equal length"):
        conjugate_tuples(A2, full, [(1, 0)], [(1, 0), (0, 1)])


def gram(rs, roots):
    return tuple(inner(rs, a, b) for a in roots for b in roots)


@pytest.mark.parametrize(
    "rs,basis",
    [
        (A2, [(1, 0), (0, 1)]),
        (A2, [(0, 1)]),
        (B2, [(1, 0), (0, 1)]),
        (B2, [(1, 0)]),
        (G2, [(1, 0), (0, 1)]),
        (G2, [(0, 1)]),
    ],
)
def test_conjugate_tuples_matches_brute_force_orbits(rs, basis):
    # Pairs of roots are tested against every pair; triples against every
    # triple of the same Gram matrix, since the group keeps the form.  A
    # witness must lie in the subgroup and send each mu_k to lam_k.
    sub = WeylSubgroup(rs, basis)
    group = subgroup_matrices(rs, basis)
    members = set(group)
    for size, shape in ((2, lambda t: ()), (3, lambda t: gram(rs, t))):
        tuples = list(itertools.product(rs.roots, repeat=size))
        alike = {}
        for t in tuples:
            alike.setdefault(shape(t), []).append(t)
        for mus in tuples:
            orbit = {tuple(mat_vec(m, r) for r in mus) for m in group}
            for lams in alike[shape(mus)]:
                w = conjugate_tuples(rs, sub, mus, lams)
                assert (w is not None) == (lams in orbit), (mus, lams)
                if w is not None:
                    assert weyl_matrix(w) in members
                    assert tuple(w.act_weight(r) for r in mus) == lams


@pytest.mark.parametrize("rs", [B3, G2])
def test_from_perm_round_trips_over_the_whole_group(rs):
    # the coset representatives of the trivial subgroup are all of W, each
    # with its least reduced word, which from_perm must read back
    group = shortest_coset_reps(rs, WeylSubgroup(rs, ()))
    assert len(group) == rs.weyl_order()
    for w in group:
        v = WeylElement.from_perm(rs, w.perm)
        assert v == w and v.word == w.word
        assert weyl_from_word(rs, v.word) == v
        assert len(v.word) == v.length()


@pytest.mark.parametrize("label,rank,kind,arg", [("G", 2, "kac", (0, 1, 1)), ("F", 4, "node", 2),
                                                 ("B", 3, "trivial", None)])
def test_every_element_keeps_a_bytes_word_of_itself(label, rank, kind, arg):
    rs, sub = coset_case(label, rank, kind, arg)
    reps = shortest_coset_reps(rs, sub)
    made = list(reps)
    made += [WeylElement.from_perm(rs, w.perm) for w in reps]
    made += [w.inverse() for w in reps]
    made += [u * v for u in reps[:12] for v in reps[-12:]]
    full = WeylSubgroup(rs, [rs.simple_root(i) for i in range(rank)])
    made += [to_subdominant(rs, sub, w.act_weight(rs.highest_root))[1] for w in reps]
    made += [to_subdominant(rs, full, tuple(-x for x in w.act_weight(rs.highest_root)))[1] for w in reps]
    for w in made:
        assert type(w.word) is bytes
        assert weyl_from_word(rs, w.word) == w


def test_coset_reps_of_e8_2a4_stay_small():
    # the list peaks at about 19.0 MB with bytes words (19.4 MB while each
    # element kept a matrix slot) and 31.4 MB with tuple words, which the
    # collector also tracks; the bound lies between
    rs, sub = coset_case(*E8_2A4)
    shortest_coset_reps(rs, sub)  # fills the per-root-system caches
    tracemalloc.start()
    try:
        reps = shortest_coset_reps(rs, sub)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reps) == 48384
    assert peak < 26 * 2**20, peak


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



def parabolic_bases(rs):
    simple = tuple(rs.simple_root(i) for i in range(rs.rank))
    return [simple] + [simple[:i] + simple[i + 1 :] for i in range(rs.rank)]


@st.composite
def block_runs(draw):
    # a run of (subgroup, blocks) keys on one root system: the first blocks
    # come from a pool of two, so most of them repeat, each may go with
    # either of two subgroup bases, and one or two blocks follow
    rs = draw(st.sampled_from([A3, B3, G2]))
    roots = st.sampled_from(rs.roots)
    bases = draw(st.lists(st.sampled_from(parabolic_bases(rs)), min_size=2, max_size=2, unique=True))
    pool = draw(st.lists(st.lists(roots, min_size=1, max_size=3, unique=True), min_size=2, max_size=2))
    later = st.lists(st.lists(roots, max_size=3, unique=True), min_size=1, max_size=2)
    items = draw(st.lists(st.tuples(st.sampled_from(bases), st.sampled_from(pool), later), min_size=1, max_size=8))
    return rs, [(WeylSubgroup(rs, basis), (first, *rest)) for basis, first, rest in items]


@given(block_runs())
# elements that the first block leaves apart may give the middle block equal
# images and the last block different ones
@example((A3, [(full_subgroup(A3), ([(0, 0, 1), (0, 0, -1)], [(1, 0, 0)], [(0, 1, 0), (1, 1, 1)]))]))
@example((A3, [(full_subgroup(A3), ([(-1, 0, 0), (-1, -1, 0)], [(0, 1, 0), (0, -1, 0)], [(1, 0, 0)]))]))
@settings(max_examples=150, deadline=None)
def test_keys_with_repeated_first_blocks_match_the_reference_search(run):
    # the first block's search is kept per root system, subgroup basis and
    # block, and the later blocks start from each element it left
    rs, items = run
    for sub, blocks in items:
        assert conjugacy_key(rs, sub, blocks) == reference_least_images(rs, sub, blocks)[0], blocks


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

    def moves(item, orbit):
        expanded.append(item)
        return graph[item]

    assert conjugacy_classes(A2, full, [a], moves=moves) == [a, b, ()]
    # the repeated a is skipped, and c, met after b, is never expanded
    assert expanded == [a, b, ()]

def test_subgroup_validation():
    with pytest.raises(ValueError, match="not positive"):
        WeylSubgroup(A2, [(-1, 0)])
    # the pi-system checks are RootSystem.check_pi_system's, as for the
    # lowest root of a subsystem
    with pytest.raises(ValueError, match=r"not a pi-system: \(1, 1\) - \(1, 0\) is a root"):
        WeylSubgroup(A2, [(1, 0), (1, 1)])
    with pytest.raises(ValueError, match="not a pi-system: its roots are linearly dependent"):
        WeylSubgroup(A2, [(1, 0), (1, 0)])
    with pytest.raises(ValueError, match="not a root"):
        WeylSubgroup(A2, [(1, 0), (0, 2)])


def test_group_law_on_all_of_b3():
    group = shortest_coset_reps(B3, WeylSubgroup(B3, ()))
    assert len(group) == 48
    for u in group:
        assert is_identity(u * u.inverse())
        for v in group:
            assert weyl_matrix(u * v) == mat_mul(weyl_matrix(u), weyl_matrix(v))
            assert (u == v) == (weyl_matrix(u) == weyl_matrix(v))
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


@pytest.mark.parametrize("label,rank", [("A", 15), ("B", 11), ("C", 11), ("D", 11), ("A", 16), ("B", 12)])
def test_weyl_permutations_stop_at_256_roots(label, rank):
    rs = build_root_system(label, rank)
    basis = [rs.simple_root(i) for i in range(rs.rank)]
    if len(rs.roots) > 256:
        with pytest.raises(ValueError, match=f"{label}{rank} has {len(rs.roots)} roots.*at most 256"):
            WeylSubgroup(rs, basis)
        with pytest.raises(ValueError, match="at most 256"):
            weyl_simple(rs, 0)
    else:
        assert [w.word for w in shortest_coset_reps(rs, WeylSubgroup(rs, basis))] == [b""]
        s0 = weyl_simple(rs, 0)
        assert WeylElement.from_perm(rs, s0.perm).word == b"\x00" and s0.length() == 1
