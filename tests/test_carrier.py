import logging
import os
import subprocess
import sys
from collections import Counter
from operator import mul
from pathlib import Path

import pytest

import nilorb.weyl as weyl_module
from nilorb import (
    GradedCandidate,
    InternalConsistencyError,
    KacDiagram,
    build_algebra,
    build_root_system,
    candidate_pi_systems,
    classify_by_carriers,
    classify_by_characteristics,
    completion,
    conjugacy_key,
    enumerate_kac_diagrams,
    grading_from_kac,
    linalg,
    principal_nregular_grading,
)
from nilorb.carrier import _difference_masks
from nilorb.weyl import conjugate_sets

from oracles import (
    is_pi_system,
    mat_vec,
    orbit_ids,
    reference_candidate_pi_systems,
    reference_candidates,
    reference_completion,
    reference_difference_masks,
    reference_least_images,
    reference_phi1_span,
    root_value,
    same_partition,
    subgroup_matrices,
)

A1 = build_algebra(build_root_system("A", 1))
A3 = build_algebra(build_root_system("A", 3))
G2 = build_algebra(build_root_system("G", 2))
F4 = build_algebra(build_root_system("F", 4))
E6 = build_algebra(build_root_system("E", 6))


def gradings_of(alg, orders):
    return [grading_from_kac(alg, kd) for m in orders for kd in enumerate_kac_diagrams(alg.rs, m)]


def a3_example_grading():
    return grading_from_kac(A3, KacDiagram.from_labels(A3.rs, (1, 1, 1, 0)))


def test_candidates_a1():
    g = grading_from_kac(A1, KacDiagram.from_labels(A1.rs, (1, 1)))
    cands = candidate_pi_systems(g)
    assert GradedCandidate((), ()) in cands
    assert GradedCandidate((), ((1,),)) in cands
    assert GradedCandidate((), ((-1,),)) in cands
    assert len(cands) == 3  # the degree-0 Weyl group is trivial here


def test_candidates_always_include_empty():
    g = grading_from_kac(G2, KacDiagram.from_labels(G2.rs, (0, 0, 1)))
    assert GradedCandidate((), ()) in candidate_pi_systems(g)


def test_candidates_are_graded_pi_systems():
    g = grading_from_kac(G2, KacDiagram.from_labels(G2.rs, (1, 0, 1)))
    phi0, phi1 = set(g.phi0), set(g.phi1)
    for cand in candidate_pi_systems(g):
        assert set(cand.pi0) <= phi0
        assert set(cand.pi1) <= phi1
        assert is_pi_system(G2.rs, cand.roots())


def test_sl4_example_candidate_present_up_to_conjugacy():
    g = a3_example_grading()
    example = GradedCandidate((), ((-1, -1, 0), (0, 1, 0)))
    cands = candidate_pi_systems(g)
    w0 = g.weyl_subgroup()
    hits = [
        c
        for c in cands
        if not c.pi0
        and len(c.pi1) == 2
        and conjugate_sets(A3.rs, w0, c.pi1, example.pi1) is not None
    ]
    assert hits


def test_candidate_keys_match_brute_force_orbits():
    # every W_0-image of every candidate, as (pi0, pi1) blocks
    g = a3_example_grading()
    w0 = g.weyl_subgroup()
    group = subgroup_matrices(A3.rs, w0.basis)
    items = sorted(
        {
            tuple(tuple(sorted(mat_vec(m, r) for r in block)) for block in (c.pi0, c.pi1))
            for c in candidate_pi_systems(g)
            for m in group
        }
    )
    keys = [conjugacy_key(A3.rs, w0, blocks) for blocks in items]
    assert same_partition(keys, orbit_ids(A3.rs, w0.basis, items))
    assert len(set(keys)) < len(items)



def test_candidate_classes_match_exhaustive_enumeration():
    f4 = build_algebra(build_root_system("F", 4))
    gradings = [grading_from_kac(G2, kd) for m in (2, 3, 4) for kd in enumerate_kac_diagrams(G2.rs, m)]
    gradings.append(a3_example_grading())
    gradings += [grading_from_kac(f4, kd) for kd in enumerate_kac_diagrams(f4.rs, 3)]
    for g in gradings:
        w0 = g.weyl_subgroup()
        got = [conjugacy_key(g.rs, w0, (c.pi0, c.pi1)) for c in candidate_pi_systems(g)]
        assert len(set(got)) == len(got), g
        expected = {conjugacy_key(g.rs, w0, (c.pi0, c.pi1)) for c in reference_candidates(g)}
        assert set(got) == expected, g


def test_class_search_keys_match_the_reference_search(monkeypatch):
    # every key the class search asks for, the first blocks kept across
    # the gradings of one root system, against the search that carries
    # every block in every state; keying one child per stabiliser orbit,
    # the search asks for fewer (pi0, pi1) keys than the search that keys
    # every admissible child on the same gradings (4945 against 7731)
    asked = []
    search = weyl_module._least_images

    def recording(rs, sub, blocks):
        found = search(rs, sub, blocks)
        asked.append((rs, sub, blocks, found[0]))
        return found

    monkeypatch.setattr(weyl_module, "_least_images", recording)
    gradings = gradings_of(G2, range(1, 7)) + gradings_of(F4, (2, 3, 4)) + gradings_of(E6, (2, 3))
    for g in gradings:
        candidate_pi_systems(g)
    two_block = [blocks for _, _, blocks, _ in asked if all(blocks)]
    assert len(two_block) > 1000
    assert len({blocks[0] for blocks in two_block}) < len(two_block) / 10
    for rs, sub, blocks, key in asked:
        assert key == reference_least_images(rs, sub, blocks)[0], blocks
    pruned = sum(len(blocks) == 2 for _, _, blocks, _ in asked)
    asked.clear()
    for g in gradings:
        reference_candidate_pi_systems(g)
    unpruned = sum(len(blocks) == 2 for _, _, blocks, _ in asked)
    assert pruned < unpruned


def test_inherited_root_kernels_span_the_kernel():
    # a candidate made by the class-search move derives its root kernel
    # from its parent's; it must mark the same roots as linalg.nullspace
    gradings = gradings_of(F4, range(2, 7)) + [principal_nregular_grading(E6, 7)]
    derived = 0
    for g in gradings:
        rs = g.rs
        for cand in candidate_pi_systems(g):
            roots = cand.roots()
            kernel = cand.root_kernel(rs.rank)
            assert len(kernel) == rs.rank - len(roots), cand
            assert not any(sum(map(mul, k, r)) for k in kernel for r in roots), cand
            reference, _ = linalg.nullspace(roots, rs.rank)
            derived += kernel != [tuple(v) for v in reference]
            for r in rs.roots:
                marked = not any(sum(map(mul, k, r)) for k in kernel)
                assert marked == (not any(sum(map(mul, k, r)) for k in reference)), (cand, r)
    assert derived > 100


def test_kept_phi1_span_is_the_span():
    # the span set the class-search move keeps on each candidate it
    # expands, and the one a hand-built candidate computes on demand, hold
    # the roots of Phi_1 that leave the rank unchanged; m = 1 and m = 2
    # included, and candidates of full rank (empty kernel, the whole of
    # Phi_1) and of one kernel vector (paired without packing)
    gradings = gradings_of(G2, (1, 2, 3)) + gradings_of(F4, (2, 4)) + [principal_nregular_grading(E6, 7)]
    checked = Counter()
    for g in gradings:
        for cand in candidate_pi_systems(g):
            assert "_phi1_span" in cand.__dict__, cand
            reference = reference_phi1_span(g, cand)
            assert cand.phi1_span(g) == reference, (g, cand)
            assert GradedCandidate(cand.pi0, cand.pi1).phi1_span(g) == reference, (g, cand)
            checked[g.rs.rank - len(cand.roots())] += 1
            if len(cand.roots()) == g.rs.rank:
                assert reference == g.phi1_mask, (g, cand)
    assert sum(checked.values()) > 500
    assert checked[0] > 50 and checked[1] > 50, checked
    g = a3_example_grading()
    example = GradedCandidate((), ((-1, -1, 0), (0, 1, 0)))
    assert example.phi1_span(g) == reference_phi1_span(g, example) != 0


def test_count_bound_skips_only_candidates_that_are_not_flat():
    # a flat completion has |pi| + |psi0| = |psi1|, psi1 lies in Phi_1 and
    # the span of pi, and psi0 holds every root +-b with b in pi0; so a
    # candidate with fewer than |pi1| + 3 |pi0| roots of Phi_1 in its span
    # is never flat, and the walk does not complete it.  Both counts are
    # W_0-invariant (W_0 keeps Phi_1 and maps spans to spans)
    gradings = gradings_of(G2, range(2, 7)) + gradings_of(F4, range(2, 5))
    completed = skipped = 0
    for g in gradings:
        for cand in candidate_pi_systems(g):
            if not cand.pi1:
                continue
            completed += 1
            if cand.phi1_span(g).bit_count() < len(cand.pi1) + 3 * len(cand.pi0):
                skipped += 1
                comp = completion(g, cand)
                assert comp is not None and not comp.flat, (g, cand)
    assert (skipped, completed) == (177, 692)


def test_difference_masks_match_every_pair():
    for label, rank in [("A", 5), ("B", 4), ("C", 4), ("D", 5), ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]:
        alg = build_algebra(build_root_system(label, rank))
        assert _difference_masks(alg) == reference_difference_masks(alg.rs), (label, rank)


def test_candidates_with_no_degree_one_root_are_never_flat():
    # the walk skips their completion: h0 = 0 solves the system
    checked = 0
    for g in gradings_of(F4, range(2, 7)) + gradings_of(E6, (2, 3)):
        for cand in candidate_pi_systems(g):
            if cand.pi0 and not cand.pi1:
                comp = completion(g, cand)
                assert comp is not None and not any(comp.hnum), cand
                assert comp.psi1 == () and not comp.flat, cand
                checked += 1
    assert checked > 100


def test_completion_matches_fraction_reference():
    f4 = build_algebra(build_root_system("F", 4))
    gradings = [grading_from_kac(G2, kd) for m in (1, 2, 3, 4) for kd in enumerate_kac_diagrams(G2.rs, m)]
    gradings.append(a3_example_grading())
    gradings += [grading_from_kac(f4, kd) for kd in enumerate_kac_diagrams(f4.rs, 3)]
    checked = 0
    for g in gradings:
        for cand in candidate_pi_systems(g):
            if cand.is_empty():
                continue
            got, expected = completion(g, cand), reference_completion(g, cand)
            assert (got is None) == (expected is None), (g, cand)
            checked += 1
            if got is None:
                continue
            assert g.alg.cartan(got.hnum, got.den) == expected.h0, (g, cand)
            assert (got.psi0, got.psi1, got.flat) == (expected.psi0, expected.psi1, expected.flat)
            # the kernel the walk tests membership with cuts out the roots on
            # which the reference centraliser directions vanish
            kernel = cand.root_kernel(g.rs.rank)
            assert len(kernel) == len(expected.z_basis), (g, cand)
            for r in g.rs.roots:
                in_span = not any(sum(map(mul, k, r)) for k in kernel)
                assert in_span == all(root_value(g.alg, r, z) == 0 for z in expected.z_basis), (g, cand, r)
            assert got.den > 0
            assert got.values == [got.den * root_value(g.alg, r, expected.h0) for r in g.rs.roots]
    assert checked == 363


def test_completion_of_an_inconsistent_candidate_is_none():
    # alpha(h0) = 1 and (-alpha)(h0) = 1 have no common solution
    g = grading_from_kac(A1, KacDiagram.from_labels(A1.rs, (1, 1)))
    assert completion(g, GradedCandidate((), ((-1,), (1,)))) is None


def test_candidate_move_matches_is_pi_system_move():
    # same candidates in the same order: the member of each W_0-class that
    # the class search keeps, and the sort by size, pi0 and pi1.  The draws
    # are keyed on h (characteristics.h_rng), not on a candidate's index, so
    # this pins the search itself rather than any record
    for g in gradings_of(F4, (3, 4)) + gradings_of(E6, (2,)):

        def pi_system_move(cand, r, rs=g.rs):
            return r not in cand.pi1 and is_pi_system(rs, cand.roots() + (r,))

        got = candidate_pi_systems(g)
        assert got == reference_candidate_pi_systems(g, pi_system_move), g


def test_one_child_per_stabiliser_orbit_keeps_every_class():
    # the class search keys one admissible child per orbit of the
    # representative's pointwise stabiliser; the search that keys every
    # admissible child gives the same ordered (pi0, pi1) list on all 94 Kac
    # diagrams of G2 orders 1-6, F4 2-6, E6 2-4 and E7 2-3
    e7 = build_algebra(build_root_system("E", 7))
    gradings = (
        gradings_of(G2, range(1, 7)) + gradings_of(F4, range(2, 7))
        + gradings_of(E6, range(2, 5)) + gradings_of(e7, range(2, 4))
    )
    assert len(gradings) == 94
    for g in gradings:
        got = [(c.pi0, c.pi1) for c in candidate_pi_systems(g)]
        assert got == [(c.pi0, c.pi1) for c in reference_candidate_pi_systems(g)], g


def test_sl4_example_completion_is_itself():
    g = a3_example_grading()
    comp = completion(g, GradedCandidate((), ((-1, -1, 0), (0, 1, 0))))
    assert comp is not None and comp.flat
    assert comp.psi0 == ()
    assert set(comp.psi1) == {(-1, -1, 0), (0, 1, 0)}
    # the defining element is -e_11 + e_22 in matrix terms: coroot coords (-1, 0, 0)
    h0 = A3.cartan(comp.hnum, comp.den)
    assert tuple(h0.cartan_part()) == (-1, 0, 0)
    for alpha in ((-1, -1, 0), (0, 1, 0)):
        assert root_value(A3, alpha, h0) == 1


def test_single_root_candidate_completion():
    g = grading_from_kac(A1, KacDiagram.from_labels(A1.rs, (1, 1)))
    comp = completion(g, GradedCandidate((), ((1,),)))
    assert comp is not None and comp.flat
    assert root_value(A1, (1,), A1.cartan(comp.hnum, comp.den)) == 1
    assert comp.psi1 == ((1,),)


def test_non_flat_candidate_exists_in_g2_order2():
    g = grading_from_kac(G2, KacDiagram.from_labels(G2.rs, (0, 0, 1)))
    flags = []
    for cand in candidate_pi_systems(g):
        if cand.is_empty():
            continue
        comp = completion(g, cand)
        if comp is not None:
            flags.append(comp.flat)
    assert False in flags and True in flags


def test_completion_rejects_empty_candidate():
    g = grading_from_kac(A1, KacDiagram.from_labels(A1.rs, (1, 1)))
    with pytest.raises(ValueError):
        completion(g, GradedCandidate((), ()))


@pytest.mark.parametrize(
    "alg,labels",
    [
        (A1, (1, 1)),
        (G2, (0, 0, 1)),
        (G2, (1, 0, 1)),
        (A3, (1, 1, 1, 0)),
    ],
)
def test_methods_agree(alg, labels):
    g = grading_from_kac(alg, KacDiagram.from_labels(alg.rs, labels))
    k1 = sorted(r.h_key() for r in classify_by_characteristics(g))
    k2 = sorted(r.h_key() for r in classify_by_carriers(g))
    assert k1 == k2


def test_methods_agree_on_classical_types():
    from nilorb import enumerate_kac_diagrams

    for lbl, rk, orders in [("B", 3, (2, 3)), ("C", 3, (2, 3)), ("D", 4, (2,)), ("A", 4, (2,))]:
        alg = build_algebra(build_root_system(lbl, rk))
        for m in orders:
            for kd in enumerate_kac_diagrams(alg.rs, m):
                g = grading_from_kac(alg, kd)
                k1 = sorted(r.h_key() for r in classify_by_characteristics(g))
                k2 = sorted(r.h_key() for r in classify_by_carriers(g))
                assert k1 == k2, (lbl, rk, kd.labels)


def test_conjugate_candidates_yield_same_canonical_h():
    # applying a degree-preserving Weyl-subgroup element to a candidate must
    # not change the canonical h of its completion
    from nilorb.weyl import to_subdominant
    from oracles import cartan_from_dual_weight, dual_weight, root_reflection_matrix

    g = grading_from_kac(G2, KacDiagram.from_labels(G2.rs, (0, 0, 1)))
    wl = g.weyl_subgroup()
    w = root_reflection_matrix(G2.rs, g.delta0[0])
    for cand in candidate_pi_systems(g):
        if cand.is_empty():
            continue
        comp = completion(g, cand)
        if comp is None or not comp.flat:
            continue
        moved = GradedCandidate(
            tuple(sorted(mat_vec(w, r) for r in cand.pi0)),
            tuple(sorted(mat_vec(w, r) for r in cand.pi1)),
        )
        comp2 = completion(g, moved)
        assert comp2 is not None and comp2.flat
        def canon(c):
            lam, _ = to_subdominant(G2.rs, wl, dual_weight(G2, G2.cartan(c.hnum, c.den).scale(2)))
            return tuple(cartan_from_dual_weight(G2, lam).cartan_part())
        assert canon(comp) == canon(comp2)


def test_carrier_walk_counts_go_to_the_debug_log(caplog, capsys):
    g = grading_from_kac(G2, KacDiagram.from_labels(G2.rs, (0, 0, 1)))
    with caplog.at_level(logging.DEBUG, logger="nilorb.carrier"):
        records = classify_by_carriers(g)
    assert len(records) == 6
    line = (
        f"{g}: 13 candidates, 12 non-empty, 0 skipped by the count bound, 7 flat, "
        "5 distinct h, 6 records"
    )
    assert caplog.messages.count(line) == 1
    assert capsys.readouterr().out == ""


def test_flat_carrier_must_be_normal(monkeypatch):
    import nilorb.carrier as carrier_mod

    g = grading_from_kac(A1, KacDiagram.from_labels(A1.rs, (1, 1)))
    monkeypatch.setattr(carrier_mod, "decide_normal", lambda *a, **k: None)
    with pytest.raises(
        InternalConsistencyError,
        match=r"ThetaGrading\(A1, m=2\) with simple-root degrees 1: flat carrier .* "
        r"produced non-normal canonical h = ",
    ):
        classify_by_carriers(g)


def test_candidate_without_defining_element_is_an_error(monkeypatch):
    # a class-search candidate has independent roots, so its Cartan system
    # is nonsingular; a completion that finds no defining element is a
    # broken guarantee, not a candidate to skip
    import nilorb.carrier as carrier_mod

    g = grading_from_kac(G2, KacDiagram.from_labels(G2.rs, (0, 0, 1)))
    monkeypatch.setattr(carrier_mod, "completion", lambda grading, cand: None)
    with pytest.raises(
        InternalConsistencyError,
        match=r"ThetaGrading\(G2, m=2\) with simple-root degrees 0,1: candidate .* "
        r"has no defining element",
    ):
        classify_by_carriers(g)


ROOT = Path(__file__).resolve().parents[1]
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
)

# With the argument "F4-first", runs the carrier walk on every F4 grading of
# order 3 first; then prints the full records of E6 principal order 7
# (method 2, seed 1), one line per record.
ISOLATION_RUN = """
import sys
import nilorb
if sys.argv[1:] == ["F4-first"]:
    f4 = nilorb.build_algebra(nilorb.build_root_system("F", 4))
    for kd in nilorb.enumerate_kac_diagrams(f4.rs, 3):
        nilorb.classify_orbits(nilorb.grading_from_kac(f4, kd), method="2")
e6 = nilorb.build_algebra(nilorb.build_root_system("E", 6))
g = nilorb.principal_nregular_grading(e6, 7)
for r in nilorb.classify_orbits(g, method="2", seed=1):
    print(r.h.to_triples(), r.e.to_triples(), r.f.to_triples(), r.ambient_wdd.labels, r.dim)
"""


def test_carrier_results_do_not_depend_on_earlier_gradings():
    # the kernels the candidates keep and the pi-system classes shared per
    # Delta_0 must not leak from one root system into another: E6 after the
    # F4 gradings gives the records of E6 in a fresh process
    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-c", ISOLATION_RUN, *args],
            capture_output=True, text=True, env=ENV, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    fresh = run()
    assert len(fresh.splitlines()) > 1
    assert run("F4-first") == fresh
