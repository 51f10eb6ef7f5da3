import logging
from itertools import product

import pytest

from nilorb import (
    KacDiagram,
    LieElement,
    WeightedDynkinDiagram,
    build_algebra,
    build_root_system,
    classify_by_characteristics,
    classify_orbits,
    classify_nilpotent_g,
    decide_normal,
    decide_normal_int,
    enumerate_kac_diagrams,
    grading_from_kac,
    h_from_wdd,
    normal_list,
    nregular_kac_diagram,
    shortest_coset_reps,
    trivial_grading,
)
from nilorb import characteristics, linalg
from oracles import (
    dual_weight,
    graded_sl2_bound_of,
    is_nilpotent,
    partition_count,
    reference_classify_nilpotent_g,
    reference_complete_sl2,
    reference_normal_list,
)

A1 = build_algebra(build_root_system("A", 1))
A2 = build_algebra(build_root_system("A", 2))
A3 = build_algebra(build_root_system("A", 3))
G2 = build_algebra(build_root_system("G", 2))
B3 = build_algebra(build_root_system("B", 3))
F4 = build_algebra(build_root_system("F", 4))


def test_h_from_wdd_examples():
    assert h_from_wdd(A2, WeightedDynkinDiagram((0, 0))).is_zero()
    assert h_from_wdd(A1, WeightedDynkinDiagram((2,))) == A1.coroot((1,))
    assert h_from_wdd(A2, WeightedDynkinDiagram((1, 1))) == A2.cartan([1, 1])


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_type_a_counts_match_partitions(rank):
    alg = build_algebra(build_root_system("A", rank))
    assert len(classify_nilpotent_g(alg)) == partition_count(rank + 1)


def test_classification_includes_zero_and_regular():
    chars = classify_nilpotent_g(A2)
    wdds = {c[0].labels for c in chars}
    assert (0, 0) in wdds and (2, 2) in wdds


def test_decide_normal_zero_h():
    g = grading_from_kac(A1, KacDiagram.from_labels(A1.rs, (1, 1)))
    assert decide_normal(g, A1.zero()) is None


def test_decide_normal_a1():
    g = grading_from_kac(A1, KacDiagram.from_labels(A1.rs, (1, 1)))
    triple = decide_normal(g, A1.coroot((1,)))
    assert triple is not None
    assert triple.e.coeffs.keys() == {A1.rs.root_index[(1,)]}


def test_decide_normal_rejects_non_normal():
    # order-3 grading of G2 where some dominant image is not normal
    g = grading_from_kac(G2, KacDiagram.from_labels(G2.rs, (0, 1, 0)))
    chars = classify_nilpotent_g(G2)
    found = sum(
        1
        for wdd, h in chars
        if not wdd.is_zero() and decide_normal(g, h, seed=1) is not None
    )
    assert found < len(chars) - 1  # at least one dominant characteristic fails


def test_decide_normal_int_matches_decide_normal():
    # the integer entry point returns decide_normal's triple (or None) under
    # the same seed, from the least den and from a den three times larger:
    # the draws are keyed on h, not on its integer form
    cases = [
        (trivial_grading(alg), h)
        for alg in (G2, F4)
        for wdd, h in classify_nilpotent_g(alg)
        if not wdd.is_zero()
    ]
    for labels in [(0, 0, 1, 0, 0), (1, 1, 0, 0, 0)]:
        g = grading_from_kac(F4, KacDiagram.from_labels(F4.rs, labels))
        cases += [(g, r.h) for r in classify_orbits(g) if not r.is_zero()]
        cases += [(g, h) for wdd, h in classify_nilpotent_g(F4) if not wdd.is_zero()]
    normal = 0
    for g, h in cases:
        expected = decide_normal(g, h, seed=7)
        hnum, den, values = g.alg.cartan_values(h)
        for k in (1, 3):
            got = decide_normal_int(g, [k * x for x in hnum], k * den, [k * v for v in values], 7)
            assert got == expected, (g, h, k)
        normal += expected is not None
    assert 0 < normal < len(cases)


def test_decide_normal_sl4_example():
    g = grading_from_kac(A3, KacDiagram.from_labels(A3.rs, (1, 1, 1, 0)))
    from nilorb.carrier import GradedCandidate, completion

    comp = completion(g, GradedCandidate((), ((-1, -1, 0), (0, 1, 0))))
    triple = decide_normal(g, comp.h0.scale(2))
    assert triple is not None
    allowed = {
        A3.rs.root_index[r] for r in [(0, 1, 0), (0, 1, 1), (-1, -1, 0), (-1, -1, -1)]
    }
    assert set(triple.e.coeffs) <= allowed


def test_normal_list_a1():
    g = grading_from_kac(A1, KacDiagram.from_labels(A1.rs, (1, 1)))
    reps = shortest_coset_reps(A1.rs, g.weyl_subgroup())
    assert len(reps) == 2
    triples = normal_list(g, reps, A1.coroot((1,)))
    assert len(triples) == 2
    hs = {tuple(t.h.cartan_part()) for t in triples}
    assert hs == {(1,), (-1,)}


def test_normal_list_single_coset_for_trivial_grading():
    g = trivial_grading(A2)
    reps = shortest_coset_reps(A2.rs, g.weyl_subgroup())
    assert len(reps) == 1
    triples = normal_list(g, reps, A2.cartan([1, 1]))
    assert len(triples) == 1


def test_method1_a1_records():
    g = grading_from_kac(A1, KacDiagram.from_labels(A1.rs, (1, 1)))
    records = classify_by_characteristics(g)
    assert len(records) == 3
    assert records[0].is_zero()
    keys = {r.h_key() for r in records}
    assert keys == {(0,), (1,), (-1,)}


def test_method1_g2_order2():
    g = grading_from_kac(G2, KacDiagram.from_labels(G2.rs, (0, 0, 1)))
    records = classify_by_characteristics(g)
    assert len(records) == 6  # zero plus 5 nonzero orbits
    for r in records:
        if r.is_zero():
            continue
        # normal sl2 relations with the correct graded placement
        assert G2.bracket(r.h, r.e) == r.e.scale(2)
        assert G2.bracket(r.h, r.f) == r.f.scale(-2)
        assert G2.bracket(r.e, r.f) == r.h
        assert r.h.is_cartan()
        for k in r.e.coeffs:
            assert g.deg_by_index[k] == 1
        for k in r.f.coeffs:
            assert g.deg_by_index[k] == (g.m - 1) % g.m
        values = G2.cartan_values(r.h)[2]  # beta(h) >= 0 on Delta_0: h in C_l + r
        assert all(values[G2.rs.root_index[b]] >= 0 for b in g.delta0)
        assert is_nilpotent(G2, r.e)
        assert set(r.ambient_wdd.labels) <= {0, 1, 2}


def test_retry_budget_error(monkeypatch):
    from nilorb import RetryBudgetError

    class ZeroRng:
        def randint(self, a, b):
            return 0

    monkeypatch.setattr(characteristics, "h_rng", lambda seed, hnum, den: ZeroRng())
    g = grading_from_kac(A1, KacDiagram.from_labels(A1.rs, (1, 1)))
    h = A1.coroot((1,))
    with pytest.raises(RetryBudgetError) as err:
        decide_normal(g, h)
    message = str(err.value)
    assert message.startswith("ThetaGrading(A1, m=2): ")
    assert f"h = {h!r}" in message


def test_records_are_deterministic_for_fixed_seed():
    g = grading_from_kac(G2, KacDiagram.from_labels(G2.rs, (0, 0, 1)))
    a = classify_by_characteristics(g, seed=7)
    b = classify_by_characteristics(g, seed=7)
    assert [(r.h_key(), sorted(r.e.coeffs.items())) for r in a] == [
        (r.h_key(), sorted(r.e.coeffs.items())) for r in b
    ]
    c = classify_by_characteristics(g, seed=8)
    assert [r.h_key() for r in a] == [r.h_key() for r in c]  # h set independent of seed


def recorded_completions(monkeypatch, run):
    """(h, e, result) of every completion _normal_triple decides in run(),
    None results included; e is read off the generator's last draws."""
    calls, draws = [], []
    original, make_rng = characteristics._normal_triple, characteristics.h_rng

    class RecordingRng:
        def __init__(self, rng):
            self.rng = rng

        def randint(self, a, b):
            draws.append(self.rng.randint(a, b))
            return draws[-1]

    def record(grading, eye, hnum, den, values, seed):
        draws.clear()
        result = original(grading, eye, hnum, den, values, seed)
        e = LieElement(grading.alg, dict(zip(eye, draws[-len(eye):])))
        assert result is None or result.e == e
        calls.append((grading.alg.cartan(hnum, den), e, result))
        return result

    monkeypatch.setattr(characteristics, "h_rng", lambda *key: RecordingRng(make_rng(*key)))
    monkeypatch.setattr(characteristics, "_normal_triple", record)
    run()
    return calls


def eye_f_space(grading, h):
    """The -2 root vectors x_-gamma of the roots gamma of g_1 with gamma(h) = 2."""
    alg = grading.alg
    _, den, values = alg.cartan_values(h)
    return [
        alg.root_vector(tuple(-c for c in alg.rs.roots[i]))
        for i in grading.phi1_indices
        if values[i] == 2 * den
    ]


def assert_matches_reference(grading, calls):
    assert any(c[-1] is None for c in calls) and any(c[-1] is not None for c in calls)
    for h, e, result in calls:
        assert result == reference_complete_sl2(grading.alg, h, e, eye_f_space(grading, h))


@pytest.mark.parametrize(
    "label, rank, classify",
    [
        # every G2 vector that passes the sl2 test has an f, so G2 records the
        # completions of the reference, which tests every label vector
        pytest.param("G", 2, reference_classify_nilpotent_g, id="G-2"),
        # __wrapped__ bypasses the per-algebra cache, so every test runs
        pytest.param("F", 4, classify_nilpotent_g.__wrapped__, id="F-4"),
        pytest.param("E", 6, classify_nilpotent_g.__wrapped__, id="E-6"),
    ],
)
def test_complete_sl2_matches_dense_reference_on_ambient_calls(monkeypatch, label, rank, classify):
    # the Killing-form completion of the ambient loop against the dense solve
    alg = build_algebra(build_root_system(label, rank))
    calls = recorded_completions(monkeypatch, lambda: classify(alg))
    assert_matches_reference(trivial_grading(alg), calls)


def test_complete_sl2_matches_dense_reference_on_a_method1_grading(monkeypatch):
    # the graded sl2 bound leaves this order-3 sweep one image with no f, out
    # of 20 completions; on 0,1,0,0,1 it leaves none
    g = grading_from_kac(F4, KacDiagram.from_labels(F4.rs, (0, 0, 1, 0, 0)))
    classify_nilpotent_g(F4)  # record only the sweep, not the ambient loop
    calls = recorded_completions(monkeypatch, lambda: classify_by_characteristics(g))
    assert len(calls) == 20 and sum(c[-1] is None for c in calls) == 1
    assert_matches_reference(g, calls)


def test_killing_weights_are_inverse_squared_lengths():
    # alpha_1 of G2 and alpha_3 of B3 are short
    assert [G2.killing_weights[i] for i in G2.rs.simple_indices] == [3, 1]
    assert [B3.killing_weights[i] for i in B3.rs.simple_indices] == [1, 1, 2]
    assert sorted(G2.killing_weights) == [1] * 6 + [3] * 6
    assert set(A3.killing_weights) == {1}
    for alg in (G2, B3, F4, A3):
        weights, rs = alg.killing_weights, alg.rs
        lmax = max(rs.length2(r) for r in rs.roots)
        assert all(w * rs.length2(r) == lmax for w, r in zip(weights, rs.roots))


@pytest.mark.parametrize(
    "label, rank, labels",
    [("G", 2, (2, 2)), ("G", 2, (0, 2)), ("B", 3, (1, 0, 1)), ("B", 3, (2, 2, 0)),
     ("C", 3, (2, 1, 0)), ("C", 3, (0, 0, 2))],
)
def test_completion_with_long_and_short_eye_roots_matches_dense_reference(label, rank, labels):
    # a wrong weight on either root length would give another f, or none
    alg = build_algebra(build_root_system(label, rank))
    triv = trivial_grading(alg)
    h = h_from_wdd(alg, WeightedDynkinDiagram(labels))
    _, den, values = alg.cartan_values(h)
    eye = [r for i, r in enumerate(alg.rs.roots) if values[i] == 2 * den]
    assert len({alg.rs.length2(r) for r in eye}) == 2
    triple = decide_normal(triv, h)
    assert triple is not None
    assert triple == reference_complete_sl2(alg, h, triple.e, eye_f_space(triv, h))


def test_decide_normal_is_none_when_no_f_solves_e_f_equal_h():
    # alpha_1 is the only root of g_1 with alpha(h) = 2, and [x_1, x_-1] = h_1
    # cannot reach the h_2 part of h = 2h_1 + 2h_2
    h = A2.cartan([2, 2])
    for kac in ((1, 1, 0), (2, 1, 0)):
        g = grading_from_kac(A2, KacDiagram.from_labels(A2.rs, kac))
        assert eye_f_space(g, h) == [A2.root_vector((-1, 0))]
        assert decide_normal(g, h) is None


@pytest.mark.parametrize(
    "label, rank", [("G", 2), ("B", 3), ("C", 3), ("D", 4), ("A", 4), ("F", 4), ("E", 6)]
)
def test_classify_nilpotent_g_matches_the_fraction_reference(label, rank):
    alg = build_algebra(build_root_system(label, rank))
    assert classify_nilpotent_g.__wrapped__(alg) == reference_classify_nilpotent_g(alg)


# label vectors in {0, 1, 2}^l \ {0} that pass the sl2 test (d_k >= d_{k+2}
# and d_1 even)
SL2_SURVIVORS = {
    ("A", 1): 1, ("A", 2): 6, ("A", 3): 16, ("A", 4): 44, ("B", 2): 5, ("B", 3): 13,
    ("B", 4): 30, ("C", 3): 14, ("C", 4): 32, ("D", 4): 42, ("G", 2): 5, ("F", 4): 20,
    ("E", 6): 139,
}


@pytest.mark.parametrize("label, rank", list(SL2_SURVIVORS))
def test_sl2_test_keeps_every_weighted_dynkin_diagram(label, rank):
    # necessary: the reference runs the normality test on every vector
    alg = build_algebra(build_root_system(label, rank))
    survivors = [v[0] for v in characteristics._sl2_label_vectors(alg)]
    wdds = {wdd.labels for wdd, _ in reference_classify_nilpotent_g(alg) if not wdd.is_zero()}
    assert wdds <= set(survivors)
    assert len(survivors) == SL2_SURVIVORS[(label, rank)]
    assert len(survivors) < 3**rank - 1  # not a no-op


def test_sl2_test_multiplicities():
    def passes(labels):
        pos = [sum(c * x for c, x in zip(r, labels)) for r in A3.rs.positive_roots]
        return characteristics._sl2_module_multiplicities(3, pos)

    # (2, 0, 2), the diagram of the partition (3, 1): alpha(h) = 0 once, 2 four
    # times and 4 once, so d_0 = 3 + 2, d_2 = 4 and d_4 = 1, as for
    # V(4) + 3 V(2) + V(0)
    assert passes((2, 0, 2))
    # (1, 2, 0): alpha(h) = 0, 1, 2, 2, 3, 3, so d_1 = 1 < d_3 = 2
    assert not passes((1, 2, 0))
    # d_0 = 1 + 0 < d_2 = 2
    assert not characteristics._sl2_module_multiplicities(1, [2, 2])
    # A1 with label 1: d = [1, 1, 0] has d_k >= d_{k+2}, but d_1 = dim g(1)
    # is odd, so it carries no nondegenerate skew form
    assert not characteristics._sl2_module_multiplicities(1, [1])
    # (1, 0, 1), the diagram of the partition (2, 1, 1): d_1 = 4 is even
    assert passes((1, 0, 1))


@pytest.mark.parametrize(
    "label, rank",
    [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
     ("B", 3), ("C", 3), ("D", 4)],
)
def test_every_weighted_dynkin_diagram_has_even_dim_g1(label, rank):
    rs = build_root_system(label, rank)
    for wdd, _ in classify_nilpotent_g(build_algebra(rs)):
        ones = sum(sum(c * x for c, x in zip(r, wdd.labels)) == 1 for r in rs.positive_roots)
        assert ones % 2 == 0, wdd.labels


def test_sl2_survivor_values_are_the_root_values():
    survivors = list(characteristics._sl2_label_vectors(F4))
    for labels, hnum, den, values in survivors:
        assert (hnum, den) == F4.cartan_solution(labels)
        assert values == F4.root_values(hnum)
    labels = {v[0] for v in survivors}  # in product order, each once
    assert [v[0] for v in survivors] == [v for v in product((0, 1, 2), repeat=4) if v in labels]


def _sweep_gradings():
    e6 = build_algebra(build_root_system("E", 6))
    for alg, m in [(F4, 2), (F4, 3), (F4, 4), (e6, 2)]:
        for kd in enumerate_kac_diagrams(alg.rs, m):
            yield pytest.param(alg, kd, id=f"{alg.rs.type_label}{alg.rs.rank}-{kd.labels}")


@pytest.mark.parametrize("alg, kd", _sweep_gradings())
def test_normal_list_matches_the_weight_reference(alg, kd):
    # the same (h, e, f) list, hence the same images, merged duplicates and
    # random draws, as acting on weights and testing Fraction images
    g = grading_from_kac(alg, kd)
    reps = shortest_coset_reps(alg.rs, g.weyl_subgroup())
    for wdd, h in classify_nilpotent_g(alg):
        for seed in (0, 11):
            assert normal_list(g, reps, h, seed=seed) == reference_normal_list(g, reps, h, seed=seed)


def _method2_gradings():
    # method 2 never applies the bound; about 1.3 s in all
    e6 = build_algebra(build_root_system("E", 6))
    for alg, orders in [(F4, (2, 3, 4, 5)), (e6, (2, 3))]:
        for m in orders:
            yield pytest.param(alg, m, id=f"{alg.rs.type_label}{alg.rs.rank}-order-{m}")


@pytest.mark.parametrize("alg, m", _method2_gradings())
def test_graded_sl2_bound_accepts_every_normal_h_of_method_2(alg, m):
    for kd in enumerate_kac_diagrams(alg.rs, m):
        g = grading_from_kac(alg, kd)
        for r in classify_orbits(g, method="2", seed=1):
            if not r.is_zero():
                assert graded_sl2_bound_of(g, r.h), (kd.labels, r.h)


def test_graded_sl2_bound_rejects_an_h_that_passes_the_span_test():
    # B3 with Kac labels 0,0,0,1 (m = 2): a root has degree 1 exactly when
    # its alpha_3 coefficient is odd.  h has the labels (0, 2, 0), so alpha(h)
    # is twice the alpha_2 coefficient of alpha.  g_1(0) is spanned by
    # x_{+-alpha_3} (dim 2), and g_0(2) by the x_alpha of alpha = (0,1,0),
    # (1,1,0), (0,1,2), (1,1,2) (dim 4): ad e cannot map g_1(0) onto g_0(2).
    # The block g_0(0) -> g_1(2) passes, 3 + 2 (the Cartan and x_{+-alpha_1})
    # against 2 (alpha = (0,1,1), (1,1,1)), and so does the span test.
    b3 = build_algebra(build_root_system("B", 3))
    g = grading_from_kac(b3, KacDiagram.from_labels(b3.rs, (0, 0, 0, 1)))
    h = h_from_wdd(b3, WeightedDynkinDiagram((0, 2, 0)))
    hnum, den, values = b3.cartan_values(h)
    eye = characteristics._spanning_eye(g, hnum, den, values)
    assert [b3.rs.roots[i] for i in eye] == [(0, 1, 1), (1, 1, 1)]
    assert not graded_sl2_bound_of(g, h)
    assert decide_normal(g, h) is None


def test_sweep_counts_go_to_the_debug_log(caplog, capsys):
    g = grading_from_kac(F4, KacDiagram.from_labels(F4.rs, (0, 0, 1, 0, 0)))
    classify_nilpotent_g(F4)  # log only the sweep
    with caplog.at_level(logging.DEBUG, logger="nilorb.characteristics"):
        records = classify_by_characteristics(g)
    lines = [m for m in caplog.messages if m.startswith(f"{g}, characteristic ")]
    assert len(lines) == len(classify_nilpotent_g(F4)) - 1  # one per nonzero characteristic
    counts = [
        [int(x.split()[0]) for x in line.split(": ", 1)[1].split(", ")] for line in lines
    ]
    reps = shortest_coset_reps(F4.rs, g.weyl_subgroup())
    for images, merged, bounded, spanless, triples in counts:
        assert images == len(reps)
        assert merged + bounded + spanless + triples <= images
    # 480 images: 318 merged, 109 fail the bound, 33 the span test, 19 give
    # a triple, and the one left over has no f (the None completion of
    # test_complete_sl2_matches_dense_reference_on_a_method1_grading)
    assert [sum(col) for col in zip(*counts)] == [480, 318, 109, 33, 19]
    assert len(records) == 20
    assert capsys.readouterr().out == ""


def _merge_count_gradings():
    # every F4 grading of orders 3-4, and E7 principal order 2 (coset index 72)
    for m in (3, 4):
        for kd in enumerate_kac_diagrams(F4.rs, m):
            yield pytest.param(F4, kd, id=f"F4-{kd.labels}")
    e7 = build_algebra(build_root_system("E", 7))
    yield pytest.param(e7, nregular_kac_diagram(e7.rs, 2), id="E7-principal-order-2")


@pytest.mark.parametrize("alg, kd", _merge_count_gradings())
def test_sweep_merge_counts_match_the_weight_orbits(alg, kd, caplog):
    # the distinct images normal_list tests are the distinct w(lam), lam the
    # dual weight of h: a key collision that drops an image without a
    # triple shows here, though not in the triples
    g = grading_from_kac(alg, kd)
    reps = shortest_coset_reps(alg.rs, g.weyl_subgroup())
    distinct = 0
    for wdd, h in classify_nilpotent_g(alg)[1:]:
        lam, _ = linalg.clear_denominators(dual_weight(alg, h))
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="nilorb.characteristics"):
            normal_list(g, reps, h)
        [line] = [m for m in caplog.messages if m.startswith(f"{g}, characteristic ")]
        images, merged = (int(x.split()[0]) for x in line.split(": ", 1)[1].split(", ")[:2])
        assert images == len(reps)
        assert images - merged == len({w.act_weight(lam) for w in reps}), wdd.labels
        distinct += images - merged
    if alg.rs.rank == 7:
        assert distinct == 721  # over the 44 nonzero characteristics of E7
