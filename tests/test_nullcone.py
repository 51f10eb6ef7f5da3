import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilorb import (
    KacDiagram,
    build_algebra,
    build_root_system,
    classify_by_characteristics,
    classify_orbits,
    decide_normal,
    enumerate_kac_diagrams,
    grading_from_kac,
    h_from_wdd,
    nregular_kac_diagram,
    nregular_survey,
    orbit_dimension,
    principal_nregular_grading,
    summarize,
    trivial_grading,
)
from nilorb.chevalley import Sl2Triple
from nilorb.records import WeightedDynkinDiagram, wdd_of_cartan, wdd_of_values

from oracles import (
    cartan_from_dual_weight,
    component_basis,
    dual_weight,
    graded_sl2_bound_of,
    mat_vec,
    orbit_dimension_by_rank,
    reference_wdd_of_cartan,
    survey_nregular_diagrams,
    toral_summary,
    weyl_matrices,
)

A1 = build_algebra(build_root_system("A", 1))
A2 = build_algebra(build_root_system("A", 2))
G2 = build_algebra(build_root_system("G", 2))


def test_orbit_dimension_zero():
    g = grading_from_kac(A1, KacDiagram.from_labels(A1.rs, (1, 1)))
    assert orbit_dimension(g, A1.zero()) == 0  # h of the zero triple


def test_orbit_dimension_a1():
    g = grading_from_kac(A1, KacDiagram.from_labels(A1.rs, (1, 1)))
    # h of the triple (h, x_alpha, x_-alpha) is the coroot of alpha
    assert orbit_dimension(g, A1.coroot((1,))) == 1


def test_ambient_wdd_regular_and_zero():
    triv = trivial_grading(A2)
    h = h_from_wdd(A2, WeightedDynkinDiagram((2, 2)))
    triple = decide_normal(triv, h)
    assert wdd_of_cartan(A2, triple.h).labels == (2, 2)


def test_ambient_wdd_minimal_orbit_a2():
    # complete x_{alpha_1} to its standard triple; the ambient diagram of the
    # minimal orbit is (1,1)
    h = A2.coroot((1, 0))
    triple = A2.complete_sl2(h, A2.root_vector((1, 0)), [A2.root_vector((-1, 0))])
    assert wdd_of_cartan(A2, triple.h).labels == (1, 1)


def test_summarize_a1_against_torus_orbit_oracle():
    # the nullcone of the order-2 grading of sl2 is the two axes: two nonzero
    # torus orbits of dimension 1, so rank 1; the zero orbit is recorded but
    # not counted
    g = grading_from_kac(A1, KacDiagram.from_labels(A1.rs, (1, 1)))
    records = classify_orbits(g)
    assert len(records) == 3
    s = summarize(g, records)
    assert (s.orbit_count, s.component_count, s.component_dim, s.rank) == (2, 2, 1, 1)
    assert s.nregular and s.very_nregular


def test_summarize_no_nonzero_orbits():
    # gcd > 1 labels give an empty degree-1 part
    g = grading_from_kac(G2, KacDiagram.from_labels(G2.rs, (2, 0, 0)))
    assert g.dims()[1] == 0
    records = classify_orbits(g)
    s = summarize(g, records)
    assert s.orbit_count == 0 and s.component_count == 0 and not s.nregular


def test_rank_plus_dim_is_dim_g1():
    for labels in [(0, 0, 1), (1, 0, 1), (1, 1, 0), (0, 1, 1)]:
        g = grading_from_kac(G2, KacDiagram.from_labels(G2.rs, labels))
        s = summarize(g, classify_orbits(g))
        assert s.rank + s.component_dim == g.dims()[1 % g.m]


def test_method_choice_does_not_change_summary():
    g = grading_from_kac(G2, KacDiagram.from_labels(G2.rs, (0, 0, 1)))
    s1 = summarize(g, classify_orbits(g, method="1"))
    s2 = summarize(g, classify_orbits(g, method="2"))
    assert s1 == s2


PROPERTY_TYPES = [
    ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4),
]


@st.composite
def small_kac_diagrams(draw, max_order=6):
    """A Kac diagram of order 1..max_order of one of PROPERTY_TYPES, its
    labels drawn node by node, in a drawn node order, within the order left."""
    rs = build_root_system(*draw(st.sampled_from(PROPERTY_TYPES)))
    labels = [0] * (rs.rank + 1)
    left = max_order
    for i in draw(st.permutations(range(rs.rank + 1))):
        labels[i] = draw(st.integers(0, left // rs.marks[i]))
        left -= labels[i] * rs.marks[i]
    if not any(labels):
        labels[0] = draw(st.integers(1, max_order))
    return rs, labels


@given(small_kac_diagrams())
@settings(max_examples=100, deadline=None)
def test_both_methods_agree_on_random_kac_diagrams(diagram):
    rs, labels = diagram
    g = grading_from_kac(build_algebra(rs), KacDiagram.from_labels(rs, labels))
    listings = {method: classify_orbits(g, method=method, seed=1) for method in ("1", "2")}
    summaries = {method: summarize(g, records) for method, records in listings.items()}
    assert sorted(r.h_key() for r in listings["1"]) == sorted(r.h_key() for r in listings["2"])
    assert summaries["1"] == summaries["2"]
    s = summaries["1"]
    # the component dimension by the rank oracle, not by counting roots
    assert s.component_dim == max(orbit_dimension_by_rank(g, r.e) for r in listings["1"])
    assert s.rank + s.component_dim == g.dims()[1 % g.m]
    span = {i: {k for b in component_basis(g, i) for k in b.coeffs} for i in (1, g.m - 1)}
    for records in listings.values():
        for r in records:
            if r.is_zero():
                continue
            assert r.h.is_cartan()
            assert set(r.e.coeffs) <= span[1] and set(r.f.coeffs) <= span[g.m - 1]
            Sl2Triple(r.h, r.e, r.f).check()
    # method 2 never applies the graded sl2 bound of the sweep
    assert all(graded_sl2_bound_of(g, r.h) for r in listings["2"] if not r.is_zero())


def test_classify_orbits_rejects_unknown_method():
    g = grading_from_kac(A1, KacDiagram.from_labels(A1.rs, (1, 1)))
    with pytest.raises(ValueError):
        classify_orbits(g, method="3")


def test_ambient_wdd_rejects_non_characteristic():
    from nilorb import InternalConsistencyError

    with pytest.raises(InternalConsistencyError):
        wdd_of_cartan(A1, A1.cartan([2]))  # alpha(h) = 4


def test_ambient_wdd_rejects_half_integral_h():
    from nilorb import InternalConsistencyError

    # alpha_1(h) = alpha_2(h) = 1/2: dominant, labels below 2, not integral
    with pytest.raises(InternalConsistencyError):
        wdd_of_cartan(A2, A2.cartan([Fraction(1, 2), Fraction(1, 2)]))
    # alpha_1(h) = 1, alpha_2(h) = -1/2: not dominant
    with pytest.raises(InternalConsistencyError):
        wdd_of_cartan(A2, A2.cartan([Fraction(1, 2), 0]))


def test_wdd_of_values_matches_wdd_of_cartan_on_f4_records():
    # every record of the F4 gradings of orders 3 and 4, from the least den
    # and from a den three times larger
    f4 = build_algebra(build_root_system("F", 4))
    checked = 0
    for m in (3, 4):
        for kd in enumerate_kac_diagrams(f4.rs, m):
            g = grading_from_kac(f4, kd)
            for r in classify_by_characteristics(g):
                _, den, values = f4.cartan_values(r.h)
                expected = wdd_of_cartan(f4, r.h)
                assert expected == r.ambient_wdd
                assert wdd_of_values(f4.rs, den, values) == expected
                assert wdd_of_values(f4.rs, 3 * den, [3 * v for v in values]) == expected
                checked += 1
    assert checked > 100


def test_wdd_of_values_rejects_non_characteristic():
    from nilorb import InternalConsistencyError

    with pytest.raises(InternalConsistencyError):
        wdd_of_values(A1.rs, 3, [12, -12])  # alpha(h) = 4
    with pytest.raises(InternalConsistencyError):
        wdd_of_values(A1.rs, 2, [3, -3])  # alpha(h) = 3/2


@pytest.mark.parametrize("label,rank", [("G", 2), ("B", 3), ("F", 4)])
def test_wdd_of_cartan_matches_to_subdominant_on_weyl_images(label, rank):
    from nilorb import classify_nilpotent_g

    alg = build_algebra(build_root_system(label, rank))
    group = weyl_matrices(alg.rs)
    for wdd, h in classify_nilpotent_g(alg):
        lam = dual_weight(alg, h)
        for mu in {mat_vec(w, lam) for w in group}:
            image = cartan_from_dual_weight(alg, mu)
            assert wdd_of_cartan(alg, image).labels == reference_wdd_of_cartan(alg, image)
            assert wdd_of_cartan(alg, image) == wdd


def _counted_dimension_gradings():
    g2 = build_algebra(build_root_system("G", 2))
    f4 = build_algebra(build_root_system("F", 4))
    e6 = build_algebra(build_root_system("E", 6))
    b3 = build_algebra(build_root_system("B", 3))
    for alg, orders in [(g2, range(1, 6)), (f4, range(2, 5)), (e6, (2,))]:
        for m in orders:
            for kd in enumerate_kac_diagrams(alg.rs, m):
                yield grading_from_kac(alg, kd)
    yield trivial_grading(b3)


def test_counted_dimension_matches_rank_oracle():
    # dim [g_0, e] counted from h equals the rank of ad e on g_0, for every
    # record of both listing methods
    checked = 0
    for g in _counted_dimension_gradings():
        for method in ("1", "2"):
            for r in classify_orbits(g, method=method, seed=5):
                expected = orbit_dimension_by_rank(g, r.e)
                assert r.dim == orbit_dimension(g, r.h) == expected, (g, method, r.h)
                checked += 1
    assert checked == 476


def test_survey_uniqueness_is_enforced(monkeypatch):
    import nilorb.nullcone as nullcone_mod
    from nilorb import InternalConsistencyError, NullconeSummary

    monkeypatch.setattr(
        nullcone_mod,
        "summarize",
        lambda g, r: NullconeSummary(0, 0, 0, 0, False, True),
    )
    with pytest.raises(InternalConsistencyError):
        nullcone_mod.nregular_survey(G2, 2)


def test_survey_rank_must_be_springers_count(monkeypatch):
    # G2 order 2: both degrees 2 and 6 are even, so the rank must be 2
    import nilorb.nullcone as nullcone_mod
    from nilorb import InternalConsistencyError

    summarize = nullcone_mod.summarize
    monkeypatch.setattr(
        nullcone_mod, "summarize", lambda g, r: dataclasses.replace(summarize(g, r), rank=1)
    )
    with pytest.raises(InternalConsistencyError, match=r"G2: .* 0,0,1 of order 2 has rank 1, but 2"):
        nullcone_mod.nregular_survey(G2, 2)


def test_survey_g2_order2():
    kd, s = nregular_survey(G2, 2)
    assert kd.labels == (0, 0, 1)
    assert (s.orbit_count, s.component_count, s.component_dim, s.rank) == (5, 1, 6, 2)
    assert s.nregular and s.very_nregular


def test_survey_winner_dims_match_principal_construction():
    for m in (2, 3, 4, 5):
        kd, _ = nregular_survey(G2, m)
        g = grading_from_kac(G2, kd)
        p = principal_nregular_grading(G2, m)
        assert sorted(g.dims()) == sorted(p.dims())
        assert g.dims()[0] == p.dims()[0] and g.dims()[1] == p.dims()[1]


@pytest.mark.parametrize(
    "label,rank,orders",
    [
        ("G", 2, range(1, 8)),
        ("F", 4, range(1, 8)),
        ("E", 6, (2, 3)),
        ("A", 3, range(2, 6)),
        ("B", 3, range(2, 6)),
        ("C", 3, range(2, 6)),
        ("D", 4, range(2, 6)),
    ],
)
def test_closed_form_is_the_only_nregular_diagram(label, rank, orders):
    # the exhaustive survey over every Kac diagram of the order finds
    # exactly one N-regular diagram, the closed-form one
    alg = build_algebra(build_root_system(label, rank))
    for m in orders:
        assert survey_nregular_diagrams(alg, m) == [nregular_kac_diagram(alg.rs, m)], m


@pytest.mark.parametrize(
    "label,rank",
    [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)],
)
def test_closed_form_at_the_coxeter_number_is_all_ones(label, rank):
    # at m = h = sum of the marks, rho^vee / h already lies in the alcove:
    # the principal element has every Kac label 1 (Kostant 1959)
    rs = build_root_system(label, rank)
    assert nregular_kac_diagram(rs, sum(rs.marks)).labels == (1,) * (rank + 1)


TORAL_TYPES = [("A", n) for n in range(1, 6)] + [("B", n) for n in range(2, 5)]
TORAL_TYPES += [("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G", 2), ("F", 4)]
TORAL_TYPES += [("E", 6), ("E", 7), ("E", 8)]


@pytest.mark.parametrize("label,rank", TORAL_TYPES)
def test_toral_gradings_match_the_closed_form(label, rank):
    # every Kac label at least 1, so g_0 is the Cartan subalgebra: the
    # principal grading, each grading with one label 2 and the others 1,
    # and labels 2,3,...,3 (no label 1, g_1 = 0).  Method 2 on each, method
    # 1 where the coset index |W| is at most 50000
    alg = build_algebra(build_root_system(label, rank))
    ones = (1,) * (rank + 1)
    label_vectors = [ones, (2,) + (3,) * rank]
    label_vectors += [ones[:i] + (2,) + ones[i + 1 :] for i in range(rank + 1)]
    for labels in label_vectors:
        g = grading_from_kac(alg, KacDiagram.from_labels(alg.rs, labels))
        assert g.dims()[0] == rank
        for method in ("1", "2") if g.coset_index() <= 50000 else ("2",):
            s = summarize(g, classify_orbits(g, method=method))
            summary = (s.orbit_count, s.component_count, s.component_dim, s.rank)
            assert summary == toral_summary(labels), (labels, method)


def test_closed_form_rejects_order_below_one():
    for m in (0, -3):
        with pytest.raises(ValueError, match=">= 1"):
            nregular_kac_diagram(G2.rs, m)


def test_orbit_record_is_frozen_and_rejects_h_outside_the_chamber():
    # the trivial grading of sl2 has Delta_0 = {alpha}: (h_alpha, x_alpha,
    # x_-alpha) makes the record of the regular orbit, of dimension 2, and
    # (-h_alpha, x_-alpha, x_alpha) has alpha(h) = -2 < 0
    from nilorb import InternalConsistencyError
    from nilorb.records import orbit_record

    g = trivial_grading(A1)
    h, e, f = A1.coroot((1,)), A1.root_vector((1,)), A1.root_vector((-1,))
    wdd = WeightedDynkinDiagram((2,))
    record = orbit_record(g, Sl2Triple(h, e, f), wdd)
    assert record.dim == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.dim = 3
    with pytest.raises(InternalConsistencyError, match="left the dominant chamber"):
        orbit_record(g, Sl2Triple(h.scale(-1), f, e), wdd)


@pytest.mark.parametrize("method", ["1", "2"])
def test_order_two_dimensions_must_satisfy_kostant_rallis(monkeypatch, method):
    # G2 Kac 0,0,1 (m = 2): an orbit dimension one too large, counted by
    # the record constructor, breaks 2 dim G_0.e = dim G.e on the first
    # record it builds
    import nilorb.records as records_mod
    from nilorb import InternalConsistencyError

    g = grading_from_kac(G2, KacDiagram.from_labels(G2.rs, (0, 0, 1)))
    assert all(r.dim is not None for r in classify_orbits(g, method=method))
    dimension = records_mod.dimension_of_values
    monkeypatch.setattr(
        records_mod, "dimension_of_values", lambda g, den, values: dimension(g, den, values) + 1
    )
    with pytest.raises(
        InternalConsistencyError,
        match=r"ThetaGrading\(G2, m=2\) with simple-root degrees 0,1: the orbit of h = .* "
        r"has dimension \d+, but dim G.e = \d+ is not twice that",
    ):
        classify_orbits(g, method=method)


def test_kostant_rallis_holds_on_the_order_two_range(monkeypatch):
    # method 1 on every order-2 grading of A2-A6, B2-B4, C3-C4, D4-D5, G2,
    # F4 and E6 runs the record constructor's check on each of its records,
    # the zero record included
    import nilorb.records as records_mod

    checked = []
    check = records_mod.check_kostant_rallis

    def counted(grading, h, dim, den, values):
        checked.append(h)
        check(grading, h, dim, den, values)

    monkeypatch.setattr(records_mod, "check_kostant_rallis", counted)
    types = [("A", n) for n in range(2, 7)] + [("B", n) for n in range(2, 5)]
    types += [("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G", 2), ("F", 4), ("E", 6)]
    gradings = nonzero = 0
    for label, rank in types:
        alg = build_algebra(build_root_system(label, rank))
        for kd in enumerate_kac_diagrams(alg.rs, 2):
            records = classify_orbits(grading_from_kac(alg, kd), method="1")
            gradings += 1
            nonzero += sum(not r.is_zero() for r in records)
    assert (gradings, nonzero, len(checked)) == (50, 443, 443 + 50)
