"""Nullcone analytics: orbit dimensions, components, rank, and the N-regular
automorphism of each order (the one whose degree-1 part meets the regular
nilpotent orbit), found in closed form by grading.nregular_kac_diagram."""

from __future__ import annotations

from dataclasses import dataclass

from .carrier import classify_by_carriers
from .characteristics import classify_by_characteristics
from .chevalley import ChevalleyAlgebra, LieElement
from .grading import KacDiagram, ThetaGrading, grading_from_kac, nregular_kac_diagram
from .records import InternalConsistencyError, OrbitRecord

# Coset index above which 'auto' picks the carrier walk.  Not derived from
# data, and no longer at the crossover: in fresh processes (2-vCPU Xeon VM,
# Python 3.11.7) the sweep took 0.50 s on E7 order 4 (index 4032; carrier
# walk 0.59 s) and 1.36 s on E8 order 4 (index 15120; carrier walk 1.94 s),
# the carrier walk winning only on E7 order 5 (index 10080; 0.40 s against
# 0.59 s).  Both methods draw e from h and the seed alone (h_rng), so they
# print the same bytes and moving it changes no output; ROADMAP item 6
# re-derives it from committed timings.
METHOD_INDEX_THRESHOLD = 5000


@dataclass(frozen=True)
class NullconeSummary:
    """Shape of the nilpotent variety of g_1.

    orbit_count counts the nonzero nilpotent orbits, matching the table
    convention downstream; the zero orbit is always present as a record but
    is not a component and carries no dimension.
    """

    orbit_count: int
    component_count: int
    component_dim: int
    rank: int
    nregular: bool
    very_nregular: bool


def orbit_dimension(grading: ThetaGrading, h: LieElement) -> int:
    """dim [g_0, e]: the dimension of the theta-group orbit of e, for a
    normal triple (h, e, f), counted from h alone.

    theta composed with exp(-pi i ad h / m) fixes e, h and f, so each of its
    eigenspaces is an sl2-module in which ad e maps g_0(k) into g_1(k + 2):
    injectively for k < 0 and onto for k >= -1.  Hence
    dim [g_0, e] = #{alpha in Phi_0 : alpha(h) < 0}
                 + #{alpha in Phi_1 : alpha(h) >= 2}
    (at m = 1 both sets are the whole root system).  h = 0 gives 0.
    """
    _, den, values = grading.alg.cartan_values(h)
    one = 1 % grading.m
    return sum(
        (d == 0 and v < 0) + (d == one and v >= 2 * den)
        for d, v in zip(grading.deg_by_index, values)
    )


def summarize(grading: ThetaGrading, records: list[OrbitRecord]) -> NullconeSummary:
    """Component data of the nullcone from a full orbit listing.

    The components are the closures of the orbits of maximal dimension; the
    rank of g_1 is the codimension of such an orbit.  Very-N-regularity asks
    all maximal orbits to share one ambient orbit, tested by equality of
    their weighted Dynkin diagrams.
    """
    nonzero = [r for r in records if not r.is_zero()]
    for r in nonzero:
        if r.dim is None:
            r.dim = orbit_dimension(grading, r.h)
    dim_g1 = grading.dims()[1 % grading.m]
    if not nonzero:
        return NullconeSummary(0, 0, 0, dim_g1, False, True)
    max_dim = max(r.dim for r in nonzero)
    components = [r for r in nonzero if r.dim == max_dim]
    wdds = {r.ambient_wdd for r in components}
    return NullconeSummary(
        orbit_count=len(nonzero),
        component_count=len(components),
        component_dim=max_dim,
        rank=dim_g1 - max_dim,
        nregular=any(r.ambient_wdd.is_regular() for r in nonzero),
        very_nregular=len(wdds) == 1,
    )


def classify_orbits(
    grading: ThetaGrading, method: str = "auto", seed: int = 0
) -> list[OrbitRecord]:
    """Orbit records with dimensions filled, by either listing method.

    method 'auto' sweeps characteristics while the coset index of W_l stays
    small and switches to carrier algebras when it grows past the threshold.
    On a grading of order 2 every record is checked against the
    Kostant-Rallis identity (check_kostant_rallis).
    """
    if method == "auto":
        method = "1" if grading.coset_index() <= METHOD_INDEX_THRESHOLD else "2"
    if method == "1":
        records = classify_by_characteristics(grading, seed=seed)
    elif method == "2":
        records = classify_by_carriers(grading, seed=seed)
    else:
        raise ValueError(f"unknown method {method!r}; expected 'auto', '1' or '2'")
    for r in records:
        if r.dim is None:
            r.dim = orbit_dimension(grading, r.h)
        if grading.m == 2:
            check_kostant_rallis(grading, r)
    return records


def check_kostant_rallis(grading: ThetaGrading, record: OrbitRecord) -> None:
    """Raise InternalConsistencyError unless 2 dim G_0.e = dim G.e for a
    record of a grading of order 2 (Kostant and Rallis, "Orbits and
    representations associated with symmetric spaces", Amer. J. Math. 93,
    1971), where dim G.e = dim g - dim g(0) - dim g(1) over the ad h
    eigenspaces = #{alpha : alpha(h) not in {0, 1}}."""
    _, den, values = grading.alg.cartan_values(record.h)
    ambient = sum(v != 0 and v != den for v in values)
    if 2 * record.dim != ambient:
        degrees = ",".join(str(grading.deg_by_index[i]) for i in grading.rs.simple_indices)
        raise InternalConsistencyError(
            f"{grading} with simple-root degrees {degrees}: the orbit of h = {record.h!r} "
            f"has dimension {record.dim}, but dim G.e = {ambient} is not twice that"
        )


def nregular_survey(
    alg: ChevalleyAlgebra, m: int, method: str = "auto", seed: int = 0
) -> tuple[KacDiagram, NullconeSummary]:
    """The order-m inner automorphism whose g_1 contains a regular nilpotent
    element, with its nullcone summary.

    The diagram comes in closed form from nregular_kac_diagram and one
    grading is classified; a summary that is not N-regular is a structural
    failure.
    """
    kd = nregular_kac_diagram(alg.rs, m)
    grading = grading_from_kac(alg, kd)
    records = classify_orbits(grading, method=method, seed=seed)
    summary = summarize(grading, records)
    check_nregular(alg, kd, summary)
    return kd, summary


def check_nregular(alg: ChevalleyAlgebra, kd: KacDiagram, summary: NullconeSummary) -> None:
    """Raise InternalConsistencyError unless the summary is N-regular and
    its rank is Springer's count: for an N-regular grading of order m the
    invariants of G_0 on g_1 are free, of the degrees d_i of W that m
    divides (Springer, "Regular elements of finite reflection groups",
    Invent. Math. 25, 1974; Panyushev 2005), so rank = #{i : m | d_i}."""
    name, labels = f"{alg.rs.type_label}{alg.rs.rank}", ",".join(map(str, kd.labels))
    if not summary.nregular:
        raise InternalConsistencyError(
            f"{name}: the closed-form diagram {labels} of order {kd.order} is not N-regular"
        )
    expected = sum(d % kd.order == 0 for d in alg.rs.degrees())
    if summary.rank != expected:
        raise InternalConsistencyError(
            f"{name}: the N-regular diagram {labels} of order {kd.order} has rank "
            f"{summary.rank}, but {expected} degrees of W are divisible by {kd.order}"
        )
