"""Nullcone analytics: the choice of listing method, the components and rank
of complete records (records.orbit_record), and the N-regular automorphism
of each order (the one whose degree-1 part meets the regular nilpotent
orbit), found in closed form by grading.nregular_kac_diagram."""

from __future__ import annotations

from dataclasses import dataclass

from .carrier import classify_by_carriers
from .characteristics import classify_by_characteristics
from .chevalley import ChevalleyAlgebra, LieElement
from .grading import KacDiagram, ThetaGrading, grading_from_kac, nregular_kac_diagram
from .records import InternalConsistencyError, OrbitRecord, dimension_of_values

# Coset index above which 'auto' picks the carrier walk.  Not derived from
# data, and no longer at the crossover: in fresh processes (2-vCPU Xeon VM,
# Python 3.11.7) the sweep took 0.50 s on E7 order 4 (index 4032; carrier
# walk 0.59 s) and 1.36 s on E8 order 4 (index 15120; carrier walk 1.94 s),
# the carrier walk winning only on E7 order 5 (index 10080; 0.40 s against
# 0.59 s).  Both methods print the same bytes, so moving it changes no output.
METHOD_INDEX_THRESHOLD = 5000

# Largest coset index at which an explicit method 1 runs, since the sweep holds every
# coset representative: in process on the same VM, E8 Kac 0,0,0,0,0,1,0,0,1 (index
# 483840) took 24.5 s and 481 MB peak RSS by method 1, and 0.9 s by method 2.
METHOD_1_INDEX_CAP = 500000


@dataclass(frozen=True)
class NullconeSummary:
    """Shape of the nilpotent variety of g_1.

    orbit_count counts the nonzero nilpotent orbits, matching the table
    convention downstream; the zero orbit (dimension 0) is a record but no
    component.  With no nonzero orbit, rank = dim g_1 and very_nregular holds.
    """

    orbit_count: int
    component_count: int
    component_dim: int
    rank: int
    nregular: bool
    very_nregular: bool


def orbit_dimension(grading: ThetaGrading, h: LieElement) -> int:
    """dim [g_0, e] for a normal triple (h, e, f), counted from the integer
    form of h by records.dimension_of_values, as every record is."""
    _, den, values = grading.alg.cartan_values(h)
    return dimension_of_values(grading, den, values)


def summarize(grading: ThetaGrading, records: list[OrbitRecord]) -> NullconeSummary:
    """Component data of the nullcone from a full orbit listing.

    The components are the closures of the orbits of maximal dimension; the
    rank of g_1 is the codimension of such an orbit.  Very-N-regularity asks
    all maximal orbits to share one ambient orbit, tested by equality of
    their weighted Dynkin diagrams.
    """
    nonzero = [r for r in records if not r.is_zero()]
    max_dim = max((r.dim for r in nonzero), default=0)
    components = [r for r in nonzero if r.dim == max_dim]
    return NullconeSummary(
        orbit_count=len(nonzero),
        component_count=len(components),
        component_dim=max_dim,
        rank=grading.dims()[1 % grading.m] - max_dim,
        nregular=any(r.ambient_wdd.is_regular() for r in nonzero),
        very_nregular=len({r.ambient_wdd for r in components}) <= 1,
    )


def classify_orbits(
    grading: ThetaGrading, method: str = "auto", seed: int = 0
) -> list[OrbitRecord]:
    """Orbit records (records.orbit_record) by either listing method.

    method 'auto' sweeps characteristics while the coset index of W_l stays
    small and switches to carrier algebras when it grows past the threshold.
    An explicit method '1' past METHOD_1_INDEX_CAP raises ValueError.
    """
    if method == "auto":
        method = "1" if grading.coset_index() <= METHOD_INDEX_THRESHOLD else "2"
    elif method == "1" and grading.rs.weyl_order() > METHOD_1_INDEX_CAP:
        # the index is at most |W|, so a smaller W skips coset_index (up to 1 ms on E6)
        if (index := grading.coset_index()) > METHOD_1_INDEX_CAP:
            raise ValueError(
                f"{grading.describe()}: coset index {index} is past {METHOD_1_INDEX_CAP}, "
                "the largest that method 1 sweeps; use method 2 or auto"
            )
    if method == "1":
        return classify_by_characteristics(grading, seed=seed)
    if method == "2":
        return classify_by_carriers(grading, seed=seed)
    raise ValueError(f"unknown method {method!r}; expected 'auto', '1' or '2'")


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
