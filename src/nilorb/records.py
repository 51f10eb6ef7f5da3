"""Orbit records and the weighted Dynkin diagram of an ambient orbit.

Both listing methods end at one normal triple per nonzero orbit, with the
integer form of h that they tested and its ambient diagram (method 1 swept
it, method 2 walks wdd_of_cartan); listing makes those the listing, each
record built complete and frozen by orbit_record from those integers, its
dimension counted by orbit_dimension; a Fraction h passes
*alg.cartan_values(h)[1:]."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chevalley import LieElement, Sl2Triple
from .grading import ThetaGrading
from .rootsystem import RootSystem
from .weyl import dominant_simple_values


class InternalConsistencyError(RuntimeError):
    """A structural guarantee of the classification was violated."""


@dataclass(frozen=True)
class WeightedDynkinDiagram:
    """Simple-root labels of a nilpotent-orbit characteristic; each in 0..2."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if any(d not in (0, 1, 2) for d in self.labels):
            raise ValueError(f"weighted Dynkin labels must be 0, 1 or 2: {self.labels}")

    def is_regular(self) -> bool:
        return all(d == 2 for d in self.labels)

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.labels)


@dataclass(frozen=True)
class OrbitRecord:
    """One nilpotent orbit, made by orbit_record: canonical h, representative
    (h,e,f), the ambient orbit's weighted Dynkin diagram, and dimension."""

    h: LieElement
    e: LieElement
    f: LieElement
    ambient_wdd: WeightedDynkinDiagram
    dim: int

    def is_zero(self) -> bool:
        return self.e.is_zero()

    def h_key(self) -> tuple:
        return tuple(Fraction(c) for c in self.h.cartan_part())


def orbit_record(grading: ThetaGrading, triple: Sl2Triple, den: int, values, wdd) -> OrbitRecord:
    """The record of a normal triple (h, e, f) with values[i] = den *
    alpha_i(h), den > 0 and not necessarily the least, in the ambient orbit
    of weighted Dynkin diagram wdd; (0, 0, 0) with zero values and the zero
    diagram gives the zero record.  It raises InternalConsistencyError when
    a root of Delta_0 is negative on h (h outside C_l + r), counts the
    dimension (orbit_dimension) and, at m = 2, runs check_kostant_rallis."""
    if any(values[grading.rs.root_index[b]] < 0 for b in grading.delta0):
        raise InternalConsistencyError(
            f"{grading.describe()}: canonical h = {triple.h!r} left the dominant chamber"
        )
    dim = orbit_dimension(grading, den, values)
    if grading.m == 2:
        check_kostant_rallis(grading, triple.h, dim, den, values)
    return OrbitRecord(triple.h, triple.e, triple.f, wdd, dim)


def orbit_dimension(grading: ThetaGrading, den: int, values) -> int:
    """dim [g_0, e], the dimension of the theta-group orbit of e for a normal
    triple (h, e, f), from values[i] = den * alpha_i(h), den > 0.

    theta composed with exp(-pi i ad h / m) fixes e, h and f, so each of its
    eigenspaces is an sl2-module in which ad e maps g_0(k) into g_1(k + 2):
    injectively for k < 0 and onto for k >= -1.  Hence dim [g_0, e] =
    #{alpha in Phi_0 : alpha(h) < 0} + #{alpha in Phi_1 : alpha(h) >= 2}
    (at m = 1 both sets are the whole root system).  h = 0 gives 0.
    """
    one = 1 % grading.m
    return sum(
        (d == 0 and v < 0) + (d == one and v >= 2 * den)
        for d, v in zip(grading.deg_by_index, values)
    )


def check_kostant_rallis(grading: ThetaGrading, h: LieElement, dim: int, den: int, values) -> None:
    """Raise InternalConsistencyError unless 2 dim G_0.e = dim G.e for the
    orbit, of dimension dim, of a normal triple (h, e, f) of a grading of
    order 2 (Kostant and Rallis, Amer. J. Math. 93, 1971), where dim G.e =
    dim g - dim g(0) - dim g(1) over the ad h eigenspaces counts the roots
    with alpha(h) not in {0, 1}, read off values[i] = den * alpha_i(h)."""
    ambient = sum(v != 0 and v != den for v in values)
    if 2 * dim != ambient:
        raise InternalConsistencyError(
            f"{grading.describe()}: the orbit of h = {h!r} "
            f"has dimension {dim}, but dim G.e = {ambient} is not twice that"
        )


def listing(grading: ThetaGrading, found) -> list[OrbitRecord]:
    """One record per orbit from one (triple, den, values, wdd) per nonzero
    orbit (see orbit_record): the zero record, then the records of the
    triples, lexicographic in the canonical h coordinates.  Two triples with
    one h raise InternalConsistencyError."""
    records = {}
    for triple, den, values, wdd in found:
        record = orbit_record(grading, triple, den, values, wdd)
        if records.setdefault(record.h_key(), record) is not record:
            raise InternalConsistencyError(
                f"{grading.describe()}: two triples share canonical h = {triple.h!r}"
            )
    z, zero_wdd = grading.alg.zero(), WeightedDynkinDiagram((0,) * grading.rs.rank)
    zero = orbit_record(grading, Sl2Triple(z, z, z), 1, [0] * grading.alg.n_roots, zero_wdd)
    return [zero, *(records[k] for k in sorted(records))]


def wdd_of_cartan(rs: RootSystem, den: int, values) -> WeightedDynkinDiagram:
    """Weighted Dynkin diagram of the dominant Weyl conjugate of the Cartan
    element h with values[i] = den * alpha_i(h), den > 0: the simple-root
    values alone, made dominant by weyl.dominant_simple_values, over den,
    which must be 0, 1 or 2."""
    labels = []
    for v in dominant_simple_values(rs, [values[s] for s in rs.simple_indices]):
        label, rest = divmod(v, den)
        if rest or label not in (0, 1, 2):
            raise InternalConsistencyError(
                f"dominant h has simple-root value {Fraction(v, den)}; "
                "not a nilpotent characteristic"
            )
        labels.append(label)
    return WeightedDynkinDiagram(tuple(labels))
