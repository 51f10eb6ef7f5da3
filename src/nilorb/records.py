"""Orbit records and the weighted Dynkin diagram of an ambient orbit."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chevalley import ChevalleyAlgebra, LieElement
from .rootsystem import RootSystem
from .weyl import dominant_values


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


@dataclass
class OrbitRecord:
    """One nilpotent orbit: canonical h, representative (h,e,f), dimension,
    and the weighted Dynkin diagram of the ambient orbit of e."""

    h: LieElement
    e: LieElement
    f: LieElement
    ambient_wdd: WeightedDynkinDiagram
    dim: int | None = None

    def is_zero(self) -> bool:
        return self.e.is_zero()

    def h_key(self) -> tuple:
        return tuple(Fraction(c) for c in self.h.cartan_part())


def zero_record(alg: ChevalleyAlgebra) -> OrbitRecord:
    z = alg.zero()
    return OrbitRecord(z, z, z, WeightedDynkinDiagram((0,) * alg.rs.rank), dim=0)


def sort_records(records: list[OrbitRecord]) -> list[OrbitRecord]:
    """Zero record first, then lexicographic in the canonical h coordinates."""
    zero = [r for r in records if r.is_zero()]
    rest = sorted((r for r in records if not r.is_zero()), key=OrbitRecord.h_key)
    return zero + rest


def wdd_of_cartan(alg: ChevalleyAlgebra, h: LieElement) -> WeightedDynkinDiagram:
    """Weighted Dynkin diagram of the dominant Weyl conjugate of h: the
    integer form of ChevalleyAlgebra.cartan_values read by wdd_of_values."""
    _, den, values = alg.cartan_values(h)
    return wdd_of_values(alg.rs, den, values)


def wdd_of_values(rs: RootSystem, den: int, values) -> WeightedDynkinDiagram:
    """Weighted Dynkin diagram of the dominant Weyl conjugate of the Cartan
    element h with values[i] = den * alpha_i(h) for every root, den > 0.

    The values are made dominant for the simple roots by
    weyl.dominant_values.  The labels are then the values at the simple
    roots over den, which must be 0, 1 or 2 (and so integral).
    """
    simple = rs.simple_indices
    values = dominant_values(rs, simple, values)
    labels = []
    for s in simple:
        label, rest = divmod(values[s], den)
        if rest or label not in (0, 1, 2):
            raise InternalConsistencyError(
                f"dominant h has simple-root value {Fraction(values[s], den)}; "
                "not a nilpotent characteristic"
            )
        labels.append(label)
    return WeightedDynkinDiagram(tuple(labels))
