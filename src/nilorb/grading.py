"""Kac diagrams of inner finite-order automorphisms and their gradings.

An inner automorphism of order m is encoded by its degree map on roots:
deg(sum k_i alpha_i) = sum k_i s_i mod m, where s_1..s_l are the Kac labels
on the simple nodes and m = sum a_i s_i over the extended diagram.  A
ThetaGrading is built from m and s_1..s_l alone: grading_from_kac reads them
off a Kac diagram, and the principal grading has s_i = 1 on every simple
node.  The grading holds integers only: the degree of every root, Phi_0,
Phi_1 (also as a bitmask over root indices) and the simple system Delta_0
of Phi_0.  g_0 is the Cartan subalgebra plus the root vectors of Phi_0, so
its centre has dimension rank - len(delta0).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .chevalley import ChevalleyAlgebra
from .rootsystem import RootSystem, format_dynkin_type
from .weyl import WeylSubgroup, dominant_simple_values

MAX_ORDER = 2**16  # the largest grading order: per-degree tables hold m entries


def check_order(m: int) -> None:
    if not 1 <= m <= MAX_ORDER:
        raise ValueError(f"grading order must be >= 1 and <= {MAX_ORDER}, got {m}")


@dataclass(frozen=True)
class KacDiagram:
    """Labels s_0..s_l on the extended Dynkin diagram; order = sum a_i s_i."""

    labels: tuple[int, ...]
    order: int

    @staticmethod
    def from_labels(rs: RootSystem, labels) -> "KacDiagram":
        """The diagram of integer labels s_0..s_l, one per node of the
        extended diagram of rs; ValueError for any other labels."""
        given = tuple(labels)
        labels = tuple(int(s) for s in given)
        if labels != given:
            raise ValueError(f"Kac labels must be integers, got {given}")
        if len(labels) != rs.rank + 1:
            raise ValueError(
                f"expected {rs.rank + 1} labels for {rs.type_label}{rs.rank}, got {len(labels)}"
            )
        if any(s < 0 for s in labels):
            raise ValueError("Kac labels must be nonnegative")
        order = sum(a * s for a, s in zip(rs.marks, labels))
        if order == 0:
            raise ValueError("all-zero Kac labels define no automorphism (order 0)")
        return KacDiagram(labels, order)


class ThetaGrading:
    """Z/mZ-grading of a simple Lie algebra by an inner automorphism."""

    def __init__(self, alg: ChevalleyAlgebra, m: int, labels):
        """The grading of order m in which the simple root alpha_i has degree
        labels[i]: deg(sum k_i alpha_i) = sum k_i labels[i] mod m.
        ValueError unless there is one label per simple root."""
        check_order(m)
        rs = alg.rs
        labels = tuple(labels)
        if len(labels) != rs.rank:
            raise ValueError(
                f"expected {rs.rank} simple-root degrees for {rs.type_label}{rs.rank}, got {len(labels)}"
            )
        self.alg = alg
        self.rs = rs
        self.m = m
        self.deg_by_index = tuple(sum(map(mul, r, labels)) % m for r in rs.roots)
        self.phi0_indices = tuple(i for i, d in enumerate(self.deg_by_index) if d == 0)
        self.phi1_indices = tuple(i for i, d in enumerate(self.deg_by_index) if d == 1 % m)
        self.phi0 = tuple(rs.roots[i] for i in self.phi0_indices)
        self.phi1 = tuple(rs.roots[i] for i in self.phi1_indices)
        self.phi1_mask = sum(1 << i for i in self.phi1_indices)  # bitmask over root indices
        self.delta0 = rs.simple_system(r for r in self.phi0 if rs.is_positive(r))
        self._wl = None

    def __repr__(self) -> str:
        return f"ThetaGrading({self.rs.type_label}{self.rs.rank}, m={self.m})"

    def describe(self) -> str:
        """The repr and the simple-root degrees, as error messages name a grading."""
        degrees = ",".join(str(self.deg_by_index[i]) for i in self.rs.simple_indices)
        return f"{self} with simple-root degrees {degrees}"

    def degree(self, root) -> int:
        return self.deg_by_index[self.rs.root_index[tuple(root)]]

    def dims(self) -> tuple[int, ...]:
        counts = [0] * self.m
        for d in self.deg_by_index:
            counts[d] += 1
        counts[0] += self.rs.rank
        return tuple(counts)

    def weyl_subgroup(self) -> WeylSubgroup:
        """The Weyl subgroup W_l of the semisimple part of g_0."""
        if self._wl is None:
            self._wl = WeylSubgroup(self.rs, self.delta0)
        return self._wl

    def coset_index(self) -> int:
        return self.rs.weyl_order() // self.rs.weyl_order(self.delta0)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "component_dims": list(self.dims()),
            "phi0_type": format_dynkin_type(self.rs.dynkin_type(self.delta0)),
        }


def grading_from_kac(alg: ChevalleyAlgebra, kd: KacDiagram) -> ThetaGrading:
    """Grading of the inner automorphism with the given Kac diagram.
    ValueError unless kd is KacDiagram.from_labels of its labels: one
    nonnegative integer per node and the order they define."""
    order = KacDiagram.from_labels(alg.rs, kd.labels).order
    if order != kd.order:
        raise ValueError(f"Kac labels {kd.labels} define order {order}, not {kd.order}")
    return ThetaGrading(alg, kd.order, kd.labels[1:])


def trivial_grading(alg: ChevalleyAlgebra) -> ThetaGrading:
    """The order-1 grading (identity automorphism): everything in degree 0."""
    return ThetaGrading(alg, 1, (0,) * alg.rs.rank)


def enumerate_kac_diagrams(rs: RootSystem, m: int) -> list[KacDiagram]:
    """All label vectors with sum a_i s_i = m, one per orbit of the
    extended-diagram automorphism group."""
    check_order(m)
    marks = rs.marks
    n = len(marks)
    solutions = []

    def extend(i: int, remaining: int, acc: list[int]) -> None:
        if i == n - 1:
            if remaining % marks[i] == 0:
                solutions.append(tuple(acc + [remaining // marks[i]]))
            return
        for s in range(remaining // marks[i] + 1):
            extend(i + 1, remaining - s * marks[i], acc + [s])

    extend(0, m, [])
    canon = {_canonical_labels(rs, labels) for labels in solutions}
    return [KacDiagram(labels, m) for labels in sorted(canon)]


def _canonical_labels(rs: RootSystem, labels) -> tuple[int, ...]:
    """The largest image of the labels under the extended-diagram
    automorphisms: one label vector per class of conjugate automorphisms."""
    return max(tuple(labels[i] for i in sigma) for sigma in rs.extended_diagram_automorphisms())


def nregular_kac_diagram(rs: RootSystem, m: int) -> KacDiagram:
    """Kac diagram of the N-regular inner automorphism of order m.

    Up to conjugacy it is exp(2 pi i ad rho^vee / m): the principal sl2 has
    trivial centraliser in the adjoint group (Kostant 1959).  Its diagram is
    the point x = rho^vee, at level m, moved into the fundamental alcove
    alpha_i(x) >= 0, theta(x) <= m by affine reflections (Kac,
    Infinite-dimensional Lie algebras, 8.6); all in integers v_i = alpha_i(x),
    the finite reflections by weyl.dominant_simple_values.
    """
    check_order(m)
    theta = rs.highest_root
    theta_pair = [rs.pairing(rs.simple_root(j), theta) for j in range(rs.rank)]
    v = [1] * rs.rank
    while True:
        v = dominant_simple_values(rs, v)
        excess = sum(k * x for k, x in zip(theta, v)) - m
        if excess <= 0:
            break
        v = [x - excess * p for x, p in zip(v, theta_pair)]
    return KacDiagram(_canonical_labels(rs, (-excess, *v)), m)


def principal_nregular_grading(alg: ChevalleyAlgebra, m: int) -> ThetaGrading:
    """Fold the even Z-grading of a principal sl2 into a Z/mZ-grading.

    The defining Cartan element h has alpha_i(h) = 2 on every simple root, so
    ad h acts on a root vector by twice the root height; the degree of a root
    is its height mod m, which is label 1 on every simple node.
    """
    return ThetaGrading(alg, m, (1,) * alg.rs.rank)
