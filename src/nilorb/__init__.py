"""Nilpotent orbits of inner finite-order gradings of simple complex Lie
algebras, computed over exact rational arithmetic.

The pipeline: build a root system and its Chevalley-basis algebra, grade it
by a Kac diagram, then list the nilpotent orbits of the degree-1 component
under the degree-0 group, either by sweeping Weyl coset images of ambient
characteristics or by walking carrier algebras.
"""

from .carrier import CompletionResult, GradedCandidate, candidate_pi_systems, classify_by_carriers, completion
from .characteristics import (
    RetryBudgetError,
    classify_by_characteristics,
    classify_nilpotent_g,
    decide_normal,
    h_from_wdd,
    normal_list,
)
from .chevalley import ChevalleyAlgebra, LieElement, Sl2Triple, build_algebra
from .grading import (
    KacDiagram,
    ThetaGrading,
    enumerate_kac_diagrams,
    grading_from_kac,
    nregular_kac_diagram,
    principal_nregular_grading,
    trivial_grading,
)
from .nullcone import (
    NullconeSummary,
    classify_orbits,
    nregular_survey,
    orbit_dimension,
    summarize,
)
from .pisystems import classify_all, classify_maximal, elementary_transformations
from .records import InternalConsistencyError, OrbitRecord, WeightedDynkinDiagram
from .rootsystem import RootSystem, build_root_system, format_dynkin_type, parse_type
from .weyl import WeylElement, WeylSubgroup, conjugacy_key, shortest_coset_reps

__all__ = [
    "ChevalleyAlgebra",
    "CompletionResult",
    "GradedCandidate",
    "InternalConsistencyError",
    "KacDiagram",
    "LieElement",
    "NullconeSummary",
    "OrbitRecord",
    "RetryBudgetError",
    "RootSystem",
    "Sl2Triple",
    "ThetaGrading",
    "WeightedDynkinDiagram",
    "WeylElement",
    "WeylSubgroup",
    "build_algebra",
    "build_root_system",
    "candidate_pi_systems",
    "classify_all",
    "classify_by_carriers",
    "classify_by_characteristics",
    "classify_maximal",
    "classify_nilpotent_g",
    "classify_orbits",
    "completion",
    "conjugacy_key",
    "decide_normal",
    "elementary_transformations",
    "enumerate_kac_diagrams",
    "format_dynkin_type",
    "grading_from_kac",
    "h_from_wdd",
    "normal_list",
    "nregular_kac_diagram",
    "nregular_survey",
    "orbit_dimension",
    "parse_type",
    "principal_nregular_grading",
    "shortest_coset_reps",
    "summarize",
    "trivial_grading",
]

__version__ = "0.1.0"
