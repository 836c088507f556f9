"""Exact computer algebra over prime fields with Frobenius-splitting certificates.

The package computes reduced Groebner bases over F_p, ideal algebra
(intersection, colon, saturation, powers, bracket powers, symbolic powers,
weight homogenization), the trace/star splitting operators, and emits
machine-checkable JSON certificates that an ideal has a squarefree initial
ideal.  See the README for the CLI and the problem-file format.
"""

from ._version import __version__
from .field_poly import (
    EliminationOrder,
    ExponentOverflowError,
    FieldPolyError,
    Monomial,
    MonomialOrder,
    ParseError,
    Polynomial,
    RingContext,
    RingMismatchError,
    ZeroPolynomialError,
    grevlex,
    lex,
    parse_order,
    ring_new,
    weight_order,
)
from .groebner import (
    Budget,
    DEFAULT_MAX_PAIRS,
    IdealPresentation,
    MonomialIdeal,
    ReducedGB,
    ResourceLimitError,
    ideal,
    ideals_equal,
    initial_ideal,
    member,
    normal_form,
    reduced_gb,
)
from .ideal_ops import (
    WitnessInPrimeError,
    bracket_power,
    colon,
    colon_ideal,
    dehomogenize,
    homogenize_w,
    intersect,
    monomial_dimension,
    power,
    saturate,
    symbolic_power_prime,
)
from .frobenius import (
    compatible_check,
    fedder_membership,
    fsplit_graded_test,
    is_splitting,
    star_apply,
    trace,
)
from .criteria import (
    Certificate,
    InconsistentInputError,
    NotFound,
    SoundnessError,
    charp_certificate,
    deformation_fibers,
    fsplit_certificate,
    replay,
    symb_certificate,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
