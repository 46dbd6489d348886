"""ordens: exact densities of multiplicative-order valuations.

For an element a of Q or a quadratic field and a prime l, computes the
exact rational density of primes of the field at which the reduction of a
has multiplicative order of prescribed l-adic valuation, and verifies it
through an independent degree-series evaluation and empirical prime scans.
"""

from .cyclo import CycloProfile, Tower, cyclo_profile, cyclotomic_degree, special_case_flag
from .density import (
    DensityValue,
    InvariantError,
    ShapeReport,
    ShapeViolation,
    analyze,
    density,
    density_closed,
    density_series,
    shape_check,
)
from .field import (
    QQ,
    DomainError,
    Element,
    FieldMismatch,
    FieldSpec,
    ParseError,
    format_element,
    parse_element,
    parse_field,
)
from .kummer import KummerQuery, total_degree
from .roots import (
    Case,
    Decomposition,
    decompose,
    is_root_of_unity,
    lth_roots,
    roots_of_unity,
    unit_order,
)
from .scan import (
    PrimeSlot,
    ScanReport,
    empirical_density,
    enumerate_slots,
    split_fraction,
)

__version__ = "0.1.0"

__all__ = [
    "QQ", "FieldSpec", "Element",
    "parse_field", "parse_element", "format_element",
    "FieldMismatch", "ParseError", "DomainError",
    "Case", "Decomposition", "decompose", "lth_roots", "roots_of_unity",
    "unit_order", "is_root_of_unity",
    "CycloProfile", "Tower", "cyclo_profile", "cyclotomic_degree", "special_case_flag",
    "KummerQuery", "total_degree",
    "DensityValue", "density", "density_closed", "density_series",
    "analyze", "shape_check", "ShapeReport", "InvariantError", "ShapeViolation",
    "PrimeSlot", "ScanReport", "enumerate_slots",
    "empirical_density", "split_fraction",
    "__version__",
]
