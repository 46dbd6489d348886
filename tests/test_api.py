"""The public API: exactly the names the CLI, tables and cross-checks use."""

from __future__ import annotations

import ordens


def test_all_is_pinned_and_resolves():
    assert ordens.__all__ == [
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
    assert [n for n in ordens.__all__ if not hasattr(ordens, n)] == []
