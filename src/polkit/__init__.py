"""polkit: static dipole polarizabilities, BBR clock shifts, and lifetimes.

The physics input is a declarative dataset of levels, reduced E1 matrix
elements, and core/tail polarizability terms; everything downstream is a
deterministic floating-point pipeline with quadrature error propagation.
"""

from .angular import tensor_prefactor_C, triangle_ok, wigner6j
from .bbr import BBRConditions, au_to_si, bbr_shift_state, clock_bbr_shift
from .constants import (
    BBR_FIELD_300K,
    HARTREE_IN_CM,
    POLARIZABILITY_AU_IN_SI,
    RATE_AU_IN_PER_S,
    SPEED_OF_LIGHT_AU,
)
from .dataset import (
    A0_CUBED,
    DIMENSIONLESS,
    E_A0,
    HERTZ,
    MEGAHERTZ,
    NANOSECOND,
    SCALAR,
    SI_POLARIZABILITY,
    TENSOR,
    Dataset,
    DatasetError,
    Level,
    LevelLabel,
    Quantity,
    ReducedE1,
    UnitMismatchError,
    UnknownLevelError,
    builtin_dataset_text,
    energy_difference_au,
    parse_dataset,
    validate,
)
from .polarizability import (
    Contribution,
    PolarizabilityBreakdown,
    assemble_breakdown,
    scalar_contribution,
    tensor_contribution,
)
from .radiative import DecayChannel, decay_channels, einstein_A, extract_matrix_element, lifetime
from .report import Report, format_quantity, format_value_unc, render_table

__version__ = "0.1.0"

__all__ = [
    "A0_CUBED",
    "BBRConditions",
    "BBR_FIELD_300K",
    "Contribution",
    "DIMENSIONLESS",
    "Dataset",
    "DatasetError",
    "DecayChannel",
    "E_A0",
    "HERTZ",
    "HARTREE_IN_CM",
    "Level",
    "LevelLabel",
    "MEGAHERTZ",
    "NANOSECOND",
    "POLARIZABILITY_AU_IN_SI",
    "PolarizabilityBreakdown",
    "Quantity",
    "RATE_AU_IN_PER_S",
    "ReducedE1",
    "Report",
    "SCALAR",
    "SI_POLARIZABILITY",
    "SPEED_OF_LIGHT_AU",
    "TENSOR",
    "UnitMismatchError",
    "UnknownLevelError",
    "assemble_breakdown",
    "au_to_si",
    "bbr_shift_state",
    "builtin_dataset_text",
    "clock_bbr_shift",
    "decay_channels",
    "einstein_A",
    "energy_difference_au",
    "extract_matrix_element",
    "format_quantity",
    "format_value_unc",
    "lifetime",
    "parse_dataset",
    "render_table",
    "scalar_contribution",
    "tensor_contribution",
    "tensor_prefactor_C",
    "triangle_ok",
    "validate",
    "wigner6j",
]
