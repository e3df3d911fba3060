"""Composite-pulse Householder reflections for star-coupled N-pod systems.

Exact two-level and (N+1)-level propagators, broadband and universal
composite phase families, phase-gate synthesis, and infidelity scans over
pulse area and detuning.
"""

from .composite import (
    GateSequence,
    PhaseList,
    bb_phases,
    composite_phase_gate,
    gate_sequence,
    sequence_propagator,
    universal_phases,
)
from .errors import ValidationError
from .linalg import expm_hermitian, unitarity_defect
from .metrics import (
    AXIS_AREA,
    AXIS_DETUNING,
    ScanAxis,
    ScanGrid,
    ScanResult,
    bb_infidelity_analytic,
    infidelity,
    scan_2d,
    scan_area,
)
from .npod import (
    HouseholderTarget,
    MSReduction,
    NPodSystem,
    composite_hr,
    householder_matrix,
    manifold_block,
    ms_reduce,
    npod_hamiltonian,
    npod_propagator,
    pulse_propagator,
    random_system,
)
from .two_level import (
    Propagator2,
    PulseShape,
    gaussian,
    rectangular,
    star_propagator,
    tabulated,
)

__version__ = "0.1.0"

__all__ = [
    "AXIS_AREA",
    "AXIS_DETUNING",
    "GateSequence",
    "HouseholderTarget",
    "MSReduction",
    "NPodSystem",
    "PhaseList",
    "Propagator2",
    "PulseShape",
    "ScanAxis",
    "ScanGrid",
    "ScanResult",
    "ValidationError",
    "bb_infidelity_analytic",
    "bb_phases",
    "composite_hr",
    "composite_phase_gate",
    "expm_hermitian",
    "gate_sequence",
    "gaussian",
    "householder_matrix",
    "infidelity",
    "manifold_block",
    "ms_reduce",
    "npod_hamiltonian",
    "npod_propagator",
    "pulse_propagator",
    "random_system",
    "rectangular",
    "scan_2d",
    "scan_area",
    "sequence_propagator",
    "star_propagator",
    "tabulated",
    "unitarity_defect",
    "universal_phases",
    "__version__",
]
