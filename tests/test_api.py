"""The public API: exactly these names, each importable from the package."""

import comphr

PUBLIC_API = [
    "AXIS_AREA", "AXIS_DETUNING", "GateSequence", "HouseholderTarget",
    "MSReduction", "NPodSystem", "PhaseList", "Propagator2",
    "PulseShape", "ScanAxis", "ScanGrid", "ScanResult",
    "ValidationError", "__version__", "bb_infidelity_analytic", "bb_phases",
    "composite_hr", "composite_phase_gate", "expm_hermitian", "gate_sequence", "gaussian",
    "householder_matrix", "infidelity", "manifold_block", "ms_reduce",
    "npod_hamiltonian", "npod_propagator", "pulse_propagator", "random_system",
    "rectangular", "resonant_propagator", "scan_2d", "scan_area",
    "sequence_propagator", "star_propagator", "tabulated", "unitarity_defect", "universal_phases",
]


def test_public_api_is_pinned():
    assert len(PUBLIC_API) == 38
    assert sorted(comphr.__all__) == PUBLIC_API
    missing = [name for name in comphr.__all__ if not hasattr(comphr, name)]
    assert missing == []
