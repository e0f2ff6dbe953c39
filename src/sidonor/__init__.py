"""Gate-controlled donor hyperfine shifts and two-donor spin spectra for
Kane-type silicon quantum-computing structures.

The public names load lazily (PEP 562): ``import sidonor`` imports no library
module, and the first use of a name imports its home module, so a process
that needs only the config layer and ``hic`` never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# every public name -> its home module
_HOME = {
    "AnticrossingReport": "spectrum",
    "BASIS": "spin_hamiltonian",
    "BLOCKS": "spin_hamiltonian",
    "BasisState": "spin_hamiltonian",
    "ConvergenceError": "constants",
    "DEFAULT_CONSTANTS": "constants",
    "DEFAULT_MATERIAL": "constants",
    "ErrorBudgetReport": "error_budget",
    "FieldCoefficients": "electrostatics",
    "GateGeometry": "electrostatics",
    "HicShiftBreakdown": "hyperfine",
    "HydrogenicState": "hyperfine",
    "MU_OVER_BETA": "spin_hamiltonian",
    "MaterialParams": "constants",
    "NullingTable": "error_budget",
    "PhysicalConstants": "constants",
    "PlacementError": "constants",
    "SpectrumSweep": "spectrum",
    "SpinParams": "spin_hamiltonian",
    "Track": "spectrum",
    "TransferTrace": "spectrum",
    "adiabatic_transfer_trace": "spectrum",
    "admissible_voltage_error": "error_budget",
    "block_decompose": "spin_hamiltonian",
    "build_hamiltonian": "spin_hamiltonian",
    "disc_field_coeffs": "electrostatics",
    "disc_potential": "electrostatics",
    "dz_for_target": "error_budget",
    "eigensolve_block": "spectrum",
    "eq19_gap_dimensionless": "spectrum",
    "field_coeffs": "electrostatics",
    "find_anticrossings": "spectrum",
    "find_nulling_parameters": "error_budget",
    "hic_shift": "hyperfine",
    "hyperfine_constant_A0": "constants",
    "matrix_element_2s1s": "hyperfine",
    "relative_hic_error": "error_budget",
    "residual_delta_E": "constants",
    "second_order_shift": "hyperfine",
    "spin_transfer_reports": "spectrum",
    "strip_field_coeffs": "electrostatics",
    "strip_potential": "electrostatics",
    "sweep_spectrum": "spectrum",
    "taylor_check": "electrostatics",
    "voltage_polynomial": "hyperfine",
}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups bypass this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
