"""Finite-scale verification of a lattice loop-group construction.

The package builds a discrete circle model of free fermions (Clifford
generators on a finite Fock space), implements rotations by unitaries,
derives the modular structure of the half-circle algebra, and checks the
strict 2-group identities tying loops, paths and operator algebras
together.  The suites layer turns every identity into a seeded, gated
numerical check with machine-readable reports.
"""

from .clifford import (CliffordModel, LatticeModel, build_clifford_model,
                       clifford_monomials, default_lagrangian, half_space,
                       pi_vector, validate_lagrangian)
from .linalg import AntilinearOperator, TolerancePolicy, polar_unitary
from .report import CheckRecord, RunConfig, emit_report
from .suites import run, run_suites

__all__ = [
    "AntilinearOperator",
    "CheckRecord",
    "CliffordModel",
    "LatticeModel",
    "RunConfig",
    "TolerancePolicy",
    "build_clifford_model",
    "clifford_monomials",
    "default_lagrangian",
    "emit_report",
    "half_space",
    "pi_vector",
    "polar_unitary",
    "run",
    "run_suites",
    "validate_lagrangian",
]
