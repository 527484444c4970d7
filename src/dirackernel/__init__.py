"""Exact-arithmetic computations around the Dirac operator on equal-rank
compact symmetric spaces: root systems and Weyl groups over rationals,
character arithmetic on the integer grid, spinor weights, the kernel
classification, and an independent character-theoretic verifier."""

from .characters import branch_equal_rank, tensor, weyl_dim
from .dirac import (EulerReport, KernelResult, KernelStatus,
                    casimir_eigenvalue, chi_casimir_check, dirac_kernel,
                    euler_verify)
from .lattice import LatticeSpec, Weight
from .roots import RootSystem, WeylElement, build_classical, weyl_group
from .spin import (SpinorWeights, chi_decompose, chi_trace_difference,
                   spinor_weights)
from .sympair import (SymmetricPair, W1Element, admissible_mu,
                      admissibility_failures, builtin_pair,
                      builtin_pair_names, validate_pair, w1_enumerate)

__version__ = "0.1.0"

__all__ = [
    "branch_equal_rank", "tensor", "weyl_dim",
    "EulerReport", "KernelResult", "KernelStatus", "casimir_eigenvalue",
    "chi_casimir_check", "dirac_kernel", "euler_verify",
    "LatticeSpec", "Weight",
    "RootSystem", "WeylElement", "build_classical", "weyl_group",
    "SpinorWeights", "chi_decompose", "chi_trace_difference",
    "spinor_weights",
    "SymmetricPair", "W1Element", "admissible_mu",
    "admissibility_failures", "builtin_pair", "builtin_pair_names",
    "validate_pair", "w1_enumerate",
    "__version__",
]
