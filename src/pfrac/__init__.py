"""High-precision partial fractions of the restricted partition generating
function: exact residues at every Farey pole, the dominant simple-pole sums,
and their full asymptotic expansions through dilogarithm zeros and the
saddle-point method.

`__all__` is the public surface, and its one home: every name in it is
reached from the command line or an acceptance criterion, or is an oracle
that a test holds a production route against (tests/test_surface.py says
which).
"""

from .precision import (HPComplex, HPReal, PrecisionLossError, default_precision,
                        set_default_precision, tolerance)
from .sequences import bernoulli, stirling2
from .dilog import (BranchLabel, ConvergenceError, DilogZero, SaddlePoint, clausen,
                    find_saddle, find_zero, p_d, q_func)
from .sine_products import em_remainder, em_remainder_scan, psi, psi_table, t_l_bound
from .residues import (FamilySelector, FareyFraction, a1_sum, c01l_exact, c_from_q,
                       family_sum, farey, p_restricted, principal_part, q01_exact,
                       q_general, reconstruct_product, residue_report, residue_sum)
from .asymptotics import (Expansion, a3_quadrature, b_coeffs, c_coeffs, decay_exponent,
                          evaluate_expansion, family_leading, path_positivity_check,
                          saddle_path, u_weight, v_func, vstar_weight)

__all__ = [
    "HPComplex", "HPReal", "PrecisionLossError", "default_precision", "set_default_precision",
    "tolerance",
    "bernoulli", "stirling2",
    "BranchLabel", "ConvergenceError", "DilogZero", "SaddlePoint", "clausen",
    "find_saddle", "find_zero", "p_d", "q_func",
    "em_remainder", "em_remainder_scan", "psi", "psi_table", "t_l_bound",
    "FamilySelector", "FareyFraction", "a1_sum", "c01l_exact", "c_from_q",
    "family_sum", "farey", "p_restricted", "principal_part", "q01_exact",
    "q_general", "reconstruct_product", "residue_report", "residue_sum",
    "Expansion", "a3_quadrature", "b_coeffs", "c_coeffs", "decay_exponent",
    "evaluate_expansion", "family_leading", "path_positivity_check",
    "saddle_path", "u_weight", "v_func", "vstar_weight",
]

__version__ = "0.1.0"
