"""High-precision partial fractions of the restricted partition generating
function: exact residues at every Farey pole, the dominant simple-pole sums,
and their full asymptotic expansions through dilogarithm zeros and the
saddle-point method.
"""

from .precision import (HPComplex, HPReal, default_precision,
                        set_default_precision, tolerance)
from .sequences import bernoulli, binom_half, stirling2
from .dilog import (BranchLabel, ConvergenceError, DilogZero, SaddlePoint, clausen, find_saddle,
                    find_zero, li2_continued, li2_principal, p_d, p_d_prime,
                    p_d_second, q_func, r_func, r_q_v_eval, v_func)
from .sine_products import (EMConfig, MinimalPair, SineProductValue,
                            cot_derivative, em_product_estimate, em_remainder,
                            em_remainder_scan, g_ell, minimal_pair, psi,
                            psi_table, r_delta, s_wave_sum, sine_product,
                            t_l_bound)
from .residues import (FamilySelector, FareyFraction, PrecisionLossError,
                       a1_sum, c01l_exact, c_from_q, family_sum, farey,
                       p_restricted, principal_part, q01_exact, q_from_c,
                       q_general, q_simple, reconstruct_product,
                       residue_report, residue_sum, sylvester_wave)
from .asymptotics import (Expansion, LocalSeriesPair, a3_quadrature,
                          b_coeffs, bell_partial, c_coeffs, decay_exponent,
                          evaluate_expansion, family_leading, local_series,
                          path_positivity_check, saddle_path, u_weight,
                          vstar_weight, wojdylo_a2s)

__version__ = "0.1.0"
