"""Complex conjugate pair sums, nested periodic transforms, and period,
frequency and phase estimation."""

from .ccps import (COS, SIN, CcpsSpec, ccps, ccps1, ccps2, ccps_inner_product,
                   ccps_spectrum, pair_scale, ramanujan_sum)
from .foccpt import OpCounter, complexity_table, foccpt, predicted_counts
from .matrices import (CCPT1, CCPT2, DFT_NPM, FAMILIES, OCCPT, RPT,
                       ColumnLayout, PeriodicBasisMatrix, SubspaceIndex,
                       ValidationReport, build_ccpt1, build_ccpt2,
                       build_dft_npm, build_matrix, build_occpt, build_rpt,
                       cached_matrix, column_layout,
                       export_matrix_csv, export_matrix_metadata,
                       matrix_metadata, subspace_block, validate_npm)
from .numtheory import divisors, gcd, lcm_list, residue_sets, totient
from .period import (FAREY, CandidateReport, DictionarySolution,
                     FrequencyComponent, GramFactor, PeriodicDictionary, PeriodReport,
                     build_dictionary, candidate_matrix_solve,
                     dictionary_solve, frequency_components, min_data_length,
                     period_strengths)
from .signals import (Signal, make_x1, make_x2, samples_of, synthetic_ecg,
                      x1_clean, x2_clean)
from .transform import (CoefficientSet, analyze, band_filter,
                        coefficient_period_check, coefficients_to_dict,
                        convolve_coefficients, dft_from_occpt, occpt_analysis,
                        occpt_synthesis, parseval_energy, shift_coefficients,
                        synthesize)

__version__ = "0.1.0"
