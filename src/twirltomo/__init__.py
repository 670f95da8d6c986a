"""Twirling-based partial quantum process tomography.

Chi-matrix channel models in the Pauli basis, exact small-n simulation
oracles, stabilizer/MUB machinery, and the sampled twirl protocols that
estimate diagonal chi information: selective and blind full-space twirl
estimation, and one-qubit-twirl weight/support coarse graining.
"""

__version__ = "0.1.0"

from .channels import (ChannelModel, ChiMatrix, apply_chi, check_cp_bound,
                       check_positive_bound, chi_from_kraus, classify,
                       coarse_grain, diagonalize_chi)
from .dense import (DenseBackend, TwirlSpec, enumerate_twirl_exact,
                    exact_chi_extraction, haar_twirl_moment)
from .localtwirl import (HammingStatistics, LocalTwirlConfig, c1t_fidelity,
                         r_matrix, run_local_twirl, sample_c1t_realization,
                         solve_chi_col, solve_pw)
from .pauli import Pauli, commutes, multiply
from .records import ExperimentRecord
from .seqpt import (SeqptConfig, SeqptResult, average_fidelity, compare_variants,
                    estimate_chi_selective, frames_independent_probability,
                    run_blind_discovery, success_probability)
from .stabilizer import Clifford, build_mub_family, sample_clifford_uniform

__all__ = [
    "__version__",
    "Pauli", "multiply", "commutes",
    "ChannelModel", "ChiMatrix", "chi_from_kraus", "apply_chi",
    "diagonalize_chi", "classify", "check_cp_bound", "check_positive_bound",
    "coarse_grain",
    "DenseBackend", "TwirlSpec",
    "haar_twirl_moment", "exact_chi_extraction", "enumerate_twirl_exact",
    "Clifford", "build_mub_family", "sample_clifford_uniform",
    "SeqptConfig", "SeqptResult", "estimate_chi_selective", "average_fidelity",
    "run_blind_discovery", "success_probability", "frames_independent_probability",
    "compare_variants",
    "LocalTwirlConfig", "HammingStatistics", "ExperimentRecord",
    "sample_c1t_realization", "r_matrix", "solve_pw",
    "solve_chi_col", "run_local_twirl", "c1t_fidelity",
]
