"""Twirling-based partial quantum process tomography.

Chi-matrix channel models in the Pauli basis, exact small-n simulation
oracles, stabilizer/MUB machinery, and the sampled twirl protocols that
estimate diagonal chi information: selective and blind full-space twirl
estimation, and one-qubit-twirl weight/support coarse graining.

``import twirltomo`` loads no submodule: each public name in ``__all__`` is
resolved from its home module on first access (PEP 562), so a CLI verb or a
script that uses one protocol does not pay for importing the others.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    "Pauli": "pauli", "multiply": "pauli", "commutes": "pauli",
    "ChannelModel": "channels", "ChiMatrix": "channels", "chi_from_kraus": "channels",
    "diagonalize_chi": "channels", "classify": "channels",
    "check_cp_bound": "channels", "check_positive_bound": "channels",
    "coarse_grain": "channels",
    "DenseBackend": "dense", "TwirlSpec": "dense", "haar_twirl_moment": "dense",
    "exact_chi_extraction": "dense", "enumerate_twirl_exact": "dense",
    "Clifford": "stabilizer", "build_mub_family": "stabilizer",
    "sample_clifford_uniform": "stabilizer",
    "SeqptConfig": "seqpt", "SeqptResult": "seqpt", "estimate_chi_selective": "seqpt",
    "average_fidelity": "seqpt", "run_blind_discovery": "seqpt",
    "success_probability": "seqpt", "frames_independent_probability": "seqpt",
    "compare_variants": "seqpt",
    "LocalTwirlConfig": "localtwirl", "HammingStatistics": "localtwirl",
    "ExperimentRecord": "localtwirl",
    "sample_c1t_realization": "localtwirl", "r_matrix": "localtwirl",
    "solve_pw": "localtwirl", "solve_chi_col": "localtwirl",
    "solve_weight_probs_exact": "localtwirl", "solve_chi_col_exact": "localtwirl",
    "run_local_twirl": "localtwirl", "c1t_fidelity": "localtwirl",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
