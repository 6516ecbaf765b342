"""Genealogies of branching trees in varying environments.

The package simulates planar-embedded branching trees over a finite number of
generations with a per-generation offspring law, extracts the genealogy of
the survivors as a sequence of coalescent times, and provides the equivalent
backward constructions: two Markov chains that generate the genealogy
directly, plus closed forms for linear-fractional offspring laws.  The
``verify`` module proves the equivalences numerically by exact enumeration.
"""

from .chains import (
    ChainRun,
    EtaSamplers,
    b_run,
    d_run,
    lf_run,
    validate_b_run,
    validate_d_run,
)
from .disttable import DistTable, tv_distance
from .environment import (
    Environment,
    constant_environment,
    environment_from_dict,
    lf_a1_tail,
    load_environment,
    save_environment,
)
from .errors import (
    AttemptCapError,
    ChainStateError,
    DegenerateEnvironmentError,
    DomainError,
    EnumerationGuardError,
    EnvFormatError,
    GwcoalError,
    HorizonError,
    NotLinearFractionalError,
)
from .laws import FiniteSupportLaw, LinearFractionalLaw, dirac
from .pgf import (
    EtaLaw,
    a1_tail,
    eta_law_at_depth,
    survival_prob,
)
from .sampling import stream_for_run
from .tree import (
    Cpp,
    Tree,
    ancestor_index,
    coalescent_times,
    condition_on_survival,
    cpp_and_marks,
    dump_tree,
    extract_B,
    extract_Btilde,
    extract_D,
    genealogy_from_cpp,
    simulate_tree,
)
from .verify import (
    CheckResult,
    Witness,
    a1_identity_check,
    btilde_witness_search,
    exact_chain_law,
    exact_population_law,
    exact_tree_law,
    factorization_gap,
    figure1_consistency,
    joint_first_two_times,
    lf_closed_form_checks,
    lf_iid_check,
    mc_witness_check,
    run_verify_suite,
    tree_vs_chain_check,
)

__version__ = "0.1.0"

__all__ = [
    "AttemptCapError",
    "ChainRun",
    "ChainStateError",
    "CheckResult",
    "Cpp",
    "DegenerateEnvironmentError",
    "DistTable",
    "DomainError",
    "EnumerationGuardError",
    "EnvFormatError",
    "Environment",
    "EtaLaw",
    "EtaSamplers",
    "FiniteSupportLaw",
    "GwcoalError",
    "HorizonError",
    "LinearFractionalLaw",
    "NotLinearFractionalError",
    "Tree",
    "Witness",
    "a1_identity_check",
    "a1_tail",
    "ancestor_index",
    "b_run",
    "btilde_witness_search",
    "coalescent_times",
    "condition_on_survival",
    "constant_environment",
    "cpp_and_marks",
    "d_run",
    "dirac",
    "dump_tree",
    "environment_from_dict",
    "eta_law_at_depth",
    "exact_chain_law",
    "exact_population_law",
    "exact_tree_law",
    "extract_B",
    "extract_Btilde",
    "extract_D",
    "factorization_gap",
    "figure1_consistency",
    "genealogy_from_cpp",
    "joint_first_two_times",
    "lf_a1_tail",
    "lf_closed_form_checks",
    "lf_iid_check",
    "lf_run",
    "load_environment",
    "mc_witness_check",
    "run_verify_suite",
    "save_environment",
    "simulate_tree",
    "stream_for_run",
    "survival_prob",
    "tree_vs_chain_check",
    "tv_distance",
    "validate_b_run",
    "validate_d_run",
]
