from pathlib import Path

import gwcoal

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# The public surface, spelled out: an export added or dropped shows up here
# as a one-line diff.
EXPORTS = [
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


def test_all_is_the_listed_surface():
    assert gwcoal.__all__ == EXPORTS


def test_every_export_is_named_in_the_readme():
    assert [name for name in EXPORTS if f"`{name}`" not in README] == []
