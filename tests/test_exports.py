import importlib
import inspect
import pkgutil
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


def test_only_the_suite_takes_rational():
    # exact mode follows the environment's numbers; only the suite, which
    # ``verify --rational`` drives, forms the exact environment itself
    takers = []
    for info in pkgutil.iter_modules(gwcoal.__path__):
        module = importlib.import_module(f"gwcoal.{info.name}")
        owners = [module] + [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                             if cls.__module__ == module.__name__]
        for owner in owners:
            for _, func in inspect.getmembers(owner, inspect.isfunction):
                if func.__module__ == module.__name__ \
                        and "rational" in inspect.signature(func).parameters:
                    takers.append(f"{module.__name__}.{func.__qualname__}")
    assert sorted(set(takers)) == ["gwcoal.verify.run_verify_suite"]
