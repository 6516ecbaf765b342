"""End-to-end acceptance battery.

Each test covers one headline guarantee of the package, prints a single
PASS/FAIL line with the measured quantities, and asserts against a tolerance
fixed in this file.  Expected values come from hand derivations and closed
forms, never from the code under test.
"""

import math
import time

import numpy as np

from gwcoal import (
    FiniteSupportLaw,
    LinearFractionalLaw,
    a1_identity_check,
    a1_tail,
    btilde_witness_search,
    condition_on_survival,
    constant_environment,
    eta_law_at_depth,
    exact_chain_law,
    exact_tree_law,
    factorization_gap,
    figure1_consistency,
    lf_a1_tail,
    lf_iid_check,
    load_environment,
    mc_witness_check,
    tv_distance,
)
from gwcoal.cli import main
from gwcoal.pgf import compose_deriv, compose_range, eta_probs_generic

from conftest import env_path

GRID = (0.05, 0.25, 0.5, 0.75, 0.95)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def central_diff(f, s, order, h):
    if order == 1:
        return (f(s + h) - f(s - h)) / (2 * h)
    if order == 2:
        return (f(s + h) - 2 * f(s) + f(s - h)) / (h * h)
    raise ValueError(order)


def test_tree_law_equals_chain_law():
    # exhaustive genealogy law of the planar tree vs the backward chains, on
    # a constant and a varying three-generation environment plus a
    # geometric-offspring environment at horizon one
    t0 = time.perf_counter()
    rational_zero = True
    float_tv = 0.0
    for name in ("binom_n3", "varying_n3"):
        env = load_environment(env_path(name))
        tree_r = exact_tree_law(env.as_rational())
        for process in ("b", "d"):
            chain_r = exact_chain_law(env.as_rational(), process=process)
            rational_zero = rational_zero and tv_distance(tree_r, chain_r) == 0
        tree_f = exact_tree_law(env)
        chain_f = exact_chain_law(env)
        float_tv = max(float_tv, float(tv_distance(tree_f, chain_f)))
    lf = load_environment(env_path("lf_half_n1"))
    tree_lf = exact_tree_law(lf)
    chain_lf = exact_chain_law(lf)
    lf_tv = float(tv_distance(tree_lf, chain_lf))
    lf_slack = tree_lf.truncated_mass + chain_lf.truncated_mass
    elapsed = time.perf_counter() - t0
    ok = (
        rational_zero
        and float_tv < 1e-10
        and lf_tv < 1e-10 + lf_slack
        and elapsed < 60
    )
    report(
        "tree-vs-chain",
        ok,
        f"rational_exact_zero={rational_zero} float_tv={float_tv:.2e} "
        f"lf_tv={lf_tv:.2e} (slack {lf_slack:.1e}) elapsed={elapsed:.1f}s",
    )


def test_first_time_tail_identities():
    # closed form, per-level product, and population enumeration must agree;
    # then a Monte Carlo cross-check at a horizon out of enumeration's reach
    worst = 0.0
    for name in ("binom_n3", "varying_n3"):
        env = load_environment(env_path(name))
        for n in (1, 2, 3):
            worst = max(worst, a1_identity_check(env, n).metric)
    lf = load_environment(env_path("lf_half_n1"))
    worst = max(worst, a1_identity_check(lf, 1).metric)

    env6 = load_environment(env_path("binom_n6"))
    p = float(a1_tail(env6, 6))
    rng = np.random.default_rng(20260816)
    samples = 100_000
    hits = sum(1 for _ in range(samples) if condition_on_survival(env6, rng).k == 1)
    phat = hits / samples
    se = math.sqrt(p * (1 - p) / samples)
    mc_ok = abs(phat - p) <= 3 * se
    ok = worst <= 1e-10 and mc_ok
    report(
        "first-time-tail",
        ok,
        f"max_identity_gap={worst:.2e} mc_hat={phat:.5f} exact={p:.5f} "
        f"band=3se={3 * se:.5f} mc_ok={mc_ok}",
    )


def test_lf_tail_and_eta_closed_forms():
    # critical geometric case: P(first time > n) = 1/(n+1) by two unrelated
    # routes; generic case: spine-sibling law is exactly geometric
    env = load_environment(env_path("lf_half_n6"))
    worst_tail = 0.0
    for n in range(1, 7):
        target = 1.0 / (n + 1)
        worst_tail = max(
            worst_tail,
            abs(lf_a1_tail(env, n) - target),
            abs(float(a1_tail(env, n)) - target),
        )
    worst_eta = 0.0
    for envx in (env, load_environment(env_path("lf_varying_n3"))):
        N = envx.horizon
        for depth in range(1, N + 1):
            sub = envx.shift(N - depth)
            lam = eta_law_at_depth(envx, depth).geom
            for k, generic in enumerate(eta_probs_generic(sub, depth, range(51))):
                geom = lam * (1.0 - lam) ** k
                worst_eta = max(worst_eta, abs(float(generic) - geom))
    ok = worst_tail <= 1e-12 and worst_eta <= 1e-10
    report(
        "lf-closed-forms",
        ok,
        f"tail_gap={worst_tail:.2e} eta_gap={worst_eta:.2e}",
    )


def test_lf_independence_and_control(binom2):
    # first two coalescent times decouple for geometric offspring but not in
    # general; the control gap is 12/25 by hand
    env = load_environment(env_path("lf_varying_n3"))
    res = lf_iid_check(env)
    control_gap = factorization_gap(binom2)
    # lf_tv is the larger of the joint and the marginal total variations
    ok = res.passed and res.metric <= res.threshold and control_gap > 0.001
    report(
        "lf-independence",
        ok,
        f"lf_tv={res.metric:.2e} bound={res.threshold:.2e} "
        f"control_gap={control_gap:.4f}",
    )


def test_reference_table_rederived():
    t0 = time.perf_counter()
    res = figure1_consistency()
    elapsed = time.perf_counter() - t0
    mismatches = 0 if res.passed else len(res.detail.split("; "))
    ok = res.passed and res.detail == "all rows re-derived" and elapsed < 1.0
    report(
        "reference-table",
        ok,
        f"mismatches={mismatches} elapsed={elapsed * 1000:.0f}ms",
    )


def test_reduced_sequence_witness():
    # the reduced ancestry sequence remembers more than its last state: an
    # exact two-history witness, confirmed in direction by simulation
    t0 = time.perf_counter()
    env = load_environment(env_path("binom_n5"))
    w = btilde_witness_search(env)
    if w is None:
        report("reduced-sequence-witness", False, "no witness found: inconclusive")
        return
    mc = mc_witness_check(env, w, samples=1_000_000, seed=7)
    elapsed = time.perf_counter() - t0
    ok = w.tv > 0.01 and mc.same_direction and elapsed < 300
    report(
        "reduced-sequence-witness",
        ok,
        f"tv={w.tv:.4f} dp_gap={mc.dp_gap:.4f} mc_gap={mc.mc_gap:.4f} "
        f"hits=({mc.hits_a},{mc.hits_b}) elapsed={elapsed:.0f}s",
    )


def test_pgf_derivatives_and_mass():
    laws = [
        FiniteSupportLaw((0.25, 0.5, 0.25)),
        FiniteSupportLaw((0.5, 0.25, 0.25)),
        FiniteSupportLaw((0.125, 0.375, 0.5)),
        LinearFractionalLaw(0.5, 0.5),
        LinearFractionalLaw(0.6, 0.4),
    ]
    worst_rel = 0.0
    for law in laws:
        for order, h in ((1, 1e-5), (2, 1e-4)):
            for s in GRID:
                exact = float(law.pgf_deriv(s, order))
                approx = central_diff(lambda x: float(law.pgf(x)), s, order, h)
                worst_rel = max(worst_rel, abs(approx - exact) / max(abs(exact), 1e-12))
    env = load_environment(env_path("varying_n3"))
    for s in GRID:
        exact = float(compose_deriv(env, -3, 0, s))
        approx = central_diff(lambda x: float(compose_range(env, -3, 0, x)), s, 1, 1e-5)
        worst_rel = max(worst_rel, abs(approx - exact) / max(abs(exact), 1e-12))

    worst_mass = 0.0
    for law in laws:
        if isinstance(law, FiniteSupportLaw):
            total = sum(law.pmf(k) for k in range(law.max_children + 1))
        else:
            total = sum(law.pmf(k) for k in range(400))
        worst_mass = max(worst_mass, abs(float(total) - 1.0))
    ok = worst_rel < 1e-6 and worst_mass <= 1e-10
    report(
        "pgf-derivatives",
        ok,
        f"max_rel_fd_gap={worst_rel:.2e} max_mass_gap={worst_mass:.2e}",
    )


def test_cli_run_prefix_invariance(tmp_path):
    # every run draws from its own (seed, run id) stream, so the first n rows
    # of a 200-run campaign are the whole of an n-run campaign, for every
    # sampler and for n = 1 as well
    campaigns = {
        "simulate": ["simulate", "--env", env_path("binom_n3")],
        "chain-b": ["chain", "--env", env_path("varying_n3")],
        "chain-d": ["chain", "--process", "d", "--env", env_path("varying_n3")],
        "chain-lf": ["chain", "--process", "lf", "--env", env_path("lf_varying_n3")],
    }
    codes = []
    prefixes = {}
    for name, argv in campaigns.items():
        outs = {}
        for runs in (1, 100, 200):
            path = tmp_path / f"{name}_{runs}.csv"
            codes.append(
                main(argv + ["--samples", str(runs), "--seed", "5", "--out", str(path)])
            )
            outs[runs] = path.read_bytes().splitlines(keepends=True)
        for runs in (1, 100):
            head = [row for row in outs[200][1:] if int(row.split(b",")[0]) < runs]
            prefixes[f"{name}/{runs}"] = (
                len(outs[200]) == 201 and b"".join(outs[200][:1] + head) == b"".join(outs[runs])
            )
    ok = all(prefixes.values()) and codes == [0] * 12
    report("cli-run-prefix-invariance", ok, f"exit_codes={codes} prefix_equal={prefixes}")
