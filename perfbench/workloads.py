"""Seeded inputs and command campaigns of the three benchmark workloads.

Everything here is derived from the workload seed: the generated
environments (dyadic offspring laws, so rational mode accepts them) and the
``--seed`` of every command.  Generated environments are written to files and
handed to the command line with ``--env``, so the program sees only inputs.

Generated environments are drawn from narrow families (pinned survival
probability, pinned support) so that the work of a campaign, and hence its
rate, depends little on the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from gwcoal.environment import Environment, load_environment, save_environment
from gwcoal.laws import FiniteSupportLaw, LinearFractionalLaw
from gwcoal.pgf import survival_prob

WORKLOADS = ("short_n6", "deep_n200", "exact_n3")

MAX_CANDIDATES = 200_000
SEED_SETS = 2


@dataclass(frozen=True)
class EnvInput:
    name: str
    path: str
    env: Environment
    generated: bool


@dataclass(frozen=True)
class Campaign:
    """One command line, run ``reps`` times per round.

    ``runs`` is the number of genealogies one execution writes (0 for the
    table and verify commands).  A sampling campaign has one ``--seed`` per
    seed set; rounds cycle through the sets, so repeats of a set check
    determinism while the sets together average over more samples.
    """

    ident: str
    metric: str
    command: str
    env: str
    argv: tuple[str, ...]
    runs: int = 0
    reps: int = 1
    seeds: tuple[int, ...] = ()

    def command_line(self, seed_set: int) -> list[str]:
        if not self.seeds:
            return list(self.argv)
        return list(self.argv) + ["--seed", str(self.seeds[seed_set % len(self.seeds)])]


@dataclass
class Workload:
    name: str
    envs: dict[str, EnvInput] = field(default_factory=dict)
    campaigns: list[Campaign] = field(default_factory=list)


def _rng(seed: int, name: str) -> np.random.Generator:
    tag = WORKLOADS.index(name)
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _pmf_env(counts: list[list[int]], denom: int) -> Environment:
    return Environment(tuple(FiniteSupportLaw(tuple(c / denom for c in row)) for row in counts))


def _search(rng: np.random.Generator, draw, accept, what: str) -> Environment:
    for _ in range(MAX_CANDIDATES):
        env = draw(rng)
        if accept(env):
            return env
    raise RuntimeError(f"no {what} environment found in {MAX_CANDIDATES} candidates")


def subcritical_n6(rng: np.random.Generator) -> Environment:
    """Varying subcritical laws on {0..3}, denominator 64, survival 2.9-3.1 %."""

    def draw(r):
        rows = []
        for _ in range(6):
            c0 = int(r.integers(34, 46))
            rows.append([c0] + [int(x) for x in r.multinomial(64 - c0, [1 / 3] * 3)])
        return _pmf_env(rows, 64)

    return _search(rng, draw, lambda e: 0.029 <= survival_prob(e, 6) <= 0.031, "subcritical")


def near_critical_pmf(rng: np.random.Generator, horizon: int = 200) -> Environment:
    """Laws (a+d, 1-2a, a-d)/128 on {0,1,2}; the drifts d cancel over the
    window, so the product of means stays near one.  Survival 3.45-3.55 %."""

    def draw(r):
        half = r.integers(-1, 2, size=horizon // 2)
        drift = r.permutation(np.concatenate([half, -half]))
        spread = r.integers(8, 25, size=horizon)
        rows = [[int(a + d), int(128 - 2 * a), int(a - d)] for a, d in zip(spread, drift)]
        return _pmf_env(rows, 128)

    return _search(rng, draw, lambda e: 0.0345 <= survival_prob(e, horizon) <= 0.0355,
                   "near-critical pmf")


def near_critical_lf(rng: np.random.Generator, horizon: int = 200) -> Environment:
    """LF laws with dyadic p = c/256 and r = p + d/256, drifts cancelling;
    survival 1.20-1.26 %."""

    def draw(r):
        ps = r.integers(160, 209, size=horizon)
        half = r.integers(-2, 3, size=horizon // 2)
        drift = r.permutation(np.concatenate([half, -half]))
        return Environment(tuple(
            LinearFractionalLaw(float(p + d) / 256, float(p) / 256) for p, d in zip(ps, drift)
        ))

    return _search(rng, draw, lambda e: 0.0120 <= survival_prob(e, horizon) <= 0.0126,
                   "near-critical LF")


def exact_n3_env(rng: np.random.Generator) -> Environment:
    """Horizon 3, every law a seeded permutation of (5, 7, 9, 11)/32.

    Full support at every level fixes the number of genealogy outcomes, and
    odd numerators of one fixed set keep the sizes of the exact fractions,
    hence the cost of the rational sweeps, nearly independent of the seed.
    """
    return _pmf_env([[int(c) for c in rng.permutation([5, 7, 9, 11])] for _ in range(3)], 32)


def _bundled(repo: str, name: str) -> EnvInput:
    path = os.path.join(repo, "envs", f"{name}.json")
    return EnvInput(name, path, load_environment(path), generated=False)


def _generated(workdir: str, name: str, env: Environment) -> EnvInput:
    path = os.path.join(workdir, f"{name}.json")
    save_environment(env, path)
    return EnvInput(name, path, load_environment(path), generated=True)


def build(name: str, seed: int, repo: str, workdir: str) -> Workload:
    """Generate the workload's environments into ``workdir`` and list its
    campaigns.  Sizes are fixed per workload, never per seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = _rng(seed, name)
    wl = Workload(name)

    def env(e: EnvInput) -> None:
        wl.envs[e.name] = e

    def add(metric: str, command: str, env_name: str, extra=(), runs: int = 0, reps: int = 1):
        argv = [command, "--env", wl.envs[env_name].path] + list(extra)
        seeds = ()
        if runs:
            argv += ["--samples", str(runs)]
            seeds = tuple(int(x) for x in rng.integers(0, 2**63, size=SEED_SETS))
        tag = "-".join([command, env_name] + [x.lstrip("-") for x in extra])
        copies = sum(1 for c in wl.campaigns if c.ident.split("#")[0] == tag)
        tag += f"#{copies + 1}" if copies else ""
        wl.campaigns.append(Campaign(tag, metric, command, env_name, tuple(argv), runs, reps, seeds))

    def sampling(env_name: str, runs: int, processes=("b", "d")) -> None:
        for proc in processes:
            metric = "chain_lf_per_s" if proc == "lf" else f"chain_{proc}_per_s"
            add(metric, "chain", env_name, ("--process", proc), runs)

    def tables(env_name: str, reps: int) -> None:
        add("tables_s", "tail", env_name, reps=reps)
        add("tables_s", "eta", env_name, reps=reps)

    if name == "short_n6":
        # per-run costs dominate: stream setup, sampler rebuilds, rejections
        env(_bundled(repo, "binom_n6"))
        env(_generated(workdir, "subcritical_n6", subcritical_n6(rng)))
        env(_bundled(repo, "lf_half_n6"))
        runs = 1000
        for e in ("binom_n6", "subcritical_n6"):
            add("forward_per_s", "simulate", e, runs=runs)
            sampling(e, runs)
            tables(e, reps=10)
        sampling("lf_half_n6", runs, ("lf",))
        tables("lf_half_n6", reps=10)
        add("verify_s", "verify", "subcritical_n6", reps=50)
    elif name == "deep_n200":
        # per-level pgf work dominates: tails, eta tables, sampler builds
        env(_generated(workdir, "critical_pmf_n200", near_critical_pmf(rng)))
        env(_generated(workdir, "critical_lf_n200", near_critical_lf(rng)))
        for e in ("critical_pmf_n200", "critical_lf_n200"):
            tables(e, reps=1)
        sampling("critical_pmf_n200", 20, ("b", "d"))
        sampling("critical_lf_n200", 100, ("lf",))
        # split so that each part is timed next to its own calibration
        for _ in range(2):
            add("forward_per_s", "simulate", "critical_pmf_n200", runs=60)
        add("verify_s", "verify", "critical_pmf_n200", reps=20)
    else:
        # exact sweeps in Fraction and float arithmetic; sampling is light
        env(_generated(workdir, "full_support_n3", exact_n3_env(rng)))
        env(_bundled(repo, "lf_varying_n3"))
        env(_bundled(repo, "binom_n5"))
        env(_bundled(repo, "varying_n3"))
        add("verify_s", "verify", "full_support_n3", ("--rational",))
        add("verify_s", "verify", "lf_varying_n3")
        add("verify_s", "verify", "binom_n5", ("--witness",), reps=10)
        for _ in range(2):
            add("forward_per_s", "simulate", "varying_n3", runs=1000)
            sampling("varying_n3", 1000)
            sampling("lf_varying_n3", 1000, ("lf",))
        for e in ("full_support_n3", "lf_varying_n3"):
            tables(e, reps=10)
    return wl
