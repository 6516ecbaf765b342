"""Seeded CLI outputs pinned by digest.

``golden_outputs.json`` maps each command line below to the sha256 of the
bytes it writes with ``--out``.  A refactor that keeps the random-stream
contract must reproduce every digest.  The ``checks`` labels pin the verify
lines: their metrics, thresholds and details.  To regenerate the file at a
commit whose outputs are the reference:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_outputs.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from gwcoal.cli import EXIT_OK, main

HERE = Path(__file__).resolve().parent
ENVS = HERE.parent / "envs"
GOLDEN = HERE / "golden_outputs.json"
SEED = "7"
SAMPLES = "200"
WITNESS_ENVS = ("binom_n3", "binom_n5", "varying_n3")
# --trace is the only output that prints chain states
TRACE_ENVS = ("binom_n3", "varying_n3")
# one- and two-word seeds: the run id is the last entropy word either way
WORD_SEEDS = ("0", str(2 ** 32), str(2 ** 64 - 1))
WORD_CAMPAIGNS = {
    "binom_n3": ("simulate", "chain-b", "chain-d"),
    "lf_half_n6": ("chain-lf",),
}
# environments written from a literal.  full_support_n3: every law a
# permutation of (5, 7, 9, 11)/32, whose rational sweep has far more outcomes
# than any bundled environment's.  deep_n40: the critical (1/4, 1/2, 1/4) law
# over 40 generations, whose chain states are long and mostly zero
LITERAL_ENVS = {
    "full_support_n3": {"horizon": 3, "laws": [
        {"type": "pmf", "p": [c / 32 for c in perm]}
        for perm in ((5, 7, 9, 11), (11, 9, 7, 5), (7, 11, 5, 9))
    ]},
    "deep_n40": {"horizon": 40, "laws": [{"type": "pmf", "p": [0.25, 0.5, 0.25]}] * 40},
}
# literal environments whose chains are pinned, plain and traced
LITERAL_CHAIN_ENVS = ("deep_n40",)
# deep_n40's law over 22 generations, pinned by no digest: the d chain's
# start has 2**22 transitions, under the witness search's budget, and their
# states hold 22 * 2**21 pairs, over it
DEEP_N22 = {"horizon": 22, "laws": [{"type": "pmf", "p": [0.25, 0.5, 0.25]}] * 22}


def commands() -> dict[str, list[str]]:
    """Label -> argv, for every bundled environment."""
    out: dict[str, list[str]] = {"figure1:checks": ["verify", "--figure1"]}
    for path in sorted(ENVS.glob("*.json")):
        env = ["--env", str(path)]
        campaign = env + ["--seed", SEED, "--samples", SAMPLES]
        processes = ["b", "d"] + (["lf"] if path.stem.startswith("lf_") else [])
        out[f"{path.stem}:tail"] = ["tail"] + env
        out[f"{path.stem}:eta"] = ["eta"] + env
        out[f"{path.stem}:simulate"] = ["simulate"] + campaign
        for process in processes:
            out[f"{path.stem}:chain-{process}"] = ["chain", "--process", process] + campaign
        if path.stem in TRACE_ENVS:
            for process in ("b", "d"):
                out[f"{path.stem}:chain-{process}-trace"] = [
                    "chain", "--process", process, "--trace", "--validate", "--seed", SEED] + env
        out[f"{path.stem}:checks"] = ["verify"] + env
        out[f"{path.stem}:checks-rational-json"] = ["verify", "--rational", "--format", "json"] + env
        if path.stem in WITNESS_ENVS:
            out[f"{path.stem}:checks-witness"] = ["verify", "--witness", "--witness-mc-samples",
                                                  "2000", "--seed", SEED] + env
    for stem, kinds in WORD_CAMPAIGNS.items():
        for kind in kinds:
            command = (["simulate"] if kind == "simulate"
                       else ["chain", "--process", kind.split("-", 1)[1]])
            for seed in WORD_SEEDS:
                out[f"{stem}:{kind}-seed{seed}"] = command + [
                    "--env", str(ENVS / f"{stem}.json"), "--seed", seed, "--samples", SAMPLES]
    for stem in LITERAL_ENVS:
        env = ["--env", f"{stem}.json"]
        if stem in LITERAL_CHAIN_ENVS:
            for process in ("b", "d"):
                out[f"{stem}:chain-{process}"] = ["chain", "--process", process, "--seed", SEED,
                                                  "--samples", SAMPLES] + env
                out[f"{stem}:chain-{process}-trace"] = [
                    "chain", "--process", process, "--trace", "--validate", "--seed", SEED] + env
        else:
            out[f"{stem}:checks-rational-json"] = ["verify", "--rational", "--format",
                                                   "json"] + env
    return out


def digest(argv: list[str]) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "out"
        for stem, doc in LITERAL_ENVS.items():
            if f"{stem}.json" in argv:
                path = Path(tmp) / f"{stem}.json"
                path.write_text(json.dumps(doc))
                argv = [str(path) if arg == f"{stem}.json" else arg for arg in argv]
        # verify also prints its lines to stdout; keep them out of the digest file
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out", str(target)])
        assert code == EXIT_OK, f"{argv} exited {code}"
        return hashlib.sha256(target.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(commands())


@pytest.mark.parametrize("label", sorted(commands()))
def test_output_bytes_unchanged(label, golden, capsys):
    assert digest(commands()[label]) == golden[label]


if __name__ == "__main__":
    json.dump({label: digest(argv) for label, argv in commands().items()},
              sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
