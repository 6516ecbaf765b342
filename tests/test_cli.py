import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gwcoal.chains
import gwcoal.cli
import gwcoal.environment
import gwcoal.tree
import gwcoal.verify
from gwcoal import Environment
from gwcoal.chains import ChainRun, EtaSamplers, dense
from gwcoal.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_GUARD,
    EXIT_OK,
    _rows_to_csv,
    build_parser,
    main,
)

from gwcoal.environment import load_environment
from gwcoal import sampling
from gwcoal.sampling import campaign_streams

from conftest import ENVS, env_path, per_draw_condition
from test_golden import DEEP_N22, LITERAL_ENVS


@pytest.fixture
def dirac2_env(tmp_path):
    doc = {
        "laws": [
            {"type": "pmf", "p": [0, 0, 1]},
            {"type": "pmf", "p": [0, 0, 1]},
        ]
    }
    path = tmp_path / "dirac2.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def dirac0_env(tmp_path):
    doc = {"laws": [{"type": "pmf", "p": [1.0]}]}
    path = tmp_path / "dirac0.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def near_critical_n200(tmp_path):
    # seeded pmf laws (a + d, 128 - 2a, a - d) / 128 whose drifts d cancel
    # over the 200 levels
    rng = np.random.default_rng(200)
    half = rng.integers(-1, 2, size=100)
    drift = rng.permutation(np.concatenate([half, -half]))
    spread = rng.integers(8, 25, size=200)
    laws = [{"type": "pmf", "p": [(a + d) / 128, (128 - 2 * a) / 128, (a - d) / 128]}
            for a, d in zip(spread.tolist(), drift.tolist())]
    path = tmp_path / "near_critical_n200.json"
    path.write_text(json.dumps({"laws": laws}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_missing_env_file(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--env", "/no/such/file.json")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["tail", "--env", env_path("binom_n3")],
        ["simulate", "--env", env_path("binom_n3"), "--samples", "3"],
        ["verify", "--env", env_path("lf_half_n1")],
    ])
    def test_out_below_a_regular_file(self, capsys, tmp_path, argv):
        # opening the output raises NotADirectoryError, an OSError
        blocker = tmp_path / "plain"
        blocker.write_text("")
        code, _, err = run_cli(capsys, *argv, "--out", str(blocker / "x"))
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(capsys, "simulate", "--env", str(bad))
        assert code == EXIT_CONFIG

    def test_bad_entry_named(self, capsys, tmp_path):
        bad = tmp_path / "bad_entry.json"
        bad.write_text(
            json.dumps(
                {
                    "laws": [
                        {"type": "pmf", "p": [0.5, 0.5]},
                        {"type": "pmf", "p": [2.0]},
                    ]
                }
            )
        )
        code, _, err = run_cli(capsys, "simulate", "--env", str(bad))
        assert code == EXIT_CONFIG
        assert "laws[1]" in err

    @pytest.mark.parametrize("command", ["simulate", "tail", "verify"])
    def test_nan_probability_rejected(self, capsys, tmp_path, command):
        bad = tmp_path / "nan.json"
        bad.write_text('{"laws": [{"type": "pmf", "p": [NaN, 0.5, 0.5]}]}')
        code, out, err = run_cli(capsys, command, "--env", str(bad))
        assert code == EXIT_CONFIG
        assert "non-finite" in err
        assert out == ""

    @pytest.mark.parametrize("law", [
        {"type": "pmf", "p": [0.5, "a"]},
        {"type": "pmf", "p": [0.5, None]},
        {"type": "pmf", "p": [0.5, [1]]},
        {"type": "pmf", "p": [0.5, True]},
        {"type": "lf", "r": "x", "p": 0.5},
        {"type": "lf", "r": None, "p": 0.5},
    ])
    def test_non_numeric_law_field_rejected(self, capsys, tmp_path, law):
        bad = tmp_path / "non_numeric.json"
        bad.write_text(json.dumps({"laws": [{"type": "pmf", "p": [0.5, 0.5]}, law]}))
        code, out, err = run_cli(capsys, "tail", "--env", str(bad))
        assert code == EXIT_CONFIG
        assert "laws[1]" in err and "must be a number" in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("digits, message", [(400, "out of range"), (5000, "not valid JSON")])
    def test_huge_integer_rejected(self, capsys, tmp_path, digits, message):
        bad = tmp_path / "huge.json"
        bad.write_text('{"laws": [{"type": "pmf", "p": [0.5, 1' + "0" * digits + "]}]}")
        code, out, err = run_cli(capsys, "tail", "--env", str(bad))
        assert code == EXIT_CONFIG
        assert message in err and "Traceback" not in err and out == ""

    # exit code and stderr of malformed environment files; the two horizon
    # cases were accepted as horizon 1 before 'horizon' had to be an integer
    @pytest.mark.parametrize("text, err", [
        ('{"laws": [{"type": "pmf", "p": [NaN, 1.0]}]}',
         "laws[0]: non-finite probability in finite-support law"),
        ('{"laws": [{"type": "pmf", "p": [Infinity, 0.5]}]}',
         "laws[0]: non-finite probability in finite-support law"),
        ('{"laws": [{"type": "pmf", "p": [true, 0.0]}]}',
         "laws[0]: 'pmf' probability must be a number, got True"),
        ('{"laws": [{"type": "pmf", "p": ["0.5", 0.5]}]}',
         "laws[0]: 'pmf' probability must be a number, got '0.5'"),
        ('{"laws": [{"type": "pmf", "p": [0.25, 0.5, 0.25]}, {"type": "pmf", "p": [-0.5, 1.5]}]}',
         "laws[1]: negative probability in finite-support law"),
        ('{"laws": [{"type": "pmf", "p": [NaN, -0.5, 1.5]}]}',
         "laws[0]: negative probability in finite-support law"),
        ('{"laws": [{"type": "pmf", "p": [0.5, 0.4]}]}',
         "laws[0]: probabilities sum to 0.9, expected 1"),
        ('{"laws": [{"type": "pmf", "p": []}]}',
         "laws[0]: 'pmf' law needs a non-empty probability list 'p'"),
        ('{"laws": [{"p": [1.0]}]}', "laws[0]: law entry must be an object with a 'type' field"),
        ('{"laws": [{"type": "poisson", "mean": 1.0}]}',
         "laws[0]: unknown law type 'poisson' (expected 'pmf' or 'lf')"),
        ('{"laws": [{"type": "lf", "r": 1.5, "p": 0.5}]}',
         "laws[0]: linear-fractional r must lie in [0,1], got 1.5"),
        ('{"laws": [{"type": "lf", "r": 0.5, "p": 0.0}]}',
         "laws[0]: linear-fractional p must lie in (0,1), got 0.0"),
        ('{"laws": [{"type": "lf", "r": 0.5, "p": 1.0}]}',
         "laws[0]: linear-fractional p must lie in (0,1), got 1.0"),
        ('{"laws": [{"type": "lf", "r": 0.5, "p": 1e-17}]}',
         "laws[0]: linear-fractional p must exceed 2**-54, got 1e-17"),
        ('{"horizon": 2, "laws": [{"type": "pmf", "p": [0.5, 0.5]}]}',
         "declared horizon 2 does not match 1 law entries"),
        ('{"horizon": true, "laws": [{"type": "pmf", "p": [0.5, 0.5]}]}',
         "'horizon' must be an integer, got True"),
        ('{"horizon": 1.0, "laws": [{"type": "pmf", "p": [0.5, 0.5]}]}',
         "'horizon' must be an integer, got 1.0"),
    ])
    def test_malformed_env_message(self, capsys, tmp_path, text, err):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run_cli(capsys, "tail", "--env", str(bad)) == (EXIT_CONFIG, "", f"error: {err}\n")

    @pytest.mark.parametrize("laws", [
        [{"type": "lf", "r": 1.0, "p": 1e-15}], [{"type": "lf", "r": 1.0, "p": 1e-15}] * 2,
        [{"type": "pmf", "p": [0.0] * 2000 + [1.0]}] * 2,
        [{"type": "pmf", "p": [0.0] * 2000 + [1.0]}] * 3,
        ([{"type": "pmf", "p": [0.25, 0.5, 0.25]}, {"type": "lf", "r": 0.5, "p": 0.5},
          {"type": "pmf", "p": [0.5, 0, 0.25, 0.25]}] * 67)[:200],
    ], ids=["lf-1", "lf-2", "pmf-2", "pmf-3", "cycle-200"])
    def test_huge_generation_stops_simulate(self, capsys, tmp_path, laws):
        # the founder's ~1e15 children would fill a tree row, or be drawn
        # one by one at horizon 2, and 2000**2 children would fill one; a
        # mean of 1.25 every third generation passes the bound over many
        # generations, long before one of them does; the draw stops first
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"laws": laws}))
        code, out, err = run_cli(capsys, "simulate", "--env", str(path), "--samples", "3")
        assert code == EXIT_GUARD and out == ""
        assert err.startswith("error: a forward draw reached ") and err.count("\n") == 1
        assert err.endswith(" individuals, more than 1000000\n")

    def test_deep_witness_sweep_stops_at_its_guard(self, capsys, tmp_path):
        # the d chain's start has 2**40 transitions: the sweep raises before
        # it builds them, not after filling memory
        path = tmp_path / "deep_n40.json"
        path.write_text(json.dumps(LITERAL_ENVS["deep_n40"]))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--env", str(path), "--witness")
        assert time.perf_counter() - start < 2
        assert (code, out, err) == (EXIT_GUARD, "", "error: witness sweep exceeded its budget\n")

    def test_witness_sweep_charges_the_pairs_it_builds(self, capsys, tmp_path):
        # the d chain's 2**22 start transitions fit the witness budget, but
        # the pairs of their states do not: the sweep raises before it
        # builds them, not after filling memory
        path = tmp_path / "deep_n22.json"
        path.write_text(json.dumps(DEEP_N22))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--env", str(path), "--witness")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (EXIT_GUARD, "", "error: witness sweep exceeded its budget\n")

    def test_lf_sampler_needs_lf_env(self, capsys):
        code, _, _ = run_cli(
            capsys, "chain", "--env", env_path("binom_n3"), "--process", "lf"
        )
        assert code == EXIT_CONFIG

    def test_trace_needs_single_run(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "chain",
            "--env",
            env_path("binom_n3"),
            "--trace",
            "--samples",
            "3",
        )
        assert code == EXIT_CONFIG

    def test_bad_horizon(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--env", env_path("binom_n3"), "--horizon", "9"
        )
        assert code == EXIT_CONFIG

    def test_degenerate(self, capsys, dirac0_env):
        code, _, _ = run_cli(capsys, "simulate", "--env", dirac0_env)
        assert code == EXIT_DEGENERATE

    @pytest.mark.parametrize("dead", [0, 1], ids=["oldest", "newest"])
    def test_lf_sampler_without_survival(self, capsys, tmp_path, dead):
        # a law with r = 0 has no children, so no line survives it: the
        # closed form has no genealogy to sample, as the b chain has none
        laws = [{"type": "lf", "r": 0.5, "p": 0.5}] * 2
        laws[dead] = {"type": "lf", "r": 0.0, "p": 0.5}
        path = tmp_path / "lf_dead.json"
        path.write_text(json.dumps({"laws": laws}))
        code, out, err = run_cli(capsys, "chain", "--env", str(path), "--process", "lf")
        assert (code, out) == (EXIT_DEGENERATE, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert run_cli(capsys, "chain", "--env", str(path), "--process", "b") == (code, out, err)
        if dead == 0:
            # the newest law alone survives
            code, out, _ = run_cli(capsys, "chain", "--env", str(path), "--process", "lf",
                                   "--horizon", "1")
            assert code == EXIT_OK and out.startswith("run_id,K,A\n")

    def test_guard(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--env", env_path("binom_n3"), "--guard", "5"
        )
        assert code == EXIT_GUARD

    @pytest.mark.parametrize("horizon", [1, 2])
    def test_lf_long_tail_hits_guard(self, capsys, tmp_path, horizon):
        # p = 1e-8 needs about 3e9 support items before the tail cut; the
        # tree check (horizon 1) and the population law (horizon 2) raise
        # before building them
        env = tmp_path / "lf_long_tail.json"
        env.write_text(json.dumps({"horizon": horizon,
                                   "laws": [{"type": "lf", "r": 1, "p": 1e-8}] * horizon}))
        code, out, err = run_cli(capsys, "verify", "--env", str(env))
        assert code == EXIT_GUARD
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "items" in err and "Traceback" not in err

    def test_eta_long_geometric_table_hits_guard(self, capsys, tmp_path):
        # p = 1e-6 needs about 3e7 rows before the tail cut; a table cut at
        # its cap would hold a tenth of the mass
        env = tmp_path / "lf_long_tail.json"
        env.write_text(json.dumps({"laws": [{"type": "lf", "r": 0.5, "p": 1e-6}]}))
        out_file = tmp_path / "eta.csv"
        code, out, err = run_cli(capsys, "eta", "--env", str(env), "--out", str(out_file))
        assert code == EXIT_GUARD
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out == "" and not out_file.exists()

    @pytest.mark.parametrize("argv", [
        ["eta"], ["tail"], ["simulate"], ["verify"],
        ["chain", "--process", "b"], ["chain", "--process", "d"], ["chain", "--process", "lf"],
    ])
    def test_lf_p_lost_to_rounding_rejected(self, capsys, tmp_path, argv):
        # 1 - 1e-17 rounds to 1.0, so the law's tail would never decay
        env = tmp_path / "lf_tiny_p.json"
        env.write_text(json.dumps({"horizon": 1, "laws": [{"type": "lf", "r": 1, "p": 1e-17}]}))
        code, out, err = run_cli(capsys, *argv, "--env", str(env))
        assert code == EXIT_CONFIG
        assert err.startswith("error: laws[0]: ") and err.count("\n") == 1
        assert "2**-54" in err and out == ""

    @pytest.mark.parametrize("argv", [
        ["eta"], ["chain", "--process", "b", "--validate"], ["chain", "--process", "d", "--validate"],
        ["simulate"], ["tail"], ["verify"],
    ], ids=["eta", "chain-b", "chain-d", "simulate", "tail", "verify"])
    def test_lf_p_just_below_one_runs(self, capsys, tmp_path, argv):
        # p = 1 - 2**-53 at level 2 rounds its geometric eta law's success
        # probability to 1: the level is always 0 and the samplers read no
        # uniform for it
        env = tmp_path / "lf_edge.json"
        env.write_text(json.dumps({"laws": [{"type": "pmf", "p": [0.25, 0.5, 0.25]},
                                            {"type": "lf", "r": 0.5, "p": 1 - 2 ** -53},
                                            {"type": "lf", "r": 0.4, "p": 0.5}]}))
        extra = ["--samples", "50"] if argv[0] in ("chain", "simulate") else []
        code, out, err = run_cli(capsys, *argv, *extra, "--env", str(env))
        assert code == EXIT_OK and "Traceback" not in err
        if argv == ["eta"]:
            assert [row for row in out.splitlines() if row.startswith("2,")] == ["2,0,1.0"]

    @staticmethod
    def wide_env(tmp_path, width, horizon=2):
        path = tmp_path / f"wide{width}.json"
        law = {"type": "pmf", "p": [1 / width] * width}
        path.write_text(json.dumps({"horizon": horizon, "laws": [law] * horizon}))
        return str(path)

    @pytest.mark.parametrize("argv, horizon, width", [
        (["eta"], 2, 173), (["chain", "--process", "b"], 2, 173),
        (["chain", "--process", "d"], 2, 173), (["verify"], 1, 173), (["verify"], 1, 256),
    ], ids=["eta", "chain-b", "chain-d", "verify", "verify-dyadic"])
    def test_wide_pmf_eta_law_rejected(self, capsys, tmp_path, argv, horizon, width):
        # the eta law's j-th derivative term j!/(j-k)! overflows a float past
        # 170!; verify reaches the eta law first at horizon 1, where its
        # enumerations stay under the guard, and so it does where the
        # automata of the law's exact binary form settle its float line
        code, out, err = run_cli(capsys, *argv, "--env", self.wide_env(tmp_path, width, horizon))
        assert code == EXIT_CONFIG
        assert err == (f"error: eta law at level 1: a pmf law of width {width} overflows the float "
                       "derivative formula\n")
        assert out == "" and "Traceback" not in err

    @pytest.mark.parametrize("argv, digest", [
        (["eta"], "3134bd87f06c23b5426f3350c73ca83f1d146a166574ecc6df642a1da2e68217"),
        (["chain", "--process", "b"],
         "280b8a115cb17496f1a701072afd148422c5796d8c96b5670e782df6c77f6491"),
        (["chain", "--process", "d"],
         "280b8a115cb17496f1a701072afd148422c5796d8c96b5670e782df6c77f6491"),
    ], ids=["eta", "chain-b", "chain-d"])
    def test_widest_float_pmf_still_runs(self, capsys, tmp_path, argv, digest):
        # stdout and stderr of a 171-entry law, as before the overflow check
        extra = ["--samples", "5", "--seed", "3"] if argv[0] == "chain" else []
        code, out, err = run_cli(capsys, *argv, *extra, "--env", self.wide_env(tmp_path, 171))
        assert code == EXIT_OK
        assert hashlib.sha256((out + "\0" + err).encode()).hexdigest() == digest

    def test_verify_failure_exit(self, capsys, dirac2_env):
        # a deterministic tree has a single reduced-sequence history, so the
        # witness search comes back empty and the run is marked inconclusive
        code, out, _ = run_cli(capsys, "verify", "--env", dirac2_env, "--witness")
        assert code == EXIT_CHECK_FAILED
        assert "FAIL reduced-sequence-witness" in out

    def test_witness_pass_exit(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--env", env_path("binom_n5"), "--witness"
        )
        assert code == EXIT_OK
        assert "PASS reduced-sequence-witness" in out

    def test_help_ok(self, capsys):
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()

    def test_threads_option_is_gone(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--env", env_path("binom_n3"), "--threads", "2"
        )
        assert code == EXIT_CONFIG
        assert "unrecognized arguments: --threads 2" in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("seed", [2 ** 64, 2 ** 64 + 1, -1])
    @pytest.mark.parametrize("command", ["simulate", "chain"])
    def test_seed_outside_64_bits(self, capsys, command, seed):
        code, out, err = run_cli(
            capsys, command, "--env", env_path("binom_n3"), "--seed", str(seed)
        )
        assert code == EXIT_CONFIG
        assert "--seed must be in [0, 2**64)" in err
        assert "Traceback" not in err and out == ""

    def test_largest_seed_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "chain", "--env", env_path("binom_n3"), "--seed", str(2 ** 64 - 1)
        )
        assert code == EXIT_OK
        assert out.startswith("run_id,K,A\n0,")

    def test_verify_witness_seed_outside_64_bits(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--env", env_path("binom_n5"), "--witness",
            "--witness-mc-samples", "10", "--seed", str(2 ** 64),
        )
        assert code == EXIT_CONFIG
        assert "2**64" in err and "Traceback" not in err


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--env", "ENV", "--max-attempts", "0"], "--max-attempts must be >= 1"),
            (["simulate", "--env", "ENV", "--max-attempts", "-5"], "--max-attempts must be >= 1"),
            (["chain", "--env", "ENV", "--max-individuals", "0"], "--max-individuals must be >= 1"),
            (["chain", "--env", "ENV", "--max-individuals", "-1"], "--max-individuals must be >= 1"),
            (["verify", "--env", "ENV", "--witness", "--witness-mc-samples", "-3"],
             "--witness-mc-samples must be >= 0"),
            (["verify", "--env", "ENV", "--guard", "-1"], "--guard must be >= 1"),
            (["verify", "--env", "ENV", "--guard", "0"], "--guard must be >= 1"),
            (["eta", "--env", "LF", "--tol", "0"], "--tol must be in (0, 1)"),
            (["eta", "--env", "LF", "--tol", "-1"], "--tol must be in (0, 1)"),
            (["eta", "--env", "LF", "--tol", "nan"], "--tol must be in (0, 1)"),
            (["eta", "--env", "LF", "--tol", "inf"], "--tol must be in (0, 1)"),
            (["eta", "--env", "LF", "--tol", "2"], "--tol must be in (0, 1)"),
            (["verify", "--figure1", "--guard", "0"], "--guard must be >= 1"),
            (["verify", "--figure1", "--witness-mc-samples", "-5"],
             "--witness-mc-samples must be >= 0"),
            (["verify", "--figure1", "--seed", "-1"], "--seed must be in [0, 2**64)"),
            (["verify", "--figure1", "--env", "ENV"], "takes no --env"),
            (["chain", "--env", "LF", "--process", "lf", "--validate"],
             "--validate checks chain states"),
            (["verify", "--env", "ENV", "--witness-mc-samples", "10"],
             "--witness-mc-samples needs --witness"),
        ],
    )
    def test_bad_option_values(self, capsys, argv, message):
        paths = {"ENV": env_path("binom_n5"), "LF": env_path("lf_half_n6")}
        code, out, err = run_cli(capsys, *[paths.get(a, a) for a in argv])
        assert code == EXIT_CONFIG
        assert message in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--env", "D2", "--max-attempts", "1", "--samples", "3"],
            ["chain", "--env", "ENV", "--max-individuals", "1"],
            ["verify", "--env", "ENV", "--witness", "--witness-mc-samples", "0"],
            ["eta", "--env", "LF", "--tol", "0.5"],
        ],
    )
    def test_smallest_option_values_accepted(self, capsys, dirac2_env, argv):
        paths = {"ENV": env_path("binom_n5"), "LF": env_path("lf_half_n6"), "D2": dirac2_env}
        code, out, _ = run_cli(capsys, *[paths.get(a, a) for a in argv])
        assert code == EXIT_OK
        assert out

    @pytest.mark.parametrize(
        "argv",
        [
            ["eta", "--samples", "3"],
            ["eta", "--seed", "1"],
            ["tail", "--samples", "3"],
            ["tail", "--seed", "1"],
            ["verify", "--samples", "3"],
        ],
    )
    def test_unread_options_are_rejected(self, capsys, argv):
        # eta and tail draw nothing and verify runs no campaign
        code, out, err = run_cli(capsys, *argv, "--env", env_path("lf_half_n6"))
        assert code == EXIT_CONFIG
        # reported with the usage of the subcommand, which lists what it does take
        assert err.startswith(f"usage: gwcoal {argv[0]} [-h] ")
        assert f"gwcoal {argv[0]}: error: unrecognized arguments: {' '.join(argv[1:])}" in err
        assert "Traceback" not in err and out == ""


class TestParser:
    CALLS = (
        ("simulate", "--env", env_path("binom_n3"), "--samples", "5", "--seed", "2"),
        ("chain", "--env", env_path("binom_n3"), "--samples", "0"),
        ("tail", "--env", env_path("varying_n3")),
        ("chain", "--env", env_path("varying_n3"), "--process", "d", "--samples", "4"),
        ("simulate", "--env", env_path("binom_n3"), "--samples", "5", "--seed", "2"),
    )

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_back_to_back_calls_match_fresh_parsers(self, capsys):
        fresh = []
        for argv in self.CALLS:
            build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        reused = [run_cli(capsys, *argv) for argv in self.CALLS]
        assert [r[0] for r in reused] == [EXIT_OK, EXIT_CONFIG, EXIT_OK, EXIT_OK, EXIT_OK]
        assert reused == fresh
        assert reused[0] == reused[-1]


def test_import_loads_no_worker_pools():
    # worker-pool modules cost import time in every fresh process
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gwcoal; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('concurrent', 'multiprocessing'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


class TestSimulate:
    def test_deterministic_tree(self, capsys, dirac2_env):
        code, out, err = run_cli(
            capsys, "simulate", "--env", dirac2_env, "--samples", "5"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "run_id,K,A"
        assert lines[1:] == ["%d,4,1;2;1" % i for i in range(5)]
        assert "runs=5" in err

    def test_reproducible(self, capsys):
        args = (
            "simulate",
            "--env",
            env_path("binom_n3"),
            "--samples",
            "50",
            "--seed",
            "11",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--env",
            env_path("binom_n3"),
            "--samples",
            "3",
            "--format",
            "json",
        )
        assert code == EXIT_OK
        rows = json.loads(out)
        assert len(rows) == 3
        assert set(rows[0]) == {"run_id", "K", "A"}

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "runs.csv"
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--env",
            env_path("binom_n3"),
            "--samples",
            "2",
            "--out",
            str(target),
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("run_id,K,A")

    def test_horizon_override(self, capsys, dirac2_env):
        _, out, _ = run_cli(
            capsys, "simulate", "--env", dirac2_env, "--horizon", "1"
        )
        assert out.strip().splitlines()[1] == "0,2,1"


    @pytest.mark.parametrize("deep", [False, True])
    def test_summary_matches_per_level_count(self, capsys, tmp_path, deep):
        if deep:
            # near-critical binary law over 200 generations
            path = tmp_path / "deep.json"
            path.write_text(json.dumps({"laws": [{"type": "pmf", "p": [0.24, 0.5, 0.26]}] * 200}))
            env, horizon, samples = str(path), 200, "40"
        else:
            env, horizon, samples = env_path("binom_n6"), 6, "300"
        code, out, err = run_cli(capsys, "simulate", "--env", env, "--samples", samples,
                                 "--seed", "5")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.splitlines()[1:]]
        ks = [int(row[1]) for row in rows]
        # the summary as it was once computed: one pass over the rows per level
        tails = []
        for n in range(1, horizon + 1):
            hits = sum(1 for row in rows if row[1] == "1" or int(row[2].split(";")[0]) > n)
            tails.append(f"P(A1>{n})={hits / len(rows):.6f}")
        # every draw counts as an attempt, the accepted one included
        attempts = sum(per_draw_condition(load_environment(env), stream)[1]
                       for stream in campaign_streams(5, int(samples)))
        expected = (f"runs={len(rows)} attempts={attempts} mean_K={sum(ks) / len(ks):.6f} "
                    + " ".join(tails) + "\n")
        assert err == expected
        assert len(set(tails)) > 1
        assert attempts > len(rows)


class TestChain:
    def test_backward_chain_matches_tree(self, capsys, dirac2_env):
        code, out, _ = run_cli(capsys, "chain", "--env", dirac2_env, "--process", "b")
        assert code == EXIT_OK
        assert out.strip().splitlines()[1] == "0,4,1;2;1"

    def test_trace_schema(self, capsys, dirac2_env):
        code, out, _ = run_cli(
            capsys, "chain", "--env", dirac2_env, "--trace", "--validate"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "step,A,state"
        assert len(lines) == 4
        first = lines[1].split(",", 2)
        assert first[0] == "1" and first[1] == "1"

    @pytest.mark.parametrize("process, builds", [("b", 1), ("d", 1), ("lf", 0)])
    def test_samplers_built_once_per_campaign(self, capsys, monkeypatch, process, builds):
        calls = []
        init = EtaSamplers.__init__

        def counting(self, env):
            calls.append(env.horizon)
            init(self, env)

        monkeypatch.setattr(EtaSamplers, "__init__", counting)
        code, _, _ = run_cli(
            capsys, "chain", "--env", env_path("lf_half_n6"), "--process", process,
            "--samples", "50",
        )
        assert code == EXIT_OK
        assert calls == [6] * builds

    @pytest.mark.parametrize("argv, levels", [
        (["chain", "--process", "b", "--samples", "20"], list(range(1, 201))),
        (["chain", "--process", "d", "--samples", "20"], list(range(1, 201))),
        (["eta"], list(range(1, 201))),
        (["simulate", "--samples", "3"], []),
    ], ids=["chain-b", "chain-d", "eta", "simulate"])
    def test_each_eta_level_built_once(self, capsys, monkeypatch, tmp_path, argv, levels):
        # one pass fills the eta law of every level once; simulate reads
        # the level rows only
        path = tmp_path / "mixed_n200.json"
        laws = [{"type": "pmf", "p": [0.25, 0.5, 0.25]}, {"type": "lf", "r": 0.5, "p": 0.5},
                {"type": "pmf", "p": [0.5, 0.25, 0.0, 0.25]}]  # all critical
        path.write_text(json.dumps({"laws": [laws[i % 3] for i in range(200)]}))
        built = []
        real = gwcoal.environment._eta_law

        def counting(k, *args):
            built.append(k)
            return real(k, *args)

        monkeypatch.setattr(gwcoal.environment, "_eta_law", counting)
        code, _, _ = run_cli(capsys, *argv, "--env", str(path))
        assert code == EXIT_OK
        assert built == levels

    def test_campaign_builds_no_dense_state(self, capsys, monkeypatch):
        # states stay sparse unless --trace or --validate reads them
        calls = []

        def counting(state):
            calls.append(state)
            return dense(state)

        monkeypatch.setattr(gwcoal.chains, "dense", counting)
        monkeypatch.setattr(gwcoal.cli, "dense", counting)
        for process in ("b", "d"):
            code, _, _ = run_cli(capsys, "chain", "--env", env_path("binom_n6"),
                                 "--process", process, "--samples", "50")
            assert code == EXIT_OK
        assert calls == []
        code, out, _ = run_cli(capsys, "chain", "--env", env_path("binom_n6"), "--trace")
        assert code == EXIT_OK
        assert len(calls) == len(out.splitlines()) - 1 > 0

    def test_verify_builds_no_dense_state(self, capsys, monkeypatch):
        # the sweeps, the validators and the reference table read the pairs
        calls = []

        def counting(state):
            calls.append(state)
            return dense(state)

        for module in (gwcoal.chains, gwcoal.cli, gwcoal.verify, gwcoal.tree):
            if hasattr(module, "dense"):
                monkeypatch.setattr(module, "dense", counting)
        for argv in (["--env", env_path("varying_n3")], ["--figure1"],
                     ["--env", env_path("binom_n5"), "--witness"]):
            code, _, _ = run_cli(capsys, "verify", *argv)
            assert code == EXIT_OK
        assert calls == []

    def test_d_process_runs(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "chain",
            "--env",
            env_path("varying_n3"),
            "--process",
            "d",
            "--samples",
            "20",
            "--validate",
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 21

    def test_lf_sampler(self, capsys):
        code, out, err = run_cli(
            capsys,
            "chain",
            "--env",
            env_path("lf_half_n6"),
            "--process",
            "lf",
            "--samples",
            "30",
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 31
        assert "runs=30" in err

    def test_lf_validate_is_rejected_before_any_run(self, capsys, monkeypatch):
        # lf runs carry no chain states, so there is nothing to validate
        monkeypatch.setattr("gwcoal.cli.lf_campaign", lambda *a: pytest.fail("an lf run started"))
        monkeypatch.setattr("gwcoal.chains.lf_run", lambda *a: pytest.fail("an lf run started"))
        code, out, err = run_cli(capsys, "chain", "--env", env_path("lf_half_n6"),
                                 "--process", "lf", "--validate")
        assert code == EXIT_CONFIG
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_validation_failure_exit(self, capsys, monkeypatch):
        # run 3 comes back with a state whose first level is not its emitted
        # time; the campaign stops there and writes no rows
        real, calls = gwcoal.cli.b_run, []

        def corrupt_run_3(env, stream, max_individuals, samplers):
            calls.append(None)
            run = real(env, stream, max_individuals, samplers=samplers)
            return ChainRun([2], [(2, ((1, 1),))], True) if len(calls) == 4 else run

        monkeypatch.setattr(gwcoal.cli, "b_run", corrupt_run_3)
        code, out, err = run_cli(capsys, "chain", "--env", env_path("binom_n3"),
                                 "--validate", "--samples", "5")
        assert code == EXIT_CHECK_FAILED and len(calls) == 4
        assert err == ("validation failure: state 1 is (2, ((1, 1),)), "
                       "but the times give (2, ((2, 1),))\n")
        assert out == ""

    def test_unfinished_runs_have_empty_k(self, capsys, dirac2_env):
        # every run of the all-twins tree emits three times, so a cap of one
        # leaves each of them unfinished
        code, out, err = run_cli(
            capsys,
            "chain",
            "--env",
            dirac2_env,
            "--samples",
            "10",
            "--max-individuals",
            "1",
        )
        assert code == EXIT_OK
        for line in out.strip().splitlines()[1:]:
            assert line.split(",")[1] == ""
        assert "unfinished=10" in err

    @pytest.mark.parametrize("samples", ["5", "300"])
    @pytest.mark.parametrize("cap", [2 ** 63, 2 ** 64])
    def test_lf_cap_past_int64(self, capsys, cap, samples):
        # numpy takes no int past 64 bits; a cap this high writes the rows of
        # the default cap
        argv = ["chain", "--process", "lf", "--env", env_path("lf_half_n6"), "--samples", samples]
        code, out, err = run_cli(capsys, *argv, "--max-individuals", str(cap))
        assert code == EXIT_OK
        assert (out, err) == run_cli(capsys, *argv)[1:]
        assert len(out.splitlines()) == int(samples) + 1


CAMPAIGNS = {
    "simulate": ["simulate"],
    "chain-b": ["chain", "--process", "b"],
    "chain-d": ["chain", "--process", "d"],
    "chain-lf": ["chain", "--process", "lf"],
}


@pytest.mark.parametrize("env_name, command", [
    ("binom_n6", "simulate"), ("binom_n6", "chain-b"), ("binom_n6", "chain-d"),
    ("lf_half_n6", "simulate"), ("lf_half_n6", "chain-lf"),
])
def test_rows_do_not_depend_on_the_campaign_length(tmp_path, env_name, command):
    # one sub-chunk of first blocks, and three, the last of one run
    argv = CAMPAIGNS[command]
    outs = []
    for runs in (20, 2 * sampling._SUB + 1):
        path = tmp_path / f"{runs}.csv"
        assert main(argv + ["--env", env_path(env_name), "--samples", str(runs),
                            "--seed", "9", "--out", str(path)]) == EXIT_OK
        outs.append(path.read_bytes().splitlines(keepends=True))
    short, long = outs
    assert len(short) == 21 and len(long) == 2 * sampling._SUB + 2
    assert long[:len(short)] == short


class TestRowWriters:
    @staticmethod
    def per_cell(header, rows):
        """The CSV text as it was once written, one ``str`` per cell."""
        return "".join(",".join(str(x) for x in row) + "\n" for row in [header, *rows])

    @pytest.mark.parametrize("header, rows", [
        (["n", "tail"], [[1, repr(5e-324)], [2, repr(float("nan"))], [3, 5e-324],
                         [4, float("nan")], [5, 0.1], [6, "1e+300"]]),
        (["run_id", "K", "A"], [(0, 1, ""), (1, "", "1;2"), (2, "", ""), (3, 4, "1;2;1"),
                                [4, 2, "200"]]),
        (["step", "A", "state"], [[1, 1, ""], [2, 3, "0;0;1"]]),
        (["status", "name", "metric", "threshold", "detail"],
         [["PASS", "a1-tail", repr(1e-17), repr(0.0), "n=3 max_gap=1e-17 %s %d"]]),
        (["run_id", "K", "A"], []),
    ], ids=["two-columns", "runs", "trace", "verify", "no-rows"])
    def test_csv_matches_per_cell_reference(self, header, rows):
        assert _rows_to_csv(header, rows) == self.per_cell(header, rows)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 5).flatmap(lambda width: st.lists(st.lists(
        st.one_of(st.integers(), st.floats(), st.text()), min_size=width, max_size=width))
        .map(lambda rows: ([f"c{i}" for i in range(width)], rows))))
    def test_csv_matches_per_cell_reference_on_any_cells(self, table):
        header, rows = table
        assert _rows_to_csv(header, rows) == self.per_cell(header, rows)

    @pytest.mark.parametrize("env, argv", [
        ("binom_n3", ["simulate"]),
        ("binom_n3", ["chain", "--process", "b"]),
        ("binom_n3", ["chain", "--process", "d"]),
        ("lf_half_n6", ["chain", "--process", "lf"]),
        ("binom_n3", ["chain", "--process", "b", "--max-individuals", "1"]),
        ("lf_half_n6", ["chain", "--process", "lf", "--max-individuals", "1"]),
    ], ids=["simulate", "chain-b", "chain-d", "chain-lf", "chain-unfinished",
            "chain-lf-unfinished"])
    def test_json_rows_equal_csv_rows(self, capsys, env, argv):
        argv = [*argv, "--env", env_path(env), "--seed", "7", "--samples", "200"]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK
        header, *lines = out.splitlines()
        assert header == "run_id,K,A" and len(lines) == 200
        code, out, json_err = run_cli(capsys, *argv, "--format", "json")
        assert (code, json_err) == (EXIT_OK, err)
        docs = json.loads(out)
        assert [",".join(str(doc[h]) for h in header.split(",")) for doc in docs] == lines
        assert all(set(doc) == {"run_id", "K", "A"} for doc in docs)
        # an unfinished run has an empty K, a finished one an integer
        ks = [doc["K"] for doc in docs]
        assert all(type(k) is int for k in ks if k != "")
        assert (ks.count("") > 0) == ("--max-individuals" in argv)


class TestVerify:
    def test_figure1_standalone(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--figure1")
        assert code == EXIT_OK
        assert out == ("PASS reference-table metric=0.000e+00 threshold=0.000e+00 "
                       "all rows re-derived\n")

    def test_figure1_json_out(self, capsys, tmp_path):
        target = tmp_path / "figure1.json"
        code, _, _ = run_cli(capsys, "verify", "--figure1", "--out", str(target),
                             "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(target.read_text())
        assert [(row["name"], row["passed"], row["detail"]) for row in doc] == [
            ("reference-table", True, "all rows re-derived")
        ]

    def test_verify_env_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--env", env_path("varying_n3"), "--rational"
        )
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "tree-vs-chain-tv-rational" in out

    def test_verify_json_out(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "verify",
            "--env",
            env_path("lf_half_n1"),
            "--out",
            str(target),
            "--format",
            "json",
        )
        assert code == EXIT_OK
        doc = json.loads(target.read_text())
        assert all(row["passed"] for row in doc)

    def test_figure1_checks_its_options(self, capsys):
        # the reference table is fixed: what only the full battery reads is refused
        cases = [
            (["--guard", "0", "--witness-mc-samples", "-5", "--env", "/no/such.json"],
             "--witness-mc-samples must be >= 0"),
            (["--rational"], "takes no --rational"),
            (["--witness"], "takes no --witness"),
            (["--horizon", "3"], "takes no --horizon"),
            (["--rational", "--witness", "--horizon", "3"], "takes no --horizon --rational --witness"),
            (["--witness-mc-samples", "10"], "takes no --witness-mc-samples"),
            (["--witness", "--witness-mc-samples", "1"], "takes no --witness --witness-mc-samples"),
        ]
        for argv, message in cases:
            code, out, err = run_cli(capsys, "verify", "--figure1", *argv)
            assert code == EXIT_CONFIG
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
            assert message in err

    def test_verify_needs_env_or_figure1(self, capsys):
        code, _, _ = run_cli(capsys, "verify")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("name", sorted(p.stem for p in ENVS.glob("*.json"))
                             + ["near_critical_n200"])
    def test_digest_computed_only_for_json(self, capsys, monkeypatch, tmp_path,
                                           near_critical_n200, name):
        # the digest serializes every law; stdout and CSV lines do not print it
        path = near_critical_n200 if name == "near_critical_n200" else env_path(name)
        calls = []
        real = Environment.to_dict
        monkeypatch.setattr(Environment, "to_dict", lambda env: calls.append(1) or real(env))
        code, out, _ = run_cli(capsys, "verify", "--env", path)
        assert code == EXIT_OK and out.startswith("PASS reference-table")
        code, _, _ = run_cli(capsys, "verify", "--env", path, "--out", str(tmp_path / "v.csv"))
        assert code == EXIT_OK
        assert calls == []
        target = tmp_path / "v.json"
        code, _, _ = run_cli(capsys, "verify", "--env", path, "--out", str(target),
                             "--format", "json")
        assert code == EXIT_OK
        assert calls == [1]  # once per environment, however many lines carry it
        doc = json.loads(target.read_text())
        digest = load_environment(path).digest()
        assert [row["env_digest"] for row in doc] == ["-"] + [digest] * (len(doc) - 1)


class TestTables:
    def test_eta_values(self, capsys):
        code, out, _ = run_cli(capsys, "eta", "--env", env_path("binom_n3"))
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "level,k,p"
        rows = {}
        for line in lines[1:]:
            level, k, p = line.split(",")
            rows[(int(level), int(k))] = float(p)
        assert rows[(1, 0)] == pytest.approx(2 / 3)
        assert rows[(2, 0)] == pytest.approx(10 / 13)
        assert rows[(2, 1)] == pytest.approx(3 / 13)

    def test_tail_values(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--env", env_path("binom_n3"))
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,tail"
        tail = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        assert tail[1] == pytest.approx(2 / 3)
        assert tail[2] == pytest.approx(20 / 39)

    def test_lf_tail_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--env", env_path("lf_half_n6"))
        assert code == EXIT_OK
        lines = out.strip().splitlines()[1:]
        for row in lines:
            n, p = row.split(",")
            assert float(p) == pytest.approx(1 / (int(n) + 1), abs=1e-12)

    @pytest.mark.parametrize("command, etas", [("tail", False), ("eta", True)])
    def test_full_depth_commands_fill_the_table_once(self, capsys, monkeypatch,
                                                     near_critical_n200, command, etas):
        calls = []
        real = gwcoal.environment.LevelTable._fill
        monkeypatch.setattr(gwcoal.environment.LevelTable, "_fill",
                            lambda self, k, e: calls.append((k, e)) or real(self, k, e))
        code, out, _ = run_cli(capsys, command, "--env", near_critical_n200)
        assert code == EXIT_OK and len(out.splitlines()) > 200
        assert calls == [(200, etas)]

    @pytest.mark.parametrize("command, laws, expected", [
        # level 1's geometric table trips the guard before level 2, which dies out
        ("eta", [{"type": "pmf", "p": [1.0]}, {"type": "lf", "r": 1, "p": 1e-5}], EXIT_GUARD),
        # level 1 dies out; level 3 is then read past 1, as the second law
        # sums to just above 1
        ("tail", [{"type": "pmf", "p": [0.25, 0.5, 0.25]}, {"type": "pmf", "p": [0.5, 0.5 + 1e-13]},
                  {"type": "pmf", "p": [1.0]}], EXIT_DEGENERATE),
    ], ids=["eta", "tail"])
    def test_first_failing_level_reports(self, capsys, tmp_path, command, laws, expected):
        # the one fill before the loop leaves a failing level to its read,
        # so a lower level's failure is still the one reported
        path = tmp_path / "env.json"
        path.write_text(json.dumps({"laws": laws}))
        code, out, err = run_cli(capsys, command, "--env", str(path))
        assert code == expected
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
