import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gwcoal.chains
import gwcoal.cli
import gwcoal.tree
import gwcoal.verify
from gwcoal.chains import EtaSamplers, dense
from gwcoal.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_GUARD,
    EXIT_OK,
    build_parser,
    main,
)

from gwcoal.environment import load_environment
from gwcoal.sampling import campaign_streams

from conftest import env_path, per_draw_condition


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

    @staticmethod
    def wide_env(tmp_path, width, horizon=2):
        path = tmp_path / f"wide{width}.json"
        law = {"type": "pmf", "p": [1 / width] * width}
        path.write_text(json.dumps({"horizon": horizon, "laws": [law] * horizon}))
        return str(path)

    @pytest.mark.parametrize("argv, horizon", [
        (["eta"], 2), (["chain", "--process", "b"], 2), (["chain", "--process", "d"], 2),
        (["verify"], 1),
    ], ids=["eta", "chain-b", "chain-d", "verify"])
    def test_wide_pmf_eta_law_rejected(self, capsys, tmp_path, argv, horizon):
        # the eta law's j-th derivative term j!/(j-k)! overflows a float past
        # 170!; verify reaches the eta law first at horizon 1, where its
        # enumerations stay under the guard
        code, out, err = run_cli(capsys, *argv, "--env", self.wide_env(tmp_path, 173, horizon))
        assert code == EXIT_CONFIG
        assert err == ("error: eta law at level 1: a pmf law of width 173 overflows the float "
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
        monkeypatch.setattr("gwcoal.cli.lf_run", lambda *a: pytest.fail("an lf run started"))
        code, out, err = run_cli(capsys, "chain", "--env", env_path("lf_half_n6"),
                                 "--process", "lf", "--validate")
        assert code == EXIT_CONFIG
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

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
