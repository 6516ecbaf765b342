"""Tests of the benchmark itself: the correctness gate and the tracer.

Run from the root of a checkout:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import gate  # noqa: E402
import tracer  # noqa: E402
from gwcoal import cli, pgf  # noqa: E402
from gwcoal.environment import load_environment  # noqa: E402

ENV = os.path.join(ROOT, "envs", "binom_n3.json")
RUNS = 2000


def _chain(tmp_path, name="out.csv") -> str:
    out = tmp_path / name
    argv = ["chain", "--env", ENV, "--samples", str(RUNS), "--seed", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    return out.read_text()


def _gate(ks, As):
    return gate.check_sample("chain", ks, As, RUNS, gate.reference(load_environment(ENV)))


def test_gate_passes_a_correct_sample(tmp_path):
    checks = _gate(*gate.parse_sample(_chain(tmp_path)))
    assert checks and all(c.passed for c in checks)


def _shift_times(ks, As):
    return ks, [tuple(min(x + 1, 3) for x in a) for a in As]


def _drop_last_time(ks, As):
    return [k - 1 if k > 1 else k for k in ks], [a[:-1] for a in As]


@pytest.mark.parametrize("perturb", [_shift_times, _drop_last_time])
def test_gate_trips_on_perturbed_sample(tmp_path, perturb):
    checks = _gate(*perturb(*gate.parse_sample(_chain(tmp_path))))
    assert any(not c.passed for c in checks)


def test_gate_rejects_times_outside_the_horizon(tmp_path):
    ks, As = gate.parse_sample(_chain(tmp_path))
    As = [tuple(4 for _ in a) for a in As]
    assert not _gate(ks, As)[0].passed


def test_missing_wrapped_function_is_absent_not_a_crash(tmp_path, monkeypatch):
    monkeypatch.delattr(pgf, "a1_tail")
    with tracer.traced() as t:
        _chain(tmp_path)
    metrics = t.metrics()
    assert "pgf.a1_tail" in t.missing
    assert "pgf.a1_tail_s" not in metrics and "pgf.a1_tail_calls" not in metrics
    assert metrics["chains.b_steps"] > 0


def test_traced_output_matches_untraced_and_wrappers_are_restored(tmp_path):
    main, shift = cli.main, pgf.Environment.shift
    plain = _chain(tmp_path, "plain.csv")
    with tracer.traced() as t:
        traced = _chain(tmp_path, "traced.csv")
    assert traced == plain
    assert cli.main is main and pgf.Environment.shift is shift
    metrics = t.metrics()
    assert metrics["sampling.streams"] >= 1 and metrics["chains.sampler_builds"] >= 1
    assert 0 < metrics["sampling.uniforms_used"] <= metrics["sampling.uniforms_generated"]
    assert 0 < metrics["cli.self_s"] < sum(s["seconds"] for s in t.span_table())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work-*"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short_n6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
