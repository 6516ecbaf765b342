"""The benchmark tracer in ``perfbench/tracer.py`` wraps gwcoal from outside
by name; a target that no longer resolves makes its per-layer metrics vanish
without an error.  These tests read the tracer and keep its names in place."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracer):
    missing = []
    for key, (modname, dotted, _) in tracer.TARGETS.items():
        module = importlib.import_module(f"gwcoal.{modname}")
        if tracer._resolve(module, dotted) is None:
            missing.append(key)
    assert missing == []


def test_stream_keeps_the_slots_the_tracer_swaps():
    from gwcoal.sampling import UniformStream

    assert {"_rng", "_buf", "_pos"} <= set(UniformStream.__slots__)
    assert "__del__" not in vars(UniformStream)


def test_install_finds_everything(tracer):
    t = tracer.Tracer()
    try:
        t.install()
        assert t.missing == {}
    finally:
        t.uninstall()


def test_traced_campaign_counts(tracer, tmp_path, capsys):
    from gwcoal.cli import main

    env = str(Path(__file__).resolve().parent.parent / "envs" / "binom_n6.json")
    out = str(tmp_path / "out.csv")
    t = tracer.Tracer()
    try:
        t.install()
        for argv in (["simulate"], ["chain", "--process", "b"], ["chain", "--process", "d"]):
            assert main(argv + ["--env", env, "--samples", "20", "--seed", "3", "--out", out]) == 0
    finally:
        t.uninstall()
    metrics = t.metrics()
    assert metrics["tree.trees_built"] == 20
    assert 0 < metrics["tree.accept_ratio"] < 1
    assert metrics["chains.b_steps"] > 20 and metrics["chains.d_steps"] > 20
    assert 0 < metrics["sampling.uniforms_used"] <= metrics["sampling.uniforms_generated"]
    assert metrics["sampling.streams"] == 60


def test_traced_long_campaign_counts(tracer, tmp_path, capsys, monkeypatch):
    # a campaign of _LONG runs or more reads its first blocks off numpy: the
    # tracer still counts each run's stream and the uniforms it reads.  An
    # lf run decided within its first block is read off the block matrix
    # and makes no stream, so only the lf runs that read past their blocks
    # are counted, as streams and as lf_run calls
    from gwcoal import cli, sampling
    from gwcoal.chains import lf_run
    from gwcoal.sampling import UniformStream, rng_for_run

    runs = sampling._LONG
    env = str(Path(__file__).resolve().parent.parent / "envs" / "lf_half_n6.json")
    commands = (["simulate"], ["chain", "--process", "b"], ["chain", "--process", "lf"])

    def outputs() -> list[bytes]:
        out = []
        for i, argv in enumerate(commands):
            path = tmp_path / f"{i}.csv"
            assert cli.main(argv + ["--env", env, "--samples", str(runs), "--seed", "3",
                                    "--out", str(path)]) == 0
            out.append(path.read_bytes())
        return out

    t = tracer.Tracer()
    try:
        t.install()
        traced = outputs()
    finally:
        t.uninstall()
    metrics = t.metrics()

    # the same runs on stream_for_run's streams, their draws counted here
    class Counting:
        def __init__(self, rng):
            self.rng, self.generated = rng, 0

        def random(self, size):
            self.generated += size
            return self.rng.random(size)

    streams, lf_streams = [], []

    def reference_streams(seed, n, made=streams):
        for run in range(n):
            made.append(UniformStream(Counting(rng_for_run(seed, run))))
            yield made[-1]

    def reference_lf_campaign(env, seed, n, max_individuals):
        for stream in reference_streams(seed, n, lf_streams):
            yield lf_run(env, stream, max_individuals)

    monkeypatch.setattr(cli, "campaign_streams", reference_streams)
    monkeypatch.setattr(cli, "lf_campaign", reference_lf_campaign)
    assert outputs() == traced
    assert len(streams) == 2 * runs and len(lf_streams) == runs
    # simulate's runs read past their first block, b's stay inside it
    assert any(s._rng.generated > 32 for s in streams)
    # the lf runs with no end among their first 32 uniforms
    past = [s for s in lf_streams if s._rng.generated > 32]
    counted = streams + past
    used = sum(s._rng.generated - (len(s._buf) - s._pos) for s in counted)
    assert metrics["sampling.streams"] == len(counted)
    assert t.calls["chains.lf_run"] == len(past)
    assert metrics["sampling.uniforms_used"] == used
    assert metrics["sampling.uniforms_generated"] == sum(s._rng.generated for s in counted)
