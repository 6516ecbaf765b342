"""gwcoal benchmark: seeded workloads through the command line, checked.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload short_n6 --seed 1 --seconds 30 --trace 0

Every command runs in-process through ``gwcoal.cli.main(argv)`` with ``src``
on the path and ``--out`` pointing at a scratch file in the checkout.  A run
repeats rounds of the workload's campaigns (every command once, or ``reps``
times) until ``--seconds`` is used up, with at least ``MIN_ROUNDS`` rounds,
and reports medians over rounds.  Rounds alternate between the campaigns'
seed sets.  Times are scaled to a reference host speed by a calibration
loop timed between campaigns (see ``calibrate``); the raw figures are in
the report printed before the result.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics with the tracing
overhead.  Every output is checked (see ``gate.py``), repeats must write
byte-identical ``--out`` files, and the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  Each
command and each check is one attempted operation; ``failed / attempted`` is
the failure ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

MIN_ROUNDS = 3
CAL_ITERATIONS = 60_000
CAL_REFERENCE_S = 0.03  # the loop's time on a quiet 2-vCPU host, Python 3.11
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "forward_per_s": "1/s",
    "chain_b_per_s": "1/s",
    "chain_d_per_s": "1/s",
    "chain_lf_per_s": "1/s",
    "tables_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}

# Single-run figures measured before this benchmark existed (2 shared vCPUs,
# Python 3.10.12, numpy 2.4.6), kept so later targets can be read against them.
BASELINE = {
    "simulate binom_n6 --samples 20000": "5.7 s",
    "chain binom_n6 --samples 20000 (b)": "7.9 s, about 395 us per run (2 500 runs/s)",
    "chain lf_half_n6 --process lf --samples 20000": "4.4 s",
    "verify varying_n3 --rational": "0.2 s",
    "stream_for_run": "about 174 us per run, of which SeedSequence + Generator 19 us",
    "EtaSamplers rebuild per run, N=6": "about 130 us",
    "EtaSamplers build, N=200": "27-44 ms",
    "a1_tail for all n, N=200": "1.1-1.8 s",
    "target chain binom_n6 --samples 20000": "under 1 s, i.e. above 20 000 runs/s",
}


def _fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Provenance.
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "gwcoal")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _provenance(args, wl) -> dict:
    import numpy
    from gwcoal.pgf import survival_prob

    def rel(path: str) -> str:
        return os.path.relpath(path, ROOT) if path.startswith(ROOT) else path

    return {
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environments": [
            {"name": e.name, "generated": e.generated, "horizon": e.env.horizon,
             "digest": e.env.digest(), "survival": float(survival_prob(e.env, e.env.horizon)),
             "file": rel(e.path) if not e.generated else None}
            for e in wl.envs.values()
        ],
        "baseline": BASELINE,
    }


# ---------------------------------------------------------------------------
# Set-up time: a fresh process imports gwcoal and generates or loads inputs.
# ---------------------------------------------------------------------------


def _setup_probe(args) -> int:
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import workloads
    from gwcoal.environment import load_environment
    from gwcoal.pgf import survival_prob

    wl = workloads.build(args.workload, args.seed, ROOT, args.setup_probe)
    for e in wl.envs.values():
        env = load_environment(e.path)
        env.digest()
        survival_prob(env, env.horizon)
    return 0


def _measure_setup(args, workdir: str) -> list[tuple[float, float]]:
    """(probe seconds, calibration seconds just before it) per probe."""
    times = []
    for i in range(SETUP_PROBES):
        cal = calibrate()
        probe_dir = os.path.join(workdir, f"setup-{i}")
        os.mkdir(probe_dir)
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", probe_dir,
               "--workload", args.workload, "--seed", str(args.seed)]
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=PROBE_TIMEOUT_S)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
        times.append((elapsed, cal))
    return times


# ---------------------------------------------------------------------------
# Campaign execution and checking.
# ---------------------------------------------------------------------------


class Ledger:
    """Operations attempted and failed, with the failing checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failures.append(f"{name} {detail}".strip())


class Runner:
    def __init__(self, wl, workdir: str, ledger: Ledger):
        import gate
        from gwcoal import cli

        self.gate = gate
        self.cli = cli
        self.wl = wl
        self.ledger = ledger
        self.out_path = os.path.join(workdir, "out.dat")
        self.digests: dict[tuple[str, int], str] = {}
        self.refs = {name: gate.reference(e.env) for name, e in wl.envs.items()}

    def execute(self, camp, seed_set: int) -> float:
        """Run one command; returns its wall time."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        argv = camp.command_line(seed_set) + ["--out", self.out_path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        self.ledger.record(f"{camp.ident}:exit", rc == 0, f"exit={rc} {err.getvalue()[-300:]}")
        data = b""
        if os.path.exists(self.out_path):
            with open(self.out_path, "rb") as fh:
                data = fh.read()
        digest = _sha(data)
        key = (camp.ident, seed_set % max(len(camp.seeds), 1))
        first = self.digests.get(key)
        if first is None:
            self.digests[key] = digest
            self._check(camp, data.decode(), out.getvalue())
        else:
            self.ledger.record(f"{camp.ident}:deterministic", digest == first,
                               f"digest {digest[:12]} != {first[:12]}")
        return elapsed

    def _check(self, camp, text: str, stdout: str) -> None:
        g, e = self.gate, self.wl.envs[camp.env]
        ref = self.refs[camp.env]
        if camp.runs:
            ks, As = g.parse_sample(text)
            checks = g.check_sample(camp.ident, ks, As, camp.runs, ref)
        elif camp.command == "tail":
            checks = g.check_tail(camp.ident, text, e.env, ref)
        elif camp.command == "eta":
            checks = g.check_eta(camp.ident, text, e.env)
        else:
            checks = g.check_verify(camp.ident, stdout)
        for c in checks:
            self.ledger.record(c.name, c.passed, c.detail)

    def round(self, seed_set: int) -> tuple[dict[str, float], dict[str, float]]:
        """One pass over the campaigns, with the calibration loop run
        between consecutive campaigns.

        Returns seconds per campaign and, per campaign, the host's local
        calibration time: the median of the samples taken just before and
        after it and two further out on each side, so that samples caught in
        a short burst do not set it.
        """
        times, samples = {}, [calibrate()]
        for camp in self.wl.campaigns:
            times[camp.ident] = sum(self.execute(camp, seed_set) for _ in range(camp.reps))
            samples.append(calibrate())
        cal = {camp.ident: statistics.median(samples[max(i - 2, 0):i + 4])
               for i, camp in enumerate(self.wl.campaigns)}
        return times, cal


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    The work resembles the package's inner loops: polynomial evaluation in
    floats, tuple-keyed dict updates and Fraction arithmetic on growing
    denominators.  On shared vCPUs the host's speed drifts by up to 2x over
    tens of seconds; the ratio of a campaign's time to this loop's time,
    taken around it, drifts far less.
    """
    from fractions import Fraction

    gc_was_enabled = gc.isenabled()
    gc.disable()  # the loop makes no cycles; keep the heap size out of its time
    try:
        start = perf_counter()
        coeffs = (0.25, 0.5, 0.25)
        table: dict = {}
        acc = 0.0
        frac = Fraction(1, 3)
        for i in range(CAL_ITERATIONS):
            s = (i % 97) / 97.0
            a = 0.0
            for c in reversed(coeffs):
                a = a * s + c
            acc += a
            key = (i & 255, i & 3)
            table[key] = table.get(key, 0) + 1
            if i % 64 == 0:
                frac = frac * Fraction(3, 4) + Fraction(1, 8)
        return perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def _end_to_end(wl, rounds, scaled: bool) -> dict[str, float]:
    """Median over rounds of each metric; ``scaled`` expresses every time at
    the host speed where the calibration loop takes CAL_REFERENCE_S."""
    per_round = defaultdict(list)
    for times, cal in rounds:
        units, secs = defaultdict(int), defaultdict(float)
        for camp in wl.campaigns:
            factor = CAL_REFERENCE_S / cal[camp.ident] if scaled else 1.0
            units[camp.metric] += camp.runs * camp.reps
            secs[camp.metric] += times[camp.ident] * factor
        for metric, total in secs.items():
            per_round[metric].append(units[metric] / total if units[metric] else total)
    return {m: statistics.median(v) for m, v in per_round.items()}


def _scaled_layers(metrics: dict[str, float], cal: float) -> dict[str, float]:
    """Per-layer times and rates at the calibration's reference speed."""
    from tracer import PER_LAYER

    factor = CAL_REFERENCE_S / cal
    power = {"s": 1, "1/s": -1}
    return {name: value * factor ** power[PER_LAYER[name][0]] if PER_LAYER[name][0] in power
            else value for name, value in metrics.items()}


def _keep_going(start: float, seconds: int, rounds_done: int, minimum: int, last: float) -> bool:
    return rounds_done < minimum or perf_counter() - start + last <= seconds


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "gwcoal", "cli.py")):
        return _fail_setup(f"no gwcoal sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import workloads
    from tracer import PER_LAYER, traced

    if args.workload not in workloads.WORKLOADS:
        return _fail_setup(f"unknown workload {args.workload!r}; "
                           f"choose from {', '.join(workloads.WORKLOADS)}")
    ledger = Ledger()
    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH_DIR) as workdir:
        setup_times = _measure_setup(args, workdir) if not args.trace else []
        wl = workloads.build(args.workload, args.seed, ROOT, workdir)
        runner = Runner(wl, workdir, ledger)
        plain, traced_rounds, layer_rounds, spans, absent = [], [], [], [], {}
        start = perf_counter()
        last = 0.0
        while _keep_going(start, args.seconds, len(plain) + len(traced_rounds),
                          2 if args.trace else MIN_ROUNDS, last):
            round_start = perf_counter()
            if args.trace and len(traced_rounds) < len(plain):
                with traced() as tracer:
                    traced_rounds.append(runner.round(0))
                times, cal = traced_rounds[-1]
                host = sum(cal[k] * t for k, t in times.items()) / sum(times.values())
                layer_rounds.append(_scaled_layers(tracer.metrics(), host))
                spans = tracer.span_table()
                absent = tracer.missing
            else:
                # traced runs stay on the first seed set, so every traced
                # count repeats exactly and its output matches an untraced one
                plain.append(runner.round(0 if args.trace else len(plain)))
            last = perf_counter() - round_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        provenance = _provenance(args, wl)

    campaigns = [
        {"id": c.ident, "metric": c.metric, "runs": c.runs, "reps": c.reps,
         "median_s": statistics.median(times[c.ident] for times, _ in plain)}
        for c in wl.campaigns
    ]
    report = {"provenance": provenance, "rounds": len(plain), "campaigns": campaigns,
              "failures": ledger.failures[:50],
              "fail_ratio": ledger.failed / max(ledger.attempted, 1)}
    if args.trace:
        wall = lambda rounds: statistics.median(sum(t / cal[k] for k, t in times.items())
                                                for times, cal in rounds)
        overhead = wall(traced_rounds) / wall(plain)
        # counts repeat exactly on the fixed seed set; times take the median
        metrics = {name: statistics.median(r[name] for r in layer_rounds)
                   if unit in ("s", "1/s") else layer_rounds[0][name]
                   for name, (unit, _, _) in PER_LAYER.items() if name in layer_rounds[0]}
        metrics["trace.overhead_ratio"] = overhead
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        units["trace.overhead_ratio"] = "ratio"
        report.update(traced_rounds=len(traced_rounds), absent=absent, spans=spans[:25])
    else:
        metrics = _end_to_end(wl, plain, scaled=True)
        report["raw_metrics"] = _end_to_end(wl, plain, scaled=False)
        metrics["setup_s"] = (statistics.median(t for t, _ in setup_times) * CAL_REFERENCE_S
                              / statistics.median(c for _, c in setup_times))
        report["raw_metrics"]["setup_s"] = statistics.median(t for t, _ in setup_times)
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END_UNITS
        report["setup_samples_s"] = setup_times
    for failure in ledger.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_probe:
        return _setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
