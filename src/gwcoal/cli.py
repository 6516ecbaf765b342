"""Command-line surface: simulation campaigns, chain sampling, verification.

Commands
--------
simulate   forward trees conditioned on survival; one CSV row per run.
chain      backward-chain runs (truncated, fixed-length, or closed-form).
verify     exact cross-checks; nonzero exit on any failing check.
eta        dump the per-level spine-sibling law tables.
tail       dump the tail curve of the first coalescent time.

CSV schemas (also shown by ``--help`` of each command):
  simulate / chain:  run_id,K,A       A is semicolon-joined, empty when K=1
  chain --trace:     step,A,state     state entries semicolon-joined
  eta:               level,k,p
  tail:              n,tail

Exit codes: 0 ok, 1 check or validation failure, 2 configuration error,
3 degenerate environment, 4 enumeration guard tripped.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import repeat
from typing import Sequence

from .chains import EtaSamplers, b_run, d_run, dense, lf_campaign, validate_b_run, validate_d_run
from .environment import TAIL_CUT, Environment, load_environment
from .errors import (
    AttemptCapError,
    ChainStateError,
    DegenerateEnvironmentError,
    EnumerationGuardError,
    EnvFormatError,
    GwcoalError,
    NotLinearFractionalError,
)
from .pgf import a1_tail, eta_law_at_depth
from .sampling import campaign_streams
from .tree import condition_on_survival, coalescent_times
from .verify import figure1_consistency, run_verify_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_GUARD = 4


# ---------------------------------------------------------------------------
# Option plumbing.
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, needs_env: bool = True) -> None:
    p.add_argument("--env", required=needs_env, help="environment JSON file")
    p.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="override: keep only the newest H generations of the environment",
    )
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed in [0, 2**64)")


def _add_campaign(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    _add_seed(p)
    p.add_argument("--samples", type=int, default=1, help="number of runs")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwcoal",
        description="Branching-tree genealogies and their backward-chain representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate",
        help="forward trees conditioned on survival",
        description="Simulates trees conditioned on at least one survivor and "
        "writes one row per run: run_id,K,A (A semicolon-joined).",
    )
    _add_campaign(p_sim)
    p_sim.add_argument(
        "--max-attempts",
        type=int,
        default=100_000,
        help="rejection-sampling cap per run",
    )
    p_sim.set_defaults(parser=p_sim, func=cmd_simulate)

    p_chain = sub.add_parser(
        "chain",
        help="backward-chain genealogy sampling",
        description="Runs a backward chain per sample and writes run_id,K,A "
        "rows, or a step,A,state trace with --trace (single run only).",
    )
    _add_campaign(p_chain)
    p_chain.add_argument(
        "--process",
        choices=("b", "d", "lf"),
        default="b",
        help="truncated chain, fixed-length chain, or LF closed form",
    )
    p_chain.add_argument(
        "--max-individuals",
        type=int,
        default=1_000_000,
        help="abort a run that emits this many values without terminating",
    )
    p_chain.add_argument(
        "--trace",
        action="store_true",
        help="emit per-step states instead of summaries (requires --samples 1)",
    )
    p_chain.add_argument(
        "--validate",
        action="store_true",
        help="check structural invariants along every run (exit 1 on violation)",
    )
    p_chain.set_defaults(parser=p_chain, func=cmd_chain)

    p_ver = sub.add_parser(
        "verify",
        help="exact cross-checks of tree law vs chain law",
        description="Runs the verification battery and prints one PASS/FAIL "
        "line per check.",
    )
    _add_common(p_ver, needs_env=False)
    _add_seed(p_ver)
    p_ver.add_argument("--figure1", action="store_true",
                       help="only re-derive the embedded reference genealogy")
    p_ver.add_argument("--witness", action="store_true",
                       help="also search for a history dependence of the reduced sequence")
    p_ver.add_argument("--witness-mc-samples", type=int, default=0,
                       help="cross-validate a found witness with this many simulations")
    p_ver.add_argument("--rational", action="store_true",
                       help="repeat the main comparison in exact rational arithmetic")
    p_ver.add_argument("--guard", type=int, default=2_000_000,
                       help="enumeration work budget")
    p_ver.set_defaults(parser=p_ver, func=cmd_verify)

    p_eta = sub.add_parser(
        "eta",
        help="dump spine-sibling law tables",
        description="Writes the spine-sibling law at each ancestor level as "
        "level,k,p rows.",
    )
    _add_common(p_eta)
    p_eta.add_argument("--tol", type=float, default=TAIL_CUT,
                       help="tail mass cutoff for geometric laws")
    p_eta.set_defaults(parser=p_eta, func=cmd_eta)

    p_tail = sub.add_parser(
        "tail",
        help="dump the first-coalescent-time tail curve",
        description="Writes n,tail rows for n = 1..horizon, where tail is the "
        "probability that the first coalescent time exceeds n.",
    )
    _add_common(p_tail)
    p_tail.set_defaults(parser=p_tail, func=cmd_tail)

    return parser


def _load_env(args) -> Environment:
    if args.env is None:
        raise EnvFormatError("this command requires --env")
    env = load_environment(args.env)
    if args.horizon is not None:
        if not 1 <= args.horizon <= env.horizon:
            raise EnvFormatError(
                f"--horizon must be in 1..{env.horizon}, got {args.horizon}"
            )
        env = env.shift(env.horizon - args.horizon)
    return env


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise EnvFormatError(message)


def _check_seed(args) -> None:
    _require(0 <= args.seed < 1 << 64, f"--seed must be in [0, 2**64), got {args.seed}")


def _check_campaign(args) -> None:
    _require(args.samples >= 1, "--samples must be >= 1")
    _check_seed(args)


def _emit(args, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)


def _rows_to_csv(header: list[str], rows: Sequence[Sequence]) -> str:
    # one %s per column formats a cell as str() does
    line = ",".join(["%s"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join([line % tuple(row) for row in rows])


def _rows_to_json(header: list[str], rows: Sequence[Sequence]) -> str:
    docs = [dict(zip(header, row)) for row in rows]
    return json.dumps(docs, sort_keys=True, indent=2) + "\n"


def _write_rows(args, header: list[str], rows: Sequence[Sequence]) -> None:
    if args.format == "csv":
        _emit(args, _rows_to_csv(header, rows))
    else:
        _emit(args, _rows_to_json(header, rows))


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    _require(args.max_attempts >= 1, f"--max-attempts must be >= 1, got {args.max_attempts}")
    env = _load_env(args)
    _check_campaign(args)

    N = env.horizon
    # runs per first coalescent time; K = 1 puts it beyond every level (N + 1)
    first = [0] * (N + 2)
    attempts = total_k = 0
    rows = []
    for run_id, stream in enumerate(campaign_streams(args.seed, args.samples)):
        tree = condition_on_survival(env, stream, max_attempts=args.max_attempts)
        attempts += tree.attempts
        cpp = coalescent_times(tree)
        k, a = cpp.k, cpp.a
        total_k += k
        first[a[0] if a else N + 1] += 1
        rows.append((run_id, k, ";".join(map(str, a))))
    _write_rows(args, ["run_id", "K", "A"], rows)
    mean_k = total_k / len(rows)
    tails = []
    hits = len(rows)
    for n in range(1, N + 1):
        hits -= first[n]
        tails.append(f"P(A1>{n})={hits / len(rows):.6f}")
    print(f"runs={len(rows)} attempts={attempts} mean_K={mean_k:.6f} " + " ".join(tails),
          file=sys.stderr)
    return EXIT_OK


def cmd_chain(args) -> int:
    _require(args.max_individuals >= 1,
             f"--max-individuals must be >= 1, got {args.max_individuals}")
    _require(not (args.validate and args.process == "lf"),
             "--validate checks chain states, which --process lf does not have")
    env = _load_env(args)
    _check_campaign(args)
    if args.trace and args.samples != 1:
        raise EnvFormatError("--trace requires --samples 1")
    if args.process == "lf":
        if not env.is_linear_fractional:
            raise NotLinearFractionalError(
                "--process lf requires every law in the environment to be linear fractional"
            )
        runs = lf_campaign(env, args.seed, args.samples, args.max_individuals)
    else:
        # the spine-sibling samplers depend on the environment only
        chain_run = functools.partial(b_run if args.process == "b" else d_run,
                                      samplers=EtaSamplers(env))
        runs = map(chain_run, repeat(env), campaign_streams(args.seed, args.samples),
                   repeat(args.max_individuals))
    validate = args.validate and (validate_b_run if args.process == "b" else validate_d_run)
    rows = []
    unfinished = 0
    for run_id, run in enumerate(runs):
        if validate:
            validate(run, env.horizon)
        unfinished += not run.terminated
        rows.append((run_id, run.k if run.terminated else "", ";".join(map(str, run.a_values))))
    if args.trace:
        # the campaign's single run; an lf run has no states
        lf = args.process == "lf"
        rows = [[step, a, "" if lf else ";".join(map(str, dense(run.states[step - 1])))]
                for step, a in enumerate(run.a_values, start=1)]
        _write_rows(args, ["step", "A", "state"], rows)
    else:
        _write_rows(args, ["run_id", "K", "A"], rows)
    print(f"runs={args.samples} unfinished={unfinished}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    _require(args.witness_mc_samples >= 0,
             f"--witness-mc-samples must be >= 0, got {args.witness_mc_samples}")
    _require(args.guard >= 1, f"--guard must be >= 1, got {args.guard}")
    _check_seed(args)
    if args.figure1:
        unread = [option for option, given in (("--env", args.env is not None),
                                               ("--horizon", args.horizon is not None),
                                               ("--rational", args.rational),
                                               ("--witness", args.witness),
                                               ("--witness-mc-samples",
                                                args.witness_mc_samples > 0)) if given]
        _require(not unread, "--figure1 checks the embedded reference table and takes no "
                 + " ".join(unread))
        results = [figure1_consistency()]
    else:
        _require(args.witness or not args.witness_mc_samples,
                 "--witness-mc-samples needs --witness")
        results = run_verify_suite(
            _load_env(args),
            rational=args.rational,
            witness=args.witness,
            witness_mc_samples=args.witness_mc_samples,
            seed=args.seed,
            guard=args.guard,
        )
    rows = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} metric={res.metric:.3e} threshold={res.threshold:.3e} {res.detail}")
        rows.append([status, res.name, repr(res.metric), repr(res.threshold), res.detail])
    if args.out is not None:
        if args.format == "json":
            _emit(args, json.dumps(
                [json.loads(r.to_json()) for r in results], sort_keys=True, indent=2
            ) + "\n")
        else:
            _write_rows(args, ["status", "name", "metric", "threshold", "detail"], rows)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def cmd_eta(args) -> int:
    # also rejects nan and inf
    _require(0 < args.tol < 1, f"--tol must be in (0, 1), got {args.tol}")
    env = _load_env(args)
    env.levels.fill(etas=True)
    rows = []
    for level in range(1, env.horizon + 1):
        law = eta_law_at_depth(env, level).materialized(args.tol)
        for k, p in enumerate(law.probs):
            rows.append([level, k, repr(float(p))])
    _write_rows(args, ["level", "k", "p"], rows)
    return EXIT_OK


def cmd_tail(args) -> int:
    env = _load_env(args)
    env.levels.fill()
    rows = []
    for n in range(1, env.horizon + 1):
        rows.append([n, repr(float(a1_tail(env, n)))])
    _write_rows(args, ["n", "tail"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    try:
        args, extras = build_parser().parse_known_args(argv)
        if extras:
            # reported with the usage of the subcommand that does not take them
            args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_CONFIG
        return EXIT_OK if code == 0 else EXIT_CONFIG
    try:
        return args.func(args)
    except (DegenerateEnvironmentError, AttemptCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except EnumerationGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ChainStateError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (GwcoalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
