"""Per-layer tracing of gwcoal from outside the package.

The tracer wraps public functions, methods and classes of each module and
restores them afterwards; nothing inside ``src/`` is edited.  A wrapped name
is patched in every ``gwcoal`` module that holds it, so calls through
``from .x import name`` bindings are seen too.

Timed wrappers record spans aggregated by (parent, name): call count, total
and self time, where self time is a span's duration minus the time of its
traced children.  Count-only wrappers are used on the hottest calls
(generating-function evaluations, single draws) to keep the overhead low.

A target that no longer exists (renamed or removed by a refactor) makes the
metrics that depend on it absent; the traced run still finishes.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# Wrapped targets: key -> (module, dotted attribute, timed?)
TARGETS = {
    "cli.main": ("cli", "main", True),
    "environment.load_environment": ("environment", "load_environment", True),
    "environment.Environment.shift": ("environment", "Environment.shift", False),
    "laws.FiniteSupportLaw.pgf": ("laws", "FiniteSupportLaw.pgf", False),
    "laws.LinearFractionalLaw.pgf": ("laws", "LinearFractionalLaw.pgf", False),
    "laws.FiniteSupportLaw.pgf_deriv": ("laws", "FiniteSupportLaw.pgf_deriv", False),
    "laws.LinearFractionalLaw.pgf_deriv": ("laws", "LinearFractionalLaw.pgf_deriv", False),
    "pgf.a1_tail": ("pgf", "a1_tail", True),
    "pgf.eta_law_at_depth": ("pgf", "eta_law_at_depth", True),
    "sampling.stream_for_run": ("sampling", "stream_for_run", True),
    "sampling.draw_count": ("sampling", "draw_count", False),
    "tree.Tree.__init__": ("tree", "Tree.__init__", True),
    "tree.condition_on_survival": ("tree", "condition_on_survival", True),
    "tree.coalescent_times": ("tree", "coalescent_times", True),
    "chains.EtaSamplers.__init__": ("chains", "EtaSamplers.__init__", True),
    "chains.EtaSamplers.draw": ("chains", "EtaSamplers.draw", False),
    "chains.b_step": ("chains", "b_step", True),
    "chains.d_step": ("chains", "d_step", True),
    "chains.b_run": ("chains", "b_run", True),
    "chains.d_run": ("chains", "d_run", True),
    "chains.lf_run": ("chains", "lf_run", True),
    "verify.run_verify_suite": ("verify", "run_verify_suite", True),
    "verify.exact_tree_law": ("verify", "exact_tree_law", True),
    "verify.exact_chain_law": ("verify", "exact_chain_law", True),
    "verify.exact_population_law": ("verify", "exact_population_law", True),
    "verify.btilde_witness_search": ("verify", "btilde_witness_search", True),
    "disttable.tv_distance": ("disttable", "tv_distance", True),
}

# Per-layer metric -> (unit, better, targets it needs).
PER_LAYER = {
    "sampling.stream_setup_s": ("s", "lower", ["sampling.stream_for_run", "sampling.UniformStream"]),
    "sampling.streams": ("count", "lower", ["sampling.UniformStream"]),
    "sampling.uniforms_used": ("count", "lower", ["sampling.UniformStream"]),
    "sampling.uniforms_generated": ("count", "lower", ["sampling.UniformStream"]),
    "sampling.uniform_use_ratio": ("ratio", "higher", ["sampling.UniformStream"]),
    "sampling.draw_count_calls": ("count", "lower", ["sampling.draw_count"]),
    "chains.sampler_builds": ("count", "lower", ["chains.EtaSamplers.__init__"]),
    "chains.sampler_build_s": ("s", "lower", ["chains.EtaSamplers.__init__"]),
    "chains.b_steps": ("count", "lower", ["chains.b_step"]),
    "chains.b_step_s": ("s", "lower", ["chains.b_step"]),
    "chains.d_steps": ("count", "lower", ["chains.d_step"]),
    "chains.d_step_s": ("s", "lower", ["chains.d_step"]),
    "chains.eta_draws": ("count", "lower", ["chains.EtaSamplers.draw"]),
    "chains.lf_run_s": ("s", "lower", ["chains.lf_run"]),
    "pgf.a1_tail_calls": ("count", "lower", ["pgf.a1_tail"]),
    "pgf.a1_tail_s": ("s", "lower", ["pgf.a1_tail"]),
    "pgf.eta_law_calls": ("count", "lower", ["pgf.eta_law_at_depth"]),
    "pgf.eta_law_s": ("s", "lower", ["pgf.eta_law_at_depth"]),
    "laws.pgf_evals": ("count", "lower",
                       ["laws.FiniteSupportLaw.pgf", "laws.LinearFractionalLaw.pgf"]),
    "laws.pgf_deriv_evals": ("count", "lower",
                             ["laws.FiniteSupportLaw.pgf_deriv", "laws.LinearFractionalLaw.pgf_deriv"]),
    "environment.shift_calls": ("count", "lower", ["environment.Environment.shift"]),
    "environment.load_s": ("s", "lower", ["environment.load_environment"]),
    "tree.trees_built": ("count", "lower", ["tree.Tree.__init__"]),
    "tree.accept_ratio": ("ratio", "higher", ["tree.condition_on_survival"]),
    "tree.build_s": ("s", "lower", ["tree.Tree.__init__"]),
    "tree.simulate_s": ("s", "lower", ["tree.condition_on_survival"]),
    "tree.coalescent_s": ("s", "lower", ["tree.coalescent_times"]),
    "verify.tree_law_s": ("s", "lower", ["verify.exact_tree_law"]),
    "verify.chain_law_s": ("s", "lower", ["verify.exact_chain_law"]),
    "verify.outcomes": ("count", "lower", ["verify.exact_tree_law", "verify.exact_chain_law"]),
    "verify.outcomes_per_s": ("1/s", "higher", ["verify.exact_tree_law", "verify.exact_chain_law"]),
    "verify.population_law_s": ("s", "lower", ["verify.exact_population_law"]),
    "verify.witness_s": ("s", "lower", ["verify.btilde_witness_search"]),
    "disttable.tv_s": ("s", "lower", ["disttable.tv_distance"]),
    "cli.self_s": ("s", "lower", ["cli.main"]),
}


def _resolve(module, dotted: str):
    """(owner, attribute, original) or None when any part is missing."""
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class _CountingRng:
    """Stands in for a stream's generator: counts and times block fills."""

    __slots__ = ("rng", "generated", "tracer")

    def __init__(self, rng, tracer: "Tracer"):
        self.rng = rng
        self.generated = 0
        self.tracer = tracer

    def random(self, size):
        start = perf_counter()
        block = self.rng.random(size)
        self.generated += int(size)
        return _TimedBlock(block, start, self.tracer)


class _TimedBlock:
    __slots__ = ("block", "start", "tracer")

    def __init__(self, block, start: float, tracer: "Tracer"):
        self.block = block
        self.start = start
        self.tracer = tracer

    def tolist(self):
        out = self.block.tolist()
        self.tracer.seconds["sampling.block_fill"] += perf_counter() - self.start
        return out


class Tracer:
    """Install with ``install()``, always ``uninstall()``; see ``traced``."""

    def __init__(self):
        self.missing: dict[str, str] = {}
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.values: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for key, (modname, dotted, timed) in TARGETS.items():
            try:
                module = importlib.import_module(f"gwcoal.{modname}")
            except ImportError as exc:
                self.missing[key] = f"module gwcoal.{modname}: {exc}"
                continue
            found = _resolve(module, dotted)
            if found is None:
                self.missing[key] = f"gwcoal.{modname}.{dotted} not found"
                continue
            owner, attr, original = found
            wrapper = self._timed(key, original) if timed else self._counted(key, original)
            self._patch(owner, attr, original, wrapper)
        self._instrument_streams()

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        # the defining module and every module that imported the same object
        for name, mod in list(sys.modules.items()):
            if (name == "gwcoal" or name.startswith("gwcoal.")) and vars(mod).get(attr) is original:
                self._set(mod, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        gc.collect()  # finalize streams still awaiting collection
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, key: str, fn):
        stack, calls, seconds, self_seconds, edges = (
            self._stack, self.calls, self.seconds, self.self_seconds, self.edges)
        on_result = {
            "tree.condition_on_survival": self._count_attempts,
            "verify.exact_tree_law": self._count_outcomes,
            "verify.exact_chain_law": self._count_outcomes,
        }.get(key)

        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            parent = stack[-1][0] if stack else ""
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                calls[key] += 1
                seconds[key] += elapsed
                self_seconds[key] += elapsed - frame[1]
                edge = edges[(parent, key)]
                edge[0] += 1
                edge[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_attempts(self, tree) -> None:
        self.values["tree.attempts"] += getattr(tree, "attempts", 0)

    def _count_outcomes(self, table) -> None:
        self.values["verify.outcomes"] += len(table)

    def _instrument_streams(self) -> None:
        """Count streams and uniforms through each stream's generator slot.

        Used uniforms are read when a stream is finalized: generated minus
        those left in its current block.
        """
        key = "sampling.UniformStream"
        sampling = importlib.import_module("gwcoal.sampling")
        cls = getattr(sampling, "UniformStream", None)
        slots = getattr(cls, "__slots__", ())
        if cls is None or not {"_rng", "_buf", "_pos"} <= set(slots) or "__del__" in vars(cls):
            self.missing[key] = "gwcoal.sampling.UniformStream internals changed"
            return
        init = cls.__init__
        tracer = self

        def counting_init(stream, *args, **kwargs):
            init(stream, *args, **kwargs)
            stream._rng = _CountingRng(stream._rng, tracer)
            tracer.calls["sampling.streams"] += 1

        def finalize(stream):
            rng = getattr(stream, "_rng", None)
            if isinstance(rng, _CountingRng):
                tracer.values["sampling.uniforms_generated"] += rng.generated
                tracer.values["sampling.uniforms_used"] += rng.generated - (len(stream._buf) - stream._pos)

        self._set(cls, "__init__", counting_init)
        self._set(cls, "__del__", finalize)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; a metric whose targets are missing is left out."""
        c, s, v = self.calls, self.seconds, self.values
        tree_law, chain_law = s["verify.exact_tree_law"], s["verify.exact_chain_law"]
        attempts = v["tree.attempts"]
        generated = v["sampling.uniforms_generated"]
        values = {
            "sampling.stream_setup_s": s["sampling.stream_for_run"] + s["sampling.block_fill"],
            "sampling.streams": c["sampling.streams"],
            "sampling.uniforms_used": v["sampling.uniforms_used"],
            "sampling.uniforms_generated": generated,
            "sampling.uniform_use_ratio": v["sampling.uniforms_used"] / generated if generated else 0.0,
            "sampling.draw_count_calls": c["sampling.draw_count"],
            "chains.sampler_builds": c["chains.EtaSamplers.__init__"],
            "chains.sampler_build_s": s["chains.EtaSamplers.__init__"],
            "chains.b_steps": c["chains.b_step"],
            "chains.b_step_s": s["chains.b_step"],
            "chains.d_steps": c["chains.d_step"],
            "chains.d_step_s": s["chains.d_step"],
            "chains.eta_draws": c["chains.EtaSamplers.draw"],
            "chains.lf_run_s": s["chains.lf_run"],
            "pgf.a1_tail_calls": c["pgf.a1_tail"],
            "pgf.a1_tail_s": s["pgf.a1_tail"],
            "pgf.eta_law_calls": c["pgf.eta_law_at_depth"],
            "pgf.eta_law_s": s["pgf.eta_law_at_depth"],
            "laws.pgf_evals": c["laws.FiniteSupportLaw.pgf"] + c["laws.LinearFractionalLaw.pgf"],
            "laws.pgf_deriv_evals": (c["laws.FiniteSupportLaw.pgf_deriv"]
                                     + c["laws.LinearFractionalLaw.pgf_deriv"]),
            "environment.shift_calls": c["environment.Environment.shift"],
            "environment.load_s": s["environment.load_environment"],
            "tree.trees_built": c["tree.Tree.__init__"],
            "tree.accept_ratio": c["tree.condition_on_survival"] / attempts if attempts else 0.0,
            "tree.build_s": s["tree.Tree.__init__"],
            "tree.simulate_s": s["tree.condition_on_survival"],
            "tree.coalescent_s": s["tree.coalescent_times"],
            "verify.tree_law_s": tree_law,
            "verify.chain_law_s": chain_law,
            "verify.outcomes": v["verify.outcomes"],
            "verify.outcomes_per_s": (v["verify.outcomes"] / (tree_law + chain_law)
                                      if tree_law + chain_law else 0.0),
            "verify.population_law_s": s["verify.exact_population_law"],
            "verify.witness_s": s["verify.btilde_witness_search"],
            "disttable.tv_s": s["disttable.tv_distance"],
            "cli.self_s": self.self_seconds["cli.main"],
        }
        return {name: values[name] for name, (_, _, needs) in PER_LAYER.items()
                if not any(t in self.missing for t in needs)}

    def span_table(self) -> list[dict]:
        """Aggregated spans: parent, name, calls and seconds, largest first."""
        rows = [{"parent": p, "name": n, "calls": calls, "seconds": secs}
                for (p, n), (calls, secs) in self.edges.items()]
        return sorted(rows, key=lambda r: -r["seconds"])


@contextlib.contextmanager
def traced():
    """A fresh tracer, installed for the block and always uninstalled."""
    tracer = Tracer()
    try:
        tracer.install()
        yield tracer
    finally:
        tracer.uninstall()
