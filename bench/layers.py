"""The sharedctrl calls the benchmark makes, as spans when tracing.

`Layers(tracer)` holds each public function the workloads call.  With
tracing off these are the program's own functions, untouched.  With tracing
on each call is a span named `<layer>.<function>`, and `patch_cosim` wraps
the names that `refine_loop` looks up in `sharedctrl.cosim` the same way.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager

from sharedctrl import cosim, game, lstar, mealy
from sharedctrl.driver import CognitiveDriver

# function -> (module, span name, counts taken from its result)
CALLS = {
    "build_arena": (game, "game.build_arena",
                    lambda a: {"states": a.n_states, "edges": a.n_edges}),
    "solve": (game, "game.solve", lambda r: {"iterations": r.iterations}),
    "extract_strategy": (game, "game.extract_strategy",
                         lambda s: {"entries": len(s.actions)}),
    "certify": (game, "game.certify", lambda rep: {"visited": rep.visited}),
    "serialize_strategy": (game, "game.serialize_strategy",
                           lambda text: {"bytes": len(text.encode())}),
    "parse_strategy": (game, "game.parse_strategy", None),
    "execute": (cosim, "cosim.execute",
                lambda t: {"epochs": len(t.rows), "misses": t.lookup_misses}),
    "monitor": (cosim, "cosim.monitor", None),
    "refine": (cosim, "cosim.refine", None),
    "refine_loop": (cosim, "cosim.refine_loop",
                    lambda res: {"iterations": len(res[0].iterations)}),
    "minimize": (mealy, "mealy.minimize", None),
    "serialize": (mealy, "mealy.serialize", None),
}

# names refine_loop looks up in sharedctrl.cosim
COSIM_BINDINGS = ("build_arena", "solve", "extract_strategy", "certify", "execute",
                  "monitor", "refine", "minimize", "serialize",
                  "LearningSession", "CognitiveDriver")


def spanned(tracer, name, fn, counts):
    def call(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
        if counts is not None:
            sp.attrs.update(counts(result))
        return result
    return call


def spanned_session(tracer, base):
    """`base` (a LearningSession) with `run` and `inject_counterexample` as
    spans carrying the membership queries they made and the table size."""

    class Session(base):
        def run(self):
            return self._span("lstar.run", super().run)

        def inject_counterexample(self, word):
            return self._span("lstar.inject", super().inject_counterexample, word)

        def _span(self, name, fn, *args):
            before = self.stats.membership_queries
            with tracer.span(name) as sp:
                result = fn(*args)
            sp.attrs.update(mq=self.stats.membership_queries - before,
                            rows=len(self.table.S))
            return result

    return Session


def counting_driver(tracer, base):
    class CountingDriver(base):
        def query(self, level):
            tracer.count("driver.queries")
            return super().query(level)

    return CountingDriver


def _wrap(tracer, name, obj):
    if name == "LearningSession":
        return spanned_session(tracer, obj)
    if name == "CognitiveDriver":
        return counting_driver(tracer, obj)
    _module, span_name, counts = CALLS[name]
    return spanned(tracer, span_name, obj, counts)


class Layers:
    def __init__(self, tracer):
        self.tracer = tracer
        on = tracer.enabled
        for name, (module, _span, _counts) in CALLS.items():
            fn = getattr(module, name)
            setattr(self, name, _wrap(tracer, name, fn) if on else fn)
        self.LearningSession = (_wrap(tracer, "LearningSession", lstar.LearningSession)
                                if on else lstar.LearningSession)
        self.CognitiveDriver = (_wrap(tracer, "CognitiveDriver", CognitiveDriver)
                                if on else CognitiveDriver)

    def learn(self, params, oracle_seed):
        """A fresh abstraction as `sharedctrl learn` makes it (default oracle)."""
        sul = self.CognitiveDriver(params)
        oracle = lstar.RandomWalkOracle(sul, lstar.EqOracleConfig(rng_seed=oracle_seed))
        hm, stats = self.LearningSession(sul, params.levels(), oracle).run()
        if not stats.converged:
            raise RuntimeError("learning did not converge")
        return hm

    def synthesize(self, hm, scenario, params, variant):
        """One `sharedctrl synth`: the certified strategy and its text, or
        `(None, None)` when the pair is unrealizable."""
        with self.tracer.span("bench.synth", op=f"synth:{scenario.name}/{variant}") as sp:
            arena = self.build_arena(hm, scenario, params=params, variant=variant)
            region = self.solve(arena)
            won = game.realizable(arena, region)
            strategy = text = None
            if won:
                strategy = self.extract_strategy(arena, region)
                self.certify(arena, strategy, region)
                text = self.serialize_strategy(strategy)
        if sp is not None:
            sp.attrs["realizable"] = won
        return strategy, text

    def episode(self, strategy, scenario, cfg, params, hm, seed, op):
        """One `sharedctrl validate` run: execute, then monitor."""
        with self.tracer.span("bench.episode", op=op):
            sul = self.CognitiveDriver(params)
            trace = self.execute(strategy, sul, scenario, cfg, seed, hm, params)
            return trace, self.monitor(trace, scenario.dest, cfg.thresholds)


@contextmanager
def patch_cosim(tracer):
    """Wrap the names `refine_loop` calls as bound in `sharedctrl.cosim`.

    A name that no longer exists there is recorded in `tracer.absent`.
    """
    saved = {}
    try:
        for name in COSIM_BINDINGS:
            if not hasattr(cosim, name):
                tracer.absent.append(f"sharedctrl.cosim.{name}")
                continue
            saved[name] = getattr(cosim, name)
            setattr(cosim, name, _wrap(tracer, name, saved[name]))
        yield
    finally:
        for name, obj in saved.items():
            setattr(cosim, name, obj)


def layer_metrics(tracer):
    """Per-layer metrics `{name: (value, unit)}` from the recorded spans."""
    spans = tracer.spans

    def total(name, key=None):
        return sum(sp.duration if key is None else sp.attrs.get(key, 0)
                   for sp in spans if sp.name == name)

    def ops(realizable):
        return sum(sp.duration for sp in spans
                   if sp.name == "bench.synth" and sp.attrs.get("realizable") == realizable)

    states = total("game.build_arena", "states")
    visited = total("game.certify", "visited")
    executes = [sp.duration for sp in spans if sp.name == "cosim.execute"]
    rows = [sp.attrs["rows"] for sp in spans if sp.name.startswith("lstar.")]
    self_s = tracer.self_times()
    m = {
        "game.build_s": (total("game.build_arena"), "s"),
        "game.solve_s": (total("game.solve"), "s"),
        "game.extract_s": (total("game.extract_strategy"), "s"),
        "game.arena_states": (states, "count"),
        "game.arena_edges": (total("game.build_arena", "edges"), "count"),
        "game.solver_iterations": (total("game.solve", "iterations"), "count"),
        "game.refute_s": (ops(False), "s"),
        "game.realize_s": (ops(True), "s"),
        "game.certify_s": (total("game.certify"), "s"),
        "game.template_visited": (visited, "count"),
        "game.visited_frac": (visited / states if states else 0.0, "ratio"),
        "game.strategy_entries": (total("game.extract_strategy", "entries"), "count"),
        "game.strategy_bytes": (total("game.serialize_strategy", "bytes"), "bytes"),
        "game.serialize_s": (total("game.serialize_strategy"), "s"),
        "game.parse_s": (total("game.parse_strategy"), "s"),
        "cosim.execute_s": (sum(executes), "s"),
        "cosim.monitor_s": (total("cosim.monitor"), "s"),
        "cosim.episode_p50_ms": (statistics.median(executes) * 1e3 if executes else 0.0,
                                 "ms"),
        "cosim.epochs": (total("cosim.execute", "epochs"), "count"),
        "cosim.lookup_misses": (total("cosim.execute", "misses"), "count"),
        "cosim.refine_s": (total("cosim.refine"), "s"),
        "cosim.iterations": (total("cosim.refine_loop", "iterations"), "count"),
        "lstar.learn_s": (total("lstar.run"), "s"),
        "lstar.inject_s": (total("lstar.inject"), "s"),
        "lstar.membership_queries": (total("lstar.run", "mq") + total("lstar.inject", "mq"),
                                     "count"),
        "lstar.table_rows": (max(rows, default=0), "count"),
        "driver.queries": (tracer.counts.get("driver.queries", 0), "count"),
        "mealy.minimize_s": (total("mealy.minimize"), "s"),
    }
    for layer in ("game", "cosim", "lstar", "mealy", "bench"):
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    return m
