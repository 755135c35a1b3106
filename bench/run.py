#!/usr/bin/env python3
"""Benchmark of the sharedctrl pipeline: synthesis, co-simulation, refinement.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from `src/` of
that checkout.  Workloads (see README.md):

  synth-matrix   `sharedctrl synth` for default/braking x three variants
  cosim-fleet    `sharedctrl validate` episodes on the default and braking
                 strategies, synthesized in a separate process during set-up
  refine-coarse  `refine_loop` on default from a 2-state abstraction

A run sets up, then runs whole rounds of the workload's operations until
another round would end past `--seconds` (at least one round).  With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it sets up
once, runs one round with spans recorded around every call into the program,
and reports the per-layer metrics.  The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`.  Results and span
dumps are also written under `bench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

if not (SRC / "sharedctrl" / "__init__.py").is_file():
    raise SystemExit(f"bench: no sharedctrl sources under {SRC}")
sys.path.insert(0, str(SRC))

from checks import (  # noqa: E402
    VARIANT_LADDER, abstraction_faults, check_trace, exact_abstraction,
    realizability_faults,
)
from layers import Layers, layer_metrics, patch_cosim  # noqa: E402
from spans import Tracer  # noqa: E402

from sharedctrl.cosim import RefineLoopConfig  # noqa: E402
from sharedctrl.driver import DriverParams  # noqa: E402
from sharedctrl.mealy import serialize  # noqa: E402
from sharedctrl.scenario import load_scenario  # noqa: E402

SCENARIOS = ("default", "braking")
SETUP_REPEATS = 15         # set-ups per untraced run; setup_s is their median
CHECK_EPISODES = 4         # per realizable synth-matrix strategy, outside the timing
COSIM_EPISODES = 2000      # per strategy and cosim-fleet round
COSIM_SYNTH_TIMEOUT = 150  # seconds for the strategy-synthesis process
REFINE_LOOPS = 3           # refinement loops per refine-coarse round
REFINE_RUNS = 25
REFINE_STATE_CAP = 2


def derive(seed, tag):
    """Per-purpose seed fanned out from the workload seed."""
    digest = hashlib.sha256(f"bench:{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Run:
    """State of one benchmark run: layers, checks, operation counts."""

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer
        self.layers = Layers(tracer)
        self.plain = Layers(Tracer(enabled=False))  # for checks, never traced
        self.params = DriverParams()
        self.reference = exact_abstraction(self.params)
        self.faults = []
        self.attempted = 0
        self.failed = 0
        self.learned = []
        self.setup_times = []
        self._make = None
        self._repeats = 0

    def attempt(self, fn, *args):
        """Run one operation; `(True, result)`, or `(False, None)` if it raised."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception:  # an operation's failure is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return False, None

    def check(self, faults, what=""):
        self.faults.extend(f"{what}: {f}" if what else f for f in faults)

    def setup(self, make, repeats=SETUP_REPEATS):
        """The inputs of the first of `repeats` set-ups `make(i)` (one when
        tracing).

        Half of them run now and half in `setup_seconds`, after the measured
        phase, so that their median samples the machine at both ends of the
        run rather than during a few milliseconds.
        """
        self._make = make
        self._repeats = 1 if self.tracer.enabled else repeats
        inputs = self._timed_setup(0)
        for i in range(1, (self._repeats + 1) // 2):
            self._timed_setup(i)
        return inputs

    def _timed_setup(self, i):
        t0 = time.perf_counter()
        with self.tracer.span("bench.setup", op=f"setup:{i}"):
            inputs = self._make(i)
        self.setup_times.append(time.perf_counter() - t0)
        return inputs

    def setup_seconds(self):
        """Median time of all the run's set-ups."""
        for i in range(len(self.setup_times), self._repeats):
            self._timed_setup(i)
        return statistics.median(self.setup_times)

    def learn(self, i):
        """A fresh abstraction; each set-up uses its own oracle seed."""
        hm = self.layers.learn(self.params, derive(self.seed, f"oracle{i}"))
        self.learned.append(hm)
        return hm

    def check_learned(self):
        for i, hm in enumerate(self.learned):
            self.check(abstraction_faults(hm, self.reference, f"fresh abstraction {i}"))


def synth_matrix(run):
    def make(i):
        return [load_scenario(n) for n in SCENARIOS], run.learn(i)

    scenarios, hm = run.setup(make)

    def one_round():
        won = {}
        timed = 0.0
        for scenario in scenarios:
            cfg = scenario.supervisor_config()
            for variant in VARIANT_LADDER:
                t0 = time.perf_counter()
                ok, result = run.attempt(run.layers.synthesize, hm, scenario,
                                         run.params, variant)
                timed += time.perf_counter() - t0
                if not ok:
                    continue
                strategy = result[0]
                won[(scenario.name, variant)] = strategy is not None
                for i in range(CHECK_EPISODES if strategy is not None else 0):
                    tag = f"check:{scenario.name}/{variant}:{i}"
                    trace, verdict = run.plain.episode(strategy, scenario, cfg, run.params,
                                                       hm, derive(run.seed, tag), tag)
                    run.check(check_trace(trace, verdict, scenario, cfg, run.params), tag)
                del strategy, result  # not held while the next arena is built
        run.check(realizability_faults(won))
        return timed

    return one_round


def cosim_fleet(run):
    work = OUT / f"cosim-fleet-{os.getpid()}"
    spans_path = work / "synth-spans.json"

    def make(i):
        work.mkdir(parents=True, exist_ok=True)
        hm = run.learn(i)
        hm_path = work / "hm.mealy"
        hm_path.write_text(serialize(hm), encoding="utf-8")
        cmd = [sys.executable, str(BENCH / "synth_files.py"), "--hm", str(hm_path),
               "--out", str(work)]
        if run.tracer.enabled:
            cmd += ["--spans", str(spans_path)]
        subprocess.run(cmd, check=True, timeout=COSIM_SYNTH_TIMEOUT)
        if run.tracer.enabled:
            run.tracer.merge(json.loads(spans_path.read_text(encoding="utf-8")))
        fleet = []
        for name in SCENARIOS:
            text = (work / f"strategy-{name}.txt").read_text(encoding="utf-8")
            seeds = [derive(run.seed, f"{name}:{e}") for e in range(COSIM_EPISODES)]
            fleet.append((load_scenario(name), run.layers.parse_strategy(text), seeds))
        return hm, fleet

    try:  # one set-up: it synthesizes, and the strategy files are not kept
        hm, fleet = run.setup(make, repeats=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def one_round():
        timed = 0.0
        for scenario, strategy, seeds in fleet:
            cfg = scenario.supervisor_config()
            for i, seed in enumerate(seeds):
                op = f"episode:{scenario.name}:{i}"
                t0 = time.perf_counter()
                ok, result = run.attempt(run.layers.episode, strategy, scenario, cfg,
                                         run.params, hm, seed, op)
                timed += time.perf_counter() - t0
                if ok:
                    run.check(check_trace(*result, scenario, cfg, run.params), op)
        return timed

    return one_round


def refine_coarse(run):
    def make(i):
        return load_scenario("default"), run.learn(i)

    scenario, _hm = run.setup(make)
    cfg = scenario.supervisor_config()

    def loop(loop_cfg):
        report, artifacts = run.layers.refine_loop(scenario, loop_cfg)
        if report.termination_reason != "all-pass":
            raise RuntimeError(f"refinement ended {report.termination_reason!r}")
        return report, artifacts

    def one_round():
        timed = 0.0
        for j in range(REFINE_LOOPS):
            loop_cfg = RefineLoopConfig(seed=derive(run.seed, f"loop{j}"), runs=REFINE_RUNS,
                                        initial_state_cap=REFINE_STATE_CAP)
            patched = patch_cosim(run.tracer) if run.tracer.enabled else nullcontext()
            t0 = time.perf_counter()
            with run.tracer.span("bench.refine", op=f"refine:loop{j}"), patched:
                ok, result = run.attempt(loop, loop_cfg)
            timed += time.perf_counter() - t0
            if not ok:
                continue
            report, artifacts = result
            what = f"refine loop {j}"
            if report.iterations[0].hm_states != REFINE_STATE_CAP:
                run.check([f"started from {report.iterations[0].hm_states} states"], what)
            run.check(abstraction_faults(artifacts[-1].hm, run.reference,
                                         "final abstraction"), what)
            for it, art in enumerate(artifacts):
                last = it == len(artifacts) - 1
                for k, (trace, verdict) in enumerate(art.traces):
                    run.check(check_trace(trace, verdict, scenario, cfg, run.params,
                                          must_pass=last), f"{what} iteration {it} run {k}")
        return timed

    return one_round


WORKLOADS = {
    "synth-matrix": synth_matrix,
    "cosim-fleet": cosim_fleet,
    "refine-coarse": refine_coarse,
}


def measure(seconds, one_round, once):
    """Operation time of each whole round, until another round would end past
    `seconds` (or after one round when `once`)."""
    times = []
    start = time.perf_counter()
    while True:
        times.append(one_round())
        elapsed = time.perf_counter() - start
        if once or elapsed + elapsed / len(times) > seconds:
            return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = Tracer(enabled=bool(args.trace))
    run = Run(args.seed, tracer)
    one_round = WORKLOADS[args.workload](run)
    times = measure(args.seconds, one_round, once=tracer.enabled)
    run_s = sum(times) / len(times)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = run.setup_seconds()
    run.check_learned()

    for fault in run.faults[:20]:
        print(f"check failed: {fault}", file=sys.stderr)
    if len(run.faults) > 20:
        print(f"... {len(run.faults) - 20} more", file=sys.stderr)
    for name in tracer.absent:
        print(f"absent, not traced: {name}", file=sys.stderr)
    print(f"{args.workload}: trace={args.trace} setup_s={setup_s:.4f} run_s={run_s:.4f} "
          f"rounds=[{', '.join(f'{t:.3f}' for t in times)}]", file=sys.stderr)

    if tracer.enabled:
        metrics = layer_metrics(tracer)
    else:
        metrics = {"setup_s": (setup_s, "s"), "run_s": (run_s, "s"),
                   "peak_rss_mb": (peak_mb, "MB")}
    result = {
        "correct": not run.faults,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if tracer.enabled:
        tracer.dump(OUT / f"spans-{stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
