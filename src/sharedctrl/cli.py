"""Command-line pipeline: learn, synth, validate, refine, demo.

This module parses arguments and writes files.  Each stage it runs is the
one function that `refine_loop` calls too: `cosim.learning_session`,
`cosim.synthesize` on a `game.build_arena` arena, and `cosim.episode`.
Each subcommand accepts only the flags it reads.  `learn`, `validate`,
`refine` and `demo` draw random numbers (the learner's equivalence oracle,
the co-simulated sensor noise) and take `--seed`; all their randomness is
fanned out from that one value.  `synth` is deterministic given its inputs
and takes no seed.  Exit codes form a stable contract for scripting:
0 success, 1 usage/IO error (including learning that does not converge and
an arena that outgrows its state cap), 2 unrealizable specification,
3 validation failure (a co-simulated run that fails an objective or takes
the fail-safe fallback, or a template check that rejects a synthesized or
loaded strategy).
"""

from __future__ import annotations

import argparse
import os
import sys

from .config_text import read_file
from .cosim import (
    RefineLoopConfig,
    derive_seed,
    episode,
    episode_passed,
    learning_session,
    refine_loop,
    synthesize,
    write_trace_csv,
)
from .driver import DriverParams
from .game import (
    ArenaCapExceeded,
    StrategyRejected,
    VARIANT_ACTIONS,
    arena_stats_text,
    build_arena,
    certify,
    grid_lattice_checks,
    parse_strategy,
    serialize_strategy,
    solve,
)
from .mealy import parse, serialize, to_dot
from .scenario import load_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNREALIZABLE = 2
EXIT_VALIDATION = 3

TABLE_HEADER = ("t", "lead_pos", "follow_pos", "thw", "control_mode",
                "driver_acc", "follow_acc", "controller_action")


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _params(args):
    return read_file(args.driver_params, DriverParams.from_text) if args.driver_params \
        else DriverParams()


def _load_inputs(args):
    return load_scenario(args.scenario), _params(args)


def _learn(args, params):
    """The driver abstraction and its learning stats; says so on stderr
    when learning did not converge."""
    hm, stats = learning_session(params, args.seed).run()
    if not stats.converged:
        print("learning did not converge within the round cap", file=sys.stderr)
    return hm, stats


def _ensure_out(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_learn(args):
    params = _params(args)
    out = _ensure_out(args)
    machine, stats = _learn(args, params)
    _write(os.path.join(out, "hm.mealy"), serialize(machine))
    _write(os.path.join(out, "hm.dot"), to_dot(machine, "hm"))
    _write(os.path.join(out, "learn_report.txt"), stats.report_text())
    if not stats.converged:
        return EXIT_USAGE
    print(f"learned abstraction: {stats.states} states, "
          f"{stats.transitions} transitions ({stats.rounds} rounds)")
    return EXIT_OK


def cmd_synth(args):
    scenario, params = _load_inputs(args)
    out = _ensure_out(args)
    arena = build_arena(read_file(args.hm, parse), scenario, params, args.variant)
    strategy = synthesize(arena)
    _write(os.path.join(out, "arena_stats.txt"), arena_stats_text(arena, arena.region))
    if strategy is None:
        print(f"unrealizable for variant {args.variant!r} "
              f"(initial state lost, {arena.n_states} states explored)", file=sys.stderr)
        return EXIT_UNREALIZABLE
    _write(os.path.join(out, "strategy.txt"), serialize_strategy(strategy))
    print(f"synthesized strategy with {len(strategy.actions)} entries "
          f"({arena.n_states} arena states explored)")
    return EXIT_OK


def cmd_validate(args):
    if args.runs < 1:
        raise ValueError("--runs must be >= 1")
    scenario, params = _load_inputs(args)
    out = _ensure_out(args)
    hm = read_file(args.hm, parse)
    strategy = read_file(args.strategy, parse_strategy)
    # the file is trusted only once the game certifies it
    arena = build_arena(hm, scenario, params=params, variant=strategy.variant)
    certify(arena, strategy, solve(arena))
    traces_dir = os.path.join(out, "traces")
    os.makedirs(traces_dir, exist_ok=True)
    lines = []
    all_pass = True
    for r in range(args.runs):
        trace, verdict = episode(strategy, scenario, params, hm,
                                 derive_seed(args.seed, f"run{r}"))
        write_trace_csv(trace, os.path.join(traces_dir, f"run_{r:03d}.csv"))
        lines.append(f"run={r} status={verdict.status} "
                     f"witness={verdict.witness} misses={trace.lookup_misses}")
        all_pass = all_pass and episode_passed(trace, verdict)
    _write(os.path.join(out, "verdicts.txt"), "\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if all_pass else EXIT_VALIDATION


def cmd_refine(args):
    scenario, params = _load_inputs(args)
    cfg = RefineLoopConfig(
        params=params,
        variant=args.variant,
        seed=args.seed,
        runs=args.runs,
        max_iterations=args.max_iter,
        expand_on_unrealizable=args.expand_variants,
    )
    out = _ensure_out(args)
    report, _records = refine_loop(scenario, cfg)
    _write(os.path.join(out, "refinement_report.txt"), report.text())
    for record in report.iterations:
        it_dir = os.path.join(out, f"iteration_{record.index:02d}")
        os.makedirs(it_dir, exist_ok=True)
        _write(os.path.join(it_dir, "hm.mealy"), serialize(record.hm))
        if record.strategy is not None:
            _write(os.path.join(it_dir, "strategy.txt"),
                   serialize_strategy(record.strategy))
        for r, (trace, _verdict) in enumerate(record.traces):
            write_trace_csv(trace, os.path.join(it_dir, f"trace_{r:03d}.csv"))
    print(report.text(), end="")
    if report.termination_reason == "all-pass":
        return EXIT_OK
    if report.termination_reason == "unrealizable":
        return EXIT_UNREALIZABLE
    return EXIT_VALIDATION


def _format_row(row):
    return (f"{row.t:6.1f} {row.lead_pos:9.2f} {row.follow_pos:11.2f} "
            f"{_fmt_metric(row.thw):>6} {row.mode:<14} {row.driver_acc:10} "
            f"{row.applied_acc:10} {row.action}")


def _fmt_metric(value):
    return "inf" if value == float("inf") else f"{value:.1f}"


def cmd_demo(args):
    scenario, params = _load_inputs(args)
    grid_lattice_checks(scenario, params)  # before the learn, which takes the time
    hm, stats = _learn(args, params)
    if not stats.converged:
        return EXIT_USAGE
    print(f"[1/3] learned driver abstraction: {stats.states} states, "
          f"{stats.transitions} transitions")
    arena = build_arena(hm, scenario, params, args.variant)
    strategy = synthesize(arena)
    if strategy is None:
        print(f"[2/3] unrealizable for variant {args.variant!r}")
        return EXIT_UNREALIZABLE
    print(f"[2/3] synthesized strategy: {len(strategy.actions)} entries, "
          f"{arena.n_states} arena states explored")
    trace, verdict = episode(strategy, scenario, params, hm, derive_seed(args.seed, "demo"))
    print("[3/3] supervised trace:")
    print(" ".join(TABLE_HEADER))
    for row in trace.rows:
        print(_format_row(row))
    print(f"verdict: {verdict.status}")
    return EXIT_OK if episode_passed(trace, verdict) else EXIT_VALIDATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sharedctrl",
        description="Learn a driver abstraction, synthesize and validate a "
                    "shared-control strategy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags that several subcommands read, each with its argparse settings
    shared = {
        "scenario": [("--scenario", dict(
            default="default", help="builtin name (default, braking) or scenario file path"))],
        "params": [("--driver-params", dict(
            default=None, help="optional driver parameter file"))],
        "out": [("--out", dict(required=True, help="output directory"))],
        "seed": [("--seed", dict(type=int, default=RefineLoopConfig.seed))],
        "variant": [("--variant", dict(default=RefineLoopConfig.variant,
                                       choices=sorted(VARIANT_ACTIONS)))],
        "runs": [("--runs", dict(type=int, default=RefineLoopConfig.runs))],
    }

    def command(name, func, help, *groups):
        p = sub.add_parser(name, help=help)
        for group in groups:
            for flag, settings in shared[group]:
                p.add_argument(flag, **settings)
        p.set_defaults(func=func)
        return p

    command("learn", cmd_learn, "learn the driver abstraction",
            "params", "out", "seed")

    p = command("synth", cmd_synth, "build the game and extract a strategy",
                "scenario", "params", "out", "variant")
    p.add_argument("--hm", required=True, help="learned abstraction file")

    # the game is built for the variant in the strategy file
    p = command("validate", cmd_validate, "co-simulate a strategy against the driver",
                "scenario", "params", "out", "seed", "runs")
    p.add_argument("--hm", required=True)
    p.add_argument("--strategy", required=True)

    p = command("refine", cmd_refine, "run the full learn/synthesize/validate loop",
                "scenario", "params", "out", "seed", "variant", "runs")
    p.add_argument("--max-iter", type=int, default=RefineLoopConfig.max_iterations)
    p.add_argument("--expand-variants", action="store_true",
                   help="grow the controllable action set when unrealizable")

    command("demo", cmd_demo, "narrated single pass over the pipeline",
            "scenario", "params", "seed", "variant")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArenaCapExceeded as exc:
        print(f"arena build failed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StrategyRejected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
