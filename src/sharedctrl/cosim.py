"""The pipeline's stages, one function each, and the refinement loop.

`learning_session` builds the L* learner of the driver; `synthesize` solves
a built arena, and extracts and certifies a strategy when the initial state
wins; `episode` runs one seeded co-simulation and judges it.  The CLI
commands and `refine_loop` reach each stage through these alone.
`refine_loop` builds its arenas with the driver check on, so that synthesis
on an abstraction that is wrong stops at the first word of perceptions on
which it predicts another output than the real driver gives.

A strategy is executed with the stateful cognitive driver in the loop (not
the learned abstraction), while a mirror of the abstraction tracks which
game state the play corresponds to.  Objective monitoring classifies each
trace, and `episode_passed` judges an episode for the CLI and the loop: its
verdict passes and it took no strategy-lookup miss.  Each iteration of the
refinement loop hands its words to L* through one `refine` call: the word
of the driver check's disagreement, or else the words of the episodes that
did not pass.
"""

from __future__ import annotations

import csv
import hashlib
import random
from dataclasses import dataclass, field, replace

from .driver import CognitiveDriver, DriverParams, FULL_CHAIN
from .game import (
    AbstractDriver,
    DriverDisagrees,
    POS_SCALE,
    TURN_CTRL,
    VARIANT_ACTIONS,
    VEL_SCALE,
    build_arena,
    certify,
    extract_strategy,
    minimal_intervention,
    realizable,
    solve,
)
from .lstar import EqOracleConfig, LearningSession, NotDistinguishing, RandomWalkOracle
from .mealy import minimize, serialize
from .supervisor import (
    ACTION_HINT, ACTION_MODE, ACTION_NONE, ACTION_OVERRIDE, arbitrate, safe_now,
)
from .world import VehicleState, WorldState, advance, headway_metrics, judge, quantize_thw

TRACE_COLUMNS = (
    "t", "lead_pos", "follow_pos", "lead_vel", "follow_vel", "thw", "ttc",
    "control_mode", "driver_acc", "follow_acc", "controller_action",
    "perceived_level", "rule_chain",
)

STATUS_PASS = "safe-and-reached"
STATUS_SAFETY = "safety-violation"
STATUS_GOAL = "goal-not-reached"
STATUS_MIN_INTERVENTION = "min-intervention-violation"
STATUS_RESPONSE = "response-violation"


def derive_seed(seed, tag):
    """Stable fan-out of one master seed into per-purpose seeds."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(slots=True)
class TraceRow:
    """One co-simulation epoch; slotted like the world states, since every
    epoch builds one, and never mutated once `execute` has built it."""

    t: float
    lead_pos: float
    lead_vel: float
    follow_pos: float
    follow_vel: float
    thw: float
    ttc: float
    mode: str
    driver_acc: float
    applied_acc: float
    action: str
    perceived_level: int
    rule_chain: tuple
    certified: bool = False  # action came from a game-certified Strategy entry


@dataclass
class SimTrace:
    rows: list
    final_world: object
    lookup_misses: int = 0

    def stimulus_word(self):
        return tuple(row.perceived_level for row in self.rows)


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: object = None

    @property
    def passed(self):
        return self.status == STATUS_PASS


def write_trace_csv(trace, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in trace.rows:
            writer.writerow([
                row.t, row.lead_pos, row.follow_pos, row.lead_vel,
                row.follow_vel, row.thw, row.ttc, row.mode, row.driver_acc,
                row.applied_acc, row.action, row.perceived_level,
                "|".join(row.rule_chain),
            ])


def epoch_context(scenario, params, k, fpos, fvel):
    """What the follower state `(k, fpos, fvel)` of an episode determines.

    The empty tuple when `world.judge` finds that it has overtaken or
    reached, else `(t, lead_pos, lead_vel, thw, ttc, perceivable, pos, vel)`:
    the row time, the lead from `scenario.lead_track`, the headway metrics,
    the levels the sensor may report, and the lattice position and velocity
    of the strategy key.  Of `params`, only the boundaries `thw_levels` count.
    """
    _t, lpos, lvel, _lacc = scenario.lead_track[k]
    if any(judge(fpos, lpos, scenario.dest)):
        return ()
    thw, ttc = headway_metrics(lpos, lvel, fpos, fvel)
    perceivable = scenario.perceptions(params.num_levels)[quantize_thw(thw, params.thw_levels)]
    return (k * scenario.epoch, lpos, lvel, thw, ttc, perceivable,
            round(fpos * POS_SCALE), round(fvel * VEL_SCALE))


def execute(strategy, sul, scenario, cfg, seed, hm, params):
    """Run one seeded episode of `sul`, the driver of `params`; returns the trace.

    Per epoch: sample the perceived headway level, query the full driver,
    resolve the matching game state through the abstraction mirror, look up
    the strategy action, arbitrate, and advance the follower.  A lookup miss
    means the driver left the learned abstraction; the fail-safe fallback
    forces Intervention at maximal braking and is counted on the trace.
    Rows whose action the strategy supplied carry its `certified` flag;
    fallback rows are never certified.

    What depends only on the follower's state `(k, fpos, fvel)` is its
    `epoch_context`, cached in `scenario.epoch_contexts` under the boundaries
    and the exact floats the episode holds, so every later episode that
    reaches the state reuses it.  The cache holds no machine, strategy or
    driver: the perception draw, the driver query, the mirror step and the
    lookup run every epoch.  The follower is advanced in local variables
    with `advance`, so an epoch builds only its `TraceRow`, and the final
    world is built once.  Every float is what iterating `step_world` gives.
    """
    mirror = AbstractDriver.shared(hm, params)
    contexts = scenario.epoch_contexts.setdefault(params.thw_levels, {})
    context_of = contexts.get
    choice = random.Random(seed).choice
    query, apply_hint, step = sul.query, sul.apply_hint, mirror.step
    action_for, certified_entry = strategy.action_for, strategy.certified
    eps, v_max = scenario.epoch, scenario.v_max
    sul.reset()
    fpos, fvel, facc = scenario.follow_pos, scenario.follow_vel, 0.0
    q = hm.initial
    hinted = 0
    rows = []
    append = rows.append
    misses = 0
    for k in range(scenario.horizon_epochs):
        context = context_of((k, fpos, fvel))
        if context is None:
            context = contexts[k, fpos, fvel] = epoch_context(scenario, params, k, fpos, fvel)
        if not context:
            break
        t, lpos, lvel, thw, ttc, perceivable, key_pos, key_vel = context
        perceived = choice(perceivable)
        chain, dacc = query(perceived)
        q, _dacc_pred, _full = step(q, hinted, perceived)
        action = action_for((TURN_CTRL, k, key_pos, key_vel, q, dacc))
        if action is None:
            misses += 1
            action = ACTION_OVERRIDE
            applied = cfg.acc_floor
            certified = False
        else:
            applied = arbitrate(action, dacc, cfg)
            certified = certified_entry
        if action == ACTION_HINT:
            apply_hint()
            hinted = 1
        else:
            hinted = 0
        # in field order: a keyword call costs about twice as much
        append(TraceRow(t, lpos, lvel, fpos, fvel, thw, ttc, ACTION_MODE[action],
                        dacc, applied, action, perceived, chain, certified))
        fpos, fvel = advance(fpos, fvel, applied, eps, v_max)
        facc = applied
    t, lpos, lvel, lacc = scenario.lead_track[len(rows)]
    final = WorldState(VehicleState(lpos, lvel, lacc), VehicleState(fpos, fvel, facc), t)
    return SimTrace(rows, final, misses)


def monitor(trace, dest, thresholds):
    """Classify a trace; the first violated objective (in priority order) wins.

    Safety and reach are `world.judge`'s atoms.  Min-intervention is
    `minimal_intervention` applied to each Intervention row.  A certified
    override was chosen by the game under that predicate, so no less severe
    action wins there.  For any other override (fail-safe fallback, stub
    strategies, hand-built rows) the monitor takes a deep-safe state
    (SafeNow) to leave the driver's own action winning.
    """
    for idx, row in enumerate(trace.rows):
        if judge(row.follow_pos, row.lead_pos, dest)[0]:
            return Verdict(STATUS_SAFETY, idx)
    final = trace.final_world
    overtaken, reached = judge(final.follow.pos, final.lead.pos, dest)
    if overtaken:
        return Verdict(STATUS_SAFETY, len(trace.rows))
    if not reached:
        return Verdict(STATUS_GOAL, max(len(trace.rows) - 1, 0))
    for idx, row in enumerate(trace.rows):
        if row.mode != ACTION_MODE[ACTION_OVERRIDE]:
            continue
        deep_safe = not row.certified and safe_now(row.thw, row.ttc, thresholds)
        winning = (ACTION_NONE,) if deep_safe else (ACTION_OVERRIDE,)
        if not minimal_intervention(ACTION_OVERRIDE, winning):
            return Verdict(STATUS_MIN_INTERVENTION, idx)
    for idx, row in enumerate(trace.rows):
        if row.action == ACTION_HINT and idx + 1 < len(trace.rows):
            if trace.rows[idx + 1].rule_chain != FULL_CHAIN:
                return Verdict(STATUS_RESPONSE, idx + 1)
    return Verdict(STATUS_PASS, None)


def episode_passed(trace, verdict):
    """Whether an episode passed: its verdict passes and the strategy never
    missed, since a fail-safe fallback means it lost track of the driver."""
    return verdict.passed and not trace.lookup_misses


def learning_session(params, oracle, seed, state_cap=None):
    """The L* session on a fresh driver of `params`.  Its random-walk oracle
    walks as `oracle` says and draws from the one seed derived for it from
    `seed`: the only source of the learner's randomness."""
    sul = CognitiveDriver(params)
    oracle = RandomWalkOracle(sul, replace(oracle, rng_seed=derive_seed(seed, "oracle")))
    return LearningSession(sul, params.levels(), oracle, state_cap=state_cap)


def synthesize(arena):
    """Solve a built arena; the certified strategy, which carries its template
    report as `strategy.report`, or None when the initial state is lost.
    Raises `StrategyRejected` if `certify` refuses the extracted strategy."""
    region = solve(arena)
    if not realizable(arena, region):
        return None
    strategy = extract_strategy(arena, region)
    certify(arena, strategy, region)
    return strategy


def episode(strategy, scenario, params, hm, seed):
    """One seeded episode of `strategy` on a fresh driver of `params`, and
    its verdict: `(trace, verdict)`."""
    cfg = scenario.supervisor_config()
    trace = execute(strategy, CognitiveDriver(params), scenario, cfg, seed, hm, params)
    return trace, monitor(trace, scenario.dest, cfg.thresholds)


def refine(session, words):
    """Inject counterexample words into the learner and relearn: the one
    place where `refine_loop` hands words to L*.

    Each word is first checked to actually distinguish driver and current
    abstraction; empty, repeated and non-distinguishing words are skipped
    (a violation no word explains stems from the arena or scenario, not from
    abstraction fidelity).  Every distinguishing word is processed against
    the abstraction from before the batch, so its splitting suffix may be
    in E already.  Returns `(machine, injected, redundant, skipped)`: the
    distinguishing words that added a suffix to E, those that added none,
    and the skipped ones.  The session relearns only if a word distinguished.
    """
    injected = redundant = skipped = 0
    seen = set()
    for word in words:
        if not word or word in seen:
            skipped += 1
            continue
        seen.add(word)
        try:
            if session.inject_counterexample(word):
                injected += 1
            else:
                redundant += 1
        except NotDistinguishing:
            skipped += 1
    machine = session.run()[0] if injected or redundant else session.machine
    return machine, injected, redundant, skipped


@dataclass
class RefineLoopConfig:
    """`refine_loop`'s settings and the CLI's defaults for them.  Of
    `oracle` only the walk settings count: `learning_session` draws from
    `seed`, so `oracle.rng_seed` is never read."""

    oracle: EqOracleConfig = field(default_factory=EqOracleConfig)
    params: DriverParams = field(default_factory=DriverParams)
    variant: str = "full"
    seed: int = 0
    runs: int = 25
    max_iterations: int = 10
    initial_state_cap: int = None
    expand_on_unrealizable: bool = False

    def __post_init__(self):
        if self.runs < 1 or self.max_iterations < 1:
            raise ValueError("runs and max_iterations must be >= 1")


@dataclass
class IterationRecord:
    """One iteration of `refine_loop`: the abstraction `hm` it started from
    and what it made: a `disagreement` with the driver, or else a strategy
    (None when unrealizable) and its episodes; then what `refine` did."""

    index: int
    hm: object
    variant: str
    disagreement: tuple = None  # (word, arena states explored) where synthesis stopped
    strategy: object = None
    traces: list = field(default_factory=list)  # (trace, verdict) per episode
    injected: int = 0    # distinguishing words that added a suffix to E
    redundant: int = 0   # distinguishing words whose suffix E already held
    skipped: int = 0     # empty, repeated or non-distinguishing words

    @property
    def hm_states(self):
        return len(self.hm.states)

    @property
    def realizable(self):
        """None when synthesis stopped at a disagreement."""
        return None if self.disagreement is not None else self.strategy is not None

    @property
    def verdicts(self):
        return [verdict for _trace, verdict in self.traces]

    @property
    def lookup_misses(self):
        return sum(trace.lookup_misses for trace, _verdict in self.traces)

    def line(self):
        if self.disagreement is not None:
            word, explored = self.disagreement
            found = (f"disagrees_with_driver_on={','.join(map(str, word))} "
                     f"after_states={explored}")
        else:
            counts = {}
            for v in self.verdicts:
                counts[v.status] = counts.get(v.status, 0) + 1
            verdict_text = ",".join(f"{k}:{v}" for k, v in sorted(counts.items())) or "-"
            found = (f"realizable={'true' if self.realizable else 'false'} "
                     f"verdicts={verdict_text} misses={self.lookup_misses}")
        return (f"iteration={self.index} hm_states={self.hm_states} "
                f"variant={self.variant} {found} "
                f"injected={self.injected} redundant={self.redundant} "
                f"skipped={self.skipped}")


@dataclass
class RefinementReport:
    iterations: list
    termination_reason: str

    def text(self):
        lines = ["refinement report", f"termination={self.termination_reason}"]
        lines.extend(record.line() for record in self.iterations)
        return "\n".join(lines) + "\n"


def refine_loop(scenario, cfg):
    """Learn, synthesize, validate, refine until the objectives hold.

    Synthesis checks the abstraction against the real driver as it explores
    (`build_arena`'s `check_driver`): at the first perception on a hint-free
    path whose output (rule chain and acceleration) the driver does not give
    on that path's word, the iteration stops with that word and no strategy.
    Otherwise the strategy runs `cfg.runs` seeded episodes, and the words of
    those that fail `episode_passed` are the counterexamples.  Either way,
    one `refine` call hands the iteration's words to L*.  A state is checked
    on the first path that reaches it only, so a disagreement is found early
    but its absence proves no conformance: the seeded episodes stay the
    acceptance test.

    Stops on all-pass (every episode passed), on the iteration cap, on
    abstraction stability (what was injected leaves the minimized machine as
    it was), or on an unrealizable arena (unless variant expansion is
    enabled and a larger controllable action set is available).  Raises
    `StrategyRejected` if the template check refuses an extracted strategy.
    The learner is `learning_session`'s, seeded from `cfg.seed`.  Returns
    `(report, report.iterations)`: each `IterationRecord` holds the
    iteration's machine, strategy and traces, and the pair keeps the shape
    that `bench/run.py` unpacks.
    """
    params = cfg.params
    session = learning_session(params, cfg.oracle, cfg.seed, cfg.initial_state_cap)
    hm, _stats = session.run()
    variant = cfg.variant
    records = []
    reason = "max-iterations"
    it = 0
    while it < cfg.max_iterations:
        record = IterationRecord(it, hm, variant)
        records.append(record)
        try:
            arena = build_arena(hm, scenario, params=params, variant=variant, check_driver=True)
            strategy = record.strategy = synthesize(arena)
        except DriverDisagrees as err:
            record.disagreement = (err.word, err.explored)
            words = [err.word]
        else:
            if strategy is None:
                ladder = list(VARIANT_ACTIONS)
                pos = ladder.index(variant)
                if cfg.expand_on_unrealizable and pos + 1 < len(ladder):
                    variant = ladder[pos + 1]
                    it += 1
                    continue
                reason = "unrealizable"
                break
            record.traces = [episode(strategy, scenario, params, hm,
                                     derive_seed(cfg.seed, f"it{it}:run{r}"))
                             for r in range(cfg.runs)]
            words = [trace.stimulus_word() for trace, verdict in record.traces
                     if not episode_passed(trace, verdict)]
            if not words:
                reason = "all-pass"
                break
        new_hm, record.injected, record.redundant, record.skipped = refine(session, words)
        if serialize(minimize(new_hm)) == serialize(minimize(hm)):
            reason = "stable"
            break
        hm = new_hm
        it += 1
    return RefinementReport(records, reason), records
