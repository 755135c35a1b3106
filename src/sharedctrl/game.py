"""Finite two-player safety game over the learned driver abstraction.

The arena is the synchronous product of driver abstraction, lead and
follower kinematics, sensor perturbation, step scheduling, and the
three-mode control skeleton.  Each 0.5 s decision epoch unfolds as one
environment move (sensor level choice plus the deterministic driver
response) followed by one controller move (pick an action; physics then
advances deterministically).

The supervisor's controllable actions are defined here: `none`, `hint` and
`override`, in `ACTIONS`' severity order, least severe first.  Each design
variant of `VARIANT_ACTIONS` offers a subset of them, and `arbitrate` gives
the acceleration an action applies: an override clamps the driver's.

The arena is explored on demand, not enumerated.  A depth-first solver
walks forward from the initial state through the successor logic and
expands only the states that deciding it needs: a controller state stops at
its first winning action in severity order, an environment state at its
first losing perception.  An environment edge leads from epoch `k` to the
controller turn at `k`, a controller edge to the environment turn at
`k + 1`, so a built arena is a DAG of depth 2·horizon.  The solver needs
the arena to be acyclic and raises `ValueError` on a cycle.

The game plays in the metres and floats of co-simulation: it reads the
lead's `(pos, vel)` from `scenario.lead_track`, which the scenario steps
with `world.advance`, steps the follower with the same `advance` and judges
with `world.judge`, so a game state holds an episode's follower state
exactly.  The lattice (0.25 m, 0.5 m/s) is the precondition that keeps every
float exact, checked by `grid_lattice_checks`, and the integer encoding of
strategy files.  The objective is `monitor`'s strong until over
`world.judge`'s atoms: never overtake the lead, reach `dest` by the horizon.

State encoding.  Environment turn: `(k, fpos, fvel, row)`; controller
turn: `(k, fpos, fvel, q, driver_acc)` in metres and metres per second, `q`
an abstraction state, which is the strategy's key.  No state carries a turn
tag: `arena.turn` records who moves, and the two tuple lengths keep the two
kinds apart in `arena.index`.  The supervision mode and the perceived level
are deliberately not part of the state: both are functions of the incoming
edge (mode follows the chosen action one-to-one, the perceived level is
subsumed by the driver successor and its emitted acceleration), so folding
them out is a bisimulation quotient that leaves the winning region and all
checked properties unchanged while keeping the product tractable.  So is
`row`: an environment state reads the abstraction state and the hint flag
only through the mirror's row of the pair, so it holds the row's number,
and the pairs of equal rows, whose states have the same successors, share
one state.  Controller states, the strategy's keys, keep `q`.  Each state has
one outcome byte, `OPEN`, `GOAL`, `BAD` or `HORIZON`, which `build_arena`'s
`outcome(k, fp)` decides for the start and every successor.  An explored
state stores its successors as a tuple of state numbers and its edge labels
as one shared row: the variant's action tuple for a controller state, the
perception set of the perceived level for an environment state.  One kernel,
`build_arena`'s `explore`, computes a state's successors, looks each up in
the arena's index and numbers a new one with `GameArena.add`.  Asked to,
`build_arena` wraps it to check each controller state that a hint-free path
reaches before it is explored against the real driver, and raises
`DriverDisagrees` at the first output (rule chain and acceleration) the
driver does not give.

`AbstractDriver`, the abstraction's mirror shared with co-simulation, is
the one place that interprets its `(rule_chain, acc)` outputs and refuses
any other shape.  It is one table of distinct rows, built once, that an
episode steps as `explore` does: a row number and a perceived level give
`q`, and `q` and the action's hint flag give the next row number.  The
response to a hint is the driver's, checked by `monitor`.

A strategy's plays are walked in one place, `_walk`, which applies the three
template checks and asks a picker for the edge taken at each controller
state: `extract_strategy` picks the solver's actions and keeps the walk's
report, `check_templates` looks each action up in a given strategy, and
`certify` reuses the report of a strategy extracted from the same arena.
"""

from __future__ import annotations

import functools
import io
import math
import weakref
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .driver import FULL_CHAIN, decide_acceleration, explicit_machine
from .mealy import AlphabetMismatch
from .world import advance, headway_metrics, judge, quantize_thw, sensor_perturb

TURN_ENV = 0
TURN_CTRL = 1
OPEN, GOAL, BAD, HORIZON = range(4)  # a state's outcome: nonzero is terminal

POS_SCALE = 4   # lattice units per metre
VEL_SCALE = 2   # lattice units per (m/s)
ARENA_STATE_CAP = 2_000_000  # explored states at most, per arena

ACTION_NONE = "none"
ACTION_HINT = "hint"
ACTION_OVERRIDE = "override"
# the severity order, least severe first: the game lists a controller state's
# edges in this order, and an edge is more severe than every edge before it
ACTIONS = (ACTION_NONE, ACTION_HINT, ACTION_OVERRIDE)

# ordered by growing action set: each variant includes the actions of the one
# before, and each tuple keeps the severity order of `ACTIONS`
VARIANT_ACTIONS = {
    "advisory-only": (ACTION_HINT,),
    "no-override": (ACTION_NONE, ACTION_HINT),
    "full": (ACTION_NONE, ACTION_HINT, ACTION_OVERRIDE),
}


def arbitrate(action, driver_acc, cfg):
    """Applied acceleration under `action`: an override clamps the driver's
    acceleration into [acc_floor, acc_cap]; none and hint pass it through."""
    if action == ACTION_OVERRIDE:
        return min(max(driver_acc, cfg.acc_floor), cfg.acc_cap)
    return driver_acc


class ArenaCapExceeded(RuntimeError):
    """Explored product grew past `ARENA_STATE_CAP` states."""


class Unrealizable(RuntimeError):
    """Strategy extraction requested although the initial state is losing."""


class StrategyRejected(RuntimeError):
    """The template check refused a strategy for a solved arena."""


class DriverDisagrees(RuntimeError):
    """The abstraction predicts a driver output (rule chain and acceleration)
    that the real driver does not give on `word`, found after `explored`
    arena states."""

    def __init__(self, word, explored):
        super().__init__(f"abstraction disagrees with the driver on word {word!r} "
                         f"after {explored} states")
        self.word = word
        self.explored = explored


def _scaled(value, scale, what):
    """`value * scale`, which must be a whole number: a value a rounding
    error off the lattice is refused, not rounded onto it."""
    scaled = value * scale
    if not float(scaled).is_integer():
        raise ValueError(f"{what} {value!r} is not on the arena lattice")
    return int(scaled)


class AbstractDriver:
    """Driver dimension of the game: abstraction states plus a hint flag.

    The one place that interprets `hm`'s `(rule_chain, acc)` outputs: it
    raises `ValueError` naming an output that is no such pair with a
    real-number `acc`.  One table, built once and never changed: `rows`
    lists the distinct rows, each `{level: (successor, acc)}`, in the state
    order of `hm.delta`, plain before hinted; `row_number[state, hinted]` is
    the index of a state's row, the machine's own entries unless hinted, and
    is what an arena's environment state and an episode hold.  After a hint,
    a repeated stimulus (a chain other than `FULL_CHAIN`) re-deliberates
    instead of replaying the cached decision: the acceleration law runs at
    the level's representative headway, and the successor is resolved
    through the (level, acc) state annotations recovered from incoming
    edges.  It keeps no reference to the machine, so `shared` lets it die
    with it.
    """

    _shared = weakref.WeakKeyDictionary()  # machine -> {DriverParams: mirror}

    def __init__(self, hm, params):
        for out in hm.outputs:
            if not (type(out) is tuple and len(out) == 2 and type(out[1]) in (int, float)):
                raise ValueError(f"abstraction output {out!r} is not a (rule_chain, acc) "
                                 "pair with a real-number acc")
        self.accelerations = frozenset(acc for _chain, acc in hm.outputs)
        by_profile = {}
        annotated = set()
        for state in hm.reachable_states():
            for level in hm.inputs:
                succ, (_chain, acc) = hm.delta[state][level]
                if succ not in annotated:
                    annotated.add(succ)
                    by_profile.setdefault((level, acc), succ)
        numbers = {}  # a row's entries in level order -> its number
        self.row_number = {}  # (state, hinted) -> the number of its row
        for state, row in hm.delta.items():
            plain, hinted = [], []
            for level in hm.inputs:
                succ, (chain, acc) = row[level]
                plain.append((succ, acc))
                if chain != FULL_CHAIN:  # a repeated stimulus: re-deliberate
                    rep = params.representative(level)
                    acc = decide_acceleration(rep, rep, params.decision_epoch, params, acc)
                    succ = by_profile.get((level, acc), succ)
                hinted.append((succ, acc))
            for flag, entries in enumerate((plain, hinted)):
                self.row_number[state, flag] = numbers.setdefault(tuple(entries), len(numbers))
        self.rows = [dict(zip(hm.inputs, entries)) for entries in numbers]

    @classmethod
    def shared(cls, hm, params):
        """The one mirror of `hm` under `params`, for `build_arena` and every
        episode `execute` runs; a `MealyMachine` is immutable."""
        mirrors = cls._shared.setdefault(hm, {})
        return mirrors.get(params) or mirrors.setdefault(params, cls(hm, params))


class GameArena:
    """Bipartite arena: interleaved controller/environment turns.

    States are opaque values, numbered in the order they are first reached.
    `turn[i]` says who moves and `outcome[i]` how plays end at state `i`,
    one byte each: `OPEN` (0) while they go on, else terminal as `GOAL`
    (reached `dest`), `BAD` (overtaken, even past `dest`) or `HORIZON` (out
    of epochs short of both).  `edges[i]` is the tuple of its successors'
    numbers, or None while `i` is unexplored; `labels[i]` labels them
    position by position, with one row shared by all states of the same
    labels, never a copy per edge.  `successors(i)` explores `i` on first
    use: it calls `explore(arena, i)`, which returns `(labels, successors)`
    and numbers each successor not in `index` with `add`, the one method
    that appends a state's row and checks `ARENA_STATE_CAP`.  Environment
    edges are uncontrollable (sensor level choices); controller edges carry
    supervision actions, and their order is the severity order: an edge is
    more severe than every edge before it.  `n_states` and `n_edges`
    count what has been explored so far.  `region` is the arena's winning
    region, decided as it is asked; the solver keeps its decisions in `won`
    (per state: None while undecided, else whether the controller wins) and
    `iterations`.  `variant` names the controller's action set.
    """

    def __init__(self, explore, variant):
        self._explore = explore
        self.variant = variant
        self.states = []
        self.index = {}
        self.turn = bytearray()
        self.outcome = bytearray()
        self.labels = []
        self.edges = []
        self.initial = None
        self.won = []  # per state: None while undecided, else whether the controller wins
        self.iterations = 0  # states the solver expanded

    def add(self, state, turn, outcome):
        """Number `state`, not reached before, as the next state: the one
        place that grows the arena and checks `ARENA_STATE_CAP`."""
        j = len(self.states)
        if j >= ARENA_STATE_CAP:
            raise ArenaCapExceeded(f"arena exceeds {ARENA_STATE_CAP} states")
        self.index[state] = j
        self.states.append(state)
        self.turn.append(turn)
        self.outcome.append(outcome)
        self.labels.append(() if outcome else None)
        self.edges.append(() if outcome else None)
        self.won.append(None)
        return j

    def successors(self, i):
        """Successors of state `i`, exploring it on first use."""
        es = self.edges[i]
        if es is None:
            self.labels[i], es = self._explore(self, i)
            self.edges[i] = es
        return es

    @property
    def region(self):
        """The winning region, a view of `won`: no cycle keeps the arena alive."""
        return WinningRegion(self)

    @property
    def n_states(self):
        return len(self.states)

    @property
    def n_edges(self):
        return sum(len(e) for e in self.edges if e is not None)


def grid_lattice_checks(scenario, params, accelerations=()):
    """The one check of what an arena for `scenario` and the driver of
    `params` reads, in order: that the epoch, the velocity increment of each
    acceleration (`acc_set`, the lead's, the clamp's and `accelerations`, an
    abstraction's outputs), the lead track, `dest`, `v_max` and the
    follower's start are on the lattice, then that the epoch is the driver's."""
    eps = scenario.epoch
    if not float(eps * POS_SCALE / VEL_SCALE).is_integer():
        raise ValueError(f"epoch {eps} incompatible with the position lattice")
    accs = set(params.acc_set) | {a for _, a in scenario.profile.segments}
    accs |= {scenario.acc_floor, scenario.acc_cap, *accelerations}
    for a in sorted(accs):
        _scaled(a * eps, VEL_SCALE, "velocity increment for acc")
    for pos, vel in scenario.lead_track:
        _scaled(pos, POS_SCALE, "lead position")
        _scaled(vel, VEL_SCALE, "lead velocity")
    _scaled(scenario.dest, POS_SCALE, "dest")
    _scaled(scenario.v_max, VEL_SCALE, "v_max")
    _scaled(scenario.follow_pos, POS_SCALE, "follow_pos")
    _scaled(scenario.follow_vel, VEL_SCALE, "follow_vel")
    if eps != params.decision_epoch:
        raise ValueError(f"scenario epoch {eps} differs from the driver's "
                         f"decision_epoch {params.decision_epoch}")


def build_arena(hm, scenario, params, variant, *, check_driver=False):
    """The product arena for one scenario and variant, explored until its
    initial state is decided; `ARENA_STATE_CAP` bounds all exploration.

    With `check_driver`, the states that the solver or a later walk explores
    on hint-free paths are also checked against the real driver of `params`
    (see `_driver_checked`), and the first disagreement raises
    `DriverDisagrees`.
    """
    cfg = scenario.supervisor_config()
    if tuple(hm.inputs) != params.levels():
        raise AlphabetMismatch(
            f"abstraction alphabet {hm.inputs!r} does not match "
            f"the {params.num_levels} quantization levels")
    if variant not in VARIANT_ACTIONS:
        raise ValueError(f"unknown variant {variant!r}")
    driver = AbstractDriver.shared(hm, params)
    grid_lattice_checks(scenario, params, driver.accelerations)
    row_number, rows = driver.row_number, driver.rows

    actions = VARIANT_ACTIONS[variant]
    eps, v_max, dest = scenario.epoch, scenario.v_max, scenario.dest
    horizon = scenario.horizon_epochs
    lead = scenario.lead_track
    perceived = {level: sensor_perturb(level, scenario.sensor_offset, params.num_levels)
                 for level in params.levels()}  # one shared label row per level
    moves_of = {}  # (fv, driver acc) -> [(fv after the step, hinted)] per action

    def outcome(k, fp):  # how plays end with the follower at `fp` in epoch `k`
        bad, goal = judge(fp, lead[k][0], dest)
        return BAD if bad else GOAL if goal else HORIZON if k == horizon else OPEN

    def explore(arena, i):
        # `add` is reached through `arena`: the closure holds no arena
        s = arena.states[i]
        index = arena.index
        succs = []
        if arena.turn[i] == TURN_ENV:
            k, fp, fv, r = s
            lp, lv = lead[k]
            thw, _ttc = headway_metrics(lp, lv, fp, fv)
            labels = perceived[quantize_thw(thw, params.thw_levels)]
            row = rows[r]
            for p in labels:
                q2, dacc = row[p]
                t = (k, fp, fv, q2, dacc)
                j = index.get(t)
                succs.append(arena.add(t, TURN_CTRL, OPEN) if j is None else j)
            return labels, tuple(succs)
        k, fp, fv, q2, dacc = s
        moves = moves_of.get((fv, dacc))
        if moves is None:  # the velocity after `advance` does not depend on the position
            moves = moves_of[fv, dacc] = [
                (advance(fp, fv, arbitrate(action, dacc, cfg), eps, v_max)[1],
                 1 if action == ACTION_HINT else 0)
                for action in actions]
        k += 1
        # `advance` moves the follower by its old velocity, alike under every action
        fp = advance(fp, fv, dacc, eps, v_max)[0]
        out = outcome(k, fp)  # shared by every successor
        for fv2, h in moves:
            t = (k, fp, fv2, row_number[q2, h])
            j = index.get(t)
            succs.append(arena.add(t, TURN_ENV, out) if j is None else j)
        return actions, tuple(succs)

    if check_driver:
        explore = _driver_checked(explore, hm, params)
    arena = GameArena(explore, variant)
    s0 = (0, scenario.follow_pos, scenario.follow_vel, row_number[hm.initial, 0])
    arena.initial = arena.add(s0, TURN_ENV, outcome(0, scenario.follow_pos))
    realizable(arena, arena.region)  # explore until the initial state is decided
    return arena


def _driver_checked(explore, hm, params):
    """`explore` of `build_arena` for abstraction `hm`, also replaying
    hint-free paths on the real driver.

    The driver's states under plain stimuli are those of `explicit_machine`.
    Each non-terminal state reached on a hint-free path from the initial
    state, state 0, waits in `pending` with the entry `(driver state, q,
    word)` of the first such path to reach it before it is explored: the
    driver's state and the abstraction state after the path, and the path's
    perceptions, first one first.  The entry carries `q` because an
    environment state holds only the mirror's row, which states of equal
    rows share.  When the state is explored, its entry is handed on to every
    hint-free successor neither explored nor pending.  At an environment
    state, the word grows by the perception on the edge to each of them, and
    `hm.delta[q]`'s output for that perception must equal the driver's
    whole, rule chain included: the check interprets neither part, the
    mirror is the one place that does.  A hint edge hands on nothing, since
    the alphabet has no hint symbol to replay it with.  A state explored
    before a path reaches it is not checked again, so no disagreement is no
    proof that the abstraction conforms.
    """
    truth = explicit_machine(params)
    pending = {0: (truth.initial, hm.initial, ())}

    def checked(arena, i):
        labels, succs = explore(arena, i)
        entry = pending.pop(i, None)
        if entry is None:
            return labels, succs
        edges = arena.edges
        if arena.turn[i] == TURN_ENV:
            d, q, word = entry
            predicted, actual = hm.delta[q], truth.delta[d]
            for p, j in zip(labels, succs):
                if edges[j] is None and j not in pending:
                    d2, out = actual[p]
                    q2, predicted_out = predicted[p]
                    if predicted_out != out:
                        raise DriverDisagrees(word + (p,), len(arena.states))
                    pending[j] = (d2, q2, word + (p,))
        else:
            for action, j in zip(labels, succs):
                if action != ACTION_HINT and edges[j] is None and j not in pending:
                    pending[j] = entry
        return labels, succs

    return checked


class WinningRegion:
    """The states from which the controller wins the strong-until
    objective, decided one state at a time as they are asked about.

    `i in region` runs the solver from `i` unless `i` is already decided;
    the arena must be acyclic.  A terminal state wins exactly when its
    outcome is `GOAL`: a play that overtakes, even past the destination, or
    stops at the horizon short of it loses, as `monitor` judges it.
    `len(region)` counts the states decided winning so far.
    `iterations` counts the states the solver expanded.  Both are kept by
    the arena, the decisions in its per-state `won` list; a region is a
    view.
    """

    def __init__(self, arena):
        self.arena = arena
        self.won = arena.won

    @property
    def iterations(self):
        return self.arena.iterations

    def __contains__(self, i):
        won = self.won[i]
        return self._decide(i) if won is None else won

    def __len__(self):
        return self.won.count(True)

    def _decide(self, root):
        """Depth-first walk of the acyclic arena from `root` with an
        explicit stack.

        A controller state tries its edges in order (severity order) and
        stops at the first winning one; an environment state stops at the
        first losing one, and a state is explored by the arena's `explore`
        on first visit.  Each state's result is recorded as soon as its
        frame finishes.  The stack is a path of distinct states unless the
        arena has a cycle, so a stack holding as many frames as the arena
        has explored states raises `ValueError`.
        """
        arena, won = self.arena, self.won
        states, turn, outcome = arena.states, arena.turn, arena.outcome
        labels, edges, explore = arena.labels, arena.edges, arena._explore
        if outcome[root]:
            won[root] = outcome[root] == GOAL
            return won[root]
        stack = [[root, arena.successors(root), 0]]  # frame: [state, successors, next one]
        arena.iterations += 1
        result = None  # whether the frame that just finished wins
        while True:
            frame = stack[-1]
            i, succs, pos = frame
            ctrl = turn[i] == TURN_CTRL
            decided = result == ctrl
            while not decided and pos < len(succs):
                j = succs[pos]
                pos += 1
                r = won[j]
                if r is None:
                    if not outcome[j]:
                        break
                    r = won[j] = outcome[j] == GOAL
                decided = r == ctrl
            else:
                # decided: i wins iff it is the controller's; otherwise no
                # winning action / no losing perception
                result = won[i] = ctrl if decided else not ctrl
                stack.pop()
                if not stack:
                    return result
                continue
            if len(stack) >= len(states):
                raise ValueError(f"arena has a cycle through state {states[j]!r}")
            frame[2] = pos
            if edges[j] is None:
                labels[j], edges[j] = explore(arena, j)
            stack.append([j, edges[j], 0])
            arena.iterations += 1
            result = None


def solve(arena):
    """The winning region of `arena`, with its initial state decided; other
    states are decided when asked."""
    realizable(arena, arena.region)
    return arena.region


def realizable(arena, region):
    return arena.initial in region


@dataclass
class Strategy:
    """Memoryless controller: winning controller-turn state -> action.

    Keys are the game's controller states `(k, fpos, fvel, q, dacc)`, the
    five fields of a strategy-file line with position and velocity in
    metres and metres per second, so `cosim.execute` looks up the floats
    its episode holds.
    `extract_strategy` labels the controller states the strategy's own plays
    reach, so files hold those states only; files that label every winning
    state, as older versions wrote them, parse and validate as well.  Its
    entries are certified: each is the first winning edge of its state, so
    `monitor` trusts their overrides instead of applying its deep-safe
    check.  `parse_strategy` trusts the file it reads; `sharedctrl validate`
    certifies it against the game before running it.

    An extracted strategy keeps the `report` of the walk that picked it and
    a weak reference to its arena, for `certify`; its `actions` are a
    read-only view, so the report cannot go stale.
    """

    actions: Mapping
    variant: str
    certified = True
    report = None  # TemplateReport of the walk that extracted it
    _arena = None  # weak reference to the arena it was extracted from

    def action_for(self, state):
        return self.actions.get(state)


@dataclass
class TemplateReport:
    """Result of the winning-condition template checks over strategy plays."""

    visited: int = 0
    safety_ok: bool = True
    safety_witness: object = None
    goal_terminals: int = 0
    horizon_terminals: int = 0
    min_intervention_ok: bool = True
    min_intervention_witness: object = None

    @property
    def reach_ok(self):  # a view of the counts, so a partial report cannot contradict them
        return self.horizon_terminals == 0 and self.goal_terminals > 0

    def text(self):
        lines = [
            f"states_visited={self.visited}",
            f"safety={'pass' if self.safety_ok else 'FAIL'}",
            f"reachability={'pass' if self.reach_ok else 'FAIL'} "
            f"(goal_terminals={self.goal_terminals}, horizon_terminals={self.horizon_terminals})",
            f"min_intervention={'pass' if self.min_intervention_ok else 'FAIL'}",
        ]
        if self.safety_witness is not None:
            lines.append(f"safety_witness={self.safety_witness!r}")
        if self.min_intervention_witness is not None:
            lines.append(f"min_intervention_witness={self.min_intervention_witness!r}")
        return "\n".join(lines) + "\n"


def _walk(arena, region, pick):
    """The one walk of a strategy's plays: breadth-first over every state
    they reach from the initial state, applying the three template checks.

    (i) no bad state is reached; (ii) every maximal play ends in a goal
    state, as `monitor` demands, not at the horizon short of it (counted
    apart); (iii) at every controller decision, no earlier edge, that is no
    less severe action, leads into `region`: the one definition of
    min-intervention, the minimal-interference condition of safety shields,
    so an override is allowed exactly where neither `none` nor `hint` still
    wins.  The response to a hint is the driver's: the mirror's hinted rows
    model it and `monitor` checks it.  At each controller state,
    `pick(state, labels, successors)` gives the position of the edge the
    strategy takes, or raises `StrategyRejected` with the reason, which the
    walk completes with the checks up to there.  Returns the
    `TemplateReport`.

    The walk holds its queue and one byte per arena state, `seen[j]`, set
    once state `j` is queued.  Exploring a state, or asking the region about
    one, can number new states; `seen` grows to cover them only when a
    successor lies past its end.
    """
    report = TemplateReport()
    states, turn, outcome = arena.states, arena.turn, arena.outcome
    seen = bytearray(len(states))
    seen[arena.initial] = 1
    queue = deque([arena.initial])
    while queue:
        i = queue.popleft()
        s = states[i]
        if outcome[i] == BAD:
            if report.safety_ok:
                report.safety_ok = False
                report.safety_witness = s
            continue
        if outcome[i]:
            if outcome[i] == GOAL:
                report.goal_terminals += 1
            else:
                report.horizon_terminals += 1
            continue
        targets = arena.successors(i)
        if turn[i] == TURN_ENV:
            for j in targets:
                try:
                    if seen[j]:
                        continue
                except IndexError:  # numbered since `seen` last grew
                    seen.extend(bytes(len(states) - len(seen)))
                seen[j] = 1
                queue.append(j)
        else:
            try:
                pos = pick(s, arena.labels[i], targets)
            except StrategyRejected as err:
                report.visited = seen.count(1) - len(queue)  # the states taken off the queue
                raise StrategyRejected(f"template check rejected the strategy: {err}; "
                                       "checks up to there:\n" + report.text()) from None
            j = targets[pos]
            if report.min_intervention_ok and any(t in region for t in targets[:pos]):
                report.min_intervention_ok = False
                report.min_intervention_witness = s
            try:
                if seen[j]:
                    continue
            except IndexError:  # numbered since `seen` last grew
                seen.extend(bytes(len(states) - len(seen)))
            seen[j] = 1
            queue.append(j)
    report.visited = seen.count(1)
    return report


def extract_strategy(arena, region):
    """Pick one winning action per controller state the strategy's own plays
    reach from the initial state, template-checking those plays on the way.

    The pick is the label of the first successor, in edge order, that the
    solver decided winning in the arena's `won` list; the region is asked
    only about successors still undecided.  Every earlier edge loses, so the
    pick is the least severe winning action and passes check (iii) of
    `_walk` by construction.  The picks drive `_walk`, the walk
    `check_templates` makes, so the returned strategy carries its
    `TemplateReport` and `certify` reuses it.
    """
    if not realizable(arena, region):
        raise Unrealizable("initial state is not in the winning region")
    won = region.won
    mapping = {}

    def pick(s, labels, targets):
        for pos, j in enumerate(targets):
            r = won[j]
            if r or (r is None and j in region):
                mapping[s] = labels[pos]
                return pos
        raise RuntimeError(f"winning controller state {s!r} has no winning action")

    report = _walk(arena, region, pick)
    strategy = Strategy(MappingProxyType(mapping), arena.variant)
    strategy.report = report
    strategy._arena = weakref.ref(arena)
    return strategy


def check_templates(arena, strategy, region):
    """Walk all plays of `strategy` with `_walk`, the one walk of a
    strategy's plays, and return its `TemplateReport`.

    Min-intervention is judged against `region`, the arena's `solve`.
    Raises `StrategyRejected` if the strategy is undefined on a reachable
    controller state or picks an action that labels none of its edges.
    """
    action_for = strategy.action_for

    def pick(s, labels, _targets):
        action = action_for(s)
        if action is None:
            raise StrategyRejected(f"undefined on reachable state {s!r}")
        if action not in labels:
            raise StrategyRejected(f"action {action!r} labels no edge of reachable state {s!r}")
        return labels.index(action)

    return _walk(arena, region, pick)


def certify(arena, strategy, region):
    """Template-check a strategy; raise `StrategyRejected` unless every
    template it reports holds: safety, reachability and min-intervention.

    The report of a strategy that `extract_strategy` made from this very
    arena is the one its walk built, so it is reused; any other strategy (a
    parsed file, a copy, the same strategy against another arena, a stub) is
    walked with `check_templates`.
    """
    source = getattr(strategy, "_arena", None)
    if source is not None and source() is arena:
        report = strategy.report
    else:
        report = check_templates(arena, strategy, region)
    if not (report.safety_ok and report.reach_ok and report.min_intervention_ok):
        raise StrategyRejected("template check rejected the strategy\n" + report.text())
    return report


def serialize_strategy(strategy):
    """Canonical text form: sorted `state-key action` lines, one per
    controller state the strategy labels (those its plays reach).  The file
    encodes the key's position and velocity as whole lattice units; a key
    off the lattice raises `ValueError`.

    Each line is written, as it is made, to one byte buffer, which holds the
    text at a byte per character; the sorted keys are the only list.  (An
    `io.StringIO` saves nothing: CPython 3.11 keeps each string written to
    it alive until `getvalue` joins them, as a list of lines would.)"""
    out = io.BytesIO()
    out.write(f"strategy v1 {strategy.variant} {len(strategy.actions)}\n".encode())
    for state in sorted(strategy.actions):
        k, fp, fv, hm_state, dacc = state
        action = strategy.actions[state]
        out.write(f"{k} {_scaled(fp, POS_SCALE, 'strategy position')} "
                  f"{_scaled(fv, VEL_SCALE, 'strategy velocity')} {hm_state} {dacc!r} "
                  f"{action}\n".encode())
    return out.getvalue().decode()


def _lines(text):
    """`text.splitlines()` as an iterator that splits 16 KiB of `text` at a
    time: a piece that ends just after a `\\n` splits as the whole text does."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + 16384) + 1 or len(text)
        yield from text[start:stop].splitlines()
        start = stop


def parse_strategy(text):
    """Inverse of `serialize_strategy`: lattice units back to the metres and
    metres per second of the keys.  A malformed line raises `ValueError`
    naming its line number and text.

    The text is split 16 KiB at a time, never into one list of all its
    lines.  The strategy holds a key tuple per line and no other object per
    line: the keys share one float per position and one per velocity, looked
    up by its lattice integer, and the actions are the objects of
    `ACTIONS`."""
    lines = ((number, ln) for number, ln in enumerate(_lines(text), 1) if ln.strip())
    number, ln = next(lines, (0, None))
    if ln is None:
        raise ValueError("empty strategy text")

    def bad(number, ln, what):
        return ValueError(f"line {number}: {what}: {ln!r}")

    header = ln.split()
    if len(header) != 4 or header[0] != "strategy" or header[1] != "v1":
        raise bad(number, ln, "bad strategy header")
    variant = header[2]
    if variant not in VARIANT_ACTIONS:
        raise bad(number, ln, f"unknown variant {variant!r}")
    try:
        count = int(header[3])
    except ValueError:
        raise bad(number, ln, "bad strategy line count") from None
    position = functools.cache(lambda n: n / POS_SCALE)  # one float per lattice integer
    velocity = functools.cache(lambda n: n / VEL_SCALE)
    actions = {action: action for action in ACTIONS}
    mapping = {}
    for number, ln in lines:
        parts = ln.split()
        if len(parts) != 6:
            raise bad(number, ln, "bad strategy line")
        try:
            k, fp, fv, hm_state = (int(x) for x in parts[:4])
            fp, fv = position(fp), velocity(fv)
            raw = parts[4]
            dacc = int(raw) if raw.lstrip("-").isdigit() else float(raw)
        except (ValueError, OverflowError):
            raise bad(number, ln, "bad number in strategy line") from None
        if isinstance(dacc, float) and not math.isfinite(dacc):
            raise bad(number, ln, "non-finite dacc in strategy line")
        action = actions.get(parts[5])
        if action is None:
            raise bad(number, ln, f"unknown action {parts[5]!r}")
        key = (k, fp, fv, hm_state, dacc)
        if key in mapping:
            raise bad(number, ln, "repeated strategy state")
        mapping[key] = action
    if len(mapping) != count:
        raise ValueError(f"expected {count} strategy lines, got {len(mapping)}")
    return Strategy(mapping, variant)


def arena_stats_text(arena, region):
    """Counts over the explored part of the arena; `winning_states` is the
    number of explored states decided winning."""
    n_ctrl = arena.turn.count(TURN_CTRL)
    lines = [
        f"states={arena.n_states}",
        f"edges={arena.n_edges}",
        f"controller_states={n_ctrl}",
        f"environment_states={arena.n_states - n_ctrl}",
        f"bad_states={arena.outcome.count(BAD)}",
        f"goal_states={arena.outcome.count(GOAL)}",
        f"variant={arena.variant}",
        f"winning_states={len(region)}",
        f"solver_iterations={region.iterations}",
        f"realizable={'true' if realizable(arena, region) else 'false'}",
    ]
    return "\n".join(lines) + "\n"
