"""Finite two-player safety game over the learned driver abstraction.

The arena is the synchronous product of driver abstraction, lead and
follower kinematics, sensor perturbation, step scheduling, and the
three-mode control skeleton.  Each 0.5 s decision epoch unfolds as one
environment move (sensor level choice plus the deterministic driver
response) followed by one controller move (pick an action; physics then
advances deterministically).

The arena is explored on demand, not enumerated.  A depth-first solver
walks forward from the initial state through the successor logic and
expands only the states that deciding it needs: a controller state stops at
its first winning action in severity order, an environment state at its
first losing perception.  An environment edge leads from epoch `k` to the
controller turn at `k`, a controller edge to the environment turn at
`k + 1`, so a built arena is a DAG of depth 2·horizon.  The solver needs
the arena to be acyclic and raises `ValueError` on a cycle.

Positions and velocities are held on an exact lattice (0.25 m, 0.5 m/s
units) so that the gridded game dynamics coincide bit-for-bit with the
continuous simulation.  The objective is `monitor`'s strong until over
`world.judge`'s atoms: never overtake the lead, reach `dest` by the horizon.

State encoding.  Environment turn: `(0, k, fpos, fvel, hm, hinted)`;
controller turn: `(1, k, fpos, fvel, hm, driver_acc)` with positions and
velocities in lattice units.  The supervision mode and the perceived level
are deliberately not part of the state: both are functions of the incoming
edge (mode follows the chosen action one-to-one, the perceived level is
subsumed by the driver successor and its emitted acceleration), so folding
them out is a bisimulation quotient that leaves the winning region and all
checked properties unchanged while keeping the product tractable.  An
explored state stores its successors as a tuple of state numbers and its
edge labels as one shared row: the variant's action tuple for a controller
state, the perception set of the perceived level for an environment state.
One kernel, `build_arena`'s `explore`, computes a state's successors, looks
each up in the arena's index and numbers a new one with `GameArena.add`.
Asked to, `build_arena` wraps it to check each new controller state reached
on a hint-free path against the real driver, and raises `DriverDisagrees`
at the first output (rule chain and acceleration) the driver does not give.

A strategy's plays are walked in one place, `_walk`, which applies the
template checks and asks a picker for the edge taken at each controller
state: `extract_strategy` picks the solver's actions and keeps the walk's
report, `check_templates` looks each action up in a given strategy, and
`certify` reuses the report of a strategy extracted from the same arena.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .driver import FULL_CHAIN, decide_acceleration, explicit_machine
from .mealy import AlphabetMismatch
from .supervisor import (
    ACTION_HINT,
    ACTION_NONE,
    ACTION_OVERRIDE,
    ACTIONS,
    arbitrate,
)
from .world import headway_metrics, judge, quantize_thw

TURN_ENV = 0
TURN_CTRL = 1

POS_SCALE = 4   # lattice units per metre
VEL_SCALE = 2   # lattice units per (m/s)
ARENA_STATE_CAP = 2_000_000  # explored states at most, per arena

# ordered by growing action set: each variant includes the actions of the one before
VARIANT_ACTIONS = {
    "advisory-only": (ACTION_HINT,),
    "no-override": (ACTION_NONE, ACTION_HINT),
    "full": (ACTION_NONE, ACTION_HINT, ACTION_OVERRIDE),
}

ACTION_SEVERITY = {ACTION_NONE: 0, ACTION_HINT: 1, ACTION_OVERRIDE: 2}


def _severity(action):
    return ACTION_SEVERITY.get(action, 0)


def minimal_intervention(action, winning_actions):
    """The min-intervention objective, shared by synthesis, template check
    and monitor.

    A supervision choice is minimal when no strictly less severe action
    (none < hint < override) among `winning_actions`, the actions that keep
    the play in the winning region, would do as well.  So an override is
    allowed exactly when neither `none` nor `hint` still wins: the
    minimal-interference condition of safety shields.  Labels outside the
    three supervision actions (hand-written fixtures) rank with `none`.
    """
    severity = _severity(action)
    return all(_severity(a) >= severity for a in winning_actions)


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
    q = round(value * scale)
    if not math.isclose(q, value * scale, rel_tol=0.0, abs_tol=1e-9):
        raise ValueError(f"{what} {value!r} is not on the arena lattice")
    return q


class AbstractDriver:
    """Driver dimension of the game: abstraction states plus a hint flag.

    Normal moves follow the learned machine.  After a hint the next repeated
    stimulus re-deliberates instead of replaying the cached decision: the
    response is recomputed with the acceleration law at the level's
    representative headway, and the successor is resolved through the
    (level, acc) state annotations recovered from incoming edges.  It keeps
    the machine's table, not the machine, so `shared` lets it die with it.
    """

    _shared = weakref.WeakKeyDictionary()  # machine -> {DriverParams: mirror}

    def __init__(self, hm, params):
        self._delta = hm.delta
        self.params = params
        self._by_profile = {}
        annotated = set()
        for state in hm.reachable_states():
            for level in hm.inputs:
                succ, (_chain, acc) = hm.delta[state][level]
                if succ not in annotated:
                    annotated.add(succ)
                    self._by_profile.setdefault((level, acc), succ)
        self._memo = {}

    @classmethod
    def shared(cls, hm, params):
        """The one mirror of `hm` under `params`, for `build_arena` and every
        episode `execute` runs; a `MealyMachine` is immutable."""
        mirrors = cls._shared.setdefault(hm, {})
        return mirrors.get(params) or mirrors.setdefault(params, cls(hm, params))

    def step(self, state, hinted, level):
        """Returns (successor, driver_acc, full_deliberation)."""
        key = (state, hinted, level)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        succ, (chain, acc) = self._delta[state][level]
        if not hinted or chain == FULL_CHAIN:
            result = (succ, acc, chain == FULL_CHAIN)
        else:
            # hinted repeated stimulus: re-deliberate at the same headway
            rep = self.params.representative(level)
            acc2 = decide_acceleration(rep, rep, self.params.decision_epoch,
                                       self.params, acc)
            succ2 = self._by_profile.get((level, acc2), succ)
            result = (succ2, acc2, True)
        self._memo[key] = result
        return result


class GameArena:
    """Bipartite arena: interleaved controller/environment turns.

    States are opaque values, numbered in the order they are first reached.
    `turn[i]` says who moves and `bad`/`goal`/`terminal` classify state `i`,
    one byte each.  `edges[i]` is the tuple of its successors' numbers, or
    None while `i` is unexplored; `labels[i]` labels them position by
    position, with one row shared by all states of the same labels, never a
    copy per edge.  `successors(i)` explores `i` on first use: it calls
    `explore(arena, i)`, which returns `(labels, successors)` and numbers
    each successor not in `index` with `add`, the one method that appends a
    state's row and checks `ARENA_STATE_CAP`.  Environment edges are
    uncontrollable (sensor level choices); controller edges carry
    supervision actions, held in severity order.  `n_states` and `n_edges`
    count what has been explored so far.  `region` is the arena's
    winning region, decided as it is asked; the solver keeps its decisions
    in `won` (per state: None while undecided, else whether the controller
    wins) and `iterations`.
    """

    def __init__(self, explore, meta):
        self._explore = explore
        self.meta = meta
        self.states = []
        self.index = {}
        self.turn = bytearray()
        self.bad = bytearray()
        self.goal = bytearray()
        self.terminal = bytearray()
        self.labels = []
        self.edges = []
        self.initial = None
        self.won = []  # per state: None while undecided, else whether the controller wins
        self.iterations = 0  # states the solver expanded

    def add(self, state, turn, bad, goal, terminal):
        """Number `state`, not reached before, as the next state: the one
        place that grows the arena and checks `ARENA_STATE_CAP`."""
        j = len(self.states)
        if j >= ARENA_STATE_CAP:
            raise ArenaCapExceeded(f"arena exceeds {ARENA_STATE_CAP} states")
        self.index[state] = j
        self.states.append(state)
        self.turn.append(turn)
        self.bad.append(bad)
        self.goal.append(goal)
        self.terminal.append(terminal)
        self.labels.append(() if terminal else None)
        self.edges.append(() if terminal else None)
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


def grid_lattice_checks(scenario, params, cfg):
    """The epoch and each acceleration's step must sit on the lattice;
    `build_arena` checks positions and velocities as it converts them."""
    eps = scenario.epoch
    if not math.isclose(eps * POS_SCALE / VEL_SCALE, round(eps * POS_SCALE / VEL_SCALE)):
        raise ValueError(f"epoch {eps} incompatible with the position lattice")
    accs = set(params.acc_set) | {a for _, a in scenario.profile.segments}
    accs |= {cfg.acc_floor, cfg.acc_cap}
    for a in sorted(accs):
        _scaled(a * eps, VEL_SCALE, "velocity increment for acc")


def lead_trajectory(scenario):
    """Scaled lead (pos, vel) per epoch index, 0..horizon inclusive: the
    scenario's `lead_track`, which co-simulation reads too, on the lattice."""
    return [(_scaled(pos, POS_SCALE, "lead position"), _scaled(vel, VEL_SCALE, "lead velocity"))
            for _t, pos, vel, _acc in scenario.lead_track]


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
    grid_lattice_checks(scenario, params, cfg)

    actions = VARIANT_ACTIONS[variant]
    eps = scenario.epoch
    horizon = scenario.horizon_epochs
    lead = lead_trajectory(scenario)
    dest_q = _scaled(scenario.dest, POS_SCALE, "dest")
    vmax_q = _scaled(scenario.v_max, VEL_SCALE, "v_max")
    pos_step = round(eps * POS_SCALE / VEL_SCALE)
    perceived = scenario.perceptions(params.num_levels)
    driver = AbstractDriver.shared(hm, params)
    moves_of = {}  # (fv, driver acc) -> [(clamped fv', hinted)] per action
    responses = {}  # (level, q, hinted) -> [(q2, driver acc)] per perception

    def explore(arena, i):
        # `add` is reached through `arena`: the closure holds no arena
        s = arena.states[i]
        index = arena.index
        succs = []
        if s[0] == TURN_ENV:
            _, k, fp, fv, q, hinted = s
            lp, lv = lead[k]
            thw, _ttc = headway_metrics(lp / POS_SCALE, lv / VEL_SCALE,
                                        fp / POS_SCALE, fv / VEL_SCALE)
            level = quantize_thw(thw, params.thw_levels)
            labels = perceived[level]
            replies = responses.get((level, q, hinted))
            if replies is None:
                replies = responses[level, q, hinted] = [
                    driver.step(q, hinted, p)[:2] for p in labels]
            for q2, dacc in replies:
                t = (TURN_CTRL, k, fp, fv, q2, dacc)
                j = index.get(t)
                succs.append(arena.add(t, TURN_CTRL, 0, 0, 0) if j is None else j)
            return labels, tuple(succs)
        _, k, fp, fv, q2, dacc = s
        moves = moves_of.get((fv, dacc))
        if moves is None:
            moves = moves_of[fv, dacc] = [
                (min(max(fv + _scaled(arbitrate(action, dacc, cfg) * eps, VEL_SCALE,
                                      "velocity increment"), 0), vmax_q),
                 1 if action == ACTION_HINT else 0)
                for action in actions]
        k += 1
        fp += fv * pos_step
        bad, goal = judge(fp, lead[k][0], dest_q)  # shared by every successor
        terminal = bad or goal or k == horizon
        for fv2, h in moves:
            t = (TURN_ENV, k, fp, fv2, q2, h)
            j = index.get(t)
            succs.append(arena.add(t, TURN_ENV, bad, goal, terminal) if j is None else j)
        return actions, tuple(succs)

    meta = {"scenario": scenario, "variant": variant, "driver": driver}
    if check_driver:
        explore = _driver_checked(explore, hm, params)
    arena = GameArena(explore, meta)
    fp0 = _scaled(scenario.follow_pos, POS_SCALE, "follow_pos")
    s0 = (TURN_ENV, 0, fp0, _scaled(scenario.follow_vel, VEL_SCALE, "follow_vel"),
          hm.initial, 0)
    bad0, goal0 = judge(fp0, lead[0][0], dest_q)
    arena.initial = arena.add(s0, TURN_ENV, bad0, goal0, bad0 or goal0 or horizon == 0)
    realizable(arena, arena.region)  # explore until the initial state is decided
    return arena


def _driver_checked(explore, hm, params):
    """`explore` of `build_arena` for abstraction `hm`, also replaying
    hint-free paths on the real driver.

    The driver's states under plain stimuli are those of `explicit_machine`.
    Each non-terminal state added on a hint-free path from the initial
    state, state 0, waits in `pending` with the entry `(driver state, level,
    entry before)` of the first such path: the driver's state after the path
    and the path's perceptions, linked backwards.  When the state is
    explored, its entry is handed on to its new successors.  At an
    environment state, the abstraction's output for the perception on the
    edge to each new successor, rule chain and acceleration, must be the
    driver's.  A hint edge hands on nothing, since the alphabet has no hint
    symbol to replay it with.  A state reached again later is not checked
    again, so no disagreement is no proof that the abstraction conforms.
    """
    truth = explicit_machine(params)
    pending = {0: (truth.initial, None, None)}

    def checked(arena, i):
        n = len(arena.states)
        labels, succs = explore(arena, i)
        entry = pending.pop(i, None)
        if entry is None:
            return labels, succs
        if arena.turn[i] == TURN_ENV:
            predicted = hm.delta[arena.states[i][4]]
            actual = truth.delta[entry[0]]
            for p, j in zip(labels, succs):
                if j < n or j in pending:
                    continue
                d2, out = actual[p]
                if predicted[p][1] != out:
                    raise DriverDisagrees(_path_word((d2, p, entry)), len(arena.states))
                pending[j] = (d2, p, entry)
        else:
            terminal = arena.terminal
            for action, j in zip(labels, succs):
                if j >= n and action != ACTION_HINT and not terminal[j]:
                    pending[j] = entry
        return labels, succs

    return checked


def _path_word(entry):
    """The perceptions of a pending entry's path, first one first."""
    word = []
    while entry[1] is not None:
        word.append(entry[1])
        entry = entry[2]
    return tuple(reversed(word))


class WinningRegion:
    """The states from which the controller wins the strong-until
    objective, decided one state at a time as they are asked about.

    `i in region` runs the solver from `i` unless `i` is already decided;
    the arena must be acyclic.  A terminal state wins exactly when it is a
    goal and not bad: a play that overtakes, even past the destination, or
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
        states, turn, bad, terminal = arena.states, arena.turn, arena.bad, arena.terminal
        goal, labels, edges, explore = arena.goal, arena.labels, arena.edges, arena._explore
        if terminal[root]:
            won[root] = goal[root] and not bad[root]
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
                    if not terminal[j]:
                        break
                    r = won[j] = goal[j] and not bad[j]
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


def winning_actions(arena, region, i, below):
    """Labels of the edges from controller state `i` that stay in `region`,
    asking only about those strictly less severe than `below`: all that
    `minimal_intervention(below, ...)` needs."""
    severity = _severity(below)
    targets = arena.successors(i)
    return [label for label, j in zip(arena.labels[i], targets)
            if _severity(label) < severity and j in region]


@dataclass
class Strategy:
    """Memoryless controller: winning controller-turn state -> action.

    `extract_strategy` labels the controller states the strategy's own plays
    reach, so files hold those states only; files that label every winning
    state, as older versions wrote them, parse and validate as well.  Its
    entries are certified: each was chosen under `minimal_intervention`, so
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
    reach_ok: bool = True
    min_intervention_ok: bool = True
    min_intervention_witness: object = None
    response_ok: bool = True
    response_witness: object = None

    def text(self):
        lines = [
            f"states_visited={self.visited}",
            f"safety={'pass' if self.safety_ok else 'FAIL'}",
            f"reachability={'pass' if self.reach_ok else 'FAIL'} "
            f"(goal_terminals={self.goal_terminals}, horizon_terminals={self.horizon_terminals})",
            f"min_intervention={'pass' if self.min_intervention_ok else 'FAIL'}",
            f"response={'pass' if self.response_ok else 'FAIL'}",
        ]
        if self.safety_witness is not None:
            lines.append(f"safety_witness={self.safety_witness!r}")
        if self.min_intervention_witness is not None:
            lines.append(f"min_intervention_witness={self.min_intervention_witness!r}")
        if self.response_witness is not None:
            lines.append(f"response_witness={self.response_witness!r}")
        return "\n".join(lines) + "\n"


def _walk(arena, region, pick):
    """The one walk of a strategy's plays: breadth-first over every state
    they reach from the initial state, applying the four template checks.

    (i) no bad state is reached; (ii) every maximal play ends in a goal
    state, as `monitor` demands, not at the horizon short of it (counted
    apart); (iii) every controller decision satisfies `minimal_intervention`
    against `region`, which is asked only about actions less severe than the
    chosen one; (iv) a hint is always followed by a full-deliberation driver
    edge (built arenas only).  At each controller state, `pick(state, labels,
    successors)` gives the position of the edge the strategy takes, or
    raises `StrategyRejected` with the reason, which the walk completes
    with the checks up to there.  Returns the `TemplateReport`.
    """
    report = TemplateReport()
    driver = arena.meta["driver"]
    states, turn, bad, terminal = arena.states, arena.turn, arena.bad, arena.terminal
    seen = {arena.initial}
    queue = deque([arena.initial])
    while queue:
        i = queue.popleft()
        s = states[i]
        if bad[i]:
            if report.safety_ok:
                report.safety_ok = False
                report.safety_witness = s
            continue
        if terminal[i]:
            if arena.goal[i]:
                report.goal_terminals += 1
            else:
                report.horizon_terminals += 1
            continue
        targets = arena.successors(i)
        labels = arena.labels[i]
        if turn[i] == TURN_ENV:
            if driver is not None and s[5]:
                for p in labels:
                    _q2, _acc, full = driver.step(s[4], 1, p)
                    if not full and report.response_ok:
                        report.response_ok = False
                        report.response_witness = (s, p)
            for j in targets:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        else:
            try:
                pos = pick(s, labels, targets)
            except StrategyRejected as err:
                report.visited = len(seen) - len(queue)  # the states taken off the queue
                raise StrategyRejected(f"template check rejected the strategy: {err}; "
                                       "checks up to there:\n" + report.text()) from None
            action = labels[pos]
            j = targets[pos]
            # no action is less severe than `none`, so it is minimal by definition
            if (report.min_intervention_ok and action != ACTION_NONE and
                    not minimal_intervention(action,
                                             winning_actions(arena, region, i, action))):
                report.min_intervention_ok = False
                report.min_intervention_witness = s
            if j not in seen:
                seen.add(j)
                queue.append(j)
    report.visited = len(seen)
    report.reach_ok = report.horizon_terminals == 0 and report.goal_terminals > 0
    return report


def extract_strategy(arena, region):
    """Pick one winning action per controller state the strategy's own plays
    reach from the initial state, template-checking those plays on the way.

    The pick is the label of the first successor, in severity order, that
    the solver decided winning in the arena's `won` list; the region is
    asked only about successors still undecided.  Every less severe edge
    loses, so the pick is the least severe winning action (none < hint <
    override) and satisfies `minimal_intervention` by construction.  The
    picks drive `_walk`, the walk `check_templates` makes, so the returned
    strategy carries its `TemplateReport` and `certify` reuses it.
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
    strategy = Strategy(MappingProxyType(mapping), arena.meta["variant"])
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
    template it reports holds: safety, reachability, min-intervention and
    response.

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
    if not (report.safety_ok and report.reach_ok and report.min_intervention_ok
            and report.response_ok):
        raise StrategyRejected("template check rejected the strategy\n" + report.text())
    return report


def serialize_strategy(strategy):
    """Canonical text form: sorted `state-key action` lines, one per
    controller state the strategy labels (those its plays reach)."""
    lines = [f"strategy v1 {strategy.variant} {len(strategy.actions)}"]
    for state in sorted(strategy.actions):
        _, k, fp, fv, hm_state, dacc = state
        action = strategy.actions[state]
        lines.append(f"{k} {fp} {fv} {hm_state} {dacc!r} {action}")
    return "\n".join(lines) + "\n"


def parse_strategy(text):
    """Inverse of `serialize_strategy`; a malformed line raises `ValueError`
    naming its line number and text."""
    lines = ((number, ln) for number, ln in enumerate(text.splitlines(), 1) if ln.strip())
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
    mapping = {}
    for number, ln in lines:
        parts = ln.split()
        if len(parts) != 6:
            raise bad(number, ln, "bad strategy line")
        try:
            k, fp, fv, hm_state = (int(x) for x in parts[:4])
            raw = parts[4]
            dacc = int(raw) if raw.lstrip("-").isdigit() else float(raw)
        except ValueError:
            raise bad(number, ln, "bad number in strategy line") from None
        if isinstance(dacc, float) and not math.isfinite(dacc):
            raise bad(number, ln, "non-finite dacc in strategy line")
        action = parts[5]
        if action not in ACTIONS:
            raise bad(number, ln, f"unknown action {action!r}")
        key = (TURN_CTRL, k, fp, fv, hm_state, dacc)
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
        f"bad_states={sum(arena.bad)}",
        f"goal_states={sum(arena.goal)}",
        f"variant={arena.meta['variant']}",
        f"winning_states={len(region)}",
        f"solver_iterations={region.iterations}",
        f"realizable={'true' if realizable(arena, region) else 'false'}",
    ]
    return "\n".join(lines) + "\n"
