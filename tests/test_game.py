import functools
import hashlib
import re
import sys
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import event, given, settings, strategies as st

from sharedctrl import game
from sharedctrl.cosim import episode, episode_passed, synthesize
from sharedctrl.driver import FULL_CHAIN, CognitiveDriver, DriverParams, explicit_machine
from sharedctrl.game import (
    ACTION_HINT,
    ACTIONS,
    AbstractDriver,
    ArenaCapExceeded,
    BAD,
    DriverDisagrees,
    GOAL,
    GameArena,
    HORIZON,
    OPEN,
    POS_SCALE,
    Strategy,
    StrategyRejected,
    TURN_CTRL,
    TURN_ENV,
    Unrealizable,
    VARIANT_ACTIONS,
    VEL_SCALE,
    arbitrate,
    arena_stats_text,
    build_arena,
    certify,
    check_templates,
    extract_strategy,
    parse_strategy,
    realizable,
    serialize_strategy,
    solve,
)
from sharedctrl.lstar import EqOracleConfig, LearningSession, RandomWalkOracle
from sharedctrl.mealy import AlphabetMismatch, MealyMachine, minimize
from sharedctrl.scenario import Scenario, braking_scenario
from sharedctrl.world import LeadProfile, advance, headway_metrics, quantize_thw, sensor_perturb

from conftest import (
    HINT_PARAMS, ConstantStrategy, RecordingStrategy, arena_from_graph, lattice_scenarios,
    region_members,
)


def brute_force_region(arena):
    """Naive set-based greatest fixpoint of the strong-until objective; the
    oracle for `solve`.

    A terminal state wins exactly when its outcome is `GOAL`, so a play
    that stops short of a goal loses, as `monitor` judges it; interior states
    follow the exists/forall rule until the set stabilizes.  On an acyclic
    arena the greatest fixpoint is the least one.
    """
    win = [arena.outcome[i] in (OPEN, GOAL) for i in range(arena.n_states)]
    changed = True
    while changed:
        changed = False
        for i in range(arena.n_states):
            if not win[i] or arena.outcome[i]:
                continue
            if arena.turn[i] == TURN_CTRL:
                ok = any(win[j] for j in arena.successors(i))
            else:
                ok = all(win[j] for j in arena.successors(i))
            if not ok:
                win[i] = False
                changed = True
    return {i for i in range(arena.n_states) if win[i]}


def fixture_forced_loss():
    nodes = {
        "c0": ("c", [("safe", "e1"), ("risk", "e2")]),
        "e1": ("e", [("u", "g")]),
        "e2": ("e", [("u", "c3"), ("v", "b")]),
        "c3": ("c", [("x", "g")]),
        "g": ("e", []),
        "b": ("e", []),
    }
    return arena_from_graph(nodes, bad={"b"}, goal={"g"}, initial="c0")


def fixture_unrealizable():
    nodes = {
        "c0": ("c", [("a", "e1"), ("b", "e2")]),
        "e1": ("e", [("u", "bad")]),
        "e2": ("e", [("u", "bad")]),
        "bad": ("e", []),
    }
    return arena_from_graph(nodes, bad={"bad"}, initial="c0")


def fixture_right_action():
    nodes = {
        "e0": ("e", [("u", "c0")]),
        "c0": ("c", [("a", "b"), ("b", "e1")]),
        "e1": ("e", [("u", "g")]),
        "g": ("e", []),
        "b": ("e", []),
    }
    return arena_from_graph(nodes, bad={"b"}, goal={"g"}, initial="e0")


def fixture_env_harmless():
    nodes = {
        "e0": ("e", [("u1", "c1"), ("u2", "c2")]),
        "c1": ("c", [("a", "g")]),
        "c2": ("c", [("a", "g")]),
        "g": ("e", []),
    }
    return arena_from_graph(nodes, goal={"g"}, initial="e0")


def fixture_bad_goal_overlap():
    nodes = {
        "c0": ("c", [("a", "x")]),
        "x": ("e", []),
    }
    return arena_from_graph(nodes, bad={"x"}, goal={"x"}, initial="c0")


def fixture_override_needed():
    nodes = {
        "e0": ("e", [("u", "c0")]),
        "c0": ("c", [("none", "b1"), ("hint", "b2"), ("override", "e1")]),
        "e1": ("e", [("u", "g")]),
        "g": ("e", []),
        "b1": ("e", []),
        "b2": ("e", []),
    }
    return arena_from_graph(nodes, bad={"b1", "b2"}, goal={"g"}, initial="e0")


def fixture_hint_suffices():
    nodes = {
        "c0": ("c", [("none", "b"), ("hint", "g2"), ("override", "g")]),
        "g": ("e", []),
        "g2": ("e", []),
        "b": ("e", []),
    }
    return arena_from_graph(nodes, bad={"b"}, goal={"g", "g2"}, initial="c0")


def fixture_stops_short():
    # the only safe play ends at the horizon, in a terminal that is no goal
    nodes = {
        "c0": ("c", [("none", "e1"), ("hint", "b")]),
        "e1": ("e", [("u", "c1")]),
        "c1": ("c", [("none", "end")]),
        "end": ("e", []),
        "b": ("e", []),
    }
    return arena_from_graph(nodes, bad={"b"}, initial="c0")


def fixture_severity_preference():
    nodes = {
        "c0": ("c", [("override", "g"), ("none", "g2"), ("hint", "g3")]),
        "g": ("e", []),
        "g2": ("e", []),
        "g3": ("e", []),
    }
    return arena_from_graph(nodes, goal={"g", "g2", "g3"}, initial="c0")


ALL_FIXTURES = [
    fixture_forced_loss,
    fixture_unrealizable,
    fixture_right_action,
    fixture_env_harmless,
    fixture_bad_goal_overlap,
    fixture_override_needed,
    fixture_severity_preference,
    fixture_hint_suffices,
    fixture_stops_short,
]


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_solver_matches_brute_force(make):
    arena = make()
    region = solve(arena)
    assert set(region_members(region)) == brute_force_region(arena)


def test_forced_loss_fixture_winning_set():
    arena = fixture_forced_loss()
    region = solve(arena)
    names = {arena.states[i] for i in region_members(region)}
    assert names == {"c0", "e1", "g", "c3"}
    assert realizable(arena, region)


def test_unrealizable_fixture():
    arena = fixture_unrealizable()
    region = solve(arena)
    assert len(region) == 0
    assert not realizable(arena, region)
    with pytest.raises(Unrealizable):
        extract_strategy(arena, region)


def test_bad_goal_overlap_loses():
    arena = fixture_bad_goal_overlap()
    region = solve(arena)
    assert not realizable(arena, region)


def test_a_play_that_stops_short_of_a_goal_loses():
    # safe but never at a goal: `monitor` would fail the play as
    # `goal-not-reached`, so the game loses it, and `certify` refuses a
    # strategy that plays it
    arena = fixture_stops_short()
    region = solve(arena)
    assert not realizable(arena, region)
    with pytest.raises(StrategyRejected, match=r"reachability=FAIL "
                       r"\(goal_terminals=0, horizon_terminals=1\)"):
        certify(arena, Strategy({"c0": "none", "c1": "none"}, "full"), region)


def test_a_rejected_strategy_reports_reach_as_its_counts_say():
    # the walk meets a play that ends at the horizon before the state the
    # strategy leaves undefined, so its partial report fails reachability
    nodes = {
        "e0": ("e", [("u", "c0"), ("v", "x")]),
        "c0": ("c", [("none", "end")]),
        "x": ("e", [("u", "c1")]),
        "c1": ("c", [("none", "g")]),
        "end": ("e", []),
        "g": ("e", []),
    }
    arena = arena_from_graph(nodes, goal={"g"}, initial="e0")
    with pytest.raises(StrategyRejected, match=re.escape(
            "undefined on reachable state 'c1'; checks up to there:\n"
            "states_visited=5\nsafety=pass\n"
            "reachability=FAIL (goal_terminals=0, horizon_terminals=1)\n")):
        certify(arena, Strategy({"c0": "none"}, "full"), solve(arena))


def test_strategy_picks_the_winning_action():
    arena = fixture_right_action()
    region = solve(arena)
    strategy = extract_strategy(arena, region)
    assert strategy.actions["c0"] == "b"


def test_strategy_forced_override():
    arena = fixture_override_needed()
    region = solve(arena)
    strategy = extract_strategy(arena, region)
    assert strategy.actions["c0"] == "override"


def test_strategy_prefers_lowest_severity():
    arena = fixture_severity_preference()
    region = solve(arena)
    strategy = extract_strategy(arena, region)
    assert strategy.actions["c0"] == "none"


def test_a_later_edge_is_more_severe_whatever_its_label():
    # severity is an edge's position: labels that are no action keep the
    # order they are given in, so taking the second edge where the first
    # also wins is a needless escalation
    nodes = {
        "c0": ("c", [("a", "g"), ("b", "g2")]),
        "g": ("e", []),
        "g2": ("e", []),
    }
    arena = arena_from_graph(nodes, goal={"g", "g2"}, initial="c0")
    assert arena.labels[arena.index["c0"]] == ("a", "b")
    report = check_templates(arena, Strategy({"c0": "b"}, "full"), solve(arena))
    assert report.safety_ok and report.reach_ok
    assert not report.min_intervention_ok
    assert report.min_intervention_witness == "c0"
    assert "min_intervention=FAIL" in report.text()


def test_every_variant_keeps_the_severity_order_of_actions():
    # the rule rests on it: `ACTIONS` runs from least to most severe, and
    # each variant's tuple is a subsequence of it
    assert sorted(ACTIONS, key=SEVERITY.get) == list(ACTIONS)
    for actions in VARIANT_ACTIONS.values():
        assert tuple(a for a in ACTIONS if a in actions) == actions


def test_templates_accept_forced_override():
    # override is the only winning action at c0, so it is minimal
    arena = fixture_override_needed()
    region = solve(arena)
    report = certify(arena, extract_strategy(arena, region), region)
    assert report.safety_ok
    assert report.min_intervention_ok


@pytest.mark.parametrize("make, action", [
    (fixture_severity_preference, "override"),
    (fixture_severity_preference, "hint"),
    (fixture_hint_suffices, "override"),
], ids=["override-where-none-wins", "hint-where-none-wins", "override-where-hint-wins"])
def test_templates_reject_needless_override(make, action):
    # a less severe action also wins at c0, so `action` is not minimal there
    arena = make()
    strategy = Strategy({"c0": action}, "full")
    report = check_templates(arena, strategy, solve(arena))
    assert report.safety_ok
    assert not report.min_intervention_ok
    assert report.min_intervention_witness == "c0"
    with pytest.raises(StrategyRejected):
        certify(arena, strategy, solve(arena))


def test_templates_reject_an_action_without_an_edge():
    arena = fixture_right_action()
    with pytest.raises(StrategyRejected, match="'c' labels no edge of .*'c0'"):
        certify(arena, Strategy({"c0": "c"}, "full"), solve(arena))


def test_strategy_closure_stays_winning():
    arena = fixture_forced_loss()
    region = solve(arena)
    strategy = extract_strategy(arena, region)
    # walk all strategy-consistent plays; every visited state must be in W
    seen = {arena.initial}
    stack = [arena.initial]
    while stack:
        i = stack.pop()
        assert i in region
        if arena.outcome[i]:
            continue
        if arena.turn[i] == TURN_CTRL:
            action = strategy.actions[arena.states[i]]
            succs = [j for a, j in zip(arena.labels[i], arena.successors(i)) if a == action]
        else:
            succs = list(arena.successors(i))
        for j in succs:
            if j not in seen:
                seen.add(j)
                stack.append(j)


# -- built arenas ------------------------------------------------------------

def mini_scenario(offset=0, horizon=6):
    return Scenario(
        name="mini",
        lead_pos=30.0,
        lead_vel=10.0,
        follow_pos=0.0,
        follow_vel=10.0,
        dest=40.0,
        horizon_epochs=horizon,
        sensor_offset=offset,
        v_max=16.0,
        profile=LeadProfile([(0.0, 0.0)]),
    )


def explore_all(arena, scenario):
    """Expand every reachable state of a lazily explored arena built for
    `scenario`, so that structure checks see the whole arena and not just
    what deciding the initial state needed."""
    i = 0
    while i < arena.n_states:
        arena.successors(i)
        i += 1
    assert all(es is not None for es in arena.edges)
    # non-trivial: the expansion reached the horizon through a full-depth play
    assert any(s[0] == scenario.horizon_epochs for s in arena.states)
    return arena


def test_build_arena_zero_offset_collapses_sensor(oracle_machine):
    sc = mini_scenario(offset=0)
    arena = explore_all(build_arena(oracle_machine, sc, DriverParams(), "full"), sc)
    for i in range(arena.n_states):
        if arena.turn[i] == TURN_ENV and not arena.outcome[i]:
            assert len(arena.edges[i]) == 1


def test_build_arena_offset_one_branches(oracle_machine):
    sc = mini_scenario(offset=1)
    arena = explore_all(build_arena(oracle_machine, sc, DriverParams(), "full"), sc)
    widths = {len(arena.edges[i]) for i in range(arena.n_states)
              if arena.turn[i] == TURN_ENV and not arena.outcome[i]}
    assert widths <= {2, 3}
    assert 2 in widths or 3 in widths


def test_built_arena_shares_one_label_row_per_state(oracle_machine):
    # labels are never per edge: an explored state holds the variant's action
    # tuple or the arena's one perception row of its level, position by
    # position with its successors' numbers
    sc, params = mini_scenario(offset=1), DriverParams()
    arena = explore_all(build_arena(oracle_machine, sc, params, "no-override"), sc)
    actions = VARIANT_ACTIONS["no-override"]
    shared = set()  # the identities of the environment states' label rows
    assert len(arena.won) == arena.n_states
    for i in range(arena.n_states):
        labels, targets = arena.labels[i], arena.edges[i]
        if arena.outcome[i]:
            assert labels == targets == ()
        elif arena.turn[i] == TURN_CTRL:
            assert labels is actions
        else:
            k, fp, fv, _r = arena.states[i]
            lp, lv = sc.lead_track[k]
            level = quantize_thw(headway_metrics(lp, lv, fp, fv)[0], params.thw_levels)
            assert labels == sensor_perturb(level, sc.sensor_offset, params.num_levels)
            shared.add(id(labels))
        assert len(labels) == len(targets)
        assert all(type(j) is int for j in targets)
    assert 1 < len(shared) <= params.num_levels


def test_build_arena_outcomes_are_the_four_values(oracle_machine, default_sc):
    # one byte per state: a state overtaken past `dest` is `BAD`, not also a goal
    arena = build_arena(oracle_machine, default_sc, DriverParams(), "full")
    assert set(arena.outcome) <= {OPEN, GOAL, BAD, HORIZON}


def test_build_arena_alphabet_mismatch(default_sc):
    wrong = MealyMachine((1, 2), {0: {1: (0, "x"), 2: (0, "y")}})
    with pytest.raises(AlphabetMismatch):
        build_arena(wrong, default_sc, DriverParams(), "full")


@pytest.mark.parametrize("bad", ["x", (("attend",), "x"), ((), True), ((), -1, 0)])
def test_build_arena_names_a_malformed_output(default_sc, driver_params, bad):
    # the mirror is the one reader of the outputs, and refuses any but a
    # (rule_chain, acc) pair with a real-number acc before the arena reads one
    levels = driver_params.levels()
    hm = MealyMachine(levels, {0: {level: (0, bad if level == 1 else (FULL_CHAIN, 0))
                                   for level in levels}})
    with pytest.raises(ValueError, match=re.escape(
            f"abstraction output {bad!r} is not a (rule_chain, acc) pair")):
        build_arena(hm, default_sc, driver_params, "full")


def access_words(hm):
    """A shortest input word to each reachable state of `hm`, breadth first."""
    words = {hm.initial: ()}
    queue = deque([hm.initial])
    while queue:
        state = queue.popleft()
        for level in hm.inputs:
            succ = hm.delta[state][level][0]
            if succ not in words:
                words[succ] = words[state] + (level,)
                queue.append(succ)
    return words


@pytest.mark.parametrize("params,redeliberated", [
    (HINT_PARAMS[0], 0), (HINT_PARAMS[1], 2), (DriverParams(k1=1.0, k2=1.0), 2),
    (DriverParams(thw_levels=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)), 0),
], ids=["default", "hint-params", "k1-k2-1", "eight-levels"])
def test_mirror_rows_give_the_driver_acceleration(params, redeliberated):
    # the mirror's table against the black-box driver, not against itself:
    # every state's access word replayed, a hint applied or not, one level
    # perceived; `redeliberated` hinted entries differ from the plain ones
    hm = minimize(explicit_machine(params))
    mirror = AbstractDriver(hm, params)
    rows, number = mirror.rows, mirror.row_number
    words = access_words(hm)
    assert len(words) == len(hm.states)
    sul = CognitiveDriver(params)
    for q, word in words.items():
        for hinted in (0, 1):
            for level in hm.inputs:
                sul.reset()
                for symbol in word:
                    sul.query(symbol)
                if hinted:
                    sul.apply_hint()
                assert sul.query(level)[1] == rows[number[q, hinted]][level][1], \
                    (word, hinted, level)
    assert sum(rows[number[q, 1]][level][1] != rows[number[q, 0]][level][1]
               for q in hm.states for level in hm.inputs) == redeliberated


@pytest.mark.parametrize("params,keys,distinct", [
    (HINT_PARAMS[0], 18, 3), (HINT_PARAMS[1], 8, 3), (DriverParams(k1=1.0, k2=1.0), 22, 6),
    (DriverParams(thw_levels=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)), 72, 13),
], ids=["default", "hint-params", "k1-k2-1", "eight-levels"])
def test_mirror_numbers_each_distinct_row_once(params, keys, distinct):
    # an environment state holds the number of its row: each state's plain
    # number names the row built from `hm.delta`, numbers come in the state
    # order of `hm.delta`, plain before hinted, and no two name equal rows
    hm = minimize(explicit_machine(params))
    mirror = AbstractDriver(hm, params)
    assert len(mirror.row_number) == keys
    assert list(mirror.row_number) == [(q, h) for q in hm.delta for h in (0, 1)]
    for q, row in hm.delta.items():
        assert mirror.rows[mirror.row_number[q, 0]] == {
            level: (succ, out[1]) for level, (succ, out) in row.items()}
    assert list(dict.fromkeys(mirror.row_number.values())) == list(range(distinct))
    assert len(mirror.rows) == distinct
    assert all(a != b for i, a in enumerate(mirror.rows) for b in mirror.rows[i + 1:])


def test_build_arena_state_cap(oracle_machine, default_sc, monkeypatch):
    monkeypatch.setattr(game, "ARENA_STATE_CAP", 100)
    with pytest.raises(ArenaCapExceeded):
        build_arena(oracle_machine, default_sc, DriverParams(), "full")


def test_build_arena_state_cap_boundary(oracle_machine, default_sc, driver_params,
                                        monkeypatch):
    # the pinned default/full build explores exactly 1590 states
    monkeypatch.setattr(game, "ARENA_STATE_CAP", 1590)
    arena = build_arena(oracle_machine, default_sc, driver_params, "full")
    assert arena.n_states == 1590 and realizable(arena, arena.region)
    monkeypatch.setattr(game, "ARENA_STATE_CAP", 1589)
    with pytest.raises(ArenaCapExceeded, match=r"^arena exceeds 1589 states$"):
        build_arena(oracle_machine, default_sc, driver_params, "full")


@functools.lru_cache(maxsize=None)
def abstractions(params):
    """The exact machine of the driver under `params`, and the 2-state
    abstraction that a state-capped L* run learns (oracle seed 0), where the
    coarse refinement loop starts."""
    sul = CognitiveDriver(params)
    oracle = RandomWalkOracle(sul, EqOracleConfig(rng_seed=0))
    coarse, _stats = LearningSession(sul, sul.alphabet, oracle, state_cap=2).run()
    assert len(coarse.states) == 2
    return {"exact": minimize(explicit_machine(params)), "coarse": coarse}


def on_lattice(pos, vel):
    """Whether a position and a velocity are whole lattice units."""
    return (pos * POS_SCALE).is_integer() and (vel * VEL_SCALE).is_integer()


def documented_row(scenario, variant, state, mirror, params):
    """`(labels, successor states)` of a non-terminal built-arena state, from
    the documented dynamics alone, in metres: the lead's track, the
    quantized headway and the sensor's perception set of its level, the
    rows of `mirror`, a fresh driver mirror, arbitration, and the follower's
    Euler step with its
    velocity clamped into [0, v_max].  Every position and velocity it reads
    or makes sits on the lattice."""
    if len(state) == 4:  # an environment state
        k, fp, fv, r = state
        lp, lv = scenario.lead_track[k]
        assert on_lattice(lp, lv) and on_lattice(fp, fv)
        thw, _ttc = headway_metrics(lp, lv, fp, fv)
        labels = sensor_perturb(quantize_thw(thw, params.thw_levels), scenario.sensor_offset,
                                params.num_levels)
        return labels, [(k, fp, fv, *mirror.rows[r][p]) for p in labels]
    k, fp, fv, q, dacc = state
    labels = VARIANT_ACTIONS[variant]
    cfg = scenario.supervisor_config()
    succs = []
    for action in labels:
        pos, vel = advance(fp, fv, arbitrate(action, dacc, cfg), scenario.epoch, scenario.v_max)
        assert on_lattice(pos, vel)
        succs.append((k + 1, pos, vel,
                      mirror.row_number[q, 1 if action == ACTION_HINT else 0]))
    return labels, succs


def documented_outcome(scenario, state):
    """The outcome of a built-arena state: an environment state is `BAD` once
    the follower reaches the lead, else `GOAL` once it reaches `dest`, else
    `HORIZON` at the horizon; every other state is `OPEN`."""
    if len(state) == 5:  # a controller state
        return OPEN
    k, fp, *_rest = state
    if fp >= scenario.lead_track[k][0]:
        return BAD
    if fp >= scenario.dest:
        return GOAL
    return HORIZON if k == scenario.horizon_epochs else OPEN


@settings(max_examples=80, deadline=None)
@given(scenario=lattice_scenarios(max_horizon=6), params=st.sampled_from(HINT_PARAMS),
       machine=st.sampled_from(("exact", "coarse")),
       variant=st.sampled_from(tuple(VARIANT_ACTIONS)))
def test_built_arena_follows_the_documented_dynamics(scenario, params, machine, variant):
    # every row, the ones the solver explored and then all the rest, is what
    # the documented dynamics give, numbered through the arena's index
    hm = abstractions(params)[machine]
    arena = build_arena(hm, scenario, params=params, variant=variant)
    mirror = AbstractDriver(hm, params)
    assert arena.states[arena.initial] == (
        0, scenario.follow_pos, scenario.follow_vel, mirror.row_number[hm.initial, 0])
    assert on_lattice(scenario.follow_pos, scenario.follow_vel)
    i = 0
    while i < arena.n_states:
        state = arena.states[i]
        assert arena.index[state] == i
        assert arena.turn[i] == (TURN_ENV if len(state) == 4 else TURN_CTRL)
        assert arena.outcome[i] == documented_outcome(scenario, state)
        targets = arena.successors(i)
        if arena.outcome[i]:
            assert arena.labels[i] == targets == ()
        else:
            labels, succs = documented_row(scenario, variant, state, mirror, params)
            assert arena.labels[i] == labels
            assert [arena.states[j] for j in targets] == succs
        i += 1
    assert len(arena.index) == arena.n_states == len(arena.won)


# one value off the lattice per checked field, in the order the check
# reports them, with the message that names it
OFF_LATTICE = (
    ({"epoch": 0.3}, "epoch 0.3 incompatible with the position lattice"),
    ({"acc_floor": -2.9}, "velocity increment for acc -1.45 is not on the arena lattice"),
    ({"lead_pos": 30.1}, "lead position 30.1 is not on the arena lattice"),
    ({"lead_vel": 10.1}, "lead velocity 10.1 is not on the arena lattice"),
    ({"dest": 40.1}, "dest 40.1 is not on the arena lattice"),
    ({"v_max": 16.1}, "v_max 16.1 is not on the arena lattice"),
    ({"follow_pos": 0.1}, "follow_pos 0.1 is not on the arena lattice"),
    ({"follow_vel": 10.1}, "follow_vel 10.1 is not on the arena lattice"),
)


def test_build_arena_rejects_off_lattice(oracle_machine):
    # with every field from one on off the lattice, that one is named
    for first, (_fields, message) in enumerate(OFF_LATTICE):
        changes = {}
        for fields, _message in OFF_LATTICE[first:]:
            changes.update(fields)
        with pytest.raises(ValueError, match=re.escape(message)):
            build_arena(oracle_machine, replace(mini_scenario(), **changes), DriverParams(),
                        "full")


@pytest.mark.parametrize("field,value,named", [
    ("follow_pos", 0.25 + 1e-12, "follow_pos"),
    ("dest", 150.25 + 1e-11, "dest"),
    ("lead_pos", 40.0 - 1e-12, "lead position"),
    ("follow_vel", 14.0 + 1e-13, "follow_vel"),
], ids=["follow_pos", "dest", "lead_pos", "follow_vel"])
def test_build_arena_rejects_near_lattice_values(oracle_machine, field, value, named):
    # a value a rounding error off the lattice is refused, not rounded onto it
    sc = replace(braking_scenario(), **{field: value})
    with pytest.raises(ValueError,
                       match=re.escape(f"{named} {value!r} is not on the arena lattice")):
        build_arena(oracle_machine, sc, DriverParams(), "full")


def test_build_arena_rejects_an_abstraction_output_off_the_lattice():
    params = DriverParams()
    hm = MealyMachine(params.levels(), {0: {level: (0, (FULL_CHAIN, 0.3))
                                            for level in params.levels()}}, initial=0)
    with pytest.raises(ValueError, match="velocity increment for acc 0.15 is not on"):
        build_arena(hm, mini_scenario(), params, "full")


def test_a_dest_near_the_lattice_no_longer_splits_game_and_co_simulation(oracle_machine):
    # `dest` 1e-11 m past 150.25 was rounded onto the lattice: the game took
    # a follower at 150.25 m as arrived, co-simulation did not, and seed 259
    # ran an epoch past the strategy into the fail-safe fallback
    params = DriverParams()
    near = replace(braking_scenario(), dest=150.25000000001)
    with pytest.raises(ValueError, match=r"dest 150\.25000000001 is not on the arena lattice"):
        build_arena(oracle_machine, near, params, "full")
    sc = replace(braking_scenario(), dest=150.25)
    strategy = synthesize(build_arena(oracle_machine, sc, params, "full"))
    trace, verdict = episode(strategy, sc, params, oracle_machine, 259)
    assert episode_passed(trace, verdict)


def test_built_arena_bipartite(oracle_machine):
    # env turn k -> ctrl turn k -> env turn k + 1: (k, turn) grows along every
    # edge, so the arena is acyclic, as the solver needs
    sc = mini_scenario(offset=1)
    arena = explore_all(build_arena(oracle_machine, sc, DriverParams(), "full"), sc)
    for i in range(arena.n_states):
        k = arena.states[i][0]
        step = (TURN_CTRL, k) if arena.turn[i] == TURN_ENV else (TURN_ENV, k + 1)
        for j in arena.successors(i):
            assert (arena.turn[j], arena.states[j][0]) == step


def test_default_arena_realizable(default_synthesis):
    arena, region, _strategy = default_synthesis
    assert realizable(arena, region)
    assert 0 < len(region) <= arena.n_states


# (scenario, variant) -> (realizable, explored states, solver iterations,
# explored edges, sha256 of `arena_stats_text`, and for realizable pairs the
# strategy's entries and the sha256 of its file), with the exact abstraction
SYNTHESIS_PINS = {
    ("default", "full"): (
        True, 1590, 1287, 3549,
        "168fa6155b4c9a91312c34953f6c7a599436c25dbb3aceb2a24daaf320ef03bd", 725,
        "ea493b6bcd683e609bb2e1c9307bf093089ce07560f103c2f3a3f99a31193200"),
    ("default", "no-override"): (
        False, 481, 377, 775,
        "765f09306a426c1037b62c11b0a9cc3b48ef24ba4c4a7f376248e5e129a90785"),
    ("default", "advisory-only"): (
        False, 481, 377, 526,
        "a36c4da1028767297a9a0de94282a36f92c43a143c69b9260e821384ad427d8a"),
    ("braking", "full"): (
        True, 42272, 34115, 98214,
        "75e20f5830400e50edc4c852c6351faca5be304161bcd778817226713b00a69d", 18098,
        "e393615269080d768538d2b24e4938e0b7dd87888ecdf2c79d4f96c9e9422c49"),
    ("braking", "no-override"): (
        False, 5568, 5045, 10866,
        "35df9722d5a810b46364504e464e8c13d52b68e16f1108859ad15b8aed28d8d1"),
    ("braking", "advisory-only"): (
        False, 5568, 5045, 7251,
        "0676db011077dd3f9fd8728b80c2d85966a87141bb60e111a55e09610f0b5d73"),
}

# template report of each realizable pair's strategy
TEMPLATE_PINS = {
    "default": ("states_visited=1144\nsafety=pass\n"
                "reachability=pass (goal_terminals=105, horizon_terminals=0)\n"
                "min_intervention=pass\n"),
    "braking": ("states_visited=26104\nsafety=pass\n"
                "reachability=pass (goal_terminals=1042, horizon_terminals=0)\n"
                "min_intervention=pass\n"),
}


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,variant", list(SYNTHESIS_PINS))
def test_synthesis_is_pinned(request, oracle_machine, driver_params, synthesis_counts,
                             name, variant):
    if variant == "full":
        arena, region, strategy = request.getfixturevalue(f"{name}_synthesis")
        got = (realizable(arena, region), *synthesis_counts[name], len(strategy.actions),
               sha256_text(serialize_strategy(strategy)))
    else:
        scenario = request.getfixturevalue(f"{name}_sc")
        arena = build_arena(oracle_machine, scenario, params=driver_params, variant=variant)
        got = (realizable(arena, arena.region), arena.n_states, arena.region.iterations,
               arena.n_edges, sha256_text(arena_stats_text(arena, arena.region)))
    assert got == SYNTHESIS_PINS[name, variant]


# params -> {(scenario, variant): sha256 of the strategy file, None when
# refuted}, with the exact abstraction: under each params set the six
# built-in pairs keep their verdict and strategy however the arena numbers
# its states (default params are pinned in SYNTHESIS_PINS)
STRATEGY_PINS = {
    HINT_PARAMS[1]: {
        ("default", "full"):
            "c03ca4e6dd4b5ff9d973a3a873635a33bb3a8c9c68c6677c1fea42fdbc240867",
        ("braking", "full"):
            "58df32b3430f8c2157a9d8fb67cb53a54a97ab770da063811c77933e4080177f",
    },
    DriverParams(k1=1.0, k2=1.0): {
        ("default", "full"):
            "4bdc13e81dd137bdecc2edeb2e0300ba602f79fef91bdca86ca45d1eeed28337",
        ("braking", "full"):
            "fc4c12b2521528a1a50e60b5e6c7b5e7fcaaf01e9421ddc984eae3369c522ab7",
    },
    DriverParams(thw_levels=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)): {
        ("default", "full"):
            "d8c08993984c3a073a8147e17b5f0547124ede7e57f694b2f3b77b9472894e7f",
        ("braking", "full"):
            "a5c4382002ae869700f42017352d554833980b85c6ac6c7d17ff550c6a73772a",
    },
}


@pytest.mark.parametrize("params", list(STRATEGY_PINS),
                         ids=["hint-params", "k1-k2-1", "eight-levels"])
@pytest.mark.parametrize("name,variant", list(SYNTHESIS_PINS))
def test_strategies_are_pinned_under_other_params(request, params, name, variant):
    scenario = request.getfixturevalue(f"{name}_sc")
    arena = build_arena(abstractions(params)["exact"], scenario, params, variant)
    strategy = synthesize(arena)
    got = strategy and sha256_text(serialize_strategy(strategy))
    assert got == STRATEGY_PINS[params].get((name, variant))


@pytest.mark.parametrize("name", sorted(TEMPLATE_PINS))
def test_template_report_is_pinned(request, name):
    arena, region, strategy = request.getfixturevalue(f"{name}_synthesis")
    assert certify(arena, strategy, region).text() == TEMPLATE_PINS[name]


def test_default_solver_matches_brute_force_on_subsample(oracle_machine):
    # brute force is quadratic; check agreement on a small built arena
    sc = mini_scenario(offset=1, horizon=5)
    arena = explore_all(build_arena(oracle_machine, sc, DriverParams(), "full"), sc)
    region = solve(arena)
    assert set(region_members(region)) == brute_force_region(arena)


def test_default_templates_pass(default_synthesis):
    arena, _region, strategy = default_synthesis
    report = check_templates(arena, strategy, solve(arena))
    assert report.safety_ok
    assert report.reach_ok
    assert report.min_intervention_ok
    assert report.goal_terminals > 0 and report.horizon_terminals == 0


def test_always_override_fails_minimal_intervention(default_synthesis):
    arena, _region, _strategy = default_synthesis
    report = check_templates(arena, ConstantStrategy("override"), solve(arena))
    assert not report.min_intervention_ok
    assert report.min_intervention_witness is not None


# (explored states after the solve, after the walk, report text) of
# `check_templates` with a constant override: it leaves the solver's plays,
# so the walk explores states numbered after it began
OVERRIDE_WALK_PINS = {
    "default": (1590, 1725,
                "states_visited=85\nsafety=pass\n"
                "reachability=FAIL (goal_terminals=0, horizon_terminals=1)\n"
                "min_intervention=FAIL\nmin_intervention_witness=(0, 0.0, 15.0, 3, 1)\n"),
    "braking": (42272, 42588,
                "states_visited=206\nsafety=pass\n"
                "reachability=FAIL (goal_terminals=0, horizon_terminals=2)\n"
                "min_intervention=FAIL\nmin_intervention_witness=(0, 0.0, 14.0, 2, -1)\n"),
}


@pytest.mark.parametrize("name", sorted(OVERRIDE_WALK_PINS))
def test_a_walk_that_explores_past_the_solve_is_pinned(request, oracle_machine, driver_params,
                                                       name):
    # a fresh arena: the session's may have been explored further
    scenario = request.getfixturevalue(f"{name}_sc")
    arena = build_arena(oracle_machine, scenario, driver_params, "full")
    solved = arena.n_states
    report = check_templates(arena, ConstantStrategy("override"), solve(arena))
    assert (solved, arena.n_states, report.text()) == OVERRIDE_WALK_PINS[name]


@pytest.mark.parametrize("name", ["default", "braking"])
def test_strategy_serialization_round_trip(request, name):
    _arena, _region, strategy = request.getfixturevalue(f"{name}_synthesis")
    text = serialize_strategy(strategy)
    again = parse_strategy(text)
    assert again.actions == strategy.actions
    assert again.variant == strategy.variant
    assert serialize_strategy(again) == text
    # a parsed strategy holds no object per line but its key tuple: the
    # actions are those of `ACTIONS`, and the keys share one float per value
    assert all(any(action is a for a in ACTIONS) for action in again.actions.values())
    for field in (1, 2):  # position, velocity
        values = [key[field] for key in again.actions]
        assert len({id(value) for value in values}) == len(set(values))
    # the text is read in pieces: line endings and line numbers past the
    # first piece read as in one piece
    assert parse_strategy(text.replace("\n", "\r\n")).actions == strategy.actions
    number = len(text.splitlines()) + 2  # after an empty line
    with pytest.raises(ValueError) as err:
        parse_strategy(text + "\n0 0 0 0 0 fly\n")
    assert str(err.value) == f"line {number}: unknown action 'fly': '0 0 0 0 0 fly'"


@settings(max_examples=100, deadline=None)
@given(pieces=st.lists(st.sampled_from(["0 0 30 0 0 none", "", " ", "\n", "\r\n", "\r",
                                        "\x0c", "\x1c", "\u2028", "\x85"]),
                       min_size=1, max_size=40),
       repeat=st.integers(min_value=1, max_value=3000))
def test_strategy_lines_split_as_splitlines(pieces, repeat):
    # long enough texts to cut in several pieces, at random places in a line
    text = "".join(pieces) * repeat
    assert list(game._lines(text)) == text.splitlines()


@pytest.mark.parametrize("fp, fv, named", [(0.1, 15.0, "strategy position 0.1"),
                                           (0.25, 15.2, "strategy velocity 15.2")],
                         ids=["position", "velocity"])
def test_serialize_strategy_refuses_a_key_off_the_lattice(fp, fv, named):
    # the file holds whole lattice units, so an off-lattice key is refused,
    # not truncated onto a neighbouring state
    strategy = Strategy({(0, fp, fv, 0, 0): "none"}, "full")
    with pytest.raises(ValueError, match=f"{named} is not on the arena lattice"):
        serialize_strategy(strategy)


def test_parse_strategy_rejects_garbage():
    with pytest.raises(ValueError):
        parse_strategy("")
    with pytest.raises(ValueError):
        parse_strategy("strategy v1 full 1\n1 2 3\n")
    with pytest.raises(ValueError):
        parse_strategy("strategy v1 full 1\n0 0 0 0 0 fly\n")
    with pytest.raises(ValueError, match="'0 0 30 0 0 none'"):
        parse_strategy("strategy v1 full 2\n0 0 30 0 0 override\n0 0 30 0 0 none\n")
    with pytest.raises(ValueError, match="expected 2 strategy lines, got 1"):
        parse_strategy("strategy v1 full 2\n0 0 30 0 0 none\n")


@pytest.mark.parametrize("text, message", [
    ("strategy v1 full 1\n\n0 a 30 0 0 none\n",
     "line 3: bad number in strategy line: '0 a 30 0 0 none'"),
    ("strategy v1 full 1\n0 0 30 0 fast none\n",
     "line 2: bad number in strategy line: '0 0 30 0 fast none'"),
    ("strategy v1 full one\n0 0 30 0 0 none\n",
     "line 1: bad strategy line count: 'strategy v1 full one'"),
    ("\nstrategy v1 bogus 1\n0 0 30 0 0 none\n",
     "line 2: unknown variant 'bogus': 'strategy v1 bogus 1'"),
    ("strategy v1 full 1\n0 0 30 0 nan none\n",
     "line 2: non-finite dacc in strategy line: '0 0 30 0 nan none'"),
    ("strategy v1 full 1\n0 0 30 0 inf none\n",
     "line 2: non-finite dacc in strategy line: '0 0 30 0 inf none'"),
    ("strategy v1 full 1\n0 0 30 0 -inf none\n",
     "line 2: non-finite dacc in strategy line: '0 0 30 0 -inf none'"),
    ("strategy v1 full 1\n\n0 0 30 0 1e400 none\n",
     "line 3: non-finite dacc in strategy line: '0 0 30 0 1e400 none'"),
    (f"strategy v1 full 1\n0 {10 ** 400} 30 0 0 none\n",
     f"line 2: bad number in strategy line: '0 {10 ** 400} 30 0 0 none'"),
], ids=["field", "dacc", "count", "variant", "nan", "inf", "-inf", "overflow",
        "position-overflow"])
def test_parse_strategy_names_the_bad_line(text, message):
    with pytest.raises(ValueError) as err:
        parse_strategy(text)
    assert str(err.value) == message


def test_arena_stats_text(default_synthesis):
    arena, region, _ = default_synthesis
    text = arena_stats_text(arena, region)
    assert "states=" in text and "winning_states=" in text
    assert "realizable=true" in text


def test_variant_restricts_actions(oracle_machine):
    sc = mini_scenario(offset=1)
    arena = explore_all(build_arena(oracle_machine, sc, DriverParams(), "no-override"), sc)
    labels = {a for i in range(arena.n_states) if arena.turn[i] == TURN_CTRL
              for a in arena.labels[i]}
    assert labels <= {"none", "hint"}
    arena2 = explore_all(build_arena(oracle_machine, sc, DriverParams(), "advisory-only"), sc)
    labels2 = {a for i in range(arena2.n_states) if arena2.turn[i] == TURN_CTRL
               for a in arena2.labels[i]}
    assert labels2 == {"hint"}


def test_from_graph_rejects_duplicate_controller_labels():
    nodes = {
        "c0": ("c", [("none", "g"), ("none", "b")]),
        "g": ("e", []),
        "b": ("e", []),
    }
    with pytest.raises(ValueError, match="'c0'"):
        arena_from_graph(nodes, bad={"b"}, goal={"g"}, initial="c0")


def test_solver_walks_deep_arenas_without_recursion():
    # a play far longer than Python's recursion limit, ending in a goal
    depth = 3 * sys.getrecursionlimit()
    nodes = {f"c{k}": ("c", [("none", f"e{k}")]) for k in range(depth)}
    nodes.update({f"e{k}": ("e", [("u", f"c{k + 1}")]) for k in range(depth - 1)})
    nodes[f"e{depth - 1}"] = ("e", [("u", "end")])
    nodes["end"] = ("e", [])
    arena = arena_from_graph(nodes, goal={"end"}, initial="c0")
    region = solve(arena)
    assert realizable(arena, region)
    assert len(region) == arena.n_states
    assert len(extract_strategy(arena, region).actions) == depth


def test_solver_rejects_a_cyclic_arena():
    # x and t lead to each other; the walk names a state on the cycle
    nodes = {
        "r": ("c", [("none", "x"), ("hint", "g")]),
        "x": ("e", [("u", "t"), ("v", "b")]),
        "t": ("c", [("none", "x")]),
        "g": ("e", []),
        "b": ("e", []),
    }
    arena = arena_from_graph(nodes, bad={"b"}, goal={"g"}, initial="r")
    with pytest.raises(ValueError, match="cycle through state 'x'"):
        solve(arena)


def test_built_arena_decides_only_what_the_initial_state_needs(oracle_machine):
    # a horizon of 8 epochs leaves time to reach `dest`, so the game is won
    sc = mini_scenario(offset=1, horizon=8)
    arena = build_arena(oracle_machine, sc, DriverParams(), "full")
    explored = arena.n_states
    assert realizable(arena, arena.region)
    assert explored < explore_all(arena, sc).n_states


SEVERITY = {"none": 0, "hint": 1, "override": 2}


@st.composite
def random_arenas(draw):
    """Well-formed random acyclic arenas: edges lead only to later-numbered
    nodes, unique labels per controller state, any bad/goal marking; plus a
    query order."""
    n = draw(st.integers(1, 9))
    nodes = {}
    for k in range(n):
        width = 3 if k < n - 1 else 0  # the last node has no later one
        if draw(st.booleans()):
            labels = draw(st.lists(st.sampled_from(("none", "hint", "override")),
                                   unique=True, max_size=width))
            turn = "c"
        else:
            labels = [f"u{m}" for m in range(draw(st.integers(0, width)))]
            turn = "e"
        nodes[f"s{k}"] = (turn, [(label, f"s{draw(st.integers(k + 1, n - 1))}")
                                 for label in labels])
    names = list(nodes)
    bad = draw(st.sets(st.sampled_from(names)))
    goal = draw(st.sets(st.sampled_from(names)))
    arena = arena_from_graph(nodes, bad=bad, goal=goal,
                            initial=draw(st.sampled_from(names)))
    return arena, draw(st.permutations(range(n)))


@settings(max_examples=150, deadline=None)
@given(random_arenas())
def test_local_solver_properties_on_random_arenas(case):
    arena, order = case
    expected = brute_force_region(arena)
    region = solve(arena)
    assert {i for i in order if i in region} == expected
    if not realizable(arena, region):
        return
    # every labelled state wins and gets its least severe winning label
    strategy = extract_strategy(arena, region)
    for state, action in strategy.actions.items():
        i = arena.index[state]
        assert i in expected
        winning = [label for label, j in zip(arena.labels[i], arena.successors(i))
                   if j in expected]
        assert action == min(winning, key=SEVERITY.get)
    certify(arena, strategy, region)


@settings(max_examples=150, deadline=None)
@given(random_arenas())
def test_template_check_flags_every_needless_escalation(case):
    # at each labelled state, picking a more severe action than the extracted
    # one (say `override` where `none` wins) must fail min-intervention there
    arena, _order = case
    region = solve(arena)
    if not realizable(arena, region):
        return
    extracted = extract_strategy(arena, region).actions
    # label every controller state, so the changed plays never leave the map
    base = {arena.states[i]: labels[0] for i, labels in enumerate(arena.labels)
            if arena.turn[i] == TURN_CTRL and labels}
    base.update(extracted)
    for state, action in extracted.items():
        for label in arena.labels[arena.index[state]]:
            if SEVERITY[label] > SEVERITY[action]:
                report = check_templates(arena, Strategy({**base, state: label}, "full"), region)
                assert not report.min_intervention_ok
                assert report.min_intervention_witness == state


@settings(max_examples=60, deadline=None)
@given(scenario=lattice_scenarios(max_horizon=8), params=st.sampled_from(HINT_PARAMS),
       machine=st.sampled_from(("exact", "coarse")),
       variant=st.sampled_from(tuple(VARIANT_ACTIONS)))
def test_extraction_report_is_the_template_check(scenario, params, machine, variant):
    # the walk that picks the actions reports what an independent template
    # check of the picked strategy reports, and labels exactly the
    # controller states that check asks about
    arena = build_arena(abstractions(params)[machine], scenario, params=params,
                        variant=variant)
    region = arena.region
    if not realizable(arena, region):
        return
    strategy = extract_strategy(arena, region)
    recording = RecordingStrategy(strategy)
    assert strategy.report.text() == check_templates(arena, recording, region).text()
    assert len(recording.asked) == len(set(recording.asked)) == len(strategy.actions)
    assert set(recording.asked) == set(strategy.actions)


@st.composite
def scenarios_with_dest_in_reach(draw, max_horizon):
    """Lattice scenarios whose `dest` lies ahead of the start, but no farther
    than the follower gets at its initial speed within the horizon (or one
    lattice step, if that is farther), so that enough draws are realizable
    for a property about won games to say something.  `dest` is drawn as the
    lattice steps it falls short of that point, so small draws put it where
    the follower must not slow down much."""
    scenario = draw(lattice_scenarios(max_horizon=max_horizon))
    reach = max(1, round(scenario.follow_vel * scenario.epoch * scenario.horizon_epochs
                         * POS_SCALE))
    short = draw(st.integers(0, reach - 1))
    return replace(scenario, dest=scenario.follow_pos + (reach - short) / POS_SCALE)


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios_with_dest_in_reach(max_horizon=12),
       params=st.sampled_from(HINT_PARAMS), variant=st.sampled_from(tuple(VARIANT_ACTIONS)))
def test_realizable_strategies_pass_co_simulation(scenario, params, variant):
    # the game and `monitor` decide one objective: every seeded episode of a
    # certified strategy on the exact machine passes unless the strategy lost
    # track of the driver; under default params it never does
    hm = abstractions(params)["exact"]
    strategy = synthesize(build_arena(hm, scenario, params, variant))
    if strategy is None:
        event("unrealizable")
        return
    event("realizable")
    for seed in range(10):
        trace, verdict = episode(strategy, scenario, params, hm, seed)
        if trace.lookup_misses:
            event("episode with a lookup miss")
            assert params != DriverParams()
        else:
            assert episode_passed(trace, verdict)


def synthesized_texts(hm, scenario, params, variant, check_driver):
    """`arena_stats_text` and the extracted strategy's text (None when lost)
    of one synthesis, the template walk included."""
    arena = build_arena(hm, scenario, params, variant, check_driver=check_driver)
    region = arena.region
    strategy = extract_strategy(arena, region) if realizable(arena, region) else None
    return (arena_stats_text(arena, region),
            strategy and serialize_strategy(strategy) + strategy.report.text())


@settings(max_examples=40, deadline=None)
@given(scenario=lattice_scenarios(max_horizon=12), params=st.sampled_from(HINT_PARAMS),
       variant=st.sampled_from(tuple(VARIANT_ACTIONS)))
def test_driver_check_never_fires_on_the_exact_machine(scenario, params, variant):
    # hint-free paths of the exact machine are the driver's: the check only
    # watches, and synthesis explores, solves and extracts what it does unchecked
    hm = abstractions(params)["exact"]
    assert synthesized_texts(hm, scenario, params, variant, True) == \
        synthesized_texts(hm, scenario, params, variant, False)


@settings(max_examples=80, deadline=None)
@given(scenario=lattice_scenarios(max_horizon=16), params=st.sampled_from(HINT_PARAMS),
       variant=st.sampled_from(tuple(VARIANT_ACTIONS)))
def test_driver_check_reports_only_words_that_tell_the_driver_apart(scenario, params,
                                                                   variant):
    # a reported word replays without hints: the 2-state abstraction and a
    # fresh driver agree on every output, rule chain and acceleration, but
    # the last, so injecting it cannot raise `NotDistinguishing`; with no
    # disagreement the check changes nothing
    hm = abstractions(params)["coarse"]
    try:
        checked = synthesized_texts(hm, scenario, params, variant, True)
    except DriverDisagrees as err:
        event("disagreement")
        assert err.word and set(err.word) <= set(params.levels())
        driver = CognitiveDriver(params)
        real = [driver.query(p) for p in err.word]
        predicted = list(hm.run(err.word))
        assert predicted[:-1] == real[:-1] and predicted[-1] != real[-1]
        assert err.explored > len(err.word)
        return
    event("no disagreement")
    assert checked == synthesized_texts(hm, scenario, params, variant, False)


def test_driver_check_follows_the_abstraction_state_of_the_path(
        oracle_machine, default_sc, driver_params):
    # states 3, 4, 7 and 8 of the exact default machine give one mirror row,
    # so one environment state stands for all four; they differ only in the
    # rule chain of a repeated level.  A wrong chain there at state 7 leaves
    # the mirror and the arena as they are: only the abstraction state that
    # the check carries along the path can see it, not the first or the last
    # state of the row
    hm, q = oracle_machine, 7
    mirror = AbstractDriver(hm, driver_params)
    number = mirror.row_number
    assert {s for (s, _h), r in number.items() if r == number[q, 0]} == {3, 4, 7, 8}
    [(level, (succ, (chain, acc)))] = [(p, entry) for p, entry in hm.delta[q].items()
                                        if entry[1][0] != FULL_CHAIN]
    delta = {s: dict(row) for s, row in hm.delta.items()}
    delta[q][level] = (succ, (chain[::-1], acc))
    wrong = MealyMachine(hm.inputs, delta, initial=hm.initial)
    wrong_mirror = AbstractDriver(wrong, driver_params)
    assert (wrong_mirror.rows, wrong_mirror.row_number) == (mirror.rows, mirror.row_number)
    assert build_arena(wrong, default_sc, driver_params, "full").states == \
        build_arena(hm, default_sc, driver_params, "full").states
    with pytest.raises(DriverDisagrees) as caught:
        build_arena(wrong, default_sc, driver_params, "full", check_driver=True)
    word = caught.value.word
    state = hm.initial
    for p in word[:-1]:
        state = hm.step(state, p)[0]
    assert (state, word[-1]) == (q, level)
    predicted, real = wrong.run(word), hm.run(word)  # the exact machine's are the driver's
    assert predicted[:-1] == real[:-1] and predicted[-1] != real[-1]


def test_driver_check_hands_on_to_a_state_a_hint_edge_numbered_first(
        oracle_machine, driver_params):
    # `e` is numbered by c1's hint edge, then reached from c2 without a hint
    # before it is explored: it is checked on c2's path, where the
    # abstraction's rule chain at state 2 for level 2 is wrong
    delta = {s: dict(row) for s, row in oracle_machine.delta.items()}
    succ, (chain, acc) = delta[2][2]
    delta[2][2] = (succ, (chain[::-1], acc))
    wrong = MealyMachine(oracle_machine.inputs, delta, initial=oracle_machine.initial)
    nodes = {  # name -> (turn, outcome, [(label, successor)])
        "s0": (TURN_ENV, OPEN, [(1, "c1"), (2, "c2")]),
        "c1": (TURN_CTRL, OPEN, [("none", "goal"), ("hint", "e")]),
        "c2": (TURN_CTRL, OPEN, [("none", "e")]),
        "e": (TURN_ENV, OPEN, [(2, "c3")]),
        "c3": (TURN_CTRL, OPEN, []),
        "goal": (TURN_ENV, GOAL, []),
    }

    def explore(arena, i):
        _turn, _outcome, edges = nodes[arena.states[i]]
        succs = tuple(arena.index[t] if t in arena.index else arena.add(t, *nodes[t][:2])
                      for _label, t in edges)
        return tuple(label for label, _t in edges), succs

    arena = GameArena(game._driver_checked(explore, wrong, driver_params), "full")
    arena.initial = arena.add("s0", TURN_ENV, OPEN)
    for name in ("s0", "c1", "c2"):
        arena.successors(arena.index[name])
    with pytest.raises(DriverDisagrees) as caught:
        arena.successors(arena.index["e"])
    assert caught.value.word == (2, 2)


@pytest.fixture
def template_walks(monkeypatch):
    """The calls `certify` makes to `check_templates`, counted."""
    calls = []
    walk = game.check_templates

    def counting(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(game, "check_templates", counting)
    return calls


def test_certify_reuses_the_report_of_its_own_extraction(default_synthesis, template_walks):
    arena, region, strategy = default_synthesis
    assert certify(arena, strategy, region) is strategy.report
    assert template_walks == []


def test_certify_walks_a_copy_of_an_extracted_strategy(default_synthesis, template_walks):
    arena, region, strategy = default_synthesis
    copy = Strategy(dict(strategy.actions), strategy.variant)
    assert certify(arena, copy, region).text() == strategy.report.text()
    assert len(template_walks) == 1


def test_certify_walks_an_extracted_strategy_on_another_arena(
        default_synthesis, oracle_machine, default_sc, driver_params, template_walks):
    _arena, _region, strategy = default_synthesis
    other = build_arena(oracle_machine, default_sc, driver_params, "full")
    assert certify(other, strategy, other.region).text() == strategy.report.text()
    assert len(template_walks) == 1


def test_certify_walks_a_stub_strategy(default_synthesis, template_walks):
    arena, region, _strategy = default_synthesis
    with pytest.raises(StrategyRejected, match="min_intervention=FAIL"):
        certify(arena, ConstantStrategy("override"), region)
    assert len(template_walks) == 1


def test_extracted_actions_are_read_only(default_synthesis):
    # so that the report the extraction attached cannot go stale
    _arena, _region, strategy = default_synthesis
    state = next(iter(strategy.actions))
    with pytest.raises(TypeError):
        strategy.actions[state] = "override"
