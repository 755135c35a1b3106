import functools
import hashlib
import sys

import pytest
from hypothesis import event, given, settings, strategies as st

from sharedctrl import game
from sharedctrl.driver import CognitiveDriver, DriverParams, explicit_machine
from sharedctrl.game import (
    AbstractDriver,
    ArenaCapExceeded,
    DriverDisagrees,
    POS_SCALE,
    Strategy,
    StrategyRejected,
    TURN_CTRL,
    TURN_ENV,
    Unrealizable,
    VARIANT_ACTIONS,
    VEL_SCALE,
    arena_stats_text,
    build_arena,
    certify,
    check_templates,
    extract_strategy,
    lead_trajectory,
    minimal_intervention,
    parse_strategy,
    realizable,
    serialize_strategy,
    solve,
)
from sharedctrl.lstar import EqOracleConfig, LearningSession, RandomWalkOracle
from sharedctrl.mealy import AlphabetMismatch, MealyMachine, minimize
from sharedctrl.scenario import Scenario
from sharedctrl.supervisor import ACTION_HINT, arbitrate
from sharedctrl.world import LeadProfile, advance, headway_metrics, quantize_thw

from conftest import (
    ConstantStrategy, RecordingStrategy, arena_from_graph, lattice_scenarios, region_members,
)


def brute_force_region(arena):
    """Naive set-based greatest fixpoint; the oracle for `solve`.

    Bad states lose (precedence over goal); non-bad goal states and safe
    terminals win; interior states follow the exists/forall rule until the
    set stabilizes.
    """
    win = [not arena.bad[i] for i in range(arena.n_states)]
    changed = True
    while changed:
        changed = False
        for i in range(arena.n_states):
            if not win[i] or arena.goal[i] or arena.terminal[i]:
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


def test_minimal_intervention_predicate():
    assert minimal_intervention("override", ["override"])
    assert not minimal_intervention("override", ["hint", "override"])
    assert not minimal_intervention("hint", ["none", "hint"])
    assert minimal_intervention("none", ["none", "hint", "override"])
    assert minimal_intervention("b", ["a", "b"])  # fixture labels rank alike


def test_templates_accept_forced_override():
    # override is the only winning action at c0, so it is minimal
    arena = fixture_override_needed()
    region = solve(arena)
    report = certify(arena, extract_strategy(arena, region), region)
    assert report.safety_ok
    assert report.min_intervention_ok


def test_templates_reject_needless_override():
    # none also wins at c0, so overriding there is not minimal
    arena = fixture_severity_preference()
    strategy = Strategy({"c0": "override"}, "full")
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
        if arena.terminal[i]:
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


def explore_all(arena):
    """Expand every reachable state of a lazily explored arena, so that
    structure checks see the whole arena and not just what deciding the
    initial state needed."""
    i = 0
    while i < arena.n_states:
        arena.successors(i)
        i += 1
    assert all(es is not None for es in arena.edges)
    # non-trivial: the expansion reached the horizon through a full-depth play
    horizon = arena.meta["scenario"].horizon_epochs
    assert any(s[1] == horizon for s in arena.states)
    return arena


def test_build_arena_zero_offset_collapses_sensor(oracle_machine):
    arena = explore_all(build_arena(oracle_machine, mini_scenario(offset=0), DriverParams(),
                                    "full"))
    for i in range(arena.n_states):
        if arena.turn[i] == TURN_ENV and not arena.terminal[i]:
            assert len(arena.edges[i]) == 1


def test_build_arena_offset_one_branches(oracle_machine):
    arena = explore_all(build_arena(oracle_machine, mini_scenario(offset=1), DriverParams(),
                                    "full"))
    widths = {len(arena.edges[i]) for i in range(arena.n_states)
              if arena.turn[i] == TURN_ENV and not arena.terminal[i]}
    assert widths <= {2, 3}
    assert 2 in widths or 3 in widths


def test_built_arena_shares_one_label_row_per_state(oracle_machine):
    # labels are never per edge: an explored state holds the variant's action
    # tuple or one of the scenario's perception rows, position by position
    # with its successors' numbers
    arena = explore_all(build_arena(oracle_machine, mini_scenario(offset=1), DriverParams(),
                                    "no-override"))
    actions = VARIANT_ACTIONS["no-override"]
    rows = arena.meta["scenario"].perceptions(arena.meta["driver"].params.num_levels)
    assert len(arena.won) == arena.n_states
    for i in range(arena.n_states):
        labels, targets = arena.labels[i], arena.edges[i]
        if arena.terminal[i]:
            assert labels == targets == ()
        elif arena.turn[i] == TURN_CTRL:
            assert labels is actions
        else:
            assert any(labels is row for row in rows.values())
        assert len(labels) == len(targets)
        assert all(type(j) is int for j in targets)


def test_build_arena_no_bad_goal_overlap(oracle_machine, default_sc):
    arena = build_arena(oracle_machine, default_sc, DriverParams(), "full")
    assert not any(b and g for b, g in zip(arena.bad, arena.goal))


def test_build_arena_alphabet_mismatch(default_sc):
    wrong = MealyMachine((1, 2), {0: {1: (0, "x"), 2: (0, "y")}})
    with pytest.raises(AlphabetMismatch):
        build_arena(wrong, default_sc, DriverParams(), "full")


def test_build_arena_state_cap(oracle_machine, default_sc):
    with pytest.raises(ArenaCapExceeded):
        build_arena(oracle_machine, default_sc, DriverParams(), "full", state_cap=100)


def test_build_arena_state_cap_boundary(oracle_machine, default_sc, driver_params):
    # the pinned default/full build explores exactly 2942 states
    arena = build_arena(oracle_machine, default_sc, driver_params, "full", state_cap=2942)
    assert arena.n_states == 2942 and realizable(arena, arena.region)
    with pytest.raises(ArenaCapExceeded, match=r"^arena exceeds 2941 states$"):
        build_arena(oracle_machine, default_sc, driver_params, "full", state_cap=2941)


# default params, and params whose hinted re-deliberation changes the
# driver's acceleration, so that a hint changes the successor
HINT_PARAMS = (DriverParams(), DriverParams(k1=0.5, k2=1.0, thw_levels=(1.5, 3.0)))


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


def documented_row(arena, state, hm, params):
    """`(labels, successor states)` of a non-terminal built-arena state, from
    the documented dynamics alone: the lead's lattice track, the quantized
    headway and the sensor's perception set of its level, a fresh driver
    mirror, arbitration, and the follower's Euler step with its velocity
    clamped into [0, v_max]."""
    scenario, variant = arena.meta["scenario"], arena.meta["variant"]
    if state[0] == TURN_ENV:
        _, k, fp, fv, q, hinted = state
        lp, lv = lead_trajectory(scenario)[k]
        thw, _ttc = headway_metrics(lp / POS_SCALE, lv / VEL_SCALE,
                                    fp / POS_SCALE, fv / VEL_SCALE)
        labels = scenario.perceptions(params.num_levels)[quantize_thw(thw, params.thw_levels)]
        mirror = AbstractDriver(hm, params)
        return labels, [(TURN_CTRL, k, fp, fv, *mirror.step(q, hinted, p)[:2])
                        for p in labels]
    _, k, fp, fv, q, dacc = state
    labels = VARIANT_ACTIONS[variant]
    cfg = scenario.supervisor_config()
    succs = []
    for action in labels:
        pos, vel = advance(fp / POS_SCALE, fv / VEL_SCALE, arbitrate(action, dacc, cfg),
                           scenario.epoch, scenario.v_max)
        assert (pos * POS_SCALE).is_integer() and (vel * VEL_SCALE).is_integer()
        succs.append((TURN_ENV, k + 1, int(pos * POS_SCALE), int(vel * VEL_SCALE), q,
                      1 if action == ACTION_HINT else 0))
    return labels, succs


def documented_flags(arena, state):
    """`(bad, goal, terminal)` of a built-arena state: an environment state
    is bad once the follower reaches the lead, a goal once it reaches `dest`
    without being bad, and terminal when either holds or at the horizon."""
    if state[0] == TURN_CTRL:
        return False, False, False
    scenario = arena.meta["scenario"]
    _, k, fp, *_rest = state
    bad = fp / POS_SCALE >= scenario.lead_track[k][1]
    goal = not bad and fp / POS_SCALE >= scenario.dest
    return bad, goal, bad or goal or k == scenario.horizon_epochs


@settings(max_examples=80, deadline=None)
@given(scenario=lattice_scenarios(max_horizon=6), params=st.sampled_from(HINT_PARAMS),
       machine=st.sampled_from(("exact", "coarse")),
       variant=st.sampled_from(tuple(VARIANT_ACTIONS)))
def test_built_arena_follows_the_documented_dynamics(scenario, params, machine, variant):
    # every row, the ones the solver explored and then all the rest, is what
    # the documented dynamics give, numbered through the arena's index
    hm = abstractions(params)[machine]
    arena = build_arena(hm, scenario, params=params, variant=variant)
    assert arena.states[arena.initial] == (
        TURN_ENV, 0, round(scenario.follow_pos * POS_SCALE),
        round(scenario.follow_vel * VEL_SCALE), hm.initial, 0)
    i = 0
    while i < arena.n_states:
        state = arena.states[i]
        assert arena.index[state] == i and arena.turn[i] == state[0]
        assert (arena.bad[i], arena.goal[i], arena.terminal[i]) == \
            documented_flags(arena, state)
        targets = arena.successors(i)
        if arena.terminal[i]:
            assert arena.labels[i] == targets == ()
        else:
            labels, succs = documented_row(arena, state, hm, params)
            assert arena.labels[i] == labels
            assert [arena.states[j] for j in targets] == succs
        i += 1
    assert len(arena.index) == arena.n_states == len(arena.won)


def test_build_arena_rejects_off_lattice(oracle_machine):
    from dataclasses import replace
    bad_sc = replace(mini_scenario(), epoch=0.3)
    with pytest.raises(ValueError):
        build_arena(oracle_machine, bad_sc, DriverParams(), "full")
    # the game reads the float lead track, each point checked onto the lattice
    sc = mini_scenario()
    assert lead_trajectory(sc) == [(round(pos * 4), round(vel * 2))
                                   for _t, pos, vel, _acc in sc.lead_track]
    with pytest.raises(ValueError, match="lead position .* is not on the arena lattice"):
        lead_trajectory(replace(sc, lead_pos=sc.lead_pos + 0.1))


def test_built_arena_bipartite(oracle_machine):
    # env turn k -> ctrl turn k -> env turn k + 1: (k, turn) grows along every
    # edge, so the arena is acyclic, as the solver needs
    arena = explore_all(build_arena(oracle_machine, mini_scenario(offset=1), DriverParams(),
                                    "full"))
    for i in range(arena.n_states):
        k = arena.states[i][1]
        step = (TURN_CTRL, k) if arena.turn[i] == TURN_ENV else (TURN_ENV, k + 1)
        for j in arena.successors(i):
            assert (arena.turn[j], arena.states[j][1]) == step


def test_default_arena_realizable(default_synthesis):
    arena, region, _strategy = default_synthesis
    assert realizable(arena, region)
    assert 0 < len(region) <= arena.n_states


# (scenario, variant) -> (realizable, explored states, solver iterations,
# explored edges, sha256 of `arena_stats_text`, and for realizable pairs the
# strategy's entries and the sha256 of its file), with the exact abstraction
SYNTHESIS_PINS = {
    ("default", "full"): (
        True, 2942, 1709, 4546,
        "bd88a735415b71c4169c3121ea7872f757f05241e8003104268cbc9c718cc58a", 725,
        "ea493b6bcd683e609bb2e1c9307bf093089ce07560f103c2f3a3f99a31193200"),
    ("default", "no-override"): (
        False, 776, 419, 874,
        "30dda990e186f8b38dab3fd6647d56590a4144403e38fc8bdae7a9981a6932c0"),
    ("default", "advisory-only"): (
        False, 527, 400, 572,
        "a8a1f392e27fdc80b437fefa9ddb85dcca74d63d6e4376465159f6adde4fbe95"),
    ("braking", "full"): (
        True, 79030, 50102, 141921,
        "337518040272f69bbe2a6fe609ec5de0f3076af0ba65b80b6eede30ec0688738", 18098,
        "e393615269080d768538d2b24e4938e0b7dd87888ecdf2c79d4f96c9e9422c49"),
    ("braking", "no-override"): (
        False, 10867, 6287, 14143,
        "0d4d4630ee85dc942029254472f5ee3391771396c855a840a8f420dd220791e1"),
    ("braking", "advisory-only"): (
        False, 7252, 6264, 10475,
        "55580c9ccf5e12e3ea473836b11d9ac96c888d28cb07cb4b4968d49af623ac0e"),
}

# template report of each realizable pair's strategy
TEMPLATE_PINS = {
    "default": ("states_visited=1421\nsafety=pass\n"
                "reachability=pass (goal_terminals=158, horizon_terminals=0)\n"
                "min_intervention=pass\nresponse=pass\n"),
    "braking": ("states_visited=35133\nsafety=pass\n"
                "reachability=pass (goal_terminals=2022, horizon_terminals=0)\n"
                "min_intervention=pass\nresponse=pass\n"),
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


@pytest.mark.parametrize("name", sorted(TEMPLATE_PINS))
def test_template_report_is_pinned(request, name):
    arena, region, strategy = request.getfixturevalue(f"{name}_synthesis")
    assert certify(arena, strategy, region).text() == TEMPLATE_PINS[name]


def test_default_solver_matches_brute_force_on_subsample(oracle_machine):
    # brute force is quadratic; check agreement on a small built arena
    arena = explore_all(build_arena(oracle_machine, mini_scenario(offset=1, horizon=5),
                                    DriverParams(), "full"))
    region = solve(arena)
    assert set(region_members(region)) == brute_force_region(arena)


def test_default_templates_pass(default_synthesis):
    arena, _region, strategy = default_synthesis
    report = check_templates(arena, strategy, solve(arena))
    assert report.safety_ok
    assert report.reach_ok
    assert report.min_intervention_ok
    assert report.response_ok
    assert report.goal_terminals > 0 and report.horizon_terminals == 0


def test_always_override_fails_minimal_intervention(default_synthesis):
    arena, _region, _strategy = default_synthesis
    report = check_templates(arena, ConstantStrategy("override"), solve(arena))
    assert not report.min_intervention_ok
    assert report.min_intervention_witness is not None


def test_always_hint_keeps_response_property(default_synthesis):
    arena, _region, _strategy = default_synthesis
    report = check_templates(arena, ConstantStrategy("hint"), solve(arena))
    assert report.response_ok  # hinted edges always re-deliberate


def test_strategy_serialization_round_trip(default_synthesis):
    _arena, _region, strategy = default_synthesis
    text = serialize_strategy(strategy)
    again = parse_strategy(text)
    assert again.actions == strategy.actions
    assert again.variant == strategy.variant
    assert serialize_strategy(again) == text


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
], ids=["field", "dacc", "count", "variant", "nan", "inf", "-inf", "overflow"])
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
    arena = explore_all(build_arena(oracle_machine, sc, DriverParams(), "no-override"))
    labels = {a for i in range(arena.n_states) if arena.turn[i] == TURN_CTRL
              for a in arena.labels[i]}
    assert labels <= {"none", "hint"}
    arena2 = explore_all(build_arena(oracle_machine, sc, DriverParams(), "advisory-only"))
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
    # a play far longer than Python's recursion limit, ending in a terminal
    depth = 3 * sys.getrecursionlimit()
    nodes = {f"c{k}": ("c", [("none", f"e{k}")]) for k in range(depth)}
    nodes.update({f"e{k}": ("e", [("u", f"c{k + 1}")]) for k in range(depth - 1)})
    nodes[f"e{depth - 1}"] = ("e", [("u", "end")])
    nodes["end"] = ("e", [])
    arena = arena_from_graph(nodes, initial="c0")
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
    arena = build_arena(oracle_machine, mini_scenario(offset=1), DriverParams(), "full")
    explored = arena.n_states
    assert realizable(arena, arena.region)
    assert explored < explore_all(arena).n_states


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
    # fresh driver agree on every acceleration but the last, so injecting it
    # cannot raise `NotDistinguishing`; with no disagreement the check
    # changes nothing
    hm = abstractions(params)["coarse"]
    try:
        checked = synthesized_texts(hm, scenario, params, variant, True)
    except DriverDisagrees as err:
        event("disagreement")
        assert err.word and set(err.word) <= set(params.levels())
        driver = CognitiveDriver(params)
        real = [driver.query(p)[1] for p in err.word]
        predicted = [acc for _chain, acc in hm.run(err.word)]
        assert predicted[:-1] == real[:-1] and predicted[-1] != real[-1]
        assert err.explored > len(err.word)
        return
    event("no disagreement")
    assert checked == synthesized_texts(hm, scenario, params, variant, False)


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
