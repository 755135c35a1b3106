import csv
import gc
import hashlib
import math
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from sharedctrl import cosim
from sharedctrl.cosim import (
    ACTION_MODE,
    RefineLoopConfig,
    SimTrace,
    TraceRow,
    Verdict,
    derive_seed,
    episode,
    episode_passed,
    epoch_context,
    execute,
    learning_session,
    monitor,
    refine,
    refine_loop,
    safe_now,
    synthesize,
    write_trace_csv,
    STATUS_GOAL,
    STATUS_MIN_INTERVENTION,
    STATUS_PASS,
    STATUS_RESPONSE,
    STATUS_SAFETY,
    TRACE_COLUMNS,
)
from sharedctrl.driver import (
    CognitiveDriver, DriverParams, FULL_CHAIN, SHORT_CHAIN, explicit_machine,
)
from sharedctrl.game import (
    ACTION_HINT, ACTION_OVERRIDE, BAD, GOAL, HORIZON, OPEN, AbstractDriver, POS_SCALE, Strategy,
    VEL_SCALE, build_arena, parse_strategy, realizable, serialize_strategy,
)
from sharedctrl.lstar import EqOracleConfig, LearningSession, RandomWalkOracle
from sharedctrl.mealy import equivalent, minimize, serialize
from sharedctrl.scenario import Scenario, braking_scenario, default_scenario
from sharedctrl.world import VehicleState, WorldState, judge

from conftest import ConstantStrategy, RecordingStrategy, euler_step, lattice_scenarios, lead_acc


def run_once(strategy, scenario, params, hm, seed=0):
    sul = CognitiveDriver(params)
    cfg = scenario.supervisor_config()
    return execute(strategy, sul, scenario, cfg, seed, hm, params)


def edge_scenario(follow_pos, dest, horizon=6):
    """A lattice scenario whose follower starts at `follow_pos`, the lead at
    30 m.  `Scenario` refuses a start at or past the lead or `dest`, so such
    a start is placed directly."""
    sc = Scenario(name="edge", lead_pos=30.0, lead_vel=10.0, follow_vel=10.0, dest=dest,
                  horizon_epochs=horizon, sensor_offset=0, v_max=16.0)
    if follow_pos < min(sc.lead_pos, dest):
        return replace(sc, follow_pos=follow_pos)
    object.__setattr__(sc, "follow_pos", follow_pos)
    return sc


@pytest.mark.parametrize("follow_pos, dest, horizon, outcome", [
    (30.0, 40.0, 6, BAD),       # at the lead
    (20.0, 20.0, 6, GOAL),      # at dest, below the lead
    (30.0, 30.0, 6, BAD),       # at both: overtaken, so not reached
    (19.75, 20.0, 6, OPEN),     # one lattice step short of dest
    (19.75, 20.0, 0, HORIZON),  # short of dest with no epoch left
])
def test_game_episode_and_monitor_judge_the_start_alike(follow_pos, dest, horizon, outcome,
                                                        oracle_machine, driver_params):
    sc = edge_scenario(follow_pos, dest, horizon)
    overtaken, reached = judge(sc.follow_pos, sc.lead_pos, sc.dest)
    assert (overtaken, reached) == (outcome == BAD, outcome == GOAL)
    stops = outcome != OPEN
    arena = build_arena(oracle_machine, sc, driver_params, "full")
    assert arena.outcome[arena.initial] == outcome
    if stops:  # a terminal start wins exactly at a goal
        assert realizable(arena, arena.region) == (outcome == GOAL)
    assert (epoch_context(sc, driver_params, 0, sc.follow_pos, sc.follow_vel) == ()) == \
        (overtaken or reached)
    trace = run_once(ConstantStrategy("none"), sc, driver_params, oracle_machine)
    assert (trace.rows == []) == stops
    start = WorldState(VehicleState(sc.lead_pos, sc.lead_vel),
                       VehicleState(sc.follow_pos, sc.follow_vel))
    verdict = monitor(SimTrace([], start), sc.dest,
                      sc.supervisor_config().thresholds)
    assert verdict.status == (STATUS_SAFETY if overtaken else
                              STATUS_PASS if reached else STATUS_GOAL)


def test_execute_default_strategy_safe(default_synthesis, default_sc,
                                       driver_params, oracle_machine):
    _arena, _region, strategy = default_synthesis
    trace = run_once(strategy, default_sc, driver_params, oracle_machine)
    assert trace.lookup_misses == 0
    assert trace.rows
    for row in trace.rows:
        assert row.follow_pos < row.lead_pos
    assert trace.final_world.follow.pos >= default_sc.dest
    verdict = monitor(trace, default_sc.dest, default_sc.supervisor_config().thresholds)
    assert verdict.status == STATUS_PASS


def test_execute_trace_row_consistency(default_synthesis, default_sc,
                                       driver_params, oracle_machine):
    _arena, _region, strategy = default_synthesis
    cfg = default_sc.supervisor_config()
    trace = run_once(strategy, default_sc, driver_params, oracle_machine, seed=3)
    for row in trace.rows:
        if row.mode == ACTION_MODE[ACTION_OVERRIDE]:
            assert cfg.acc_floor <= row.applied_acc <= cfg.acc_cap
        else:
            assert row.applied_acc == row.driver_acc
        assert row.rule_chain in (FULL_CHAIN, SHORT_CHAIN)


def test_execute_seed_determinism(default_synthesis, default_sc,
                                  driver_params, oracle_machine):
    _arena, _region, strategy = default_synthesis
    t1 = run_once(strategy, default_sc, driver_params, oracle_machine, seed=17)
    t2 = run_once(strategy, default_sc, driver_params, oracle_machine, seed=17)
    assert t1.rows == t2.rows


def test_execute_stub_crashes_on_braking(braking_sc, driver_params, oracle_machine):
    crashed = 0
    for r in range(5):
        trace = run_once(ConstantStrategy("none"), braking_sc, driver_params,
                         oracle_machine, seed=derive_seed(0, f"stub{r}"))
        verdict = monitor(trace, braking_sc.dest, braking_sc.supervisor_config().thresholds)
        if verdict.status == STATUS_SAFETY:
            crashed += 1
            assert verdict.witness is not None
    assert crashed > 0


def test_execute_zero_epoch_scenario(driver_params, oracle_machine):
    # `Scenario` refuses a start at `dest`, so it is placed directly
    sc = Scenario(name="done", lead_pos=20.0, lead_vel=10.0, follow_pos=-1.0,
                  follow_vel=10.0, dest=0.0, horizon_epochs=0, v_max=16.0)
    object.__setattr__(sc, "follow_pos", 0.0)
    trace = run_once(ConstantStrategy("none"), sc, driver_params, oracle_machine)
    assert trace.rows == []
    verdict = monitor(trace, sc.dest, sc.supervisor_config().thresholds)
    assert verdict.status == STATUS_PASS


def _row(**kw):
    base = dict(t=0.0, lead_pos=50.0, lead_vel=10.0, follow_pos=0.0,
                follow_vel=10.0, thw=5.0, ttc=math.inf, mode="Nominal",
                driver_acc=0, applied_acc=0, action="none",
                perceived_level=4, rule_chain=FULL_CHAIN)
    base.update(kw)
    return TraceRow(**base)


def _trace(rows, final_gap=10.0, final_pos=200.0):
    final = WorldState(VehicleState(final_pos + final_gap, 10.0), VehicleState(final_pos, 10.0))
    return SimTrace(rows, final)


def test_monitor_flags_overtake_row():
    rows = [_row(), _row(t=0.5, follow_pos=60.0)]
    verdict = monitor(_trace(rows), 150.0, default_scenario().supervisor_config().thresholds)
    assert verdict.status == STATUS_SAFETY
    assert verdict.witness == 1


def test_monitor_flags_final_world_overtake():
    trace = _trace([_row()], final_gap=-1.0)
    verdict = monitor(trace, 150.0, default_scenario().supervisor_config().thresholds)
    assert verdict.status == STATUS_SAFETY
    assert verdict.witness == 1  # one past the last row


def test_monitor_goal_not_reached():
    trace = _trace([_row()], final_pos=100.0)
    verdict = monitor(trace, 150.0, default_scenario().supervisor_config().thresholds)
    assert verdict.status == STATUS_GOAL


def test_monitor_min_intervention_violation():
    rows = [_row(mode="Intervention", thw=math.inf, ttc=math.inf,
                 action="override", applied_acc=-1)]
    verdict = monitor(_trace(rows), 150.0, default_scenario().supervisor_config().thresholds)
    assert verdict.status == STATUS_MIN_INTERVENTION
    assert verdict.witness == 0


def test_monitor_exempts_only_certified_overrides(default_sc, driver_params,
                                                oracle_machine):
    # an empty strategy misses every lookup: each row is a fallback override
    fallback = run_once(Strategy({}, "full"), default_sc, driver_params, oracle_machine)
    assert fallback.lookup_misses == len(fallback.rows) > 0
    row = fallback.rows[0]
    assert row.action == "override" and not row.certified
    assert safe_now(row.thw, row.ttc, default_sc.supervisor_config().thresholds)
    verdict = monitor(_trace([row]), 150.0, default_sc.supervisor_config().thresholds)
    assert verdict == Verdict(STATUS_MIN_INTERVENTION, 0)
    certified = replace(row, certified=True)
    verdict = monitor(_trace([certified]), 150.0, default_sc.supervisor_config().thresholds)
    assert verdict.status == STATUS_PASS


def test_execute_certifies_only_strategy_entries(default_synthesis, default_sc,
                                                 driver_params, oracle_machine):
    _arena, _region, strategy = default_synthesis
    trace = run_once(strategy, default_sc, driver_params, oracle_machine)
    assert trace.rows and all(row.certified for row in trace.rows)
    stub = run_once(ConstantStrategy("override"), default_sc, driver_params,
                    oracle_machine)
    assert stub.rows and not any(row.certified for row in stub.rows)


def test_monitor_response_violation():
    rows = [
        _row(action="hint", mode="Advisory", thw=1.2, ttc=3.0),
        _row(t=0.5, rule_chain=SHORT_CHAIN, thw=1.2, ttc=3.0),
    ]
    verdict = monitor(_trace(rows), 150.0, default_scenario().supervisor_config().thresholds)
    assert verdict.status == STATUS_RESPONSE
    assert verdict.witness == 1


def test_monitor_passes_clean_trace():
    rows = [_row(), _row(t=0.5, action="hint", mode="Advisory", thw=1.2),
            _row(t=1.0, rule_chain=FULL_CHAIN, thw=1.4)]
    verdict = monitor(_trace(rows), 150.0, default_scenario().supervisor_config().thresholds)
    assert verdict.status == STATUS_PASS
    assert verdict.witness is None


def test_monitor_priority_order():
    # a trace with both an overtake and an intervention-while-safe reports
    # the safety violation (highest priority)
    rows = [_row(mode="Intervention", thw=math.inf, ttc=math.inf),
            _row(t=0.5, follow_pos=60.0)]
    verdict = monitor(_trace(rows), 150.0, default_scenario().supervisor_config().thresholds)
    assert verdict.status == STATUS_SAFETY


def test_monitor_double_entry(default_synthesis, default_sc, driver_params,
                              oracle_machine):
    """Replaying the predicates row-by-row gives the same verdict."""
    _arena, _region, strategy = default_synthesis
    trace = run_once(strategy, default_sc, driver_params, oracle_machine, seed=9)
    verdict = monitor(trace, default_sc.dest, default_sc.supervisor_config().thresholds)

    replay = STATUS_PASS
    for row in trace.rows:
        if row.follow_pos >= row.lead_pos:
            replay = STATUS_SAFETY
            break
    if replay == STATUS_PASS and trace.final_world.follow.pos >= trace.final_world.lead.pos:
        replay = STATUS_SAFETY
    if replay == STATUS_PASS and trace.final_world.follow.pos < default_sc.dest:
        replay = STATUS_GOAL
    if replay == STATUS_PASS:
        for row in trace.rows:
            if row.mode == "Intervention" and safe_now(row.thw, row.ttc,
                                                       default_sc.supervisor_config().thresholds):
                replay = STATUS_MIN_INTERVENTION
                break
    assert verdict.status == replay


def test_write_trace_csv(tmp_path, default_synthesis, default_sc,
                         driver_params, oracle_machine):
    _arena, _region, strategy = default_synthesis
    trace = run_once(strategy, default_sc, driver_params, oracle_machine)
    path = tmp_path / "run.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TRACE_COLUMNS
    assert len(rows) == len(trace.rows) + 1
    assert rows[1][0] == "0.0"


# sha256 of the `write_trace_csv` files of seeds 0-19, exact abstraction,
# `full` strategy: every float of these traces is pinned
PINNED_TRACES = {
    "default": "6234c55c6425d1369072e47f7ea772e9a97065ce34498ce68b114dae51c595cc",
    "braking": "69e7345f6d115128436acaad7408ad5a892d139227649a350ae6b18fa0039882",
}


@pytest.fixture(scope="module")
def synthesized(default_sc, braking_sc, default_synthesis, braking_synthesis):
    """Scenario, arena and strategy of each built-in scenario, by name."""
    return {
        "default": (default_sc, default_synthesis[0], default_synthesis[2]),
        "braking": (braking_sc, braking_synthesis[0], braking_synthesis[2]),
    }


@pytest.mark.parametrize("name", sorted(PINNED_TRACES))
def test_trace_files_are_pinned(tmp_path, synthesized, driver_params,
                                oracle_machine, name):
    scenario, _arena, strategy = synthesized[name]
    digest = hashlib.sha256()
    for seed in range(20):
        path = tmp_path / f"run_{seed:03d}.csv"
        write_trace_csv(run_once(strategy, scenario, driver_params, oracle_machine, seed),
                        path)
        digest.update(path.read_bytes())
    assert digest.hexdigest() == PINNED_TRACES[name]


@pytest.mark.parametrize("name", sorted(PINNED_TRACES))
def test_a_strategy_read_back_from_its_file_runs_the_same_episodes(
        tmp_path, synthesized, driver_params, oracle_machine, name):
    # the file holds lattice units, the keys metres: reading a written
    # strategy back gives the keys co-simulation looks up, so its episodes
    # write the same trace files and never miss
    scenario, _arena, strategy = synthesized[name]
    parsed = parse_strategy(serialize_strategy(strategy))
    assert parsed.actions == dict(strategy.actions)
    for seed in range(20):
        files = []
        for label, s in (("made", strategy), ("read", parsed)):
            trace, _verdict = episode(s, scenario, driver_params, oracle_machine, seed)
            assert trace.lookup_misses == 0
            files.append(tmp_path / f"{label}_{seed:03d}.csv")
            write_trace_csv(trace, files[-1])
        assert files[0].read_bytes() == files[1].read_bytes()


def _env_state(k, pos, vel, row):
    """The arena's environment state of a follower on the lattice."""
    assert (pos * POS_SCALE).is_integer() and (vel * VEL_SCALE).is_integer()
    return (k, pos, vel, row)


def _explored(arena, state):
    """Edges of an arena state that synthesis already explored, as
    `{label: successor state}`, without exploring any further."""
    i = arena.index[state]
    assert arena.edges[i] is not None, f"{state} was never explored"
    return {label: arena.states[succ] for label, succ in zip(arena.labels[i], arena.edges[i])}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(("default", "braking")),
       seed=st.integers(min_value=0, max_value=2**32))
def test_seeded_episode_follows_the_arena(synthesized, driver_params, oracle_machine,
                                          name, seed):
    # the gridded game matches the float simulation exactly: each row sits on
    # the lattice, and its strategy key, under its action, leads to the
    # environment state whose perception gives the next row's key
    scenario, arena, strategy = synthesized[name]
    trace = run_once(strategy, scenario, driver_params, oracle_machine, seed)
    assert trace.lookup_misses == 0
    mirror = AbstractDriver(oracle_machine, driver_params)
    r = mirror.row_number[oracle_machine.initial, 0]  # the mirror stepped as `execute` does
    env = arena.states[arena.initial]  # where the previous row's action led
    for k, row in enumerate(trace.rows):
        assert env == _env_state(k, row.follow_pos, row.follow_vel, r)
        q, _acc = mirror.rows[r][row.perceived_level]
        key = (k, env[1], env[2], q, row.driver_acc)
        assert _explored(arena, env)[row.perceived_level] == key
        assert strategy.action_for(key) == row.action
        env = _explored(arena, key)[row.action]
        r = mirror.row_number[q, 1 if row.action == ACTION_HINT else 0]
    final = trace.final_world.follow
    assert env == _env_state(len(trace.rows), final.pos, final.vel, r)


def test_episode_steps_the_mirror_with_the_previous_hint(default_sc):
    # under these params a hinted step can move the abstraction to another
    # state than a plain one (never under default params), so the `q` of each
    # key shows whether the mirror saw the previous row's hint
    params = DriverParams(k1=1.0, k2=1.0, thw_levels=(1.5, 3.0))
    hm = minimize(explicit_machine(params))
    mirror = AbstractDriver(hm, params)
    moved = 0
    for seed in range(8):
        strategy = RecordingStrategy(ConstantStrategy(ACTION_HINT))
        trace = run_once(strategy, default_sc, params, hm, seed)
        assert len(strategy.asked) == len(trace.rows)
        q, r = hm.initial, mirror.row_number[hm.initial, 0]
        for row, key in zip(trace.rows, strategy.asked):
            plain = mirror.rows[mirror.row_number[q, 0]][row.perceived_level][0]
            q = mirror.rows[r][row.perceived_level][0]
            moved += q != plain
            assert key[3] == q
            r = mirror.row_number[q, 1 if row.action == ACTION_HINT else 0]
    assert moved  # the episodes took the hinted path


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the plain machine has no state for the acceleration a hinted "
                          "re-deliberation reaches, so the mirror's successor remembers another")
def test_a_repeated_hinted_step_keeps_a_realizable_strategy_on_track():
    # a known mispredict of the mirror: under these params the pair is
    # realizable, yet seed 2 perceives level 1 three times, with a hint after
    # the first two.  The driver brakes at -2 at the second, which no state of
    # the plain machine holds, so the mirror resolves a state that remembers
    # -1.  At the third the driver brakes at -3 where the mirror predicts -2:
    # the strategy misses once, and the fallback's override ends the episode
    # a min-intervention-violation
    params = DriverParams(k1=0.5, k2=1.0, thw_levels=(1.5, 3.0))
    hm = minimize(explicit_machine(params))
    sc = Scenario(lead_pos=30.75, lead_vel=16.0, follow_vel=16.0, dest=19.75,
                  horizon_epochs=7)
    strategy = synthesize(build_arena(hm, sc, params, "advisory-only"))
    trace, verdict = episode(strategy, sc, params, hm, 2)
    assert episode_passed(trace, verdict)


@settings(max_examples=80, deadline=None)
@given(scenario=lattice_scenarios(),
       strategy=st.sampled_from((ConstantStrategy("none"), ConstantStrategy("hint"),
                                 ConstantStrategy("override"), Strategy({}, "full"))),
       seed=st.integers(min_value=0, max_value=2**32))
def test_episode_integrates_like_euler_steps(driver_params, oracle_machine,
                                             scenario, strategy, seed):
    # every float of an episode is what explicit Euler steps of both vehicles
    # give: the lead under its profile at the row's time, the follower
    # under the previous row's applied acceleration; the empty strategy misses
    # every lookup (fail-safe fallback)
    trace = run_once(strategy, scenario, driver_params, oracle_machine, seed)
    cfg = scenario.supervisor_config()
    eps, v_max = scenario.epoch, scenario.v_max
    lead = scenario.lead_pos, scenario.lead_vel
    follow = scenario.follow_pos, scenario.follow_vel
    for k, row in enumerate(trace.rows):
        assert row.t == k * eps
        assert ((row.lead_pos, row.lead_vel), (row.follow_pos, row.follow_vel)) == (lead, follow)
        if isinstance(strategy, Strategy):
            assert row.action == ACTION_OVERRIDE and row.applied_acc == cfg.acc_floor
        lead = euler_step(*lead, lead_acc(scenario.profile, row.t), eps, v_max)
        follow = euler_step(*follow, row.applied_acc, eps, v_max)
    if isinstance(strategy, Strategy):
        assert trace.lookup_misses == len(trace.rows)
    assert trace.final_world == WorldState(VehicleState(*lead), VehicleState(*follow))


def make_session(params, seed=0, state_cap=None):
    sul = CognitiveDriver(params)
    oracle = RandomWalkOracle(sul, EqOracleConfig(rng_seed=seed))
    return LearningSession(sul, sul.alphabet, oracle, state_cap=state_cap)


def test_learning_session_seeds_its_oracle_from_the_seed(driver_params):
    # the walk settings are the defaults; the oracle's seed is derived from `seed`
    session = learning_session(driver_params, seed=5, state_cap=4)
    assert session.oracle.cfg == EqOracleConfig(rng_seed=derive_seed(5, "oracle"))
    assert session.oracle.sul is session.sul and session.state_cap == 4
    assert session.table.alphabet == driver_params.levels()


def test_refine_loop_config_refuses_an_unknown_variant():
    # refused when the settings are made, not after a learn
    with pytest.raises(ValueError, match=r"^unknown variant 'bogus'$"):
        RefineLoopConfig(variant="bogus")


def test_refine_skips_agreeing_trace(driver_params, oracle_machine,
                                     default_synthesis, default_sc):
    session = make_session(driver_params)
    hm, _ = session.run()
    _arena, _region, strategy = default_synthesis
    trace = run_once(strategy, default_sc, driver_params, oracle_machine)
    machine, injected, redundant, skipped = refine(session, [trace.stimulus_word()])
    assert (injected, redundant, skipped) == (0, 0, 1)
    assert equivalent(machine, hm) == (True, None)


def test_refine_grows_truncated_machine(driver_params, oracle_machine,
                                        default_synthesis, default_sc):
    session = make_session(driver_params, state_cap=2)
    coarse, _ = session.run()
    _arena, _region, strategy = default_synthesis
    trace = run_once(strategy, default_sc, driver_params, oracle_machine)
    machine, injected, redundant, skipped = refine(session, [trace.stimulus_word()])
    assert (injected, redundant, skipped) == (1, 0, 0)
    assert len(machine.states) > len(coarse.states)


def test_refine_loop_exact_learner_passes_first_iteration(default_sc):
    cfg = RefineLoopConfig(seed=0, runs=8)
    report, records = refine_loop(default_sc, cfg)
    assert report.termination_reason == "all-pass"
    assert len(report.iterations) == 1
    assert records is report.iterations and records[0].strategy is not None
    assert all(v.passed for v in report.iterations[0].verdicts)


def test_refine_loop_truncated_start_recovers(default_sc):
    # the 2-state machine's arena leaves the driver after 7 states: that
    # iteration synthesizes nothing and runs no episode, and its word relearns
    # the exact machine
    cfg = RefineLoopConfig(seed=0, runs=8, initial_state_cap=2)
    report, _ = refine_loop(default_sc, cfg)
    first, second = report.iterations
    assert (first.hm_states, first.realizable, first.verdicts) == (2, None, [])
    assert first.disagreement == ((3, 3), 7)
    assert first.strategy is None and first.traces == []
    assert (second.hm_states, second.realizable, second.disagreement) == (9, True, None)
    assert second.strategy is not None and len(second.traces) == 8
    assert report.termination_reason == "all-pass"


def test_disagreement_record_says_where_the_abstraction_left_the_driver(default_sc):
    # the word adds no suffix to E (the state cap kept S short); lifting the
    # cap lets the oracle do the rest
    cfg = RefineLoopConfig(seed=0, runs=25, initial_state_cap=2)
    report, _ = refine_loop(default_sc, cfg)
    first = report.iterations[0]
    assert (first.injected, first.redundant, first.skipped) == (0, 1, 0)
    assert first.line() == ("iteration=0 hm_states=2 variant=full "
                            "disagrees_with_driver_on=3,3 after_states=7 "
                            "injected=0 redundant=1 skipped=0")
    assert "realizable" not in first.line()
    assert report.termination_reason == "all-pass"


@pytest.fixture
def refine_calls(monkeypatch):
    """`(words, result)` of every call `refine_loop` makes to `refine`."""
    calls = []
    real_refine = cosim.refine

    def spy(session, words):
        result = real_refine(session, words)
        calls.append((list(words), result))
        return result

    monkeypatch.setattr(cosim, "refine", spy)
    return calls


def test_a_disagreement_reaches_the_learner_through_refine(default_sc, refine_calls):
    report, _ = refine_loop(default_sc, RefineLoopConfig(seed=0, runs=2, initial_state_cap=2))
    first, second = report.iterations
    [(words, (machine, *counts))] = refine_calls
    assert words == [first.disagreement[0]]
    assert (first.injected, first.redundant, first.skipped) == tuple(counts)
    assert len(first.hm.states) == 2 and second.hm is machine


@pytest.mark.parametrize("name", ["default", "braking"])
def test_refine_loop_relearns_a_driver_that_differs_only_in_its_rule_chains(name):
    # the 2-state machine gives the driver's accelerations on every word the
    # check replays, but not its rule chains, which decide the hinted mirror
    # step and the response template: the check must still stop there
    params = DriverParams(k1=0.5, k2=1.0, thw_levels=(1.5, 3.0))
    scenario = {"default": default_scenario, "braking": braking_scenario}[name]()
    cfg = RefineLoopConfig(params=params, seed=0, runs=4, initial_state_cap=2)
    report, records = refine_loop(scenario, cfg)
    assert report.termination_reason == "all-pass"
    assert len(records[0].hm.states) == 2
    assert equivalent(records[-1].hm, minimize(explicit_machine(params))) == (True, None)


@pytest.fixture(scope="module")
def coarse_synthesis(default_sc, driver_params):
    """Arena and strategy of the 2-state machine a state-capped session
    learns first."""
    hm, _stats = make_session(driver_params, state_cap=2).run()
    arena = build_arena(hm, default_sc, driver_params, "full")
    return hm, arena, synthesize(arena)


def test_refine_counts_only_words_that_add_a_suffix(default_sc, driver_params,
                                                    coarse_synthesis):
    # the coarse strategy's 25 episodes, seeded as a loop's first iteration
    # seeds them: 25 distinguishing words, 21 of them find their suffix in E
    hm, _arena, strategy = coarse_synthesis
    session = learning_session(driver_params, 0, state_cap=2)
    assert serialize(session.run()[0]) == serialize(hm)
    violating = []
    for r in range(25):
        trace, verdict = episode(strategy, default_sc, driver_params, hm,
                                 derive_seed(0, f"it0:run{r}"))
        if not episode_passed(trace, verdict):
            violating.append(trace)
    assert len(violating) == 25
    words = [trace.stimulus_word() for trace in violating]
    # plus an empty word, a repeated one, and one the 2-state machine answers
    # as the driver does: all three are skipped
    driver = CognitiveDriver(driver_params)
    assert hm.run((1, 1)) == (driver.query(1), driver.query(1))
    words += [(), words[0], (1, 1)]
    machine, injected, redundant, skipped = refine(session, words)
    assert (injected, redundant, skipped) == (4, 21, 3)
    assert len(machine.states) == 9


def test_refine_loop_stops_on_a_disagreement_that_changes_no_machine(default_sc,
                                                                    monkeypatch):
    # a session that relearns the same machine: the loop must not spin on it
    class Stuck(LearningSession):
        def run(self):
            if self.machine is None:
                return super().run()
            return self.machine, self.stats

    monkeypatch.setattr(cosim, "LearningSession", Stuck)
    report, _ = refine_loop(default_sc, RefineLoopConfig(seed=0, runs=2, initial_state_cap=2))
    assert report.termination_reason == "stable"
    assert [r.disagreement for r in report.iterations] == [((3, 3), 7)]


def test_refine_loop_ends_on_a_strategy_whose_plays_all_reach_dest():
    # the driver with 13 headway levels, whose exact machine has 73 states: a
    # game that let plays end at the horizon short of `dest` won with a
    # strategy that stopped one of the loop's 25 episodes at 144 m, and the
    # loop ended `stable` instead of relearning
    params = DriverParams(thw_levels=(0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5,
                                      2.75, 3.0, 3.5))
    cfg = RefineLoopConfig(params=params, seed=0, initial_state_cap=2)
    report, records = refine_loop(braking_scenario(), cfg)
    assert report.termination_reason == "all-pass"
    assert len(records[-1].hm.states) == 73
    assert records[-1].strategy.report.horizon_terminals == 0


def test_refine_loop_iteration_cap(default_sc):
    cfg = RefineLoopConfig(seed=0, runs=4, initial_state_cap=2, max_iterations=1)
    report, _ = refine_loop(default_sc, cfg)
    assert len(report.iterations) == 1
    assert report.termination_reason == "max-iterations"


def test_refine_loop_checks_the_scenario_before_it_learns(monkeypatch):
    def learn(*_args):
        raise AssertionError("learned before the scenario was checked")

    monkeypatch.setattr(cosim, "learning_session", learn)
    sc = replace(default_scenario(), dest=150.1)
    with pytest.raises(ValueError, match=r"^dest 150\.1 is not on the arena lattice$"):
        refine_loop(sc, RefineLoopConfig(runs=1))


@pytest.mark.parametrize("cap", [0, -1])
def test_refine_loop_rejects_a_non_positive_state_cap(default_sc, cap):
    # a cap below one used to learn a 1-state machine that was never asked for
    with pytest.raises(ValueError, match="state_cap"):
        refine_loop(default_sc, RefineLoopConfig(runs=1, initial_state_cap=cap))


def test_refine_loop_unrealizable_stops(braking_sc):
    cfg = RefineLoopConfig(seed=0, runs=4, variant="no-override")
    report, _ = refine_loop(braking_sc, cfg)
    assert report.termination_reason == "unrealizable"
    assert not report.iterations[-1].realizable


def test_refine_loop_variant_expansion(braking_sc):
    cfg = RefineLoopConfig(seed=0, runs=4, variant="no-override",
                           expand_on_unrealizable=True)
    report, _ = refine_loop(braking_sc, cfg)
    assert report.termination_reason == "all-pass"
    variants = [r.variant for r in report.iterations]
    assert variants[0] == "no-override"
    assert variants[-1] == "full"


def test_refine_loop_does_not_pass_a_fallback_episode(default_sc, monkeypatch,
                                                     refine_calls):
    # every verdict passes, but the fail-safe fallback fired: not all-pass
    real_execute = cosim.execute

    def one_miss(*args, **kwargs):
        trace = real_execute(*args, **kwargs)
        trace.lookup_misses = 1
        return trace

    monkeypatch.setattr(cosim, "execute", one_miss)
    report, _ = refine_loop(default_sc, RefineLoopConfig(seed=0, runs=2))
    record = report.iterations[0]
    assert all(v.passed for v in record.verdicts)
    assert record.lookup_misses == 2
    assert report.termination_reason != "all-pass"
    # both episodes' words go to one `refine` call; the exact abstraction
    # agrees with the driver on them, so nothing is injected
    assert record.strategy is not None and len(record.traces) == 2
    assert refine_calls == [([trace.stimulus_word() for trace, _v in record.traces],
                             (record.hm, 0, 0, 2))]
    assert report.termination_reason == "stable" and record.injected == 0


def test_synthesize_certifies_or_reports_a_lost_initial_state(
        oracle_machine, default_sc, braking_sc, driver_params, default_synthesis):
    won = synthesize(build_arena(oracle_machine, default_sc, driver_params, "full"))
    assert won.actions == default_synthesis[2].actions
    assert won.report.safety_ok and won.report.min_intervention_ok
    arena = build_arena(oracle_machine, braking_sc, driver_params, "no-override")
    assert synthesize(arena) is None
    assert arena.initial not in arena.region


def test_coarse_synthesis_is_pinned(coarse_synthesis):
    # the arena of the 2-state machine a coarse loop starts from
    hm, arena, strategy = coarse_synthesis
    assert len(hm.states) == 2
    text = serialize_strategy(strategy)
    assert (arena.n_states, arena.region.iterations, len(strategy.actions),
            hashlib.sha256(text.encode()).hexdigest()) == (
        49400, 46032, 30912,
        "f043e27441fd71dae9f01c3a5cb5ed9c2cc1434da39d39be6fcee2a5c655d917")


@pytest.fixture
def refcount_only():
    """The cyclic GC stays off for the test: only reference counting frees."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def test_synthesis_is_freed_by_reference_counting(oracle_machine, default_sc,
                                                  driver_params, refcount_only):
    # no reference cycle keeps an arena alive until the cyclic GC runs
    arena = build_arena(oracle_machine, default_sc, driver_params, "full")
    strategy = synthesize(arena)
    dead = weakref.ref(arena)
    del arena, strategy
    assert dead() is None


def test_one_mirror_per_machine_dies_with_it(default_sc, driver_params, refcount_only):
    # build_arena and execute share the mirror; dropping the machine frees it
    hm = explicit_machine(driver_params)
    mirror = AbstractDriver.shared(hm, driver_params)
    build_arena(hm, default_sc, driver_params, "full")
    assert AbstractDriver.shared(hm, driver_params) is mirror
    assert AbstractDriver.shared(hm, replace(driver_params, k1=0.5)) is not mirror
    dead = weakref.ref(mirror)
    del hm, mirror
    assert dead() is None


def _cold(scenario):
    """An equal scenario with no cached epoch contexts."""
    fresh = replace(scenario)
    assert fresh == scenario and not fresh.epoch_contexts
    return fresh


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(("default", "braking")),
       seed=st.integers(min_value=0, max_value=2**32))
def test_warm_and_cold_epoch_caches_give_equal_traces(synthesized, driver_params,
                                                      oracle_machine, name, seed):
    # the shared scenario's cache is warm from earlier episodes
    scenario, _arena, strategy = synthesized[name]
    warm = run_once(strategy, scenario, driver_params, oracle_machine, seed)
    assert scenario.epoch_contexts[driver_params.thw_levels]
    cold = _cold(scenario)
    assert run_once(strategy, cold, driver_params, oracle_machine, seed) == warm
    assert run_once(strategy, cold, driver_params, oracle_machine, seed) == warm


def test_epoch_caches_are_kept_per_quantization(default_sc, driver_params):
    # other boundaries, as many levels: other levels perceived in the same states
    coarse = DriverParams(thw_levels=(1.5, 2.5, 3.5))
    runs = [(params, explicit_machine(params), ConstantStrategy(action))
            for params in (driver_params, coarse) for action in ("none", "hint")]
    scenario = _cold(default_sc)
    for seed in range(6):
        for params, hm, strategy in runs:
            trace = run_once(strategy, scenario, params, hm, seed)
            assert trace == run_once(strategy, _cold(default_sc), params, hm, seed)
    fine = scenario.epoch_contexts[driver_params.thw_levels]
    assert fine and scenario.epoch_contexts[coarse.thw_levels] is not fine
    for (k, fpos, fvel), context in fine.items():
        assert context == epoch_context(scenario, driver_params, k, fpos, fvel)


@pytest.mark.parametrize("action", ["none", "hint", "override"])
def test_off_lattice_episodes_are_equal_warm_and_cold(driver_params, oracle_machine,
                                                      action):
    # a start at 0.1 m puts the follower off the arena lattice; the cache keys
    # are the exact floats, so no two states share a context by rounding
    scenario = replace(default_scenario(), follow_pos=0.1)
    strategy = ConstantStrategy(action)
    warm = [run_once(strategy, scenario, driver_params, oracle_machine, seed)
            for seed in range(8)]
    assert scenario.epoch_contexts[driver_params.thw_levels]
    for seed, trace in enumerate(warm):
        assert run_once(strategy, scenario, driver_params, oracle_machine, seed) == trace
        assert run_once(strategy, _cold(scenario), driver_params, oracle_machine,
                        seed) == trace


def test_epoch_cache_keeps_no_machine_strategy_or_driver(default_sc, driver_params,
                                                        refcount_only):
    # a scenario outlives its episodes; what they ran on dies with them
    scenario = _cold(default_sc)
    hm = explicit_machine(driver_params)
    strategy = synthesize(build_arena(hm, scenario, driver_params, "full"))
    sul = CognitiveDriver(driver_params)
    trace = execute(strategy, sul, scenario, scenario.supervisor_config(), 3, hm,
                    driver_params)
    assert trace.rows and scenario.epoch_contexts[driver_params.thw_levels]
    dead = [weakref.ref(obj) for obj in
            (hm, AbstractDriver.shared(hm, driver_params), strategy, sul)]
    del hm, strategy, sul
    assert [ref() for ref in dead] == [None] * 4


def test_report_text_is_stable(default_sc):
    cfg = RefineLoopConfig(seed=5, runs=4)
    r1, _ = refine_loop(default_sc, cfg)
    r2, _ = refine_loop(default_sc, cfg)
    assert r1.text() == r2.text()


def test_derive_seed_is_stable():
    assert derive_seed(0, "x") == derive_seed(0, "x")
    assert derive_seed(0, "x") != derive_seed(1, "x")
    assert derive_seed(0, "x") != derive_seed(0, "y")
