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
    RefineLoopConfig,
    SimTrace,
    TraceRow,
    Verdict,
    derive_seed,
    epoch_context,
    execute,
    monitor,
    refine,
    refine_loop,
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
    AbstractDriver, POS_SCALE, Strategy, TURN_CTRL, TURN_ENV, VEL_SCALE, build_arena,
    serialize_strategy,
)
from sharedctrl.lstar import EqOracleConfig, LearningSession, RandomWalkOracle
from sharedctrl.mealy import equivalent, minimize, serialize
from sharedctrl.scenario import Scenario, default_scenario
from sharedctrl.supervisor import ACTION_HINT, ACTION_MODE, ACTION_OVERRIDE, safe_now
from sharedctrl.world import VehicleState, WorldState, step_world

from conftest import ConstantStrategy, RecordingStrategy, lattice_scenarios


def run_once(strategy, scenario, params, hm, seed=0):
    sul = CognitiveDriver(params)
    cfg = scenario.supervisor_config()
    return execute(strategy, sul, scenario, cfg, seed, hm, params)


def test_execute_default_strategy_safe(default_synthesis, default_sc,
                                       driver_params, oracle_machine):
    _arena, _region, strategy = default_synthesis
    trace = run_once(strategy, default_sc, driver_params, oracle_machine)
    assert trace.lookup_misses == 0
    assert trace.rows
    for row in trace.rows:
        assert row.follow_pos < row.lead_pos
    assert trace.final_world.follow.pos >= default_sc.dest
    verdict = monitor(trace, default_sc.dest, default_sc.thresholds)
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
        verdict = monitor(trace, braking_sc.dest, braking_sc.thresholds)
        if verdict.status == STATUS_SAFETY:
            crashed += 1
            assert verdict.witness is not None
    assert crashed > 0


def test_execute_zero_epoch_scenario(driver_params, oracle_machine):
    sc = Scenario(name="done", lead_pos=20.0, lead_vel=10.0, follow_pos=0.0,
                  follow_vel=10.0, dest=0.0, horizon_epochs=0, v_max=16.0)
    trace = run_once(ConstantStrategy("none"), sc, driver_params, oracle_machine)
    assert trace.rows == []
    verdict = monitor(trace, sc.dest, sc.thresholds)
    assert verdict.status == STATUS_PASS


def _row(**kw):
    base = dict(t=0.0, lead_pos=50.0, lead_vel=10.0, follow_pos=0.0,
                follow_vel=10.0, thw=5.0, ttc=math.inf, mode="Nominal",
                driver_acc=0, applied_acc=0, action="none",
                perceived_level=4, rule_chain=FULL_CHAIN)
    base.update(kw)
    return TraceRow(**base)


def _trace(rows, final_gap=10.0, final_pos=200.0):
    final = WorldState(VehicleState(final_pos + final_gap, 10.0),
                       VehicleState(final_pos, 10.0), 1.0)
    return SimTrace(rows, final)


def test_monitor_flags_overtake_row():
    rows = [_row(), _row(t=0.5, follow_pos=60.0)]
    verdict = monitor(_trace(rows), 150.0, default_scenario().thresholds)
    assert verdict.status == STATUS_SAFETY
    assert verdict.witness == 1


def test_monitor_flags_final_world_overtake():
    trace = _trace([_row()], final_gap=-1.0)
    verdict = monitor(trace, 150.0, default_scenario().thresholds)
    assert verdict.status == STATUS_SAFETY
    assert verdict.witness == 1  # one past the last row


def test_monitor_goal_not_reached():
    trace = _trace([_row()], final_pos=100.0)
    verdict = monitor(trace, 150.0, default_scenario().thresholds)
    assert verdict.status == STATUS_GOAL


def test_monitor_min_intervention_violation():
    rows = [_row(mode="Intervention", thw=math.inf, ttc=math.inf,
                 action="override", applied_acc=-1)]
    verdict = monitor(_trace(rows), 150.0, default_scenario().thresholds)
    assert verdict.status == STATUS_MIN_INTERVENTION
    assert verdict.witness == 0


def test_monitor_exempts_only_certified_overrides(default_sc, driver_params,
                                                oracle_machine):
    # an empty strategy misses every lookup: each row is a fallback override
    fallback = run_once(Strategy({}, "full"), default_sc, driver_params, oracle_machine)
    assert fallback.lookup_misses == len(fallback.rows) > 0
    row = fallback.rows[0]
    assert row.action == "override" and not row.certified
    assert safe_now(row.thw, row.ttc, default_sc.thresholds)
    verdict = monitor(_trace([row]), 150.0, default_sc.thresholds)
    assert verdict == Verdict(STATUS_MIN_INTERVENTION, 0)
    certified = replace(row, certified=True)
    verdict = monitor(_trace([certified]), 150.0, default_sc.thresholds)
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
    verdict = monitor(_trace(rows), 150.0, default_scenario().thresholds)
    assert verdict.status == STATUS_RESPONSE
    assert verdict.witness == 1


def test_monitor_passes_clean_trace():
    rows = [_row(), _row(t=0.5, action="hint", mode="Advisory", thw=1.2),
            _row(t=1.0, rule_chain=FULL_CHAIN, thw=1.4)]
    verdict = monitor(_trace(rows), 150.0, default_scenario().thresholds)
    assert verdict.status == STATUS_PASS
    assert verdict.witness is None


def test_monitor_priority_order():
    # a trace with both an overtake and an intervention-while-safe reports
    # the safety violation (highest priority)
    rows = [_row(mode="Intervention", thw=math.inf, ttc=math.inf),
            _row(t=0.5, follow_pos=60.0)]
    verdict = monitor(_trace(rows), 150.0, default_scenario().thresholds)
    assert verdict.status == STATUS_SAFETY


def test_monitor_double_entry(default_synthesis, default_sc, driver_params,
                              oracle_machine):
    """Replaying the predicates row-by-row gives the same verdict."""
    from sharedctrl.supervisor import safe_now
    _arena, _region, strategy = default_synthesis
    trace = run_once(strategy, default_sc, driver_params, oracle_machine, seed=9)
    verdict = monitor(trace, default_sc.dest, default_sc.thresholds)

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
                                                       default_sc.thresholds):
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


def _env_state(k, pos, vel, q, hinted):
    """The arena's environment state of a follower on the lattice."""
    for value, scale in ((pos, POS_SCALE), (vel, VEL_SCALE)):
        assert math.isclose(value * scale, round(value * scale), rel_tol=0.0, abs_tol=1e-9)
    return (TURN_ENV, k, round(pos * POS_SCALE), round(vel * VEL_SCALE), q, hinted)


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
    q, hinted = oracle_machine.initial, 0
    env = arena.states[arena.initial]  # where the previous row's action led
    for k, row in enumerate(trace.rows):
        assert env == _env_state(k, row.follow_pos, row.follow_vel, q, hinted)
        q, _acc, _full = mirror.step(q, hinted, row.perceived_level)
        key = (TURN_CTRL, k, env[2], env[3], q, row.driver_acc)
        assert _explored(arena, env)[row.perceived_level] == key
        assert strategy.action_for(key) == row.action
        env = _explored(arena, key)[row.action]
        hinted = 1 if row.action == ACTION_HINT else 0
    final = trace.final_world.follow
    assert env == _env_state(len(trace.rows), final.pos, final.vel, q, hinted)


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
        q, hinted = hm.initial, 0
        for row, key in zip(trace.rows, strategy.asked):
            plain = mirror.step(q, 0, row.perceived_level)[0]
            q = mirror.step(q, hinted, row.perceived_level)[0]
            moved += q != plain
            assert key[4] == q
            hinted = 1 if row.action == ACTION_HINT else 0
    assert moved  # the episodes took the hinted path


@settings(max_examples=80, deadline=None)
@given(scenario=lattice_scenarios(),
       strategy=st.sampled_from((ConstantStrategy("none"), ConstantStrategy("hint"),
                                 ConstantStrategy("override"), Strategy({}, "full"))),
       seed=st.integers(min_value=0, max_value=2**32))
def test_episode_integrates_like_step_world(driver_params, oracle_machine,
                                            scenario, strategy, seed):
    # every float of an episode is what iterating `step_world` gives: the lead
    # from the scenario alone, the follower from the previous row's applied
    # acceleration; the empty strategy misses every lookup (fail-safe fallback)
    trace = run_once(strategy, scenario, driver_params, oracle_machine, seed)
    cfg = scenario.supervisor_config()
    world = scenario.initial_world()
    for k, row in enumerate(trace.rows):
        assert row.t == k * scenario.epoch
        assert (row.lead_pos, row.lead_vel) == (world.lead.pos, world.lead.vel)
        assert (row.follow_pos, row.follow_vel) == (world.follow.pos, world.follow.vel)
        if isinstance(strategy, Strategy):
            assert row.action == ACTION_OVERRIDE and row.applied_acc == cfg.acc_floor
        world = step_world(world, row.applied_acc, scenario.epoch, scenario.profile,
                           v_max=scenario.v_max)
    if isinstance(strategy, Strategy):
        assert trace.lookup_misses == len(trace.rows)
    assert trace.final_world == world


def make_session(params, seed=0, state_cap=None):
    sul = CognitiveDriver(params)
    oracle = RandomWalkOracle(sul, EqOracleConfig(rng_seed=seed))
    return LearningSession(sul, sul.alphabet, oracle, state_cap=state_cap)


def test_refine_skips_agreeing_trace(driver_params, oracle_machine,
                                     default_synthesis, default_sc):
    session = make_session(driver_params)
    hm, _ = session.run()
    _arena, _region, strategy = default_synthesis
    trace = run_once(strategy, default_sc, driver_params, oracle_machine)
    machine, injected, skipped = refine(session, [trace])
    assert injected == 0 and skipped == 1
    assert equivalent(machine, hm) == (True, None)


def test_refine_grows_truncated_machine(driver_params, oracle_machine,
                                        default_synthesis, default_sc):
    session = make_session(driver_params, state_cap=2)
    coarse, _ = session.run()
    _arena, _region, strategy = default_synthesis
    trace = run_once(strategy, default_sc, driver_params, oracle_machine)
    machine, injected, skipped = refine(session, [trace])
    assert injected == 1
    assert len(machine.states) > len(coarse.states)


def test_refine_loop_exact_learner_passes_first_iteration(default_sc):
    cfg = RefineLoopConfig(seed=0, runs=8)
    report, artifacts = refine_loop(default_sc, cfg)
    assert report.termination_reason == "all-pass"
    assert len(report.iterations) == 1
    assert artifacts[0].strategy is not None
    assert all(v.passed for v in report.iterations[0].verdicts)


def test_refine_loop_truncated_start_recovers(default_sc):
    # the 2-state machine's arena leaves the driver after 14 states: that
    # iteration synthesizes nothing and runs no episode, and its word relearns
    # the exact machine
    cfg = RefineLoopConfig(seed=0, runs=8, initial_state_cap=2)
    report, artifacts = refine_loop(default_sc, cfg)
    first, second = report.iterations
    assert (first.hm_states, first.realizable, first.verdicts) == (2, None, [])
    assert first.disagreement == ((3, 3, 2), 14)
    assert artifacts[0].strategy is None and artifacts[0].traces == []
    assert (second.hm_states, second.realizable, second.disagreement) == (9, True, None)
    assert report.termination_reason == "all-pass"


def test_disagreement_record_says_where_the_abstraction_left_the_driver(default_sc):
    # the word adds no suffix to E (the state cap kept S short); lifting the
    # cap lets the oracle do the rest
    cfg = RefineLoopConfig(seed=0, runs=25, initial_state_cap=2)
    report, _ = refine_loop(default_sc, cfg)
    first = report.iterations[0]
    assert (first.injected, first.redundant, first.skipped) == (0, 1, 0)
    assert first.line() == ("iteration=0 hm_states=2 variant=full "
                            "disagrees_with_driver_on=3,3,2 after_states=14 "
                            "injected=0 redundant=1 skipped=0")
    assert "realizable" not in first.line()
    assert report.termination_reason == "all-pass"


@pytest.fixture(scope="module")
def coarse_synthesis(default_sc, driver_params):
    """Synthesis on the 2-state machine a state-capped session learns first."""
    hm, _stats = make_session(driver_params, state_cap=2).run()
    return hm, synthesize(hm, default_sc, driver_params, "full")


def test_refine_counts_only_words_that_add_a_suffix(default_sc, driver_params,
                                                    coarse_synthesis):
    # the coarse strategy's 25 episodes, seeded as a loop's first iteration
    # seeds them: 25 distinguishing words, 21 of them find their suffix in E
    hm, syn = coarse_synthesis
    session = make_session(driver_params, seed=derive_seed(0, "oracle"), state_cap=2)
    assert serialize(session.run()[0]) == serialize(hm)
    cfg = default_sc.supervisor_config()
    violating = []
    for r in range(25):
        trace = execute(syn.strategy, CognitiveDriver(driver_params), default_sc, cfg,
                        derive_seed(0, f"it0:run{r}"), hm, driver_params)
        if not monitor(trace, default_sc.dest, cfg.thresholds).passed or trace.lookup_misses:
            violating.append(trace)
    assert len(violating) == 25
    machine, injected, skipped = refine(session, violating)
    assert (injected, len(violating) - injected - skipped, skipped) == (4, 21, 0)
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
    assert [r.disagreement for r in report.iterations] == [((3, 3, 2), 14)]


def test_refine_loop_iteration_cap(default_sc):
    cfg = RefineLoopConfig(seed=0, runs=4, initial_state_cap=2, max_iterations=1)
    report, _ = refine_loop(default_sc, cfg)
    assert len(report.iterations) == 1
    assert report.termination_reason == "max-iterations"


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


def test_refine_loop_does_not_pass_a_fallback_episode(default_sc, monkeypatch):
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
    # the exact abstraction agrees with the driver, so nothing is injected
    assert report.termination_reason == "stable" and record.injected == 0


def test_synthesize_certifies_or_reports_a_lost_initial_state(
        oracle_machine, default_sc, braking_sc, driver_params, default_synthesis):
    won = synthesize(oracle_machine, default_sc, driver_params, "full")
    assert won.strategy.actions == default_synthesis[2].actions
    assert won.strategy.report.safety_ok and won.strategy.report.min_intervention_ok
    lost = synthesize(oracle_machine, braking_sc, driver_params, "no-override")
    assert lost.strategy is None
    assert lost.arena.initial not in lost.arena.region


def test_coarse_synthesis_is_pinned(coarse_synthesis):
    # the arena of the 2-state machine a coarse loop starts from
    hm, syn = coarse_synthesis
    assert len(hm.states) == 2
    text = serialize_strategy(syn.strategy)
    assert (syn.arena.n_states, syn.arena.region.iterations, len(syn.strategy.actions),
            hashlib.sha256(text.encode()).hexdigest()) == (
        67337, 46171, 30912,
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
    syn = synthesize(oracle_machine, default_sc, driver_params, "full")
    arena = weakref.ref(syn.arena)
    del syn
    assert arena() is None


def test_one_mirror_per_machine_dies_with_it(default_sc, driver_params, refcount_only):
    # build_arena and execute share the mirror; dropping the machine frees it
    hm = explicit_machine(driver_params)
    mirror = AbstractDriver.shared(hm, driver_params)
    assert build_arena(hm, default_sc, driver_params, "full").meta["driver"] is mirror
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
    # epoch 0.3 puts the follower off the arena lattice; the cache keys are the
    # exact floats, so no two states share a context by rounding
    scenario = replace(default_scenario(), epoch=0.3, horizon_epochs=45)
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
    strategy = synthesize(hm, scenario, driver_params, "full").strategy
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
