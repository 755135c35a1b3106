import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from sharedctrl.config_text import read_file
from sharedctrl.driver import (
    CognitiveDriver,
    DriverParams,
    FULL_CHAIN,
    SHORT_CHAIN,
    decide_acceleration,
    driver_step,
    explicit_machine,
    initial_driver_state,
)
from sharedctrl.mealy import minimize

from conftest import HINT_PARAMS


def test_params_validation():
    with pytest.raises(ValueError):
        DriverParams(k1=0.0)
    with pytest.raises(ValueError):
        DriverParams(acc_set=(-2, -1, 1))          # missing 0
    with pytest.raises(ValueError):
        DriverParams(acc_set=(1, 0, -1))           # unsorted
    with pytest.raises(ValueError):
        DriverParams(thw_levels=(1.0, 1.0))        # not increasing


@pytest.mark.parametrize("fields, text, message, file_message", [
    (dict(k1=0.0), "k1=0.0", r"^k1 \(0\.0\) must be positive$", None),
    (dict(k2=-0.5), "k2=-0.5", r"^k2 \(-0\.5\) must be positive$", None),
    (dict(thw_follow=0.0), "thw_follow=0.0", r"^thw_follow \(0\.0\) must be positive$", None),
    (dict(decision_epoch=-1.0), "decision_epoch=-1.0",
     r"^decision_epoch \(-1\.0\) must be positive$", None),
    (dict(acc_set=(-2, -1, 1)), "acc_set=-2,-1,1",
     r"^acc_set \(-2, -1, 1\) must be non-empty and contain 0$", None),
    (dict(acc_set=(1, 0, -1)), "acc_set=1,0,-1", r"^acc_set \(1, 0, -1\) must be sorted$", None),
    (dict(thw_levels=(-1.0, 2.0)), "thw_levels=-1.0,2.0",
     r"^thw_levels \(-1\.0, 2\.0\) must be positive finite headways$", None),
    (dict(thw_levels=(1.0, 1.0)), "thw_levels=1.0,1.0",
     r"^thw_levels \(1\.0, 1\.0\) must be strictly increasing$", None),
    # a file cannot hold NaN: its parser refuses the number before the params see it
    *((dict([(name, math.nan)]), f"{name}=nan", rf"^{name} \(nan\) must be positive$",
       rf"^line 1: bad value for '{name}': 'nan' is not a finite number$")
      for name in ("k1", "k2", "thw_follow", "decision_epoch")),
])
def test_params_refusals_name_their_field_and_value(fields, text, message, file_message):
    # what a params file that breaks one check prints after its path
    with pytest.raises(ValueError, match=message):
        DriverParams(**fields)
    with pytest.raises(ValueError, match=file_message or message):
        DriverParams.from_text(text + "\n")


@pytest.mark.parametrize("levels", [(), (-1.0, 2.0), (0.0, 2.0), (1.0, math.inf),
                                    (math.nan,)])
def test_params_reject_empty_or_nonpositive_headway_levels(levels):
    # no levels leaves no stimulus to represent; a headway is never negative
    with pytest.raises(ValueError, match="thw_levels"):
        DriverParams(thw_levels=levels)


def test_representatives_are_bin_midpoints(driver_params):
    assert [driver_params.representative(l) for l in (1, 2, 3, 4)] == \
        [0.5, 1.5, 2.5, 3.5]


def test_decide_acceleration_neutral(driver_params):
    assert decide_acceleration(2.0, 2.0, 0.5, driver_params, 0) == 0


def test_decide_acceleration_speed_up(driver_params):
    # delta = 1.0*1.5 + 0.5*1.5*0.5 = 1.875 -> nearest admissible is 2
    assert decide_acceleration(3.5, 2.0, 0.5, driver_params, 0) == 2


def test_decide_acceleration_slow_down(driver_params):
    # delta = -1.5 - 0.375 = -1.875 -> nearest admissible is -2
    assert decide_acceleration(0.5, 2.0, 0.5, driver_params, 0) == -2


def test_decide_acceleration_ties_toward_zero(driver_params):
    # target exactly between 1 and 2 resolves to 1
    assert decide_acceleration(3.0, 2.0, 1.0, driver_params, 0) == 1


def test_decide_acceleration_member_of_set(driver_params):
    acc = decide_acceleration(9.0, 0.1, 0.5, driver_params, 2)
    assert acc in driver_params.acc_set


@settings(max_examples=100, deadline=None)
@given(
    thw=st.floats(min_value=0.0, max_value=10.0),
    prev_thw=st.floats(min_value=0.0, max_value=10.0),
    prev_acc=st.sampled_from((-3, -2, -1, 0, 1, 2)),
)
def test_decide_acceleration_always_admissible(driver_params, thw, prev_thw, prev_acc):
    acc = decide_acceleration(thw, prev_thw, 0.5, driver_params, prev_acc)
    assert acc in driver_params.acc_set


def test_reset_determinism(driver_params):
    a = CognitiveDriver(driver_params)
    first = a.query(2)
    a.reset()
    assert a.query(2) == first
    assert a.state[1] == first[1]


def test_reset_clears_state(fresh_driver):
    fresh_driver.query(3)
    fresh_driver.reset()
    assert fresh_driver.state == (None, 0, fresh_driver.params.thw_follow)


def test_interleaved_sessions_are_independent(driver_params):
    a = CognitiveDriver(driver_params)
    b = CognitiveDriver(driver_params)
    seq1, seq2 = (1, 3, 3, 2), (4, 4, 1)
    out_a = [a.query(x) for x in seq1]
    out_b = [b.query(x) for x in seq2]
    a.reset()
    assert [a.query(x) for x in seq2] == out_b
    b.reset()
    assert [b.query(x) for x in seq1] == out_a


def test_repeated_stimulus_takes_short_path(fresh_driver):
    first = fresh_driver.query(1)
    second = fresh_driver.query(1)
    assert first[0] == FULL_CHAIN
    assert second[0] == SHORT_CHAIN
    assert second[1] == first[1]


def test_changed_stimulus_takes_full_path(fresh_driver):
    fresh_driver.query(2)
    chain, _acc = fresh_driver.query(1)
    assert chain == FULL_CHAIN


def test_stimulus_at_desired_headway_keeps_zero(driver_params):
    # a stimulus whose representative equals the desired headway leaves both
    # law terms at zero; checked at the law level since the default bins put
    # thw_follow on a boundary
    params = DriverParams(thw_levels=(1.0, 3.0, 5.0))  # level 2 rep = 2.0
    sul = CognitiveDriver(params)
    chain, acc = sul.query(2)
    assert chain == FULL_CHAIN
    assert acc == 0


def test_query_rejects_bad_level(fresh_driver):
    with pytest.raises(ValueError):
        fresh_driver.query(0)
    with pytest.raises(ValueError):
        fresh_driver.query(5)


def paths_under_stimuli_and_hints(params):
    """`{state: path}` for every internal state a driver of `params` reaches
    from its start by stimuli and hints, with a shortest path of ops to it;
    an op is a level or "hint"."""
    start = initial_driver_state(params)
    paths = {start: ()}
    queue = [start]
    for state in queue:
        _level, acc, thw = state
        moves = [("hint", (None, acc, thw))]
        moves += [(level, driver_step(state, level, params)[0]) for level in params.levels()]
        for op, succ in moves:
            if succ not in paths:
                paths[succ] = paths[state] + (op,)
                queue.append(succ)
    return paths


REACHED = [(params, state, path) for params in HINT_PARAMS
           for state, path in paths_under_stimuli_and_hints(params).items()]


@pytest.mark.parametrize("params,state,path", REACHED,
                         ids=[f"params{HINT_PARAMS.index(p)}-{s}" for p, s, _ in REACHED])
def test_hint_forces_full_deliberation(params, state, path):
    # the response the game's mirror models and monitor checks on traces:
    # after a hint, every level deliberates fully from the cached
    # acceleration and headway
    driver = CognitiveDriver(params)
    _level, acc, thw = state
    for level in params.levels():
        driver.reset()
        for op in path:
            driver.apply_hint() if op == "hint" else driver.query(op)
        assert driver.state == state
        driver.apply_hint()
        chain, acc2 = driver.query(level)
        assert chain == FULL_CHAIN
        assert acc2 == driver_step((None, acc, thw), level, params)[1][1]


def test_hint_on_fresh_driver_is_noop(driver_params):
    a = CognitiveDriver(driver_params)
    b = CognitiveDriver(driver_params)
    a.apply_hint()
    assert a.query(2) == b.query(2)


def test_hint_does_not_change_cached_acceleration(fresh_driver):
    fresh_driver.query(4)
    acc_before = fresh_driver.state[1]
    fresh_driver.apply_hint()
    assert fresh_driver.state[1] == acc_before


def test_driver_step_is_pure(driver_params):
    state = initial_driver_state(driver_params)
    once = driver_step(state, 2, driver_params)
    again = driver_step(state, 2, driver_params)
    assert once == again


OTHER_PARAMS = DriverParams(k1=2.0, k2=1.0, thw_follow=1.5)


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                              st.sampled_from((1, 2, 3, 4, "hint"))),
                    max_size=40))
def test_shared_transition_table_matches_driver_step(driver_params, ops):
    # two drivers share the default params' table, a third has its own
    drivers = [CognitiveDriver(driver_params), CognitiveDriver(DriverParams()),
               CognitiveDriver(OTHER_PARAMS)]
    states = [initial_driver_state(d.params) for d in drivers]
    for which, op in ops:
        driver, state = drivers[which], states[which]
        if op == "hint":
            driver.apply_hint()
            states[which] = (None, state[1], state[2])
        else:
            states[which], expected = driver_step(state, op, driver.params)
            assert driver.query(op) == expected
        assert driver.state == states[which]
    tables = CognitiveDriver._tables
    assert tables[driver_params] is not tables[OTHER_PARAMS]
    for params in (driver_params, OTHER_PARAMS):
        rows = tables[params]
        for state, (row_state, steps) in rows.items():
            assert row_state == state
            for level, (succ_row, response) in steps.items():
                assert (succ_row[0], response) == driver_step(state, level, params)
                assert rows[succ_row[0]] is succ_row


def test_drivers_with_equal_params_share_rows():
    a, b = CognitiveDriver(DriverParams()), CognitiveDriver(DriverParams())
    other = CognitiveDriver(OTHER_PARAMS)
    assert a._row is b._row is not other._row
    for level in (4, 1, 1, 3, "hint", 3, 2):
        for driver in (a, b, other):
            if level == "hint":
                driver.apply_hint()
            else:
                driver.query(level)
        assert a._row is b._row is CognitiveDriver._tables[DriverParams()][a.state]
        assert other._row is CognitiveDriver._tables[OTHER_PARAMS][other.state]
    a.reset()
    assert a._row is CognitiveDriver(DriverParams())._row


def test_out_of_range_level_raises_on_fresh_and_filled_rows():
    params = DriverParams(k1=1.75, thw_levels=(1.25, 2.5))  # a table of its own
    driver = CognitiveDriver(params)
    start = driver.state
    steps = CognitiveDriver._tables[params][start][1]
    assert steps == {}
    for level in (0, 4, "1", None):
        with pytest.raises(ValueError, match="out of range"):
            driver.query(level)
    assert steps == {}  # a refused level gets no entry
    for level in (1, 2):
        driver.query(level)
        driver.reset()
    assert set(steps) == {1, 2}
    for level in (0, 4):
        with pytest.raises(ValueError, match="out of range"):
            driver.query(level)
    assert driver.state == start
    assert set(steps) == {1, 2}


def test_threads_filling_one_table_agree_with_driver_step():
    params = DriverParams(k1=1.25, thw_levels=(0.75, 1.5, 2.25, 3.0))  # a table of its own
    levels = params.levels()
    mismatches = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(40):
            driver = CognitiveDriver(params)
            state = driver.state
            for _ in range(25):
                level = rng.choice(levels)
                state, expected = driver_step(state, level, params)
                if driver.query(level) != expected or driver.state != state:
                    mismatches.append((seed, level))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    rows = CognitiveDriver._tables[params]
    for state, (_state, steps) in rows.items():
        for level, (succ_row, response) in steps.items():
            assert (succ_row[0], response) == driver_step(state, level, params)
            assert rows[succ_row[0]] is succ_row


def test_params_hold_tuples():
    params = DriverParams(acc_set=[-1, 0, 1], thw_levels=[1.0, 2.0])
    assert params == DriverParams(acc_set=(-1, 0, 1), thw_levels=(1.0, 2.0))
    assert CognitiveDriver(params).query(3) == (FULL_CHAIN, 1)


def test_explicit_machine_matches_live_driver(driver_params):
    machine = explicit_machine(driver_params)
    sul = CognitiveDriver(driver_params)
    word = (4, 4, 1, 2, 2, 3, 1, 1, 4, 2)
    sul.reset()
    assert machine.run(word) == tuple(sul.query(x) for x in word)


def test_explicit_machine_is_minimal(driver_params):
    machine = explicit_machine(driver_params)
    assert len(minimize(machine).states) == len(machine.states)


def test_explicit_machine_structure(oracle_machine):
    # input-complete over the four stimulus levels, by construction
    assert oracle_machine.inputs == (1, 2, 3, 4)
    for state in oracle_machine.states:
        assert set(oracle_machine.delta[state]) == {1, 2, 3, 4}


def test_params_file_round_trip(tmp_path, driver_params):
    path = tmp_path / "driver.params"
    path.write_text(driver_params.to_text())
    assert read_file(path, DriverParams.from_text) == driver_params
