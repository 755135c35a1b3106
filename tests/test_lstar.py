import pytest
from hypothesis import given, settings, strategies as st

from sharedctrl.driver import CognitiveDriver
from sharedctrl.lstar import (
    EqOracleConfig,
    LearnStats,
    LearningSession,
    NotDistinguishing,
    ObservationTable,
    RandomWalkOracle,
    TableNotReady,
    build_hypothesis,
    close,
    fill,
    is_closed,
    process_counterexample,
    random_walk_eq,
)
from sharedctrl.mealy import MealyMachine, equivalent, minimize

from conftest import ExactOracle, MachineSUL, make_toggle, random_machine


def make_three_state():
    """Prefixes () and (a,) share single-symbol rows but diverge after 'aa'."""
    delta = {
        0: {"a": (1, "0"), "b": (0, "0")},
        1: {"a": (2, "0"), "b": (0, "0")},
        2: {"a": (2, "1"), "b": (0, "0")},
    }
    return MealyMachine(("a", "b"), delta)


def test_fill_populates_every_cell(fresh_driver):
    table = ObservationTable(fresh_driver.alphabet)
    fill(table, fresh_driver, LearnStats())
    for word in table.S + table.extensions():
        for e in table.E:
            assert (word, e) in table.T


def test_fill_row_of_empty_prefix(fresh_driver, oracle_machine):
    table = ObservationTable(fresh_driver.alphabet)
    fill(table, fresh_driver, LearnStats())
    # row(()) is the driver's first response per level: full chains
    for level in fresh_driver.alphabet:
        (response,) = table.T[((), (level,))]
        chain, acc = response
        assert chain == ("attend", "read", "encode", "retrieve", "decide")
        assert oracle_machine.run((level,)) == (response,)


def test_fill_is_idempotent(fresh_driver):
    table = ObservationTable(fresh_driver.alphabet)
    fill(table, fresh_driver, LearnStats())
    snapshot = dict(table.T)
    fill(table, fresh_driver, LearnStats())
    assert table.T == snapshot


def test_repeated_stimulus_cell_shows_short_chain(fresh_driver):
    table = ObservationTable(fresh_driver.alphabet)
    fill(table, fresh_driver, LearnStats())
    close(table, fresh_driver, LearnStats(), None)
    (response,) = table.T[((1,), (1,))]
    assert response[0] == ("attend", "read", "encode", "n_ret")


def test_close_adds_toggle_successor():
    sul = MachineSUL(make_toggle())
    table = ObservationTable(("a",))
    fill(table, sul, LearnStats())
    assert not is_closed(table)
    close(table, sul, LearnStats(), None)
    assert is_closed(table)
    assert ("a",) in table.S


def test_close_on_closed_table_is_noop():
    sul = MachineSUL(make_toggle())
    table = ObservationTable(("a",))
    fill(table, sul, LearnStats())
    close(table, sul, LearnStats(), None)
    before = list(table.S)
    close(table, sul, LearnStats(), None)
    assert table.S == before


def test_close_never_shrinks_s(fresh_driver):
    table = ObservationTable(fresh_driver.alphabet)
    fill(table, fresh_driver, LearnStats())
    sizes = [len(table.S)]
    close(table, fresh_driver, LearnStats(), None)
    sizes.append(len(table.S))
    assert sizes[1] >= sizes[0]


def test_counterexample_splits_rows_equal_on_single_symbols():
    truth = make_three_state()
    sul = MachineSUL(truth)
    session = LearningSession(sul, ("a", "b"), ExactOracle(truth))
    machine, stats = session.run()
    # () and (a,) agree on E's single symbols: one counterexample adds the
    # suffix "aa" that separates them, and closing then finds all three states
    assert session.table.E == [("a",), ("b",), ("a", "a")]
    assert session.table.S == [(), ("a",), ("a", "a")]
    assert stats.equivalence_queries == 2
    assert equivalent(machine, truth) == (True, None)


def test_build_hypothesis_requires_closed():
    sul = MachineSUL(make_toggle())
    table = ObservationTable(("a",))
    fill(table, sul, LearnStats())
    with pytest.raises(TableNotReady):
        build_hypothesis(table, False)


def test_build_hypothesis_toggle_exact():
    sul = MachineSUL(make_toggle())
    table = ObservationTable(("a",))
    fill(table, sul, LearnStats())
    close(table, sul, LearnStats(), None)
    hyp = build_hypothesis(table, False)
    assert equivalent(hyp, make_toggle()) == (True, None)


def test_hypothesis_agrees_with_table(fresh_driver):
    table = ObservationTable(fresh_driver.alphabet)
    fill(table, fresh_driver, LearnStats())
    close(table, fresh_driver, LearnStats(), None)
    hyp = build_hypothesis(table, False)
    for s in table.S:
        for e in table.E:
            assert hyp.run(s + e)[len(s):] == table.T[(s, e)]


def test_constant_sul_gives_single_state():
    m = MealyMachine(("a", "b"), {0: {"a": (0, "x"), "b": (0, "x")}})
    machine, stats = LearningSession(MachineSUL(m), ("a", "b"), ExactOracle(m)).run()
    assert len(machine.states) == 1
    assert stats.converged


def test_process_counterexample_rejects_agreeing_word():
    sul = MachineSUL(make_toggle())
    table = ObservationTable(("a",))
    fill(table, sul, LearnStats())
    close(table, sul, LearnStats(), None)
    hyp = build_hypothesis(table, False)
    with pytest.raises(NotDistinguishing):
        process_counterexample(table, ("a",), sul, hyp, LearnStats())


def test_process_counterexample_adds_one_suffix():
    truth = make_three_state()
    sul = MachineSUL(truth)
    table = ObservationTable(("a", "b"))
    fill(table, sul, LearnStats())
    close(table, sul, LearnStats(), None)
    hyp = build_hypothesis(table, False)
    same, ce = equivalent(hyp, truth)
    assert not same
    S, E = list(table.S), list(table.E)
    process_counterexample(table, ce, sul, hyp, LearnStats())
    assert table.S == S
    (suffix,) = table.E[len(E):]
    assert table.E[:len(E)] == E
    assert ce[-len(suffix):] == suffix
    assert not is_closed(table)  # the suffix splits a row the hypothesis merged


def test_random_walk_eq_passes_on_exact_machine(fresh_driver, oracle_machine):
    cfg = EqOracleConfig(num_walks=100, rng_seed=5)
    assert random_walk_eq(fresh_driver, oracle_machine, cfg, LearnStats()) is None


def test_random_walk_eq_finds_toggle_divergence():
    stub = MealyMachine(("a",), {0: {"a": (0, "0")}})
    cfg = EqOracleConfig(num_walks=50, max_walk_len=5, rng_seed=1)
    ce = random_walk_eq(MachineSUL(make_toggle()), stub, cfg, LearnStats())
    assert ce is not None
    assert len(ce) == 2  # divergence appears at the second step


def test_random_walk_eq_deterministic(fresh_driver):
    stub = MealyMachine((1, 2, 3, 4), {0: {l: (0, "x") for l in (1, 2, 3, 4)}})
    cfg = EqOracleConfig(rng_seed=99)
    first = random_walk_eq(fresh_driver, stub, cfg, LearnStats())
    fresh_driver.reset()
    second = random_walk_eq(fresh_driver, stub, cfg, LearnStats())
    assert first == second


def test_learn_toggle():
    sul = MachineSUL(make_toggle())
    oracle = RandomWalkOracle(sul, EqOracleConfig(rng_seed=3))
    machine, stats = LearningSession(sul, ("a",), oracle).run()
    assert len(machine.states) == 2
    assert stats.rounds <= 2
    assert equivalent(machine, make_toggle()) == (True, None)


def test_learn_driver_with_exact_oracle(driver_params, oracle_machine):
    sul = CognitiveDriver(driver_params)
    machine, stats = LearningSession(sul, sul.alphabet, ExactOracle(oracle_machine)).run()
    assert stats.converged
    assert equivalent(machine, oracle_machine) == (True, None)


def test_learn_driver_with_random_walks(driver_params, oracle_machine):
    sul = CognitiveDriver(driver_params)
    oracle = RandomWalkOracle(sul, EqOracleConfig(rng_seed=11))
    machine, stats = LearningSession(sul, sul.alphabet, oracle).run()
    assert equivalent(machine, oracle_machine) == (True, None)
    assert stats.transitions == len(machine.states) * 4


def test_learned_machine_input_complete(driver_params):
    sul = CognitiveDriver(driver_params)
    oracle = RandomWalkOracle(sul, EqOracleConfig(rng_seed=2))
    machine, _ = LearningSession(sul, sul.alphabet, oracle).run()
    for state in machine.states:
        assert set(machine.delta[state]) == set(sul.alphabet)


def table_invariants(table):
    """S is prefix-closed and its rows are pairwise distinct."""
    words = set(table.S)
    assert all(s[:i] in words for s in table.S for i in range(len(s)))
    assert len({table.row(s) for s in table.S}) == len(table.S)


def test_prefix_closure_invariant(driver_params):
    sul = CognitiveDriver(driver_params)
    oracle = RandomWalkOracle(sul, EqOracleConfig(rng_seed=4))
    session = LearningSession(sul, sul.alphabet, oracle)
    session.run()
    table_invariants(session.table)
    assert session.table.E


def test_capped_session_builds_coarse_machine(driver_params, oracle_machine):
    sul = CognitiveDriver(driver_params)
    oracle = RandomWalkOracle(sul, EqOracleConfig(rng_seed=6))
    session = LearningSession(sul, sul.alphabet, oracle, state_cap=2)
    machine, _ = session.run()
    assert len(machine.states) <= 2
    same, ce = equivalent(machine, oracle_machine)
    assert not same
    # injecting the counterexample lifts the cap and learning converges
    session.inject_counterexample(ce)
    refined, stats = session.run()
    assert len(refined.states) > len(machine.states)
    assert equivalent(refined, oracle_machine) == (True, None)


@pytest.mark.parametrize("cap", [0, -1])
def test_session_rejects_a_non_positive_state_cap(driver_params, cap):
    sul = CognitiveDriver(driver_params)
    oracle = RandomWalkOracle(sul, EqOracleConfig(rng_seed=0))
    with pytest.raises(ValueError, match="state_cap"):
        LearningSession(sul, sul.alphabet, oracle, state_cap=cap)
    # None is no cap; 1 is the smallest cap
    assert LearningSession(sul, sul.alphabet, oracle).state_cap is None
    machine, _stats = LearningSession(sul, sul.alphabet, oracle, state_cap=1).run()
    assert len(machine.states) == 1


def test_stats_report_text(driver_params):
    sul = CognitiveDriver(driver_params)
    oracle = RandomWalkOracle(sul, EqOracleConfig(rng_seed=0))
    _, stats = LearningSession(sul, sul.alphabet, oracle).run()
    text = stats.report_text()
    assert "membership_queries=" in text
    assert "converged=true" in text


class SuffixCounter:
    """Oracle wrapper that records |E| at every equivalence query."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.sizes = []
        self.session = None

    def __call__(self, hypothesis, stats):
        self.sizes.append(len(self.session.table.E))
        return self.oracle(hypothesis, stats)


def learn_counting_suffixes(truth, cap):
    """Learn `truth` with an exact oracle, injecting one counterexample after
    a capped first run; returns the machine and the session."""
    oracle = SuffixCounter(ExactOracle(truth))
    session = LearningSession(MachineSUL(truth), truth.inputs, oracle, state_cap=cap)
    oracle.session = session
    machine, _ = session.run()
    table_invariants(session.table)
    if cap is not None:
        assert len(machine.states) <= cap
        same, ce = equivalent(truth, machine)
        if not same:
            E = len(session.table.E)
            session.inject_counterexample(ce)
            assert len(session.table.E) - E <= 1
            table_invariants(session.table)
        machine, _ = session.run()
    assert all(b - a <= 1 for a, b in zip(oracle.sizes, oracle.sizes[1:]))
    return machine, session


@settings(max_examples=100, deadline=None)
@given(random_machine(max_states=9), st.integers(min_value=1, max_value=2))
def test_learns_minimal_machine_one_suffix_per_counterexample(truth, cap):
    n_min = len(minimize(truth).states)
    for state_cap in (None, cap):
        machine, session = learn_counting_suffixes(truth, state_cap)
        assert equivalent(machine, truth) == (True, None)
        assert len(machine.states) == n_min
        table_invariants(session.table)
