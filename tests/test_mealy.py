import pytest
from hypothesis import given, settings

from sharedctrl.mealy import (
    AlphabetMismatch,
    FormatError,
    MealyMachine,
    equivalent,
    minimize,
    parse,
    serialize,
    to_dot,
)

from conftest import make_constant, make_toggle, random_machine


def test_step_toggle():
    m = make_toggle()
    assert m.step(0, "a") == (1, "0")
    assert m.step(1, "a") == (0, "1")


def test_step_identity_machine():
    m = MealyMachine(("x",), {0: {"x": (0, "x")}})
    assert m.step(0, "x") == (0, "x")


def test_step_rejects_unknown_symbol():
    m = make_toggle()
    with pytest.raises(ValueError):
        m.step(0, "b")
    with pytest.raises(ValueError):
        m.step(7, "a")


def test_run_empty_word():
    assert make_toggle().run(()) == ()


def test_run_toggle():
    assert make_toggle().run(("a", "a", "a")) == ("0", "1", "0")


def test_run_agrees_with_repeated_step():
    m = make_toggle()
    word = ("a",) * 5
    state = m.initial
    outs = []
    for sym in word:
        state, out = m.step(state, sym)
        outs.append(out)
    assert m.run(word) == tuple(outs)


def test_construction_requires_completeness():
    with pytest.raises(ValueError):
        MealyMachine(("a", "b"), {0: {"a": (0, "x")}})
    with pytest.raises(ValueError):
        MealyMachine(("a",), {0: {"a": (1, "x")}})


def test_minimize_merges_equal_rows():
    # two states behave identically -> collapse to one
    delta = {
        0: {"a": (1, "z")},
        1: {"a": (0, "z")},
    }
    m = MealyMachine(("a",), delta)
    mm = minimize(m)
    assert len(mm.states) == 1
    # exhaustive word check up to |Q| confirms behavioral equality
    for n in range(1, 3):
        word = ("a",) * n
        assert m.run(word) == mm.run(word)


def test_minimize_keeps_minimal_machine():
    m = make_toggle()
    assert len(minimize(m).states) == 2


def test_minimize_idempotent():
    delta = {
        0: {"a": (1, "0"), "b": (0, "0")},
        1: {"a": (2, "0"), "b": (0, "1")},
        2: {"a": (2, "1"), "b": (0, "1")},
    }
    m = MealyMachine(("a", "b"), delta)
    once = minimize(m)
    twice = minimize(once)
    assert len(once.states) == len(twice.states)


def test_minimize_drops_unreachable():
    delta = {
        0: {"a": (0, "0")},
        9: {"a": (9, "1")},
    }
    m = MealyMachine(("a",), delta, initial=0)
    assert len(minimize(m).states) == 1


def test_equivalent_reflexive(toggle):
    assert equivalent(toggle, toggle) == (True, None)


def test_equivalent_finds_short_counterexample(toggle):
    same, ce = equivalent(toggle, make_constant())
    assert not same
    assert len(ce) in (1, 2)
    assert toggle.run(ce) != make_constant().run(ce)


def test_equivalent_after_minimize(toggle):
    assert equivalent(toggle, minimize(toggle)) == (True, None)


def test_equivalent_rejects_alphabet_mismatch(toggle):
    other = make_constant(inputs=("a", "b"))
    with pytest.raises(AlphabetMismatch):
        equivalent(toggle, other)


def test_serialize_round_trip(toggle, oracle_machine):
    for m in (toggle, oracle_machine):
        again = parse(serialize(m))
        assert equivalent(m, again) == (True, None)


def test_serialize_is_canonical(oracle_machine):
    assert serialize(oracle_machine) == serialize(parse(serialize(oracle_machine)))


def test_parse_rejects_garbage():
    with pytest.raises(FormatError):
        parse("")
    with pytest.raises(FormatError):
        parse("mealy v2 1 1 1\nin 'a'\nout 'x'\nt 0 0 0 0")
    with pytest.raises(FormatError):
        parse("mealy v1 1 1 1\nin 'a'\nout 'x'\nt 0 0 5 0")
    # every malformed line is named by its number, blank lines counted
    text = serialize(make_toggle())
    assert text == "mealy v1 2 1 2\nin 'a'\nout '0'\nout '1'\nt 0 0 1 0\nt 1 0 0 1\n"
    for old, new, message in [
        ("mealy v1 2 1 2", "mealy v1 2 one 2", "line 1: bad header counts: 'mealy v1 2 one 2'"),
        ("mealy v1 2 1 2", "mealy v1 -2 1 2", "line 1: bad header counts: 'mealy v1 -2 1 2'"),
        ("in 'a'", "input 'a'", "line 2: expected in symbol line: \"input 'a'\""),
        ("in 'a'", "in 'a", "line 2: bad symbol literal: \"in 'a\""),
        ("out '0'", "out ['0']", "line 3: bad symbol literal: \"out ['0']\""),
        ("out '1'", "in '1'", "line 4: expected out symbol line: \"in '1'\""),
        ("t 0 0 1 0", "\nt 0 x 1 0", "line 6: bad transition line: 't 0 x 1 0'"),
        ("t 0 0 1 0", "t 0 0 1", "line 5: bad transition line: 't 0 0 1'"),
        ("t 1 0 0 1", "t 1 0 2 1", "line 6: state out of range: 't 1 0 2 1'"),
        ("t 1 0 0 1", "t 1 0 0 2", "line 6: symbol index out of range: 't 1 0 0 2'"),
        ("t 1 0 0 1", "\n\nt 0 0 0 1", "line 8: repeated transition: 't 0 0 0 1'"),
    ]:
        with pytest.raises(FormatError) as err:
            parse(text.replace(old, new))
        assert str(err.value) == message


def test_structured_output_symbols_round_trip():
    out_a = (("attend", "read"), -2)
    out_b = (("attend",), 1)
    m = MealyMachine((1, 2), {0: {1: (0, out_a), 2: (0, out_b)}})
    again = parse(serialize(m))
    assert again.run((1, 2)) == (out_a, out_b)


def test_to_dot_single_state():
    m = make_constant(inputs=("a", "b"))
    dot = to_dot(m)
    assert dot.startswith("digraph")
    assert dot.count("->") == 3  # init marker + one edge per symbol
    assert dot.count("{") == dot.count("}")


def test_to_dot_toggle_labels(toggle):
    dot = to_dot(toggle)
    assert 'label="a/0"' in dot
    assert 'label="a/1"' in dot
    assert "__start" in dot


# -- property tests over random machines ------------------------------------

@settings(max_examples=60, deadline=None)
@given(random_machine())
def test_minimize_preserves_behavior(m):
    assert equivalent(m, minimize(m)) == (True, None)


@settings(max_examples=60, deadline=None)
@given(random_machine())
def test_minimize_is_idempotent(m):
    mm = minimize(m)
    assert len(minimize(mm).states) == len(mm.states)


@settings(max_examples=60, deadline=None)
@given(random_machine())
def test_round_trip_is_equivalent(m):
    assert equivalent(m, parse(serialize(m))) == (True, None)


@settings(max_examples=40, deadline=None)
@given(random_machine())
def test_minimal_states_distinguished_within_bound(m):
    mm = minimize(m)
    n = len(mm.states)
    for s1 in mm.states:
        for s2 in mm.states:
            if s1 >= s2:
                continue
            same, word = equivalent(MealyMachine(mm.inputs, mm.delta, initial=s1),
                                    MealyMachine(mm.inputs, mm.delta, initial=s2))
            assert not same
            assert len(word) < n
