import hashlib

import pytest
from hypothesis import strategies as st

from sharedctrl.cosim import synthesize
from sharedctrl.driver import CognitiveDriver, DriverParams, explicit_machine
from sharedctrl.game import (
    ACTION_SEVERITY, TURN_CTRL, TURN_ENV, GameArena, arena_stats_text, build_arena,
    extract_strategy, solve,
)
from sharedctrl.mealy import MealyMachine, equivalent, minimize
from sharedctrl.scenario import Scenario, braking_scenario, default_scenario
from sharedctrl.world import LeadProfile


def make_toggle():
    """Two states flipping on 'a'; output is the current state id as text."""
    delta = {
        0: {"a": (1, "0")},
        1: {"a": (0, "1")},
    }
    return MealyMachine(("a",), delta, initial=0)


@st.composite
def random_machine(draw, max_states=5):
    """Random input-complete machine: 1..max_states states, 1-3 inputs and outputs."""
    n = draw(st.integers(min_value=1, max_value=max_states))
    n_sym = draw(st.integers(min_value=1, max_value=3))
    inputs = tuple(f"i{k}" for k in range(n_sym))
    n_out = draw(st.integers(min_value=1, max_value=3))
    delta = {}
    for s in range(n):
        delta[s] = {}
        for a in inputs:
            succ = draw(st.integers(min_value=0, max_value=n - 1))
            out = draw(st.integers(min_value=0, max_value=n_out - 1))
            delta[s][a] = (succ, f"o{out}")
    return MealyMachine(inputs, delta)


@st.composite
def lattice_scenarios(draw, max_horizon=24):
    """Scenarios on the arena lattice: gap, speeds, a three-segment lead
    profile, horizon (up to `max_horizon`) and sensor offset redrawn from
    the built-in ranges."""
    horizon = draw(st.integers(0, max_horizon))
    t1 = draw(st.integers(1, 20)) / 2
    t2 = t1 + draw(st.integers(1, 12)) / 2
    accs = st.integers(-3, 2).map(float)
    return Scenario(
        name="random",
        lead_pos=draw(st.integers(40, 200)) / 4,
        lead_vel=draw(st.integers(0, 32)) / 2,
        follow_vel=draw(st.integers(0, 32)) / 2,
        dest=draw(st.integers(320, 480)) / 4,
        horizon_epochs=horizon,
        sensor_offset=draw(st.integers(0, 1)),
        profile=LeadProfile([(0.0, draw(accs)), (t1, draw(accs)), (t2, draw(accs))]),
    )


def make_constant(output="0", inputs=("a",)):
    return MealyMachine(inputs, {0: {a: (0, output) for a in inputs}}, initial=0)


def arena_from_graph(nodes, initial, bad=(), goal=()):
    """A fully explored arena from `{name: (turn, [(label, succ), ...])}`,
    `turn` "c" or "e", numbered in order; controller labels must be unique."""

    def explore(arena, i):
        turn, edges = nodes[arena.states[i]]
        if turn == "c":
            edges = sorted(edges, key=lambda e: ACTION_SEVERITY.get(e[0], 0))
        return tuple(e[0] for e in edges), tuple(arena.index[e[1]] for e in edges)

    arena = GameArena(explore, None, {"variant": "full", "driver": None})
    for name, (turn, edges) in nodes.items():
        if turn == "c" and len({e[0] for e in edges}) != len(edges):
            raise ValueError(f"controller state {name!r} has two edges with the same label")
        is_bad, is_goal = name in bad, name in goal
        arena.add(name, TURN_CTRL if turn == "c" else TURN_ENV, is_bad, is_goal,
                  not edges or is_bad or is_goal)
    for i in range(arena.n_states):
        arena.successors(i)
    arena.initial = arena.index[initial]
    return arena


def region_members(region):
    """The states of a fully explored arena that the controller wins."""
    return frozenset(i for i in range(region.arena.n_states) if i in region)


class ConstantStrategy:
    """Fixed-action strategy stub (baselines and mutation tests); not certified."""

    certified = False

    def __init__(self, action, variant="full"):
        self.action = action
        self.variant = variant

    def action_for(self, state):
        return self.action


class RecordingStrategy:
    """Answers as `strategy` does and keeps every state it is asked about, in
    order."""

    certified = False

    def __init__(self, strategy):
        self.strategy = strategy
        self.asked = []

    def action_for(self, state):
        self.asked.append(state)
        return self.strategy.action_for(state)


class ExactOracle:
    """Equivalence oracle against a known ground-truth machine (product BFS)."""

    def __init__(self, reference):
        self.reference = reference

    def __call__(self, hypothesis, stats):
        stats.equivalence_queries += 1
        same, ce = equivalent(self.reference, hypothesis)
        return None if same else ce


class MachineSUL:
    """SUL adapter over an explicit Mealy machine (for learner tests)."""

    def __init__(self, machine):
        self.machine = machine
        self.state = machine.initial

    def reset(self):
        self.state = self.machine.initial

    def query(self, symbol):
        self.state, out = self.machine.step(self.state, symbol)
        return out


@pytest.fixture
def toggle():
    return make_toggle()


@pytest.fixture
def constant():
    return make_constant()


@pytest.fixture(scope="session")
def driver_params():
    return DriverParams()


@pytest.fixture(scope="session")
def oracle_machine(driver_params):
    """Ground-truth minimal machine of the reference driver."""
    return minimize(explicit_machine(driver_params))


@pytest.fixture(scope="session")
def default_sc():
    return default_scenario()


@pytest.fixture(scope="session")
def braking_sc():
    return braking_scenario()


@pytest.fixture(scope="session")
def synthesis_counts():
    """Scenario name -> (explored states, solver iterations, explored edges,
    sha256 of `arena_stats_text`) of its session synthesis when it was made;
    later tests may explore the arena further."""
    return {}


def synthesis_snapshot(arena, region):
    stats = arena_stats_text(arena, region).encode()
    return (arena.n_states, region.iterations, arena.n_edges,
            hashlib.sha256(stats).hexdigest())


@pytest.fixture(scope="session")
def default_synthesis(oracle_machine, default_sc, driver_params, synthesis_counts):
    """Arena, winning region, and strategy for the default scenario."""
    arena = build_arena(oracle_machine, default_sc, driver_params, "full")
    region = solve(arena)
    strategy = extract_strategy(arena, region)
    synthesis_counts[default_sc.name] = synthesis_snapshot(arena, region)
    return arena, region, strategy


@pytest.fixture(scope="session")
def braking_synthesis(oracle_machine, braking_sc, driver_params, synthesis_counts):
    """Arena, winning region, and strategy for the braking scenario."""
    syn = synthesize(oracle_machine, braking_sc, driver_params, "full")
    synthesis_counts[braking_sc.name] = synthesis_snapshot(syn.arena, syn.arena.region)
    return syn.arena, syn.arena.region, syn.strategy


@pytest.fixture
def fresh_driver(driver_params):
    return CognitiveDriver(driver_params)
