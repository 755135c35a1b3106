"""Reference cognitive driver: per-stimulus deliberation over headway levels.

The driver reacts to quantized time-headway stimuli.  A changed stimulus
triggers a full deliberation chain ending in a new acceleration decision; a
repeated stimulus takes the short retrieval path and reuses the cached
decision.  The acceleration update follows a discretized car-following law:

    delta_a = k1 * (thw - prev_thw) + k2 * (thw - thw_follow) * dt

with the result snapped to the nearest admissible acceleration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config_text import config_lines, parse_config, read_file
from .mealy import MealyMachine

FULL_CHAIN = ("attend", "read", "encode", "retrieve", "decide")
SHORT_CHAIN = ("attend", "read", "encode", "n_ret")


@dataclass(frozen=True)
class DriverParams:
    """Tunable constants of the reference driver."""

    k1: float = 1.0           # gain on headway change, 1/s^2
    k2: float = 0.5           # gain on headway error rate, 1/s^3
    thw_follow: float = 2.0   # desired time headway, s
    decision_epoch: float = 0.5  # elapsed time between stimuli, s
    acc_set: tuple = (-3, -2, -1, 0, 1, 2)      # admissible accelerations, m/s^2
    thw_levels: tuple = (1.0, 2.0, 3.0)         # quantization boundaries, s

    def __post_init__(self):
        # tuples keep the params hashable: they key the driver's transition table
        for name in ("acc_set", "thw_levels"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.k1 <= 0 or self.k2 <= 0:
            raise ValueError("k1 and k2 must be positive")
        if self.thw_follow <= 0 or self.decision_epoch <= 0:
            raise ValueError("thw_follow and decision_epoch must be positive")
        if not self.acc_set or 0 not in self.acc_set:
            raise ValueError("acc_set must be non-empty and contain 0")
        if tuple(sorted(self.acc_set)) != tuple(self.acc_set):
            raise ValueError("acc_set must be sorted")
        if not self.thw_levels or not all(0 < b < math.inf for b in self.thw_levels):
            raise ValueError(f"thw_levels must be positive finite headways, got {self.thw_levels}")
        if any(b2 <= b1 for b1, b2 in zip(self.thw_levels, self.thw_levels[1:])):
            raise ValueError("thw_levels boundaries must be strictly increasing")

    @property
    def num_levels(self):
        return len(self.thw_levels) + 1

    def representative(self, level):
        """Representative headway of a stimulus level (bin midpoints, top capped)."""
        bounds = self.thw_levels
        if not 1 <= level <= len(bounds) + 1:
            raise ValueError(f"stimulus level {level} out of range")
        if level == 1:
            return bounds[0] / 2.0
        if level == len(bounds) + 1:
            return bounds[-1] + 0.5
        return (bounds[level - 2] + bounds[level - 1]) / 2.0

    def levels(self):
        return tuple(range(1, self.num_levels + 1))

    def to_text(self):
        return "\n".join(config_lines(self)) + "\n"

    @classmethod
    def from_text(cls, text):
        values, _rows = parse_config(cls, text)
        return cls(**values)

    @classmethod
    def from_file(cls, path):
        return read_file(path, cls.from_text)


def decide_acceleration(thw, prev_thw, dt, params, prev_acc):
    """New acceleration: previous decision plus the car-following correction,
    snapped to the nearest member of `acc_set` (ties resolved toward 0)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    delta = params.k1 * (thw - prev_thw) + params.k2 * (thw - params.thw_follow) * dt
    target = prev_acc + delta
    return min(params.acc_set, key=lambda a: (abs(a - target), abs(a), a))


def initial_driver_state(params):
    """Fresh internal state: no stimulus seen, neutral acceleration."""
    return (None, 0, params.thw_follow)


def driver_step(state, level, params):
    """Pure transition of the driver: `(state, level) -> (state', response)`.

    `state` is `(last_level, last_acc, last_thw)`; the response is a plain
    `(rule_chain, acc)` tuple so it can serve directly as a Mealy output
    symbol.
    """
    last_level, last_acc, last_thw = state
    if level == last_level:
        return state, (SHORT_CHAIN, last_acc)
    thw = params.representative(level)
    acc = decide_acceleration(thw, last_thw, params.decision_epoch, params, last_acc)
    return (level, acc, thw), (FULL_CHAIN, acc)


class CognitiveDriver:
    """Stateful system-under-learning wrapper around `driver_step`.

    One instance is single-owner mutable state: interleaved queries from
    concurrent callers are not supported, but independent instances are.
    Since `driver_step` is pure, its results are kept in one transition
    table per `DriverParams`, shared by every instance built with equal
    params: a driver made for one episode starts with what earlier ones
    computed.  A table holds at most one entry per reachable internal state
    and level, and an entry never changes once written, so instances in
    different threads at worst compute one twice.
    """

    _tables = {}  # DriverParams -> {(state, level): (state', response)}

    def __init__(self, params=None):
        self.params = params if params is not None else DriverParams()
        self._level_set = set(self.params.levels())
        self._table = self._tables.setdefault(self.params, {})
        self.reset()

    @property
    def alphabet(self):
        return self.params.levels()

    @property
    def state(self):
        return self._state

    def reset(self):
        self._state = initial_driver_state(self.params)

    def query(self, level):
        """Deliberate on one stimulus; returns the `(rule_chain, acc)` response."""
        if level not in self._level_set:
            raise ValueError(f"stimulus level {level!r} out of range")
        key = (self._state, level)
        step = self._table.get(key)
        if step is None:
            step = self._table[key] = driver_step(self._state, level, self.params)
        self._state, response = step
        return response

    def apply_hint(self):
        """Force full deliberation on the next stimulus (clears the cached level)."""
        self._state = (None, self._state[1], self._state[2])


def explicit_machine(params=None):
    """Enumerate the driver's reachable internal states into a Mealy machine.

    Breadth-first exploration over `driver_step`; this is the ground-truth
    automaton of the driver under stimulus inputs (hints excluded) and the
    oracle that learned models are compared against.
    """
    params = params if params is not None else DriverParams()
    levels = params.levels()
    start = initial_driver_state(params)
    ids = {start: 0}
    order = [start]
    delta = {}
    i = 0
    while i < len(order):
        state = order[i]
        table = {}
        for level in levels:
            succ, out = driver_step(state, level, params)
            if succ not in ids:
                ids[succ] = len(order)
                order.append(succ)
            table[level] = (ids[succ], out)
        delta[i] = table
        i += 1
    return MealyMachine(levels, delta, initial=0)
