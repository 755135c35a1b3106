"""Discrete-time longitudinal car-following world.

Two vehicles on a single lane: a lead vehicle driven by a piecewise-constant
acceleration profile and a follower driven by an external acceleration
command.  Explicit Euler integration with positions advanced by the old
velocity; velocities are clamped to [0, v_max].

`advance` is the one step of a vehicle, over `EPOCH`, and `judge` the one
judge of safety and reach at a follower position.  The lead's motion
depends only on the scenario, so its track is the scenario's:
`Scenario.lead_track` steps the lead with `advance` once, under the
`LeadProfile` segment in force at each epoch's time `k * EPOCH`, and the
game and every episode read it from there and step the follower with
`advance` alone.

`LeadProfile` is a frozen dataclass of its validated segments, a value like
the scenario that holds it.  `VehicleState` and `WorldState` are slotted,
not frozen, dataclasses, since a frozen one costs about three times as much
to construct.  Nothing mutates a state once it is built.  A world holds the
two vehicles' positions and velocities, the only fields read of it; the
speed limit and the sensor offset are the scenario's, and the time is a
trace row's.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass


class CollisionState(ValueError):
    """Headway metrics were requested for a world with negative gap."""


@dataclass(slots=True)
class VehicleState:
    pos: float
    vel: float


@dataclass(frozen=True)
class LeadProfile:
    """Piecewise-constant acceleration schedule for the lead vehicle: its
    `segments` are `(start, acc)` float pairs, the first starting at t=0 and
    the starts strictly increasing.  A segment holds until the next starts."""

    segments: tuple

    def __post_init__(self):
        segments = tuple((float(t), float(a)) for t, a in self.segments)
        if not segments or segments[0][0] != 0.0:
            raise ValueError("profile must start at t=0")
        if any(t2 <= t1 for (t1, _), (t2, _) in zip(segments, segments[1:])):
            raise ValueError("profile times must be strictly increasing")
        object.__setattr__(self, "segments", segments)


@dataclass(slots=True)
class WorldState:
    lead: VehicleState
    follow: VehicleState


EPOCH = 0.5  # s: the one decision epoch, the step of the driver, the game and an episode


def advance(pos, vel, acc, dt, v_max):
    """One explicit Euler step of one vehicle: `(pos, vel)` after `dt`, the
    position advanced by the old velocity, the velocity clamped to [0, v_max].

    The clamp is `min(max(v, 0.0), v_max)` written out: the same result for
    every `v`, -0.0 and NaN included, at a third of the cost of two calls,
    since the game steps with it once per controller state."""
    v = vel + acc * dt
    if v < 0.0:
        v = 0.0
    return pos + vel * dt, v_max if v_max < v else v


def judge(follow_pos, lead_pos, dest):
    """The objective's atoms `(overtaken, reached)` at one follower position,
    all three in one unit: at or past the lead is overtaken, even past `dest`;
    reached is not overtaken and at or past `dest`.  The game's states,
    `cosim.epoch_context` and `cosim.monitor` are judged by it."""
    overtaken = follow_pos >= lead_pos
    return overtaken, not overtaken and follow_pos >= dest


def headway_metrics(lead_pos, lead_vel, follow_pos, follow_vel):
    """(thw, ttc) from raw kinematics; +inf where undefined / not closing."""
    gap = lead_pos - follow_pos
    if gap < 0:
        raise CollisionState(f"negative gap: {gap}")
    thw = math.inf if follow_vel <= 0 else gap / follow_vel
    closing = follow_vel - lead_vel
    ttc = gap / closing if closing > 0 else math.inf
    return thw, ttc


def quantize_thw(thw, boundaries):
    """Stimulus level for a headway value; half-open bins, +inf in the top bin."""
    if thw < 0:
        raise ValueError("thw must be non-negative")
    return bisect_right(boundaries, thw) + 1


def sensor_perturb(level, offset, num_levels):
    """Every level within `offset` of `level`, clamped to the valid range."""
    if not 1 <= level <= num_levels:
        raise ValueError(f"level {level} out of range")
    return tuple(sorted({min(max(level + d, 1), num_levels)
                         for d in range(-offset, offset + 1)}))
