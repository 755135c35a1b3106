"""Discrete-time longitudinal car-following world.

Two vehicles on a single lane: a lead vehicle driven by a piecewise-constant
acceleration profile and a follower driven by an external acceleration
command.  Explicit Euler integration with positions advanced by the old
velocity; velocities are clamped to [0, v_max].

`advance` is the one definition of a vehicle's step.  `step_world` applies it
to both vehicles; co-simulation applies it to the follower alone, since the
lead's motion depends only on the scenario: `Scenario.lead_track` integrates
it with `step_world` once, and every episode reads it from there.

`VehicleState` and `WorldState` are slotted, not frozen, dataclasses, since a
frozen one costs about three times as much to construct.  Nothing mutates a
state once it is built; `step_world` always returns new ones.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

V_MAX_DEFAULT = 40.0


class CollisionState(ValueError):
    """Headway metrics were requested for a world with negative gap."""


@dataclass(slots=True)
class VehicleState:
    pos: float
    vel: float
    acc: float = 0.0


class LeadProfile:
    """Piecewise-constant acceleration schedule for the lead vehicle."""

    def __init__(self, segments):
        segments = [(float(t), float(a)) for t, a in segments]
        if not segments:
            segments = [(0.0, 0.0)]
        if segments[0][0] != 0.0:
            raise ValueError("profile must start at t=0")
        times = [t for t, _ in segments]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("profile times must be strictly increasing")
        self.segments = tuple(segments)
        self._times = tuple(times)

    def acc_at(self, t):
        idx = bisect_right(self._times, t) - 1
        if idx < 0:
            idx = 0
        return self.segments[idx][1]

    def __eq__(self, other):
        return isinstance(other, LeadProfile) and self.segments == other.segments

    def __hash__(self):
        return hash(self.segments)


@dataclass(slots=True)
class WorldState:
    lead: VehicleState
    follow: VehicleState
    t: float = 0.0
    dest: float = math.inf


@dataclass(frozen=True)
class SensorErrorModel:
    """Bounded perturbation of the quantized headway level."""

    max_level_offset: int = 1

    def __post_init__(self):
        if self.max_level_offset < 0:
            raise ValueError("max_level_offset must be >= 0")


def step_world(world, follow_acc, dt, profile=None, v_max=V_MAX_DEFAULT):
    """Advance both vehicles by `dt`.

    The lead acceleration is read from `profile` at the current time when a
    profile is given, else the lead keeps its stored acceleration.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    lead, follow = world.lead, world.follow
    lead_acc = profile.acc_at(world.t) if profile is not None else lead.acc
    return WorldState(
        VehicleState(*advance(lead.pos, lead.vel, lead_acc, dt, v_max), lead_acc),
        VehicleState(*advance(follow.pos, follow.vel, follow_acc, dt, v_max), follow_acc),
        world.t + dt,
        world.dest,
    )


def advance(pos, vel, acc, dt, v_max):
    """One explicit Euler step of one vehicle: `(pos, vel)` after `dt`, the
    position advanced by the old velocity, the velocity clamped to [0, v_max]."""
    return pos + vel * dt, min(max(vel + acc * dt, 0.0), v_max)


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


def sensor_perturb(level, model, num_levels):
    """All perceived levels within the offset bound, clamped to valid range."""
    if not 1 <= level <= num_levels:
        raise ValueError(f"level {level} out of range")
    off = model.max_level_offset
    return tuple(sorted({min(max(level + d, 1), num_levels)
                         for d in range(-off, off + 1)}))
