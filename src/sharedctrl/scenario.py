"""Scenario definitions: initial conditions, lead profile, hazard thresholds
and the override clamp.

Scenarios live in the `key=value` text of `config_text`: the plain fields
are the keys, and each lead-profile segment is one `profile t acc` line
(named when out of order).  A scenario is the one source of the supervisor's
thresholds (`thw_safe`, `ttc_safe`) and clamp and of the sensor's error
bound; the supervisor's config classes, `HazardThresholds` and
`SupervisorConfig`, are defined here, and `Scenario.supervisor_config`
builds them from those fields.  Built in: the default car-following setting
and a harsher braking variant used for design-space exploration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .config_text import ConfigError, config_lines, finite, parse_config, read_file
from .world import EPOCH, LeadProfile, advance


@dataclass(frozen=True)
class HazardThresholds:
    """SafeNow's bounds, with no defaults: `Scenario.supervisor_config`
    builds them from the scenario's `thw_safe` and `ttc_safe` fields."""

    thw_safe: float
    ttc_safe: float

    def __post_init__(self):
        for name in ("thw_safe", "ttc_safe"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} ({value}) must be positive")


@dataclass(frozen=True)
class SupervisorConfig:
    """The thresholds and the override clamp [acc_floor, acc_cap]."""

    thresholds: HazardThresholds
    acc_floor: float
    acc_cap: float

    def __post_init__(self):
        if not self.acc_cap < 0:
            raise ValueError(f"acc_cap ({self.acc_cap}) must be negative")
        if not self.acc_floor <= self.acc_cap:
            raise ValueError(f"acc_floor ({self.acc_floor}) must be <= acc_cap ({self.acc_cap})")


@dataclass(frozen=True)
class Scenario:
    """Initial conditions, lead profile, horizon, sensor noise, thresholds
    and override clamp of one driving situation, each a plain field.  Every
    scenario steps by `world.EPOCH`, which the class attribute `epoch` holds.

    `lead_track` (the lead's motion) follows from the fields alone, so it
    is stepped once per scenario and shared by the game and every
    co-simulation episode on it.  So do the `epoch_contexts` that
    `cosim.execute` fills: what one follower state of an episode determines.
    They are the scenario's two caches, not fields: equality ignores them,
    and `dataclasses.replace` makes a scenario without them.
    """

    name: str = "default"
    lead_pos: float = 50.0
    lead_vel: float = 12.0
    follow_pos: float = 0.0
    follow_vel: float = 15.0
    dest: float = 150.0
    horizon_epochs: int = 28
    sensor_offset: int = 1
    v_max: float = 16.0
    profile: LeadProfile = field(default_factory=lambda: LeadProfile([(0.0, 0.0)]))
    thw_safe: float = 2.0
    ttc_safe: float = 3.0
    acc_floor: float = -3.0
    acc_cap: float = -1.0
    epoch = EPOCH  # unannotated, so a class attribute and no setting

    def __post_init__(self):
        for name in ("follow_pos", "lead_pos", "dest"):  # the start, then what lies ahead
            pos = getattr(self, name)
            if not math.isfinite(pos):
                raise ValueError(f"{name} ({pos}) must be finite")
            if name != "follow_pos" and not pos > self.follow_pos:
                raise ValueError(f"{name} ({pos}) must lie ahead of follow_pos ({self.follow_pos})")
        if not self.horizon_epochs >= 0:
            raise ValueError(f"horizon_epochs ({self.horizon_epochs}) must be >= 0")
        if not self.sensor_offset >= 0:
            raise ValueError(f"sensor_offset ({self.sensor_offset}) must be >= 0")
        if not self.v_max > 0:
            raise ValueError(f"v_max ({self.v_max}) must be positive")
        for name in ("lead_vel", "follow_vel"):  # `advance` keeps every later speed in range
            vel = getattr(self, name)
            if not 0 <= vel <= self.v_max:
                raise ValueError(f"{name} ({vel}) must lie in [0, v_max] = [0, {self.v_max}]")
        self.supervisor_config()  # checks the thresholds and the override clamp

    @cached_property
    def lead_track(self):
        """The lead's `(pos, vel)` at epochs 0..horizon: from epoch `k` to
        `k + 1` stepped with `world.advance` under the last profile segment
        that starts at or before `k * EPOCH`, the time of a trace's row `k`."""
        pos, vel = self.lead_pos, self.lead_vel
        track = [(pos, vel)]
        for k in range(self.horizon_epochs):
            acc = [a for start, a in self.profile.segments if start <= k * EPOCH][-1]
            pos, vel = advance(pos, vel, acc, EPOCH, self.v_max)
            track.append((pos, vel))
        return tuple(track)

    @cached_property
    def epoch_contexts(self):
        """`thw_levels -> {(k, follow_pos, follow_vel): context}`: the
        `cosim.epoch_context`s that `cosim.execute` has computed on this
        scenario, keyed by the exact follower state."""
        return {}

    def supervisor_config(self):
        return SupervisorConfig(
            thresholds=HazardThresholds(self.thw_safe, self.ttc_safe),
            acc_floor=self.acc_floor,
            acc_cap=self.acc_cap,
        )

    def to_text(self):
        lines = config_lines(self, skip=("profile",))
        lines += [f"profile {t} {a}" for t, a in self.profile.segments]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        values, rows = parse_config(cls, text, rows=("profile",))
        segments = []
        for number, parts in rows["profile"]:
            try:
                t, acc = map(finite, parts)
            except ValueError:
                raise ConfigError(f"line {number}: expected 'profile t acc' "
                                  f"with finite numbers") from None
            segments.append((t, acc))
            try:  # the first row out of order is the first prefix LeadProfile refuses
                values["profile"] = LeadProfile(segments)
            except ValueError as exc:
                raise ConfigError(f"line {number}: {exc}") from None
        return cls(**values)


def default_scenario():
    """Car following with a lead braking phase at t in [5, 8) s.

    The lead recovers its initial speed afterwards so the destination stays
    reachable within the horizon.
    """
    return Scenario(profile=LeadProfile([(0.0, 0.0), (5.0, -2.0), (8.0, 2.0), (11.0, 0.0)]))


def braking_scenario():
    """Short-gap approach onto a lead that brakes to a crawl.

    Separates the design variants: without the override channel the sensor
    noise can goad the driver into the closing gap.  With it the game wins,
    but only by anticipating the lead's braking at t = 4 s: an override can
    only clamp the driver's acceleration into [acc_floor, acc_cap], so the
    winning strategy starts clamping at t = 1.5 s, while the time headway is
    still at least 2.2 s, above `thw_safe`.  Each such override is minimal:
    no less severe action still wins there.
    """
    return Scenario(
        name="braking",
        lead_pos=40.0,
        lead_vel=14.0,
        follow_pos=0.0,
        follow_vel=14.0,
        dest=150.0,
        horizon_epochs=34,
        v_max=22.0,
        profile=LeadProfile([(0.0, 0.0), (4.0, -3.0), (8.0, 2.0), (14.0, 0.0)]),
    )


def load_scenario(ref):
    """Resolve a scenario reference: a builtin name or a file path."""
    if ref == "default":
        return default_scenario()
    if ref == "braking":
        return braking_scenario()
    return read_file(ref, Scenario.from_text)
