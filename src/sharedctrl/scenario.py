"""Scenario definitions: initial conditions, lead profile, hazard thresholds
and the override clamp.

Scenarios live in the `key=value` text of `config_text`: the plain fields
are the keys, and each lead-profile segment is one `profile t acc` line
(named when out of order).  A scenario is the one source of the supervisor's
thresholds (`thw_safe`, `ttc_safe`) and clamp and of the sensor's error
bound.  Built in: the default car-following setting and a harsher braking
variant used for design-space exploration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .config_text import ConfigError, config_lines, finite, parse_config, read_file
from .supervisor import HazardThresholds, SupervisorConfig
from .world import LeadProfile, VehicleState, WorldState, sensor_perturb, step_world


@dataclass(frozen=True)
class Scenario:
    """Initial conditions, lead profile, horizon, sensor noise, thresholds
    and override clamp of one driving situation, each a plain field.

    `lead_track` (the lead's motion) and `perceptions` (the sensor's
    perception sets) follow from the fields alone, so they are computed
    once per scenario and shared by the game and every co-simulation
    episode on it.  So do the `epoch_contexts` that `cosim.execute` fills:
    what one follower state of an episode determines.  They are caches, not
    fields: equality ignores them, and
    `dataclasses.replace` makes a scenario without them.
    """

    name: str = "default"
    lead_pos: float = 50.0
    lead_vel: float = 12.0
    follow_pos: float = 0.0
    follow_vel: float = 15.0
    dest: float = 150.0
    epoch: float = 0.5
    horizon_epochs: int = 28
    sensor_offset: int = 1
    v_max: float = 16.0
    profile: LeadProfile = field(default_factory=lambda: LeadProfile([(0.0, 0.0)]))
    thw_safe: float = 2.0
    ttc_safe: float = 3.0
    acc_floor: float = -3.0
    acc_cap: float = -1.0

    def __post_init__(self):
        if self.lead_pos <= self.follow_pos:
            raise ValueError("initial gap must be positive")
        if self.dest <= self.follow_pos:
            raise ValueError(f"dest ({self.dest}) must lie ahead of "
                             f"follow_pos ({self.follow_pos})")
        if self.epoch <= 0 or self.horizon_epochs < 0:
            raise ValueError("epoch must be positive, horizon non-negative")
        if self.sensor_offset < 0:
            raise ValueError("sensor_offset must be >= 0")
        if not self.v_max > 0:
            raise ValueError("v_max must be positive")
        if not (self.lead_vel >= 0 and self.follow_vel >= 0):
            raise ValueError("lead_vel and follow_vel must be >= 0")
        self.supervisor_config()  # checks the thresholds and the override clamp

    def initial_world(self):
        return WorldState(
            lead=VehicleState(self.lead_pos, self.lead_vel, self.profile.acc_at(0.0)),
            follow=VehicleState(self.follow_pos, self.follow_vel, 0.0),
        )

    @cached_property
    def lead_track(self):
        """The lead's `(t, pos, vel, acc)` at epochs 0..horizon: iterated
        `step_world` from `initial_world`, so `t` is accumulated as it does."""
        worlds = [self.initial_world()]
        for _ in range(self.horizon_epochs):
            worlds.append(step_world(worlds[-1], 0.0, self.epoch, self.profile, v_max=self.v_max))
        return tuple((w.t, w.lead.pos, w.lead.vel, w.lead.acc) for w in worlds)

    @cached_property
    def _perceptions(self):
        return {}  # num_levels -> {level: perceivable levels}

    def perceptions(self, num_levels):
        """Level -> the levels the sensor model may report for it, for
        `num_levels` quantization levels; shared, so never mutate it."""
        sets = self._perceptions.get(num_levels)
        if sets is None:
            sets = self._perceptions[num_levels] = {
                level: sensor_perturb(level, self.sensor_offset, num_levels)
                for level in range(1, num_levels + 1)}
        return sets

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

    @classmethod
    def from_file(cls, path):
        return read_file(path, cls.from_text)


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
    return Scenario.from_file(ref)
