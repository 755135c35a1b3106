"""Three-mode shared-control supervision.

The supervisor's three actions (none, hint, override), the mode label each
one shows in a trace (Nominal, Advisory, Intervention), the SafeNow hazard
predicate over (thw, ttc), and acceleration arbitration.  Which action to
take is not decided here: the game's min-intervention strategy chooses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


ACTION_NONE = "none"
ACTION_HINT = "hint"
ACTION_OVERRIDE = "override"
ACTIONS = (ACTION_NONE, ACTION_HINT, ACTION_OVERRIDE)

# the mode label each action shows in a trace
ACTION_MODE = {
    ACTION_NONE: "Nominal",
    ACTION_HINT: "Advisory",
    ACTION_OVERRIDE: "Intervention",
}


@dataclass(frozen=True)
class HazardThresholds:
    thw_safe: float = 2.0
    ttc_safe: float = 3.0

    def __post_init__(self):
        if not (self.thw_safe > 0 and self.ttc_safe > 0):
            raise ValueError("need thw_safe > 0 and ttc_safe > 0")


@dataclass(frozen=True)
class SupervisorConfig:
    thresholds: HazardThresholds = field(default_factory=HazardThresholds)
    acc_floor: float = -3.0
    acc_cap: float = -1.0

    def __post_init__(self):
        if not self.acc_floor <= self.acc_cap < 0:
            raise ValueError("need acc_floor <= acc_cap < 0")


def safe_now(thw, ttc, th):
    return thw >= th.thw_safe and ttc >= th.ttc_safe


def arbitrate(action, driver_acc, cfg):
    """Applied acceleration under `action`: an override clamps the driver's
    acceleration into [acc_floor, acc_cap]; none and hint pass it through."""
    if action == ACTION_OVERRIDE:
        return min(max(driver_acc, cfg.acc_floor), cfg.acc_cap)
    return driver_acc
