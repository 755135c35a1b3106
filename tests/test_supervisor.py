"""The supervisor's parts: its thresholds and override clamp (`scenario`),
the SafeNow predicate (`cosim`) and arbitration of an action (`game`)."""

import math

import pytest

from sharedctrl.cosim import safe_now
from sharedctrl.game import ACTION_HINT, ACTION_NONE, ACTION_OVERRIDE, arbitrate
from sharedctrl.scenario import HazardThresholds, SupervisorConfig

TH = HazardThresholds(thw_safe=2.0, ttc_safe=3.0)
CFG = SupervisorConfig(TH, acc_floor=-3.0, acc_cap=-1.0)


def test_thresholds_must_be_positive():
    with pytest.raises(ValueError):
        HazardThresholds(thw_safe=0.0, ttc_safe=3.0)
    with pytest.raises(ValueError):
        HazardThresholds(thw_safe=2.0, ttc_safe=-1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SupervisorConfig(TH, acc_floor=-1.0, acc_cap=-3.0)
    with pytest.raises(ValueError):
        SupervisorConfig(TH, acc_floor=-3.0, acc_cap=0.5)


def test_predicates_at_infinity():
    assert safe_now(math.inf, math.inf, TH)


def test_arbitrate_override_clamps_acceleration():
    assert arbitrate(ACTION_OVERRIDE, 2, CFG) == -1


def test_arbitrate_nominal_passthrough():
    assert arbitrate(ACTION_NONE, -1, CFG) == -1


def test_arbitrate_override_keeps_in_range_value():
    assert arbitrate(ACTION_OVERRIDE, -3, CFG) == -3


def test_arbitrate_advisory_hints():
    assert arbitrate(ACTION_HINT, 1, CFG) == 1
