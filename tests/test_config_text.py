import pytest
from hypothesis import given, settings, strategies as st

from sharedctrl.config_text import ConfigError
from sharedctrl.driver import DriverParams
from sharedctrl.scenario import HazardThresholds, Scenario, braking_scenario
from sharedctrl.world import LeadProfile


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def scenarios(draw):
    follow_pos = draw(floats(-1e3, 1e3))
    floor = draw(floats(-10.0, -0.01))
    v_max = draw(floats(0.5, 80.0))
    times = sorted(draw(st.sets(floats(0.01, 100.0), max_size=4)))
    profile = [(0.0, draw(floats(-5.0, 5.0)))] + [(t, draw(floats(-5.0, 5.0))) for t in times]
    name = draw(st.text(alphabet="abcxyz019_- ", max_size=12)).strip()
    return Scenario(
        name=name,
        lead_pos=follow_pos + draw(floats(0.25, 1e3)),
        lead_vel=draw(floats(0.0, v_max)),
        follow_pos=follow_pos,
        follow_vel=draw(floats(0.0, v_max)),
        dest=follow_pos + draw(floats(0.01, 1e4)),
        horizon_epochs=draw(st.integers(0, 1000)),
        sensor_offset=draw(st.integers(0, 5)),
        v_max=v_max,
        profile=LeadProfile(profile),
        thw_safe=draw(floats(0.01, 10.0)),
        ttc_safe=draw(floats(0.01, 10.0)),
        acc_floor=floor,
        acc_cap=draw(floats(floor, -0.01)),
    )


@st.composite
def driver_params(draw):
    # odd halves give fractional accelerations, even ones integral
    acc = draw(st.sets(st.integers(-12, 8).map(lambda n: n / 2 if n % 2 else n // 2)))
    return DriverParams(
        k1=draw(floats(0.01, 10.0)),
        k2=draw(floats(0.01, 10.0)),
        thw_follow=draw(floats(0.01, 10.0)),
        acc_set=tuple(sorted(acc | {0})),
        thw_levels=tuple(sorted(draw(st.sets(floats(0.01, 10.0), min_size=1, max_size=5)))),
    )


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_scenario_text_round_trip_on_generated_values(sc):
    assert Scenario.from_text(sc.to_text()) == sc


@settings(max_examples=100, deadline=None)
@given(driver_params())
def test_driver_params_text_round_trip_on_generated_values(params):
    assert DriverParams.from_text(params.to_text()) == params


def test_empty_text_gives_the_dataclass_defaults():
    assert Scenario.from_text("") == Scenario()
    assert DriverParams.from_text("") == DriverParams()
    assert Scenario.from_text("# only a comment\n\n") == Scenario()


def test_partial_text_keeps_the_other_defaults():
    sc = Scenario.from_text("thw_safe=2.5\nprofile 0 0\nprofile 4 -3\n")
    assert sc.supervisor_config().thresholds == HazardThresholds(thw_safe=2.5, ttc_safe=3.0)
    assert sc.profile == LeadProfile([(0.0, 0.0), (4.0, -3.0)])
    assert sc.dest == Scenario().dest and sc.horizon_epochs == Scenario().horizon_epochs


def test_scenario_text_keys_are_the_field_names():
    keys = [line.split("=")[0] for line in braking_scenario().to_text().splitlines()
            if "=" in line]
    assert keys == ["name", "lead_pos", "lead_vel", "follow_pos", "follow_vel", "dest",
                    "horizon_epochs", "sensor_offset", "v_max", "thw_safe", "ttc_safe",
                    "acc_floor", "acc_cap"]


@pytest.mark.parametrize("cls, bad, message", [
    (Scenario, "horizon_epoch=5", "unknown key 'horizon_epoch'"),
    (Scenario, "lookahead=2", "unknown key 'lookahead'"),
    (Scenario, "thw_warn=1.5", "unknown key 'thw_warn'"),
    # the step is `world.EPOCH`, no setting of either config
    (Scenario, "epoch=0.5", "unknown key 'epoch'"),
    (DriverParams, "decision_epoch=0.5", "unknown key 'decision_epoch'"),
    (Scenario, "horizon_epochs=5.7", "'horizon_epochs'"),
    (DriverParams, "k1=fast", "'k1'"),
    (Scenario, "dest 150", "expected key=value"),
    (Scenario, "profile 4.0", "expected 'profile t acc'"),
    (Scenario, "dest=150.0", "duplicate key 'dest'"),
    (Scenario, "profile 1 0", "t=0"),
])
def test_bad_lines_are_rejected_with_their_line_number(cls, bad, message):
    text = "# header\ndest=150.0\n" if cls is Scenario else "# header\nk2=0.5\n"
    with pytest.raises(ConfigError) as info:
        cls.from_text(text + bad + "\n")
    assert str(info.value).startswith("line 3: ")
    assert message in str(info.value)


def test_an_out_of_order_profile_row_is_rejected_with_its_line_number():
    with pytest.raises(ConfigError, match="^line 3: profile times must be strictly increasing$"):
        Scenario.from_text("profile 0 0\nprofile 3 1\nprofile 2 0\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("cls, line", [
    (Scenario, "v_max={}"),
    (Scenario, "lead_pos={}"),
    (Scenario, "horizon_epochs={}"),
    (Scenario, "thw_safe={}"),
    (DriverParams, "k1={}"),
    (DriverParams, "thw_levels=1.0,{},3.0"),
    (DriverParams, "acc_set=-1,0,{}"),
])
def test_non_finite_numbers_are_rejected_with_their_line_number(cls, line, value):
    key = line.split("=")[0]
    with pytest.raises(ConfigError) as info:
        cls.from_text("# header\n\n" + line.format(value) + "\n")
    assert str(info.value) == f"line 3: bad value for {key!r}: {value!r} is not a finite number"


@pytest.mark.parametrize("row", ["profile 0 nan", "profile inf 0", "profile 0 -inf",
                                 "profile 0 1e400"])
def test_non_finite_profile_rows_are_rejected_with_their_line_number(row):
    with pytest.raises(ConfigError) as info:
        Scenario.from_text("dest=150.0\n" + row + "\n")
    assert str(info.value).startswith("line 2: expected 'profile t acc'")
