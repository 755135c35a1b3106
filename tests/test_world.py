import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from sharedctrl.config_text import read_file
from sharedctrl.scenario import Scenario, braking_scenario, default_scenario, load_scenario
from sharedctrl.world import (
    EPOCH,
    CollisionState,
    LeadProfile,
    VehicleState,
    WorldState,
    advance,
    headway_metrics,
    judge,
    quantize_thw,
    sensor_perturb,
)

from conftest import euler_step, lattice_scenarios, lead_acc

BOUNDS = (1.0, 2.0, 3.0)


def make_world(lead_pos, lead_vel, follow_pos, follow_vel):
    return WorldState(VehicleState(lead_pos, lead_vel), VehicleState(follow_pos, follow_vel))


def thw_of(world):
    return headway_metrics(world.lead.pos, world.lead.vel,
                           world.follow.pos, world.follow.vel)[0]


def ttc_of(world):
    return headway_metrics(world.lead.pos, world.lead.vel,
                           world.follow.pos, world.follow.vel)[1]


def test_advance_at_rest():
    assert advance(20.0, 0.0, 0.0, 0.5, 40.0) == (20.0, 0.0)


def test_advance_euler_update():
    # the old velocity advances the position
    assert advance(0.0, 10.0, 2.0, 0.5, 40.0) == (5.0, 11.0)


def lead_scenario(lead_vel, segments, horizon=4):
    return Scenario(lead_pos=50.0, lead_vel=lead_vel, follow_vel=10.0, horizon_epochs=horizon,
                    v_max=16.0, profile=LeadProfile(segments))


def test_lead_track_clamps_the_lead_speed():
    assert [v for _p, v in lead_scenario(0.4, [(0.0, -3.0)]).lead_track] == [0.4, 0, 0, 0, 0]
    assert [v for _p, v in lead_scenario(15.9, [(0.0, 3.0)]).lead_track] == [15.9, 16, 16, 16, 16]


def test_lead_track_uses_profile():
    # acc 0 before t=1, then the braking segment
    sc = lead_scenario(10.0, [(0.0, 0.0), (1.0, -2.0)])
    assert sc.lead_track == ((50.0, 10.0), (55.0, 10.0), (60.0, 10.0), (65.0, 9.0), (69.5, 8.0))


@settings(max_examples=200, deadline=None)
@given(scenario=lattice_scenarios())
def test_lead_track_is_explicit_euler(scenario):
    # the lead under the segment in force at `k * EPOCH`, a trace row's time
    pos, vel = scenario.lead_pos, scenario.lead_vel
    expected = [(pos, vel)]
    for k in range(scenario.horizon_epochs):
        pos, vel = euler_step(pos, vel, lead_acc(scenario.profile, k * EPOCH), EPOCH,
                              scenario.v_max)
        expected.append((pos, vel))
    assert scenario.lead_track == tuple(expected)


def test_lead_track_starts_a_segment_at_its_epoch():
    # a segment starting at 1.2 s, off the 0.5 s grid, is in force from the
    # step at k = 3 (t = 1.5 s), so the lead's speed first changes at entry 4
    sc = Scenario(horizon_epochs=6, profile=LeadProfile([(0.0, 0.0), (1.2, -2.0)]))
    assert [v for _p, v in sc.lead_track] == [12.0, 12.0, 12.0, 12.0, 11.0, 10.0, 9.0]


def test_the_epoch_is_one_constant_and_no_setting():
    # the driver's law, the world's step and the game all read `EPOCH`
    assert EPOCH == 0.5 and Scenario.epoch == default_scenario().epoch == EPOCH
    assert "epoch" not in Scenario.__dataclass_fields__
    with pytest.raises(TypeError, match="epoch"):
        Scenario(epoch=EPOCH)


NUMBERS = st.one_of(st.floats(), st.integers(-40, 40), st.sampled_from((0.0, -0.0, 0)))


@given(pos=NUMBERS, vel=NUMBERS, acc=NUMBERS, dt=NUMBERS, v_max=NUMBERS)
def test_advance_clamps_as_min_of_max(pos, vel, acc, dt, v_max):
    # the written-out clamp returns what `min(max(v, 0.0), v_max)` returns,
    # down to the sign of a zero, the type and NaN
    v = vel + acc * dt
    expected = (pos + vel * dt, min(max(v, 0.0), v_max))
    got = advance(pos, vel, acc, dt, v_max)
    assert [(type(x), repr(x)) for x in got] == [(type(x), repr(x)) for x in expected]


def test_positions_never_regress():
    pos, vel = 0.0, 3.0
    for _ in range(30):
        pos2, vel = advance(pos, vel, -3.0, 0.5, 40.0)
        assert pos2 >= pos and vel >= 0.0
        pos = pos2


def test_compute_thw():
    assert thw_of(make_world(40.0, 0.0, 10.0, 10.0)) == 3.0


def test_compute_thw_stationary_is_infinite():
    assert thw_of(make_world(40.0, 0.0, 10.0, 0.0)) == math.inf


def test_compute_thw_zero_gap():
    assert thw_of(make_world(10.0, 0.0, 10.0, 5.0)) == 0.0


def test_compute_ttc():
    assert ttc_of(make_world(30.0, 10.0, 10.0, 15.0)) == 4.0


def test_compute_ttc_not_closing():
    assert ttc_of(make_world(30.0, 10.0, 10.0, 10.0)) == math.inf
    assert ttc_of(make_world(30.0, 12.0, 10.0, 10.0)) == math.inf


def test_negative_gap_raises():
    w = make_world(5.0, 0.0, 10.0, 5.0)
    with pytest.raises(CollisionState):
        thw_of(w)
    with pytest.raises(CollisionState):
        ttc_of(w)


def test_headway_metrics_matches_single_calls():
    # gap over follower speed, and gap over closing speed
    thw, ttc = headway_metrics(30.0, 10.0, 10.0, 15.0)
    assert thw == 20.0 / 15.0
    assert ttc == 20.0 / 5.0


def test_quantize_bins():
    assert quantize_thw(0.5, BOUNDS) == 1
    assert quantize_thw(2.5, BOUNDS) == 3
    assert quantize_thw(3.9, BOUNDS) == 4


def test_quantize_boundary_half_open():
    assert quantize_thw(1.0, BOUNDS) == 2
    assert quantize_thw(2.0, BOUNDS) == 3
    assert quantize_thw(3.0, BOUNDS) == 4


def test_quantize_infinite():
    assert quantize_thw(math.inf, BOUNDS) == 4


def test_quantize_rejects_negative():
    with pytest.raises(ValueError):
        quantize_thw(-0.1, BOUNDS)


def test_sensor_perturb_zero_offset():
    assert sensor_perturb(2, 0, 4) == (2,)


def test_sensor_perturb_clamps_at_bottom():
    assert sensor_perturb(1, 1, 4) == (1, 2)


def test_sensor_perturb_interior():
    assert sensor_perturb(3, 1, 4) == (2, 3, 4)


def test_sensor_perturb_wide_offset():
    assert sensor_perturb(2, 3, 4) == (1, 2, 3, 4)


def test_profile_validation():
    with pytest.raises(ValueError):
        LeadProfile([(1.0, 0.0)])          # must start at 0
    with pytest.raises(ValueError):
        LeadProfile([(0.0, 0.0), (0.0, 1.0)])


def test_an_empty_profile_is_rejected():
    # the constant lead is `Scenario.profile`'s default, not the empty list's
    with pytest.raises(ValueError, match="profile must start at t=0"):
        LeadProfile([])


@pytest.mark.parametrize("follow_pos, lead_pos, dest, atoms", [
    (10.0, 30.0, 40.0, (False, False)),   # short of both
    (39.75, 50.0, 40.0, (False, False)),  # one lattice step short of dest
    (40.0, 50.0, 40.0, (False, True)),    # at dest, below the lead
    (45.0, 50.0, 40.0, (False, True)),    # past dest
    (30.0, 30.0, 40.0, (True, False)),    # at the lead
    (40.0, 40.0, 40.0, (True, False)),    # at both: overtaken, so not reached
    (55.0, 50.0, 40.0, (True, False)),    # past the lead and dest
    (159, 160, 159, (False, True)),       # integers: the atoms hold in any one unit
    (160, 160, 159, (True, False)),
])
def test_judge_gives_overtaken_and_reached(follow_pos, lead_pos, dest, atoms):
    assert judge(follow_pos, lead_pos, dest) == atoms


def test_scenario_round_trip(tmp_path):
    sc = braking_scenario()
    path = tmp_path / "braking.scenario"
    path.write_text(sc.to_text(), encoding="utf-8")
    assert read_file(path, Scenario.from_text) == sc


def test_scenario_text_round_trip():
    sc = default_scenario()
    assert Scenario.from_text(sc.to_text()) == sc


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(lead_pos=0.0, follow_pos=10.0)


@pytest.mark.parametrize("fields, message", [
    (dict(lead_pos=math.nan), r"^lead_pos \(nan\) must be finite$"),
    (dict(follow_pos=math.nan), r"^follow_pos \(nan\) must be finite$"),
    (dict(dest=math.nan), r"^dest \(nan\) must be finite$"),
    (dict(follow_pos=-math.inf), r"^follow_pos \(-inf\) must be finite$"),
    (dict(dest=math.inf), r"^dest \(inf\) must be finite$"),
    (dict(sensor_offset=math.nan), r"^sensor_offset \(nan\) must be >= 0$"),
    (dict(horizon_epochs=math.nan), r"^horizon_epochs \(nan\) must be >= 0$"),
])
def test_scenario_refuses_nan_and_infinity_built_directly(fields, message):
    # a file cannot hold them: its parser refuses the number first, naming the line
    with pytest.raises(ValueError, match=message):
        Scenario(**fields)
    (key, value), = fields.items()
    with pytest.raises(ValueError, match=(rf"^line 1: bad value for '{key}': "
                                          rf"'{value}' is not a finite number$")):
        Scenario.from_text(f"{key}={value}\n")


@pytest.mark.parametrize("fields, message", [
    (dict(v_max=0.0), "v_max"),
    (dict(v_max=-1.0), "v_max"),
    (dict(lead_vel=-0.5), "lead_vel"),
    (dict(follow_vel=-2.0), "follow_vel"),
    (dict(lead_vel=20.0), "lead_vel"),
    (dict(follow_vel=20.0), "follow_vel"),
    (dict(v_max=14.0), "follow_vel"),
    (dict(sensor_offset=-1), "sensor_offset"),
    (dict(horizon_epochs=-1), "horizon_epochs"),
    (dict(sensor_offset=-2), r"^sensor_offset \(-2\) must be >= 0$"),
    (dict(v_max=0.0), r"^v_max \(0\.0\) must be positive$"),
    (dict(thw_safe=0.0), r"^thw_safe \(0\.0\) must be positive$"),
    (dict(ttc_safe=-1.0), r"^ttc_safe \(-1\.0\) must be positive$"),
    (dict(acc_cap=0.5), r"^acc_cap \(0\.5\) must be negative$"),
    (dict(acc_floor=-1.0, acc_cap=-2.0), r"^acc_floor \(-1\.0\) must be <= acc_cap \(-2\.0\)$"),
])
def test_scenario_rejects_non_positive_v_max_and_negative_speeds(fields, message):
    with pytest.raises(ValueError, match=message):
        Scenario(**fields)
    text = "".join(f"{key}={value}\n" for key, value in fields.items())
    with pytest.raises(ValueError, match=message):
        Scenario.from_text(text)


@pytest.mark.parametrize("fields", [dict(dest=0.0), dict(follow_pos=20.0, dest=12.5)])
def test_scenario_rejects_a_dest_not_ahead_of_the_start(fields):
    # such a start is already reached: a pipeline would pass it doing nothing
    message = (fr"dest \({fields['dest']}\) must lie ahead of "
               fr"follow_pos \({fields.get('follow_pos', 0.0)}\)")
    with pytest.raises(ValueError, match=message):
        Scenario(**fields)
    text = "".join(f"{key}={value}\n" for key, value in fields.items())
    with pytest.raises(ValueError, match=message):
        Scenario.from_text(text)


@pytest.mark.parametrize("fields", [dict(follow_pos=60.0), dict(lead_pos=20.0, follow_pos=20.0)])
def test_scenario_rejects_a_start_not_behind_the_lead(fields):
    message = (fr"lead_pos \({fields.get('lead_pos', 50.0)}\) must lie ahead of "
               fr"follow_pos \({fields['follow_pos']}\)")
    with pytest.raises(ValueError, match=message):
        Scenario(**fields)
    text = "".join(f"{key}={value}\n" for key, value in fields.items())
    with pytest.raises(ValueError, match=message):
        Scenario.from_text(text)


def test_equal_scenarios_hash_equal():
    # a frozen value: equal scenarios hash equal, caches or not
    sc = default_scenario()
    assert sc.lead_track and sc.epoch_contexts == {}
    assert hash(sc) == hash(default_scenario()) == hash(Scenario.from_text(sc.to_text()))
    assert hash(LeadProfile([(0, 0), (5, -2)])) == hash(LeadProfile([(0.0, 0.0), (5.0, -2.0)]))
    assert len({default_scenario(), default_scenario(), braking_scenario()}) == 2


def test_scenario_checks_the_override_clamp_when_built():
    # the clamp must satisfy acc_floor <= acc_cap < 0 before any game is built
    with pytest.raises(ValueError, match="acc_cap"):
        Scenario.from_text("acc_cap=1.0\n")
    with pytest.raises(ValueError, match="acc_cap"):
        Scenario(acc_floor=-1.0, acc_cap=-2.0)


def test_load_scenario_builtins(tmp_path):
    assert load_scenario("default") == default_scenario()
    assert load_scenario("braking") == braking_scenario()
    path = tmp_path / "custom.scenario"
    path.write_text(default_scenario().to_text(), encoding="utf-8")
    assert load_scenario(str(path)) == default_scenario()


def test_scenario_caches_are_not_fields():
    # computed once per scenario, ignored by equality, not carried by `replace`
    sc = default_scenario()
    track, contexts = sc.lead_track, sc.epoch_contexts
    assert sc.lead_track is track and sc.epoch_contexts is contexts
    assert len(track) == sc.horizon_epochs + 1
    assert Scenario.from_text(sc.to_text()) == sc
    shorter = replace(sc, horizon_epochs=3)
    assert shorter.lead_track == track[:4] and shorter.epoch_contexts is not contexts
