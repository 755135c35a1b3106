import math
from dataclasses import replace

import pytest

from sharedctrl.scenario import Scenario, braking_scenario, default_scenario, load_scenario
from sharedctrl.world import (
    CollisionState,
    LeadProfile,
    SensorErrorModel,
    VehicleState,
    WorldState,
    headway_metrics,
    quantize_thw,
    sensor_perturb,
    step_world,
)

BOUNDS = (1.0, 2.0, 3.0)


def make_world(lead_pos, lead_vel, follow_pos, follow_vel, dest=300.0):
    return WorldState(VehicleState(lead_pos, lead_vel),
                      VehicleState(follow_pos, follow_vel), 0.0, dest)


def thw_of(world):
    return headway_metrics(world.lead.pos, world.lead.vel,
                           world.follow.pos, world.follow.vel)[0]


def ttc_of(world):
    return headway_metrics(world.lead.pos, world.lead.vel,
                           world.follow.pos, world.follow.vel)[1]


def test_step_world_at_rest():
    w = make_world(20.0, 0.0, 0.0, 0.0)
    w2 = step_world(w, 0.0, 0.5)
    assert w2.lead.pos == 20.0 and w2.follow.pos == 0.0
    assert w2.t == 0.5


def test_step_world_euler_update():
    w = make_world(100.0, 0.0, 0.0, 10.0)
    w2 = step_world(w, 2.0, 0.5)
    assert w2.follow.vel == 11.0
    assert w2.follow.pos == 5.0  # old velocity advances the position


def test_step_world_velocity_clamps():
    w = make_world(100.0, 0.0, 0.0, 0.4)
    assert step_world(w, -3.0, 0.5).follow.vel == 0.0
    fast = make_world(100.0, 0.0, 0.0, 39.9)
    assert step_world(fast, 3.0, 0.5, v_max=40.0).follow.vel == 40.0


def test_step_world_uses_profile():
    profile = LeadProfile([(0.0, 0.0), (1.0, -2.0)])
    w = make_world(50.0, 10.0, 0.0, 10.0)
    w1 = step_world(w, 0.0, 0.5, profile)
    assert w1.lead.vel == 10.0          # acc 0 before t=1
    w1b = WorldState(w1.lead, w1.follow, 1.0, w1.dest)
    w2 = step_world(w1b, 0.0, 0.5, profile)
    assert w2.lead.vel == 9.0           # braking segment active


def test_step_world_rejects_bad_dt():
    with pytest.raises(ValueError):
        step_world(make_world(10, 0, 0, 0), 0.0, 0.0)


def test_positions_never_regress():
    w = make_world(50.0, 5.0, 0.0, 3.0)
    for _ in range(30):
        w2 = step_world(w, -3.0, 0.5)
        assert w2.follow.pos >= w.follow.pos
        assert w2.follow.vel >= 0.0
        w = w2


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
    assert sensor_perturb(2, SensorErrorModel(0), 4) == (2,)


def test_sensor_perturb_clamps_at_bottom():
    assert sensor_perturb(1, SensorErrorModel(1), 4) == (1, 2)


def test_sensor_perturb_interior():
    assert sensor_perturb(3, SensorErrorModel(1), 4) == (2, 3, 4)


def test_sensor_perturb_wide_offset():
    assert sensor_perturb(2, SensorErrorModel(3), 4) == (1, 2, 3, 4)


def test_profile_validation():
    with pytest.raises(ValueError):
        LeadProfile([(1.0, 0.0)])          # must start at 0
    with pytest.raises(ValueError):
        LeadProfile([(0.0, 0.0), (0.0, 1.0)])


def test_profile_lookup():
    p = LeadProfile([(0.0, 0.0), (5.0, -2.0), (8.0, 0.0)])
    assert p.acc_at(0.0) == 0.0
    assert p.acc_at(5.0) == -2.0
    assert p.acc_at(7.9) == -2.0
    assert p.acc_at(8.0) == 0.0


def test_scenario_round_trip(tmp_path):
    sc = braking_scenario()
    path = tmp_path / "braking.scenario"
    sc.to_file(path)
    assert Scenario.from_file(path) == sc


def test_scenario_text_round_trip():
    sc = default_scenario()
    assert Scenario.from_text(sc.to_text()) == sc


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(lead_pos=0.0, follow_pos=10.0)


@pytest.mark.parametrize("fields, message", [
    (dict(v_max=0.0), "v_max"),
    (dict(v_max=-1.0), "v_max"),
    (dict(lead_vel=-0.5), "lead_vel"),
    (dict(follow_vel=-2.0), "follow_vel"),
])
def test_scenario_rejects_non_positive_v_max_and_negative_speeds(fields, message):
    with pytest.raises(ValueError, match=message):
        Scenario(**fields)
    text = "".join(f"{key}={value}\n" for key, value in fields.items())
    with pytest.raises(ValueError, match=message):
        Scenario.from_text(text)


def test_equal_scenarios_hash_equal():
    # a frozen value: equal scenarios hash equal, caches or not
    sc = default_scenario()
    assert sc.lead_track and sc.perceptions(4)
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
    default_scenario().to_file(path)
    assert load_scenario(str(path)) == default_scenario()


def test_scenario_initial_world():
    sc = default_scenario()
    w = sc.initial_world()
    assert w.lead.pos == 50.0 and w.follow.vel == 15.0
    assert w.dest == sc.dest


def test_scenario_caches_are_not_fields():
    # computed once per scenario, ignored by equality, not carried by `replace`
    sc = default_scenario()
    track, sets = sc.lead_track, sc.perceptions(4)
    assert sc.lead_track is track and sc.perceptions(4) is sets
    assert len(track) == sc.horizon_epochs + 1
    assert sets == {level: sensor_perturb(level, sc.sensor_model(), 4) for level in range(1, 5)}
    assert Scenario.from_text(sc.to_text()) == sc
    shorter = replace(sc, horizon_epochs=3)
    assert shorter.lead_track == track[:4]
