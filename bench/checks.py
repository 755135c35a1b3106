"""Checks of the program's outputs against properties and independent computation.

Nothing here compares with stored output.  A co-simulated trace is re-derived
from its scenario and its own rows, independently of `monitor`; a learned
abstraction is compared with the driver enumerated directly; realizability is
held to the answers the built-in scenarios were designed for.
"""

from __future__ import annotations

import math

from sharedctrl.cosim import (
    STATUS_GOAL, STATUS_MIN_INTERVENTION, STATUS_PASS, STATUS_RESPONSE, STATUS_SAFETY,
)
from sharedctrl.driver import FULL_CHAIN, CognitiveDriver, explicit_machine
from sharedctrl.mealy import equivalent, minimize

MODE_OF_ACTION = {"none": "Nominal", "hint": "Advisory", "override": "Intervention"}
# Each variant's action set contains the one before it.
VARIANT_LADDER = ("advisory-only", "no-override", "full")
# What the built-in scenarios were designed to show.
DESIGNED_WINS = {"braking": {"full"}}
MUST_WIN = (("default", "full"),)


def _same(a, b):
    return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-9)


def lead_states(scenario, steps):
    """Lead (pos, vel) at the start of each epoch and after the last one,
    integrated from the scenario's piecewise-constant profile."""
    eps = scenario.epoch
    pos, vel = scenario.lead_pos, scenario.lead_vel
    out = [(pos, vel)]
    for k in range(steps):
        t = k * eps
        acc = [a for start, a in scenario.profile.segments if start <= t][-1]
        pos, vel = pos + vel * eps, min(max(vel + acc * eps, 0.0), scenario.v_max)
        out.append((pos, vel))
    return out


def _follower_after(pos, vel, acc, scenario):
    eps = scenario.epoch
    return pos + vel * eps, min(max(vel + acc * eps, 0.0), scenario.v_max)


def simulation_faults(trace, scenario, cfg, params):
    """Rows and final world that do not follow from the scenario, the driver
    and the rows' own actions.  Empty for every trace of a sound simulator."""
    rows = trace.rows
    n = len(rows)
    if n > scenario.horizon_epochs:
        return [f"{n} rows exceed the horizon of {scenario.horizon_epochs}"]
    faults = []
    lead = lead_states(scenario, n)
    follow = (scenario.follow_pos, scenario.follow_vel)
    driver = CognitiveDriver(params)
    for k, row in enumerate(rows):
        if not _same(row.t, k * scenario.epoch):
            faults.append(f"row {k}: t={row.t}")
        if not (_same(row.lead_pos, lead[k][0]) and _same(row.lead_vel, lead[k][1])):
            faults.append(f"row {k}: lead {row.lead_pos, row.lead_vel} != {lead[k]}")
        if not (_same(row.follow_pos, follow[0]) and _same(row.follow_vel, follow[1])):
            faults.append(f"row {k}: follower {row.follow_pos, row.follow_vel} != {follow}")
        chain, acc = driver.query(row.perceived_level)
        if (chain, acc) != (tuple(row.rule_chain), row.driver_acc):
            faults.append(f"row {k}: driver said {chain, acc}, row has "
                          f"{row.rule_chain, row.driver_acc}")
        if MODE_OF_ACTION.get(row.action) != row.mode:
            faults.append(f"row {k}: action {row.action} in mode {row.mode}")
        if row.action == "override":
            clamped = min(max(row.driver_acc, cfg.acc_floor), cfg.acc_cap)
            if not cfg.acc_floor <= row.applied_acc <= cfg.acc_cap or (
                    row.certified and row.applied_acc != clamped):
                faults.append(f"row {k}: override applied {row.applied_acc} "
                              f"to driver {row.driver_acc}")
        elif row.applied_acc != row.driver_acc:
            faults.append(f"row {k}: {row.action} applied {row.applied_acc} "
                          f"instead of the driver's {row.driver_acc}")
        if row.action == "hint":
            driver.apply_hint()
        follow = _follower_after(row.follow_pos, row.follow_vel, row.applied_acc, scenario)
    final = trace.final_world
    if not (_same(final.lead.pos, lead[n][0]) and _same(final.lead.vel, lead[n][1])):
        faults.append(f"final lead {final.lead.pos, final.lead.vel} != {lead[n]}")
    if not (_same(final.follow.pos, follow[0]) and _same(final.follow.vel, follow[1])):
        faults.append(f"final follower {final.follow.pos, final.follow.vel} != {follow}")
    stopped_early = n < scenario.horizon_epochs
    if stopped_early and final.follow.pos < min(final.lead.pos, scenario.dest):
        faults.append(f"episode stopped after {n} epochs with the follower "
                      "neither past the lead nor at the destination")
    return faults


def expected_status(trace, scenario, cfg):
    """The objective a trace violates first, in the order monitor documents
    (safety, goal, min-intervention, response), or the pass status."""
    rows = trace.rows
    final = trace.final_world
    if any(row.lead_pos - row.follow_pos <= 0 for row in rows) or \
            final.lead.pos - final.follow.pos <= 0:
        return STATUS_SAFETY
    if final.follow.pos < scenario.dest:
        return STATUS_GOAL
    th = cfg.thresholds
    for row in rows:
        if row.action != "override" or row.certified:
            continue
        gap = row.lead_pos - row.follow_pos
        thw = gap / row.follow_vel if row.follow_vel > 0 else math.inf
        closing = row.follow_vel - row.lead_vel
        ttc = gap / closing if closing > 0 else math.inf
        if thw >= th.thw_safe and ttc >= th.ttc_safe:
            return STATUS_MIN_INTERVENTION  # needless uncertified override
    for row, nxt in zip(rows, rows[1:]):
        if row.action == "hint" and tuple(nxt.rule_chain) != FULL_CHAIN:
            return STATUS_RESPONSE
    return STATUS_PASS


def check_trace(trace, verdict, scenario, cfg, params, must_pass=True):
    """Faults of one co-simulated trace: simulation faults, disagreement with
    monitor's `verdict`, and, when `must_pass`, any violated objective or
    strategy-lookup miss."""
    faults = simulation_faults(trace, scenario, cfg, params)
    status = expected_status(trace, scenario, cfg)
    if status != verdict.status:
        faults.append(f"monitor says {verdict.status}, checker says {status}")
    if must_pass and status != STATUS_PASS:
        faults.append(f"objective violated: {status}")
    if must_pass and trace.lookup_misses:
        faults.append(f"{trace.lookup_misses} strategy lookup misses")
    return faults


def exact_abstraction(params):
    """The driver's minimal machine, enumerated rather than learned."""
    return minimize(explicit_machine(params))


def abstraction_faults(hm, reference, what):
    same, word = equivalent(hm, reference)
    return [] if same else [f"{what} differs from the enumerated driver on {word!r}"]


def realizability_faults(won):
    """`won[(scenario, variant)]` against monotonicity in the action set and
    the answers the scenarios were designed for."""
    faults = []
    for name in sorted({s for s, _ in won}):
        ladder = [won[(name, v)] for v in VARIANT_LADDER if (name, v) in won]
        if ladder != sorted(ladder):
            faults.append(f"{name}: realizability not monotone in the action set: {ladder}")
    for name, wins in DESIGNED_WINS.items():
        got = {v for (s, v), ok in won.items() if s == name and ok}
        if got != wins:
            faults.append(f"{name}: realizable for {sorted(got)}, designed for {sorted(wins)}")
    for key in MUST_WIN:
        if not won.get(key):
            faults.append(f"{key[0]}/{key[1]} is not realizable")
    return faults
