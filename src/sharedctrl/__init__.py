"""Design-time toolchain for safe shared-control supervision.

Learns a finite-state abstraction of a simulated driver, composes it with
vehicle, sensor, and supervision components into a two-player safety game,
synthesizes a memoryless strategy, and validates it by co-simulation with
counterexample-driven refinement.
"""

from .driver import CognitiveDriver, DriverParams, FULL_CHAIN, SHORT_CHAIN
from .game import (
    GameArena,
    Strategy,
    build_arena,
    check_templates,
    extract_strategy,
    realizable,
    solve,
)
from .lstar import EqOracleConfig, LearningSession
from .mealy import MealyMachine, equivalent, minimize, parse, serialize, to_dot
from .scenario import Scenario, braking_scenario, default_scenario, load_scenario
from .supervisor import HazardThresholds, SupervisorConfig, arbitrate
from .world import WorldState, quantize_thw, step_world

__version__ = "0.1.0"
