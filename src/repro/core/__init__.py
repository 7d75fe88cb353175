"""PivotRepair core: bandwidth views, repair trees, Algorithm 1, scheduling."""

from repro.core.algorithm import (
    PivotRepairPlanner,
    build_pivot_tree,
    insert_pivots,
    replace_leaves,
    select_pivots,
)
from repro.core.bandwidth_view import BandwidthSnapshot, best_uplinks
from repro.core.plan import RepairPlan, RepairPlanner, pin_planning
from repro.core.rack_aware import (
    RackAwarePivotPlanner,
    RackSnapshot,
    rack_bmin,
)
from repro.core.scheduler import SchedulerConfig, recommendation_value
from repro.core.seeding import child_seed_sequence, rng_from, spawn_rng
from repro.core.tree import RepairTree

__all__ = [
    "BandwidthSnapshot",
    "PivotRepairPlanner",
    "RackAwarePivotPlanner",
    "RackSnapshot",
    "RepairPlan",
    "RepairPlanner",
    "RepairTree",
    "SchedulerConfig",
    "best_uplinks",
    "child_seed_sequence",
    "pin_planning",
    "rack_bmin",
    "rng_from",
    "spawn_rng",
    "recommendation_value",
    "build_pivot_tree",
    "insert_pivots",
    "replace_leaves",
    "select_pivots",
]
