"""Baseline repair schemes the paper compares against."""

from repro.baselines.conventional import ConventionalPlanner
from repro.baselines.ppr import PPRPlanner, ppr_stages
from repro.baselines.ppt import PPTPlanner, prufer_decode, tree_count
from repro.baselines.rp import RPPlanner
from repro.baselines.smf import SMFPlanner

__all__ = [
    "ConventionalPlanner",
    "PPRPlanner",
    "PPTPlanner",
    "RPPlanner",
    "SMFPlanner",
    "ppr_stages",
    "prufer_decode",
    "tree_count",
]
