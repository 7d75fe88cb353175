"""First-class runners for the paper's experiments.

Each module reproduces one evaluation artefact programmatically; the
benchmark harness under ``benchmarks/`` wraps these runners with shape
assertions and result recording, and the CLI exposes them as
``repro experiment ...`` commands.
"""

from repro.experiments.config import ExperimentSettings
from repro.experiments.single_chunk import (
    INSTANTS_PER_CELL,
    SCHEMES,
    CellResult,
    congested_instants,
    make_planner,
    run_cell,
    run_figure5,
    stripe_nodes_at,
)
from repro.experiments.sweeps import run_chunk_size_sweep, run_slice_size_sweep
from repro.experiments.fullnode_experiment import run_figure7

__all__ = [
    "INSTANTS_PER_CELL",
    "SCHEMES",
    "CellResult",
    "ExperimentSettings",
    "congested_instants",
    "make_planner",
    "run_cell",
    "run_chunk_size_sweep",
    "run_figure5",
    "run_figure7",
    "run_slice_size_sweep",
    "stripe_nodes_at",
]
