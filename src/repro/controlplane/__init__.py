"""Fleet-scale repair control plane.

Runs N concurrent full-node repairs over one shared
:class:`~repro.network.simulator.FluidSimulator`, arbitrated by a
global Eq. 3-style priority queue with per-tenant QoS classes, a
token-bucket admission gate, an SLO/saturation backpressure loop and a
graceful-degradation ladder.  See ``docs/control_plane.md``.
"""

from repro.controlplane.admission import (
    QOS_CLASSES,
    AdmissionConfig,
    AdmissionController,
    QoSClass,
)
from repro.controlplane.backpressure import (
    BackpressureConfig,
    BackpressureMonitor,
)
from repro.controlplane.plane import (
    ControlPlane,
    FleetResult,
    RepairJob,
)
from repro.controlplane.storm import (
    StormConfig,
    StormReport,
    run_storm,
    storm_fault_plan,
    storm_network,
)

__all__ = [
    "QOS_CLASSES",
    "AdmissionConfig",
    "AdmissionController",
    "BackpressureConfig",
    "BackpressureMonitor",
    "ControlPlane",
    "FleetResult",
    "QoSClass",
    "RepairJob",
    "StormConfig",
    "StormReport",
    "run_storm",
    "storm_fault_plan",
    "storm_network",
]
