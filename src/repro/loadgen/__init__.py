"""Foreground traffic: generators, the flow engine, and repair QoS.

See ``docs/foreground_traffic.md`` for the subsystem tour.  Typical use:

>>> profile = LoadProfile(arrival_rate=40.0, duration=30.0)
>>> requests = generate_requests(profile, stripes, node_count=16, seed=7)
>>> engine = ForegroundEngine(stripes, requests, planner,
...                           failed_nodes={failed})
>>> result = repair_full_node(..., foreground=engine,
...                           governor=make_governor("adaptive"))
"""

from repro.loadgen.engine import FOREGROUND, ForegroundEngine
from repro.loadgen.generator import (
    LoadProfile,
    RateShape,
    generate_requests,
    rate_profile_from_trace,
    zipf_weights,
)
from repro.loadgen.governor import (
    AdaptiveSLOGovernor,
    NoGovernor,
    RepairQoSGovernor,
    StaticCapGovernor,
    make_governor,
)
from repro.loadgen.requests import READ, WRITE, ClientRequest, RequestOutcome

__all__ = [
    "FOREGROUND",
    "READ",
    "WRITE",
    "ClientRequest",
    "RequestOutcome",
    "LoadProfile",
    "RateShape",
    "generate_requests",
    "rate_profile_from_trace",
    "zipf_weights",
    "ForegroundEngine",
    "RepairQoSGovernor",
    "NoGovernor",
    "StaticCapGovernor",
    "AdaptiveSLOGovernor",
    "make_governor",
]
