"""Cluster substrate: Master, DataNodes, placement, failure injection."""

from repro.cluster.master import Cluster
from repro.cluster.node import DataNode

__all__ = ["Cluster", "DataNode"]
