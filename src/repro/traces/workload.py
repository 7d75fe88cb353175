"""Workload trace container.

A :class:`WorkloadTrace` holds per-node *used* uplink/downlink bandwidth
sampled at fixed intervals — the quantity the paper measures with ``nload``
(Section III-A).  Available bandwidth for repair is the edge capacity minus
the used bandwidth, per direction, which converts directly into the
time-varying :class:`~repro.network.topology.StarNetwork` the repair
experiments run on.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import TraceError
from repro.network.bandwidth import sample_grid, traces_on_grid
from repro.network.topology import StarNetwork
from repro.units import gbps


@dataclass
class WorkloadTrace:
    """Used bandwidth of every node over time.

    Attributes:
        name: workload label ("TPC-DS", "TPC-H", "SWIM", ...).
        capacity: per-direction edge bandwidth in bytes/second (1 Gb/s in
            the paper's testbed).
        used_up: array of shape (nodes, samples), bytes/second.
        used_down: same shape, bytes/second.
        interval: sampling interval in seconds.
    """

    name: str
    capacity: float
    used_up: np.ndarray
    used_down: np.ndarray
    interval: float = 1.0

    def __post_init__(self) -> None:
        self.used_up = np.asarray(self.used_up, dtype=float)
        self.used_down = np.asarray(self.used_down, dtype=float)
        if self.used_up.shape != self.used_down.shape:
            raise TraceError("used_up and used_down shapes differ")
        if self.used_up.ndim != 2:
            raise TraceError("usage arrays must be (nodes, samples)")
        if self.used_up.shape[1] < 1:
            raise TraceError(
                f"usage arrays hold {self.used_up.shape[1]} samples: "
                "a trace needs at least one"
            )
        if not self.capacity > 0:
            raise TraceError("capacity must be positive")
        if not self.interval > 0:
            raise TraceError("interval must be positive")
        limit = self.capacity + 1e-6
        for direction, array in (("up", self.used_up), ("down", self.used_down)):
            # NaN fails both comparisons, so one check finds all three.
            if not ((array >= 0) & (array <= limit)).all():
                if (array < 0).any():
                    raise TraceError("used bandwidth cannot be negative")
                if (array > limit).any():
                    raise TraceError("used bandwidth exceeds capacity")
                node, sample = np.argwhere(np.isnan(array))[0]
                raise TraceError(
                    f"used {direction} bandwidth of node {node}, "
                    f"sample {sample} is nan"
                )

    @property
    def node_count(self) -> int:
        return self.used_up.shape[0]

    @property
    def sample_count(self) -> int:
        return self.used_up.shape[1]

    def used_node_bandwidth(self) -> np.ndarray:
        """max(used up, used down) per node per second (§III-A)."""
        return np.maximum(self.used_up, self.used_down)

    def available_up(self) -> np.ndarray:
        return np.clip(self.capacity - self.used_up, 0.0, None)

    def available_down(self) -> np.ndarray:
        return np.clip(self.capacity - self.used_down, 0.0, None)

    def available_node_bandwidth(self) -> np.ndarray:
        """min(available up, available down) per node per second."""
        return np.minimum(self.available_up(), self.available_down())

    def to_network(self, floor: float = 0.0) -> StarNetwork:
        """Star network whose available capacities replay this trace.

        Args:
            floor: minimum available bandwidth (bytes/second) so that the
                repair never fully starves (models the rate-throttled repair
                reservation practical systems keep [24, 48]).
        """
        grid = sample_grid(self.sample_count, self.interval)
        return StarNetwork.from_traces(
            traces_on_grid(
                grid, np.clip(self.available_up(), floor, None), "uplink"
            ),
            traces_on_grid(
                grid, np.clip(self.available_down(), floor, None), "downlink"
            ),
        )

    def window(self, start_sample: int, samples: int) -> WorkloadTrace:
        """A sub-trace of ``samples`` samples starting at ``start_sample``."""
        if not 0 <= start_sample < self.sample_count:
            raise TraceError(f"start sample {start_sample} out of range")
        if samples < 1:
            raise TraceError(
                f"a window of {samples} samples: it needs at least one"
            )
        end = min(start_sample + samples, self.sample_count)
        return WorkloadTrace(
            name=self.name,
            capacity=self.capacity,
            used_up=self.used_up[:, start_sample:end],
            used_down=self.used_down[:, start_sample:end],
            interval=self.interval,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        np.savez_compressed(
            path,
            name=self.name,
            capacity=self.capacity,
            used_up=self.used_up,
            used_down=self.used_down,
            interval=self.interval,
        )

    @classmethod
    def load(cls, path: str | Path) -> WorkloadTrace:
        """The trace :meth:`save` wrote to ``path``; any other file is a
        :class:`TraceError` naming it."""
        try:
            with np.load(path, allow_pickle=False) as data:
                fields = dict(
                    name=str(data["name"]),
                    capacity=float(data["capacity"]),
                    used_up=data["used_up"],
                    used_down=data["used_down"],
                    interval=float(data["interval"]),
                )
        except (
            EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile
        ) as error:
            raise TraceError(
                f"{path} is not a saved workload trace"
            ) from error
        return cls(**fields)


DEFAULT_CAPACITY = gbps(1.0)
