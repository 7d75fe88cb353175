"""The seeded full-node scenario: one definition.

Every ``repro`` subcommand that repairs a whole node (``fullnode``,
``resume``, ``load``, ``explain``, ``report``, ``critpath``, ``top``)
runs the same object: a workload trace, an (n, k) code, a seeded
placement, one failed node, optionally faults, client load and a QoS
governor.  :class:`FullNodeScenario` is that object as plain values;
``build()`` makes the live objects once, ``run()`` repairs the node.

This module alone decides (``docs/architecture.md`` has the reasons):
placement and victim; which network a run gets; that the foreground is
drained before a result is read; and the keys of the journal's
``run_config`` record, which :func:`resume` reads back.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.baselines import PPTPlanner, RPPlanner
from repro.core import PivotRepairPlanner
from repro.core.plan import RepairPlanner
from repro.core.scheduler import SchedulerConfig
from repro.ec import RSCode, Stripe, place_stripes
from repro.faults import FaultPlan, RetryPolicy
from repro.loadgen import (
    ForegroundEngine,
    LoadProfile,
    RepairQoSGovernor,
    generate_requests,
    make_governor,
    rate_profile_from_trace,
)
from repro.network.topology import StarNetwork
from repro.obs import NULL_TRACER
from repro.repair import (
    ExecutionConfig,
    FullNodeResult,
    repair_full_node,
    repair_full_node_adaptive,
)
from repro.resilience.journal import JournalError, RepairJournal
from repro.traces import WorkloadTrace
from repro.units import mbps, mib

#: Planner factories by the scheme names the CLI accepts.
SCHEMES = {
    "pivot": PivotRepairPlanner,
    "rp": RPPlanner,
    "ppt": PPTPlanner,
}

#: Recommendation-value bar of the adaptive strategy's runs.
ADAPTIVE_THRESHOLD = 10.0

#: Keys of a journal's ``run_config`` record: enough to rebuild the
#: scenario bit-identically, plus ``failed_node`` as a check that the
#: rebuild placed what the interrupted run placed.
RUN_CONFIG_KEYS = (
    "trace", "n", "k", "stripes", "chunk_mib", "concurrency", "seed",
    "failed_node", "scheme",
)


def parse_fault_specs(
    faults: str | None, retry_policy: str | None
) -> tuple[FaultPlan | None, RetryPolicy | None]:
    """``--faults`` (a spec string or a JSON fault-plan file) and
    ``--retry-policy`` as live objects."""
    plan = None
    if faults is not None:
        plan = (
            FaultPlan.from_file(faults)
            if Path(faults).exists()
            else FaultPlan.from_spec(faults)
        )
    policy = None
    if retry_policy is not None:
        policy = RetryPolicy.from_spec(retry_policy)
    return plan, policy


@dataclass(frozen=True)
class FullNodeScenario:
    """One seeded full-node repair, as plain values."""

    #: Path of the ``.npz`` workload trace.
    trace: str
    n: int = 6
    k: int = 4
    stripes: int = 16
    chunk_mib: float = 64
    concurrency: int = 4
    seed: int = 0
    scheme: str = "pivot"
    #: Fault plan (spec string or JSON file) and retry policy spec.
    faults: str | None = None
    retry_policy: str | None = None
    #: Mean client requests per second; None runs the repair alone.
    foreground_rate: float | None = None
    #: Request stream length in seconds (None: the trace's length).
    foreground_duration: float | None = None
    read_fraction: float = 0.9
    request_mib: float = 1.0
    zipf: float = 0.9
    #: Tenant labels of the foreground requests.
    tenants: tuple[str, ...] = ()
    #: Repair QoS policy (``none`` / ``static`` / ``adaptive``; None
    #: consults no governor at all) and its setting.
    governor: str | None = None
    static_cap_mbps: float = 250.0
    slo_ms: float = 500.0

    def build(self) -> LiveScenario:
        """Load the trace, place the stripes, pick the failed node."""
        trace = WorkloadTrace.load(Path(self.trace))
        if self.foreground_rate is None:
            network = trace.to_network(floor=1e6)
        else:
            # Foreground traffic is explicit: the links run at full
            # capacity and the measured trace shapes the *arrival rate*
            # instead of pre-subtracting link bandwidth.
            network = StarNetwork.uniform(trace.node_count, trace.capacity)
        stripes = place_stripes(
            self.stripes, RSCode(self.n, self.k), trace.node_count,
            np.random.default_rng(self.seed),
        )
        faults, retry_policy = parse_fault_specs(
            self.faults, self.retry_policy
        )
        governor = None
        if self.governor is not None:
            setting = {
                "static": {"cap": mbps(self.static_cap_mbps)},
                "adaptive": {"slo_p99": self.slo_ms / 1000.0},
            }.get(self.governor, {})
            governor = make_governor(self.governor, **setting)
        return LiveScenario(
            spec=self, trace=trace, network=network, stripes=stripes,
            failed_node=stripes[0].placement[0],
            config=ExecutionConfig(chunk_size=mib(self.chunk_mib)),
            faults=faults, retry_policy=retry_policy, governor=governor,
        )


@dataclass
class LiveScenario:
    """The live objects of a :class:`FullNodeScenario`, built once;
    each ``run()`` repairs the failed node on a fresh simulator."""

    spec: FullNodeScenario
    trace: WorkloadTrace
    network: StarNetwork
    stripes: list[Stripe]
    failed_node: int
    config: ExecutionConfig
    faults: FaultPlan | None
    retry_policy: RetryPolicy | None
    governor: RepairQoSGovernor | None

    def lost_stripes(self) -> list[Stripe]:
        """The stripes with a chunk on the failed node."""
        return [
            stripe for stripe in self.stripes
            if stripe.chunk_on_node(self.failed_node) is not None
        ]

    def planner(self, scheme: str | None = None) -> RepairPlanner:
        return SCHEMES[scheme or self.spec.scheme]()

    def run(
        self,
        scheme: str | None = None,
        *,
        tracer=NULL_TRACER,
        journal: RepairJournal | None = None,
        sampler=None,
        adaptive: bool = False,
        foreground: bool = True,
    ) -> tuple[FullNodeResult, ForegroundEngine | None]:
        """Repair the failed node with ``scheme`` (default: the spec's):
        the result, and the client load that ran beside it, drained
        (None without one).

        ``journal`` makes the run resumable: its ``run_config`` record
        is written here if it has none, and stripes it already marks
        done are skipped.  ``sampler`` (a flight recorder) observes the
        run, and its TSDB, if any, also receives the foreground's
        series.  ``adaptive`` dispatches by recommendation value instead
        of a fixed window.  ``foreground=False`` repairs alone on the
        same network: no client load, no governor (a baseline).
        """
        spec = self.spec
        scheme = scheme or spec.scheme
        stripes = self.stripes
        if journal is not None:
            if journal.run_config() is None:
                values = {
                    **asdict(spec), "failed_node": self.failed_node,
                    "scheme": scheme,
                }
                journal.append(
                    "run_config",
                    **{key: values[key] for key in RUN_CONFIG_KEYS},
                )
            done = journal.done_stripes()
            stripes = [s for s in stripes if s.stripe_id not in done]
        engine = None
        if foreground and spec.foreground_rate is not None:
            engine = self._foreground_engine(scheme, sampler)
        if adaptive:
            driver = repair_full_node_adaptive
            dispatch = {
                "scheduler": SchedulerConfig(threshold=ADAPTIVE_THRESHOLD)
            }
        else:
            driver = repair_full_node
            dispatch = {"concurrency": spec.concurrency}
        result = driver(
            self.planner(scheme), self.network, stripes, self.failed_node,
            config=self.config, tracer=tracer, faults=self.faults,
            retry_policy=self.retry_policy, foreground=engine,
            governor=self.governor if foreground else None,
            sampler=sampler, journal=journal, **dispatch,
        )
        if engine is not None:
            engine.drain()
        return result, engine

    def _foreground_engine(self, scheme: str, sampler) -> ForegroundEngine:
        """Client load beside the repair: arrivals at the spec's mean
        rate, shaped by the measured trace."""
        spec, trace = self.spec, self.trace
        profile = LoadProfile(
            name=trace.name,
            arrival_rate=spec.foreground_rate,
            duration=(
                float(trace.sample_count)
                if spec.foreground_duration is None
                else spec.foreground_duration
            ),
            read_fraction=spec.read_fraction,
            request_size=int(mib(spec.request_mib)),
            zipf_s=spec.zipf,
            tenants=spec.tenants,
        )
        requests = generate_requests(
            profile, self.stripes, trace.node_count, seed=spec.seed,
            rate_profile=rate_profile_from_trace(trace),
        )
        return ForegroundEngine(
            self.stripes, requests, self.planner(scheme),
            failed_nodes={self.failed_node}, faults=self.faults,
            tsdb=getattr(sampler, "tsdb", None),
        )


def resume(
    journal: RepairJournal, *, tracer=NULL_TRACER, **fields
) -> tuple[LiveScenario, set[int], FullNodeResult | None]:
    """Finish the journaled full-node repair ``journal`` interrupted:
    the rebuilt scenario, the stripes the journal already marked done,
    and the repair of the remainder (None when nothing was left).

    The ``run_config`` record rebuilds the scenario bit-identically
    (trace file, code, placement seed); ``task_done`` records say which
    stripes already finished.  The repair runs over the remainder only,
    appending to the same journal, so resuming a resume also works.
    ``fields`` are scenario fields the record does not carry (faults,
    retry policy).
    """
    record = journal.run_config()
    if record is None:
        raise JournalError(
            f"{journal.path}: no run_config record — "
            + (
                "only journals written by 'repro fullnode --journal' can "
                "be resumed"
                if journal.records
                else "the run that opened it stopped before its journaled "
                "repair began; run it again"
            )
        )
    try:
        recorded = {key: record[key] for key in RUN_CONFIG_KEYS}
    except KeyError as error:
        raise JournalError(
            f"{journal.path}: run_config lacks {error}"
        ) from error
    failed_node = recorded.pop("failed_node")
    live = FullNodeScenario(**recorded, **fields).build()
    if live.failed_node != failed_node:
        raise JournalError(
            f"{journal.path}: run_config repairs node {failed_node} but "
            f"its seed now places node {live.failed_node} first — not "
            "the trace it was written on"
        )
    done = journal.done_stripes()
    result = None
    if any(s.stripe_id not in done for s in live.lost_stripes()):
        result, _ = live.run(tracer=tracer, journal=journal)
    return live, done, result
