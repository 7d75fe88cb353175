"""Bottleneck-attribution tests: synthetic rate profiles + real runs.

The synthetic cases drive :func:`repro.obs.diagnose` with hand-built
event streams whose decomposition is known in closed form; the
integration cases check the attribution identity on real simulator runs.
"""

import json
import math

import numpy as np
import pytest

from repro.core import PivotRepairPlanner, pin_planning
from repro.ec import RSCode, place_stripes
from repro.network.topology import StarNetwork
from repro.obs import FlightRecorder, Tracer, diagnose
from repro.obs.critpath import build_spans, flow_resources
from repro.repair import repair_full_node
from repro.repair.pipeline import ExecutionConfig
from repro.scenario import FullNodeScenario
from repro.traces import PROFILES, generate_trace


BMIN = 100.0  # bytes/s claimed by the synthetic planner


def synthetic_flow(
    tracer: Tracer,
    *,
    task: int = 1,
    submit: float = 0.0,
    finish: float = 10.0,
    rates=((0.0, BMIN),),
    bytes_per_edge: float | None = None,
    edges=((2, 1), (1, 0)),
    label: str = "pivot-r0",
    kind: str = "repair",
    bmin: float | None = BMIN,
    close: bool = True,
):
    """Emit a flow span shaped exactly like the simulator's: the claimed
    ``bmin`` stamped at submit, rate changes parented to the span."""
    edges = [list(edge) for edge in edges]
    if bytes_per_edge is None:
        # Integrate the piecewise-constant profile so the identity holds.
        bytes_per_edge = 0.0
        points = list(rates) + [(finish, 0.0)]
        for (t0, rate), (t1, _) in zip(points, points[1:]):
            bytes_per_edge += rate * (t1 - t0)
    meta = {} if bmin is None else {"bmin": bmin}
    span = tracer.begin(
        "flow", t=submit, track="node:0", label=label, task=task,
        shape="pipelined", kind=kind, edges=edges,
        bytes_total=bytes_per_edge * len(edges), **meta,
    )
    for t, rate in rates:
        tracer.instant(
            "flow.rate_change", t=t, track="node:0", parent_id=span,
            task=task, rate=rate,
        )
    if close:
        tracer.end("flow", t=finish, span_id=span, track="node:0")
    return bytes_per_edge


class TestDecomposition:
    def test_uncontended_flow_is_all_ideal(self):
        tracer = Tracer()
        synthetic_flow(tracer, rates=((0.0, BMIN),), finish=10.0)
        [diag] = diagnose(tracer.events).repairs
        assert diag.reference == "claimed"
        assert diag.claimed_bmin == BMIN
        assert diag.components == {"transfer": pytest.approx(10.0)}
        assert diag.achieved_over_claimed == pytest.approx(1.0)
        assert not diag.anomalies

    def test_halved_rate_splits_ideal_and_contention(self):
        tracer = Tracer()
        synthetic_flow(tracer, rates=((0.0, BMIN / 2),), finish=10.0)
        [diag] = diagnose(tracer.events).repairs
        assert diag.components["transfer"] == pytest.approx(5.0)
        assert diag.components["contention"] == pytest.approx(5.0)
        assert sum(diag.components.values()) == pytest.approx(diag.duration)

    def test_rate_at_cap_attributes_to_governor(self):
        tracer = Tracer()
        tracer.instant(
            "governor.decision", t=0.0, track="governor", cap=BMIN / 2
        )
        synthetic_flow(tracer, rates=((0.0, BMIN / 2),), finish=10.0)
        [diag] = diagnose(tracer.events).repairs
        assert diag.components["governor"] == pytest.approx(5.0)
        assert "contention" not in diag.components

    def test_uncapped_decision_disables_governor_attribution(self):
        tracer = Tracer()
        tracer.instant(
            "governor.decision", t=0.0, track="governor", cap=-1.0
        )
        synthetic_flow(tracer, rates=((0.0, BMIN / 2),), finish=10.0)
        [diag] = diagnose(tracer.events).repairs
        assert "governor" not in diag.components
        assert diag.components["contention"] == pytest.approx(5.0)

    def test_zero_rate_interval_is_a_stall(self):
        tracer = Tracer()
        synthetic_flow(
            tracer,
            rates=((0.0, BMIN), (4.0, 0.0), (7.0, BMIN)),
            finish=10.0,
        )
        [diag] = diagnose(tracer.events).repairs
        assert diag.components["stall"] == pytest.approx(3.0)
        assert diag.components["transfer"] == pytest.approx(7.0)

    def test_rate_above_reference_is_plain_transfer(self):
        # Running above the reference earns no negative "credit": B / ref
        # (12.5 s here) stays derivable from the JSON fields instead.
        tracer = Tracer()
        synthetic_flow(
            tracer,
            rates=((0.0, BMIN / 2), (5.0, 2 * BMIN)),
            finish=10.0,
        )
        [diag] = diagnose(tracer.events).repairs
        assert diag.components["transfer"] == pytest.approx(7.5)
        assert diag.components["contention"] == pytest.approx(2.5)
        assert diag.bytes_per_edge / diag.claimed_bmin == pytest.approx(12.5)
        assert sum(diag.components.values()) == pytest.approx(diag.duration)

    def test_same_timestamp_rate_changes_last_wins(self):
        # Resubmission churn: two changes at t=0; only the second held.
        tracer = Tracer()
        synthetic_flow(
            tracer,
            rates=((0.0, BMIN), (0.0, BMIN / 2)),
            bytes_per_edge=BMIN / 2 * 10.0,
            finish=10.0,
        )
        run = diagnose(tracer.events)
        [diag] = run.repairs
        assert diag.components["contention"] == pytest.approx(5.0)
        assert not diag.anomalies  # no residual: profile matches bytes


class TestAnomalies:
    def test_achieved_above_claimed_is_flagged(self):
        tracer = Tracer()
        synthetic_flow(
            tracer, rates=((0.0, BMIN),), finish=10.0, bmin=BMIN / 4
        )
        run = diagnose(tracer.events)
        assert any("exceeds claimed" in issue for issue in run.anomalies)

    def test_unfinished_flow_is_flagged_and_skipped(self):
        tracer = Tracer()
        synthetic_flow(tracer, close=False)
        run = diagnose(tracer.events)
        assert run.repairs == []
        assert any("never finished" in issue for issue in run.anomalies)

    def test_byte_conservation_violation_detected(self):
        tracer = Tracer()
        synthetic_flow(tracer)
        run = diagnose(
            tracer.events,
            telemetry={
                "per_bytes_up": {"1": 1000.0, "2": 1000.0},
                "per_bytes_down": {"0": 900.0, "1": 1000.0},
                "counters": {},
            },
        )
        assert any("conservation" in issue for issue in run.anomalies)

    def test_residual_mismatch_detected(self):
        tracer = Tracer()
        # Claimed bytes are double what the rate profile integrates to.
        synthetic_flow(
            tracer, rates=((0.0, BMIN),), bytes_per_edge=2 * BMIN * 10.0,
            finish=10.0,
        )
        run = diagnose(tracer.events)
        assert any(
            "rate profile integrates to" in issue for issue in run.anomalies
        )
        # The rule still tiles the duration; only the bytes are off.
        [diag] = run.repairs
        assert sum(diag.components.values()) == pytest.approx(diag.duration)

    def test_cancelled_flow_is_decomposed_without_integral_check(self):
        tracer = Tracer()
        # Cancelled halfway: carried half the bytes at half the rate.
        span = tracer.begin(
            "flow", t=0.0, track="node:0", label="pivot-r0", task=1,
            shape="pipelined", kind="repair", edges=[[1, 0]],
            bytes_total=BMIN * 10.0, bmin=BMIN,
        )
        tracer.instant(
            "flow.rate_change", t=0.0, track="node:0", parent_id=span,
            task=1, rate=BMIN / 2,
        )
        tracer.instant("flow.cancel", t=5.0, track="node:0", parent_id=span)
        tracer.end(
            "flow", t=5.0, span_id=span, track="node:0", cancelled=True
        )
        run = diagnose(tracer.events)
        [diag] = run.repairs
        assert diag.cancelled and not run.anomalies
        assert diag.components == {
            "transfer": pytest.approx(2.5),
            "contention": pytest.approx(2.5),
        }
        assert diag.achieved_rate == pytest.approx(BMIN / 2)

    def test_legacy_instant_trace_yields_named_anomalies_not_numbers(self):
        # Pre-PR-9 traces closed flows with a ``flow.finish`` instant;
        # that format is no longer read.
        tracer = Tracer()
        synthetic_flow(tracer, close=False)
        tracer.instant("flow.finish", t=10.0, track="node:0", task=1)
        run = diagnose(tracer.events)
        assert run.repairs == [] and not run.totals
        assert any("never finished" in issue for issue in run.anomalies)


class TestClaimedMatching:
    def test_foreground_flows_are_not_diagnosed(self):
        tracer = Tracer()
        synthetic_flow(tracer, task=1)
        synthetic_flow(tracer, task=2, kind="foreground", label="client")
        run = diagnose(tracer.events)
        assert [d.label for d in run.repairs] == ["pivot-r0"]


class TestBottleneckNaming:
    # Node links of a constant four-node star: the chain 2 -> 1 -> 0 at
    # rate 40 loads up2 .08, up1 .4, down1 .4 and down0 .5 on its own.
    UPS = [1000.0, 100.0, 500.0, 1000.0]
    DOWNS = [80.0, 100.0, 1000.0, 1000.0]

    def diagnosed(self, *rivals, rates=((0.0, 40.0),)):
        tracer = Tracer()
        synthetic_flow(tracer, rates=rates, edges=((2, 1), (1, 0)))
        for task, rates, finish in rivals:
            synthetic_flow(
                tracer, task=task, rates=rates, finish=finish,
                edges=((3, 1),), label="rival",
            )
        network = StarNetwork.constant(self.UPS, self.DOWNS)
        return diagnose(tracer.events, network=network)

    def test_rival_repair_saturating_a_shared_link_holds_it(self):
        # The rival crosses node 1's downlink too: at 60 it fills it
        # (1.0) for 4 s, at 30 it leaves it the tightest (0.7) for 3 s,
        # and once it ends node 0's downlink (0.5) holds the last 3 s.
        run = self.diagnosed((2, ((0.0, 60.0), (4.0, 30.0)), 7.0))
        flow, rival = run.repairs
        assert (flow.bottleneck.direction, flow.bottleneck.node) == (
            "down", 1,
        )
        assert flow.bottleneck.share == pytest.approx(0.7)
        assert flow.bottleneck.utilization == pytest.approx(6.1 / 7)
        assert flow.bottleneck.describe() == (
            "node 1 downlink (70% of time, util 0.87)"
        )
        assert (rival.bottleneck.direction, rival.bottleneck.share) == (
            "down", pytest.approx(1.0),
        )
        # Each flow books its winner's seconds only.
        assert run.bottleneck_seconds == {("down", 1): pytest.approx(14.0)}

    def test_alone_the_flow_is_held_by_its_own_tightest_link(self):
        [flow] = self.diagnosed().repairs
        assert (flow.bottleneck.direction, flow.bottleneck.node) == (
            "down", 0,
        )
        assert flow.bottleneck.share == pytest.approx(1.0)
        assert flow.bottleneck.utilization == pytest.approx(0.5)

    def test_stalled_windows_hold_no_link(self):
        [flow] = self.diagnosed(rates=((0.0, 40.0), (6.0, 0.0))).repairs
        assert flow.bottleneck.share == pytest.approx(0.6)
        assert flow.bottleneck.utilization == pytest.approx(0.5)

    def test_run_wide_share_counts_only_held_seconds(self):
        # The 4 s at rate 0 belong to no link, so node 0's downlink held
        # all of the run's held seconds though only 60 % of its duration.
        run = self.diagnosed(rates=((0.0, 40.0), (6.0, 0.0)))
        [flow] = run.repairs
        assert flow.held_seconds == pytest.approx(6.0)
        top = run.top_bottleneck
        assert (top.direction, top.node) == ("down", 0)
        assert top.share == pytest.approx(1.0)

    def test_run_wide_utilization_is_weighted_by_held_seconds(self):
        # Node 0's downlink holds both repairs: the chain at 40 (util
        # 0.5) for 10 s, a lone edge 3 -> 0 at 72 (util 0.9) for 1 s.
        tracer = Tracer()
        synthetic_flow(tracer, rates=((0.0, 40.0),))
        synthetic_flow(
            tracer, task=2, submit=20.0, finish=21.0, rates=((20.0, 72.0),),
            edges=((3, 0),), label="short",
        )
        network = StarNetwork.constant(self.UPS, self.DOWNS)
        run = diagnose(tracer.events, network=network)
        assert [d.bottleneck.utilization for d in run.repairs] == [
            pytest.approx(0.5), pytest.approx(0.9),
        ]
        top = run.top_bottleneck
        assert (top.direction, top.node) == ("down", 0)
        assert top.utilization == pytest.approx((0.5 * 10 + 0.9 * 1) / 11)
        assert top.share == pytest.approx(1.0)

    def test_no_network_names_no_link(self):
        tracer = Tracer()
        synthetic_flow(tracer)
        [flow] = diagnose(tracer.events).repairs
        assert flow.bottleneck is None

    def test_oracle_bmin_from_network(self):
        # Chain 2 -> 1 -> 0: B_min = min(up2, min(up1, down1), down0).
        ups = [500.0, 80.0, 300.0]
        downs = [200.0, 400.0, 999.0]
        network = StarNetwork.constant(ups, downs)
        tracer = Tracer()
        synthetic_flow(
            tracer, rates=((0.0, 80.0),), finish=10.0,
            edges=((2, 1), (1, 0)), bmin=None,
        )
        run = diagnose(tracer.events, network=network)
        [diag] = run.repairs
        assert diag.oracle_bmin == pytest.approx(80.0)
        assert diag.reference == "oracle"
        assert diag.achieved_over_oracle == pytest.approx(1.0)
        # At 80 the flow fills node 1's uplink and nothing else.
        assert (diag.bottleneck.direction, diag.bottleneck.node) == ("up", 1)
        assert diag.bottleneck.utilization == pytest.approx(1.0)


class TestRunAggregation:
    def test_totals_and_json_rendering(self):
        tracer = Tracer()
        synthetic_flow(tracer, task=1, rates=((0.0, BMIN / 2),))
        run = diagnose(tracer.events)
        assert run.totals["contention"] == pytest.approx(
            run.repairs[0].components["contention"]
        )
        payload = json.loads(run.to_json())
        assert payload["repairs"][0]["reference"] == "claimed"
        assert run.to_json() == run.to_json()  # stable
        rendered = run.render()
        assert "diagnosed 1 repair flow(s)" in rendered
        assert "anomalies: none" in rendered

    def test_real_run_attribution_identity(self):
        code = RSCode(6, 4)
        stripes = place_stripes(6, code, 10, np.random.default_rng(3))
        network = StarNetwork.constant([500.0] * 10, [800.0] * 10)

        tracer = Tracer()
        result = repair_full_node(
            pin_planning(PivotRepairPlanner(), 0.0), network, stripes, stripes[0].placement[0],
            config=ExecutionConfig(
                chunk_size=10_000, slice_size=1000, per_slice_overhead=0.0
            ),
            tracer=tracer,
        )
        run = diagnose(
            tracer.events, network=network, telemetry=result.telemetry
        )
        assert len(run.repairs) == result.chunks_repaired
        assert run.anomalies == []
        for diag in run.repairs:
            assert diag.reference == "oracle"
            assert sum(diag.components.values()) == pytest.approx(
                diag.duration, rel=1e-6
            )
        assert run.achieved_over_oracle is not None
        assert 0 < run.achieved_over_oracle <= 1.01


class TestExactRuleIsTheTickVotesLimit:
    """On the CLI identity scenario, each flow's exact bottleneck is the
    link a vote over a fine flight-recorder grid elects: every tick
    inside the flow votes for the flow's most-utilized link (ties to the
    lowest ``(direction, node)``), and the most votes win."""

    INTERVAL = 0.0005

    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("vote") / "t.npz"
        generate_trace(
            PROFILES["TPC-H"], node_count=12, duration=20, seed=5
        ).save(path)
        return path

    @staticmethod
    def vote(flow, samples):
        ticks: dict[tuple[str, int], int] = {}
        for sample in samples:
            if not flow.start <= sample.t <= flow.end:
                continue
            best, best_util = None, 0.0
            for direction, node in sorted(
                flow_resources(flow.fields["edges"])
            ):
                series = (
                    sample.up_util if direction == "up" else sample.down_util
                )
                util = series.get(node, 0.0)
                if math.isinf(util):
                    util = 1.0
                if util > best_util:
                    best, best_util = (direction, node), util
            if best is not None:
                ticks[best] = ticks.get(best, 0) + 1
        return min(ticks, key=lambda link: (-ticks[link], link[1], link[0]))

    @pytest.mark.parametrize("variant", [
        {}, {"governor": "static"}, {"faults": "crash:3@0.05"},
    ], ids=["plain", "static-governor", "crash"])
    def test_each_flow_names_the_fine_votes_winner(self, trace_path, variant):
        live = FullNodeScenario(
            trace=str(trace_path), stripes=6, chunk_mib=4, seed=3, **variant
        ).build()
        tracer = Tracer()
        recorder = FlightRecorder(interval=self.INTERVAL, capacity=1 << 16)
        live.run(tracer=tracer, sampler=recorder)
        assert recorder.dropped == 0
        flows = [
            flow for _, flow in sorted(build_spans(tracer.events).spans.items())
            if flow.name == "flow"
        ]
        repairs = diagnose(tracer.events, network=live.network).repairs
        assert [d.submit for d in repairs] == [f.start for f in flows]
        for diag, flow in zip(repairs, flows):
            named = (diag.bottleneck.direction, diag.bottleneck.node)
            assert named == self.vote(flow, recorder.samples), diag.label
